"""Snooping engine: window math, discovery, the three probing machines."""

import pytest

from snoopdns import engine
from snoopdns.clock import VirtualClock
from snoopdns.engine import (CycleError, DiscoveryBudgetExceeded,
                             DiscoveryMachine, InconsistentTtl,
                             InsufficientSeparation, NonMonotonicTtl,
                             Rd0Machine, RefreshObservation,
                             ServerPrefetches, TimingCalibration, TtlExceedsMax,
                             TtlRecursiveMachine, UnresolvableDomain, calibrate_timing,
                             check_rd_behavior, classify_timing,
                             classify_window_read, discover_max_ttl,
                             snap_to_grid, ttl_grace)
from snoopdns.scan import run_scan
from snoopdns.simnet import SimExchange, build_sim
from snoopdns.transport import Prober, ProbeTimeout


def sim_prober(config, seed_salt=0):
    clock = VirtualClock()
    sim = build_sim(config, start_time=clock.now())
    import random

    prober = Prober(transport=SimExchange(sim, clock), clock=clock,
                    rng=random.Random(1000 + seed_salt))
    return prober, clock, sim


def quiet_zone(ttl=300, **overrides):
    config = {"seed": 1,
              "zones": {"a.test": {"address": "10.0.0.1", "ttl": ttl}},
              "clients": []}
    config.update(overrides)
    return config


def scan_a(prober, clock, method, max_ttl, calibration=None, **budget):
    """Scan a.test alone at a known maximum TTL, windows a whole max_ttl long."""
    return run_scan(prober, clock, "sim", ["a.test"], max_ttls={"a.test": max_ttl},
                    method=method, calibration=calibration, **budget)


class TestTtlGrace:
    def test_floor_of_two_seconds(self):
        assert ttl_grace(60) == 2.0
        assert ttl_grace(10) == 2.0

    def test_one_percent_for_large_maxima(self):
        assert ttl_grace(300) == 3.0
        assert ttl_grace(3600) == 36.0


class TestSnapToGrid:
    @pytest.mark.parametrize("reading,expected", [
        (299, (300, True)),    # one below a minute multiple
        (300, (300, False)),   # already on the grid
        (15, (15, False)),
        (14, (15, True)),
        (58, (60, True)),
        (297, (297, False)),   # 3 below, outside tolerance
        (3598, (3600, True)),
        (61, (61, False)),
        (19, (20, True)),
    ])
    def test_snapping(self, reading, expected):
        assert snap_to_grid(reading) == expected


class TestClassifyWindowRead:
    # max 300 has grace 3
    def test_event_delay(self):
        assert classify_window_read(120, 300, 300) == pytest.approx(120.0)

    def test_read_at_full_ttl_is_censored(self):
        assert classify_window_read(300, 300, 300) is None
        assert classify_window_read(299, 300, 300) is None
        assert classify_window_read(297, 300, 300) is None

    def test_read_above_max_raises(self):
        with pytest.raises(TtlExceedsMax):
            classify_window_read(320, 300, 300)

    def test_read_just_inside_grace_above_max_is_censored(self):
        assert classify_window_read(302, 300, 300) is None

    def test_impossible_early_refresh_raises(self):
        with pytest.raises(InconsistentTtl):
            classify_window_read(100, 300, 10)

    def test_slightly_negative_delay_clamps_to_zero(self):
        assert classify_window_read(289, 300, 10) == 0.0

    def test_delay_never_exceeds_window(self):
        delay = classify_window_read(296, 300, 10)
        assert 0 <= delay <= 10


class TestDiscoverMaxTtl:
    def test_quiet_resolver_confirms_exact_ttl(self):
        prober, clock, _ = sim_prober(quiet_zone(ttl=300))
        estimate = discover_max_ttl(prober, clock, "sim", "a.test",
                                    required_confirmations=5)
        assert estimate.max_ttl == 300
        assert estimate.confirmations == 5
        assert estimate.snapped_to_grid is False
        assert estimate.candidates_seen == {300: 5}

    def test_off_grid_reading_snaps_up(self, scripted):
        script = [299, 2, 299, 2, 300, 2, 300, 2, 300, 2, 300]
        prober, clock, exchange = scripted(script)
        estimate = discover_max_ttl(prober, clock, "sim", "a.test",
                                    required_confirmations=5)
        assert estimate.max_ttl == 300
        assert estimate.confirmations == 5
        assert estimate.snapped_to_grid is True
        assert not exchange.script, "all scripted probes should be consumed"

    def test_initial_read_is_not_a_candidate(self, scripted):
        prober, clock, exchange = scripted([240, 2, 240, 2, 240])
        estimate = discover_max_ttl(prober, clock, "sim", "a.test",
                                    required_confirmations=2)
        assert estimate.candidates_seen == {240: 2}
        assert not exchange.script

    def test_tiny_ttl_skips_the_checkpoint(self, scripted):
        prober, clock, exchange = scripted([3, 3, 3])
        estimate = discover_max_ttl(prober, clock, "sim", "a.test",
                                    required_confirmations=2)
        assert estimate.max_ttl == 3
        assert not exchange.script, "no checkpoint probes for a 3s ttl"

    def test_prefetching_server_detected_within_first_rounds(self):
        config = quiet_zone(ttl=300)
        config["anomaly"] = {"kind": "pre_refresh",
                             "remaining_low": 3.0, "remaining_high": 5.0}
        prober, clock, _ = sim_prober(config)
        with pytest.raises(ServerPrefetches):
            discover_max_ttl(prober, clock, "sim", "a.test")
        # one initial read plus at most one checkpoint: round 1
        assert clock.now() < 2 * 300

    def test_static_ttl_server_detected(self, scripted):
        prober, clock, _ = scripted([77, 77])
        with pytest.raises(NonMonotonicTtl):
            discover_max_ttl(prober, clock, "sim", "a.test")

    def test_budget_exhaustion_raises(self, scripted):
        candidates = [100 * k for k in range(1, 17)]
        script = [100]
        for value in candidates:
            script += [2, value]
        prober, clock, _ = scripted(script)
        with pytest.raises(DiscoveryBudgetExceeded):
            discover_max_ttl(prober, clock, "sim", "a.test",
                             required_confirmations=2)

    def test_unresolvable_domain_raises(self, scripted):
        prober, clock, _ = scripted([None])
        with pytest.raises(UnresolvableDomain):
            discover_max_ttl(prober, clock, "sim", "a.test")

    def test_timeout_propagates(self, scripted):
        prober, clock, _ = scripted(["timeout"])
        with pytest.raises(ProbeTimeout):
            discover_max_ttl(prober, clock, "sim", "a.test")


class TestDiscoveryMachine:
    def test_plans_each_wake_instead_of_sleeping(self, scripted):
        prober, clock, exchange = scripted([240, 2, 240, 2, 240], rtt_ms=0.0)
        machine = DiscoveryMachine(prober, "sim", "a.test", required_confirmations=2)
        wakes = []
        wake = clock.now()
        while wake is not None:
            clock.sleep_until(wake)
            woke = clock.now()
            wake, items = machine.step(woke)
            assert clock.now() == woke  # zero RTT: the step itself never waits
            assert items == []
            wakes.append(wake)
        # first read, then per round a checkpoint 2 s before expiry and
        # a roll-over read 1 s after it
        assert wakes == [238.0, 241.0, 479.0, 482.0, None]
        assert machine.done and machine.error is None
        assert machine.estimate.candidates_seen == {240: 2}

    def test_a_checkpoint_sent_after_expiry_is_the_roll_over_read(self, scripted):
        prober, clock, _ = scripted([240, 240, 2, 240], rtt_ms=0.0)
        machine = DiscoveryMachine(prober, "sim", "a.test", required_confirmations=2)
        assert machine.step(clock.now()) == (238.0, [])
        # a busy scheduler runs the checkpoint 5 s past the expiry; the
        # record was re-fetched at the maximum, which counts as a round
        clock.sleep_until(245.0)
        assert machine.step(clock.now()) == (483.0, [])
        assert machine.error is None
        clock.sleep_until(483.0)
        assert machine.step(clock.now()) == (486.0, [])
        clock.sleep_until(486.0)
        assert machine.step(clock.now()) == (None, [])
        assert machine.error is None
        assert machine.estimate.candidates_seen == {240: 2}

    def test_a_late_checkpoint_over_a_second_before_expiry_is_judged(self, scripted):
        prober, clock, _ = scripted([240, 240], rtt_ms=0.0)
        machine = DiscoveryMachine(prober, "sim", "a.test", required_confirmations=2)
        machine.step(clock.now())
        clock.sleep_until(238.5)  # 1.5 s left: the record cannot have expired
        assert machine.step(clock.now()) == (None, [])
        assert isinstance(machine.error, NonMonotonicTtl)
        assert str(machine.error) == "a.test: TTL stuck at 240 across 238s"

    def test_failure_is_kept_for_the_caller(self, scripted):
        prober, clock, _ = scripted([None])
        machine = DiscoveryMachine(prober, "sim", "a.test")
        assert machine.step(clock.now()) == (None, [])
        assert machine.done
        assert isinstance(machine.error, UnresolvableDomain)
        assert "no usable answer" in str(machine.error)
        assert machine.estimate is None

    def test_confirmations_must_be_positive(self, scripted):
        prober, _, _ = scripted([])
        with pytest.raises(ValueError, match="required_confirmations"):
            DiscoveryMachine(prober, "sim", "a.test", required_confirmations=0)


class TestRunCycleTtlRecursive:
    """One expiry-watch cycle, probe by probe: a read fixes the expiry,
    cycle 0's checkpoint 2 s before it checks the countdown, and the
    read a window past it classifies the cycle."""

    def test_mid_window_refresh_yields_the_delay(self, scripted):
        prober, clock, _ = scripted([300, 2, 120])
        machine = TtlRecursiveMachine(prober, "sim", "a.test", max_ttl=300,
                                      window=300.0)
        assert machine.step(clock.now()) == (298.0, [])
        clock.sleep_until(298.0)
        assert machine.step(clock.now()) == (600.0, [])
        clock.sleep_until(600.0)
        _, [observation] = machine.step(clock.now())
        assert observation.censored is False
        assert observation.event.delay_after_expiry == pytest.approx(120.0)
        assert observation.window_length == pytest.approx(300.0)
        assert observation.event.inferred_refresh_time == pytest.approx(420.0)

    def test_untouched_window_is_censored(self, scripted):
        prober, clock, _ = scripted([300, 2, 299])
        machine = TtlRecursiveMachine(prober, "sim", "a.test", max_ttl=300,
                                      window=300.0)
        clock.sleep_until(machine.step(clock.now())[0])
        clock.sleep_until(machine.step(clock.now())[0])
        _, [observation] = machine.step(clock.now())
        assert observation.censored is True
        assert observation.event is None

    def test_read_above_max_raises(self, scripted):
        prober, clock, _ = scripted([300, 2, 320])
        machine = TtlRecursiveMachine(prober, "sim", "a.test", max_ttl=300,
                                      window=300.0)
        clock.sleep_until(machine.step(clock.now())[0])
        clock.sleep_until(machine.step(clock.now())[0])
        _, [error] = machine.step(clock.now())
        assert error.kind == "ttl_exceeds_max"

    def test_impossible_read_raises(self, scripted):
        prober, clock, _ = scripted([300, 2, 200])
        machine = TtlRecursiveMachine(prober, "sim", "a.test", max_ttl=300,
                                      window=30.0)
        clock.sleep_until(machine.step(clock.now())[0])
        clock.sleep_until(machine.step(clock.now())[0])
        _, [error] = machine.step(clock.now())
        assert error.kind == "inconsistent_ttl"

    def test_window_validation(self, scripted):
        prober, clock, _ = scripted([])
        with pytest.raises(ValueError):
            TtlRecursiveMachine(prober, "sim", "a.test", max_ttl=300, window=0.0)
        with pytest.raises(ValueError):
            TtlRecursiveMachine(prober, "sim", "a.test", max_ttl=300, window=301.0)


class TestTtlRecursiveMachine:
    def test_a_checkpoint_sent_after_expiry_starts_the_cycle_over(self, scripted):
        prober, clock, _ = scripted([300, 300], rtt_ms=0.0)
        machine = TtlRecursiveMachine(prober, "sim", "a.test", max_ttl=300,
                                      window=300.0)
        assert machine.step(clock.now()) == (298.0, [])
        clock.sleep_until(305.0)
        wake, items = machine.step(clock.now())
        # no window can be watched from a record re-fetched after expiry:
        # the read is noted and arms the next checkpoint
        assert [(i.kind, i.message) for i in items] == [
            ("checkpoint_late", "checkpoint sent 305.0s after a read of TTL 300")]
        assert wake == 603.0
        assert not machine.done


class TestSnoopDomainTtlRecursive:
    """A ttl_recursive stream for one domain, through run_scan."""

    def test_stream_against_a_quiet_resolver_is_all_censored(self):
        prober, clock, _ = sim_prober(quiet_zone(ttl=60))
        observations = scan_a(prober, clock, "ttl_recursive", 60,
                              max_cycles=4).observations
        assert len(observations) == 4
        assert all(o.censored for o in observations)

    def test_busy_domain_produces_events(self):
        config = quiet_zone(ttl=60)
        config["clients"] = [{"domain": "a.test",
                              "process": {"kind": "poisson", "rate": 0.05}}]
        prober, clock, _ = sim_prober(config)
        observations = scan_a(prober, clock, "ttl_recursive", 60,
                              duration=6000.0).observations
        events = [o for o in observations if not o.censored]
        assert len(observations) >= 20
        assert len(events) >= 5
        for o in events:
            assert 0 <= o.event.delay_after_expiry <= o.window_length + 1e-9

    def test_duration_budget_drops_the_unfinished_cycle(self):
        prober, clock, _ = sim_prober(quiet_zone(ttl=60))
        observations = scan_a(prober, clock, "ttl_recursive", 60,
                              duration=500.0).observations
        # window probes land near 120s, 240s, 360s, 480s; 600s is over budget
        assert len(observations) == 4
        assert clock.now() <= 500.0 + 1.0

    def test_zero_budget_probes_nothing(self, scripted):
        for budget in ({"max_cycles": 0}, {"duration": 0.0}, {"duration": -5.0}):
            for method in engine.METHODS:
                prober, clock, exchange = scripted([300] * 4)
                result = scan_a(prober, clock, method, 300,
                                calibration=make_calibration(), **budget)
                assert result.observations == [] and result.errors == []
                assert exchange.sent_at == [], (budget, method)

    def test_prefetching_server_aborts_the_stream(self):
        config = quiet_zone(ttl=60)
        config["anomaly"] = {"kind": "pre_refresh",
                             "remaining_low": 3.0, "remaining_high": 5.0}
        prober, clock, _ = sim_prober(config)
        result = scan_a(prober, clock, "ttl_recursive", 60, max_cycles=10)
        assert list(result.aborted) == ["a.test"]
        assert result.errors[-1].kind == "server_prefetches"

    def test_ttl_above_max_is_annotated_and_the_new_max_adopted(self, scripted):
        # init 300, checkpoint; window read 330 exceeds; the next cycle
        # continues at max 330, from its own checkpoint
        script = [300, 2, 330, 2, 150]
        prober, clock, _ = scripted(script)
        result = scan_a(prober, clock, "ttl_recursive", 300, max_cycles=1)
        assert [e.kind for e in result.errors] == ["ttl_exceeds_max"]
        assert len(result.observations) == 1
        # window re-armed from the 330 read: expiry 600+330=930, probe at 1230
        # reads 150, so the delay is 300 - (330 - 150) = 120
        assert result.observations[0].event.delay_after_expiry == pytest.approx(120.0)

    def test_timeouts_are_annotated_and_survivable(self, scripted):
        script = [60, 2, "timeout", 60, 2, 30]
        prober, clock, _ = scripted(script)
        result = scan_a(prober, clock, "ttl_recursive", 60, max_cycles=1)
        assert [e.kind for e in result.errors] == ["timeout"]
        assert len(result.observations) == 1
        assert result.observations[0].event.delay_after_expiry == pytest.approx(30.0)

    def test_repeated_timeouts_end_the_domain(self, scripted):
        prober, clock, _ = scripted([60, 2, "timeout", "timeout", "timeout"])
        result = scan_a(prober, clock, "ttl_recursive", 60, max_cycles=5)
        assert [e.kind for e in result.errors] == ["timeout"] * 3

    def test_static_server_mid_scan_annotates_then_gives_up(self, scripted):
        script = [77, 77, 77, 77, 77, 77]
        prober, clock, _ = scripted(script)
        result = scan_a(prober, clock, "ttl_recursive", 77, max_cycles=5)
        assert [e.kind for e in result.errors] == ["non_monotonic_ttl"] * 3


class TestRd0Machine:
    def test_refresh_between_probes_becomes_one_event(self, scripted):
        # max 300: read 250 at t=0 places a refresh at -50 (baseline);
        # read 100 at t=150 places it at -50 again (same refresh, censored);
        # read 260 at t=300 places a fresh one at 260
        prober, clock, _ = scripted([250, 100, 260])
        machine = Rd0Machine(prober, "sim", "a.test", max_ttl=300,
                             probe_interval=150.0)
        assert machine.step(clock.now()) == (150.0, [])
        clock.sleep_until(150.0)
        _, [second] = machine.step(clock.now())
        assert second.censored is True
        assert second.window_length == pytest.approx(150.0)
        clock.sleep_until(300.0)
        _, [third] = machine.step(clock.now())
        assert third.censored is False
        assert third.event.inferred_refresh_time == pytest.approx(260.0)
        assert third.event.delay_after_expiry == pytest.approx(110.0)

    def test_close_refresh_readings_deduplicate_to_one_event(self, scripted):
        # refresh at 1s seen by probes at 10 and 20: one event total
        prober, clock, _ = scripted([100, 291, 281])
        machine = Rd0Machine(prober, "sim", "a.test", max_ttl=300,
                             probe_interval=10.0)
        events = 0
        for at in (0.0, 10.0, 20.0):
            clock.sleep_until(at)
            _, items = machine.step(clock.now())
            assert all(isinstance(i, RefreshObservation) for i in items)
            events += sum(1 for o in items if not o.censored)
        assert events == 1

    def test_empty_answers_are_censored_spans(self, scripted):
        prober, clock, _ = scripted([None, None, None])
        machine = Rd0Machine(prober, "sim", "a.test", max_ttl=300,
                             probe_interval=150.0)
        assert machine.step(clock.now()) == (150.0, [])
        clock.sleep_until(150.0)
        _, [observation] = machine.step(clock.now())
        assert observation.censored is True
        assert observation.window_length == pytest.approx(150.0)

    def test_three_consecutive_full_ttl_answers_flag_rd_ignored(self, scripted):
        prober, clock, _ = scripted([300, 300, 300])
        machine = Rd0Machine(prober, "sim", "a.test", max_ttl=300,
                             probe_interval=150.0)
        machine.step(clock.now())
        clock.sleep_until(150.0)
        _, [second] = machine.step(clock.now())
        # below the detection threshold a full-TTL reading is still a
        # dateable refresh, so it must count as an event, not vanish
        assert second.event is not None
        clock.sleep_until(300.0)
        _, [error] = machine.step(clock.now())
        assert error.kind == "rd_not_honored"
        assert machine.done

    def test_empty_answers_break_a_full_ttl_run(self, scripted):
        script = [300, None, 300, None, 300, None]
        prober, clock, _ = scripted(script)
        machine = Rd0Machine(prober, "sim", "a.test", max_ttl=300,
                             probe_interval=150.0)
        for i in range(len(script)):
            clock.sleep_until(150.0 * i)
            _, items = machine.step(clock.now())
            assert not any(isinstance(i, CycleError) for i in items)
        assert not machine.done

    def test_dated_client_refreshes_break_a_full_ttl_run(self, scripted):
        # refreshes at 0, 305, 640, 940: each postdates the previous
        # expiry, two land at probe instants (full reads), two carry
        # dates. dated reads reset the signature run, dups are neutral
        script = [300, 140, 285, 125, 300, 140, 280]
        prober, clock, _ = scripted(script)
        machine = Rd0Machine(prober, "sim", "a.test", max_ttl=300,
                             probe_interval=160.0)
        for i in range(len(script)):
            clock.sleep_until(160.0 * i)
            _, items = machine.step(clock.now())
            assert not any(isinstance(i, CycleError) for i in items)
        assert not machine.done

    def test_refreshes_dated_before_expiry_flag_a_prefetcher(self, scripted):
        # max 60, probes every 30s: each fresh reading dates a refresh
        # 3s before the previous one could have expired
        script = [60, 30, 57, 27, 54, 24, 51]
        prober, clock, _ = scripted(script)
        machine = Rd0Machine(prober, "sim", "a.test", max_ttl=60,
                             probe_interval=30.0)
        kinds = []
        for i in range(len(script)):
            clock.sleep_until(30.0 * i)
            _, items = machine.step(clock.now())
            kinds += [i.kind for i in items if isinstance(i, CycleError)]
        assert kinds == ["server_prefetches"]
        assert machine.done

    def test_prefetching_sim_is_detected_once_the_cache_is_primed(self):
        config = quiet_zone(ttl=60)
        config["anomaly"] = {"kind": "pre_refresh",
                             "remaining_low": 3.0, "remaining_high": 5.0}
        prober, clock, _ = sim_prober(config)
        # one recursive query seeds the cache; the server then refills
        # it forever on its own, 3 to 5 seconds ahead of every expiry
        prober.probe("sim", "a.test", recursion_desired=True)
        result = scan_a(prober, clock, "rd0", 60, max_cycles=30)
        assert list(result.aborted) == ["a.test"]
        assert result.errors[-1].kind == "server_prefetches"

    def test_rd_ignoring_sim_is_detected(self):
        config = quiet_zone(ttl=60, rd_policy="ignore")
        prober, clock, _ = sim_prober(config)
        result = scan_a(prober, clock, "rd0", 60, max_cycles=10)
        assert list(result.aborted) == ["a.test"]
        assert result.errors[-1].kind == "rd_not_honored"

    def test_honest_quiet_sim_yields_zero_events(self):
        prober, clock, _ = sim_prober(quiet_zone(ttl=60))
        observations = scan_a(prober, clock, "rd0", 60, max_cycles=20).observations
        assert len(observations) == 20
        assert all(o.censored for o in observations)

    @pytest.mark.parametrize("salt", [0, 1, 2, 3, 4])
    def test_honest_busy_sim_is_never_misread_as_rd_ignored(self, salt):
        # client refreshes land close to our probe times by chance all
        # the time on a long busy scan; that must never look like the
        # server recursing on our probes
        config = quiet_zone(ttl=60, clients=[
            {"domain": "a.test", "process": {"kind": "poisson", "rate": 0.02}}])
        prober, clock, _ = sim_prober(config, seed_salt=salt)
        result = scan_a(prober, clock, "rd0", 60, duration=8 * 3600.0)
        assert result.aborted == {}
        events = [o for o in result.observations if o.event is not None]
        assert len(events) > 50  # the traffic itself was seen

    def test_probe_interval_validation(self, scripted):
        prober, _, _ = scripted([])
        with pytest.raises(ValueError):
            Rd0Machine(prober, "sim", "a.test", max_ttl=300, probe_interval=301.0)
        with pytest.raises(ValueError):
            Rd0Machine(prober, "sim", "a.test", max_ttl=300, probe_interval=0.0)

    def test_default_interval_is_half_the_max_ttl(self, scripted):
        prober, _, _ = scripted([])
        machine = Rd0Machine(prober, "sim", "a.test", max_ttl=300)
        assert machine.interval == pytest.approx(150.0)

    def test_stale_max_is_adopted_not_misread_as_rd_ignored(self, scripted):
        # believed max 60 but the server hands out 300s ttls; the
        # exceeding read becomes the new lower bound for the maximum
        prober, clock, _ = scripted([250, 240, 230])
        machine = Rd0Machine(prober, "sim", "a.test", max_ttl=60,
                             probe_interval=30.0)
        _, [error] = machine.step(clock.now())
        assert error.kind == "ttl_exceeds_max"
        assert machine.max_ttl == 250
        assert not machine.done


class TestMaxTtlAdoption:
    """Every read that can exceed the believed maximum annotates it,
    adopts the grid-snapped reading and keeps probing from that read."""

    @pytest.mark.parametrize("site,script,wake", [
        # the first read fixes expiry 119; cycle 0's checkpoint is 2 s before it
        ("ttl_recursive_init", [119], 119.0 - 2.0),
        # the init read arms a checkpoint at 58 and a window probe at 120;
        # its read of 119 re-arms cycle 0's checkpoint
        ("ttl_recursive_window", [60, 2, 119], 120.0 + 119.0 - 2.0),
        ("rd0", [119], 30.0),
    ])
    def test_the_snapped_reading_becomes_the_max(self, scripted, site, script, wake):
        prober, clock, _ = scripted(script, rtt_ms=0.0)
        if site == "rd0":
            machine = Rd0Machine(prober, "sim", "a.test", max_ttl=60, probe_interval=30.0)
        else:
            machine = TtlRecursiveMachine(prober, "sim", "a.test", max_ttl=60,
                                          window=60.0)
        if site == "ttl_recursive_window":
            for before in (58.0, 120.0):
                assert machine.step(clock.now()) == (before, [])
                clock.sleep_until(before)
        next_wake, items = machine.step(clock.now())
        assert [(i.kind, i.message) for i in items] == [
            ("ttl_exceeds_max", "read 119 above believed max 60")]
        assert machine.max_ttl == 120
        assert next_wake == pytest.approx(wake)
        assert not machine.done


class TestRdBehavior:
    def test_honoring_server(self):
        prober, _, _ = sim_prober(quiet_zone())
        behavior = check_rd_behavior(prober, "sim",
                                     ["rdcheck-1.a.test", "rdcheck-2.a.test"])
        assert behavior.honors_rd0 is True
        assert len(behavior.evidence) == 2
        assert all(e["answer_count"] == 0 for e in behavior.evidence)

    def test_ignoring_server(self):
        prober, _, _ = sim_prober(quiet_zone(rd_policy="ignore"))
        behavior = check_rd_behavior(prober, "sim", ["rdcheck-1.a.test"])
        assert behavior.honors_rd0 is False
        assert behavior.evidence[0]["answer_count"] == 1

    def test_timeout_carries_partial_evidence(self, scripted):
        prober, _, _ = scripted([None, "timeout"])
        with pytest.raises(ProbeTimeout) as info:
            check_rd_behavior(prober, "sim", ["one.a.test", "two.a.test"])
        assert len(info.value.evidence) == 1

    def test_requires_canaries(self, scripted):
        prober, _, _ = scripted([])
        with pytest.raises(ValueError):
            check_rd_behavior(prober, "sim", [])


def make_calibration(cached=5.0, miss=55.0):
    return TimingCalibration(server="sim", domain="a.test",
                             cached_rtts=[cached], miss_rtts=[miss],
                             cached_median=cached, miss_median=miss,
                             threshold_ms=(cached + miss) / 2,
                             separation_quality=1.0)


class TestTimingCalibration:
    def test_well_separated_rtts_calibrate(self):
        prober, _, _ = sim_prober(quiet_zone(ttl=3600))
        calibration = calibrate_timing(prober, "sim", "a.test")
        assert calibration.separation_quality >= 0.95
        assert calibration.cached_median < calibration.threshold_ms
        assert calibration.miss_median > calibration.threshold_ms

    def test_overlapping_rtts_raise_with_the_calibration_attached(self):
        config = quiet_zone(ttl=3600)
        config["rtt_model"] = {"cached_mean": 20.0, "cached_jitter": 8.0,
                               "recursion_extra_mean": 1.0,
                               "recursion_jitter": 8.0}
        prober, _, _ = sim_prober(config)
        with pytest.raises(InsufficientSeparation) as info:
            calibrate_timing(prober, "sim", "a.test")
        assert info.value.calibration is not None
        assert info.value.calibration.separation_quality < 0.95

    def test_classification_with_guard_band(self):
        calibration = make_calibration(cached=5.0, miss=55.0)
        # threshold 30, gap 50, band 12.5: abstain inside (17.5, 42.5)
        assert classify_timing(5.0, calibration) == "cached"
        assert classify_timing(17.0, calibration) == "cached"
        assert classify_timing(30.0, calibration) == "abstain"
        assert classify_timing(42.0, calibration) == "abstain"
        assert classify_timing(43.0, calibration) == "miss"
        assert classify_timing(120.0, calibration) == "miss"


class TestTimingMachine:
    def test_quiet_domain_is_all_censored(self, scripted):
        script = [(60, 50.0), (60, 50.0), (60, 50.0)]
        prober, clock, _ = scripted(script)
        observations = scan_a(prober, clock, "timing", 60, make_calibration(),
                              max_cycles=2).observations
        assert len(observations) == 2
        assert all(o.censored for o in observations)
        assert all(o.window_length == pytest.approx(60.0) for o in observations)

    def test_cached_classed_probe_imputes_the_window_midpoint(self, scripted):
        script = [(60, 50.0), (59, 4.0)]
        prober, clock, _ = scripted(script)
        observations = scan_a(prober, clock, "timing", 60, make_calibration(),
                              max_cycles=1).observations
        assert len(observations) == 1
        assert observations[0].censored is False
        assert observations[0].event.delay_after_expiry == pytest.approx(30.0)

    def test_abstentions_discard_the_cycle(self, scripted):
        script = [(60, 50.0), (59, 30.0), (60, 50.0)]
        prober, clock, _ = scripted(script)
        result = scan_a(prober, clock, "timing", 60, make_calibration(), max_cycles=1)
        assert [e.kind for e in result.errors] == ["abstain"]
        assert len(result.observations) == 1

    def test_busy_sim_domain_yields_events(self):
        config = quiet_zone(ttl=60)
        config["clients"] = [{"domain": "a.test",
                              "process": {"kind": "periodic", "interval": 20.0}}]
        prober, clock, _ = sim_prober(config)
        calibration = calibrate_timing(prober, "sim", "a.test")
        observations = scan_a(prober, clock, "timing", 60, calibration,
                              max_cycles=6).observations
        events = [o for o in observations if not o.censored]
        assert len(events) >= 5  # a 20s-periodic client always refreshes in time

    def test_requires_calibration(self, scripted):
        prober, clock, _ = scripted([])
        with pytest.raises(ValueError):
            scan_a(prober, clock, "timing", 60, max_cycles=1)


class TestObservationValidation:
    def test_event_outside_window_rejected(self):
        observation = RefreshObservation(
            server="s", domain="d", method="rd0", window_start=0.0,
            window_length=10.0, probe_rtt_ms=1.0, censored=False,
            event=engine.RefreshEvent(delay_after_expiry=11.0,
                                      inferred_refresh_time=11.0))
        with pytest.raises(ValueError):
            observation.validate()

    def test_censored_with_event_rejected(self):
        observation = RefreshObservation(
            server="s", domain="d", method="rd0", window_start=0.0,
            window_length=10.0, probe_rtt_ms=1.0, censored=True,
            event=engine.RefreshEvent(0.0, 0.0))
        with pytest.raises(ValueError):
            observation.validate()

    def test_unknown_method_rejected(self):
        observation = RefreshObservation(
            server="s", domain="d", method="osmosis", window_start=0.0,
            window_length=10.0, probe_rtt_ms=1.0, censored=True)
        with pytest.raises(ValueError):
            observation.validate()

    def test_good_observations_pass(self):
        RefreshObservation(server="s", domain="d", method="ttl_recursive",
                           window_start=5.0, window_length=10.0,
                           probe_rtt_ms=1.0, censored=True).validate()
        RefreshObservation(server="s", domain="d", method="ttl_recursive",
                           window_start=5.0, window_length=10.0,
                           probe_rtt_ms=1.0, censored=False,
                           event=engine.RefreshEvent(3.0, 8.0)).validate()
