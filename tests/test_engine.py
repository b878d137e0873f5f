"""Snooping engine: window math, discovery, the three probing machines."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snoopdns import engine
from snoopdns.clock import VirtualClock
from snoopdns.engine import (CycleError, DiscoveryMachine, InsufficientSeparation,
                             MaxTtlEstimate, Rd0Machine, RefreshObservation,
                             SnoopError, TimingCalibration, TimingMachine,
                             TtlRecursiveMachine, build_machine, calibrate_timing,
                             classify_timing, discover_max_ttl, snap_to_grid,
                             ttl_grace)
from snoopdns.scan import discover_all, run_scan
from snoopdns.simnet import SimExchange, build_sim
from snoopdns.transport import Prober

from conftest import TtlScriptExchange, reply


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


def at_wakes(machine, script, start=0.0):
    """Step a machine through script, each reply sent at the wake the
    machine asked for; returns every step's (next wake, items). As in
    engine._run_machines, a machine that returned a None wake has ended:
    stepping it again is an error."""
    steps, wake = [], start
    for item in script:
        assert wake is not None, "the machine ended before the script did"
        wake, items = machine.step(wake, reply(item, at=wake))
        steps.append((wake, items))
    return steps


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


class TestWindowRead:
    """The verdict on a read of T' a window W past expiry, as one step's
    items: max 300 has grace 3, and the read follows a first read of 300
    and cycle 0's checkpoint, so the window opens at 300."""

    @staticmethod
    def window_read(t_prime, window):
        machine = TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=window)
        *_, (wake, items) = at_wakes(machine, [300, 2, t_prime])
        assert wake is not None
        return items

    def test_event_delay(self):
        [observation] = self.window_read(120, 300.0)
        assert observation.delay == pytest.approx(120.0)
        assert (observation.window_start, observation.window_length) == (300.0, 300.0)

    @pytest.mark.parametrize("t_prime", [300, 299, 297])
    def test_read_at_full_ttl_is_censored(self, t_prime):
        [observation] = self.window_read(t_prime, 300.0)
        assert observation.censored is True

    def test_read_just_inside_grace_above_max_is_censored(self):
        [observation] = self.window_read(302, 300.0)
        assert observation.censored is True

    def test_impossible_early_refresh_is_inconsistent(self):
        [error] = self.window_read(100, 10.0)
        assert error == CycleError("sim", "a.test", "ttl_recursive", 310.0, "inconsistent_ttl",
                                   "read 100 implies a refresh 190.0s before expiry")

    def test_slightly_negative_delay_clamps_to_zero(self):
        [observation] = self.window_read(289, 10.0)
        assert observation.delay == 0.0

    def test_delay_never_exceeds_window(self):
        [observation] = self.window_read(296, 10.0)
        assert 0 <= observation.delay <= 10


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
        with pytest.raises(SnoopError, match=r"^server_prefetches: TTL jumped to"):
            discover_max_ttl(prober, clock, "sim", "a.test")
        # one initial read plus at most one checkpoint: round 1
        assert clock.now() < 2 * 300

    def test_static_ttl_server_detected(self, scripted):
        prober, clock, _ = scripted([77, 77])
        with pytest.raises(SnoopError, match=r"^non_monotonic_ttl: TTL stuck at 77"):
            discover_max_ttl(prober, clock, "sim", "a.test")

    def test_budget_exhaustion_raises(self, scripted):
        candidates = [100 * k for k in range(1, 17)]
        script = [100]
        for value in candidates:
            script += [2, value]
        prober, clock, _ = scripted(script)
        with pytest.raises(SnoopError, match=r"^discovery_budget_exceeded: "
                                             r"no TTL confirmed 2 times within 16 rounds"):
            discover_max_ttl(prober, clock, "sim", "a.test",
                             required_confirmations=2)

    def test_unresolvable_domain_raises(self, scripted):
        prober, clock, _ = scripted([None, None, None])
        with pytest.raises(SnoopError, match=r"^unresolvable: no usable answer \(rcode "):
            discover_max_ttl(prober, clock, "sim", "a.test")

    def test_timeout_propagates(self, scripted):
        prober, clock, _ = scripted(["timeout"])
        with pytest.raises(SnoopError, match=r"^timeout: query for a\.test against sim "
                                             r"failed after 1 attempts$"):
            discover_max_ttl(prober, clock, "sim", "a.test")


class TestDiscoveryMachine:
    def test_plans_each_wake_instead_of_sleeping(self):
        machine = DiscoveryMachine("sim", "a.test", required_confirmations=2)
        # first read, then per round a checkpoint 2 s before expiry and
        # a roll-over read 1 s after it
        steps = at_wakes(machine, [240, 2, 240, 2, 240])
        assert steps[:-1] == [(238.0, []), (241.0, []), (479.0, []), (482.0, [])]
        # the final step ends the machine and returns the estimate as its item
        wake, [estimate] = steps[-1]
        assert wake is None
        assert estimate == MaxTtlEstimate("sim", "a.test", 240, 2, False, {240: 2})

    def test_a_checkpoint_sent_after_expiry_is_the_roll_over_read(self):
        machine = DiscoveryMachine("sim", "a.test", required_confirmations=2)
        assert machine.step(0.0, reply(240, at=0.0)) == (238.0, [])
        # a busy scheduler runs the checkpoint 5 s past the expiry; the
        # record was re-fetched at the maximum, which counts as a round
        assert machine.step(245.0, reply(240, at=245.0)) == (483.0, [])
        assert machine.step(483.0, reply(2, at=483.0)) == (486.0, [])
        wake, [estimate] = machine.step(486.0, reply(240, at=486.0))
        assert wake is None
        assert estimate.candidates_seen == {240: 2}

    def test_a_late_checkpoint_over_a_second_before_expiry_is_judged(self):
        machine = DiscoveryMachine("sim", "a.test", required_confirmations=2)
        machine.step(0.0, reply(240, at=0.0))
        # 1.5 s left: the record cannot have expired
        wake, items = machine.step(238.5, reply(240, at=238.5))
        assert wake is None
        # the failure is the one item: no estimate
        assert items == [CycleError("sim", "a.test", "discovery", 238.5,
                                    "non_monotonic_ttl", "TTL stuck at 240 across 238s")]

    def test_failure_is_kept_for_the_caller(self):
        machine = DiscoveryMachine("sim", "a.test")
        wake, items = at_wakes(machine, [None, None, None])[-1]
        assert wake is None
        # the failure is the one item: no estimate
        [error] = items
        assert (error.server, error.domain, error.method, error.kind) == (
            "sim", "a.test", "discovery", "unresolvable")
        assert error.message.startswith("no usable answer (rcode ")

    def test_an_unusable_answer_is_retried_and_the_counts_kept(self):
        # two empty answers, then a round confirms 240; a later empty
        # checkpoint starts over from a first read with that round kept
        script = [None, None, 240, 2, 240, None, 240, 2, 240]
        machine = DiscoveryMachine("sim", "a.test", required_confirmations=2)
        steps = at_wakes(machine, script)
        assert all(items == [] for _, items in steps[:-1])
        assert [wake for wake, _ in steps] == [
            30.0, 60.0, 298.0, 301.0, 539.0, 569.0, 807.0, 810.0, None]
        [estimate] = steps[-1][1]
        assert estimate.candidates_seen == {240: 2}

    def test_usable_first_reads_do_not_rescue_a_domain_that_completes_no_round(
            self, scripted):
        # each first read resolves and each checkpoint after it is empty
        prober, clock, exchange = scripted([240, None] * 3, rtt_ms=0.0)
        assert discover_all(prober, clock, "sim", ["a.test"]) == ({}, {
            "a.test": "unresolvable: no usable answer (rcode 0)"})
        assert not exchange.script

    def test_unusable_reads_are_spaced_by_the_backoff(self, scripted):
        prober, clock, exchange = scripted([None, None, None])
        discover_all(prober, clock, "sim", ["a.test"])
        assert [b - a for a, b in zip(exchange.sent_at, exchange.sent_at[1:])] == [
            pytest.approx(engine.NOANSWER_BACKOFF)] * 2

    def test_the_third_unusable_read_in_a_row_fails_the_domain(self):
        machine = DiscoveryMachine("sim", "a.test")
        # the empty checkpoint and the next first read each back off 30 s
        assert at_wakes(machine, [240, None, None, None]) == [
            (238.0, []), (268.0, []), (298.0, []),
            # the failure ends the machine as its one item: no estimate
            (None, [CycleError("sim", "a.test", "discovery", 298.0, "unresolvable",
                               "no usable answer (rcode 0)")])]

    def test_a_timeout_is_stamped_once_the_retries_gave_up(self):
        machine = DiscoveryMachine("sim", "a.test")
        # woken at 0, the prober gave up 1 s later
        assert machine.step(0.0, reply("timeout", at=1.0)) == (None, [CycleError(
            "sim", "a.test", "discovery", 1.0, "timeout",
            "query for a.test against sim failed after 1 attempts")])

    def test_confirmations_must_be_positive(self):
        with pytest.raises(ValueError, match="required_confirmations"):
            DiscoveryMachine("sim", "a.test", required_confirmations=0)


class TestRunCycleTtlRecursive:
    """One expiry-watch cycle, probe by probe: a read fixes the expiry,
    cycle 0's checkpoint 2 s before it checks the countdown, and the
    read a window past it classifies the cycle."""

    def test_mid_window_refresh_yields_the_delay(self):
        machine = TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=300.0)
        first, second, (_, [observation]) = at_wakes(machine, [300, 2, 120])
        assert (first, second) == ((298.0, []), (600.0, []))
        assert observation.censored is False
        assert observation.delay == pytest.approx(120.0)
        assert observation.window_length == pytest.approx(300.0)
        assert observation.window_start + observation.delay == pytest.approx(420.0)

    def test_untouched_window_is_censored(self):
        machine = TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=300.0)
        _, [observation] = at_wakes(machine, [300, 2, 299])[-1]
        assert observation.censored is True
        assert observation.delay is None

    def test_read_above_max_raises(self):
        machine = TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=300.0)
        _, [error] = at_wakes(machine, [300, 2, 320])[-1]
        assert error.kind == "ttl_exceeds_max"

    def test_impossible_read_raises(self):
        machine = TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=30.0)
        _, [error] = at_wakes(machine, [300, 2, 200])[-1]
        assert error.kind == "inconsistent_ttl"

    def test_window_validation(self):
        with pytest.raises(ValueError):
            TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=0.0)
        with pytest.raises(ValueError):
            TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=301.0)


class TestTtlRecursiveMachine:
    def test_a_checkpoint_sent_after_expiry_starts_the_cycle_over(self):
        machine = TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=300.0)
        assert machine.step(0.0, reply(300, at=0.0)) == (298.0, [])
        wake, items = machine.step(305.0, reply(300, at=305.0))
        # no window can be watched from a record re-fetched after expiry:
        # the read is noted and arms the next checkpoint
        assert [(i.kind, i.message) for i in items] == [
            ("checkpoint_late", "checkpoint sent 305.0s after a read of TTL 300")]
        assert wake == 603.0  # the machine goes on

    def test_a_second_late_checkpoint_in_a_row_arms_a_window_without_one(self):
        machine = TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=300.0)
        assert machine.step(0.0, reply(300, at=0.0)) == (298.0, [])
        steps = []
        for at, item in ((305.0, 300), (610.0, 300), (1210.0, 299)):
            wake, items = machine.step(at, reply(item, at=at))
            steps.append((wake, [getattr(i, "kind", "observation") for i in items]))
        # the second late read expires at 910: its window read follows
        # at 910 + 300 with no checkpoint in between
        assert steps == [(603.0, ["checkpoint_late"]), (1210.0, ["checkpoint_late"]),
                         (1809.0, ["observation"])]
        assert machine.cycles_completed == 1

    def test_a_truncated_reply_is_annotated_and_backs_off(self):
        machine = TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=300.0)
        assert at_wakes(machine, [300, "truncated", 300]) == [
            (298.0, []),
            (298.0 + engine.NOANSWER_BACKOFF, [CycleError(
                "sim", "a.test", "ttl_recursive", 298.0, "truncated",
                "truncated response; cycle discarded")]),
            # the next read starts over, with cycle 0's checkpoint
            (626.0, [])]

    def test_three_unusable_answers_in_a_row_end_the_domain(self, scripted):
        prober, clock, exchange = scripted([None, None, None])
        result = scan_a(prober, clock, "ttl_recursive", 300, max_cycles=5)
        assert [(e.kind, e.message) for e in result.errors] == [
            ("unresolvable", "no usable answer (rcode 0)")] * 3
        assert [b - a for a, b in zip(exchange.sent_at, exchange.sent_at[1:])] == [
            pytest.approx(engine.NOANSWER_BACKOFF)] * 2
        assert result.observations == [] and not exchange.script

    def test_usable_first_reads_do_not_rescue_a_name_that_reads_no_window(self):
        # each first read resolves and each checkpoint after it is empty:
        # only a window read resets the run of unusable answers
        machine = TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=300.0)
        steps = at_wakes(machine, [300, None] * 3)
        assert [wake for wake, _ in steps] == [298.0, 328.0, 626.0, 656.0, 954.0, None]
        assert [e.kind for _, items in steps for e in items] == ["unresolvable"] * 3
        assert machine.cycles_completed == 0

    def test_a_scan_over_empty_checkpoints_ends_with_a_cycle_budget(self, scripted):
        prober, clock, exchange = scripted([300, None] * 100)
        result = scan_a(prober, clock, "ttl_recursive", 300, max_cycles=1)
        assert len(exchange.sent_at) == 6
        assert [e.kind for e in result.errors] == ["unresolvable"] * 3


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
            assert 0 <= o.delay <= o.window_length + 1e-9

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
        assert result.observations[0].delay == pytest.approx(120.0)

    def test_timeouts_are_annotated_and_survivable(self, scripted):
        script = [60, 2, "timeout", 60, 2, 30]
        prober, clock, _ = scripted(script)
        result = scan_a(prober, clock, "ttl_recursive", 60, max_cycles=1)
        assert [e.kind for e in result.errors] == ["timeout"]
        assert len(result.observations) == 1
        assert result.observations[0].delay == pytest.approx(30.0)

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
    def test_refresh_between_probes_becomes_one_event(self):
        # max 300: read 250 at t=0 places a refresh at -50 (baseline);
        # read 100 at t=150 places it at -50 again (same refresh, censored);
        # read 260 at t=300 places a fresh one at 260
        machine = Rd0Machine("sim", "a.test", max_ttl=300, probe_interval=150.0)
        first, (_, [second]), (_, [third]) = at_wakes(machine, [250, 100, 260])
        assert first == (150.0, [])
        assert second.censored is True
        assert second.window_length == pytest.approx(150.0)
        assert third.censored is False
        assert third.window_start + third.delay == pytest.approx(260.0)
        assert third.delay == pytest.approx(110.0)

    def test_close_refresh_readings_deduplicate_to_one_event(self):
        # refresh at 1s seen by probes at 10 and 20: one event total
        machine = Rd0Machine("sim", "a.test", max_ttl=300, probe_interval=10.0)
        items = [i for _, step_items in at_wakes(machine, [100, 291, 281])
                 for i in step_items]
        assert all(isinstance(i, RefreshObservation) for i in items)
        assert sum(1 for o in items if not o.censored) == 1

    def test_empty_answers_are_censored_spans(self):
        machine = Rd0Machine("sim", "a.test", max_ttl=300, probe_interval=150.0)
        first, (_, [observation]) = at_wakes(machine, [None, None])
        assert first == (150.0, [])
        assert observation.censored is True
        assert observation.window_length == pytest.approx(150.0)

    def test_three_consecutive_full_ttl_answers_flag_rd_ignored(self):
        machine = Rd0Machine("sim", "a.test", max_ttl=300, probe_interval=150.0)
        _, (_, [second]), (wake, [error]) = at_wakes(machine, [300, 300, 300])
        # below the detection threshold a full-TTL reading is still a
        # dateable refresh, so it must count as an event, not vanish
        assert second.delay is not None
        assert error.kind == "rd_not_honored"
        assert wake is None

    def test_empty_answers_break_a_full_ttl_run(self):
        machine = Rd0Machine("sim", "a.test", max_ttl=300, probe_interval=150.0)
        steps = at_wakes(machine, [300, None, 300, None, 300, None])
        assert not any(isinstance(i, CycleError) for _, items in steps for i in items)
        assert all(wake is not None for wake, _ in steps)

    def test_dated_client_refreshes_break_a_full_ttl_run(self):
        # refreshes at 0, 305, 640, 940: each postdates the previous
        # expiry, two land at probe instants (full reads), two carry
        # dates. dated reads reset the signature run, dups are neutral
        machine = Rd0Machine("sim", "a.test", max_ttl=300, probe_interval=160.0)
        steps = at_wakes(machine, [300, 140, 285, 125, 300, 140, 280])
        assert not any(isinstance(i, CycleError) for _, items in steps for i in items)
        assert all(wake is not None for wake, _ in steps)

    def test_refreshes_dated_before_expiry_flag_a_prefetcher(self):
        # max 60, probes every 30s: each fresh reading dates a refresh
        # 3s before the previous one could have expired
        machine = Rd0Machine("sim", "a.test", max_ttl=60, probe_interval=30.0)
        steps = at_wakes(machine, [60, 30, 57, 27, 54, 24, 51])
        assert [i.kind for _, items in steps for i in items
                if isinstance(i, CycleError)] == ["server_prefetches"]
        assert steps[-1][0] is None

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
        events = [o for o in result.observations if o.delay is not None]
        assert len(events) > 50  # the traffic itself was seen

    def test_probe_interval_validation(self):
        with pytest.raises(ValueError):
            Rd0Machine("sim", "a.test", max_ttl=300, probe_interval=301.0)
        with pytest.raises(ValueError):
            Rd0Machine("sim", "a.test", max_ttl=300, probe_interval=0.0)

    def test_default_interval_is_half_the_max_ttl(self):
        machine = Rd0Machine("sim", "a.test", max_ttl=300)
        assert machine.interval == pytest.approx(150.0)

    def test_stale_max_is_adopted_not_misread_as_rd_ignored(self):
        # believed max 60 but the server hands out 300s ttls; the
        # exceeding read becomes the new lower bound for the maximum
        machine = Rd0Machine("sim", "a.test", max_ttl=60, probe_interval=30.0)
        wake, [error] = machine.step(0.0, reply(250, at=0.0))
        assert error.kind == "ttl_exceeds_max"
        assert machine.max_ttl == 250
        assert wake is not None


class TestMaxTtlAdoption:
    """Every read that can exceed the believed maximum annotates it,
    adopts the grid-snapped reading and keeps probing from that read."""

    @pytest.mark.parametrize("site,script,wakes", [
        # the first read fixes expiry 119; cycle 0's checkpoint is 2 s before it
        ("ttl_recursive_init", [119], [119.0 - 2.0]),
        # the init read arms a checkpoint at 58 and a window probe at 120;
        # its read of 119 re-arms cycle 0's checkpoint
        ("ttl_recursive_window", [60, 2, 119], [58.0, 120.0, 120.0 + 119.0 - 2.0]),
        ("rd0", [119], [30.0]),
    ])
    def test_the_snapped_reading_becomes_the_max(self, site, script, wakes):
        if site == "rd0":
            machine = Rd0Machine("sim", "a.test", max_ttl=60, probe_interval=30.0)
        else:
            machine = TtlRecursiveMachine("sim", "a.test", max_ttl=60, window=60.0)
        steps = at_wakes(machine, script)
        assert [wake for wake, _ in steps] == pytest.approx(wakes)
        assert all(items == [] for _, items in steps[:-1])
        assert [(i.kind, i.message) for i in steps[-1][1]] == [
            ("ttl_exceeds_max", "read 119 above believed max 60")]
        assert machine.max_ttl == 120
        assert steps[-1][0] is not None


class TestTimeoutStamps:
    """rd0 and timing stamp a timeout at the wake, ttl_recursive once
    the retries gave up."""

    @pytest.mark.parametrize("method,stamp", [
        ("rd0", 10.0), ("timing", 10.0), ("ttl_recursive", 18.0)])
    def test_the_stamp(self, method, stamp):
        machine = build_machine(method, "sim", "a.test", max_ttl=60, window=60.0,
                                calibration=make_calibration())
        wake, [error] = machine.step(10.0, reply("timeout", at=18.0))
        assert (error.kind, error.at) == ("timeout", stamp)
        assert wake is not None


class TestTruncatedReplies:
    """A truncated (TC=1) reply reads nothing: each machine annotates it
    as sent and takes the path it takes for a timeout."""

    TRUNCATED = "truncated response; cycle discarded"

    def test_rd0_logs_no_span_for_it(self):
        machine = Rd0Machine("sim", "a.test", max_ttl=300, probe_interval=100.0)
        first, truncated, (_, [observation]) = at_wakes(machine, [250, "truncated", None])
        assert first == (100.0, [])
        assert truncated == (200.0, [CycleError("sim", "a.test", "rd0", 100.0, "truncated",
                                                self.TRUNCATED)])
        # the next read's span covers the probe that read nothing
        assert (observation.window_start, observation.window_length) == (0.0, 200.0)
        assert observation.censored is True

    def test_timing_classifies_no_rtt_of_it(self):
        machine = TimingMachine("sim", "a.test", max_ttl=300, window=300.0,
                                calibration=make_calibration())
        steps = at_wakes(machine, [(300, 1.0), ("truncated", 1.0)])
        assert steps == [(600.0, []), (600.0 + engine.TIMEOUT_BACKOFF, [CycleError(
            "sim", "a.test", "timing", 600.0, "truncated", self.TRUNCATED)])]
        assert machine.cycles_completed == 0


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
        assert observations[0].delay == pytest.approx(30.0)

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

    def test_abstains_in_a_row_end_the_domain(self):
        machine = TimingMachine("sim", "a.test", max_ttl=60, window=60.0,
                                calibration=make_calibration())
        steps = at_wakes(machine, [(60, 50.0)] + [(59, 30.0)] * 3)
        assert [wake for wake, _ in steps] == [120.0, 240.0, 360.0, None]
        assert [[e.kind for e in items] for _, items in steps] == [
            [], ["abstain"], ["abstain"], ["abstain"]]
        assert machine.cycles_completed == 0

    def test_a_classified_read_breaks_an_abstain_run(self):
        machine = TimingMachine("sim", "a.test", max_ttl=60, window=60.0,
                                calibration=make_calibration())
        steps = at_wakes(machine, [(60, 50.0)] + [(59, 30.0), (59, 30.0), (59, 4.0)] * 2)
        assert all(wake is not None for wake, _ in steps) and machine.cycles_completed == 2

    def test_a_scan_where_every_rtt_abstains_ends_with_a_cycle_budget(self, scripted):
        prober, clock, exchange = scripted([(60, 50.0)] + [(59, 30.0)] * 300)
        result = scan_a(prober, clock, "timing", 60, make_calibration(), max_cycles=1)
        assert len(exchange.sent_at) == 4
        assert [e.kind for e in result.errors] == ["abstain"] * 3

    def test_requires_calibration(self, scripted):
        prober, clock, _ = scripted([])
        with pytest.raises(ValueError):
            scan_a(prober, clock, "timing", 60, max_cycles=1)


# what a probe can read of a.test, whose believed maximum is 300: TTLs at
# and below it, an empty or truncated answer, or no answer at all
TTL_READS = st.one_of(st.integers(290, 300), st.integers(0, 300),
                      st.sampled_from([None, "truncated", "timeout"]))
# against make_calibration(1.0, 50.0): threshold 25.5 with a guard band
# of 12.25 ms either side, so cached below 13.25 and miss above 37.75
TIMING_READS = st.one_of(
    st.just("timeout"),
    st.tuples(st.sampled_from([300, 299, 150, None, "truncated"]),
              st.one_of(st.floats(0.1, 13.0), st.floats(13.5, 37.5),
                        st.floats(38.0, 500.0))))


class TestEveryScanEnds:
    """With one cycle budgeted and no duration, a scan ends over any
    script: a completed cycle retires the domain, and short of one, the
    machine's own end rules or the STALL_LIMIT-th probe end it."""

    @staticmethod
    def probes_until_the_end(method, script):
        # repeated well past the bound, so an endless scan exhausts it
        clock = VirtualClock()
        exchange = TtlScriptExchange(
            clock, script * (1 + 2 * engine.STALL_LIMIT // len(script)))
        prober = Prober(transport=exchange, clock=clock, retries=0, timeout=1.0)
        scan_a(prober, clock, method, 300, make_calibration(1.0, 50.0), max_cycles=1)
        return len(exchange.sent_at)

    @settings(deadline=None)
    @given(script=st.lists(TTL_READS, min_size=1, max_size=30))
    @example(script=[300, "timeout"] * 100)
    @example(script=[300, "truncated"] * 100)
    def test_ttl_recursive(self, script):
        assert self.probes_until_the_end("ttl_recursive", script) <= engine.STALL_LIMIT

    @settings(deadline=None)
    @given(script=st.lists(TTL_READS, min_size=1, max_size=30))
    def test_rd0(self, script):
        assert self.probes_until_the_end("rd0", script) <= engine.STALL_LIMIT

    @settings(deadline=None)
    @given(script=st.lists(TIMING_READS, min_size=1, max_size=30))
    @example(script=[(300, 1.0), "timeout"] * 100)
    def test_timing(self, script):
        assert self.probes_until_the_end("timing", script) <= engine.STALL_LIMIT

    @pytest.mark.parametrize("method,script", [
        ("ttl_recursive", [300, "timeout"]), ("ttl_recursive", [300, "truncated"]),
        ("timing", [(300, 1.0), "timeout"])])
    def test_a_run_a_reply_breaks_ends_stalled(self, scripted, method, script):
        prober, clock, exchange = scripted(script * 100)
        result = scan_a(prober, clock, method, 300, make_calibration(1.0, 50.0),
                        max_cycles=1)
        assert len(exchange.sent_at) == engine.STALL_LIMIT
        stalled = result.errors[-1]
        assert (stalled.kind, stalled.message) == (
            "stalled", f"no completed cycle in {engine.STALL_LIMIT} probes")
        assert stalled.at == exchange.sent_at[-1]
        assert "stalled" not in engine.INVALIDATING_KINDS and result.aborted == {}

    def test_a_completed_cycle_restarts_the_count(self):
        # 18 probes with no cycle and a window read as the 19th; then 19
        # more, and only the 20th since that cycle ends the domain
        machine = TtlRecursiveMachine("sim", "a.test", max_ttl=300, window=300.0)
        steps = at_wakes(machine, [300, "truncated"] * 8 + [300, 2, 299]
                         + ["truncated"] * 20)
        assert machine.cycles_completed == 1
        assert [wake is None for wake, _ in steps[-21:]] == [False] * 20 + [True]
        assert steps[-1][1][-1].kind == "stalled"


class TestRunMachines:
    def test_a_machine_is_never_stepped_after_a_none_wake(self, scripted):
        class Ending:
            """Returns its scripted wakes in turn; a step past the last fails."""

            recursion_desired = True
            cycles_completed = 0

            def __init__(self, domain, wakes):
                self.server, self.domain, self.wakes = "sim", domain, list(wakes)

            def step(self, now, reply):
                assert self.wakes, f"{self.domain} was stepped after its None wake"
                return self.wakes.pop(0), []

        machines = [Ending("a.test", [None]), Ending("b.test", [5.0, 10.0, None]),
                    Ending("c.test", [5.0, None])]
        prober, clock, exchange = scripted([1] * 6)
        engine._run_machines(prober, machines, 0.0, lambda items: None)
        assert all(m.wakes == [] for m in machines)
        assert [q.qname for q in exchange.queries] == [
            "a.test", "b.test", "c.test", "b.test", "c.test", "b.test"]


class TestObservationValidation:
    def test_event_outside_window_rejected(self):
        observation = RefreshObservation(
            server="s", domain="d", method="rd0", window_start=0.0,
            window_length=10.0, probe_rtt_ms=1.0, delay=11.0)
        with pytest.raises(ValueError):
            observation.validate()

    def test_unknown_method_rejected(self):
        observation = RefreshObservation(
            server="s", domain="d", method="osmosis", window_start=0.0,
            window_length=10.0, probe_rtt_ms=1.0, delay=None)
        with pytest.raises(ValueError):
            observation.validate()

    def test_good_observations_pass(self):
        RefreshObservation(server="s", domain="d", method="ttl_recursive",
                           window_start=5.0, window_length=10.0,
                           probe_rtt_ms=1.0, delay=None).validate()
        RefreshObservation(server="s", domain="d", method="ttl_recursive",
                           window_start=5.0, window_length=10.0,
                           probe_rtt_ms=1.0, delay=3.0).validate()
