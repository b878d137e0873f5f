"""Multi-domain orchestration: the wake-time heap, budgets, and batch scoring."""

import hashlib
import io
import json
import random

import pytest

from snoopdns import wire
from snoopdns.clock import VirtualClock
from snoopdns.corpus import ObservationWriter
from snoopdns.ratelimit import RateLimiter
from snoopdns.engine import calibrate_timing, discover_max_ttl
from snoopdns.scan import (BatchResult, ScanResult, discover_all, run_batch,
                           run_scan, true_client_rates)
from snoopdns.simnet import SimExchange, build_sim, config_from_dict
from snoopdns.transport import Prober, ProbeTimeout


def two_zone_config(**overrides):
    config = {
        "seed": 11,
        "zones": {"alpha.test": {"address": "10.0.0.1", "ttl": 60},
                  "beta.test": {"address": "10.0.0.2", "ttl": 60}},
        "clients": [
            {"domain": "alpha.test", "process": {"kind": "poisson", "rate": 0.05}},
            {"domain": "beta.test", "process": {"kind": "poisson", "rate": 0.005}},
        ],
    }
    config.update(overrides)
    return config


def sim_prober(config, salt=0):
    clock = VirtualClock()
    sim = build_sim(config_from_dict(config), start_time=clock.now())
    prober = Prober(transport=SimExchange(sim, clock), clock=clock,
                    rng=random.Random(99 + salt))
    return prober, clock, sim


class TestRunScanValidation:
    def test_window_fraction_must_be_a_usable_fraction(self):
        prober, clock, _ = sim_prober(two_zone_config())
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="window_fraction"):
                run_scan(prober, clock, "sim", ["alpha.test"],
                         max_ttls={"alpha.test": 60}, window_fraction=bad,
                         duration=100)

    def test_every_domain_needs_a_known_max_ttl(self):
        prober, clock, _ = sim_prober(two_zone_config())
        with pytest.raises(ValueError, match="beta.test"):
            run_scan(prober, clock, "sim", ["alpha.test", "beta.test"],
                     max_ttls={"alpha.test": 60}, duration=100)


class TestRunScan:
    def test_interleaves_domains_on_one_clock(self):
        prober, clock, _ = sim_prober(two_zone_config())
        result = run_scan(prober, clock, "sim", ["alpha.test", "beta.test"],
                          max_ttls={"alpha.test": 60, "beta.test": 60},
                          duration=2400)
        seen = {o.domain for o in result.observations}
        assert seen == {"alpha.test", "beta.test"}
        assert result.aborted == {}
        assert result.finished_at <= 2400
        # windows from different domains overlap in time, proving the
        # machines really ran concurrently rather than one after another
        spans = sorted((o.window_start, o.window_start + o.window_length,
                        o.domain) for o in result.observations)
        overlapped = any(a2 < b_end and b2 > a_end
                         for (a2, a_end, da), (b2, b_end, db)
                         in zip(spans, spans[1:]) if da != db)
        assert overlapped

    def test_identical_seeds_replay_identically(self):
        results = []
        for _ in range(2):
            prober, clock, _ = sim_prober(two_zone_config())
            results.append(run_scan(
                prober, clock, "sim", ["alpha.test", "beta.test"],
                max_ttls={"alpha.test": 60, "beta.test": 60}, duration=2400))
        assert results[0].observations == results[1].observations
        assert results[0].errors == results[1].errors

    def test_a_lost_domain_delays_no_neighbour_into_an_error(self):
        # the lost domain's checkpoint retries hold the rate-capped queue
        # for 8 s, past the expiries its neighbours' checkpoints guard
        ttls = {**BURST_TTLS, "lost.test": 300}
        clock = VirtualClock()
        sim = build_sim(config_from_dict(quiet_config(ttls)), start_time=clock.now())
        prober = Prober(transport=DroppingExchange(SimExchange(sim, clock), clock,
                                                   "lost.test"),
                        clock=clock, rng=random.Random(99),
                        limiter=RateLimiter(10, clock))
        result = run_scan(prober, clock, "sim", ["lost.test", *BURST_TTLS],
                          max_ttls=ttls, duration=1000)
        assert result.aborted == {}
        assert {e.kind for e in result.errors if e.domain == "lost.test"} == {"timeout"}
        assert {e.kind for e in result.errors
                if e.domain != "lost.test"} <= {"checkpoint_late"}
        observed = {o.domain for o in result.observations}
        assert observed == set(BURST_TTLS)
        assert all(o.censored for o in result.observations)

    def test_duration_budget_drops_the_late_partial_cycle(self):
        prober, clock, _ = sim_prober(two_zone_config(clients=[]))
        result = run_scan(prober, clock, "sim", ["alpha.test"],
                          max_ttls={"alpha.test": 60}, duration=500)
        ends = [o.window_start + o.window_length for o in result.observations]
        assert ends and max(e for e in ends) <= 500

    def test_max_cycles_budget(self):
        prober, clock, _ = sim_prober(two_zone_config(clients=[]))
        result = run_scan(prober, clock, "sim", ["alpha.test", "beta.test"],
                          max_ttls={"alpha.test": 60, "beta.test": 60},
                          max_cycles=3)
        per_domain = {}
        for o in result.observations:
            per_domain[o.domain] = per_domain.get(o.domain, 0) + 1
        assert per_domain == {"alpha.test": 3, "beta.test": 3}

    def test_stale_max_ttl_annotates_but_does_not_abort(self):
        config = two_zone_config(clients=[])
        config["zones"]["beta.test"]["ttl"] = 90
        prober, clock, _ = sim_prober(config)
        # beta's believed maximum is too low; the machine should flag the
        # overshoot, adopt the larger reading, and keep observing
        result = run_scan(prober, clock, "sim", ["alpha.test", "beta.test"],
                          max_ttls={"alpha.test": 60, "beta.test": 60},
                          duration=2000)
        kinds = {e.kind for e in result.errors}
        assert kinds == {"ttl_exceeds_max"}
        assert all(e.domain == "beta.test" for e in result.errors)
        assert len(result.errors) <= 3  # adoption stops the repeats
        assert result.aborted == {}
        assert {o.domain for o in result.observations} == {"alpha.test",
                                                           "beta.test"}

    def test_prefetching_server_aborts_the_domain(self):
        config = two_zone_config(clients=[], anomaly={
            "kind": "pre_refresh", "remaining_low": 3.0, "remaining_high": 5.0})
        prober, clock, _ = sim_prober(config)
        result = run_scan(prober, clock, "sim", ["alpha.test"],
                          max_ttls={"alpha.test": 60}, duration=4000)
        assert "alpha.test" in result.aborted
        assert result.finished_at < 4000  # gave up early, not at the deadline
        # whatever was observed there measured the server, not clients
        assert all(o.domain != "alpha.test" for o in result.observations)

    def test_discovery_and_the_scan_name_a_prefetching_server_alike(self):
        config = two_zone_config(clients=[], anomaly={
            "kind": "pre_refresh", "remaining_low": 3.0, "remaining_high": 5.0})
        prober, clock, _ = sim_prober(config)
        found, failed = discover_all(prober, clock, "sim", ["alpha.test"])
        assert found == {}
        kind, message = failed["alpha.test"].split(": ", 1)
        assert kind == "server_prefetches" and message.startswith("TTL jumped to")
        prober, clock, _ = sim_prober(config)
        result = run_scan(prober, clock, "sim", ["alpha.test"],
                          max_ttls={"alpha.test": 60}, duration=4000)
        assert result.errors[-1].kind == "server_prefetches"
        assert result.errors[-1].message.startswith("TTL jumped to")
        assert result.aborted == {"alpha.test": result.errors[-1].message}

    def test_an_rd0_interval_above_a_max_ttl_aborts_only_that_domain(self):
        config = two_zone_config()
        config["zones"]["beta.test"]["ttl"] = 300
        prober, clock, sim = sim_prober(config)
        result = run_scan(prober, clock, "sim", ["alpha.test", "beta.test"],
                          max_ttls={"alpha.test": 60, "beta.test": 300}, method="rd0",
                          probe_interval=100, duration=1200)
        assert result.aborted == {"alpha.test": "probe interval 100s exceeds the "
                                                "maximum TTL 60s, so refreshes could "
                                                "go unseen"}
        assert {e.domain for e in sim.log if e.kind == "probe_query"} == {"beta.test"}
        assert len(result.observations) == 12
        assert {o.domain for o in result.observations} == {"beta.test"}

    def test_writer_receives_every_item(self):
        prober, clock, _ = sim_prober(two_zone_config())
        out = io.StringIO()
        writer = ObservationWriter(out, "scan-w")
        result = run_scan(prober, clock, "sim", ["alpha.test", "beta.test"],
                          max_ttls={"alpha.test": 60, "beta.test": 60},
                          duration=1200, writer=writer)
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(lines) == len(result.observations) + len(result.errors)
        assert all(line["scan_id"] == "scan-w" for line in lines)


# twenty client-free domains with maxima 15, 30, ..., 300 s
QUIET_TTLS = {f"d{ttl:03d}.test": ttl for ttl in range(15, 301, 15)}
CONFIRMATIONS = 5


def quiet_config(ttls=QUIET_TTLS, **overrides):
    config = {"seed": 5, "clients": [],
              "zones": {name: {"address": "10.0.0.1", "ttl": ttl}
                        for name, ttl in ttls.items()}}
    config.update(overrides)
    return config


class RoutingExchange:
    """Sends each query to the simulator that owns its name."""

    def __init__(self, routes, default):
        self.routes = routes
        self.default = default

    def exchange(self, server, payload, timeout):
        qname = wire.decode_query(payload).qname
        return self.routes.get(qname, self.default).exchange(server, payload, timeout)


class DroppingExchange:
    """Answers a name's first `answered` queries, then loses the rest,
    holding the sender for the whole timeout as a lost UDP probe does."""

    def __init__(self, inner, clock, name, answered=1):
        self.inner = inner
        self.clock = clock
        self.name = name
        self.answered = answered

    def exchange(self, server, payload, timeout):
        if wire.decode_query(payload).qname == self.name:
            if self.answered <= 0:
                self.clock.sleep(timeout)
                raise ProbeTimeout(f"no response from {server} within {timeout}s")
            self.answered -= 1
        return self.inner.exchange(server, payload, timeout)


# a hundred client-free domains: their first reads all come back at the
# maximum, so their expiries arrive in bursts
BURST_TTLS = {f"b{i:03d}.test": (60, 120, 300)[i % 3] for i in range(100)}


def estimates_alone(config, domains):
    """What discover_max_ttl finds for each domain on a resolver of its own."""
    alone = {}
    for domain in domains:
        prober, clock, _ = sim_prober(config)
        alone[domain] = discover_max_ttl(prober, clock, "sim", domain,
                                         required_confirmations=CONFIRMATIONS)
    return alone


def summary(estimate):
    return estimate.max_ttl, estimate.confirmations, estimate.candidates_seen


class TestDiscoverAll:
    def test_failures_are_recorded_without_stopping_the_rest(self):
        config = two_zone_config(clients=[])
        prober, clock, _ = sim_prober(config)
        found, failed = discover_all(prober, clock, "sim",
                                     ["alpha.test", "missing.test"],
                                     required_confirmations=2)
        assert found["alpha.test"].max_ttl == 60
        assert "missing.test" in failed
        assert failed["missing.test"].startswith(
            "unresolvable: no usable answer (rcode ")

    def test_domains_wait_out_their_expiries_together(self):
        prober, clock, _ = sim_prober(quiet_config())
        found, failed = discover_all(prober, clock, "sim", list(QUIET_TTLS),
                                     required_confirmations=CONFIRMATIONS)
        assert failed == {}
        assert {d: e.max_ttl for d, e in found.items()} == QUIET_TTLS
        # one read plus one roll-over per confirmation, all domains at
        # once; one after another this would take about ten times longer
        assert clock.now() <= (CONFIRMATIONS + 1) * (max(QUIET_TTLS.values()) + 2)

    def test_each_domain_finds_what_it_finds_alone(self):
        prober, clock, _ = sim_prober(quiet_config())
        found, _ = discover_all(prober, clock, "sim", list(QUIET_TTLS),
                                required_confirmations=CONFIRMATIONS)
        alone = estimates_alone(quiet_config(), QUIET_TTLS)
        assert {d: summary(e) for d, e in found.items()} == {
            d: summary(e) for d, e in alone.items()}
        assert all(e.candidates_seen == {e.max_ttl: CONFIRMATIONS}
                   for e in found.values())

    def test_failing_domains_neither_stop_nor_delay_the_rest(self):
        clock = VirtualClock()
        quiet = build_sim(config_from_dict(quiet_config()), start_time=clock.now())
        prefetching = build_sim(config_from_dict(quiet_config(
            {"prefetch.test": 300},
            anomaly={"kind": "pre_refresh", "remaining_low": 3.0,
                     "remaining_high": 5.0})), start_time=clock.now())
        exchange = RoutingExchange({"prefetch.test": SimExchange(prefetching, clock)},
                                   default=SimExchange(quiet, clock))
        prober = Prober(transport=exchange, clock=clock, rng=random.Random(99))
        domains = ["missing.test", "prefetch.test", *QUIET_TTLS]
        found, failed = discover_all(prober, clock, "sim", domains,
                                     required_confirmations=CONFIRMATIONS)
        assert set(failed) == {"missing.test", "prefetch.test"}
        assert failed["missing.test"].startswith(
            "unresolvable: no usable answer (rcode ")
        assert failed["prefetch.test"].startswith(
            "server_prefetches: TTL jumped to")
        alone = estimates_alone(quiet_config(), QUIET_TTLS)
        assert {d: summary(e) for d, e in found.items()} == {
            d: summary(e) for d, e in alone.items()}
        assert clock.now() <= (CONFIRMATIONS + 1) * (max(QUIET_TTLS.values()) + 2)

    @pytest.mark.parametrize("lost", [False, True])
    def test_a_rate_capped_burst_finds_every_domain(self, lost):
        # at 10 queries/s a burst of expiries queues checkpoints past the
        # expiries they guard; a lost domain's retries hold the queue 8 s
        clock = VirtualClock()
        sim = build_sim(config_from_dict(quiet_config({**BURST_TTLS, "lost.test": 300})),
                        start_time=clock.now())
        exchange = SimExchange(sim, clock)
        if lost:
            exchange = DroppingExchange(exchange, clock, "lost.test")
        prober = Prober(transport=exchange, clock=clock, rng=random.Random(99),
                        limiter=RateLimiter(10, clock))
        domains = [*BURST_TTLS, "lost.test"]
        found, failed = discover_all(prober, clock, "sim", domains,
                                     required_confirmations=CONFIRMATIONS)
        if lost:
            assert set(failed) == {"lost.test"}
            assert failed["lost.test"] == ("timeout: query for lost.test against sim "
                                           "failed after 4 attempts")
        else:
            assert failed == {}
        alone = estimates_alone(quiet_config(BURST_TTLS), BURST_TTLS)
        assert {d: summary(found[d]) for d in BURST_TTLS} == {
            d: summary(e) for d, e in alone.items()}
        assert all(found[d].candidates_seen == {ttl: CONFIRMATIONS}
                   for d, ttl in BURST_TTLS.items())


class TestTrueClientRates:
    def test_rates_sum_per_domain_and_default_to_zero(self):
        config = config_from_dict(two_zone_config(clients=[
            {"domain": "alpha.test", "process": {"kind": "poisson", "rate": 0.05}},
            {"domain": "alpha.test", "process": {"kind": "periodic",
                                                 "interval": 20.0}},
            {"domain": "alpha.test", "process": {"kind": "poisson", "rate": 0.0}},
            {"domain": "beta.test", "process": {"kind": "none"}, "label": "idle"},
            {"domain": "www.beta.test", "process": {"kind": "periodic",
                                                    "interval": 40.0}},
            {"domain": "mail.alpha.test", "process": {"kind": "none"}},
        ]))
        rates = true_client_rates(config)
        # a subdomain's population is its own entry, even of kind none
        assert rates == {"alpha.test": pytest.approx(0.05 + 1 / 20), "beta.test": 0.0,
                         "www.beta.test": pytest.approx(1 / 40), "mail.alpha.test": 0.0}


class TestRunBatch:
    def test_end_to_end_scoring_on_a_two_rate_scenario(self):
        result = run_batch(two_zone_config(), duration=20000,
                           required_confirmations=3)
        assert isinstance(result, BatchResult)
        assert result.discovery_failed == {}
        assert {e.domain for e in result.estimates} == {"alpha.test",
                                                        "beta.test"}
        assert result.estimates[0].domain == "alpha.test"  # busier ranks first
        assert result.rank_correlation == 1.0
        assert result.coverage is not None
        alpha = result.estimates[0]
        assert alpha.arrival_rate_per_s == pytest.approx(0.05, rel=0.5)

    def test_batch_is_deterministic(self):
        first = run_batch(two_zone_config(), duration=6000,
                          required_confirmations=2)
        second = run_batch(two_zone_config(), duration=6000,
                           required_confirmations=2)
        assert first.estimates == second.estimates
        assert first.coverage == second.coverage

    def test_domains_default_to_the_scenario_client_set(self):
        config = two_zone_config()
        config["zones"]["gamma.test"] = {"address": "10.0.0.3", "ttl": 60}
        result = run_batch(config, duration=3000, required_confirmations=2)
        assert set(result.discovery) == {"alpha.test", "beta.test"}

    def test_rd_ignoring_resolver_aborts_rd0_scans(self):
        config = two_zone_config(rd_policy="ignore")
        result = run_batch(config, duration=3000, method="rd0",
                           required_confirmations=2)
        assert set(result.scan.aborted) == {"alpha.test", "beta.test"}

    def test_log_bytes_are_pinned(self):
        # The log of a fixed scenario is fixed to the byte, so a change
        # meant to leave behaviour alone must leave this digest alone. The
        # rate cap makes some checkpoints late, so error records appear
        # too. The digest is the same on CPython 3.10 to 3.13; a different
        # libm could change the last digit of a float and with it the digest.
        zones, clients = {}, []
        for i in range(20):
            name = f"pin{i:02d}.example"
            zones[name] = {"address": f"10.0.{i}.1", "ttl": (60, 120, 300)[i % 3]}
            clients.append({"domain": name, "process": {
                "kind": "poisson", "rate": 10 ** (-3 + 2 * i / 19)}})
        out = io.StringIO()
        run_batch({"seed": 11, "zones": zones, "clients": clients},
                  duration=3600.0, rate_qps=0.5,
                  writer=ObservationWriter(out, "pinned"))
        text = out.getvalue()
        assert text.count('"kind": "error"') == 5
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "74ce0c0b72835f0274f18b977c2c299046e96f8bfc57a66d08d06ee9ec8f994a")


PINNED_METHOD_LOGS = {
    "rd0": ("b542100463087e70aac161c4883f5215105597d32058b928b9e3d12be81f43a5", 3),
    "timing": ("093467ed188475bf812b38f681563e9a4cf32667970bb5e3dae6fe75c0a0fee6", 3),
    "ttl_recursive": ("fa6cca37d97133df8210f5812c52b76afdd591ec432fae6918e2b8fb2771188e", 3),
}


@pytest.mark.parametrize("method", sorted(PINNED_METHOD_LOGS))
def test_method_log_bytes_are_pinned(method):
    # As test_log_bytes_are_pinned, for each method's own machine. One
    # domain is lost after three answers, so each log carries its
    # method's timeout records, stamped where that machine stamps them.
    zones = {"a.example": {"address": "10.1.0.1", "ttl": 60},
             "b.example": {"address": "10.1.0.2", "ttl": 120},
             "lost.example": {"address": "10.1.0.3", "ttl": 60},
             "cal.example": {"address": "10.1.0.4", "ttl": 3600}}
    clients = [{"domain": name, "process": {"kind": "poisson", "rate": rate}}
               for name, rate in (("a.example", 0.02), ("b.example", 0.005),
                                  ("lost.example", 0.01))]
    clock = VirtualClock()
    sim = build_sim(config_from_dict({"seed": 23, "zones": zones, "clients": clients}),
                    start_time=clock.now())
    prober = Prober(transport=DroppingExchange(SimExchange(sim, clock), clock,
                                               "lost.example", answered=3),
                    clock=clock, rng=random.Random(23))
    domains = ["a.example", "b.example", "lost.example"]
    calibration = None
    if method == "timing":
        calibration = calibrate_timing(prober, "sim", "cal.example")
    out = io.StringIO()
    run_scan(prober, clock, "sim", domains, method=method,
             max_ttls={d: zones[d]["ttl"] for d in domains},
             calibration=calibration, duration=3600.0,
             writer=ObservationWriter(out, f"pinned-{method}"))
    text = out.getvalue()
    digest, timeouts = PINNED_METHOD_LOGS[method]
    assert text.count('"error_kind": "timeout"') == timeouts
    assert hashlib.sha256(text.encode()).hexdigest() == digest
