"""Acceptance gate for the toolkit's headline guarantees.

Every test here checks one user-visible promise end to end, at its
stated tolerance, and prints a [PASS]/[FAIL] line with the measured
numbers so a log of this run doubles as a scorecard. Scenario seeds are
fixed; virtual-clock runs are exactly reproducible.
"""

import io
import json
import random
import time

import pytest

from snoopdns import cli
from snoopdns.clock import VirtualClock
from snoopdns.corpus import load_observations
from snoopdns.engine import (InsufficientSeparation, RefreshObservation, SnoopError,
                             calibrate_timing, classify_timing, discover_max_ttl)
from snoopdns.estimation import aggregate, estimate, rank_domains, write_ranking_csv
from snoopdns.scan import run_batch, run_scan
from snoopdns.simnet import SimExchange, build_sim, config_from_dict, serve_udp
from snoopdns.transport import Prober
from snoopdns import wire


_reporter = None


@pytest.fixture(scope="session", autouse=True)
def _terminal(request):
    # the terminal reporter writes past pytest's fd-level capture, so
    # the scorecard lines always land in the run log
    global _reporter
    _reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    yield
    _reporter = None


def check(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    if _reporter is not None:
        _reporter.ensure_newline()
        _reporter.write_line(line)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def sim_prober(config_dict, salt=0):
    clock = VirtualClock()
    sim = build_sim(config_from_dict(config_dict), start_time=clock.now())
    prober = Prober(transport=SimExchange(sim, clock), clock=clock,
                    rng=random.Random(1000 + salt))
    return prober, clock, sim


def test_arrival_rate_recovery_across_twenty_domains():
    """A two-day virtual scan of 20 domains with lookup rates spread over
    2.5 decades must rank them nearly perfectly and cover the true rate
    with the reported interval for at least 90% of them, in under a
    minute of wall time."""
    zones = {}
    clients = []
    for i in range(20):
        name = f"d{i:02}.test"
        rate = 10 ** (-4 + 2.5 * i / 19)
        zones[name] = {"address": f"10.1.0.{i + 1}", "ttl": 300}
        clients.append({"domain": name,
                        "process": {"kind": "poisson", "rate": rate}})
    started = time.perf_counter()
    result = run_batch({"seed": 1, "zones": zones, "clients": clients},
                       duration=48 * 3600.0)
    wall = time.perf_counter() - started

    covered = sum(
        1 for e in result.estimates
        if abs(e.arrival_rate_per_s - result.true_rates[e.domain])
        <= e.ci_half_width)
    rho = result.rank_correlation
    ok = (len(result.estimates) == 20 and rho is not None and rho >= 0.95
          and covered >= 18 and wall < 60.0)
    check("rate recovery, 20 domains",
          ok, f"spearman={rho:.4f} coverage={covered}/20 wall={wall:.1f}s")


def test_interval_coverage_over_one_hundred_runs():
    """The 95% interval must contain the true rate in at least 90 of 100
    independent single-domain runs sized for 50+ expected events, in
    under two minutes of wall time."""
    rate = 0.005
    started = time.perf_counter()
    covered = 0
    min_events = None
    for i in range(100):
        prober, clock, _ = sim_prober({
            "seed": 100 + i,
            "zones": {"a.test": {"address": "10.0.0.1", "ttl": 60}},
            "clients": [{"domain": "a.test",
                         "process": {"kind": "poisson", "rate": rate}}],
        }, salt=(100 + i) * 7 + 1 - 1000)
        result = run_scan(prober, clock, "sim", ["a.test"],
                          max_ttls={"a.test": 60}, duration=40000.0)
        est = estimate(aggregate(result.observations)["a.test"])
        min_events = est.events if min_events is None else min(min_events,
                                                               est.events)
        if abs(est.arrival_rate_per_s - rate) <= est.ci_half_width:
            covered += 1
    wall = time.perf_counter() - started
    ok = covered >= 90 and min_events >= 50 and wall < 120.0
    check("interval coverage, 100 runs", ok,
          f"covered={covered}/100 min_events={min_events} wall={wall:.1f}s")


def test_reported_period_and_interval_match_the_formulas():
    """3000 events over 450000 observed seconds must report a mean
    refresh period of exactly 150 s and a 95% half-width of
    2.386e-4 /s within 1%, end to end through the CSV report."""
    observations = [
        RefreshObservation(server="s", domain="busy.example", method="ttl_recursive",
                           window_start=300.0 * i, window_length=300.0,
                           probe_rtt_ms=1.0, delay=150.0)
        for i in range(3000)
    ]
    est = estimate(aggregate(observations)["busy.example"])
    out = io.StringIO()
    write_ranking_csv(out, rank_domains([est]))
    row = out.getvalue().splitlines()[1].split(",")
    period_cell = row[4]
    ok = (est.events == 3000 and est.observed_seconds == 450000.0
          and est.mean_refresh_period_s == 150.0 and period_cell == "150"
          and est.ci_half_width == pytest.approx(2.386e-4, rel=0.01))
    check("estimator formulas", ok,
          f"period={est.mean_refresh_period_s} csv={period_cell!r} "
          f"half_width={est.ci_half_width:.4g} (target 2.386e-4 within 1%)")


def test_max_ttl_discovery_is_exact_and_flags_prefetchers():
    """Discovery must recover configured maxima exactly at 5
    confirmations, and a resolver that refreshes records shortly before
    expiry must be unmasked within 3 probing cycles."""
    recovered = {}
    for ttl in (15, 20, 60, 300, 3600):
        prober, clock, _ = sim_prober({
            "seed": ttl,
            "zones": {"a.test": {"address": "10.0.0.1", "ttl": ttl}},
            "clients": []}, salt=ttl)
        found = discover_max_ttl(prober, clock, "sim", "a.test",
                                 required_confirmations=5)
        recovered[ttl] = found.max_ttl
    exact = all(recovered[t] == t for t in recovered)

    prober, clock, _ = sim_prober({
        "seed": 7,
        "zones": {"a.test": {"address": "10.0.0.1", "ttl": 60}},
        "clients": [],
        "anomaly": {"kind": "pre_refresh", "remaining_low": 3.0,
                    "remaining_high": 5.0}}, salt=7)
    started = clock.now()
    with pytest.raises(SnoopError, match=r"^server_prefetches: TTL jumped to"):
        discover_max_ttl(prober, clock, "sim", "a.test",
                         required_confirmations=5)
    cycles_used = (clock.now() - started) / 60.0
    ok = exact and cycles_used <= 3.0
    check("max-TTL discovery", ok,
          f"recovered={recovered} prefetcher flagged after "
          f"{cycles_used:.2f} cycles (limit 3)")


def test_rd_policy_classification_twenty_for_twenty():
    """Whether a resolver honors recursion-desired=0 must be classified
    correctly in all 20 trials across both policies, by the rd0 scan
    itself: it aborts the domain exactly when the resolver recurses on
    its RD=0 probes."""
    correct = 0
    for trial in range(20):
        policy = "honor" if trial % 2 == 0 else "ignore"
        prober, clock, _ = sim_prober({
            "seed": trial + 1, "rd_policy": policy,
            "zones": {"rd.test": {"address": "10.0.0.9", "ttl": 300}},
            "clients": []}, salt=trial)
        result = run_scan(prober, clock, "sim", ["rd.test"], max_ttls={"rd.test": 300},
                          method="rd0", duration=3000.0)
        correct += ("rd.test" not in result.aborted) == (policy == "honor")
    check("rd policy classification", correct == 20, f"correct={correct}/20")


def test_timing_classification_accuracy_and_jitter_failure():
    """With cache hits at 5±1 ms and recursion adding 50±5 ms the timing
    classifier must label at least 99% of 1000 queries correctly; with
    ±40 ms jitter on both, calibration must refuse to classify at all."""
    config = {
        "seed": 77,
        "zones": {"cal.test": {"address": "10.0.0.5", "ttl": 3600}},
        "clients": [],
        "rtt_model": {"cached_mean": 5.0, "cached_jitter": 1.0,
                      "recursion_extra_mean": 50.0, "recursion_jitter": 5.0},
    }
    prober, clock, _ = sim_prober(config, salt=5)
    calibration = calibrate_timing(prober, "sim", "cal.test")
    prober.probe("sim", "cal.test")  # prime the apex for the cached half
    right = 0
    for i in range(500):
        reply = prober.probe("sim", "cal.test", recursion_desired=False)
        right += classify_timing(reply.rtt_ms, calibration) == "cached"
    for i in range(500):
        reply = prober.probe("sim", f"m{i}.cal.test")
        right += classify_timing(reply.rtt_ms, calibration) == "miss"

    jittery = dict(config)
    jittery["rtt_model"] = {"cached_mean": 25.0, "cached_jitter": 40.0,
                            "recursion_extra_mean": 50.0,
                            "recursion_jitter": 40.0}
    prober, clock, _ = sim_prober(jittery, salt=6)
    refused = False
    try:
        calibrate_timing(prober, "sim", "cal.test")
    except InsufficientSeparation:
        refused = True
    ok = right >= 990 and refused
    check("timing classification", ok,
          f"accuracy={right}/1000 (floor 990) jitter_refused={refused}")


def test_codec_round_trips_and_survives_fuzzing():
    """1000 encode/decode round trips must be lossless, and 100000
    adversarial packets must produce only Malformed or a decoded
    response, never a crash."""
    rng = random.Random(0xFACE)
    letters = "abcdefghijklmnopqrstuvwxyz0123456789-"
    round_trips = 0
    for _ in range(1000):
        labels = [
            ("".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
             .strip("-") or "x")
            for _ in range(rng.randint(1, 4))]
        name = wire.normalize_name(".".join(labels))
        ident = rng.randrange(0x10000)
        query = wire.DnsQuery(id=ident, qname=name,
                              recursion_desired=rng.random() < 0.5)
        if wire.decode_query(wire.encode_query(query)) != query:
            break
        answers = [wire.ResourceRecord(name=name, rtype=wire.RecordType.A,
                                       ttl=rng.randrange(0, 86400),
                                       rdata=rng.randbytes(4))
                   for _ in range(rng.randint(0, 3))]
        packet = wire.encode_response(
            ident, wire.DnsQuestion(qname=name), answers,
            recursion_available=rng.random() < 0.5)
        decoded = wire.decode_response(packet)
        if decoded.id != ident or decoded.answers != answers:
            break
        round_trips += 1

    crashes = 0
    outcomes = {"malformed": 0, "decoded": 0}
    base = packet
    for i in range(100_000):
        if i % 2 == 0:
            blob = rng.randbytes(rng.randint(0, 256))
        else:  # mutate a valid packet: deeper sections get exercised
            mutated = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            blob = bytes(mutated[:rng.randint(1, len(mutated))])
        try:
            wire.decode_response(blob)
            outcomes["decoded"] += 1
        except wire.Malformed:
            outcomes["malformed"] += 1
        except Exception:
            crashes += 1
    ok = round_trips == 1000 and crashes == 0
    check("wire codec", ok,
          f"round_trips={round_trips}/1000 fuzz_crashes={crashes} "
          f"fuzz_outcomes={outcomes}")


def test_zero_traffic_produces_zero_events():
    """100 cycles against a domain nobody queries must report zero
    refresh events: silence never fabricates traffic."""
    prober, clock, _ = sim_prober({
        "seed": 31,
        "zones": {"ghost.test": {"address": "10.0.0.8", "ttl": 60}},
        "clients": []}, salt=31)
    result = run_scan(prober, clock, "sim", ["ghost.test"],
                      max_ttls={"ghost.test": 60}, max_cycles=100)
    stats = aggregate(result.observations)["ghost.test"]
    ok = stats.events == 0 and stats.cycles == 100 and not result.aborted
    check("zero-traffic soundness", ok,
          f"events={stats.events} cycles={stats.cycles}")


def test_a_lagging_queue_still_completes_cycles():
    """2,500 domains probed as fast as the simulator answers: their
    checkpoints fall due together and many run after the expiry they
    guard. Such domains must go on to watch windows, so one virtual hour
    yields at least 40,000 observations at 80% interval coverage."""
    rng = random.Random(1)
    count = 2500
    ttls = [(60, 120, 300)[i % 3] for i in range(count)]
    rng.shuffle(ttls)
    zones, clients = {}, []
    for i, ttl in enumerate(ttls):
        name = f"day{i:03d}.example"
        zones[name] = {"address": f"10.{i // 250}.{i % 250}.1", "ttl": ttl}
        rate = 10.0 ** (-3.5 + 2.5 * i / (count - 1))
        clients.append({"domain": name, "process": {"kind": "poisson", "rate": rate}})
    result = run_batch({"seed": rng.randrange(1 << 31), "zones": zones,
                        "clients": clients}, duration=3600.0)
    observations = len(result.scan.observations)
    coverage = result.coverage or 0.0  # None when nothing was estimated
    late = sum(1 for e in result.scan.errors if e.kind == "checkpoint_late")
    ok = observations >= 40_000 and coverage >= 0.8
    check("lagging-queue throughput", ok,
          f"observations={observations} coverage={coverage:.3f} "
          f"checkpoint_late={late}")


@pytest.mark.realtime
def test_realtime_loopback_rate_estimate(tmp_path):
    """Against a live loopback resolver holding 10 s TTLs with one
    scripted client resolving every 20 s, a five-minute non-polluting
    scan must land within 20% of the true 0.05/s rate. This test runs
    in real time and takes about five minutes."""
    config = {
        "seed": 424,
        "clock_mode": "realtime",
        "zones": {"rt.test": {"address": "10.0.0.77", "ttl": 10}},
        "clients": [{"domain": "rt.test",
                     "process": {"kind": "periodic", "interval": 20.0}}],
        "rtt_model": {"cached_mean": 2.0, "cached_jitter": 0.3,
                      "recursion_extra_mean": 8.0, "recursion_jitter": 1.0},
    }
    ttl_file = tmp_path / "maxttl.json"
    ttl_file.write_text(json.dumps({"max_ttls": {"rt.test": {"max_ttl": 10}}}))
    log_file = tmp_path / "realtime.jsonl"

    server = serve_udp(config)
    started = time.perf_counter()
    try:
        code = cli.main(["snoop", "--server", server.address,
                         "--domains", "rt.test", "--max-ttls", str(ttl_file),
                         "--method", "rd0", "--probe-interval", "5",
                         "--duration", "285", "--out", str(log_file),
                         "--scan-id", "acceptance-rt"])
    finally:
        server.stop()
    wall = time.perf_counter() - started

    log = load_observations(str(log_file))
    est = estimate(aggregate(log.observations)["rt.test"])
    rate = est.arrival_rate_per_s
    ok = (code == 0 and 0.04 <= rate <= 0.06 and wall < 330.0)
    check("realtime loopback estimate", ok,
          f"rate={rate:.4f}/s (true 0.05, accept 0.04..0.06) "
          f"events={est.events} observed={est.observed_seconds:.0f}s "
          f"wall={wall:.0f}s exit={code}")
