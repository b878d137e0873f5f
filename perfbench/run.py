"""snoopdns benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload sim_recursive_day --seed 1 --seconds 35 --trace 0

or every workload, each in its own fresh process:

    python3 perfbench/run.py --workload all --seed 1 --seconds 35

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics, measured with nothing wrapped; with --trace 1
they are the per-layer metrics from a separate traced run. Every other
metric the run measures is printed above that line. The program is
driven only through the public API of the snoopdns package in src/;
nothing under src/ is changed or configured.
"""

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
import scenarios
from tracing import SpanSummary, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# (name, unit, better) of every metric in the final JSON line.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("probes_per_s", "probes/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

WIRE_FUNCTIONS = ("encode_query", "decode_query", "encode_response", "decode_response")

PER_LAYER = [
    *[(f"wire.{f}.{k}", u, "lower") for f in WIRE_FUNCTIONS
      for k, u in (("calls", "count"), ("us", "us"))],
    ("wire.self_s", "s", "lower"),
    ("transport.probe.calls", "count", "lower"),
    ("transport.probe.attempts", "count", "lower"),
    ("transport.probe.self_s", "s", "lower"),
    ("transport.exchange.s", "s", "lower"),
    ("clock.sleep_until.calls", "count", "lower"),
    ("clock.slept_s", "s", "lower"),
    ("simnet.handle_query.calls", "count", "lower"),
    ("simnet.handle_query.us", "us", "lower"),
    ("simnet.handle_query.self_s", "s", "lower"),
    ("simnet.client_events", "count", "lower"),
    ("engine.step.calls", "count", "lower"),
    ("engine.step.self_s", "s", "lower"),
    ("scan.run_scan.s", "s", "lower"),
    ("scan.run_scan.self_s", "s", "lower"),
    ("scan.observations", "count", "higher"),
    ("estimation.aggregate.calls", "count", "lower"),
    ("estimation.aggregate.s", "s", "lower"),
    ("estimation.estimate.s", "s", "lower"),
    ("estimation.rank_domains.s", "s", "lower"),
    ("corpus.write.calls", "count", "lower"),
    ("corpus.write.us", "us", "lower"),
    ("corpus.load_observations.s", "s", "lower"),
    ("corpus.load_observations.lines", "count", "lower"),
    ("corpus.log_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

# Measured and printed on every run, but left out of the JSON line:
# some are zero by construction on some workload (no discovery on the
# loopback run, no lateness on virtual time, no failures on a clean
# run); the accuracy scores vary more from seed to seed than any bound
# a speed metric can carry (accuracy is held by ACCURACY_FLOOR); and
# report_s, a reload that takes 4 ms on sim_heavy_clients, spread by up
# to 0.27 of its median across runs on a shared 2-core machine.
PRINTED_ONLY_UNITS = {
    "report_s": "s",
    "discovery_clock_s": "s", "lateness_p50_ms": "ms", "lateness_p99_ms": "ms",
    "lateness_n": "count", "rank_rho": "rho", "coverage": "fraction",
    "probe_fail_frac": "fraction", "domain_loss_frac": "fraction",
}

# Scan lengths keep an episode near 6 s, so a 35 s run holds five or six:
# on a shared 2-core machine one episode varies by about 10%.
SIM_WORKLOADS = {
    # ROADMAP scenario A: sequential discovery, then a 3-hour scan.
    "sim_recursive_day": {"scenario": scenarios.day_scenario,
                          "method": "ttl_recursive", "duration": 3 * 3600.0},
    # ROADMAP scenario C: client replay outweighs probing about 2000 to 1.
    "sim_heavy_clients": {"scenario": scenarios.heavy_scenario,
                          "method": "ttl_recursive", "duration": 1800.0},
}
LOOPBACK = "loopback_rd0_realtime"
WORKLOADS = [*SIM_WORKLOADS, LOOPBACK]

# A run whose rank correlation between estimated and true rates falls
# below its workload's floor fails its output checks. Each floor sits
# well under every value seen over seeds 1-20 (lowest seen: 0.991 with
# a 6-hour scan, 0.742, and 0.711 for a 10 s loopback scan), so only
# broken estimation or probing trips it.
ACCURACY_FLOOR = {"sim_recursive_day": 0.9, "sim_heavy_clients": 0.5, LOOPBACK: 0.6}

SETUP_REPEATS = 5
MIN_EPISODES = 3
# report_s is the median of report repeats taken after every episode,
# so that they spread over the whole run like the episodes do.
REPORT_REPEATS = 3
REPORT_SECONDS = 0.6
LOOPBACK_INTERVAL_S = 1.0
LOOPBACK_RATE_CAP_QPS = 250.0
LOOPBACK_RESOLVER_STARTS = 3


# -- the package under test ---------------------------------------------

def import_package():
    """Import snoopdns afresh from the checkout's src/ directory."""
    if not (SRC / "snoopdns" / "__init__.py").is_file():
        raise FileNotFoundError(f"no snoopdns package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "snoopdns" or m.startswith("snoopdns.")]:
        del sys.modules[name]
    pkg = importlib.import_module("snoopdns")
    if Path(pkg.__file__).resolve().parent != SRC / "snoopdns":
        raise ImportError(f"snoopdns imported from {pkg.__file__}, not {SRC}")
    return pkg


def package_modules():
    return [m for name, m in sys.modules.items()
            if name == "snoopdns" or name.startswith("snoopdns.")]


def install_tracing(tracer: Tracer, pkg) -> None:
    """Wrap each layer's public functions, as the package itself calls them."""
    modules = package_modules()
    for name in WIRE_FUNCTIONS:
        tracer.patch_function(modules, getattr(pkg.wire, name), f"wire.{name}")
    tracer.patch(pkg.transport.Prober, "probe", "transport.probe")
    tracer.patch(pkg.transport.UdpExchange, "exchange", "transport.exchange")
    tracer.patch(pkg.ratelimit.RateLimiter, "acquire", "ratelimit.acquire")
    tracer.patch(pkg.clock.VirtualClock, "sleep_until", "clock.sleep_until")
    tracer.patch(pkg.clock.SystemClock, "sleep_until", "clock.sleep_until")
    tracer.patch(pkg.simnet.Sim, "handle_query", "simnet.handle_query")
    tracer.patch(pkg.simnet.SimExchange, "exchange", "simnet.exchange")
    for machine in (pkg.engine.TtlRecursiveMachine, pkg.engine.Rd0Machine,
                    pkg.engine.TimingMachine):
        tracer.patch(machine, "step", "engine.step")
    tracer.patch_function(modules, pkg.engine.discover_max_ttl, "engine.discover")
    tracer.patch_function(modules, pkg.scan.discover_all, "scan.discover_all")
    tracer.patch_function(modules, pkg.scan.run_scan, "scan.run_scan")
    for name in ("aggregate", "estimate", "rank_domains"):
        tracer.patch_function(modules, getattr(pkg.estimation, name), f"estimation.{name}")
    tracer.patch(pkg.corpus.ObservationWriter, "write", "corpus.write")
    tracer.patch_function(modules, pkg.corpus.load_observations, "corpus.load_observations")


class CountingExchange:
    """Passes probes through to a transport, counting attempts and failures.

    A failure is an exchange that raised (a timeout) or returned a reply
    too short for a header or carrying another transaction id.
    """

    def __init__(self, inner):
        self.inner = inner
        self.attempts = 0
        self.failed = 0

    def exchange(self, server, payload, timeout):
        self.attempts += 1
        try:
            data, rtt_ms, sent_at = self.inner.exchange(server, payload, timeout)
        except TimeoutError:
            self.failed += 1
            raise
        if len(data) < 12 or data[:2] != payload[:2]:
            self.failed += 1
        return data, rtt_ms, sent_at


@contextlib.contextmanager
def counted_sim_exchange(pkg):
    """Make run_batch's prober send through a CountingExchange."""
    made: list[CountingExchange] = []
    original = pkg.scan.SimExchange

    def factory(sim, clock):
        made.append(CountingExchange(original(sim, clock)))
        return made[-1]

    pkg.scan.SimExchange = factory
    try:
        yield made
    finally:
        pkg.scan.SimExchange = original


# -- shared steps -----------------------------------------------------------

def report_times(pkg, log_path: Path, *, repeats: int = 1, seconds: float = 0.0) -> list[float]:
    """Times to reload a log and render its ranking, repeated until both
    `repeats` and `seconds` are reached."""
    times = []
    started = time.perf_counter()
    while len(times) < repeats or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        log = pkg.corpus.load_observations(str(log_path))
        stats = pkg.estimation.aggregate(log.observations)
        ranked = pkg.estimation.rank_domains(
            [pkg.estimation.estimate(s) for s in stats.values() if s.observed_seconds > 0])
        pkg.estimation.format_ranking_table(ranked)
        times.append(time.perf_counter() - t0)
    return times


def score(pkg, estimates, truth: dict[str, float]) -> tuple[float | None, float | None]:
    """(rank_rho, coverage) scored the way run_batch scores them."""
    comparable = [e for e in estimates if e.domain in truth]
    if not comparable:
        return None, None
    covered = sum(1 for e in comparable
                  if abs(e.arrival_rate_per_s - truth[e.domain]) <= e.ci_half_width)
    rho = None
    if len(comparable) >= 2:
        rho = pkg.estimation.spearman_rho([e.arrival_rate_per_s for e in comparable],
                                          [truth[e.domain] for e in comparable])
    return rho, covered / len(comparable)


def check_outputs(pkg, *, requested, estimates, failed, aborted, scan_result,
                  log_path: Path, attempts: int, handled: int) -> list[str]:
    """The output checks of every run; returns the failures found.

    A requested domain is accounted for by an estimate, a discovery
    failure, an abort, or a stats entry with zero exposure; the last
    three count towards domain_loss_frac.
    """
    problems = []
    stats = scan_result.stats()
    unexposed = {d for d, s in stats.items() if s.observed_seconds <= 0}
    accounted = {e.domain for e in estimates} | set(failed) | set(aborted) | unexposed
    missing = sorted(set(requested) - accounted)
    if missing:
        problems.append(f"{len(missing)} domains unaccounted for, e.g. {missing[:3]}")
    log = pkg.corpus.load_observations(str(log_path))
    if log.corrupt_lines:
        problems.append(f"log has {log.corrupt_lines} corrupt lines")
    reloaded = pkg.estimation.aggregate(o for o in log.observations
                                        if o.domain not in aborted)
    if reloaded != stats:
        differing = sorted(d for d in set(reloaded) | set(stats)
                           if reloaded.get(d) != stats.get(d))
        problems.append(f"reloaded log disagrees with ScanResult.stats() on "
                        f"{len(differing)} domains, e.g. {differing[:3]}")
    if attempts != handled:
        problems.append(f"transport sent {attempts} probes but the resolver "
                        f"handled {handled}")
    return problems


@contextlib.contextmanager
def tracing(tracer: Tracer | None, pkg):
    """Trace the package for the duration of the block, when given a tracer."""
    if tracer is None:
        yield
        return
    install_tracing(tracer, pkg)
    try:
        yield
    finally:
        tracer.uninstall()


def add_layers(result: dict, tracer: Tracer, counter: CountingExchange, log_path: Path,
               *, exchange_span: str, client_events: int) -> None:
    """Per-layer metrics of a traced episode, and the checks that need spans.

    The traced wall time is the timed scan plus the single timed report.
    """
    spans = SpanSummary(tracer)
    metrics = layer_metrics(spans, exchange_span=exchange_span)
    if counter.attempts != metrics["transport.probe.attempts"]:
        result["problems"].append(
            f"wrapped transport saw {counter.attempts} probes, "
            f"transport.probe.attempts is {metrics['transport.probe.attempts']}")
    attributed, problems = attribution(spans, result["wall_s"] + result["report_s"])
    result["problems"].extend(problems)
    metrics.update({
        "simnet.client_events": client_events,
        "scan.observations": result["observations"], "scan.errors": result["errors"],
        "corpus.load_observations.lines": file_lines(log_path),
        "corpus.log_bytes": log_path.stat().st_size,
    })
    result["layers"] = metrics
    result["attribution"] = attributed


def layer_metrics(spans: SpanSummary, *, exchange_span: str) -> dict[str, float]:
    """Per-layer metrics that come from the scanner's own spans."""
    m: dict[str, float] = {}
    for name in WIRE_FUNCTIONS:
        m[f"wire.{name}.calls"] = spans.count(f"wire.{name}")
        m[f"wire.{name}.us"] = spans.mean_us(f"wire.{name}")
    m["wire.self_s"] = sum(spans.self_seconds(f"wire.{n}") for n in WIRE_FUNCTIONS)
    calls = spans.count("transport.probe")
    attempts = spans.children_named("transport.probe", "wire.encode_query")
    m["transport.probe.calls"] = calls
    m["transport.probe.attempts"] = attempts
    m["transport.probe.self_s"] = spans.self_seconds("transport.probe")
    m["transport.exchange.s"] = spans.self_seconds(exchange_span)
    m["transport.retries"] = attempts - calls
    m["transport.timeouts"] = spans.raised(exchange_span)
    waits = spans.durations_of("ratelimit.acquire")
    m["ratelimit.acquire.calls"] = len(waits)
    m["ratelimit.wait_s"] = sum(waits)
    m["ratelimit.wait_p99_ms"] = 1000.0 * measure.percentile(waits, 99) if waits else 0.0
    m["clock.sleep_until.calls"] = spans.count("clock.sleep_until")
    m["clock.slept_s"] = spans.seconds("clock.sleep_until")
    m["simnet.handle_query.calls"] = spans.count("simnet.handle_query")
    m["simnet.handle_query.us"] = spans.mean_us("simnet.handle_query")
    m["simnet.handle_query.self_s"] = spans.self_seconds("simnet.handle_query")
    m["simnet.exchange.self_s"] = spans.self_seconds("simnet.exchange")
    m["engine.step.calls"] = spans.count("engine.step")
    m["engine.step.self_s"] = spans.self_seconds("engine.step")
    m["engine.discover.calls"] = spans.count("engine.discover")
    m["engine.discover.probes"] = spans.children_named("engine.discover", "transport.probe")
    m["engine.discover.self_s"] = spans.self_seconds("engine.discover")
    m["scan.discover_all.s"] = spans.seconds("scan.discover_all")
    m["scan.run_scan.s"] = spans.seconds("scan.run_scan")
    m["scan.run_scan.self_s"] = spans.self_seconds("scan.run_scan")
    m["estimation.aggregate.calls"] = spans.count("estimation.aggregate")
    m["estimation.aggregate.s"] = spans.seconds("estimation.aggregate")
    m["estimation.estimate.s"] = spans.seconds("estimation.estimate")
    m["estimation.rank_domains.s"] = spans.seconds("estimation.rank_domains")
    m["corpus.write.calls"] = spans.count("corpus.write")
    m["corpus.write.us"] = spans.mean_us("corpus.write")
    m["corpus.load_observations.s"] = spans.seconds("corpus.load_observations")
    return m


def attribution(spans: SpanSummary, wall: float) -> tuple[dict, list[str]]:
    """Layer self times and the untraced remainder of a traced wall time."""
    layers = spans.layer_self_seconds()
    unattributed = wall - spans.root_s
    problems = []
    total = sum(layers.values()) + unattributed
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"layer self times plus untraced time {total:.6f}s "
                        f"differ from the traced wall time {wall:.6f}s")
    return {"layer_self_s": layers, "untraced_s": unattributed, "wall_s": wall}, problems


def file_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def median_metrics(runs: list[dict]) -> dict:
    return {k: statistics.median([r[k] for r in runs]) for k in runs[0]}


# -- simulator workloads ------------------------------------------------------

def sim_setup(scenario: dict):
    """Import, validate and build the simulator SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pkg = import_package()
        config = pkg.config_from_dict(scenario)
        pkg.build_sim(config)
        times.append(time.perf_counter() - t0)
    return pkg, config, times


def sim_episode(pkg, config, spec: dict, workdir: Path, tracer: Tracer | None = None) -> dict:
    """discovery -> scan -> in-memory ranking through run_batch, then the report."""
    log_path = workdir / "episode.jsonl"
    with counted_sim_exchange(pkg) as made, open(log_path, "w", encoding="utf-8") as out:
        writer = pkg.ObservationWriter(out, "bench")
        with tracing(tracer, pkg):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            batch = pkg.run_batch(config, duration=spec["duration"], method=spec["method"],
                                  writer=writer)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
    counter = made[0]
    scan = batch.scan
    requested = sorted(config.zones)
    handled = sum(1 for e in batch.sim.log if e.kind == "probe_query")
    problems = check_outputs(pkg, requested=requested, estimates=batch.estimates,
                             failed=batch.discovery_failed, aborted=scan.aborted,
                             scan_result=scan, log_path=log_path,
                             attempts=counter.attempts, handled=handled)
    max_ttls = {d: e.max_ttl for d, e in batch.discovery.items()}
    late = measure.summarize(measure.lateness_ms(scan.observations, max_ttls))
    result = {
        "wall_s": wall, "cpu_s": cpu,
        "attempts": counter.attempts, "failed": counter.failed,
        "probes_per_s": counter.attempts / wall,
        "rank_rho": batch.rank_correlation, "coverage": batch.coverage,
        "discovery_clock_s": scan.started_at,
        "lateness_p50_ms": late["p50"], "lateness_p99_ms": late["p99"], "lateness_n": late["n"],
        "probe_fail_frac": counter.failed / counter.attempts,
        "domain_loss_frac": 1.0 - len(batch.estimates) / len(requested),
        "client_events": sum(1 for e in batch.sim.log if e.kind == "client_query"),
        "observations": len(scan.observations), "errors": len(scan.errors),
        "problems": problems,
    }
    del batch, scan
    gc.collect()
    if tracer is not None:
        with tracing(tracer, pkg):
            result["report_s"] = report_times(pkg, log_path)[0]
        add_layers(result, tracer, counter, log_path, exchange_span="simnet.exchange",
                   client_events=result["client_events"])
    return result


def run_sim(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    spec = SIM_WORKLOADS[name]
    scenario = spec["scenario"](seed)
    pkg, config, setup_times = sim_setup(scenario)
    plain: list[dict] = []
    with_trace: list[dict] = []
    started = time.perf_counter()
    last_tracer = None
    reports: list[float] = []
    while True:
        plain.append(sim_episode(pkg, config, spec, workdir))
        # Every episode of a seed writes the same log; the report reloads it
        # on its own, as `snoopdns report` would, after the simulator is freed.
        reports += report_times(pkg, workdir / "episode.jsonl",
                                repeats=REPORT_REPEATS, seconds=REPORT_SECONDS)
        if traced:
            last_tracer = Tracer()
            with_trace.append(sim_episode(pkg, config, spec, workdir, last_tracer))
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and (traced or len(plain) >= MIN_EPISODES):
            break
    problems = [p for ep in plain + with_trace for p in ep["problems"]]
    signatures = {(ep["attempts"], ep["rank_rho"], ep["observations"])
                  for ep in plain + with_trace}
    if len(signatures) != 1:
        problems.append(f"repeated episodes of one seed disagree: {sorted(signatures)}")
    first = plain[0]
    e2e = {k: statistics.median([ep[k] for ep in plain]) for k in ("wall_s", "cpu_s",
                                                              "probes_per_s")}
    e2e.update({
        "report_s": statistics.median(reports),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{k: first[k] for k in ("rank_rho", "coverage", "discovery_clock_s",
                                 "lateness_p50_ms", "lateness_p99_ms", "lateness_n",
                                 "probe_fail_frac", "domain_loss_frac")},
    })
    out = {
        "e2e": e2e,
        "attempted": sum(ep["attempts"] for ep in plain + with_trace),
        "failed": sum(ep["failed"] for ep in plain + with_trace),
        "problems": problems,
        "episodes": len(plain),
        "episode_wall_s": [ep["wall_s"] for ep in plain],
        "setup_times_s": setup_times,
        "context": {"client_events": first["client_events"],
                    "observations": first["observations"], "errors": first["errors"]},
    }
    if traced:
        layers = median_metrics([ep["layers"] for ep in with_trace])
        untraced = statistics.median([ep["wall_s"] for ep in plain])
        traced_wall = statistics.median([ep["wall_s"] for ep in with_trace])
        layers["trace.overhead_frac"] = traced_wall / untraced - 1.0
        out["layers"] = layers
        out["trace"] = {"untraced_wall_s": untraced, "traced_wall_s": traced_wall,
                        "overhead_basis": "wall_s",
                        "attribution": with_trace[-1]["attribution"],
                        "traced_episodes": len(with_trace)}
        spans_path = WORK / f"{name}-seed{seed}.spans.csv.gz"
        last_tracer.write(str(spans_path))
        out["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


# -- real-clock loopback workload ---------------------------------------------

class Resolver:
    """The loopback resolver, serving the scenario in a child process."""

    def __init__(self, scenario: dict, traced: bool):
        cmd = [sys.executable, str(HERE / "resolver.py")] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=str(ROOT))
        self.proc.stdin.write(json.dumps(scenario) + "\n")
        self.proc.stdin.flush()
        self.address = self.proc.stdout.readline().strip()
        if not self.address:
            self.close()
            raise RuntimeError("resolver process exited before serving")

    def stop(self) -> dict:
        """Stop serving and return the resolver's own report."""
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.close()
        return json.loads(line)

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_resolver(pkg, scenario: dict, traced: bool) -> tuple[Resolver, float, CountingExchange]:
    """Start a resolver and time it until it answers a first, non-recursive
    query (which leaves its cache untouched)."""
    t0 = time.perf_counter()
    resolver = Resolver(scenario, traced)
    try:
        counter = CountingExchange(pkg.UdpExchange())
        prober = pkg.Prober(transport=counter, clock=pkg.SystemClock(), timeout=1.0)
        prober.probe(resolver.address, sorted(scenario["zones"])[0], recursion_desired=False)
    except BaseException:
        resolver.close()
        raise
    return resolver, time.perf_counter() - t0, counter


def loopback_scan(pkg, scenario: dict, seed: int, seconds: float, workdir: Path,
                  resolver: Resolver, ready: CountingExchange,
                  tracer: Tracer | None = None) -> dict:
    config = pkg.config_from_dict(scenario)
    domains = sorted(config.zones)
    max_ttls = scenarios.max_ttls(scenario)
    clock = pkg.SystemClock()
    counter = CountingExchange(pkg.UdpExchange())
    prober = pkg.Prober(transport=counter, clock=clock,
                        limiter=pkg.RateLimiter(LOOPBACK_RATE_CAP_QPS, clock),
                        rng=random.Random(seed))
    log_path = workdir / "loopback.jsonl"
    with open(log_path, "w", encoding="utf-8") as out:
        writer = pkg.ObservationWriter(out, "bench")
        with tracing(tracer, pkg):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            scan = pkg.scan.run_scan(prober, clock, resolver.address, domains,
                                     max_ttls=max_ttls, method="rd0",
                                     probe_interval=LOOPBACK_INTERVAL_S,
                                     duration=seconds, writer=writer)
            estimates = pkg.estimation.rank_domains(
                [pkg.estimation.estimate(s) for s in scan.stats().values()
                 if s.observed_seconds > 0])
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
    served = resolver.stop()
    rho, coverage = score(pkg, estimates, pkg.true_client_rates(config))
    problems = check_outputs(pkg, requested=domains, estimates=estimates, failed={},
                             aborted=scan.aborted, scan_result=scan, log_path=log_path,
                             attempts=counter.attempts + ready.attempts,
                             handled=served["probe_queries"])
    late = measure.summarize(measure.lateness_ms(scan.observations, max_ttls,
                                                 probe_interval=LOOPBACK_INTERVAL_S))
    result = {
        "wall_s": wall, "cpu_s": cpu,
        "attempts": counter.attempts, "failed": counter.failed,
        "probes_per_s": counter.attempts / wall, "rank_rho": rho, "coverage": coverage,
        "lateness_p50_ms": late["p50"], "lateness_p99_ms": late["p99"],
        "lateness_n": late["n"],
        "probe_fail_frac": counter.failed / counter.attempts,
        "domain_loss_frac": 1.0 - len(estimates) / len(domains),
        "observations": len(scan.observations), "errors": len(scan.errors),
        "resolver": served, "problems": problems,
    }
    if tracer is None:
        result["report_s"] = statistics.median(report_times(
            pkg, log_path, repeats=5 * REPORT_REPEATS, seconds=5 * REPORT_SECONDS))
    else:
        with tracing(tracer, pkg):
            result["report_s"] = report_times(pkg, log_path)[0]
        add_layers(result, tracer, counter, log_path, exchange_span="transport.exchange",
                   client_events=served["client_events"])
        # The resolver's side of each exchange runs in its own process.
        layers = result["layers"]
        scanner_wire_s = layers["wire.self_s"]
        layers.update(served["metrics"])
        layers["wire.self_s"] = scanner_wire_s + served["metrics"]["wire.self_s"]
    return result


def run_loopback(seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    scenario = scenarios.loopback_scenario(seed)
    pkg = import_package()
    setup_times = []
    for _ in range(LOOPBACK_RESOLVER_STARTS - 1):
        resolver, took, _ = start_resolver(pkg, scenario, traced=False)
        resolver.close()
        setup_times.append(took)
    resolver, took, ready = start_resolver(pkg, scenario, traced=False)
    setup_times.append(took)
    scan_seconds = seconds / 2.0 if traced else seconds
    try:
        plain = loopback_scan(pkg, scenario, seed, scan_seconds, workdir, resolver, ready)
    finally:
        resolver.close()
    episodes = [plain]
    if traced:
        tracer = Tracer()
        resolver, _, ready = start_resolver(pkg, scenario, traced=True)
        try:
            episodes.append(loopback_scan(pkg, scenario, seed, scan_seconds, workdir,
                                          resolver, ready, tracer))
        finally:
            resolver.close()
    e2e = {k: plain[k] for k in ("wall_s", "cpu_s", "report_s", "probes_per_s", "rank_rho",
                                 "coverage", "lateness_p50_ms", "lateness_p99_ms",
                                 "lateness_n", "probe_fail_frac", "domain_loss_frac")}
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["discovery_clock_s"] = 0.0
    out = {
        "e2e": e2e,
        "attempted": sum(ep["attempts"] for ep in episodes),
        "failed": sum(ep["failed"] for ep in episodes),
        "problems": [p for ep in episodes for p in ep["problems"]],
        "episodes": 1,
        "setup_times_s": setup_times,
        "context": {"resolver": plain["resolver"], "observations": plain["observations"],
                    "errors": plain["errors"]},
    }
    if traced:
        traced_ep = episodes[1]
        layers = dict(traced_ep["layers"])
        # Wall time is pinned by the scan's schedule, so the overhead of
        # tracing shows as scanner CPU time over the same duration.
        layers["trace.overhead_frac"] = traced_ep["cpu_s"] / plain["cpu_s"] - 1.0
        out["layers"] = layers
        out["trace"] = {"untraced_wall_s": plain["wall_s"],
                        "traced_wall_s": traced_ep["wall_s"],
                        "untraced_cpu_s": plain["cpu_s"], "traced_cpu_s": traced_ep["cpu_s"],
                        "overhead_basis": "cpu_s",
                        "attribution": traced_ep["attribution"]}
        spans_path = WORK / f"{LOOPBACK}-seed{seed}.spans.csv.gz"
        tracer.write(str(spans_path))
        out["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


# -- reporting ----------------------------------------------------------------

def machine_record(workload: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "network": ("loopback interface 127.0.0.1, not a link" if workload == LOOPBACK
                    else "none: in-process simulator on virtual time"),
        "resolver": "second process" if workload == LOOPBACK else "in-process",
    }


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(workload: str, seed: int, outcome: dict, traced: bool) -> None:
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    units.update(PRINTED_ONLY_UNITS)
    print(f"workload {workload}  seed {seed}  episodes {outcome['episodes']}")
    print("machine " + json.dumps(machine_record(workload)))
    for name, value in sorted(outcome["e2e"].items()):
        print(f"  {name:<22} {fmt(value):>14} {units.get(name, '')}")
    print("  context " + json.dumps(outcome["context"]))
    if traced:
        for name, value in sorted(outcome["layers"].items()):
            print(f"  {name:<36} {fmt(value):>14} {units.get(name, _unit_of(name))}")
        print("trace " + json.dumps(outcome["trace"]))
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")


def _unit_of(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".us", "us"), ("_ms", "ms"), (".s", "s"),
                         ("_s", "s"), ("retries", "count"), ("timeouts", "count"),
                         ("probes", "count"), ("errors", "count")):
        if name.endswith(suffix):
            return unit
    return ""


def result_line(outcome: dict, traced: bool) -> dict:
    table = PER_LAYER if traced else END_TO_END
    source = outcome["layers"] if traced else outcome["e2e"]
    metrics = {}
    for name, unit, _ in table:
        value = source.get(name)
        if value is None:
            outcome["problems"].append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not outcome["problems"], "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == LOOPBACK:
            outcome = run_loopback(seed, seconds, traced, workdir)
        else:
            outcome = run_sim(workload, seed, seconds, traced, workdir)
        rho = outcome["e2e"]["rank_rho"]
        if rho is None or rho < ACCURACY_FLOOR[workload]:
            outcome["problems"].append(f"rank_rho {rho} below the accuracy floor "
                                       f"{ACCURACY_FLOOR[workload]}")
        line = result_line(outcome, traced)
        print_report(workload, seed, outcome, traced)
        with open(WORK / f"{workload}-seed{seed}-trace{int(traced)}.json", "w",
                  encoding="utf-8") as out:
            json.dump({"machine": machine_record(workload), "result": line,
                       **outcome}, out, indent=1, sort_keys=True, default=str)
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload, each in a fresh process; fails if any run fails."""
    summary = {}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            summary[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[workload] = {"correct": False, "error": f"exit code {proc.returncode}"}
        if proc.returncode != 0 or not summary[workload].get("correct"):
            status = 1
        print()
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "snoopdns" / "__init__.py").is_file():
        print(f"error: no snoopdns package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
