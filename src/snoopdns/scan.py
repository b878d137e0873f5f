"""Multi-domain scan orchestration.

One thread interleaves every domain's machine through the wake-time
heap of engine._run_machines: pop the earliest machine, sleep to its
wake, step it, push it back. Maximum-TTL discovery and snooping both
run on it, so every domain waits out its expiries at the same time as
the others. On a virtual clock this replays identically for a given
seed; on the system clock the rate limiter inside the prober keeps
aggregate query rate at the configured cap either way.
"""

import random
from dataclasses import dataclass, field

from .clock import Clock, VirtualClock
from .corpus import ObservationWriter
from .engine import (INVALIDATING_KINDS, CycleError, DiscoveryMachine,
                     MaxTtlEstimate, RefreshObservation, TimingCalibration,
                     _run_machines, build_machine)
from .estimation import (ArrivalEstimate, DomainStats, aggregate, estimate,
                         rank_domains, spearman_rho)
from .simnet import Sim, SimConfig, SimExchange, build_sim, config_from_dict
from .transport import Prober


@dataclass
class ScanResult:
    server: str
    method: str
    observations: list[RefreshObservation] = field(default_factory=list)
    errors: list[CycleError] = field(default_factory=list)
    aborted: dict[str, str] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0

    def stats(self) -> dict[str, DomainStats]:
        return aggregate(self.observations)


def discover_all(prober: Prober, clock: Clock, server: str, domains: list[str],
                 required_confirmations: int = 5,
                 ) -> tuple[dict[str, MaxTtlEstimate], dict[str, str]]:
    """Discover the maximum TTL of every domain at once.

    Each domain's DiscoveryMachine runs on one wake-time heap, so the
    whole list costs about (required_confirmations + 1) x its largest
    maximum TTL of clock time while the prober's rate limit keeps up;
    a longer list takes its probe count divided by the rate. Returns
    (found, failed); a failed discovery records the error text and
    excludes the domain. Its retries can hold the queue, but a
    checkpoint they push past its expiry serves as that round's
    roll-over read, so no other domain fails for it.
    """
    machines = [DiscoveryMachine(prober, server, domain,
                                 required_confirmations=required_confirmations)
                for domain in domains]
    _run_machines(clock, machines, clock.now())
    found: dict[str, MaxTtlEstimate] = {}
    failed: dict[str, str] = {}
    for machine in machines:
        if machine.error is not None:
            failed[machine.domain] = f"{type(machine.error).__name__}: {machine.error}"
        else:
            found[machine.domain] = machine.estimate
    return found, failed


def run_scan(prober: Prober, clock: Clock, server: str, domains: list[str], *,
             max_ttls: dict[str, int], method: str = "ttl_recursive",
             window_fraction: float = 1.0, probe_interval: float | None = None,
             calibration: TimingCalibration | None = None,
             duration: float | None = None, max_cycles: int | None = None,
             writer: ObservationWriter | None = None) -> ScanResult:
    """Interleave probing machines for many domains on one clock.

    Every domain needs an entry in max_ttls; the timing method needs the
    server's calibration. An rd0 domain whose maximum TTL is below
    probe_interval is aborted before any probe, since its refreshes
    could fall between probes unseen. The duration budget bounds
    probe scheduling: a machine whose next wake lands past the deadline
    is retired, so the last partial cycle is dropped rather than probed
    late, and a non-positive duration probes nothing. max_cycles bounds
    completed cycles per domain. A domain whose server behavior
    invalidates the method (pre-expiry refreshing, RD=0 ignored) is
    aborted and recorded, and its observations are dropped from the
    result: they measured the server, not its clients. The
    written log keeps them for audit. Other domains continue.
    """
    if not 0 < window_fraction <= 1:
        raise ValueError(f"window_fraction must be in (0, 1], got {window_fraction}")
    missing = [d for d in domains if d not in max_ttls]
    if missing:
        raise ValueError(f"no maximum TTL known for: {', '.join(missing)}")

    start = clock.now()
    result = ScanResult(server=server, method=method, started_at=start)
    machines = []
    for domain in domains:
        ttl = int(max_ttls[domain])
        if method == "rd0" and probe_interval is not None and probe_interval > ttl:
            result.aborted[domain] = (f"probe interval {probe_interval:g}s exceeds the "
                                      f"maximum TTL {ttl}s, so refreshes could go unseen")
            continue
        machines.append(build_machine(
            method, prober, server, domain, max_ttl=ttl,
            window=window_fraction * ttl, probe_interval=probe_interval,
            calibration=calibration))

    def emit(items: list) -> None:
        for item in items:
            if isinstance(item, RefreshObservation):
                result.observations.append(item)
            else:
                result.errors.append(item)
                if item.kind in INVALIDATING_KINDS:
                    result.aborted[item.domain] = item.message
            if writer is not None:
                writer.write(item)

    if duration is None or duration > 0:
        _run_machines(clock, machines, start, emit,
                      deadline=None if duration is None else start + duration,
                      max_cycles=max_cycles)

    if result.aborted:
        result.observations = [o for o in result.observations
                               if o.domain not in result.aborted]
    result.finished_at = clock.now()
    return result


def true_client_rates(config: SimConfig) -> dict[str, float]:
    """Ground-truth client query rate per domain from a scenario."""
    rates: dict[str, float] = {name: 0.0 for name in config.zones}
    for client in config.clients:
        process = client.process
        if process.kind == "poisson":
            add = process.rate
        elif process.kind == "periodic":
            add = 1.0 / process.interval if process.interval > 0 else 0.0
        else:
            add = 0.0
        rates[client.domain] = rates.get(client.domain, 0.0) + add
    return rates


@dataclass
class BatchResult:
    """A full simulated scan with its accuracy scores."""

    scan: ScanResult
    estimates: list[ArrivalEstimate]
    discovery: dict[str, MaxTtlEstimate]
    discovery_failed: dict[str, str]
    true_rates: dict[str, float]
    coverage: float | None
    rank_correlation: float | None
    sim: Sim


def run_batch(config: SimConfig | dict, *, duration: float,
              method: str = "ttl_recursive", window_fraction: float = 1.0,
              probe_interval: float | None = None, required_confirmations: int = 5,
              rate_qps: float | None = None,
              writer: ObservationWriter | None = None) -> BatchResult:
    """Scan a simulated resolver end to end on virtual time.

    Discovers the maximum TTL of each domain that has clients (of every
    zone when none has), snoops for the given duration, estimates
    arrival rates, and scores them against the scenario's ground truth:
    coverage is the fraction of estimated domains whose confidence
    interval contains the true client rate, and rank_correlation
    compares estimated against true orderings. Scoring fields are None
    when the scenario has too few comparable domains.
    """
    if isinstance(config, dict):
        config = config_from_dict(config)
    clock = VirtualClock()
    sim = build_sim(config, start_time=clock.now())
    prober = Prober(transport=SimExchange(sim, clock), clock=clock,
                    rng=random.Random(config.seed ^ 0x5EED))
    if rate_qps is not None:
        from .ratelimit import RateLimiter

        prober.limiter = RateLimiter(rate_qps, clock)
    server = "sim"

    domains = sorted({c.domain for c in config.clients} or set(config.zones))
    discovery, discovery_failed = discover_all(
        prober, clock, server, domains, required_confirmations=required_confirmations)
    scannable = [d for d in domains if d in discovery]
    max_ttls = {d: discovery[d].max_ttl for d in scannable}

    scan = run_scan(prober, clock, server, scannable, max_ttls=max_ttls,
                    method=method, window_fraction=window_fraction,
                    probe_interval=probe_interval, duration=duration,
                    writer=writer)

    estimates = rank_domains([estimate(s) for s in scan.stats().values()
                              if s.observed_seconds > 0])
    truth = true_client_rates(config)

    covered = 0
    comparable = 0
    for e in estimates:
        if e.domain not in truth:
            continue
        comparable += 1
        if abs(e.arrival_rate_per_s - truth[e.domain]) <= e.ci_half_width:
            covered += 1
    coverage = covered / comparable if comparable else None

    rank_correlation = None
    paired = [(e.arrival_rate_per_s, truth[e.domain]) for e in estimates
              if e.domain in truth]
    if len(paired) >= 2:
        try:
            rank_correlation = spearman_rho([p[0] for p in paired],
                                            [p[1] for p in paired])
        except ValueError:
            rank_correlation = None

    return BatchResult(scan=scan, estimates=estimates, discovery=discovery,
                       discovery_failed=discovery_failed, true_rates=truth,
                       coverage=coverage, rank_correlation=rank_correlation, sim=sim)
