"""Arithmetic the benchmark reports: percentiles and scheduling lateness."""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it, so a p99 needs at least 1,000 samples.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def supports(count: int, q: float) -> bool:
    """Whether a sample of `count` has MIN_TAIL_SAMPLES beyond its q-th percentile."""
    return count * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def summarize(values, quantiles=(50, 99)) -> dict:
    """{"n": count, "p50": ..., "p99": ...}; a percentile the sample cannot
    support is None."""
    out: dict = {"n": len(values)}
    for q in quantiles:
        key = f"p{q:g}"
        out[key] = percentile(values, q) if values and supports(len(values), q) else None
    return out


def lateness_s(observation, max_ttl: float, *, probe_interval: float | None = None,
               window_fraction: float = 1.0) -> float:
    """How late the probe that closed an observation was sent, in seconds.

    rd0: the span between probes minus the planned probe interval (the
    machine's default is half the maximum TTL). ttl_recursive: the
    effective watch window minus the planned one.
    """
    if observation.method == "rd0":
        planned = probe_interval if probe_interval is not None else max_ttl / 2.0
    elif observation.method == "ttl_recursive":
        planned = window_fraction * max_ttl
    else:
        raise ValueError(f"no planned send time for method {observation.method!r}")
    return observation.window_length - planned


def lateness_ms(observations, max_ttls: dict[str, int], **plan) -> list[float]:
    return [1000.0 * lateness_s(o, max_ttls[o.domain], **plan) for o in observations]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
