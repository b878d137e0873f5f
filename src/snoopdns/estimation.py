"""Arrival-rate estimation over censored refresh observations.

Client lookups that refresh a cached record are modelled as a Poisson
process per domain. Probing yields two kinds of exposure:

  expiry-watch methods (ttl_recursive, timing) observe first arrivals:
  an event at delay d contributes d seconds of empty-cache exposure, a
  censored window contributes its whole length. Events over exposure is
  the maximum-likelihood rate for such data.

  rd0 probing watches the cache passively: every inter-probe span is
  exposure whether or not a refresh landed in it, and deduplicated
  refreshes are the events. Events over total span estimates the
  refresh rate directly.

Both reduce to lambda = t / o for t events over o observed seconds,
with the usual sqrt(lambda / o) standard error.
"""

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .engine import RefreshObservation


class NoObservations(ValueError):
    """Rate requested with zero observed seconds."""


@dataclass
class DomainStats:
    """Accumulated exposure for one domain."""

    domain: str
    events: int = 0
    observed_seconds: float = 0.0
    cycles: int = 0
    censored: int = 0
    malformed: int = 0

    def add(self, observation: RefreshObservation) -> None:
        try:
            observation.validate()
        except ValueError:
            self.malformed += 1
            return
        self.cycles += 1
        if observation.method == "rd0":
            # passive watch: the whole span is exposure either way
            self.observed_seconds += observation.window_length
            if observation.censored:
                self.censored += 1
            else:
                self.events += 1
        else:
            if observation.censored:
                self.observed_seconds += observation.window_length
                self.censored += 1
            else:
                self.observed_seconds += observation.event.delay_after_expiry
                self.events += 1


def aggregate(observations: Iterable[RefreshObservation]) -> dict[str, DomainStats]:
    """Fold an observation stream into per-domain exposure tallies.

    Observations failing validation are skipped and counted in the
    domain's malformed tally; anything that is not an observation
    (per-cycle error annotations, say) is ignored.
    """
    stats: dict[str, DomainStats] = {}
    for observation in observations:
        if not isinstance(observation, RefreshObservation):
            continue
        per = stats.get(observation.domain)
        if per is None:
            per = stats[observation.domain] = DomainStats(domain=observation.domain)
        per.add(observation)
    return stats


@dataclass
class ArrivalEstimate:
    """Poisson rate for one domain with a normal-approximation interval."""

    domain: str
    arrival_rate_per_s: float
    ci_half_width: float
    events: int
    observed_seconds: float
    cycles: int

    @property
    def mean_refresh_period_s(self) -> float:
        if self.events == 0:
            return math.inf
        return self.observed_seconds / self.events


def estimate(stats: DomainStats, z: float = 1.96) -> ArrivalEstimate:
    """Estimate the arrival rate from accumulated exposure.

    lambda = events / observed_seconds; the half-width is
    z * sqrt(lambda / observed_seconds). Zero events give a zero rate
    with a zero interval; zero exposure is an error.
    """
    if stats.observed_seconds <= 0:
        raise NoObservations(f"{stats.domain}: no observed seconds to estimate from")
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    rate = stats.events / stats.observed_seconds
    half_width = z * math.sqrt(rate / stats.observed_seconds)
    return ArrivalEstimate(
        domain=stats.domain, arrival_rate_per_s=rate, ci_half_width=half_width,
        events=stats.events, observed_seconds=stats.observed_seconds,
        cycles=stats.cycles)


def poisson_pmf(k: int, mu: float) -> float:
    """P(N = k) for N ~ Poisson(mu), computed in log space."""
    if k < 0 or k != int(k):
        raise ValueError(f"k must be a non-negative integer, got {k}")
    if mu < 0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    if mu == 0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))


def rank_domains(estimates: Iterable[ArrivalEstimate],
                 top_n: int | None = None) -> list[ArrivalEstimate]:
    """Order domains by popularity: highest rate first.

    Ties break toward the better-observed domain (larger exposure),
    then lexicographically so output is stable across runs.
    """
    ranked = sorted(estimates,
                    key=lambda e: (-e.arrival_rate_per_s, -e.observed_seconds, e.domain))
    if top_n is not None:
        if top_n < 0:
            raise ValueError(f"top_n must be non-negative, got {top_n}")
        ranked = ranked[:top_n]
    return ranked


def _ranks(values: Sequence[float]) -> list[float]:
    # average ranks for ties, 1-based
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman_rho(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson correlation of the ranks."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    rx = _ranks(xs)
    ry = _ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        raise ValueError("constant ranking has no defined correlation")
    return cov / math.sqrt(vx * vy)


RANKING_COLUMNS = ("rank", "domain", "lambda_per_s", "ci_half_width",
                   "mean_refresh_period_s", "events", "observed_seconds", "cycles")


def _row(rank: int, e: ArrivalEstimate) -> dict:
    return {
        "rank": rank,
        "domain": e.domain,
        "lambda_per_s": f"{e.arrival_rate_per_s:.6g}",
        "ci_half_width": f"{e.ci_half_width:.6g}",
        "mean_refresh_period_s": f"{e.mean_refresh_period_s:.6g}",
        "events": e.events,
        "observed_seconds": f"{e.observed_seconds:.6g}",
        "cycles": e.cycles,
    }


def write_ranking_csv(out: TextIO, ranked: Sequence[ArrivalEstimate]) -> None:
    writer = csv.DictWriter(out, fieldnames=RANKING_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rank, e in enumerate(ranked, start=1):
        writer.writerow(_row(rank, e))


def format_ranking_table(ranked: Sequence[ArrivalEstimate]) -> str:
    """Render the ranking as an aligned text table."""
    rows = [[str(r[c]) for c in RANKING_COLUMNS]
            for r in (_row(rank, e) for rank, e in enumerate(ranked, start=1))]
    headers = list(RANKING_COLUMNS)
    widths = [max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
              else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"
