"""From raw observations to a popularity ranking, by hand.

Every probing method emits the same record: a watched span that either
ended in a refresh event (with its delay) or ran out censored. This
walkthrough builds a handful of such records with round numbers, then
follows them through aggregation, rate estimation, interval math, and
ranking, printing each formula next to its result.

Run: python3 demos/04_estimation_walkthrough.py
"""

import io
import math

from snoopdns.engine import RefreshObservation
from snoopdns.estimation import (aggregate, estimate, format_ranking_table,
                                 rank_domains, write_ranking_csv)

W = 300.0  # watch window, seconds


def cycle(domain, start, delay=None):
    """One expiry-watch cycle: censored (delay None), or an event at the
    given delay."""
    return RefreshObservation(
        server="resolver.example", domain=domain, method="ttl_recursive",
        window_start=start, window_length=W, probe_rtt_ms=12.0, delay=delay)


observations = [
    # busy.example: five refreshes seen, three quiet windows
    cycle("busy.example", 0.0, delay=30.0),
    cycle("busy.example", 400.0, delay=60.0),
    cycle("busy.example", 800.0, delay=90.0),
    cycle("busy.example", 1200.0),
    cycle("busy.example", 1600.0, delay=120.0),
    cycle("busy.example", 2000.0),
    cycle("busy.example", 2400.0, delay=150.0),
    cycle("busy.example", 2800.0),
    # sleepy.example: one refresh in eight windows
    cycle("sleepy.example", 0.0, delay=240.0),
] + [cycle("sleepy.example", 400.0 * i) for i in range(1, 8)]


print("step 1: aggregate exposure per domain")
print("  an event contributes its DELAY (the cache was empty only that")
print("  long); a censored window contributes its full length.\n")

stats = aggregate(observations)
for domain in ("busy.example", "sleepy.example"):
    s = stats[domain]
    delays = [o.delay for o in observations
              if o.domain == domain and o.delay is not None]
    print(f"  {domain}: events {s.events} (delays sum {sum(delays):.0f} s) "
          f"+ censored {s.censored} x {W:.0f} s")
    print(f"    = {s.observed_seconds:.0f} s observed over {s.cycles} cycles")
print()

print("step 2: the rate and its interval")
busy = stats["busy.example"]
lam = busy.events / busy.observed_seconds
half = 1.96 * math.sqrt(lam / busy.observed_seconds)
print(f"  lambda = events / observed = {busy.events} / "
      f"{busy.observed_seconds:.0f} = {lam:.6f}/s")
print(f"  half-width = z * sqrt(lambda / observed) "
      f"= 1.96 * sqrt({lam:.6f} / {busy.observed_seconds:.0f}) = {half:.6f}")
est_busy = estimate(busy)
assert math.isclose(est_busy.arrival_rate_per_s, lam)
assert math.isclose(est_busy.ci_half_width, half)
print(f"  estimate() agrees: {est_busy.arrival_rate_per_s:.6f} "
      f"+/- {est_busy.ci_half_width:.6f}")
print(f"  mean refresh period = observed / events "
      f"= {est_busy.mean_refresh_period_s:.0f} s\n")

print("step 3: more data narrows the interval")
doubled = aggregate(observations + observations)["busy.example"]
est_doubled = estimate(doubled)
print(f"  one scan:  {est_busy.arrival_rate_per_s:.6f} "
      f"+/- {est_busy.ci_half_width:.6f}")
print(f"  two scans: {est_doubled.arrival_rate_per_s:.6f} "
      f"+/- {est_doubled.ci_half_width:.6f} "
      f"(shrinks by sqrt(2) = {est_busy.ci_half_width / est_doubled.ci_half_width:.3f}x)\n")

print("step 4: rank by rate, best-observed first on ties")
ranked = rank_domains([estimate(s) for s in stats.values()])
print(format_ranking_table(ranked))
print()

print("the same ranking as csv (what report --format csv writes):")
buffer = io.StringIO()
write_ranking_csv(buffer, ranked)
print(buffer.getvalue(), end="")
