"""The three ways to watch a cache, on the same busy domain.

  rd0            non-recursive probes; reads the cache without writing
                 it. Needs the resolver to honor RD=0.
  ttl_recursive  recursive probe each cycle; the answered TTL dates the
                 first refresh since our last probe. Pollutes: our own
                 probe re-primes the cache every cycle.
  timing         response-time side channel; a fast answer means the
                 record was cached. Coarsest information, works even
                 where TTL readings are useless.

All three produce the same observation shape: a watched span, either
censored (no delay: nobody refreshed) or carrying the refresh delay, so one
estimator serves them all.

Run: python3 demos/03_three_methods.py
"""

import random

from snoopdns.clock import VirtualClock
from snoopdns.engine import calibrate_timing
from snoopdns.estimation import estimate
from snoopdns.scan import run_scan
from snoopdns.simnet import SimExchange, build_sim
from snoopdns.transport import Prober

TRUE_RATE = 0.02  # one client lookup every 50 s on average
MAX_TTL = 60


def fresh_prober(salt):
    config = {
        "seed": 9,
        "zones": {"api.example": {"address": "10.3.0.1", "ttl": MAX_TTL},
                  "probe.example": {"address": "10.3.0.2", "ttl": 3600}},
        "clients": [{"domain": "api.example",
                     "process": {"kind": "poisson", "rate": TRUE_RATE}}],
    }
    clock = VirtualClock()
    sim = build_sim(config, start_time=clock.now())
    return Prober(transport=SimExchange(sim, clock), clock=clock,
                  rng=random.Random(salt)), clock


print(f"api.example: true client rate {TRUE_RATE}/s, max TTL {MAX_TTL} s,")
print("observed for 4 virtual hours by each method in turn.\n")

results = {}
for salt, method in enumerate(("rd0", "ttl_recursive", "timing")):
    prober, clock = fresh_prober(salt)
    calibration = None
    if method == "timing":
        calibration = calibrate_timing(prober, "sim", "probe.example")
    result = run_scan(prober, clock, "sim", ["api.example"], method=method,
                      max_ttls={"api.example": MAX_TTL}, duration=4 * 3600.0,
                      calibration=calibration)
    stats = result.stats()["api.example"]
    est = results[method] = estimate(stats)
    events = [o for o in result.observations if o.delay is not None]
    print(f"{method:>14}: {stats.cycles:3d} cycles, {len(events):2d} events, "
          f"{stats.observed_seconds:7.0f} s observed")
    print(f"{'':>14}  estimate {est.arrival_rate_per_s:.5f}/s "
          f"(+/- {est.ci_half_width:.5f}), "
          f"mean refresh period {est.mean_refresh_period_s:.0f} s")
    first = next((i for i in events), None)
    if first is not None:
        print(f"{'':>14}  first event: refresh {first.delay:.1f} s into a "
              f"{first.window_length:.0f} s window")
    print()

print("The numbers differ because the methods measure different things.")
print("ttl_recursive and timing watch a window that STARTS at an expiry")
print("they arranged, so their rate is the post-expiry first-arrival")
print("hazard: for memoryless (Poisson) clients that is the lookup rate")
print("itself. rd0 never empties the cache, so lookups hitting a warm")
print("cache leave no trace; its rate is the cache REFILL rate, which")
print("saturates at 1/(max_ttl + mean wait). The lookup rate is still")
print("recoverable from its refresh period:")
print()
rd0_period = results["rd0"].mean_refresh_period_s
implied = 1.0 / (rd0_period - MAX_TTL)
print(f"  1 / (period - max_ttl) = 1 / ({rd0_period:.0f} - {MAX_TTL}) "
      f"= {implied:.4f}/s   (true {TRUE_RATE}/s)")
print()
print("timing sees merely cached-or-not, never a TTL date, so its events")
print("carry a midpoint guess and the widest intervals.")
