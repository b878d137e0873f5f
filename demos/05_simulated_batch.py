"""A full day's scan against a resolver with known traffic.

run_batch wires everything together on virtual time: discover each
domain's maximum TTL, snoop them concurrently for the budgeted
duration, estimate arrival rates, and score the estimates against the
scenario's configured ground truth. Six domains spanning 2.5 decades
of popularity, 24 simulated hours, a fraction of a second of wall
time.

Run: python3 demos/05_simulated_batch.py
"""

import time

from snoopdns.scan import run_batch

DAY = 24 * 3600.0

config = {
    "seed": 42,
    "zones": {
        "news.example": {"address": "10.5.0.1", "ttl": 60},
        "shop.example": {"address": "10.5.0.2", "ttl": 300},
        "mail.example": {"address": "10.5.0.3", "ttl": 120},
        "blog.example": {"address": "10.5.0.4", "ttl": 300},
        "docs.example": {"address": "10.5.0.5", "ttl": 600},
        "rare.example": {"address": "10.5.0.6", "ttl": 60},
    },
    "clients": [
        {"domain": "news.example", "process": {"kind": "poisson", "rate": 0.05}},
        {"domain": "shop.example", "process": {"kind": "poisson", "rate": 0.02}},
        {"domain": "mail.example", "process": {"kind": "poisson", "rate": 0.005}},
        {"domain": "blog.example", "process": {"kind": "poisson", "rate": 0.002}},
        {"domain": "docs.example", "process": {"kind": "poisson", "rate": 0.0005}},
        {"domain": "rare.example", "process": {"kind": "poisson", "rate": 0.0001}},
    ],
}

started = time.monotonic()
batch = run_batch(config, duration=DAY)
wall = time.monotonic() - started

print("discovered maximum TTLs (never told to the scanner):")
for domain in sorted(batch.discovery):
    d = batch.discovery[domain]
    print(f"  {domain}: {d.max_ttl} s after {d.confirmations} confirmations")
print()

print(f"{'domain':<14} {'true/s':>9} {'estimated/s':>12} {'+/-':>10} "
      f"{'in interval':>11}")
for e in batch.estimates:
    truth = batch.true_rates[e.domain]
    hit = "yes" if abs(e.arrival_rate_per_s - truth) <= e.ci_half_width else "NO"
    print(f"{e.domain:<14} {truth:>9.4f} {e.arrival_rate_per_s:>12.5f} "
          f"{e.ci_half_width:>10.5f} {hit:>11}")
print()

# Only lookups that find the cache empty leave a trace, so the simulator
# draws only those: a refill cycle lasts one TTL plus an Exp(rate) wait.
fills = {}
for event in batch.sim.log:
    if event.kind == "client_query":
        fills[event.domain] = fills.get(event.domain, 0) + 1
busiest = max(fills, key=fills.get)
lived = batch.sim.time  # the day plus interleaved discovery, under 6 x 600 s
ttl = config["zones"][busiest]["ttl"]
rate = batch.true_rates[busiest]
print(f"client lookups that refilled the cache: {sum(fills.values())} "
      f"over {lived:.0f} virtual s,")
print(f"  {busiest} alone {fills[busiest]} (renewal expectation "
      f"{lived:.0f} s / ({ttl} s + 1/{rate:.3f}/s) = {lived / (ttl + 1 / rate):.0f};"
      f" probes refill it too)")
print()

print(f"interval coverage:  {batch.coverage:.2f} "
      f"(fraction of domains whose interval contains the truth)")
print(f"rank correlation:   {batch.rank_correlation:.3f} "
      f"(estimated vs true popularity order)")
print(f"probes sent:        {len(batch.scan.observations)} observations, "
      f"{len(batch.scan.errors)} anomalies")
print(f"virtual time:       {DAY:.0f} s lived in {wall:.2f} s of wall time")
