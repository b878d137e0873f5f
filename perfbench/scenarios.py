"""Seeded scenario generators for the benchmark workloads.

Each generator is a pure function of its seed and returns the plain
scenario dict that snoopdns validates with ``config_from_dict``. The
seed fixes the population: which TTL goes with which client rate, and
the simulator's own seed. Nothing here imports snoopdns.
"""

import random

# ROADMAP scenario A: 200 domains, Poisson rates log-spaced over
# 10^-3.5 .. 10^-1 per second, TTLs cycling through 60, 120 and 300 s.
DAY_DOMAINS = 200
DAY_LOG_RATES = (-3.5, -1.0)
DAY_TTLS = (60, 120, 300)

# ROADMAP scenario C: 20 heavy domains at 1..10 lookups per second.
HEAVY_DOMAINS = 20
HEAVY_LOG_RATES = (0.0, 1.0)

# Real-clock loopback: many domains with a short, known TTL, so a
# seconds-long run closes thousands of rd0 observations. One TTL keeps
# the refill rate rd0 measures monotone in the lookup rate, so the rank
# correlation against lookup truth settles within one run.
LOOPBACK_DOMAINS = 200
LOOPBACK_LOG_RATES = (-1.5, 0.5)
LOOPBACK_TTLS = (2,)
# A resolver on the same host answers from cache in about 2 ms.
LOOPBACK_RTT_MODEL = {"cached_mean": 2.0, "cached_jitter": 0.3,
                      "recursion_extra_mean": 8.0, "recursion_jitter": 1.0}


def log_spaced(count: int, low_exp: float, high_exp: float) -> list[float]:
    """count rates from 10**low_exp to 10**high_exp, evenly in log space."""
    if count == 1:
        return [10.0 ** low_exp]
    step = (high_exp - low_exp) / (count - 1)
    return [10.0 ** (low_exp + i * step) for i in range(count)]


def population(seed: int, count: int, log_rates: tuple[float, float],
               ttls: tuple[int, ...], prefix: str, rtt_model: dict | None = None,
               clock_mode: str = "virtual") -> dict:
    """A Poisson population with TTLs cycled in equal shares, then shuffled
    across rates by the seed; domain i carries the i-th lowest rate."""
    rng = random.Random(seed)
    rates = log_spaced(count, *log_rates)
    assigned = [ttls[i % len(ttls)] for i in range(count)]
    rng.shuffle(assigned)
    zones = {}
    clients = []
    for i, (rate, ttl) in enumerate(zip(rates, assigned)):
        name = f"{prefix}{i:03d}.example"
        zones[name] = {"address": f"10.{i // 250}.{i % 250}.1", "ttl": ttl}
        clients.append({"domain": name, "process": {"kind": "poisson", "rate": rate}})
    scenario = {"seed": rng.randrange(1 << 31), "clock_mode": clock_mode,
                "zones": zones, "clients": clients}
    if rtt_model is not None:
        scenario["rtt_model"] = dict(rtt_model)
    return scenario


def day_scenario(seed: int) -> dict:
    return population(seed, DAY_DOMAINS, DAY_LOG_RATES, DAY_TTLS, "day")


def heavy_scenario(seed: int) -> dict:
    return population(seed, HEAVY_DOMAINS, HEAVY_LOG_RATES, DAY_TTLS, "heavy")


def loopback_scenario(seed: int) -> dict:
    return population(seed, LOOPBACK_DOMAINS, LOOPBACK_LOG_RATES, LOOPBACK_TTLS,
                      "live", rtt_model=LOOPBACK_RTT_MODEL, clock_mode="realtime")


def max_ttls(scenario: dict) -> dict[str, int]:
    """The known maximum TTL per domain, as `snoop --max-ttls` takes them."""
    return {name: zone["ttl"] for name, zone in scenario["zones"].items()}
