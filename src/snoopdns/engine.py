"""Cache snooping engine: TTL discovery and refresh observation.

Everything here reasons about one invariant of honest caching
resolvers: a record's remaining TTL strictly counts down between
refreshes, client hits never reset it, and only a cache miss (or a
misbehaving server) can make it jump upward. From that, three probing
methods recover when a domain's record was last refreshed:

  rd0            non-recursive probes that never pollute the cache; an
                 answer TTL T places the refresh (max_ttl - T) seconds
                 before the probe.
  ttl_recursive  recursive probes timed just after expiry: leave a
                 watch window W open past the expiry instant E, re-read
                 the TTL T', and either the probe itself refreshed the
                 record (censored window) or some client did, with
                 first-arrival delay d = W - (max_ttl - T').
  timing         response-time classification for servers whose TTL
                 values cannot be trusted; needs calibration.

Maximum-TTL discovery and the probing machines decide and never send:
a machine holds no prober and no clock. Its recursion_desired names the
probe it wants at its wake, and step(now, reply) takes that probe's
ProbeReply, or the ProbeTimeout the prober raised, and returns the next
wake, None at its end. The one scheduler that sends is _run_machines,
at the end of this module: it sleeps to the earliest wake, probes and
steps, so one thread interleaves many domains on either a virtual or the
real clock. scan runs every scan and discovery on it, and
discover_max_ttl drives a single machine on it. A step's items carry
every result: a fault as a CycleError, a completed cycle as a
RefreshObservation (the watched window and the first refresh's delay
into it, None when censored), discovery's MaxTtlEstimate.

Each check of that invariant has one home: _checkpoint_fits,
_check_countdown, _window, TtlRecursiveMachine._window_read, and the
_answered (whether a reply is a read), _adopt_max, _observe and _next
(the stall rule) methods that every probing machine inherits.

The operational constants are module constants, not parameters, each
defined with its reason: POST_EXPIRY_EPSILON, SNAP_GRID,
SNAP_TOLERANCE, DEDUP_EPSILON, CHECKPOINT_MARGIN, CHECKPOINT_EVERY,
DISCOVERY_ROUND_FACTOR, TIMEOUT_BACKOFF, NOANSWER_BACKOFF, FAILURE_LIMIT,
STALL_LIMIT, CALIBRATION_SAMPLES, QUALITY_FLOOR and GUARD_FRACTION.
"""

import heapq
import statistics
from dataclasses import dataclass, field
from typing import Callable

from . import wire
from .clock import Clock
from .transport import ProbeReply, Prober, ProbeTimeout


class SnoopError(Exception):
    """Base for engine-level failures."""


class InsufficientSeparation(SnoopError):
    """Cached and uncached response times overlap too much to classify."""

    def __init__(self, message: str, calibration: "TimingCalibration | None" = None):
        super().__init__(message)
        self.calibration = calibration


# wait this long past a computed expiry before re-querying, absorbing
# 1 s TTL granularity
POST_EXPIRY_EPSILON = 1.0
# candidate maxima sitting within SNAP_TOLERANCE below a multiple of
# these values (checked in order) are snapped up: real-world maxima are
# overwhelmingly multiples of 60, else 15 or 20
SNAP_GRID = (60, 15, 20)
SNAP_TOLERANCE = 2.0  # also a checkpoint read's slack against the countdown
# rd0 refresh instants within this of the last one are the same
# refresh, not a new event
DEDUP_EPSILON = 2.0
# discovery and periodic snooping checks probe this many seconds before
# expiry to catch TTLs that move upward early
CHECKPOINT_MARGIN = 2.0
CHECKPOINT_EVERY = 16  # snoop cycles per such check; cycle 0 always checks
DISCOVERY_ROUND_FACTOR = 8  # discovery rounds allowed per required confirmation
# seconds to the next ttl_recursive or timing probe after a timeout, and
# to the next timing probe after a truncated reply
TIMEOUT_BACKOFF = 5.0
# seconds to the next probe after a ttl_recursive or discovery read with
# no usable answer, so one transient upstream failure does not drop a name
NOANSWER_BACKOFF = 30.0
# this many in a row end a domain: timeouts, unusable answers (in discovery
# too), stuck TTLs, timing's abstains, and rd0's full-TTL answers or early
# refreshes
FAILURE_LIMIT = 3
# probes since a machine's last completed cycle that end its domain as
# stalled, so no failure run a reply breaks can probe forever; honest scans
# go at most a few probes between cycles
STALL_LIMIT = 20
CALIBRATION_SAMPLES = 40  # timing calibration samples per class, cached and miss
QUALITY_FLOOR = 0.95  # share of them the threshold must put on the right side
GUARD_FRACTION = 0.25  # classify_timing's abstain band, a share of the median gap

METHODS = ("rd0", "ttl_recursive", "timing")


def ttl_grace(max_ttl: float) -> float:
    """Slack for treating a post-window read as the probe's own refresh.

    Covers integer TTL granularity plus probe RTT skew: 2 seconds, or
    1% of the maximum for very large TTLs.
    """
    return max(2.0, 0.01 * max_ttl)


def snap_to_grid(reading: int) -> tuple[int, bool]:
    """Snap a candidate maximum TTL up to the nearest round multiple.

    Returns (value, snapped). A reading already on SNAP_GRID is returned
    unchanged with snapped=False; one within SNAP_TOLERANCE below a
    multiple snaps up with snapped=True; anything else passes through.
    """
    for g in SNAP_GRID:
        above = ((reading + g - 1) // g) * g
        gap = above - reading
        if gap == 0:
            return reading, False
        if 0 < gap <= SNAP_TOLERANCE:
            return above, True
    return reading, False


@dataclass
class MaxTtlEstimate:
    """A confirmed maximum TTL for (server, domain)."""

    server: str
    domain: str
    max_ttl: int
    confirmations: int
    snapped_to_grid: bool
    candidates_seen: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class RefreshObservation:
    """One probing cycle's outcome for a domain.

    delay is the first refresh's delay after window_start, or None when
    the window is censored: nothing refreshed the record during the
    watched span before the probe did. window_start is the expiry
    instant being watched (for rd0, the previous probe time).
    """

    server: str
    domain: str
    method: str
    window_start: float
    window_length: float
    probe_rtt_ms: float
    delay: float | None

    @property
    def censored(self) -> bool:
        return self.delay is None

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not self.window_length > 0:
            raise ValueError(f"window_length must be positive: {self.window_length}")
        if self.delay is not None and not 0 <= self.delay <= self.window_length + 1e-9:
            raise ValueError(f"event delay {self.delay} outside window {self.window_length}")


@dataclass(slots=True)
class CycleError:
    """A fault or anomaly a machine reports as a step item. method is the
    probing method, or "discovery" for the failure ending a DiscoveryMachine."""

    server: str
    domain: str
    method: str
    at: float
    kind: str
    message: str


@dataclass
class TimingCalibration:
    """Response-time model separating cache hits from misses."""

    server: str
    domain: str
    cached_rtts: list[float]
    miss_rtts: list[float]
    cached_median: float
    miss_median: float
    threshold_ms: float
    separation_quality: float


# server behaviors that invalidate the method for a domain: everything
# observed there measures the server or ourselves, not its clients
INVALIDATING_KINDS = frozenset({"server_prefetches", "rd_not_honored"})


def _check_countdown(last_ttl: int, last_at: float, ttl: int,
                     at: float) -> tuple[str, str] | None:
    """Judge a pre-expiry checkpoint read against the countdown.

    last_ttl was read at last_at; an honest cache answers at `at` with
    about last_ttl - (at - last_at). Returns None when the read fits
    the countdown within SNAP_TOLERANCE, else (kind, message):
    "checkpoint_late" when the read was sent less than a second before
    the expiry it guards, or after it, so the record may have been
    re-fetched; "non_monotonic_ttl" when the TTL has not moved across
    at least 2 s; "server_prefetches" when it jumped upward ahead of
    expiry.
    """
    elapsed = at - last_at
    expected = last_ttl - elapsed
    if ttl <= expected + SNAP_TOLERANCE:
        return None
    if expected < 1.0:
        return ("checkpoint_late",
                f"checkpoint sent {elapsed:.1f}s after a read of TTL {last_ttl}")
    if abs(ttl - last_ttl) <= 1 and elapsed >= 2.0:
        return "non_monotonic_ttl", f"TTL stuck at {ttl} across {elapsed:.0f}s"
    return ("server_prefetches",
            f"TTL jumped to {ttl} with ~{max(expected, 0):.0f}s left before expiry")


def _checkpoint_fits(ttl: int) -> bool:
    """Whether a record read with ttl seconds left has room for a
    checkpoint probe before the read just past its expiry."""
    return ttl > CHECKPOINT_MARGIN + POST_EXPIRY_EPSILON + 1.0


class DiscoveryMachine:
    """Maximum-TTL discovery of one domain by expiry roll-over.

    Reads the current TTL, then each round probes just past its expiry;
    the expired record is re-fetched, so the new answer shows the full
    maximum. Candidates are grid-snapped and the same value must be
    seen required_confirmations times within
    required_confirmations * DISCOVERY_ROUND_FACTOR rounds. A
    checkpoint probe shortly before each expiry guards the countdown
    (see _check_countdown). A read with no usable answer backs off
    NOANSWER_BACKOFF and starts over from a first read, keeping the
    counts; the FAILURE_LIMIT-th with no counted round between them
    fails the domain, while a timeout fails it at once. Only the final
    step, with its None wake, returns an item: the MaxTtlEstimate, or a
    CycleError of method "discovery" and kind unresolvable, timeout,
    server_prefetches, non_monotonic_ttl or discovery_budget_exceeded.
    A timeout is stamped when the retries gave up.
    """

    recursion_desired = True

    def __init__(self, server: str, domain: str, required_confirmations: int = 5):
        if required_confirmations < 1:
            raise ValueError("required_confirmations must be at least 1")
        self.server = server
        self.domain = domain
        self.required = required_confirmations
        self._mode = "first"
        self._last_ttl = 0
        self._last_at = 0.0
        self._counts: dict[int, int] = {}
        self._snapped: dict[int, bool] = {}
        self._failures = 0

    def _fail(self, at: float, kind: str, message: str) -> tuple[None, list]:
        return None, [CycleError(self.server, self.domain, "discovery", at, kind, message)]

    def step(self, now: float, reply: ProbeReply | ProbeTimeout) -> tuple[float | None, list]:
        if isinstance(reply, ProbeTimeout):
            return self._fail(reply.at, "timeout", str(reply))
        at = reply.sent_at
        ttl = wire.min_answer_ttl(reply.response, self.domain)
        if ttl is None:
            self._failures += 1
            if self._failures >= FAILURE_LIMIT:
                return self._fail(at, "unresolvable",
                                  f"no usable answer (rcode {reply.response.rcode})")
            # as a scan does: back off, then start over from a first read
            self._mode = "first"
            return at + NOANSWER_BACKOFF, []

        if self._mode == "checkpoint":
            verdict = _check_countdown(self._last_ttl, self._last_at, ttl, at)
            if verdict is None:
                self._mode = "rollover"
                return at + ttl + POST_EXPIRY_EPSILON, []
            kind, message = verdict
            if kind != "checkpoint_late":
                return self._fail(at, kind, message)
            # a busy scheduler sent the checkpoint once the record had
            # expired: it re-fetched the record, so it is the roll-over read
            self._mode = "rollover"

        if self._mode == "rollover":
            # only a counted round resets the run of unusable reads, so a
            # name that flaps between them cannot restart forever
            self._failures = 0
            value, snapped = snap_to_grid(ttl)
            self._counts[value] = self._counts.get(value, 0) + 1
            self._snapped[value] = self._snapped.get(value, False) or snapped
            if self._counts[value] >= self.required:
                return None, [MaxTtlEstimate(
                    server=self.server, domain=self.domain, max_ttl=value,
                    confirmations=self._counts[value], snapped_to_grid=self._snapped[value],
                    candidates_seen=dict(self._counts))]

        max_rounds = self.required * DISCOVERY_ROUND_FACTOR
        if sum(self._counts.values()) >= max_rounds:
            return self._fail(at, "discovery_budget_exceeded",
                              f"no TTL confirmed {self.required} times "
                              f"within {max_rounds} rounds; candidates seen: {self._counts}")
        # next round: a checkpoint shortly before expiry unless the TTL is
        # too short for one, then the roll-over read just past it
        self._last_ttl, self._last_at = ttl, at
        if _checkpoint_fits(ttl):
            self._mode = "checkpoint"
            return at + ttl - CHECKPOINT_MARGIN, []
        self._mode = "rollover"
        return at + ttl + POST_EXPIRY_EPSILON, []


def discover_max_ttl(prober: Prober, clock: Clock, server: str, domain: str,
                     required_confirmations: int = 5) -> MaxTtlEstimate:
    """Find one domain's maximum TTL on a server, sleeping between probes.

    Drives a single DiscoveryMachine to its end and returns its final
    item, the MaxTtlEstimate, or raises its failure as SnoopError("kind:
    message"). scan.discover_all runs many domains at once.
    """
    machine = DiscoveryMachine(server, domain, required_confirmations=required_confirmations)
    items: list = []
    _run_machines(prober, [machine], clock.now(), items.extend)
    [result] = items
    if type(result) is CycleError:
        raise SnoopError(f"{result.kind}: {result.message}")
    return result


def calibrate_timing(prober: Prober, server: str,
                     calibration_domain: str) -> TimingCalibration:
    """Measure cached-vs-miss response times and fit a threshold.

    CALIBRATION_SAMPLES cached samples repeat-query one name inside its
    TTL; as many miss samples query unique subdomains under the
    calibration domain, each of which forces recursion. The threshold is
    the midpoint of the two medians; separation_quality is the fraction
    of samples falling on the correct side. Below QUALITY_FLOOR the
    server's jitter swamps the recursion cost and InsufficientSeparation
    is raised.
    """
    zone = wire.validate_name(calibration_domain)
    prober.probe(server, zone, recursion_desired=True)  # prime the cache
    cached = [prober.probe(server, zone, recursion_desired=True).rtt_ms
              for _ in range(CALIBRATION_SAMPLES)]
    nonce = prober.rng.randrange(1 << 24)
    miss = [prober.probe(server, f"cal-{nonce:x}-{i}.{zone}", recursion_desired=True).rtt_ms
            for i in range(CALIBRATION_SAMPLES)]
    cached_median = statistics.median(cached)
    miss_median = statistics.median(miss)
    threshold = (cached_median + miss_median) / 2.0
    correct = (sum(1 for r in cached if r < threshold)
               + sum(1 for r in miss if r > threshold))
    quality = correct / (2 * CALIBRATION_SAMPLES)
    calibration = TimingCalibration(
        server=server, domain=zone, cached_rtts=cached, miss_rtts=miss,
        cached_median=cached_median, miss_median=miss_median,
        threshold_ms=threshold, separation_quality=quality)
    if quality < QUALITY_FLOOR:
        raise InsufficientSeparation(
            f"{server}: cached/miss RTTs overlap, separation quality "
            f"{quality:.3f} below {QUALITY_FLOOR}", calibration=calibration)
    return calibration


def classify_timing(rtt_ms: float, calibration: TimingCalibration) -> str:
    """Classify one response time as cached, miss, or abstain.

    A guard band of GUARD_FRACTION times the median gap sits around the
    threshold; RTTs inside it are too ambiguous to call.
    """
    gap = abs(calibration.miss_median - calibration.cached_median)
    band = GUARD_FRACTION * gap
    if rtt_ms < calibration.threshold_ms - band:
        return "cached"
    if rtt_ms > calibration.threshold_ms + band:
        return "miss"
    return "abstain"


def _window(window: float, max_ttl: int) -> float:
    """The watch window past expiry, checked to lie within (0, max_ttl]."""
    if not 0 < window <= max_ttl:
        raise ValueError(f"window must be in (0, max_ttl], got {window} for {max_ttl}")
    return window


class _ProbingMachine:
    """What the three probing machines share: the domain they probe, the
    completed-cycle count that max_cycles budgets read, and the runs of
    timeouts and of probes since the last cycle. _answered is the one
    place a probe is counted and a reply judged a read of the cache,
    _adopt_max the one place a stale maximum (and its ttl_grace, _grace)
    is replaced, _observe the one place a completed cycle is recorded,
    and _next the one place those runs end the domain. step(now, reply)
    returns (next wake, items); a None wake ends the domain, from _next
    or the machine's own end rules."""

    method: str
    recursion_desired = True

    def __init__(self, server: str, domain: str, max_ttl: int):
        self.server = server
        self.domain = domain
        self.max_ttl = max_ttl
        self._grace = ttl_grace(max_ttl)
        self.cycles_completed = 0
        self._timeouts = 0
        self._unobserved = 0

    def _error(self, at: float, kind: str, message: str) -> CycleError:
        return CycleError(self.server, self.domain, self.method, at, kind, message)

    def _observe(self, items: list, start: float, length: float, rtt_ms: float,
                 delay: float | None = None) -> None:
        """Record one completed cycle over [start, start + length]:
        censored when delay is None, else an event delay seconds in."""
        items.append(RefreshObservation(self.server, self.domain, self.method, start,
                                        length, rtt_ms, delay))
        self.cycles_completed += 1
        self._unobserved = 0

    def _adopt_max(self, items: list, at: float, ttl: int) -> bool:
        """Annotate a read above the believed maximum by more than its grace
        (an honest cache never answers above the TTL it was given) and
        adopt its grid-snapped value as the maximum. Returns whether it did."""
        if ttl <= self.max_ttl + self._grace:
            return False
        items.append(self._error(at, "ttl_exceeds_max",
                                 f"read {ttl} above believed max {self.max_ttl}"))
        self.max_ttl = snap_to_grid(ttl)[0]
        self._grace = ttl_grace(self.max_ttl)
        return True

    def _answered(self, items: list, reply: ProbeReply | ProbeTimeout,
                  stamp: float | None = None) -> ProbeReply | None:
        """Count the probe; return its reply if it reads the cache, else
        None after annotating what it is: a timeout, stamped at `stamp` or,
        when that is None, once the retries gave up; or a truncated (TC=1)
        reply, such as a rate limiter's empty "slip", stamped at its send.
        """
        self._unobserved += 1
        if isinstance(reply, ProbeTimeout):
            self._timeouts += 1
            items.append(self._error(reply.at if stamp is None else stamp, "timeout",
                                     str(reply)))
            return None
        self._timeouts = 0
        if reply.response.truncated:
            items.append(self._error(reply.sent_at, "truncated",
                                     "truncated response; cycle discarded"))
            return None
        return reply

    def _next(self, items: list, now: float, wake: float | None) -> tuple[float | None, list]:
        """The step's (wake, items), None after FAILURE_LIMIT timeouts in a
        row or, as stalled, STALL_LIMIT probes since the last cycle."""
        if wake is None or self._timeouts >= FAILURE_LIMIT:
            return None, items
        if self._unobserved < STALL_LIMIT:
            return wake, items
        items.append(self._error(now, "stalled",
                                 f"no completed cycle in {STALL_LIMIT} probes"))
        return None, items


class TtlRecursiveMachine(_ProbingMachine):
    """Expiry-timed recursive probing of one domain.

    Each cycle watches the window [E, E + W] where E is the last known
    expiry instant: the post-window probe reads T' and classifies the
    cycle (see _window_read). That same answer's TTL fixes the
    next expiry, so steady-state cycles cost one query. Cycle 0 and
    every CHECKPOINT_EVERY-th cycle insert a pre-expiry checkpoint probe
    that detects servers refreshing ahead of expiry. After two
    checkpoint_late verdicts in a row the next window is watched without
    one, so a lagging queue cannot re-arm cycle 0's checkpoint forever.
    Only a window read resets the run of unusable answers, so a name
    whose checkpoints keep coming back empty still ends.
    """

    method = "ttl_recursive"

    def __init__(self, server: str, domain: str, max_ttl: int, window: float):
        window = _window(window, max_ttl)
        super().__init__(server, domain, max_ttl)
        self.window = window
        self._mode = "init"
        self._expiry = 0.0
        self._last_read = 0.0
        self._failures = 0
        self._static_runs = 0
        self._late_checkpoints = 0

    def _arm(self, sent_at: float, ttl: int) -> float:
        """Fix the next expiry from this read and pick the next probe."""
        self._expiry = sent_at + ttl
        self._last_read = ttl
        if (self.cycles_completed % CHECKPOINT_EVERY == 0 and self._late_checkpoints < 2
                and _checkpoint_fits(ttl)):
            self._mode = "checkpoint"
            return self._expiry - CHECKPOINT_MARGIN
        self._mode = "window"
        return self._expiry + self.window

    def _backoff(self, now: float) -> float | None:
        """The wake after a failed read, or None at a failure run's end."""
        if max(self._failures, self._static_runs) >= FAILURE_LIMIT:
            return None
        return now + (TIMEOUT_BACKOFF if self._timeouts else NOANSWER_BACKOFF)

    def step(self, now: float, reply: ProbeReply | ProbeTimeout) -> tuple[float | None, list]:
        items: list = []
        reply = self._answered(items, reply)
        ttl = None if reply is None else wire.min_answer_ttl(reply.response, self.domain)
        if reply is not None and ttl is None:
            self._failures += 1
            items.append(self._error(reply.sent_at, "unresolvable",
                                     f"no usable answer (rcode {reply.response.rcode})"))
        if ttl is None:
            # no usable read: the next one starts over
            self._mode = "init"
            return self._next(items, now, self._backoff(now))

        if self._mode == "init":
            self._adopt_max(items, reply.sent_at, ttl)
            return self._next(items, now, self._arm(reply.sent_at, ttl))

        if self._mode == "checkpoint":
            verdict = _check_countdown(self._last_read, self._expiry - self._last_read,
                                      ttl, reply.sent_at)
            if verdict is None:
                self._static_runs = 0
                self._late_checkpoints = 0
                self._mode = "window"
                return self._next(items, now, self._expiry + self.window)
            kind, message = verdict
            items.append(self._error(reply.sent_at, kind, message))
            if kind == "checkpoint_late":
                # the record may have been re-fetched since expiry, so
                # no window can be watched: start over from this read
                self._late_checkpoints += 1
                return self._next(items, now, self._arm(reply.sent_at, ttl))
            if kind == "server_prefetches":
                return None, items
            self._mode = "init"
            self._static_runs += 1
            return self._next(items, now, self._backoff(now))

        # window probe: classifies the cycle and doubles as the next pre-probe
        self._late_checkpoints = 0
        self._failures = 0
        window_eff = reply.sent_at - self._expiry
        if window_eff > self.max_ttl + self._grace:
            # Scheduling slipped past a full cache lifetime; the read no
            # longer pins the refresh. Discard and re-baseline.
            items.append(self._error(reply.sent_at, "window_overrun",
                                     f"probe ran {window_eff:.1f}s after expiry"))
        elif not self._adopt_max(items, reply.sent_at, ttl):
            self._window_read(items, reply, ttl, window_eff)
        return self._next(items, now, self._arm(reply.sent_at, ttl))

    def _window_read(self, items: list, reply: ProbeReply, t_prime: int, window: float) -> None:
        """Record the cycle a read of T' a window past expiry classifies:
        censored when T' is within grace of the maximum (the probe itself
        refreshed the record), else an event d = window - (max_ttl - T') in,
        clamped to [0, window], or inconsistent_ttl when d < -grace."""
        delay = window - (self.max_ttl - t_prime)
        if t_prime >= self.max_ttl - self._grace:
            self._observe(items, self._expiry, window, reply.rtt_ms)
        elif delay < -self._grace:
            items.append(self._error(reply.sent_at, "inconsistent_ttl",
                                     f"read {t_prime} implies a refresh "
                                     f"{-delay:.1f}s before expiry"))
        else:
            self._observe(items, self._expiry, window, reply.rtt_ms,
                          min(max(delay, 0.0), window))


class Rd0Machine(_ProbingMachine):
    """Non-polluting probing with RD=0 at a fixed interval.

    An answer TTL T places the last refresh at (probe time - (max_ttl -
    T)); consecutive probes implying the same instant are one event. An
    empty answer means nothing is cached. Every read contributes its
    span since the last read as observed time, so event counts over total
    span estimate the cache refresh rate: how often the record re-enters the
    cache. For clients that mostly find the cache cold (lookup spacing
    above max_ttl) that equals their lookup rate; for busier domains it
    saturates at 1/(max_ttl + mean wait), since lookups that hit a warm
    cache leave no trace. The mean refresh period minus max_ttl still
    recovers the mean post-expiry wait.

    Two server behaviors invalidate the data and end the domain. A
    server ignoring RD=0 betrays itself because our own probes become
    the refreshers: the answer carries the full TTL, a refresh dated to
    under a second before our send, where an honest client lands only
    by luck; FAILURE_LIMIT in a row (empty answers and dated client
    refreshes reset the run, repeat readings of one refresh are neutral)
    end it with rd_not_honored. And refreshes repeatedly dated clearly
    BEFORE the previous refresh's expiry mean the server refills early
    on its own (or the believed maximum is stale-high): FAILURE_LIMIT in
    a row end it with server_prefetches.
    """

    method = "rd0"
    recursion_desired = False

    def __init__(self, server: str, domain: str, max_ttl: int,
                 probe_interval: float | None = None):
        if probe_interval is None:
            probe_interval = max_ttl / 2.0
        if not 0 < probe_interval <= max_ttl:
            raise ValueError(
                f"probe_interval must be in (0, max_ttl] so no refresh is missed, "
                f"got {probe_interval} for {max_ttl}")
        super().__init__(server, domain, max_ttl)
        self.interval = probe_interval
        self._last_probe: float | None = None
        self._last_refresh: float | None = None
        self._fetch_signatures = 0
        self._early_refreshes = 0

    def step(self, now: float, reply: ProbeReply | ProbeTimeout) -> tuple[float | None, list]:
        items: list = []
        reply = self._answered(items, reply, stamp=now)
        if reply is None:
            return self._next(items, now, now + self.interval)
        sent = reply.sent_at
        ttl = wire.min_answer_ttl(reply.response, self.domain)
        span = None if self._last_probe is None else sent - self._last_probe
        delay = None  # stays None when the span is censored

        if ttl is not None and self._adopt_max(items, sent, ttl):
            # the old refresh inference no longer means anything, so
            # neither does the span it would date
            span = None
            self._last_refresh = None
            self._fetch_signatures = 0
            self._early_refreshes = 0
        elif ttl is None:
            # nothing cached: definitive proof RD=0 is being honored,
            # and proof the record is allowed to expire
            self._fetch_signatures = 0
            self._early_refreshes = 0
        else:
            refresh_time = min(sent - (self.max_ttl - ttl), sent)
            duplicate = (self._last_refresh is not None
                         and abs(refresh_time - self._last_refresh) <= DEDUP_EPSILON)
            if not duplicate:
                if ttl >= self.max_ttl:
                    # full TTL: fetched at this very probe, either by an
                    # unlucky client or by the probe itself
                    self._fetch_signatures += 1
                else:
                    self._fetch_signatures = 0
                gap = (None if self._last_refresh is None
                       else refresh_time - (self._last_refresh + self.max_ttl))
                if gap is not None and gap < -self._grace:
                    # dated clearly before the previous copy could expire
                    self._early_refreshes += 1
                else:
                    self._early_refreshes = 0
                if self._fetch_signatures >= FAILURE_LIMIT:
                    items.append(self._error(
                        sent, "rd_not_honored",
                        "repeated full-TTL answers: the server fetches on "
                        "our RD=0 probes"))
                    return None, items
                if self._early_refreshes >= FAILURE_LIMIT:
                    items.append(self._error(
                        sent, "server_prefetches",
                        "refreshes keep landing before the previous expiry: "
                        "the server refills on its own, or the believed "
                        "max is stale-high"))
                    return None, items
                if span is not None:
                    delay = min(max(refresh_time - self._last_probe, 0.0), span)
                self._last_refresh = refresh_time

        # a negative span is possible on the system clock
        if span is not None and span > 0:
            self._observe(items, self._last_probe, span, reply.rtt_ms, delay)
        self._last_probe = sent
        return self._next(items, now, sent + self.interval)


class TimingMachine(_ProbingMachine):
    """Expiry-window probing driven by response-time classification.

    For servers whose TTL answers cannot be trusted, each cycle probes
    once past a conservative expiry bound: a miss-classed RTT means
    nothing had refreshed the record (censored window, and our probe
    refreshed it); a cached-classed RTT means some client did, at an
    unknown instant imputed to the window midpoint. Abstentions discard
    the cycle, and FAILURE_LIMIT of them in a row end the domain.
    """

    method = "timing"

    def __init__(self, server: str, domain: str, max_ttl: int, window: float,
                 calibration: TimingCalibration):
        window = _window(window, max_ttl)
        super().__init__(server, domain, max_ttl)
        self.window = window
        self.calibration = calibration
        self._expiry_bound: float | None = None
        self._abstains = 0

    def step(self, now: float, reply: ProbeReply | ProbeTimeout) -> tuple[float | None, list]:
        items: list = []
        reply = self._answered(items, reply, stamp=now)
        if reply is None:
            self._expiry_bound = None
            return self._next(items, now, now + TIMEOUT_BACKOFF)
        sent = reply.sent_at

        if self._expiry_bound is None:
            # Whatever was cached expires at most max_ttl from now.
            self._expiry_bound = sent + self.max_ttl
            return self._next(items, now, self._expiry_bound + self.window)

        window_eff = sent - self._expiry_bound
        verdict = classify_timing(reply.rtt_ms, self.calibration)
        if verdict == "abstain":
            items.append(self._error(sent, "abstain",
                                     f"rtt {reply.rtt_ms:.2f}ms inside the guard band"))
            self._abstains += 1
            if self._abstains >= FAILURE_LIMIT:
                return None, items
        else:
            self._abstains = 0
            self._observe(items, self._expiry_bound, window_eff, reply.rtt_ms,
                          None if verdict == "miss" else window_eff / 2.0)
        self._expiry_bound = sent + self.max_ttl
        return self._next(items, now, self._expiry_bound + self.window)


def build_machine(method: str, server: str, domain: str, *,
                  max_ttl: int, window: float,
                  probe_interval: float | None = None,
                  calibration: TimingCalibration | None = None):
    if method == "ttl_recursive":
        return TtlRecursiveMachine(server, domain, max_ttl, window)
    if method == "rd0":
        return Rd0Machine(server, domain, max_ttl, probe_interval=probe_interval)
    if method == "timing":
        if calibration is None:
            raise ValueError("timing method requires a calibration")
        return TimingMachine(server, domain, max_ttl, window, calibration)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _run_machines(prober: Prober, machines: list, start: float,
                  emit: Callable[[list], None], *,
                  deadline: float | None = None,
                  max_cycles: int | None = None) -> None:
    """At each machine's wake, send its probe and step it with the reply
    or the ProbeTimeout, in wake-time order on the prober's clock, until
    every machine has ended or is retired.

    Every machine first wakes at start; ties go to the machine queued
    first. emit receives every non-empty item list a step returns. A
    None wake ends a machine: it is never stepped again. One whose next
    wake lands past the deadline, or that has completed max_cycles
    cycles, is retired.
    """
    heap = [(start, seq, machine) for seq, machine in enumerate(machines)]
    seq = len(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    sleep_until, clock_now = prober.clock.sleep_until, prober.clock.now
    probe = prober.probe
    deadline = float("inf") if deadline is None else deadline
    while heap:
        wake, _, machine = heappop(heap)
        if wake > deadline:
            continue
        if max_cycles is not None and machine.cycles_completed >= max_cycles:
            continue
        sleep_until(wake)
        now = clock_now()
        try:
            reply = probe(machine.server, machine.domain, machine.recursion_desired)
        except ProbeTimeout as exc:
            reply = exc
        next_wake, items = machine.step(now, reply)
        if items:
            emit(items)
        if next_wake is not None:
            heappush(heap, (next_wake, seq, machine))
            seq += 1
