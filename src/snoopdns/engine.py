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

Maximum-TTL discovery and the probing machines are stepped by a
scheduler rather than sleeping internally, so one thread can interleave
many domains on either a virtual or the real clock. That scheduler is
_run_machines, at the end of this module: scan runs every scan and
discovery on it, and discover_max_ttl drives a single machine on it.

Each check of that invariant has one home: _exceeds_max,
_checkpoint_fits, _check_countdown, _window, and the _adopt_max and
_observe methods that every probing machine inherits.

The operational constants are module constants, not parameters, each
defined with its reason: POST_EXPIRY_EPSILON, SNAP_GRID,
SNAP_TOLERANCE, DEDUP_EPSILON, CHECKPOINT_MARGIN, CHECKPOINT_EVERY,
DISCOVERY_ROUND_FACTOR, TIMEOUT_BACKOFF, NOANSWER_BACKOFF,
FAILURE_LIMIT, CALIBRATION_SAMPLES, QUALITY_FLOOR and GUARD_FRACTION.
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


class ServerPrefetches(SnoopError):
    """Observed TTL reset upward before reaching zero: the server
    refreshes records on its own ahead of expiry, so expiry-timed
    methods cannot observe client traffic on it."""


class NonMonotonicTtl(SnoopError):
    """TTL failed to count down between closely spaced reads."""


class TtlExceedsMax(SnoopError):
    """A read came back above the believed maximum TTL; the stored
    maximum is stale and should be rediscovered."""


class InsufficientSeparation(SnoopError):
    """Cached and uncached response times overlap too much to classify."""

    def __init__(self, message: str, calibration: "TimingCalibration | None" = None):
        super().__init__(message)
        self.calibration = calibration


class InconsistentTtl(SnoopError):
    """A read implies a refresh before the record could have expired."""


class UnresolvableDomain(SnoopError):
    """The server returned no usable answer for the domain."""


class DiscoveryBudgetExceeded(SnoopError):
    """No candidate TTL reached the confirmation count within the round cap."""


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
TIMEOUT_BACKOFF = 5.0  # ttl_recursive/timing: seconds to the next probe after a timeout
NOANSWER_BACKOFF = 30.0  # ... and after a ttl_recursive read with no usable answer
FAILURE_LIMIT = 3  # timeouts, unusable answers or stuck TTLs in a row end a domain
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


def _exceeds_max(ttl: float, max_ttl: float) -> bool:
    """Whether a read lies above the believed maximum by more than the
    grace: an honest cache never answers above the TTL it was given,
    so the believed maximum is stale."""
    return ttl > max_ttl + ttl_grace(max_ttl)


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
class RefreshEvent:
    delay_after_expiry: float
    inferred_refresh_time: float


@dataclass(slots=True)
class RefreshObservation:
    """One probing cycle's outcome for a domain.

    Exactly one of two shapes: censored (nothing refreshed the record
    during the watched span before the probe did) or an event carrying
    the first-refresh delay after expiry. window_start is the expiry
    instant being watched (for rd0, the previous probe time).
    """

    server: str
    domain: str
    method: str
    window_start: float
    window_length: float
    probe_rtt_ms: float
    censored: bool
    event: RefreshEvent | None = None

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not self.window_length > 0:
            raise ValueError(f"window_length must be positive: {self.window_length}")
        if self.censored == (self.event is not None):
            raise ValueError("observation must be censored or carry an event, not both")
        if self.event is not None:
            d = self.event.delay_after_expiry
            if not 0 <= d <= self.window_length + 1e-9:
                raise ValueError(f"event delay {d} outside window {self.window_length}")
            rt = self.event.inferred_refresh_time
            if not (self.window_start - 1e-9 <= rt
                    <= self.window_start + self.window_length + 1e-9):
                raise ValueError("inferred refresh time outside the window")


@dataclass(slots=True)
class CycleError:
    """A per-cycle anomaly annotated into the observation stream."""

    server: str
    domain: str
    method: str
    at: float
    kind: str
    message: str


@dataclass
class RdBehavior:
    server: str
    honors_rd0: bool
    evidence: list[dict] = field(default_factory=list)


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


# the countdown verdicts that end a discovery
_ERROR_TYPES = {
    "non_monotonic_ttl": NonMonotonicTtl,
    "server_prefetches": ServerPrefetches,
}

# server behaviors that invalidate the method for a domain: everything
# observed there measures the server or ourselves, not its clients
INVALIDATING_KINDS = frozenset({"server_prefetches", "rd_not_honored"})


def classify_window_read(t_prime: float, max_ttl: float, window: float) -> float | None:
    """Interpret the TTL read by a post-window probe.

    Returns None when the probe itself refreshed the record (censored:
    T' within grace of the maximum), or the first-refresh delay after
    expiry, d = window - (max_ttl - T'), clamped at zero within grace.
    Raises TtlExceedsMax for reads above the believed maximum and
    InconsistentTtl for reads implying a refresh before expiry.
    """
    if _exceeds_max(t_prime, max_ttl):
        raise TtlExceedsMax(f"read {t_prime} above believed max {max_ttl}")
    grace = ttl_grace(max_ttl)
    if t_prime >= max_ttl - grace:
        return None
    delay = window - (max_ttl - t_prime)
    if delay < -grace:
        raise InconsistentTtl(
            f"read {t_prime} implies a refresh {-delay:.1f}s before expiry")
    return min(max(delay, 0.0), window)


def _answer_ttl(reply: ProbeReply, domain: str) -> int | None:
    return wire.min_answer_ttl(reply.response, domain)


def check_rd_behavior(prober: Prober, server: str, canary_domains: list[str]) -> RdBehavior:
    """Classify whether a server honors RD=0 (no recursion on miss).

    Sends non-recursive queries for canary names that cannot already be
    cached. Any answer records mean the server recursed anyway. The
    evidence list records each exchange; on timeout it rides along on
    the raised error.
    """
    if not canary_domains:
        raise ValueError("at least one canary domain is required")
    evidence: list[dict] = []
    honors = True
    for name in canary_domains:
        try:
            reply = prober.probe(server, name, recursion_desired=False)
        except ProbeTimeout as exc:
            raise ProbeTimeout(f"rd0 check against {server} timed out on {name}",
                               evidence=evidence) from exc
        answers = reply.response.answers
        evidence.append({
            "domain": name,
            "rcode": int(reply.response.rcode),
            "answer_count": len(answers),
            "ttls": [rr.ttl for rr in answers],
        })
        if answers:
            honors = False
    return RdBehavior(server=server, honors_rd0=honors, evidence=evidence)


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
    (see _check_countdown). When done, `estimate` holds the result or
    `error` the failure: a SnoopError, or the ProbeTimeout of a probe
    that got no answer.
    """

    def __init__(self, prober: Prober, server: str, domain: str,
                 required_confirmations: int = 5):
        if required_confirmations < 1:
            raise ValueError("required_confirmations must be at least 1")
        self.prober = prober
        self.server = server
        self.domain = domain
        self.required = required_confirmations
        self.done = False
        self.estimate: MaxTtlEstimate | None = None
        self.error: Exception | None = None
        self._mode = "first"
        self._last_ttl = 0
        self._last_at = 0.0
        self._counts: dict[int, int] = {}
        self._snapped: dict[int, bool] = {}

    def step(self, now: float) -> tuple[float | None, list]:
        if self.done:
            return None, []
        try:
            return self._step(), []
        except (SnoopError, ProbeTimeout) as exc:
            self.error = exc
            self.done = True
            return None, []

    def _step(self) -> float | None:
        reply = self.prober.probe(self.server, self.domain, recursion_desired=True)
        ttl = _answer_ttl(reply, self.domain)
        if ttl is None:
            if self._mode == "first":
                raise UnresolvableDomain(f"{self.domain} returned no usable answer "
                                         f"(rcode {reply.response.rcode})")
            raise UnresolvableDomain(f"{self.domain} stopped resolving during discovery")

        if self._mode == "checkpoint":
            verdict = _check_countdown(self._last_ttl, self._last_at, ttl, reply.sent_at)
            if verdict is None:
                self._mode = "rollover"
                return reply.sent_at + ttl + POST_EXPIRY_EPSILON
            kind, message = verdict
            if kind != "checkpoint_late":
                raise _ERROR_TYPES[kind](f"{self.domain}: {message}")
            # a busy scheduler sent the checkpoint once the record had
            # expired: it re-fetched the record, so it is the roll-over read
            self._mode = "rollover"

        if self._mode == "rollover":
            value, snapped = snap_to_grid(ttl)
            self._counts[value] = self._counts.get(value, 0) + 1
            self._snapped[value] = self._snapped.get(value, False) or snapped
            if self._counts[value] >= self.required:
                self.estimate = MaxTtlEstimate(
                    server=self.server, domain=self.domain, max_ttl=value,
                    confirmations=self._counts[value], snapped_to_grid=self._snapped[value],
                    candidates_seen=dict(self._counts))
                self.done = True
                return None

        max_rounds = self.required * DISCOVERY_ROUND_FACTOR
        if sum(self._counts.values()) >= max_rounds:
            raise DiscoveryBudgetExceeded(
                f"{self.domain}: no TTL confirmed {self.required} times within "
                f"{max_rounds} rounds; candidates seen: {self._counts}")
        # next round: a checkpoint shortly before expiry unless the TTL is
        # too short for one, then the roll-over read just past it
        self._last_ttl, self._last_at = ttl, reply.sent_at
        if _checkpoint_fits(ttl):
            self._mode = "checkpoint"
            return reply.sent_at + ttl - CHECKPOINT_MARGIN
        self._mode = "rollover"
        return reply.sent_at + ttl + POST_EXPIRY_EPSILON


def discover_max_ttl(prober: Prober, clock: Clock, server: str, domain: str,
                     required_confirmations: int = 5) -> MaxTtlEstimate:
    """Find one domain's maximum TTL on a server, sleeping between probes.

    Drives a single DiscoveryMachine to its end. A TTL that jumps upward
    before expiry raises ServerPrefetches, one that never moves
    NonMonotonicTtl, no answer UnresolvableDomain, an unconfirmed
    candidate DiscoveryBudgetExceeded, and an unanswered probe
    ProbeTimeout. scan.discover_all runs many domains at once.
    """
    machine = DiscoveryMachine(prober, server, domain,
                               required_confirmations=required_confirmations)
    _run_machines(clock, [machine], clock.now())
    if machine.error is not None:
        raise machine.error
    return machine.estimate


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


def _window(window: float | None, max_ttl: int) -> float:
    """The watch window past expiry: a whole max_ttl unless given, and
    always within (0, max_ttl]."""
    if window is None:
        return float(max_ttl)
    if not 0 < window <= max_ttl:
        raise ValueError(f"window must be in (0, max_ttl], got {window} for {max_ttl}")
    return window


class _ProbingMachine:
    """What the three probing machines share: the domain they probe, the
    completed-cycle count that max_cycles budgets read, and the run of
    timeouts that ends the domain at FAILURE_LIMIT in a row. _adopt_max
    is the one place a stale maximum is adopted, _observe the one place
    a completed cycle is recorded. step returns (next wake, items), the
    wake None exactly when the machine is done."""

    method: str

    def __init__(self, prober: Prober, server: str, domain: str, max_ttl: int):
        self.prober = prober
        self.server = server
        self.domain = domain
        self.max_ttl = max_ttl
        self.cycles_completed = 0
        self.done = False
        self._timeouts = 0

    def _error(self, at: float, kind: str, message: str) -> CycleError:
        return CycleError(self.server, self.domain, self.method, at, kind, message)

    def _observe(self, items: list, start: float, length: float, rtt_ms: float,
                 delay: float | None = None) -> None:
        """Record one completed cycle over [start, start + length]:
        censored when delay is None, else an event delay seconds in."""
        event = None if delay is None else RefreshEvent(delay, start + delay)
        items.append(RefreshObservation(self.server, self.domain, self.method, start,
                                        length, rtt_ms, event is None, event))
        self.cycles_completed += 1

    def _adopt_max(self, items: list, at: float, ttl: int) -> bool:
        """Annotate a read above the believed maximum and adopt its
        grid-snapped value as the maximum. Returns whether it did."""
        if not _exceeds_max(ttl, self.max_ttl):
            return False
        items.append(self._error(at, "ttl_exceeds_max",
                                 f"read {ttl} above believed max {self.max_ttl}"))
        self.max_ttl = snap_to_grid(ttl)[0]
        return True

    def _probe(self, items: list, recursion_desired: bool = True,
               stamp: float | None = None) -> ProbeReply | None:
        """Send one probe, or annotate its timeout and return None.

        The timeout is stamped at `stamp`, or once the retries gave up
        when it is None.
        """
        try:
            reply = self.prober.probe(self.server, self.domain,
                                      recursion_desired=recursion_desired)
        except ProbeTimeout as exc:
            self._timeouts += 1
            at = self.prober.clock.now() if stamp is None else stamp
            items.append(self._error(at, "timeout", str(exc)))
            if self._timeouts >= FAILURE_LIMIT:
                self.done = True
            return None
        self._timeouts = 0
        return reply


class TtlRecursiveMachine(_ProbingMachine):
    """Expiry-timed recursive probing of one domain.

    Each cycle watches the window [E, E + W] where E is the last known
    expiry instant: the post-window probe reads T' and classifies the
    cycle (see classify_window_read). That same answer's TTL fixes the
    next expiry, so steady-state cycles cost one query. Cycle 0 and
    every CHECKPOINT_EVERY-th cycle insert a pre-expiry checkpoint probe
    that detects servers refreshing ahead of expiry.
    """

    method = "ttl_recursive"

    def __init__(self, prober: Prober, server: str, domain: str, max_ttl: int,
                 window: float | None):
        window = _window(window, max_ttl)
        super().__init__(prober, server, domain, max_ttl)
        self.window = window
        self._mode = "init"
        self._expiry = 0.0
        self._last_read = 0.0
        self._failures = 0
        self._static_runs = 0

    def _read(self, items: list) -> tuple[ProbeReply, int] | None:
        reply = self._probe(items)
        if reply is None:
            self._mode = "init"
            return None
        if reply.response.truncated:
            items.append(self._error(reply.sent_at, "truncated",
                                     "truncated response; cycle discarded"))
            self._mode = "init"
            return None
        ttl = _answer_ttl(reply, self.domain)
        if ttl is None:
            self._failures += 1
            items.append(self._error(reply.sent_at, "unresolvable",
                                     f"no usable answer (rcode {reply.response.rcode})"))
            if self._failures >= FAILURE_LIMIT:
                self.done = True
            self._mode = "init"
            return None
        self._failures = 0
        return reply, ttl

    def _arm(self, sent_at: float, ttl: int) -> float:
        """Fix the next expiry from this read and pick the next probe."""
        self._expiry = sent_at + ttl
        self._last_read = ttl
        if self.cycles_completed % CHECKPOINT_EVERY == 0 and _checkpoint_fits(ttl):
            self._mode = "checkpoint"
            return self._expiry - CHECKPOINT_MARGIN
        self._mode = "window"
        return self._expiry + self.window

    def _backoff(self, now: float) -> float | None:
        """The wake after a failed read, or None once failures ended the domain."""
        if self.done:
            return None
        return now + (TIMEOUT_BACKOFF if self._timeouts else NOANSWER_BACKOFF)

    def step(self, now: float) -> tuple[float | None, list]:
        items: list = []
        if self.done:
            return None, items
        got = self._read(items)
        if got is None:
            return self._backoff(now), items
        reply, ttl = got

        if self._mode == "init":
            self._adopt_max(items, reply.sent_at, ttl)
            return self._arm(reply.sent_at, ttl), items

        if self._mode == "checkpoint":
            verdict = _check_countdown(self._last_read, self._expiry - self._last_read,
                                      ttl, reply.sent_at)
            if verdict is None:
                self._static_runs = 0
                self._mode = "window"
                return self._expiry + self.window, items
            kind, message = verdict
            items.append(self._error(reply.sent_at, kind, message))
            if kind == "checkpoint_late":
                # the record may have been re-fetched since expiry, so
                # no window can be watched: start over from this read
                return self._arm(reply.sent_at, ttl), items
            if kind == "server_prefetches":
                self.done = True
                return None, items
            self._mode = "init"
            self._static_runs += 1
            if self._static_runs >= FAILURE_LIMIT:
                self.done = True
            return self._backoff(now), items

        # window probe: classifies the cycle and doubles as the next pre-probe
        window_eff = reply.sent_at - self._expiry
        if window_eff > self.max_ttl + ttl_grace(self.max_ttl):
            # Scheduling slipped past a full cache lifetime; the read no
            # longer pins the refresh. Discard and re-baseline.
            items.append(self._error(reply.sent_at, "window_overrun",
                                     f"probe ran {window_eff:.1f}s after expiry"))
        elif not self._adopt_max(items, reply.sent_at, ttl):
            try:
                delay = classify_window_read(ttl, self.max_ttl, window_eff)
            except InconsistentTtl as exc:
                items.append(self._error(reply.sent_at, "inconsistent_ttl", str(exc)))
            else:
                self._observe(items, self._expiry, window_eff, reply.rtt_ms, delay)
        return self._arm(reply.sent_at, ttl), items


class Rd0Machine(_ProbingMachine):
    """Non-polluting probing with RD=0 at a fixed interval.

    An answer TTL T places the last refresh at (probe time - (max_ttl -
    T)); consecutive probes implying the same instant are one event. An
    empty answer means nothing is cached. Every probe contributes its
    inter-probe span as observed time, so event counts over total span
    estimate the cache refresh rate: how often the record re-enters the
    cache. For clients that mostly find the cache cold (lookup spacing
    above max_ttl) that equals their lookup rate; for busier domains it
    saturates at 1/(max_ttl + mean wait), since lookups that hit a warm
    cache leave no trace. The mean refresh period minus max_ttl still
    recovers the mean post-expiry wait.

    Two server behaviors invalidate the data and end the domain. A
    server ignoring RD=0 betrays itself because our own probes become
    the refreshers: the answer carries the full TTL, a refresh dated to
    under a second before our send, where an honest client lands only
    by luck; three in a row (empty answers and dated client refreshes
    reset the run, repeat readings of one refresh are neutral) raise
    rd_not_honored. And refreshes repeatedly dated clearly BEFORE the
    previous refresh's expiry mean the server refills early on its own
    (or the believed maximum is stale-high): three in a row raise
    server_prefetches.
    """

    method = "rd0"

    def __init__(self, prober: Prober, server: str, domain: str, max_ttl: int,
                 probe_interval: float | None = None):
        if probe_interval is None:
            probe_interval = max_ttl / 2.0
        if not 0 < probe_interval <= max_ttl:
            raise ValueError(
                f"probe_interval must be in (0, max_ttl] so no refresh is missed, "
                f"got {probe_interval} for {max_ttl}")
        super().__init__(prober, server, domain, max_ttl)
        self.interval = probe_interval
        self._last_probe: float | None = None
        self._last_refresh: float | None = None
        self._fetch_signatures = 0
        self._early_refreshes = 0

    def step(self, now: float) -> tuple[float | None, list]:
        items: list = []
        if self.done:
            return None, items
        reply = self._probe(items, recursion_desired=False, stamp=now)
        if reply is None:
            return (None if self.done else now + self.interval), items
        sent = reply.sent_at
        ttl = _answer_ttl(reply, self.domain)
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
                if gap is not None and gap < -ttl_grace(self.max_ttl):
                    # dated clearly before the previous copy could expire
                    self._early_refreshes += 1
                else:
                    self._early_refreshes = 0
                if self._fetch_signatures >= 3:
                    items.append(self._error(
                        sent, "rd_not_honored",
                        "repeated full-TTL answers: the server fetches on "
                        "our RD=0 probes"))
                    self.done = True
                    return None, items
                if self._early_refreshes >= 3:
                    items.append(self._error(
                        sent, "server_prefetches",
                        "refreshes keep landing before the previous expiry: "
                        "the server refills on its own, or the believed "
                        "max is stale-high"))
                    self.done = True
                    return None, items
                if span is not None:
                    delay = min(max(refresh_time - self._last_probe, 0.0), span)
                self._last_refresh = refresh_time

        # a negative span is possible on the system clock
        if span is not None and span > 0:
            self._observe(items, self._last_probe, span, reply.rtt_ms, delay)
        self._last_probe = sent
        return sent + self.interval, items


class TimingMachine(_ProbingMachine):
    """Expiry-window probing driven by response-time classification.

    For servers whose TTL answers cannot be trusted, each cycle probes
    once past a conservative expiry bound: a miss-classed RTT means
    nothing had refreshed the record (censored window, and our probe
    refreshed it); a cached-classed RTT means some client did, at an
    unknown instant imputed to the window midpoint. Abstentions discard
    the cycle.
    """

    method = "timing"

    def __init__(self, prober: Prober, server: str, domain: str, max_ttl: int,
                 window: float | None, calibration: TimingCalibration):
        window = _window(window, max_ttl)
        super().__init__(prober, server, domain, max_ttl)
        self.window = window
        self.calibration = calibration
        self._expiry_bound: float | None = None

    def step(self, now: float) -> tuple[float | None, list]:
        items: list = []
        if self.done:
            return None, items
        reply = self._probe(items, stamp=now)
        if reply is None:
            self._expiry_bound = None
            return (None if self.done else now + TIMEOUT_BACKOFF), items
        sent = reply.sent_at

        if self._expiry_bound is None:
            # Whatever was cached expires at most max_ttl from now.
            self._expiry_bound = sent + self.max_ttl
            return self._expiry_bound + self.window, items

        window_eff = sent - self._expiry_bound
        verdict = classify_timing(reply.rtt_ms, self.calibration)
        if verdict == "abstain":
            items.append(self._error(sent, "abstain",
                                     f"rtt {reply.rtt_ms:.2f}ms inside the guard band"))
        else:
            self._observe(items, self._expiry_bound, window_eff, reply.rtt_ms,
                          None if verdict == "miss" else window_eff / 2.0)
        self._expiry_bound = sent + self.max_ttl
        return self._expiry_bound + self.window, items


def build_machine(method: str, prober: Prober, server: str, domain: str, *,
                  max_ttl: int, window: float | None = None,
                  probe_interval: float | None = None,
                  calibration: TimingCalibration | None = None):
    if method == "ttl_recursive":
        return TtlRecursiveMachine(prober, server, domain, max_ttl, window)
    if method == "rd0":
        return Rd0Machine(prober, server, domain, max_ttl, probe_interval=probe_interval)
    if method == "timing":
        if calibration is None:
            raise ValueError("timing method requires a calibration")
        return TimingMachine(prober, server, domain, max_ttl, window, calibration)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _run_machines(clock: Clock, machines: list, start: float,
                  emit: Callable[[list], None] | None = None, *,
                  deadline: float | None = None,
                  max_cycles: int | None = None) -> None:
    """Step machines in wake-time order until each is done or retired.

    Every machine first wakes at start; ties go to the machine queued
    first. emit receives every non-empty item list a step returns. A
    machine whose next wake lands past the deadline, or that has
    completed max_cycles cycles, is retired.
    """
    heap = [(start, seq, machine) for seq, machine in enumerate(machines)]
    seq = len(heap)
    while heap:
        wake, _, machine = heapq.heappop(heap)
        if deadline is not None and wake > deadline:
            continue
        if max_cycles is not None and machine.cycles_completed >= max_cycles:
            continue
        clock.sleep_until(wake)
        next_wake, items = machine.step(clock.now())
        if items and emit is not None:
            emit(items)
        if next_wake is None:
            continue
        heapq.heappush(heap, (next_wake, seq, machine))
        seq += 1
