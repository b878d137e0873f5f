"""Ground-truth resolver and client-population simulator.

Models one caching resolver in front of configured authoritative zones,
plus synthetic client traffic (Poisson or periodic per domain). Every
cache transition is logged with its cause, in 14 bytes per entry, so
snooping results can be checked against exact truth. Time is lazy:
client lookups, expiries and anomaly refreshes sit in an event heap and
are applied whenever the simulation is advanced, which happens
implicitly on every query. The same instance can be driven on virtual
time in-process or served over loopback UDP in wall time.

Poisson populations are simulated analytically. A lookup that hits a
warm cache changes nothing, so only the lookups that change cache state
are drawn: a domain's Poisson populations merge into one rate, and by
memorylessness the first lookup after expiry E falls at E + Exp(rate),
and the first one inside the pre_refresh band at its start plus
Exp(rate). Each refresh redraws both and makes the earlier draws stale.
A "client_query" log entry is therefore a lookup that filled or
prefetched the cache for Poisson populations, and every lookup for
periodic ones.

Resolver behaviors under test, each one SimConfig value that is None
(True for honors_rd0) on a plain resolver:
  honors_rd0     rd_policy honor: non-recursive queries never populate
                 the cache; ignore: the server recurses regardless.
  ttl_cap        ttl_policy override: every record is cached with its
                 zone's TTL capped at the resolver's own maximum.
  prefetch_band  anomaly pre_refresh (low, high): the server re-fetches
                 a record when its remaining TTL falls inside [low,
                 high], so the cache never empties on its own.
"""

import heapq
import json
import random
import socket
import struct
import sys
import threading
import time as _time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import wire

RTT_FLOOR_MS = 0.1


class ConfigError(ValueError):
    """Scenario configuration is structurally or semantically invalid."""


@dataclass(frozen=True)
class ZoneRecord:
    address: str
    ttl: int

    @cached_property
    def rdata(self) -> bytes:
        """The A record's rdata, packed on first use."""
        return socket.inet_aton(self.address)


@dataclass
class SimConfig:
    """A validated scenario; each resolver behavior is one plain value.

    zones          domain -> ZoneRecord, the authoritative data
    honors_rd0     False when the server recurses regardless of the RD bit
    ttl_cap        the cap on every record's cached TTL, which is then
                   min(zone TTL, ttl_cap), else None: each zone's own TTL
    prefetch_band  (low, high): the server re-fetches a cached record when
                   its remaining TTL falls inside it, else None
    clients        (domain, kind, value) per population in listed order;
                   value is the rate (lookups/s) for poisson, the interval
                   (s) for periodic and 0.0 for none
    cached_rtt     (mean, jitter) in ms of a cache hit's Gaussian RTT
    recursion_rtt  (mean, jitter) in ms that a recursive fetch adds; each
                   RTT is floored at RTT_FLOOR_MS
    seed           seeds the simulator's random draws
    clock_mode     virtual, or realtime: Sim.advance refuses to run
    """

    zones: dict[str, ZoneRecord]
    honors_rd0: bool = True
    ttl_cap: int | None = None
    prefetch_band: tuple[float, float] | None = None
    clients: list[tuple[str, str, float]] = field(default_factory=list)
    cached_rtt: tuple[float, float] = (5.0, 1.0)
    recursion_rtt: tuple[float, float] = (50.0, 5.0)
    seed: int = 0
    clock_mode: str = "virtual"


class SimEvent(NamedTuple):
    """One log entry, as Sim.log yields it: one per probe, refresh,
    expiry and drawn lookup, built from its packed record on access."""

    at: float
    # client_query | cache_refresh | probe_query | expiry; a client_query is
    # every periodic lookup, but only the cache-changing Poisson lookups
    kind: str
    domain: str
    cause: str = ""  # for cache_refresh: client | probe | prefetch


# each kind and cause with its code in a log record
_KINDS = {"client_query": 0, "cache_refresh": 1, "probe_query": 2, "expiry": 3}
_CAUSES = {"": 0, "client": 1, "probe": 2, "prefetch": 3}


class EventLog(Sequence):
    """Sim's append-only log, read as a sequence of SimEvent: one 14-byte
    record per entry (float64 time, kind and cause codes, uint32 index into
    a table of domains). An iteration reads the entries present at its start."""

    _RECORD = struct.Struct("<dBBI")

    def __init__(self) -> None:
        self._data = bytearray()
        self._names: dict[str, int] = {}  # in index order

    def append(self, at: float, kind: str, domain: str, cause: str = "") -> None:
        index = self._names.setdefault(domain, len(self._names))
        self._data += self._RECORD.pack(at, _KINDS[kind], _CAUSES[cause], index)

    def __len__(self) -> int:
        return len(self._data) // self._RECORD.size

    def _events(self, start: int, stop: int) -> Iterator[SimEvent]:
        names, size = list(self._names), self._RECORD.size
        kinds, causes = list(_KINDS), list(_CAUSES)
        # a slice is a copy: an export of the bytearray would block appends
        for at, kind, cause, name in self._RECORD.iter_unpack(self._data[start * size:stop * size]):
            yield SimEvent(at, kinds[kind], names[name], causes[cause])

    def __getitem__(self, index):
        positions = range(len(self))[index]  # negative indexes, IndexError, slices
        if isinstance(positions, int):
            return next(self._events(positions, positions + 1))
        if positions.step == 1:
            return list(self._events(positions.start, positions.stop))
        return [self[position] for position in positions]

    def __iter__(self) -> Iterator[SimEvent]:
        return self._events(0, len(self))


@dataclass
class _CacheEntry:
    expires_at: float
    max_ttl: int
    generation: int = 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    _require(isinstance(mapping, dict), f"{where} must be a JSON object")
    unknown = set(mapping) - allowed
    _require(not unknown, f"unknown fields in {where}: {sorted(unknown)}")


def _number(mapping: dict, key: str, default: float, where: str) -> float:
    """mapping[key] as a float: a finite JSON number, which a bool is not."""
    value = mapping.get(key, default)
    _require(type(value) in (int, float) and abs(value) <= sys.float_info.max,
             f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


def config_from_dict(raw: dict) -> SimConfig:
    """Build and validate a SimConfig from plain JSON-style data."""
    _check_keys(raw, {"zones", "rd_policy", "ttl_policy", "anomaly", "clients",
                      "rtt_model", "seed", "clock_mode"}, "scenario")
    zones_raw = raw.get("zones", {})
    _require(isinstance(zones_raw, dict), "zones must map domain to record")
    zones: dict[str, ZoneRecord] = {}
    for name, rec in zones_raw.items():
        try:
            norm = wire.validate_name(name)
        except wire.InvalidName as exc:
            raise ConfigError(f"zone name {name!r}: {exc}") from exc
        if norm in zones:
            first = next(n for n in zones_raw if wire.normalize_name(n) == norm)
            raise ConfigError(f"zone names {first!r} and {name!r} are the same name {norm!r}")
        _check_keys(rec, {"address", "ttl"}, f"zone {name!r}")
        ttl = rec.get("ttl")
        _require(type(ttl) is int and 0 < ttl <= wire.MAX_TTL,
                 f"zone {name!r}: ttl must be a positive integer, got {ttl!r}")
        address = rec.get("address", "192.0.2.1")
        try:  # a dotted quad: inet_aton would also take shorthand such as 10.1
            socket.inet_pton(socket.AF_INET, address)
        except (OSError, TypeError) as exc:  # TypeError: not a string
            raise ConfigError(f"zone {name!r}: bad address {address!r}, "
                              "want a dotted-quad IPv4 address") from exc
        zones[norm] = ZoneRecord(address=address, ttl=ttl)

    rd_policy = raw.get("rd_policy", "honor")
    _require(rd_policy in ("honor", "ignore"), f"rd_policy must be honor or ignore, got {rd_policy!r}")

    ttl_raw = raw.get("ttl_policy", {})
    _check_keys(ttl_raw, {"mode", "max_ttl"}, "ttl_policy")
    mode = ttl_raw.get("mode", "respect_authoritative")
    _require(mode in ("respect_authoritative", "override"),
             f"ttl_policy.mode must be respect_authoritative or override, got {mode!r}")
    ttl_cap = ttl_raw.get("max_ttl", 0) if mode == "override" else None
    _require(ttl_cap is None or (type(ttl_cap) is int and 0 < ttl_cap <= wire.MAX_TTL),
             f"ttl_policy.max_ttl must be a positive integer, got {ttl_cap!r}")

    anomaly_raw = raw.get("anomaly", {})
    _check_keys(anomaly_raw, {"kind", "remaining_low", "remaining_high"}, "anomaly")
    kind = anomaly_raw.get("kind", "none")
    _require(kind in ("none", "pre_refresh"), f"anomaly.kind must be none or pre_refresh, got {kind!r}")
    low = _number(anomaly_raw, "remaining_low", 0.0, "anomaly")
    high = _number(anomaly_raw, "remaining_high", 0.0, "anomaly")
    prefetch_band = None
    if kind == "pre_refresh":
        _require(0 < low <= high, f"anomaly window must satisfy 0 < low <= high, got [{low}, {high}]")
        prefetch_band = (low, high)

    clients_raw = raw.get("clients", [])
    _require(isinstance(clients_raw, list), "clients must be a list of populations")
    clients: list[tuple[str, str, float]] = []
    for i, cl in enumerate(clients_raw):
        _check_keys(cl, {"domain", "process", "label"}, f"clients[{i}]")
        _require("domain" in cl, f"clients[{i}]: missing domain")
        domain = cl["domain"]
        _require(isinstance(domain, str), f"clients[{i}]: domain must be a string, got {domain!r}")
        proc_raw = cl.get("process", {})
        _check_keys(proc_raw, {"kind", "rate", "interval"}, f"clients[{i}].process")
        pkind = proc_raw.get("kind", "none")
        _require(pkind in ("poisson", "periodic", "none"),
                 f"clients[{i}].process.kind must be poisson, periodic or none, got {pkind!r}")
        rate = _number(proc_raw, "rate", 0.0, f"clients[{i}].process")
        interval = _number(proc_raw, "interval", 0.0, f"clients[{i}].process")
        if pkind == "poisson":
            _require(rate >= 0, f"clients[{i}]: poisson rate must be >= 0, got {rate}")
        if pkind == "periodic":
            _require(interval > 0, f"clients[{i}]: periodic interval must be > 0, got {interval}")
        value = {"poisson": rate, "periodic": interval}.get(pkind, 0.0)
        clients.append((wire.normalize_name(domain), pkind, value))

    rtt_raw = raw.get("rtt_model", {})
    _check_keys(rtt_raw, {"cached_mean", "cached_jitter", "recursion_extra_mean",
                          "recursion_jitter"}, "rtt_model")
    rtt = []
    for key, default in (("cached_mean", 5.0), ("cached_jitter", 1.0),
                         ("recursion_extra_mean", 50.0), ("recursion_jitter", 5.0)):
        rtt.append(_number(rtt_raw, key, default, "rtt_model"))
        _require(rtt[-1] >= 0, f"rtt_model.{key} must be >= 0, got {rtt[-1]}")

    seed = raw.get("seed", 0)
    _require(type(seed) is int, f"seed must be an integer, got {seed!r}")
    clock_mode = raw.get("clock_mode", "virtual")
    _require(clock_mode in ("virtual", "realtime"),
             f"clock_mode must be virtual or realtime, got {clock_mode!r}")

    for domain, _, _ in clients:
        _require(_zone_for(zones, domain) is not None,
                 f"client population for {domain!r} has no matching zone")
    return SimConfig(zones=zones, honors_rd0=rd_policy == "honor", ttl_cap=ttl_cap,
                     prefetch_band=prefetch_band, clients=clients,
                     cached_rtt=(rtt[0], rtt[1]), recursion_rtt=(rtt[2], rtt[3]),
                     seed=seed, clock_mode=clock_mode)


def load_scenario(path: str) -> dict:
    """Read a scenario JSON file; parse failures carry the position."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: scenario must be a JSON object")
    return raw


def _zone_for(zones: dict[str, ZoneRecord], name: str) -> ZoneRecord | None:
    """Exact zone match, else nearest enclosing zone (subdomains resolve)."""
    zone = zones.get(name)
    if zone is not None:
        return zone
    parts = name.split(".")
    for i in range(1, len(parts)):
        parent = ".".join(parts[i:])
        if parent in zones:
            return zones[parent]
    return None


class Sim:
    """One caching resolver plus its synthetic clients.

    All state mutation funnels through _advance_to, _refresh and
    handle_query; external callers interact via handle_query/advance,
    keeping the event log's ordering exact regardless of how lazily the
    simulation is driven. `log`, an EventLog, is the ground truth.
    """

    def __init__(self, config: SimConfig, start_time: float = 0.0):
        self.config = config
        self.time = float(start_time)
        self.rng = random.Random(config.seed)
        self.log = EventLog()
        self.cache: dict[str, _CacheEntry] = {}
        self._heap: list[tuple[float, int, str, object]] = []
        self._seq = 0
        # merged Poisson lookup rate per domain
        self._poisson_rate: dict[str, float] = {}
        for index, (domain, kind, value) in enumerate(config.clients):
            if kind == "periodic":
                self._schedule(self.time + value, "arrival", index)
            elif kind == "poisson" and value > 0:
                self._poisson_rate[domain] = self._poisson_rate.get(domain, 0.0) + value
        for domain, rate in self._poisson_rate.items():
            # the cache starts empty: the first lookup fills it
            self._schedule(self.time + self.rng.expovariate(rate), "lookup", (domain, -1))

    # -- scheduling ----------------------------------------------------

    def _schedule(self, at: float, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, kind, payload))

    def _advance_to(self, t: float) -> None:
        heap, cache, heappop = self._heap, self.cache, heapq.heappop
        while heap and heap[0][0] <= t:
            at, _, kind, payload = heappop(heap)
            if kind == "arrival":
                domain, _, interval = self.config.clients[payload]
                self._client_lookup(at, domain)
                self._schedule(at + interval, "arrival", payload)
                continue
            # stale once the record was refreshed after it was queued (no entry: -1)
            domain, generation = payload
            entry = cache.get(domain)
            if (-1 if entry is None else entry.generation) != generation:
                continue
            if kind == "lookup":
                self._client_lookup(at, domain)
            elif kind == "expiry":
                self.log.append(at, "expiry", domain)
            elif entry.expires_at > at:  # prefetch
                self._refresh(domain, at, "prefetch")
        if t > self.time:
            self.time = t

    def advance(self, duration: float) -> list[SimEvent]:
        """Advance virtual time, applying due events; returns new log entries.

        The client_query entries returned are every periodic lookup but,
        for Poisson populations, only the lookups that filled or
        prefetched the cache: lookups that hit a warm cache are never drawn.
        """
        if self.config.clock_mode != "virtual":
            raise ConfigError("advance() is only valid in virtual clock mode")
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        mark = len(self.log)
        self._advance_to(self.time + duration)
        return self.log[mark:]

    # -- cache model ---------------------------------------------------

    def _refresh(self, domain: str, at: float, cause: str) -> None:
        entry = self.cache.get(domain)
        if entry is None:  # a record is cached with the same TTL every time
            ttl, cap = _zone_for(self.config.zones, domain).ttl, self.config.ttl_cap
            max_ttl = ttl if cap is None else min(ttl, cap)
            entry = self.cache[domain] = _CacheEntry(at + max_ttl, max_ttl)
        else:
            entry.generation += 1
            entry.expires_at = at + entry.max_ttl
        self.log.append(at, "cache_refresh", domain, cause)
        expires_at, key = entry.expires_at, (domain, entry.generation)
        # queued here, not through _schedule: the busiest path of the replay
        heap, seq, heappush = self._heap, self._seq + 1, heapq.heappush
        heappush(heap, (expires_at, seq, "expiry", key))
        rate = self._poisson_rate.get(domain)
        if rate:
            # first Poisson lookup after expiry; stale once the cache refreshes
            seq += 1
            heappush(heap, (expires_at + self.rng.expovariate(rate), seq, "lookup", key))
        if self.config.prefetch_band is not None:
            low, high = self.config.prefetch_band
            prefetch_at = expires_at - self.rng.uniform(low, high)
            if prefetch_at > at:
                seq += 1
                heappush(heap, (prefetch_at, seq, "prefetch", key))
            if rate:
                # first Poisson lookup inside the band, if it comes before the band ends
                lookup_at = max(at, expires_at - high) + self.rng.expovariate(rate)
                if lookup_at <= expires_at - low:
                    seq += 1
                    heappush(heap, (lookup_at, seq, "lookup", key))
        self._seq = seq

    def _remaining(self, domain: str, at: float) -> float:
        """Seconds of TTL the cached record has left when a query finds it
        at `at`, 0.0 when none. A pre_refresh server first refills a record
        whose remainder falls inside its band, and the full TTL is left."""
        entry = self.cache.get(domain)
        if entry is None or entry.expires_at <= at:
            return 0.0
        remaining = entry.expires_at - at
        band = self.config.prefetch_band
        if band is not None and band[0] <= remaining <= band[1]:
            self._refresh(domain, at, "prefetch")
            remaining = entry.expires_at - at
        return remaining

    def _client_lookup(self, at: float, domain: str) -> None:
        self.log.append(at, "client_query", domain)
        if self._remaining(domain, at) <= 0:
            self._refresh(domain, at, "client")
        # otherwise a plain cache hit, or a prefetch: no further change

    # -- RTT draws -----------------------------------------------------

    def _rtt_cached(self) -> float:
        return max(RTT_FLOOR_MS, self.rng.gauss(*self.config.cached_rtt))

    def _rtt_recursive(self) -> float:
        draw = (self.rng.gauss(*self.config.cached_rtt)
                + self.rng.gauss(*self.config.recursion_rtt))
        return max(RTT_FLOOR_MS, draw)

    # -- the externally visible query path -----------------------------

    def handle_query(self, query: wire.DnsQuery, at: float) -> tuple[wire.DnsResponse, float]:
        """Answer one probe query as the resolver would at time `at`.

        Applies every scheduled client arrival, expiry and anomaly
        refresh up to `at` first, so cache state is exact. Returns the
        response and the simulated RTT in milliseconds; the response
        reflects server state at send time.
        """
        if at < self.time:
            raise ValueError(f"query at {at} is before simulation time {self.time}")
        if self._heap and self._heap[0][0] <= at:
            self._advance_to(at)
        else:  # nothing due: only the clock moves
            self.time = at
        domain = wire.normalize_name(query.qname)
        self.log.append(at, "probe_query", domain)

        zone = _zone_for(self.config.zones, domain)
        if zone is None:
            return wire.DnsResponse(query.id, wire.Rcode.NXDOMAIN, True), self._rtt_recursive()

        remaining = self._remaining(domain, at)
        if remaining > 0:
            answer_ttl, rtt = int(remaining), self._rtt_cached()
        elif not query.recursion_desired and self.config.honors_rd0:
            # Honest server: no recursion on RD=0, nothing to answer.
            return wire.DnsResponse(query.id, wire.RCODE_NOERROR, True), self._rtt_cached()
        else:
            self._refresh(domain, at, "probe")
            answer_ttl, rtt = self.cache[domain].max_ttl, self._rtt_recursive()

        answers = []
        if query.qtype == wire.TYPE_A or query.qtype == 255:
            answers.append(wire.ResourceRecord(domain, wire.TYPE_A, answer_ttl, zone.rdata))
        return wire.DnsResponse(query.id, wire.RCODE_NOERROR, True, answers), rtt


def build_sim(config: SimConfig | dict, start_time: float = 0.0) -> Sim:
    """Construct a simulator; dict input goes through full validation."""
    if isinstance(config, dict):
        config = config_from_dict(config)
    return Sim(config, start_time=start_time)


def _encode_reply(query: wire.DnsQuery, response: wire.DnsResponse) -> bytes:
    """The resolver's reply packet: the query's question and RD bit
    echoed, then the response that Sim.handle_query built."""
    # called through the module so that a tracer patching it sees every reply
    return wire.encode_response(
        query.id, query, response.answers, rcode=response.rcode,
        recursion_available=response.recursion_available,
        recursion_desired=query.recursion_desired)


class SimExchange:
    """In-process transport: probes hit the simulator, bytes and all.

    Queries are encoded/decoded through the real codec so the whole wire
    path is exercised even in virtual-time runs. The shared clock is
    advanced by the simulated RTT after each query, mirroring the wait a
    real prober would experience.
    """

    def __init__(self, sim: Sim, clock):
        self.sim = sim
        self.clock = clock
        self._lock = threading.Lock()

    def exchange(self, server: str, payload: bytes, timeout: float) -> tuple[bytes, float, float]:
        sent_at = self.clock.now()
        query = wire.decode_query(payload)
        with self._lock:
            response, rtt_ms = self.sim.handle_query(query, sent_at)
        data = _encode_reply(query, response)
        self.clock.sleep(rtt_ms / 1000.0)
        return data, rtt_ms, sent_at


class UdpSimServer:
    """Serves a simulator over loopback UDP with realistic reply delays.

    Each datagram is answered from a worker thread after sleeping out
    the drawn RTT, so slow answers do not block the receive loop. State
    access is serialized; timestamps use the wall clock.
    """

    def __init__(self, sim: Sim, host: str = "127.0.0.1", port: int = 0):
        self.sim = sim
        self._lock = threading.Lock()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            self._sock.close()
            raise OSError(f"cannot bind {host}:{port}: {exc}") from exc
        self.host, self.port = self._sock.getsockname()
        self.address = f"{self.host}:{self.port}"
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def start(self) -> "UdpSimServer":
        self._thread.start()
        return self

    def _serve(self) -> None:
        while not self._stopped.is_set():
            try:
                data, addr = self._sock.recvfrom(4096)
            except OSError:
                break
            threading.Thread(target=self._answer, args=(data, addr), daemon=True).start()

    def _answer(self, data: bytes, addr) -> None:
        try:
            query = wire.decode_query(data)
        except wire.Malformed:
            return
        with self._lock:
            # clamp: a stepped-back wall clock must not look like time travel
            at = max(_time.time(), self.sim.time)
            response, rtt_ms = self.sim.handle_query(query, at)
        payload = _encode_reply(query, response)
        _time.sleep(rtt_ms / 1000.0)
        try:
            self._sock.sendto(payload, addr)
        except OSError:
            pass

    def stop(self) -> None:
        self._stopped.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)

    def __enter__(self) -> "UdpSimServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_udp(config: SimConfig | dict, host: str = "127.0.0.1",
              port: int = 0) -> UdpSimServer:
    """Build a simulator that starts at the wall clock's now and start
    serving it over UDP; returns the server."""
    if isinstance(config, dict):
        config = config_from_dict(config)
    sim = Sim(config, start_time=_time.time())
    return UdpSimServer(sim, host, port).start()
