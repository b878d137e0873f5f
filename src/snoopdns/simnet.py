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

Resolver behaviors under test:
  rd_policy    honor: non-recursive queries never populate the cache;
               ignore: the server recurses regardless of the RD bit.
  ttl_policy   respect_authoritative, or override with the resolver's
               own maximum TTL.
  anomaly      pre_refresh(low, high): the server re-fetches a record
               when its remaining TTL falls inside [low, high], so the
               cache never empties on its own.
"""

import heapq
import json
import random
import socket
import struct
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


class BindError(OSError):
    """UDP endpoint could not be bound."""


@dataclass(frozen=True)
class ZoneRecord:
    address: str
    ttl: int

    @cached_property
    def rdata(self) -> bytes:
        """The A record's rdata, packed on first use."""
        return socket.inet_aton(self.address)


@dataclass(frozen=True)
class TtlPolicy:
    mode: str = "respect_authoritative"  # or "override"
    max_ttl: int = 0


@dataclass(frozen=True)
class Anomaly:
    kind: str = "none"  # or "pre_refresh"
    remaining_low: float = 0.0
    remaining_high: float = 0.0


@dataclass(frozen=True)
class ClientProcess:
    kind: str  # "poisson" | "periodic" | "none"
    rate: float = 0.0      # arrivals per second, poisson
    interval: float = 0.0  # seconds between arrivals, periodic


@dataclass(frozen=True)
class ClientPopulation:
    domain: str
    process: ClientProcess
    label: str = ""


@dataclass(frozen=True)
class RttModel:
    """Gaussian response-time model in milliseconds.

    A cache hit costs one cached draw; a recursive fetch additionally
    pays the recursion draw. Draws are floored at 0.1 ms.
    """

    cached_mean: float = 5.0
    cached_jitter: float = 1.0
    recursion_extra_mean: float = 50.0
    recursion_jitter: float = 5.0


@dataclass
class SimConfig:
    zones: dict[str, ZoneRecord]
    rd_policy: str = "honor"  # or "ignore"
    ttl_policy: TtlPolicy = field(default_factory=TtlPolicy)
    anomaly: Anomaly = field(default_factory=Anomaly)
    clients: list[ClientPopulation] = field(default_factory=list)
    rtt_model: RttModel = field(default_factory=RttModel)
    seed: int = 0
    clock_mode: str = "virtual"  # or "realtime"


class SimEvent(NamedTuple):
    """One log entry, as Sim.log yields it: one per probe, refresh,
    expiry and drawn lookup, built from its packed record on access."""

    at: float
    # client_query | cache_refresh | probe_query | expiry; a client_query is
    # every periodic lookup, but only the cache-changing Poisson lookups
    kind: str
    domain: str
    cause: str = ""  # for cache_refresh: client | probe | prefetch


_KINDS = ("client_query", "cache_refresh", "probe_query", "expiry")
_CAUSES = ("", "client", "probe", "prefetch")


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
        self._data += self._RECORD.pack(at, _KINDS.index(kind), _CAUSES.index(cause), index)

    def __len__(self) -> int:
        return len(self._data) // self._RECORD.size

    def _events(self, start: int, stop: int) -> Iterator[SimEvent]:
        names, size = list(self._names), self._RECORD.size
        # a slice is a copy: an export of the bytearray would block appends
        for at, kind, cause, name in self._RECORD.iter_unpack(self._data[start * size:stop * size]):
            yield SimEvent(at, _KINDS[kind], names[name], _CAUSES[cause])

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
    refreshed_at: float
    expires_at: float
    max_ttl: int
    generation: int = 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    _require(not unknown, f"unknown fields in {where}: {sorted(unknown)}")


def config_from_dict(raw: dict) -> SimConfig:
    """Build and validate a SimConfig from plain JSON-style data."""
    _require(isinstance(raw, dict), "scenario must be a JSON object")
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
        _check_keys(rec, {"address", "ttl"}, f"zone {name!r}")
        ttl = rec.get("ttl")
        _require(isinstance(ttl, int) and 0 < ttl <= wire.MAX_TTL,
                 f"zone {name!r}: ttl must be a positive integer, got {ttl!r}")
        address = rec.get("address", "192.0.2.1")
        try:
            socket.inet_aton(address)
        except OSError as exc:
            raise ConfigError(f"zone {name!r}: bad address {address!r}") from exc
        zones[norm] = ZoneRecord(address=address, ttl=ttl)

    rd_policy = raw.get("rd_policy", "honor")
    _require(rd_policy in ("honor", "ignore"), f"rd_policy must be honor or ignore, got {rd_policy!r}")

    ttl_raw = raw.get("ttl_policy", {"mode": "respect_authoritative"})
    _check_keys(ttl_raw, {"mode", "max_ttl"}, "ttl_policy")
    mode = ttl_raw.get("mode", "respect_authoritative")
    _require(mode in ("respect_authoritative", "override"),
             f"ttl_policy.mode must be respect_authoritative or override, got {mode!r}")
    max_ttl = ttl_raw.get("max_ttl", 0)
    if mode == "override":
        _require(isinstance(max_ttl, int) and 0 < max_ttl <= wire.MAX_TTL,
                 f"ttl_policy.max_ttl must be a positive integer, got {max_ttl!r}")
    ttl_policy = TtlPolicy(mode=mode, max_ttl=max_ttl)

    anomaly_raw = raw.get("anomaly", {"kind": "none"})
    _check_keys(anomaly_raw, {"kind", "remaining_low", "remaining_high"}, "anomaly")
    kind = anomaly_raw.get("kind", "none")
    _require(kind in ("none", "pre_refresh"), f"anomaly.kind must be none or pre_refresh, got {kind!r}")
    low = float(anomaly_raw.get("remaining_low", 0.0))
    high = float(anomaly_raw.get("remaining_high", 0.0))
    if kind == "pre_refresh":
        _require(0 < low <= high, f"anomaly window must satisfy 0 < low <= high, got [{low}, {high}]")
    anomaly = Anomaly(kind=kind, remaining_low=low, remaining_high=high)

    clients: list[ClientPopulation] = []
    for i, cl in enumerate(raw.get("clients", [])):
        _check_keys(cl, {"domain", "process", "label"}, f"clients[{i}]")
        _require("domain" in cl, f"clients[{i}]: missing domain")
        domain = wire.normalize_name(cl["domain"])
        proc_raw = cl.get("process", {"kind": "none"})
        _check_keys(proc_raw, {"kind", "rate", "interval"}, f"clients[{i}].process")
        pkind = proc_raw.get("kind", "none")
        _require(pkind in ("poisson", "periodic", "none"),
                 f"clients[{i}].process.kind must be poisson, periodic or none, got {pkind!r}")
        rate = float(proc_raw.get("rate", 0.0))
        interval = float(proc_raw.get("interval", 0.0))
        if pkind == "poisson":
            _require(rate >= 0, f"clients[{i}]: poisson rate must be >= 0, got {rate}")
        if pkind == "periodic":
            _require(interval > 0, f"clients[{i}]: periodic interval must be > 0, got {interval}")
        clients.append(ClientPopulation(
            domain=domain,
            process=ClientProcess(kind=pkind, rate=rate, interval=interval),
            label=cl.get("label", ""),
        ))

    rtt_raw = raw.get("rtt_model", {})
    _check_keys(rtt_raw, {"cached_mean", "cached_jitter", "recursion_extra_mean",
                          "recursion_jitter"}, "rtt_model")
    rtt_model = RttModel(
        cached_mean=float(rtt_raw.get("cached_mean", 5.0)),
        cached_jitter=float(rtt_raw.get("cached_jitter", 1.0)),
        recursion_extra_mean=float(rtt_raw.get("recursion_extra_mean", 50.0)),
        recursion_jitter=float(rtt_raw.get("recursion_jitter", 5.0)),
    )
    for label, value in (("cached_mean", rtt_model.cached_mean),
                         ("cached_jitter", rtt_model.cached_jitter),
                         ("recursion_extra_mean", rtt_model.recursion_extra_mean),
                         ("recursion_jitter", rtt_model.recursion_jitter)):
        _require(value >= 0, f"rtt_model.{label} must be >= 0, got {value}")

    seed = raw.get("seed", 0)
    _require(isinstance(seed, int), f"seed must be an integer, got {seed!r}")
    clock_mode = raw.get("clock_mode", "virtual")
    _require(clock_mode in ("virtual", "realtime"),
             f"clock_mode must be virtual or realtime, got {clock_mode!r}")

    config = SimConfig(zones=zones, rd_policy=rd_policy, ttl_policy=ttl_policy,
                       anomaly=anomaly, clients=clients, rtt_model=rtt_model,
                       seed=seed, clock_mode=clock_mode)
    for cl in clients:
        _require(_zone_for(zones, cl.domain) is not None,
                 f"client population for {cl.domain!r} has no matching zone")
    return config


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
        for index, population in enumerate(config.clients):
            process = population.process
            if process.kind == "periodic":
                self._schedule(self.time + process.interval, "arrival", index)
            elif process.kind == "poisson" and process.rate > 0:
                self._poisson_rate[population.domain] = (
                    self._poisson_rate.get(population.domain, 0.0) + process.rate)
        for domain, rate in self._poisson_rate.items():
            # the cache starts empty: the first lookup fills it
            self._schedule(self.time + self.rng.expovariate(rate), "lookup", (domain, -1))

    # -- scheduling ----------------------------------------------------

    def _schedule(self, at: float, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, kind, payload))

    def _is_current(self, domain: str, generation: int) -> bool:
        """True while no refresh has happened since `generation` was issued;
        an empty cache is generation -1."""
        entry = self.cache.get(domain)
        return (entry.generation if entry is not None else -1) == generation

    def _advance_to(self, t: float) -> None:
        while self._heap and self._heap[0][0] <= t:
            at, _, kind, payload = heapq.heappop(self._heap)
            if kind == "arrival":
                population = self.config.clients[payload]
                self._client_lookup(at, population.domain)
                self._schedule(at + population.process.interval, "arrival", payload)
            elif kind == "lookup":
                domain, generation = payload
                if self._is_current(domain, generation):
                    self._client_lookup(at, domain)
            elif kind == "expiry":
                domain, generation = payload
                if self._is_current(domain, generation):
                    self.log.append(at, "expiry", domain)
            elif kind == "prefetch":
                domain, generation = payload
                if self._is_current(domain, generation) and self.cache[domain].expires_at > at:
                    self._refresh(domain, _zone_for(self.config.zones, domain), at, "prefetch")
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

    def _cache_ttl_for(self, zone: ZoneRecord) -> int:
        if self.config.ttl_policy.mode == "override":
            return self.config.ttl_policy.max_ttl
        return zone.ttl

    def _refresh(self, domain: str, zone: ZoneRecord, at: float, cause: str) -> None:
        max_ttl = self._cache_ttl_for(zone)
        entry = self.cache.get(domain)
        if entry is None:
            entry = _CacheEntry(refreshed_at=at, expires_at=at + max_ttl, max_ttl=max_ttl)
            self.cache[domain] = entry
        else:
            entry.generation += 1
            entry.refreshed_at = at
            entry.expires_at = at + max_ttl
            entry.max_ttl = max_ttl
        self.log.append(at, "cache_refresh", domain, cause)
        self._schedule(entry.expires_at, "expiry", (domain, entry.generation))
        rate = self._poisson_rate.get(domain)
        if rate:
            # first Poisson lookup after expiry; stale once the cache refreshes
            self._schedule(entry.expires_at + self.rng.expovariate(rate), "lookup",
                           (domain, entry.generation))
        anomaly = self.config.anomaly
        if anomaly.kind == "pre_refresh":
            lead = self.rng.uniform(anomaly.remaining_low, anomaly.remaining_high)
            prefetch_at = entry.expires_at - lead
            if prefetch_at > at:
                self._schedule(prefetch_at, "prefetch", (domain, entry.generation))
            if rate:
                # first Poisson lookup inside the band, if it comes before the band ends
                lookup_at = (max(at, entry.expires_at - anomaly.remaining_high)
                             + self.rng.expovariate(rate))
                if lookup_at <= entry.expires_at - anomaly.remaining_low:
                    self._schedule(lookup_at, "lookup", (domain, entry.generation))

    def _remaining(self, domain: str, at: float) -> float:
        entry = self.cache.get(domain)
        if entry is None:
            return 0.0
        return max(0.0, entry.expires_at - at)

    def _prefetches_at(self, remaining: float) -> bool:
        """Whether a query that finds `remaining` seconds of TTL makes a
        pre_refresh server refill the record ahead of expiry."""
        anomaly = self.config.anomaly
        return (remaining > 0 and anomaly.kind == "pre_refresh"
                and anomaly.remaining_low <= remaining <= anomaly.remaining_high)

    def _client_lookup(self, at: float, domain: str) -> None:
        self.log.append(at, "client_query", domain)
        remaining = self._remaining(domain, at)
        if self._prefetches_at(remaining):
            self._refresh(domain, _zone_for(self.config.zones, domain), at, "prefetch")
        elif remaining <= 0:
            self._refresh(domain, _zone_for(self.config.zones, domain), at, "client")
        # otherwise a plain cache hit: no state change

    # -- RTT draws -----------------------------------------------------

    def _rtt_cached(self) -> float:
        m = self.config.rtt_model
        return max(RTT_FLOOR_MS, self.rng.gauss(m.cached_mean, m.cached_jitter))

    def _rtt_recursive(self) -> float:
        m = self.config.rtt_model
        draw = (self.rng.gauss(m.cached_mean, m.cached_jitter)
                + self.rng.gauss(m.recursion_extra_mean, m.recursion_jitter))
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
        self._advance_to(at)
        domain = wire.normalize_name(query.qname)
        self.log.append(at, "probe_query", domain)

        zone = _zone_for(self.config.zones, domain)
        if zone is None:
            return wire.DnsResponse(query.id, wire.Rcode.NXDOMAIN, True), self._rtt_recursive()

        remaining = self._remaining(domain, at)
        if self._prefetches_at(remaining):
            self._refresh(domain, zone, at, "prefetch")
            remaining = self._remaining(domain, at)

        if remaining > 0:
            answer_ttl, rtt = int(remaining), self._rtt_cached()
        elif not query.recursion_desired and self.config.rd_policy == "honor":
            # Honest server: no recursion on RD=0, nothing to answer.
            return wire.DnsResponse(query.id, wire.Rcode.NOERROR, True), self._rtt_cached()
        else:
            self._refresh(domain, zone, at, "probe")
            answer_ttl, rtt = self.cache[domain].max_ttl, self._rtt_recursive()

        answers = []
        if query.qtype in (wire.RecordType.A, 255):
            answers.append(
                wire.ResourceRecord(domain, wire.RecordType.A, answer_ttl, zone.rdata))
        return wire.DnsResponse(query.id, wire.Rcode.NOERROR, True, answers), rtt


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
        query.id, wire.DnsQuestion(query.qname, query.qtype, query.qclass),
        response.answers, response.rcode, response.recursion_available,
        False, False, query.recursion_desired)


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
            raise BindError(f"cannot bind {host}:{port}: {exc}") from exc
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
