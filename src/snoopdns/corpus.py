"""Domain corpora and observation persistence.

Input side: domain lists arrive either as plain text (one name per
line, # comments) or as CSV ranking exports with a domain column.
Output side: observations stream to JSON Lines, one self-contained
record per line, so a crashed or interrupted scan loses at most the
line being written and partial logs stay loadable.
"""

import json
import threading
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Iterable, TextIO

from . import wire
from .clock import Clock
from .engine import CycleError, RefreshEvent, RefreshObservation, SnoopError
from .transport import Prober, ProbeTimeout

SCHEMA_VERSION = 1
# the fields every record carries as a JSON string
_TEXT_KEYS = ("server", "domain", "method", "scan_id")


class ParseError(ValueError):
    """Input file cannot be understood; message carries the line number."""


class ResolverUnreachable(SnoopError):
    """Every probe in a liveness round timed out: the server is down,
    not the domains."""


@dataclass(frozen=True)
class DomainEntry:
    domain: str
    rank: int | None = None


@dataclass
class DomainList:
    entries: list[DomainEntry] = field(default_factory=list)
    skipped: int = 0

    @property
    def domains(self) -> list[str]:
        return [e.domain for e in self.entries]


def _sniff_format(first_line: str) -> str:
    cells = [c.strip().strip('"').lower() for c in first_line.split(",")]
    if "domain" in cells and len(cells) > 1 or cells == ["domain"]:
        return "csv_with_domain_column"
    return "plain_lines"


def load_domain_list(path: str, fmt: str = "auto") -> DomainList:
    """Read a domain list, skipping (and counting) invalid entries.

    fmt is "plain_lines", "csv_with_domain_column", or "auto" to sniff
    from the header line. Duplicates keep their first occurrence and
    count as skipped. Structural problems raise ParseError with the
    offending line number.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = handle.read().splitlines()
    if fmt == "auto":
        first = next((ln for ln in lines if ln.strip()), "")
        fmt = _sniff_format(first)
    if fmt == "plain_lines":
        return _load_plain(lines)
    if fmt == "csv_with_domain_column":
        return _load_csv(lines, path)
    raise ValueError(f"unknown domain list format {fmt!r}")


def _load_plain(lines: list[str]) -> DomainList:
    out = DomainList()
    seen: set[str] = set()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        _append(out, seen, line, rank=None)
    return out


def _load_csv(lines: list[str], path: str) -> DomainList:
    import csv

    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}:1: empty file where a CSV header was expected")
    columns = {name.strip().lower(): i for i, name in enumerate(header)}
    if "domain" not in columns:
        raise ParseError(f"{path}:1: no 'domain' column in header {header!r}")
    domain_col = columns["domain"]
    rank_col = columns.get("globalrank", columns.get("rank"))
    out = DomainList()
    seen: set[str] = set()
    for number, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if domain_col >= len(row):
            out.skipped += 1
            continue
        rank = None
        if rank_col is not None and rank_col < len(row):
            try:
                rank = int(row[rank_col].strip())
            except ValueError:
                rank = None
        _append(out, seen, row[domain_col].strip(), rank=rank)
    return out


def _append(out: DomainList, seen: set[str], name: str, rank: int | None) -> None:
    try:
        canonical = wire.validate_name(name)
    except wire.InvalidName:
        out.skipped += 1
        return
    if canonical in seen:
        out.skipped += 1
        return
    seen.add(canonical)
    out.entries.append(DomainEntry(domain=canonical, rank=rank))


# a domain is dead only after failing this many resolution rounds,
# spaced at least this many seconds apart
LIVENESS_ROUNDS = 3
LIVENESS_SPACING = 60.0


def liveness_filter(prober: Prober, clock: Clock, server: str,
                    domains: Iterable[str]) -> tuple[list[str], list[str]]:
    """Split domains into (live, dead) by repeated resolution attempts.

    A domain is dead only after failing every one of LIVENESS_ROUNDS
    rounds, spaced at least LIVENESS_SPACING seconds apart, so a
    transient upstream failure does not drop it. If every probe times
    out before the server has answered anything at all, the server
    itself is unreachable and ResolverUnreachable is raised; once it has
    replied even once, later timeouts are charged to the domains, not
    the server.
    """
    pending = list(dict.fromkeys(domains))
    live: list[str] = []
    order = {d: i for i, d in enumerate(pending)}
    server_answered = False
    for attempt in range(LIVENESS_ROUNDS):
        if not pending:
            break
        if attempt > 0:
            clock.sleep(LIVENESS_SPACING)
        still: list[str] = []
        timeouts = 0
        for domain in pending:
            try:
                reply = prober.probe(server, domain, recursion_desired=True)
            except ProbeTimeout:
                timeouts += 1
                still.append(domain)
                continue
            server_answered = True
            if wire.min_answer_ttl(reply.response, domain) is not None:
                live.append(domain)
            else:
                still.append(domain)
        if timeouts == len(pending) and not server_answered:
            raise ResolverUnreachable(
                f"{server}: all {timeouts} liveness probes timed out")
        pending = still
    live.sort(key=order.__getitem__)
    dead = sorted(pending, key=order.__getitem__)
    return live, dead


def record_line(item: "RefreshObservation | CycleError", scan_id: str) -> str:
    """The JSONL line, newline included, that logs one record.

    The layout is fixed and equals json.dumps(record, sort_keys=True) of
    the record's dict: sorted keys, ", " and ": " separators, strings
    escaped to ASCII, numbers as repr with NaN, Infinity and -Infinity,
    and true, false and null. A field declared str must hold a str.
    """
    text = encode_basestring_ascii
    if isinstance(item, RefreshObservation):
        event = item.event
        start, length, rtt = item.window_start, item.window_length, item.probe_rtt_ms
        delay, refresh = (0.0, 0.0) if event is None else (
            event.delay_after_expiry, event.inferred_refresh_time)
        if (type(start) is type(length) is type(rtt) is type(delay) is type(refresh) is float
                and isfinite(start + length + rtt + delay + refresh)
                and type(item.censored) is bool):
            # the usual record: repr writes a finite float as json.dumps does
            number, censored = repr, "true" if item.censored else "false"
        else:
            number, censored = json.dumps, json.dumps(item.censored)
        event_json = "null" if event is None else (
            f'{{"delay_after_expiry": {number(delay)}, '
            f'"inferred_refresh_time": {number(refresh)}}}')
        return (f'{{"censored": {censored}, "domain": {text(item.domain)}, '
                f'"event": {event_json}, "kind": "observation", '
                f'"method": {text(item.method)}, "probe_rtt_ms": {number(rtt)}, '
                f'"scan_id": {text(scan_id)}, "schema_version": {SCHEMA_VERSION}, '
                f'"server": {text(item.server)}, "window_length": {number(length)}, '
                f'"window_start": {number(start)}}}\n')
    if isinstance(item, CycleError):
        return (f'{{"at": {json.dumps(item.at)}, "domain": {text(item.domain)}, '
                f'"error_kind": {text(item.kind)}, "kind": "error", '
                f'"message": {text(item.message)}, "method": {text(item.method)}, '
                f'"scan_id": {text(scan_id)}, "schema_version": {SCHEMA_VERSION}, '
                f'"server": {text(item.server)}}}\n')
    raise TypeError(f"cannot log a {type(item).__name__}")


def _schema_ok(record: dict) -> bool:
    version = record.get("schema_version")
    return type(version) is int and version == SCHEMA_VERSION


def _number(value: object) -> float:
    if type(value) is not float and type(value) is not int:  # nor a bool
        raise ValueError(f"not a JSON number: {value!r}")
    return float(value)


def _text(value: object) -> str:
    if type(value) is not str:
        raise ValueError(f"not a JSON string: {value!r}")
    return value


def _error_ok(record: dict) -> bool:
    return (_schema_ok(record) and type(record.get("at")) in (float, int)
            and type(record.get("error_kind")) is str
            and type(record.get("message")) is str)


def observation_from_json(record: dict) -> RefreshObservation:
    if record.get("kind") != "observation":
        raise ParseError(f"not an observation record: kind={record.get('kind')!r}")
    if not _schema_ok(record):
        raise ParseError(f"unsupported schema_version {record.get('schema_version')!r}")
    try:
        censored = record["censored"]
        if not isinstance(censored, bool):
            raise ValueError(f"censored is not a JSON boolean: {censored!r}")
        event = None
        if record["event"] is not None:
            event = RefreshEvent(
                delay_after_expiry=_number(record["event"]["delay_after_expiry"]),
                inferred_refresh_time=_number(record["event"]["inferred_refresh_time"]))
        observation = RefreshObservation(
            server=_text(record["server"]),
            domain=_text(record["domain"]),
            method=_text(record["method"]),
            window_start=_number(record["window_start"]),
            window_length=_number(record["window_length"]),
            probe_rtt_ms=_number(record["probe_rtt_ms"]),
            censored=censored,
            event=event)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed observation record: {exc}") from exc
    observation.validate()
    return observation


class ObservationWriter:
    """Append-only JSONL sink, one flushed line per record.

    Each line has the fixed layout of record_line. A lock serializes
    writers so concurrent probing threads cannot tear lines; flushing per
    record bounds loss on a crash to the final line.
    """

    def __init__(self, out: TextIO, scan_id: str):
        self.out = out
        self.scan_id = scan_id
        self.records_written = 0
        self._lock = threading.Lock()

    def write(self, item: "RefreshObservation | CycleError") -> None:
        line = record_line(item, self.scan_id)
        with self._lock:
            self.out.write(line)
            self.out.flush()
            self.records_written += 1


@dataclass
class ObservationLog:
    """Result of reading a JSONL log back."""

    observations: list[RefreshObservation] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    corrupt_lines: int = 0
    scan_ids: set[str] = field(default_factory=set)


def load_observations(path: str) -> ObservationLog:
    """Read a JSONL observation log, skipping corrupt lines.

    Corrupt means undecodable JSON, an unknown kind, a bad schema
    version, a server, domain, method or scan_id that is not a JSON
    string, an error record without a string error_kind and message and
    a JSON-number at, or a record failing observation validation; each
    is counted, never fatal, so partial logs from interrupted scans load.
    A load shares one string per distinct server, domain, method, scan id.
    """
    log = ObservationLog()
    shared: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                log.corrupt_lines += 1
                continue
            if not isinstance(record, dict):
                log.corrupt_lines += 1
                continue
            try:
                for key in _TEXT_KEYS:
                    value = _text(record.get(key))
                    record[key] = shared.setdefault(value, value)
            except ValueError:
                log.corrupt_lines += 1
                continue
            kind = record.get("kind")
            if kind == "observation":
                try:
                    log.observations.append(observation_from_json(record))
                except (ParseError, ValueError):
                    log.corrupt_lines += 1
                    continue
            elif kind == "error" and _error_ok(record):
                log.errors.append(record)
            else:
                log.corrupt_lines += 1
                continue
            log.scan_ids.add(record["scan_id"])
    return log
