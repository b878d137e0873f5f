"""Domain corpora and observation persistence.

Input side: domain lists arrive either as plain text (one name per
line, # comments) or as CSV ranking exports with a domain column, and
load as their valid names plus a count of the names skipped. Whether
a name resolves is not checked here: discovery drops one that gives no
usable answer FAILURE_LIMIT times in a row.
Output side: observations stream to JSON Lines, one self-contained
record per line, so a crashed or interrupted scan loses at most the
line being written and partial logs stay loadable.
"""

import csv
import json
import threading
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import TextIO

from . import wire
from .engine import CycleError, RefreshObservation

SCHEMA_VERSION = 1
# the fields every record carries as a JSON string
_TEXT_KEYS = ("server", "domain", "method", "scan_id")


class ParseError(ValueError):
    """Input file cannot be understood; message carries the line number."""


def load_domain_list(path: str) -> tuple[list[str], int]:
    """Read a domain list as (names, skipped).

    Blank lines and # comments are ignored. When the first other line
    is a CSV header with a domain cell, that column holds the names, and
    rows whose cells are all blank are passed over; otherwise the file
    holds one name per line. Each name is validated and normalized;
    invalid names and repeats are skipped and counted, and a repeat
    keeps its first place.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = [line for line in handle.read().splitlines()
                 if line.strip()[:1] not in ("", "#")]
    rows = csv.reader(lines)
    header = [cell.strip().strip('"').lower() for cell in next(rows, [])]
    raw = lines
    if "domain" in header:
        column = header.index("domain")
        # a row too short to reach the column holds the empty, invalid name
        raw = (row[column] if column < len(row) else ""
               for row in rows if any(cell.strip() for cell in row))
    names: dict[str, None] = {}
    skipped = 0
    for text in raw:
        try:
            name = wire.validate_name(text.strip())
        except wire.InvalidName:
            name = None
        if name is None or name in names:
            skipped += 1
        else:
            names[name] = None
    return list(names), skipped


def record_line(item: "RefreshObservation | CycleError", scan_id: str) -> str:
    """The JSONL line, newline included, that logs one record.

    The layout is fixed and equals json.dumps(record, sort_keys=True) of
    the record's dict: sorted keys, ", " and ": " separators, strings
    escaped to ASCII, numbers as repr with NaN, Infinity and -Infinity,
    and true, false and null. A field declared str must hold a str. An
    observation's censored is true exactly when its delay is None; else
    its event holds delay_after_expiry (the delay) and
    inferred_refresh_time (window_start + delay).
    """
    if isinstance(item, RefreshObservation):
        return _observation_line(item, _observation_template(
            item.server, item.domain, item.method, scan_id))
    if isinstance(item, CycleError):
        text = encode_basestring_ascii
        return (f'{{"at": {json.dumps(item.at)}, "domain": {text(item.domain)}, '
                f'"error_kind": {text(item.kind)}, "kind": "error", '
                f'"message": {text(item.message)}, "method": {text(item.method)}, '
                f'"scan_id": {text(scan_id)}, "schema_version": {SCHEMA_VERSION}, '
                f'"server": {text(item.server)}}}\n')
    raise TypeError(f"cannot log a {type(item).__name__}")


def _observation_template(server: str, domain: str, method: str, scan_id: str) -> str:
    """An observation line with %s for its censored flag, event,
    probe_rtt_ms, window_length and window_start: the same for every
    observation of one server, domain and method."""
    def text(value: str) -> str:
        return encode_basestring_ascii(value).replace("%", "%%")
    return (f'{{"censored": %s, "domain": {text(domain)}, "event": %s, '
            f'"kind": "observation", "method": {text(method)}, "probe_rtt_ms": %s, '
            f'"scan_id": {text(scan_id)}, "schema_version": {SCHEMA_VERSION}, '
            f'"server": {text(server)}, "window_length": %s, "window_start": %s}}\n')


def _observation_line(item: RefreshObservation, template: str) -> str:
    start, length, rtt = item.window_start, item.window_length, item.probe_rtt_ms
    delay = item.delay
    refresh = 0.0 if delay is None else start + delay
    if (type(start) is type(length) is type(rtt) is type(refresh) is float
            and (delay is None or type(delay) is float)
            and isfinite(start + length + rtt + refresh)):
        # the usual record: repr writes a finite float as json.dumps does
        number = repr
    else:
        number = json.dumps
    event = "null" if delay is None else (
        f'{{"delay_after_expiry": {number(delay)}, '
        f'"inferred_refresh_time": {number(refresh)}}}')
    return template % ("true" if delay is None else "false", event,
                       number(rtt), number(length), number(start))


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
        event = record["event"]
        if censored != (event is None):
            raise ValueError("observation must be censored or carry an event, not both")
        start = _number(record["window_start"])
        length = _number(record["window_length"])
        delay = None
        if event is not None:
            delay = _number(event["delay_after_expiry"])
            # the line repeats start + delay; only its range is checked
            refresh = _number(event["inferred_refresh_time"])
            if not start - 1e-9 <= refresh <= start + length + 1e-9:
                raise ValueError("inferred refresh time outside the window")
        observation = RefreshObservation(
            server=_text(record["server"]),
            domain=_text(record["domain"]),
            method=_text(record["method"]),
            window_start=start,
            window_length=length,
            probe_rtt_ms=_number(record["probe_rtt_ms"]),
            delay=delay)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed observation record: {exc}") from exc
    observation.validate()
    return observation


class ObservationWriter:
    """Append-only JSONL sink, one flushed line per record.

    Each line has the fixed layout of record_line. An observation line's
    text around its numbers is kept per (server, domain, method) for the
    writer's life, so a repeat formats only the numbers. A lock
    serializes writers so concurrent probing threads cannot tear lines;
    flushing per record bounds loss on a crash to the final line.
    """

    def __init__(self, out: TextIO, scan_id: str):
        self.out = out
        self.scan_id = scan_id
        self.records_written = 0
        self._lock = threading.Lock()
        self._templates: dict[tuple[str, str, str], str] = {}

    def write(self, item: "RefreshObservation | CycleError") -> None:
        if type(item) is RefreshObservation:
            key = (item.server, item.domain, item.method)
            template = self._templates.get(key)
            if template is None:
                template = self._templates[key] = _observation_template(*key, self.scan_id)
            line = _observation_line(item, template)
        else:
            line = record_line(item, self.scan_id)
        with self._lock:
            self.out.write(line)
            self.out.flush()
            self.records_written += 1


@dataclass
class ObservationLog:
    """Result of reading a JSONL log back."""

    observations: list[RefreshObservation] = field(default_factory=list)
    errors: list[CycleError] = field(default_factory=list)
    corrupt_lines: int = 0
    scan_ids: set[str] = field(default_factory=set)


def load_observations(path: str) -> ObservationLog:
    """Read a JSONL observation log, skipping corrupt lines.

    Corrupt means undecodable JSON, an unknown kind, a bad schema
    version, a server, domain, method or scan_id that is not a JSON
    string, an error record without a string error_kind and message and
    a JSON-number at, or a record failing observation validation; each
    is counted, never fatal, so partial logs from interrupted scans load.
    Error records load as CycleError, `at` as the number the line holds,
    so each writes back to its own line through record_line. A load
    shares one string per distinct server, domain, method, scan id.
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
                log.errors.append(CycleError(
                    record["server"], record["domain"], record["method"], record["at"],
                    record["error_kind"], record["message"]))
            else:
                log.corrupt_lines += 1
                continue
            log.scan_ids.add(record["scan_id"])
    return log
