"""DNS wire-format codec for cache observation probes.

Implements the RFC 1035 message subset needed to send queries and read
back answer TTLs: header and flag handling (notably the Recursion
Desired bit), length-prefixed label names with decompression, and
A/AAAA/CNAME answer records. Unknown record types and response codes
are preserved opaquely instead of rejected, so that misbehaving servers
can still be analysed. UDP framing only; truncated responses are
surfaced via the header bit, never retried over TCP here.

A scan sends the same short list of names over and over, so the codec
keeps two name memos: the wire bytes of each name string given to
encode_name, and the decoded name of each uncompressed label run read
from a packet. Only names that pass every check are stored, so invalid
names and malformed runs are rejected on every call. Each memo holds at
most NAME_MEMO_SIZE entries and is emptied when an insert overfills it.
Both are shared by every thread and touched only by single dict reads,
writes and clears, which need no lock.
"""

import struct
from dataclasses import dataclass, field
from enum import IntEnum

MAX_LABEL_LEN = 63
MAX_NAME_WIRE_LEN = 255
MAX_TTL = 2**31 - 1  # TTLs with the top bit set are a protocol error
NAME_MEMO_SIZE = 65536

HEADER = struct.Struct(">HHHHHH")
QUESTION_TAIL = struct.Struct(">HH")  # qtype, qclass
RECORD_FIXED = struct.Struct(">HHIH")  # rtype, class, ttl, rdlength

FLAG_QR = 0x8000
FLAG_AA = 0x0400
FLAG_TC = 0x0200
FLAG_RD = 0x0100
FLAG_RA = 0x0080


class RecordType(IntEnum):
    A = 1
    CNAME = 5
    AAAA = 28


class RecordClass(IntEnum):
    IN = 1


class Rcode(IntEnum):
    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    REFUSED = 5


class InvalidName(ValueError):
    """Domain name violates label or total length rules."""


class Malformed(ValueError):
    """Packet bytes cannot be decoded safely."""


_LABEL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")


def normalize_name(name: str) -> str:
    """Lowercase a domain name and strip one trailing dot.

    Names differing only in ASCII case compare equal after this; no
    validation is performed here.
    """
    name = name.lower()
    if name.endswith("."):
        name = name[:-1]
    return name


def validate_name(name: str) -> str:
    """Normalize a name and check label/length rules.

    Returns the normalized form or raises InvalidName. Labels must be
    1..63 bytes of ASCII letters, digits, hyphen or underscore, and the
    encoded form must fit in 255 bytes.
    """
    norm = normalize_name(name)
    if not norm:
        raise InvalidName("empty name")
    labels = norm.split(".")
    wire_len = 1  # root terminator
    for label in labels:
        if not label:
            raise InvalidName(f"empty label in {name!r}")
        if len(label) > MAX_LABEL_LEN:
            raise InvalidName(f"label longer than {MAX_LABEL_LEN} bytes in {name!r}")
        if not set(label) <= _LABEL_CHARS:
            raise InvalidName(f"disallowed characters in {name!r}")
        wire_len += 1 + len(label)
    if wire_len > MAX_NAME_WIRE_LEN:
        raise InvalidName(f"name exceeds {MAX_NAME_WIRE_LEN} bytes on the wire: {name!r}")
    return norm


_encoded_names: dict[str, bytes] = {}
_decoded_names: dict[bytes, str] = {}


def _remember(memo: dict, key, value) -> None:
    memo[key] = value
    if len(memo) > NAME_MEMO_SIZE:
        memo.clear()


def encode_name(name: str) -> bytes:
    """Encode a validated name as length-prefixed labels, uncompressed."""
    encoded = _encoded_names.get(name)
    if encoded is None:
        out = bytearray()
        for label in validate_name(name).split("."):
            out.append(len(label))
            out += label.encode("ascii")
        out.append(0)
        encoded = bytes(out)
        _remember(_encoded_names, name, encoded)
    return encoded


@dataclass(slots=True)
class DnsQuery:
    """A single question to send: one name, one record type."""

    id: int
    qname: str
    qtype: int = RecordType.A
    qclass: int = RecordClass.IN
    recursion_desired: bool = True


@dataclass(slots=True)
class DnsQuestion:
    """Question section entry as echoed back by a server."""

    qname: str
    qtype: int = RecordType.A
    qclass: int = RecordClass.IN


@dataclass(slots=True)
class ResourceRecord:
    """One answer record; rdata stays opaque except for CNAME targets."""

    name: str
    rtype: int
    ttl: int
    rdata: bytes
    cname_target: str | None = None


@dataclass(slots=True)
class DnsResponse:
    """Decoded response header plus the answer section."""

    id: int
    rcode: int
    recursion_available: bool
    answers: list[ResourceRecord] = field(default_factory=list)
    authoritative: bool = False
    truncated: bool = False
    question: DnsQuestion | None = None


def encode_query(query: DnsQuery) -> bytes:
    """Encode a query packet: header, flags, one question.

    Only the RD bit is set in flags (when requested); QDCOUNT is 1 and
    the other counts are zero. Raises InvalidName on bad qname.
    """
    if not 0 <= query.id <= 0xFFFF:
        raise ValueError(f"query id out of range: {query.id}")
    flags = FLAG_RD if query.recursion_desired else 0
    header = HEADER.pack(query.id, flags, 1, 0, 0, 0)
    question = encode_name(query.qname) + QUESTION_TAIL.pack(query.qtype, query.qclass)
    return header + question


def encode_response(
    query_id: int,
    question: DnsQuestion | None,
    answers: list[ResourceRecord],
    rcode: int = Rcode.NOERROR,
    recursion_available: bool = True,
    authoritative: bool = False,
    truncated: bool = False,
    recursion_desired: bool = False,
) -> bytes:
    """Encode a response packet (server side); names are not compressed."""
    flags = FLAG_QR | (rcode & 0x000F)
    if authoritative:
        flags |= FLAG_AA
    if truncated:
        flags |= FLAG_TC
    if recursion_desired:
        flags |= FLAG_RD
    if recursion_available:
        flags |= FLAG_RA
    qdcount = 1 if question is not None else 0
    out = bytearray(HEADER.pack(query_id, flags, qdcount, len(answers), 0, 0))
    if question is not None:
        out += encode_name(question.qname)
        out += QUESTION_TAIL.pack(question.qtype, question.qclass)
    for rr in answers:
        if not 0 <= rr.ttl <= MAX_TTL:
            raise ValueError(f"record ttl out of range: {rr.ttl}")
        rdata = rr.rdata
        if rr.rtype == RecordType.CNAME and rr.cname_target is not None:
            rdata = encode_name(rr.cname_target)
        out += encode_name(rr.name)
        out += RECORD_FIXED.pack(rr.rtype, RecordClass.IN, rr.ttl, len(rdata))
        out += rdata
    return bytes(out)


class _Reader:
    """Bounds-checked cursor over a packet; every overrun is Malformed."""

    def __init__(self, data: bytes):
        self.data = bytes(data)  # hashable slices for the name memo
        self.pos = 0

    def fields(self, layout: struct.Struct) -> tuple:
        """Read fixed-width fields in one call."""
        pos = self.pos
        end = pos + layout.size
        if end > len(self.data):
            raise Malformed("packet truncated")
        self.pos = end
        return layout.unpack_from(self.data, pos)

    def take(self, n: int) -> bytes:
        pos = self.pos
        end = pos + n
        if end > len(self.data):
            raise Malformed("packet truncated")
        self.pos = end
        return self.data[pos:end]

    def read_name(self) -> str:
        """Read a possibly compressed name starting at the cursor.

        Compression pointers must point strictly backwards (before the
        byte where the pointer itself sits); forward pointers and loops
        raise Malformed. The cursor ends just past the name's top-level
        encoding.
        """
        data = self.data
        start = pos = self.pos
        # Fast path: an uncompressed label run decoded before.
        while pos < len(data):
            length = data[pos]
            if length == 0:
                name = _decoded_names.get(data[start : pos + 1])
                if name is not None:
                    self.pos = pos + 1
                    return name
                break
            if length & 0xC0:
                break
            pos += 1 + length
        labels: list[str] = []
        pos = start
        end = -1  # top-level resume position once the first pointer is taken
        jumps = 0
        decoded_len = 1
        while True:
            if pos >= len(data):
                raise Malformed("name runs off packet end")
            length = data[pos]
            if length & 0xC0 == 0xC0:
                if pos + 1 >= len(data):
                    raise Malformed("dangling compression pointer")
                target = ((length & 0x3F) << 8) | data[pos + 1]
                if target >= pos:
                    raise Malformed("compression pointer does not point backwards")
                if end < 0:
                    end = pos + 2
                jumps += 1
                if jumps > 64:
                    raise Malformed("compression pointer chain too long")
                pos = target
                continue
            if length & 0xC0:
                raise Malformed(f"reserved label type 0x{length:02x}")
            if length == 0:
                pos += 1
                break
            if pos + 1 + length > len(data):
                raise Malformed("label runs off packet end")
            decoded_len += 1 + length
            if decoded_len > MAX_NAME_WIRE_LEN:
                raise Malformed("decoded name exceeds 255 bytes")
            raw = data[pos + 1 : pos + 1 + length]
            try:
                labels.append(raw.decode("ascii").lower())
            except UnicodeDecodeError as exc:
                raise Malformed("non-ascii bytes in label") from exc
            pos += 1 + length
        name = ".".join(labels)
        if end < 0:
            _remember(_decoded_names, data[start:pos], name)
            self.pos = pos
        else:
            self.pos = end
        return name


def _parse_record(reader: _Reader) -> ResourceRecord:
    name = reader.read_name()
    # class is kept implicit (IN only in practice)
    rtype, _, ttl, rdlen = reader.fields(RECORD_FIXED)
    if ttl > MAX_TTL:
        raise Malformed(f"ttl above 2^31-1: {ttl}")
    rd_start = reader.pos
    rdata = reader.take(rdlen)
    cname_target = None
    if rtype == RecordType.CNAME:
        # The target may use compression into the enclosing packet, so
        # parse it in place and require it to fill rdata exactly.
        sub = _Reader(reader.data)
        sub.pos = rd_start
        cname_target = sub.read_name()
        if sub.pos != rd_start + rdlen:
            raise Malformed("cname rdata length does not match encoded name")
    return ResourceRecord(name, rtype, ttl, rdata, cname_target)


def decode_response(packet: bytes) -> DnsResponse:
    """Decode a packet into header fields plus answer records.

    Accepts any packet of at least 12 bytes; authority and additional
    records are parsed for bounds checking but dropped. Unknown record
    types and rcodes pass through untouched. Raises Malformed for any
    structural problem: truncated sections, counts that exceed the
    packet, compression pointers that loop or point forward.
    """
    if len(packet) < 12:
        raise Malformed(f"packet shorter than header: {len(packet)} bytes")
    reader = _Reader(packet)
    qid, flags, qdcount, ancount, nscount, arcount = reader.fields(HEADER)

    question = None
    for i in range(qdcount):
        qname = reader.read_name()
        qtype, qclass = reader.fields(QUESTION_TAIL)
        if i == 0:
            question = DnsQuestion(qname, qtype, qclass)
    answers = [_parse_record(reader) for _ in range(ancount)]
    for _ in range(nscount + arcount):
        _parse_record(reader)

    # Per-probe records are built positionally: keyword arguments make
    # a dataclass __init__ call several times slower.
    return DnsResponse(qid, flags & 0x000F, bool(flags & FLAG_RA), answers,
                       bool(flags & FLAG_AA), bool(flags & FLAG_TC), question)


def decode_query(packet: bytes) -> DnsQuery:
    """Decode an incoming query (server side); requires one question."""
    if len(packet) < 12:
        raise Malformed(f"packet shorter than header: {len(packet)} bytes")
    reader = _Reader(packet)
    qid, flags, qdcount, _, _, _ = reader.fields(HEADER)
    if qdcount != 1:
        raise Malformed(f"expected exactly one question, got {qdcount}")
    qname = reader.read_name()
    qtype, qclass = reader.fields(QUESTION_TAIL)
    return DnsQuery(qid, qname, qtype, qclass, bool(flags & FLAG_RD))


def min_answer_ttl(response: DnsResponse, qname: str) -> int | None:
    """Smallest TTL among answers relevant to qname, following CNAMEs.

    Walks the CNAME chain starting at qname, collecting the TTL of every
    record on the chain (aliases and terminal address records alike).
    Returns None when no answer matches the chain.
    """
    current = normalize_name(qname)
    seen = {current}
    ttls: list[int] = []
    progressed = True
    while progressed:
        progressed = False
        next_name = None
        for rr in response.answers:
            if normalize_name(rr.name) != current:
                continue
            ttls.append(rr.ttl)
            if rr.rtype == RecordType.CNAME and rr.cname_target and next_name is None:
                candidate = normalize_name(rr.cname_target)
                if candidate not in seen:
                    next_name = candidate
        if next_name is not None:
            current = next_name
            seen.add(current)
            progressed = True
    if not ttls:
        return None
    return min(ttls)
