"""DNS wire-format codec for cache observation probes.

Implements the RFC 1035 message subset needed to send queries and read
back answer TTLs: header and flag handling (notably the Recursion
Desired bit), length-prefixed label names with decompression, and
A/AAAA/CNAME answer records. Unknown record types and response codes
are preserved opaquely instead of rejected, so that misbehaving servers
can still be analysed. UDP framing only; truncated responses are
surfaced via the header bit, never retried over TCP here.

The decoders read each packet in one pass: fixed-width fields are
unpacked in place at their offsets, and read_name returns a name with
the offset just past it. No cursor object is made, and a packet is
copied only when it is not bytes already (the name memo is keyed by
slices of it). Every bounds, pointer, length and ASCII check is made
on that pass.

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


# The values every packet packs or compares, as plain ints: reading an
# IntEnum member costs a class attribute lookup each time.
TYPE_A, TYPE_CNAME, CLASS_IN, RCODE_NOERROR = 1, 5, 1, 0


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
    truncated: bool = False
    question: DnsQuestion | None = None
    is_response: bool = True  # the QR bit


def encode_query(query: DnsQuery) -> bytes:
    """Encode a query packet: header, flags, one question.

    Only the RD bit is set in flags (when requested); QDCOUNT is 1 and
    the other counts are zero. Raises InvalidName on bad qname.
    """
    if not 0 <= query.id <= 0xFFFF:
        raise ValueError(f"query id out of range: {query.id}")
    flags = FLAG_RD if query.recursion_desired else 0
    return (HEADER.pack(query.id, flags, 1, 0, 0, 0) + encode_name(query.qname)
            + QUESTION_TAIL.pack(query.qtype, query.qclass))


def encode_response(
    query_id: int,
    question: DnsQuestion | DnsQuery | None,
    answers: list[ResourceRecord],
    rcode: int = Rcode.NOERROR,
    recursion_available: bool = True,
    truncated: bool = False,
    recursion_desired: bool = False,
) -> bytes:
    """Encode a response packet (server side); names are not compressed.
    question is any object with qname, qtype and qclass, such as the query."""
    flags = FLAG_QR | (rcode & 0x000F)
    if truncated:
        flags |= FLAG_TC
    if recursion_desired:
        flags |= FLAG_RD
    if recursion_available:
        flags |= FLAG_RA
    qdcount = 1 if question is not None else 0
    packet = HEADER.pack(query_id, flags, qdcount, len(answers), 0, 0)
    if question is not None:
        packet += encode_name(question.qname) + QUESTION_TAIL.pack(question.qtype,
                                                                   question.qclass)
    for rr in answers:
        if not 0 <= rr.ttl <= MAX_TTL:
            raise ValueError(f"record ttl out of range: {rr.ttl}")
        rdata = rr.rdata
        if rr.rtype == TYPE_CNAME and rr.cname_target is not None:
            rdata = encode_name(rr.cname_target)
        packet += (encode_name(rr.name) + RECORD_FIXED.pack(rr.rtype, CLASS_IN, rr.ttl,
                                                            len(rdata)) + rdata)
    return packet


def read_name(data: bytes, pos: int) -> tuple[str, int]:
    """Read a possibly compressed name at pos; returns (name, end).

    Compression pointers must point strictly backwards (before the byte
    where the pointer itself sits); forward pointers and loops raise
    Malformed. end is just past the name's top-level encoding. data
    must be bytes, whose slices key the name memo.
    """
    start = pos
    size = len(data)
    # Fast path: an uncompressed label run decoded before.
    while pos < size:
        length = data[pos]
        if length == 0:
            name = _decoded_names.get(data[start : pos + 1])
            if name is not None:
                return name, pos + 1
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
        if pos >= size:
            raise Malformed("name runs off packet end")
        length = data[pos]
        if length & 0xC0 == 0xC0:
            if pos + 1 >= size:
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
        if pos + 1 + length > size:
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
        return name, pos
    return name, end


def decode_response(packet: bytes) -> DnsResponse:
    """Decode a packet into header fields plus answer records.

    Accepts any packet of at least 12 bytes; authority and additional
    records are parsed for bounds checking but dropped. Unknown record
    types and rcodes pass through untouched. Raises Malformed for any
    structural problem: truncated sections, counts that exceed the
    packet, compression pointers that loop or point forward.
    """
    packet = packet if type(packet) is bytes else bytes(packet)
    size = len(packet)
    if size < 12:
        raise Malformed(f"packet shorter than header: {size} bytes")
    qid, flags, qdcount, ancount, nscount, arcount = HEADER.unpack_from(packet)
    pos = 12
    question = None
    for i in range(qdcount):
        qname, pos = read_name(packet, pos)
        if pos + QUESTION_TAIL.size > size:
            raise Malformed("packet truncated")
        if i == 0:
            question = DnsQuestion(qname, *QUESTION_TAIL.unpack_from(packet, pos))
        pos += QUESTION_TAIL.size
    answers = []
    for i in range(ancount + nscount + arcount):
        name, pos = read_name(packet, pos)
        rd_start = pos + RECORD_FIXED.size
        if rd_start > size:
            raise Malformed("packet truncated")
        # class is kept implicit (IN only in practice)
        rtype, _, ttl, rdlen = RECORD_FIXED.unpack_from(packet, pos)
        if ttl > MAX_TTL:
            raise Malformed(f"ttl above 2^31-1: {ttl}")
        pos = rd_start + rdlen
        if pos > size:
            raise Malformed("packet truncated")
        cname_target = None
        if rtype == TYPE_CNAME:
            # The target may use compression into the enclosing packet, so
            # parse it in place and require it to fill rdata exactly.
            cname_target, cname_end = read_name(packet, rd_start)
            if cname_end != pos:
                raise Malformed("cname rdata length does not match encoded name")
        if i < ancount:
            answers.append(ResourceRecord(name, rtype, ttl, packet[rd_start:pos],
                                          cname_target))

    # Per-probe records are built positionally: keyword arguments make
    # a dataclass __init__ call several times slower.
    return DnsResponse(qid, flags & 0x000F, bool(flags & FLAG_RA), answers,
                       bool(flags & FLAG_TC), question, bool(flags & FLAG_QR))


def decode_query(packet: bytes) -> DnsQuery:
    """Decode an incoming query (server side); requires one question."""
    packet = packet if type(packet) is bytes else bytes(packet)
    if len(packet) < 12:
        raise Malformed(f"packet shorter than header: {len(packet)} bytes")
    qid, flags, qdcount, _, _, _ = HEADER.unpack_from(packet)
    if qdcount != 1:
        raise Malformed(f"expected exactly one question, got {qdcount}")
    qname, pos = read_name(packet, 12)
    if pos + QUESTION_TAIL.size > len(packet):
        raise Malformed("packet truncated")
    qtype, qclass = QUESTION_TAIL.unpack_from(packet, pos)
    return DnsQuery(qid, qname, qtype, qclass, bool(flags & FLAG_RD))


def min_answer_ttl(response: DnsResponse, qname: str) -> int | None:
    """Smallest TTL among answers relevant to qname, following CNAMEs.

    Walks the CNAME chain starting at qname, collecting the TTL of every
    record on the chain (aliases and terminal address records alike).
    Returns None when no answer matches the chain.
    """
    current = normalize_name(qname)
    seen = None  # the chain's names, made at its first CNAME
    smallest = None
    while True:
        next_name = None
        for rr in response.answers:
            # decoded names are already normal, so compare before normalizing
            if rr.name != current and normalize_name(rr.name) != current:
                continue
            if smallest is None or rr.ttl < smallest:
                smallest = rr.ttl
            if rr.rtype == TYPE_CNAME and rr.cname_target and next_name is None:
                if seen is None:
                    seen = {current}
                candidate = normalize_name(rr.cname_target)
                if candidate not in seen:
                    next_name = candidate
        if next_name is None:
            return smallest
        current = next_name
        seen.add(current)
