"""The packet decoders against a reference: a cursor-object decoder that
reads one field at a time, kept here as it stood before wire read each
packet in one pass. Over a seeded corpus the two must agree: an equal
result, or Malformed from both."""

import random
import struct

from snoopdns import wire
from snoopdns.wire import (FLAG_QR, FLAG_RA, FLAG_RD, FLAG_TC, HEADER, MAX_NAME_WIRE_LEN,
                           MAX_TTL, QUESTION_TAIL, RECORD_FIXED, DnsQuery, DnsQuestion,
                           DnsResponse, Malformed, RecordType, ResourceRecord)


class _Reader:
    """Bounds-checked cursor over a packet; every overrun is Malformed.
    Unlike the codec it keeps no name memo."""

    def __init__(self, data: bytes):
        self.data = bytes(data)
        self.pos = 0

    def fields(self, layout: struct.Struct) -> tuple:
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
        data = self.data
        pos = self.pos
        labels: list[str] = []
        end = -1
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
        self.pos = pos if end < 0 else end
        return ".".join(labels)


def _parse_record(reader: _Reader) -> ResourceRecord:
    name = reader.read_name()
    rtype, _, ttl, rdlen = reader.fields(RECORD_FIXED)
    if ttl > MAX_TTL:
        raise Malformed(f"ttl above 2^31-1: {ttl}")
    rd_start = reader.pos
    rdata = reader.take(rdlen)
    cname_target = None
    if rtype == RecordType.CNAME:
        sub = _Reader(reader.data)
        sub.pos = rd_start
        cname_target = sub.read_name()
        if sub.pos != rd_start + rdlen:
            raise Malformed("cname rdata length does not match encoded name")
    return ResourceRecord(name, rtype, ttl, rdata, cname_target)


def reference_decode_response(packet: bytes) -> DnsResponse:
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
    return DnsResponse(qid, flags & 0x000F, bool(flags & FLAG_RA), answers,
                       bool(flags & FLAG_TC), question, bool(flags & FLAG_QR))


def reference_decode_query(packet: bytes) -> DnsQuery:
    if len(packet) < 12:
        raise Malformed(f"packet shorter than header: {len(packet)} bytes")
    reader = _Reader(packet)
    qid, flags, qdcount, _, _, _ = reader.fields(HEADER)
    if qdcount != 1:
        raise Malformed(f"expected exactly one question, got {qdcount}")
    qname = reader.read_name()
    qtype, qclass = reader.fields(QUESTION_TAIL)
    return DnsQuery(qid, qname, qtype, qclass, bool(flags & FLAG_RD))


def _outcome(decode, blob: bytes):
    try:
        return decode(blob)
    except Malformed:
        return Malformed


def _round_trip_packets(rng: random.Random) -> list[bytes]:
    """The acceptance gate's 1000 query and response round trips."""
    letters = "abcdefghijklmnopqrstuvwxyz0123456789-"
    packets = []
    for _ in range(1000):
        labels = [("".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
                   .strip("-") or "x")
                  for _ in range(rng.randint(1, 4))]
        name = wire.normalize_name(".".join(labels))
        ident = rng.randrange(0x10000)
        packets.append(wire.encode_query(wire.DnsQuery(
            id=ident, qname=name, recursion_desired=rng.random() < 0.5)))
        answers = [wire.ResourceRecord(name=name, rtype=wire.RecordType.A,
                                       ttl=rng.randrange(0, 86400), rdata=rng.randbytes(4))
                   for _ in range(rng.randint(0, 3))]
        packets.append(wire.encode_response(ident, wire.DnsQuestion(qname=name), answers,
                                            recursion_available=rng.random() < 0.5))
    return packets


def _compressed_cname_packets() -> list[bytes]:
    """Responses whose CNAME owners and targets point back into the packet,
    one with a pointer chain and one with an authority record."""
    head = HEADER.pack(0xBEEF, FLAG_QR | FLAG_RA | FLAG_RD, 1, 2, 0, 0)
    question = wire.encode_name("www.a.bc") + QUESTION_TAIL.pack(1, 1)  # name at offset 12
    # owner: pointer to the question name; target: "cdn" then a pointer to "a.bc" (offset 16)
    cname_rdata = b"\x03cdn\xc0\x10"
    cname = b"\xc0\x0c" + RECORD_FIXED.pack(5, 1, 300, len(cname_rdata)) + cname_rdata
    target_at = len(head) + len(question) + 2 + RECORD_FIXED.size  # "cdn.a.bc"
    address = (struct.pack(">H", 0xC000 | target_at) + RECORD_FIXED.pack(1, 1, 60, 4)
               + b"\x0a\x00\x00\x01")
    packets = [head + question + cname + address]
    # a chain: the A owner points at a pointer
    chained = struct.pack(">H", 0xC000 | (target_at + 4))
    chain_head = HEADER.pack(7, FLAG_QR, 1, 2, 0, 0)
    packets.append(chain_head + question + cname
                   + chained + RECORD_FIXED.pack(1, 1, 60, 4) + b"\x0a\x00\x00\x02")
    # an authority record after the answers is parsed, then dropped
    ns_head = HEADER.pack(8, FLAG_QR, 1, 1, 1, 0)
    packets.append(ns_head + question + cname
                   + b"\xc0\x10" + RECORD_FIXED.pack(5, 1, 30, 2) + b"\xc0\x0c")
    # rdata one byte longer than the encoded target
    long_rdata = cname_rdata + b"\x00"
    packets.append(head[:6] + b"\x00\x01\x00\x00\x00\x00" + question + b"\xc0\x0c"
                   + RECORD_FIXED.pack(5, 1, 300, len(long_rdata)) + long_rdata)
    packets.append(wire.encode_response(
        0xBEEF, wire.DnsQuestion(qname="www.a.bc"),
        [wire.ResourceRecord("www.a.bc", wire.RecordType.CNAME, 300, b"",
                             cname_target="a.bc"),
         wire.ResourceRecord("a.bc", wire.RecordType.A, 60, b"\x0a\0\0\x01")]))
    return packets


def _corpus() -> list[bytes]:
    rng = random.Random(0xFACE)
    valid = _round_trip_packets(rng) + _compressed_cname_packets()
    corpus = list(valid)
    for packet in valid[-200:]:
        corpus += [packet[:cut] for cut in range(len(packet))]
    base = valid[1999]  # the last round-trip response, as the acceptance gate mutates
    for i in range(20_000):
        if i % 2 == 0:
            corpus.append(rng.randbytes(rng.randint(0, 256)))
        else:
            mutated = bytearray(base if i % 4 == 1 else valid[2000 + i % 5])
            for _ in range(rng.randint(1, 6)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            corpus.append(bytes(mutated[:rng.randint(1, len(mutated))]))
    return corpus


def test_decoders_agree_with_the_reference_on_a_seeded_corpus():
    corpus = _corpus()
    for cname in _compressed_cname_packets()[:3]:
        decoded = reference_decode_response(cname)
        assert decoded.answers[0].cname_target == "cdn.a.bc"
    outcomes = {"decoded": 0, "malformed": 0}
    for warm in (False, True):  # the name memo cold for each packet, then warm
        for blob in corpus:
            if not warm:
                wire._decoded_names.clear()
            for decode, reference in ((wire.decode_response, reference_decode_response),
                                      (wire.decode_query, reference_decode_query)):
                expected = _outcome(reference, blob)
                assert _outcome(decode, blob) == expected, blob.hex()
                outcomes["malformed" if expected is Malformed else "decoded"] += 1
    # both outcomes are well represented, so neither side is vacuous
    assert min(outcomes.values()) > 10_000, outcomes
