"""Wire codec: frozen byte layouts, round trips, hostile packets."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snoopdns import wire

LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1,
                max_size=12)
NAMES = st.lists(LABEL, min_size=1, max_size=4).map(".".join).filter(
    lambda n: len(n) + 2 <= wire.MAX_NAME_WIRE_LEN)


def test_query_wire_bytes_frozen():
    # hand-assembled reference packet: id 0x1234, RD=1, one A/IN question
    packet = wire.encode_query(wire.DnsQuery(id=0x1234, qname="a.bc"))
    assert packet.hex() == ("1234" "0100" "0001" "0000" "0000" "0000"
                            "0161" "026263" "00" "0001" "0001")


def test_rd0_clears_the_recursion_flag():
    packet = wire.encode_query(
        wire.DnsQuery(id=7, qname="a.bc", recursion_desired=False))
    flags = struct.unpack(">H", packet[2:4])[0]
    assert flags & wire.FLAG_RD == 0
    assert flags == 0


def test_header_is_twelve_bytes_and_counts():
    packet = wire.encode_query(wire.DnsQuery(id=1, qname="example.com"))
    ident, flags, qd, an, ns, ar = wire.HEADER.unpack(packet[:12])
    assert (ident, qd, an, ns, ar) == (1, 1, 0, 0, 0)


@given(st.integers(0, 0xFFFF), NAMES, st.booleans(),
       st.sampled_from([wire.RecordType.A, wire.RecordType.AAAA]))
def test_query_round_trip(ident, name, rd, qtype):
    query = wire.DnsQuery(id=ident, qname=name, qtype=qtype, recursion_desired=rd)
    decoded = wire.decode_query(wire.encode_query(query))
    assert decoded.id == ident
    assert decoded.qname == wire.normalize_name(name)
    assert decoded.qtype == qtype
    assert decoded.recursion_desired == rd


@given(st.integers(0, 0xFFFF), NAMES,
       st.lists(st.tuples(st.integers(0, wire.MAX_TTL), st.integers(0, 0xFFFFFFFF)),
                min_size=0, max_size=5),
       st.booleans(), st.sampled_from(list(wire.Rcode)))
def test_response_round_trip(ident, name, records, ra, rcode):
    answers = [wire.ResourceRecord(name=name, rtype=wire.RecordType.A, ttl=ttl,
                                   rdata=struct.pack(">I", addr))
               for ttl, addr in records]
    packet = wire.encode_response(
        ident, wire.DnsQuestion(qname=name), answers, rcode=rcode,
        recursion_available=ra)
    decoded = wire.decode_response(packet)
    assert decoded.id == ident
    assert decoded.rcode == rcode
    assert decoded.recursion_available == ra
    assert [(rr.ttl, rr.rdata) for rr in decoded.answers] == \
        [(rr.ttl, rr.rdata) for rr in answers]
    assert all(rr.name == wire.normalize_name(name) for rr in decoded.answers)


def test_cname_target_survives_round_trip():
    answers = [
        wire.ResourceRecord(name="www.example.com", rtype=wire.RecordType.CNAME,
                            ttl=300, rdata=b"", cname_target="cdn.example.net"),
        wire.ResourceRecord(name="cdn.example.net", rtype=wire.RecordType.A,
                            ttl=60, rdata=bytes([10, 0, 0, 1])),
    ]
    packet = wire.encode_response(
        5, wire.DnsQuestion(qname="www.example.com"), answers)
    decoded = wire.decode_response(packet)
    assert decoded.answers[0].cname_target == "cdn.example.net"
    assert decoded.answers[1].rdata == bytes([10, 0, 0, 1])


class TestMinAnswerTtl:
    def _response(self, answers):
        return wire.DnsResponse(id=1, rcode=wire.Rcode.NOERROR,
                                recursion_available=True, answers=answers)

    def test_direct_address_record(self):
        rrs = [wire.ResourceRecord("a.bc", wire.RecordType.A, 42, b"\0\0\0\0")]
        assert wire.min_answer_ttl(self._response(rrs), "a.bc") == 42

    def test_follows_cname_chain_and_takes_the_minimum(self):
        rrs = [
            wire.ResourceRecord("a.bc", wire.RecordType.CNAME, 500, b"",
                                cname_target="b.cd"),
            wire.ResourceRecord("b.cd", wire.RecordType.A, 30, b"\0\0\0\0"),
        ]
        assert wire.min_answer_ttl(self._response(rrs), "a.bc") == 30

    def test_unrelated_answers_are_ignored(self):
        rrs = [wire.ResourceRecord("other.bc", wire.RecordType.A, 5, b"\0\0\0\0")]
        assert wire.min_answer_ttl(self._response(rrs), "a.bc") is None

    def test_cname_loop_terminates(self):
        rrs = [
            wire.ResourceRecord("a.bc", wire.RecordType.CNAME, 10, b"",
                                cname_target="b.cd"),
            wire.ResourceRecord("b.cd", wire.RecordType.CNAME, 20, b"",
                                cname_target="a.bc"),
        ]
        assert wire.min_answer_ttl(self._response(rrs), "a.bc") == 10

    def test_empty_answer_section(self):
        assert wire.min_answer_ttl(self._response([]), "a.bc") is None

    def test_name_comparison_is_case_insensitive(self):
        rrs = [wire.ResourceRecord("A.BC.", wire.RecordType.A, 7, b"\0\0\0\0")]
        assert wire.min_answer_ttl(self._response(rrs), "a.bc") == 7


class TestNameValidation:
    def test_normalization_lowers_and_strips_one_root_dot(self):
        assert wire.normalize_name("WWW.Example.COM.") == "www.example.com"

    def test_max_label_length_boundary(self):
        ok = "a" * wire.MAX_LABEL_LEN
        assert wire.validate_name(f"{ok}.bc") == f"{ok}.bc"
        with pytest.raises(wire.InvalidName):
            wire.validate_name("a" * (wire.MAX_LABEL_LEN + 1) + ".bc")

    def test_total_wire_length_cap(self):
        label = "a" * 60
        name = ".".join([label] * 4)  # 4*61+1 = 245 wire bytes, fits
        assert wire.validate_name(name) == name
        too_long = ".".join([label] * 5)
        with pytest.raises(wire.InvalidName):
            wire.validate_name(too_long)

    @pytest.mark.parametrize("bad", ["", ".", "a..b", "-oops!", "sp ace.com",
                                     "uniçode.com", "a.b\x00c"])
    def test_rejected_names(self, bad):
        with pytest.raises(wire.InvalidName):
            wire.validate_name(bad)


class TestHostilePackets:
    def _response_with_answer_name(self, name_bytes: bytes,
                                   ttl: int = 60) -> bytes:
        head = wire.HEADER.pack(0xBEEF, wire.FLAG_QR, 1, 1, 0, 0)
        question = wire.encode_name("a.bc") + struct.pack(">HH", 1, 1)
        record = (name_bytes + struct.pack(">HHIH", 1, 1, ttl, 4) + b"\x7f\x00\x00\x01")
        return head + question + record

    def test_short_packet(self):
        with pytest.raises(wire.Malformed):
            wire.decode_response(b"\x00" * 11)

    def test_backward_compression_pointer_resolves(self):
        # answer name points back at the question name (offset 12)
        packet = self._response_with_answer_name(b"\xc0\x0c")
        decoded = wire.decode_response(packet)
        assert decoded.answers[0].name == "a.bc"

    def test_forward_pointer_rejected(self):
        # points at itself; forward/self jumps can never terminate
        offset = 12 + len(wire.encode_name("a.bc")) + 4
        packet = self._response_with_answer_name(struct.pack(">H", 0xC000 | offset))
        with pytest.raises(wire.Malformed):
            wire.decode_response(packet)

    def test_pointer_past_the_packet_rejected(self):
        packet = self._response_with_answer_name(b"\xc3\xe8")
        with pytest.raises(wire.Malformed):
            wire.decode_response(packet)

    def test_ttl_above_signed_31_bit_range_rejected(self):
        packet = self._response_with_answer_name(b"\xc0\x0c", ttl=2**31)
        with pytest.raises(wire.Malformed):
            wire.decode_response(packet)
        fine = self._response_with_answer_name(b"\xc0\x0c", ttl=wire.MAX_TTL)
        assert wire.decode_response(fine).answers[0].ttl == wire.MAX_TTL

    def test_rdlength_running_past_the_end_rejected(self):
        head = wire.HEADER.pack(1, wire.FLAG_QR, 1, 1, 0, 0)
        question = wire.encode_name("a.bc") + struct.pack(">HH", 1, 1)
        record = wire.encode_name("a.bc") + struct.pack(">HHIH", 1, 1, 60, 400) + b"xy"
        with pytest.raises(wire.Malformed):
            wire.decode_response(head + question + record)

    def test_truncated_mid_question_rejected(self):
        whole = wire.encode_query(wire.DnsQuery(id=3, qname="abc.example.com"))
        for cut in range(12, len(whole) - 1):
            with pytest.raises(wire.Malformed):
                wire.decode_query(whole[:cut])

    def test_label_runs_past_the_end_rejected(self):
        head = wire.HEADER.pack(1, 0x0100, 1, 0, 0, 0)
        with pytest.raises(wire.Malformed):
            wire.decode_query(head + b"\x3fabc" + b"\x00\x00\x01\x00\x01")

    def test_fuzz_decoder_never_crashes(self):
        rng = random.Random(0xF0220)
        outcomes = {"ok": 0, "malformed": 0}
        for _ in range(5000):
            size = rng.randrange(0, 80)
            blob = rng.randbytes(size)
            try:
                wire.decode_response(blob)
                outcomes["ok"] += 1
            except wire.Malformed:
                outcomes["malformed"] += 1
        assert outcomes["malformed"] > 0

    @settings(max_examples=200)
    @given(st.binary(min_size=0, max_size=64))
    def test_fuzz_mutated_real_packet(self, noise):
        base = bytearray(wire.encode_response(
            9, wire.DnsQuestion(qname="a.bc"),
            [wire.ResourceRecord("a.bc", wire.RecordType.A, 60, b"\x0a\0\0\x01")]))
        for i, b in enumerate(noise):
            base[b % len(base)] ^= (i * 37 + 1) & 0xFF
        try:
            wire.decode_response(bytes(base))
        except wire.Malformed:
            pass

    def test_every_truncated_prefix_is_malformed(self):
        # fixed-width fields are read in blocks; a cut inside any of them
        # must still surface as Malformed, never as struct.error
        whole = wire.encode_response(
            0xBEEF, wire.DnsQuestion(qname="www.a.bc"),
            [wire.ResourceRecord("www.a.bc", wire.RecordType.CNAME, 300, b"",
                                 cname_target="a.bc"),
             wire.ResourceRecord("a.bc", wire.RecordType.A, 60, b"\x0a\0\0\x01")])
        assert len(wire.decode_response(whole).answers) == 2
        for cut in range(len(whole)):
            with pytest.raises(wire.Malformed):
                wire.decode_response(whole[:cut])
