"""Wire codec: frozen byte layouts, round trips, hostile packets."""

import random
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snoopdns import wire

LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1,
                max_size=12)
NAMES = st.lists(LABEL, min_size=1, max_size=4).map(".".join).filter(
    lambda n: len(n) + 2 <= wire.MAX_NAME_WIRE_LEN)
# as a user might type them: any letter in upper case, maybe a root dot
TYPED_NAMES = st.tuples(NAMES, st.randoms(use_true_random=False), st.booleans()).map(
    lambda t: "".join(c.upper() if t[1].random() < 0.5 else c for c in t[0])
    + ("." if t[2] else ""))


def clear_name_memos():
    wire._encoded_names.clear()
    wire._decoded_names.clear()


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
    packet = wire.encode_query(query)
    decoded = wire.decode_query(packet)
    assert wire.decode_query(bytearray(packet)) == decoded
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
        # names not in normal form, the CNAME target too, still match
        rrs = [
            wire.ResourceRecord("A.BC.", wire.RecordType.CNAME, 500, b"",
                                cname_target="B.Cd."),
            wire.ResourceRecord("b.CD", wire.RecordType.A, 30, b"\0\0\0\0"),
        ]
        assert wire.min_answer_ttl(self._response(rrs), "a.bc") == 30
        assert wire.min_answer_ttl(self._response(rrs), "A.Bc.") == 30

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
        for name in ("A.BC.", "A.Bc", "a.bc."):
            rrs = [wire.ResourceRecord(name, wire.RecordType.A, 7, b"\0\0\0\0")]
            assert wire.min_answer_ttl(self._response(rrs), "a.bc") == 7
            assert wire.min_answer_ttl(self._response(rrs), "A.bC.") == 7


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
        for _ in range(2):  # an invalid name is never remembered
            with pytest.raises(wire.InvalidName):
                wire.encode_name(bad)
        assert bad not in wire._encoded_names


def _as_sent(name: str) -> bytes:
    """Labels in the case given, as a server may send them back."""
    labels = name.rstrip(".").split(".")
    return b"".join(bytes([len(x)]) + x.encode("ascii") for x in labels) + b"\0"


def _codec_results(name: str, alias: str):
    """Encode both names, then decode a packet that names `name`
    uncompressed, by a pointer, and under a compressed prefix."""
    fixed = struct.pack(">HHIH", 1, 1, 60, 4) + b"\x0a\0\0\x01"
    packet = (wire.HEADER.pack(7, wire.FLAG_QR, 1, 3, 0, 0)
              + _as_sent(name) + struct.pack(">HH", 1, 1)
              + b"\xc0\x0c" + fixed
              + b"\x03WwW\xc0\x0c" + fixed
              + _as_sent(alias) + fixed)
    return wire.encode_name(name), wire.encode_name(alias), wire.decode_response(packet)


class TestNameMemos:
    @given(TYPED_NAMES, TYPED_NAMES)
    def test_a_warm_memo_changes_no_result(self, name, alias):
        clear_name_memos()
        cold = _codec_results(name, alias)
        assert name in wire._encoded_names
        warm = _codec_results(name, alias)
        assert warm == cold
        norm = wire.normalize_name(name)
        assert cold[0] == _as_sent(norm)
        assert cold[2].question.qname == norm
        assert [rr.name for rr in cold[2].answers] == [
            norm, f"www.{norm}", wire.normalize_name(alias)]

    def test_memos_stay_within_their_bound(self):
        clear_name_memos()
        for i in range(wire.NAME_MEMO_SIZE + 100):
            name = f"n{i}.test"
            assert wire.decode_query(wire.encode_query(wire.DnsQuery(1, name))).qname == name
            assert len(wire._encoded_names) <= wire.NAME_MEMO_SIZE
            assert len(wire._decoded_names) <= wire.NAME_MEMO_SIZE

    def test_threads_sharing_small_memos_get_right_names(self, monkeypatch):
        # the memos are overfilled and emptied while threads read them
        monkeypatch.setattr(wire, "NAME_MEMO_SIZE", 8)
        names = [f"h{i}.Test" for i in range(40)]
        packets = {n: wire.encode_query(wire.DnsQuery(1, n)) for n in names}
        wrong: list[str] = []

        def work(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(2000):
                name = rng.choice(names)
                if (wire.encode_name(name) != packets[name][12:-4]
                        or wire.decode_query(packets[name]).qname != name.lower()):
                    wrong.append(name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(wire._encoded_names) <= 8
        assert len(wire._decoded_names) <= 8


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
        # fixed-width fields are read in blocks and known names come from a
        # memo; a cut inside any field or name must still surface as
        # Malformed, never as struct.error, cold or warm
        whole = wire.encode_response(
            0xBEEF, wire.DnsQuestion(qname="www.a.bc"),
            [wire.ResourceRecord("www.a.bc", wire.RecordType.CNAME, 300, b"",
                                 cname_target="a.bc"),
             wire.ResourceRecord("a.bc", wire.RecordType.A, 60, b"\x0a\0\0\x01")])
        query = wire.encode_query(wire.DnsQuery(id=3, qname="www.a.bc"))
        assert len(wire.decode_response(whole).answers) == 2
        assert wire.decode_query(query).qname == "www.a.bc"
        assert wire._decoded_names.get(wire.encode_name("a.bc")) == "a.bc"
        for warm in (True, False):
            for packet, decode in ((whole, wire.decode_response),
                                   (query, wire.decode_query)):
                for cut in range(len(packet)):
                    if not warm:
                        clear_name_memos()
                    with pytest.raises(wire.Malformed):
                        decode(packet[:cut])
