"""Prober retry/id behavior and the UDP exchange over loopback."""

import socket
import struct
import threading

import pytest

from snoopdns import wire
from snoopdns.clock import SystemClock, VirtualClock
from snoopdns.ratelimit import RateLimiter
from snoopdns.transport import (Prober, ProbeTimeout, UdpExchange, split_server)


@pytest.mark.parametrize("text,expected", [
    ("127.0.0.1", ("127.0.0.1", 53)),
    ("127.0.0.1:5353", ("127.0.0.1", 5353)),
    ("resolver.example", ("resolver.example", 53)),
    ("[::1]:5300", ("::1", 5300)),
    ("[::1]", ("::1", 53)),
])
def test_split_server(text, expected):
    assert split_server(text) == expected


class ScriptedExchange:
    """Canned exchange: each entry is a response-builder or 'timeout'."""

    def __init__(self, clock, script):
        self.clock = clock
        self.script = list(script)
        self.payloads = []

    def exchange(self, server, payload, timeout):
        self.payloads.append(payload)
        action = self.script.pop(0)
        sent_at = self.clock.now()
        if action == "timeout":
            self.clock.sleep(timeout)
            raise ProbeTimeout("scripted timeout")
        query = wire.decode_query(payload)
        data = action(query)
        self.clock.sleep(0.001)
        return data, 1.0, sent_at


def answer(ttl=60, wrong_id=False, echo=None):
    """Reply builder; `echo` maps the query to the question echoed back."""
    def build(query):
        rr = wire.ResourceRecord(query.qname, wire.RecordType.A, ttl,
                                 bytes([10, 0, 0, 1]))
        ident = (query.id + 1) & 0xFFFF if wrong_id else query.id
        question = (wire.DnsQuestion(query.qname, query.qtype) if echo is None
                    else echo(query))
        return wire.encode_response(ident, question, [rr])
    return build


def make_prober(script, retries=3):
    clock = VirtualClock()
    transport = ScriptedExchange(clock, script)
    prober = Prober(transport=transport, clock=clock, retries=retries, timeout=0.5)
    return prober, transport


class TestProber:
    def test_probe_decodes_a_good_reply(self):
        prober, _ = make_prober([answer(ttl=42)])
        reply = prober.probe("sim", "a.bc")
        assert reply.response.answers[0].ttl == 42
        assert reply.rtt_ms == 1.0

    def test_each_attempt_uses_a_fresh_transaction_id(self):
        prober, transport = make_prober(["timeout", "timeout", answer()])
        prober.probe("sim", "a.bc")
        ids = [wire.decode_query(p).id for p in transport.payloads]
        assert len(ids) == 3
        assert len(set(ids)) == 3

    def test_retry_budget_exhausted_raises(self):
        prober, transport = make_prober(["timeout"] * 4, retries=3)
        with pytest.raises(ProbeTimeout):
            prober.probe("sim", "a.bc")
        assert len(transport.payloads) == 4

    def test_mismatched_id_consumes_a_retry(self):
        prober, transport = make_prober([answer(wrong_id=True), answer(ttl=9)])
        reply = prober.probe("sim", "a.bc")
        assert reply.response.answers[0].ttl == 9
        assert len(transport.payloads) == 2

    @pytest.mark.parametrize("echo", [
        lambda q: wire.DnsQuestion("other.bc", q.qtype),
        lambda q: wire.DnsQuestion(q.qname, wire.RecordType.AAAA),
    ], ids=["name", "type"])
    def test_a_reply_to_another_question_consumes_a_retry(self, echo):
        prober, transport = make_prober([answer(ttl=1, echo=echo), answer(ttl=9)])
        reply = prober.probe("sim", "a.bc")
        assert reply.response.answers[0].ttl == 9
        assert len(transport.payloads) == 2

    def test_a_reply_without_a_question_is_accepted(self):
        prober, transport = make_prober([answer(ttl=4, echo=lambda q: None)])
        assert prober.probe("sim", "a.bc").response.answers[0].ttl == 4

    def test_the_echo_is_compared_in_normal_form(self):
        prober, transport = make_prober([answer(ttl=3)])
        assert prober.probe("sim", "A.Bc.").response.answers[0].ttl == 3
        assert len(transport.payloads) == 1

    def test_garbage_reply_consumes_a_retry(self):
        def garbage(query):
            return b"\x00\x01\x02"
        prober, transport = make_prober([garbage, answer(ttl=5)])
        reply = prober.probe("sim", "a.bc")
        assert reply.response.answers[0].ttl == 5
        assert len(transport.payloads) == 2

    def test_rd_flag_follows_the_argument(self):
        prober, transport = make_prober([answer(), answer()])
        prober.probe("sim", "a.bc", recursion_desired=False)
        prober.probe("sim", "a.bc", recursion_desired=True)
        first, second = (wire.decode_query(p) for p in transport.payloads)
        assert first.recursion_desired is False
        assert second.recursion_desired is True

    def test_limiter_paces_sends(self):
        clock = VirtualClock()
        transport = ScriptedExchange(clock, [answer()] * 4)
        sent = []
        prober = Prober(transport=transport, clock=clock,
                        limiter=RateLimiter(2.0, clock), sent_times=sent)
        for _ in range(4):
            prober.probe("sim", "a.bc")
        gaps = [b - a for a, b in zip(sent, sent[1:])]
        assert all(gap >= 0.5 - 1e-9 for gap in gaps)


class LoopbackResponder:
    """Minimal UDP server answering every query with one A record."""

    def __init__(self, respond=True):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self.respond = respond
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                data, addr = self.sock.recvfrom(4096)
            except socket.timeout:
                continue
            if not self.respond:
                continue
            try:
                query = wire.decode_query(data)
            except wire.Malformed:
                continue
            rr = wire.ResourceRecord(query.qname, wire.RecordType.A, 30,
                                     bytes([127, 0, 0, 1]))
            reply = wire.encode_response(query.id,
                                         wire.DnsQuestion(qname=query.qname), [rr])
            self.sock.sendto(reply, addr)

    def close(self):
        self._stop.set()
        self.thread.join(timeout=2)
        self.sock.close()


class TestUdpExchange:
    def test_round_trip_over_loopback(self):
        responder = LoopbackResponder()
        try:
            prober = Prober(transport=UdpExchange(), clock=SystemClock(),
                            timeout=2.0)
            reply = prober.probe(f"127.0.0.1:{responder.port}", "loop.test")
            assert reply.response.answers[0].ttl == 30
            assert reply.rtt_ms > 0
        finally:
            responder.close()

    def test_a_server_given_by_host_name_is_answered(self):
        responder = LoopbackResponder()
        try:
            prober = Prober(transport=UdpExchange(), clock=SystemClock(),
                            timeout=1.0, retries=0)
            reply = prober.probe(f"localhost:{responder.port}", "loop.test")
            assert reply.response.answers[0].ttl == 30
        finally:
            responder.close()

    def test_a_closed_port_times_out(self):
        # the ICMP error a connected socket reports is no answer
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
        prober = Prober(transport=UdpExchange(), clock=SystemClock(),
                        timeout=0.05, retries=1)
        with pytest.raises(ProbeTimeout):
            prober.probe(f"127.0.0.1:{port}", "loop.test")

    def test_silent_server_times_out(self):
        responder = LoopbackResponder(respond=False)
        try:
            prober = Prober(transport=UdpExchange(), clock=SystemClock(),
                            timeout=0.05, retries=1)
            with pytest.raises(ProbeTimeout):
                prober.probe(f"127.0.0.1:{responder.port}", "loop.test")
        finally:
            responder.close()
