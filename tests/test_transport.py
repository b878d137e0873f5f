"""Prober retry/id behavior and the UDP exchange over loopback."""

import socket
import threading
import time

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


@pytest.mark.parametrize("text", ["127.0.0.1:abc", "127.0.0.1:70000", "127.0.0.1:0",
                                  "127.0.0.1:", "[::1]:x", "[::1]:65536"])
def test_split_server_rejects_a_bad_port(text):
    with pytest.raises(ValueError, match="from 1 to 65535"):
        split_server(text)


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
        with pytest.raises(ProbeTimeout) as info:
            prober.probe("sim", "a.bc")
        assert len(transport.payloads) == 4
        assert info.value.at == pytest.approx(2.0)  # stamped once the retries gave up

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
        prober = Prober(transport=transport, clock=clock,
                        limiter=RateLimiter(2.0, clock))
        sent = [prober.probe("sim", "a.bc").sent_at for _ in range(4)]
        gaps = [b - a for a, b in zip(sent, sent[1:])]
        assert len(gaps) == 3
        assert all(gap >= 0.5 - 1e-9 for gap in gaps)


def answer_with_a_record(data):
    query = wire.decode_query(data)
    rr = wire.ResourceRecord(query.qname, wire.RecordType.A, 30, bytes([127, 0, 0, 1]))
    return wire.encode_response(query.id, wire.DnsQuestion(qname=query.qname), [rr])


class LoopbackResponder:
    """Minimal UDP server: `reply` maps each datagram to the bytes sent
    back, or None for silence. It records every query's source address."""

    def __init__(self, reply=answer_with_a_record):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self.address = f"127.0.0.1:{self.port}"
        self.reply = reply
        self.sources = []
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                data, addr = self.sock.recvfrom(4096)
            except socket.timeout:
                continue
            self.sources.append(addr)
            reply = self.reply(data)
            if reply is not None:
                self.sock.sendto(reply, addr)

    def close(self):
        self._stop.set()
        self.thread.join(timeout=2)
        assert not self.thread.is_alive()
        self.sock.close()


def query_bytes(name="loop.test", ident=0x1234):
    return wire.encode_query(wire.DnsQuery(ident, name, wire.RecordType.A))


def closed_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as closed:
        closed.bind(("127.0.0.1", 0))
        return closed.getsockname()[1]


class TestUdpExchange:
    def test_round_trip_over_loopback(self):
        responder = LoopbackResponder()
        try:
            with UdpExchange() as exchange:
                prober = Prober(transport=exchange, clock=SystemClock(), timeout=2.0)
                reply = prober.probe(responder.address, "loop.test")
            assert reply.response.answers[0].ttl == 30
            assert reply.rtt_ms > 0
        finally:
            responder.close()

    def test_a_server_given_by_host_name_is_answered(self):
        responder = LoopbackResponder()
        try:
            with UdpExchange() as exchange:
                prober = Prober(transport=exchange, clock=SystemClock(),
                                timeout=1.0, retries=0)
                reply = prober.probe(f"localhost:{responder.port}", "loop.test")
            assert reply.response.answers[0].ttl == 30
        finally:
            responder.close()

    def test_a_closed_port_times_out(self):
        # the ICMP error a connected socket reports is no answer
        port = closed_port()
        with UdpExchange() as exchange:
            prober = Prober(transport=exchange, clock=SystemClock(),
                            timeout=0.05, retries=1)
            with pytest.raises(ProbeTimeout):
                prober.probe(f"127.0.0.1:{port}", "loop.test")

    def test_an_icmp_error_left_by_an_earlier_probe_is_no_answer(self):
        # A zero timeout returns before the port-unreachable error arrives,
        # so it waits on the shared socket and fails the next send.
        server = f"127.0.0.1:{closed_port()}"
        with UdpExchange() as exchange:
            for _ in range(3):
                with pytest.raises(ProbeTimeout):
                    exchange.exchange(server, query_bytes(), 0.0)
                time.sleep(0.05)
            prober = Prober(transport=exchange, clock=SystemClock(),
                            timeout=0.05, retries=1)
            with pytest.raises(ProbeTimeout):
                prober.probe(server, "loop.test")

    def test_silent_server_times_out(self):
        responder = LoopbackResponder(reply=lambda data: None)
        try:
            with UdpExchange() as exchange:
                prober = Prober(transport=exchange, clock=SystemClock(),
                                timeout=0.05, retries=1)
                with pytest.raises(ProbeTimeout):
                    prober.probe(responder.address, "loop.test")
        finally:
            responder.close()

    def test_probes_to_one_server_share_a_source_port(self):
        first, second = LoopbackResponder(), LoopbackResponder()
        try:
            with UdpExchange() as exchange:
                prober = Prober(transport=exchange, clock=SystemClock(), timeout=2.0)
                for _ in range(5):
                    prober.probe(first.address, "loop.test")
                prober.probe(second.address, "loop.test")
            assert len(first.sources) == 5
            assert len(set(first.sources)) == 1
            assert first.sources[0][1] != second.sources[0][1]
        finally:
            first.close()
            second.close()

    def test_a_late_reply_to_an_abandoned_attempt_is_dropped(self):
        # The first reply is held past its attempt's timeout and arrives
        # just before the retry's own reply, on the same socket.
        held = threading.Event()

        def reply(data):
            if not held.is_set():
                held.set()
                time.sleep(0.7)
            return answer_with_a_record(data)

        responder = LoopbackResponder(reply=reply)
        try:
            with UdpExchange() as exchange:
                with pytest.raises(ProbeTimeout):
                    exchange.exchange(responder.address, query_bytes(ident=1), 0.5)
                retry = query_bytes(ident=2)
                data, rtt_ms, _ = exchange.exchange(responder.address, retry, 0.5)
            assert wire.decode_response(data).id == 2
            assert rtt_ms < 500
        finally:
            responder.close()

    def test_an_echoed_query_is_not_a_reply(self):
        # same id and question as the query, but the QR bit is clear
        responder = LoopbackResponder(reply=lambda data: data)
        try:
            with UdpExchange() as exchange:
                prober = Prober(transport=exchange, clock=SystemClock(),
                                timeout=0.1, retries=1)
                with pytest.raises(ProbeTimeout):
                    prober.probe(responder.address, "loop.test", recursion_desired=False)
            assert len(responder.sources) == 2
        finally:
            responder.close()

    def test_close_releases_every_socket(self):
        first, second = LoopbackResponder(), LoopbackResponder()
        try:
            exchange = UdpExchange()
            for responder in (first, second):
                exchange.exchange(responder.address, query_bytes(), 2.0)
            sockets = list(exchange._sockets.values())
            assert len(sockets) == 2
            exchange.close()
            assert all(sock.fileno() == -1 for sock in sockets)
            assert not exchange._sockets
        finally:
            first.close()
            second.close()
