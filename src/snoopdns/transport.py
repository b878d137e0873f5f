"""Query transports and the retrying prober.

A transport moves one encoded query to a server and returns the raw
response bytes with timing. UdpExchange talks to real resolvers;
the simulator provides an in-process exchange with the same shape (see
simnet.SimExchange), so the engine code above this layer is identical
in both modes. The Prober adds transaction ids, rate limiting, decode,
and a retry budget with fresh ids per attempt.
"""

import random
import socket
import time
from dataclasses import dataclass, field
from typing import Protocol

from . import wire
from .clock import Clock
from .ratelimit import RateLimiter


class ProbeTimeout(TimeoutError):
    """No response within the retry budget."""

    def __init__(self, message: str, evidence: list | None = None):
        super().__init__(message)
        self.evidence = evidence or []


class Exchange(Protocol):
    def exchange(self, server: str, payload: bytes, timeout: float) -> tuple[bytes, float, float]:
        """Send payload, return (response bytes, rtt in ms, send time)."""
        ...


def split_server(server: str, default_port: int = 53) -> tuple[str, int]:
    """Parse "host", "host:port" or "[v6]:port" into an address tuple."""
    if server.startswith("["):
        host, _, rest = server[1:].partition("]")
        port = int(rest[1:]) if rest.startswith(":") else default_port
        return host, port
    if server.count(":") == 1:
        host, _, port_text = server.partition(":")
        return host, int(port_text)
    return server, default_port


class UdpExchange:
    """One-shot UDP round trips against a real server."""

    def __init__(self, default_port: int = 53):
        self.default_port = default_port

    def exchange(self, server: str, payload: bytes, timeout: float) -> tuple[bytes, float, float]:
        host, port = split_server(server, self.default_port)
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        # A fresh socket per probe keeps the source port random. Connecting
        # it makes the kernel resolve a host name and drop datagrams from
        # any other source.
        with socket.socket(family, socket.SOCK_DGRAM) as sock:
            sock.connect((host, port))
            sent_at = time.time()
            start = time.monotonic()
            sock.send(payload)
            deadline = start + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ProbeTimeout(f"no response from {server} within {timeout}s")
                sock.settimeout(remaining)
                try:
                    data = sock.recv(4096)
                except socket.timeout:
                    raise ProbeTimeout(f"no response from {server} within {timeout}s") from None
                except ConnectionRefusedError:
                    # an ICMP error is no answer: wait out the timeout as for silence
                    continue
                # Accept only a reply to this transaction.
                if len(data) >= 2 and data[:2] == payload[:2]:
                    rtt_ms = (time.monotonic() - start) * 1000.0
                    return data, rtt_ms, sent_at


@dataclass
class ProbeReply:
    response: wire.DnsResponse
    rtt_ms: float
    sent_at: float


@dataclass
class Prober:
    """Builds, sends, and decodes queries with retries and pacing.

    Each attempt uses a fresh transaction id so a late reply to a lost
    probe cannot be mistaken for the current one; a reply that carries
    another id or echoes another question costs an attempt. Every send
    first takes a rate-limiter slot when a limiter is configured.
    """

    transport: Exchange
    clock: Clock
    limiter: RateLimiter | None = None
    rng: random.Random = field(default_factory=random.Random)
    qtype: int = wire.RecordType.A
    timeout: float = 2.0
    retries: int = 3
    sent_times: list[float] | None = None

    def probe(self, server: str, name: str, recursion_desired: bool = True,
              qtype: int | None = None) -> ProbeReply:
        attempts = self.retries + 1
        qname = wire.normalize_name(name)
        last_error: Exception | None = None
        for _ in range(attempts):
            if self.limiter is not None:
                self.limiter.acquire()
            query = wire.DnsQuery(
                id=self.rng.randrange(0x10000),
                qname=name,
                qtype=self.qtype if qtype is None else qtype,
                recursion_desired=recursion_desired,
            )
            payload = wire.encode_query(query)
            if self.sent_times is not None:
                self.sent_times.append(self.clock.now())
            try:
                data, rtt_ms, sent_at = self.transport.exchange(server, payload, self.timeout)
            except ProbeTimeout as exc:
                last_error = exc
                continue
            try:
                response = wire.decode_response(data)
            except wire.Malformed as exc:
                last_error = exc
                continue
            if response.id != query.id:
                last_error = wire.Malformed("transaction id mismatch")
                continue
            echoed = response.question
            if echoed is not None and (echoed.qname, echoed.qtype) != (qname, query.qtype):
                # RFC 5452 section 9.1: the reply must echo the question asked
                last_error = wire.Malformed("question does not match the query")
                continue
            return ProbeReply(response=response, rtt_ms=rtt_ms, sent_at=sent_at)
        raise ProbeTimeout(
            f"query for {name} against {server} failed after {attempts} attempts"
        ) from last_error
