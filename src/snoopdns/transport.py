"""Query transports and the retrying prober.

A transport moves one encoded query to a server and returns the raw
response bytes with timing. UdpExchange keeps one connected socket per
real resolver; the simulator provides an in-process exchange with the
same shape (see simnet.SimExchange), so the engine code above this layer
is identical in both modes. The Prober adds transaction ids, rate
limiting, decode, reply checks and a retry budget with fresh ids.
"""

import contextlib
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Protocol

from . import wire
from .clock import Clock
from .ratelimit import RateLimiter


class ProbeTimeout(TimeoutError):
    """No response within the retry budget. at is the clock time at which
    the prober gave up, None when a transport raised it for one attempt."""

    def __init__(self, message: str, at: float | None = None):
        super().__init__(message)
        self.at = at


class Exchange(Protocol):
    def exchange(self, server: str, payload: bytes, timeout: float) -> tuple[bytes, float, float]:
        """Send payload, return (response bytes, rtt in ms, send time)."""
        ...


def split_server(server: str, default_port: int = 53) -> tuple[str, int]:
    """Parse "host", "host:port" or "[v6]:port" into an address tuple.
    Raises ValueError for a port that is not a number from 1 to 65535."""
    if server.startswith("["):
        host, _, rest = server[1:].partition("]")
        if not rest.startswith(":"):
            return host, default_port
        port_text = rest[1:]
    elif server.count(":") == 1:
        host, _, port_text = server.partition(":")
    else:
        return server, default_port
    if not (port_text.isdecimal() and 1 <= int(port_text) <= 65535):
        raise ValueError(f"bad port in server {server!r}: want a number from 1 to 65535")
    return host, int(port_text)


class UdpExchange:
    """UDP round trips over one connected socket per server.

    The first probe to a server connects a socket that later probes and
    retries reuse: one source port per server for the life of the
    exchange, not a fresh one per probe. A reply must come from the
    connected address with this attempt's id (the Prober then requires
    QR and the question); anything else, such as a late reply to an
    abandoned attempt or an ICMP error left by an earlier probe, is no
    answer. One instance serves a single thread; close() releases it all.
    """

    def __init__(self):
        self._sockets: dict[str, socket.socket] = {}

    def __enter__(self) -> "UdpExchange":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        while self._sockets:
            self._sockets.popitem()[1].close()

    def _connect(self, server: str) -> socket.socket:
        host, port = split_server(server)
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_DGRAM)
        try:
            sock.connect((host, port))
        except OSError:
            sock.close()
            raise
        self._sockets[server] = sock
        return sock

    def exchange(self, server: str, payload: bytes, timeout: float) -> tuple[bytes, float, float]:
        sock = self._sockets.get(server) or self._connect(server)
        sent_at = time.time()
        start = time.monotonic()
        with contextlib.suppress(ConnectionRefusedError):  # an earlier ICMP error
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
            if len(data) >= 2 and data[:2] == payload[:2]:
                rtt_ms = (time.monotonic() - start) * 1000.0
                return data, rtt_ms, sent_at


@dataclass(slots=True)
class ProbeReply:
    response: wire.DnsResponse
    rtt_ms: float
    sent_at: float


@dataclass
class Prober:
    """Builds, sends, and decodes A queries with retries and pacing.

    Each attempt uses a fresh transaction id so a late reply to a lost
    probe cannot be mistaken for the current one; a reply that carries
    another id, has the QR bit clear or echoes another question costs an
    attempt. Every send
    first takes a rate-limiter slot when a limiter is configured.
    """

    transport: Exchange
    clock: Clock
    limiter: RateLimiter | None = None
    rng: random.Random = field(default_factory=random.Random)
    timeout: float = 2.0
    retries: int = 3

    def probe(self, server: str, name: str, recursion_desired: bool = True) -> ProbeReply:
        attempts = self.retries + 1
        qname = wire.normalize_name(name)
        last_error: Exception | None = None
        for _ in range(attempts):
            if self.limiter is not None:
                self.limiter.acquire()
            query = wire.DnsQuery(self.rng.getrandbits(16), name, wire.TYPE_A,
                                  wire.CLASS_IN, recursion_desired)
            payload = wire.encode_query(query)
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
            if not response.is_response:
                last_error = wire.Malformed("reply has the QR bit clear")
                continue
            echoed = response.question
            if echoed is not None and (echoed.qname != qname or echoed.qtype != wire.TYPE_A):
                # RFC 5452 section 9.1: the reply must echo the question asked
                last_error = wire.Malformed("question does not match the query")
                continue
            return ProbeReply(response, rtt_ms, sent_at)
        raise ProbeTimeout(
            f"query for {name} against {server} failed after {attempts} attempts",
            at=self.clock.now()) from last_error
