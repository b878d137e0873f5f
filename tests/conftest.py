"""Shared helpers: a scripted resolver transport for exact engine tests,
and bare prober results for stepping a machine without one."""

import pytest

from snoopdns import wire
from snoopdns.clock import VirtualClock
from snoopdns.transport import ProbeReply, Prober, ProbeTimeout


def reply(item, at: float, rtt_ms: float = 1.0, name: str = "a.test"):
    """What the prober hands a machine's step for one TtlScriptExchange
    entry: a ProbeReply sent at `at`, or for "timeout" the ProbeTimeout
    of a prober with retries off that gave up at `at`."""
    if item == "timeout":
        return ProbeTimeout(f"query for {name} against sim failed after 1 attempts", at=at)
    if isinstance(item, tuple):
        item, rtt_ms = item
    answers = []
    if item is not None and item != "truncated":
        answers = [wire.ResourceRecord(name, wire.RecordType.A, int(item),
                                       bytes([10, 0, 0, 1]))]
    response = wire.DnsResponse(0, 0, True, answers, truncated=item == "truncated")
    return ProbeReply(response, rtt_ms, at)


class TtlScriptExchange:
    """Answers each query from a script, entry by entry.

    Entries: int (answer that TTL), (ttl, rtt_ms) tuple, None (empty
    NOERROR answer), "truncated" (empty answer with TC set), "timeout"
    (consume the timeout and fail). Runs on a virtual clock so probing
    timelines are exact.
    """

    def __init__(self, clock: VirtualClock, script, rtt_ms: float = 1.0):
        self.clock = clock
        self.script = list(script)
        self.rtt_ms = rtt_ms
        self.queries: list[wire.DnsQuery] = []
        self.sent_at: list[float] = []

    def exchange(self, server, payload, timeout):
        if not self.script:
            raise AssertionError("script exhausted: unexpected extra probe")
        item = self.script.pop(0)
        sent = self.clock.now()
        self.sent_at.append(sent)
        if item == "timeout":
            self.clock.sleep(timeout)
            raise ProbeTimeout("scripted timeout")
        query = wire.decode_query(payload)
        self.queries.append(query)
        result = reply(item, sent, self.rtt_ms, query.qname)
        data = wire.encode_response(query.id, wire.DnsQuestion(qname=query.qname),
                                    result.response.answers,
                                    truncated=result.response.truncated)
        self.clock.sleep(result.rtt_ms / 1000.0)
        return data, result.rtt_ms, sent


@pytest.fixture
def scripted():
    """Factory: scripted(script) -> (prober, clock, exchange), retries off."""

    def build(script, rtt_ms: float = 1.0):
        clock = VirtualClock()
        exchange = TtlScriptExchange(clock, script, rtt_ms=rtt_ms)
        prober = Prober(transport=exchange, clock=clock, retries=0, timeout=1.0)
        return prober, clock, exchange

    return build
