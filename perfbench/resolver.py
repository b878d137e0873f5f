"""Loopback resolver process for the real-clock workload.

Reads one scenario JSON line on stdin, serves it with
``snoopdns.serve_udp`` on 127.0.0.1, prints its address, and serves
until stdin closes. It then prints one JSON line with the number of
probe queries it answered, the client lookups it replayed and, when
started with --trace, its own per-layer span metrics.

Run by perfbench/run.py; not meant to be started by hand.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import snoopdns  # noqa: E402
from snoopdns import simnet, wire  # noqa: E402

from tracing import SpanSummary, Tracer  # noqa: E402


def install(tracer: Tracer) -> None:
    for name in ("decode_query", "encode_response"):
        tracer.patch(wire, name, f"wire.{name}")
    tracer.patch(simnet.Sim, "handle_query", "simnet.handle_query")


def summarize(tracer: Tracer) -> dict:
    spans = SpanSummary(tracer)
    out = {}
    for name in ("wire.decode_query", "wire.encode_response", "simnet.handle_query"):
        out[f"{name}.calls"] = spans.count(name)
        out[f"{name}.us"] = spans.mean_us(name)
    out["simnet.handle_query.self_s"] = spans.self_seconds("simnet.handle_query")
    out["wire.self_s"] = sum(spans.self_seconds(n) for n in
                             ("wire.decode_query", "wire.encode_response"))
    return out


def main() -> int:
    traced = "--trace" in sys.argv[1:]
    scenario = json.loads(sys.stdin.readline())
    tracer = Tracer()
    if traced:
        install(tracer)
    server = snoopdns.serve_udp(snoopdns.config_from_dict(scenario))
    cpu0 = time.process_time()
    try:
        print(server.address, flush=True)
        sys.stdin.read()
    finally:
        server.stop()
        tracer.uninstall()
    log = list(server.sim.log)
    report = {
        "probe_queries": sum(1 for e in log if e.kind == "probe_query"),
        "client_events": sum(1 for e in log if e.kind == "client_query"),
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": summarize(tracer) if traced else {},
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
