"""Command line interface.

Four subcommands cover the operational loop:

  discover-ttl   confirm each domain's maximum TTL on a resolver
  snoop          observe refresh activity, appending JSONL records
  report         estimate and rank arrival rates from JSONL logs
  simulate       run the whole pipeline against a scenario file

Settings resolve as flags over SNOOPDNS_* environment variables over a
JSON config file (--config) over built-in defaults. Probing a resolver
you do not operate is traffic measurement of its users: every command
that sends packets refuses non-loopback targets unless --authorized
asserts you have permission, and rates are capped (10 qps default).

Exit codes: 0 success, 1 usage error, 2 operational failure.
"""

import argparse
import contextlib
import json
import os
import statistics
import sys
import time

from . import corpus, engine, estimation, scan, simnet, wire
from .clock import SystemClock
from .ratelimit import RateLimiter
from .transport import Prober, ProbeTimeout, UdpExchange, split_server

ENV_PREFIX = "SNOOPDNS_"
DEFAULT_RATE_QPS = 10.0
DEFAULT_TIMEOUT = 2.0
DEFAULT_CONFIDENCE = 0.95


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage problems are 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="snoopdns",
                     description="DNS cache snooping: estimate per-domain lookup "
                                 "rates of a resolver's client population.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file with default settings")

    probing = argparse.ArgumentParser(add_help=False)
    probing.add_argument("--server", help="resolver to probe, host[:port]")
    probing.add_argument("--rate", type=float, default=None,
                         help=f"max queries per second (default {DEFAULT_RATE_QPS})")
    probing.add_argument("--timeout", type=float, default=None,
                         help=f"per-query timeout seconds (default {DEFAULT_TIMEOUT})")
    probing.add_argument("--authorized", action="store_true", default=None,
                         help="assert permission to probe a non-loopback resolver")
    probing.add_argument("--domains", help="comma separated domain names")
    probing.add_argument("--domain-file", help="domain list file (plain or CSV)")

    p = sub.add_parser("discover-ttl", parents=[common, probing],
                       help="confirm maximum TTLs by expiry roll-over")
    p.add_argument("--confirmations", type=int, default=None,
                   help="times the same candidate must repeat (default 5)")
    p.add_argument("--out", help="write JSON results here (default stdout)")

    p = sub.add_parser("snoop", parents=[common, probing],
                       help="observe cache refreshes for each domain")
    p.add_argument("--method", choices=engine.METHODS, default=None,
                   help="probing method (default ttl_recursive)")
    p.add_argument("--max-ttls", dest="max_ttls",
                   help="JSON file from discover-ttl; discovered here if omitted")
    p.add_argument("--confirmations", type=int, default=None,
                   help="discovery confirmations when --max-ttls is omitted")
    p.add_argument("--window-fraction", type=float, default=None,
                   help="watch window as a fraction of max TTL (default 1.0)")
    p.add_argument("--probe-interval", type=float, default=None,
                   help="rd0 probe spacing seconds (default max_ttl/2)")
    p.add_argument("--duration", type=float, default=None,
                   help="seconds to observe each domain")
    p.add_argument("--cycles", type=int, default=None,
                   help="cycle budget per domain instead of a duration")
    p.add_argument("--calibration-domain",
                   help="zone for timing-method calibration probes")
    p.add_argument("--scan-id", help="identifier stamped on every record")
    p.add_argument("--out", help="append JSONL records here (default stdout)")

    p = sub.add_parser("report", parents=[common],
                       help="rank domains by estimated lookup rate")
    p.add_argument("--in", dest="inputs", action="append", required=True,
                   metavar="LOG", help="JSONL observation log (repeatable)")
    p.add_argument("--format", choices=("table", "csv"), default=None,
                   help="output format (default table)")
    p.add_argument("--top", type=int, default=None, help="show only the top N")
    p.add_argument("--confidence", type=float, default=None,
                   help=f"interval confidence level (default {DEFAULT_CONFIDENCE})")
    p.add_argument("--out", help="write the report here (default stdout)")

    p = sub.add_parser("simulate", parents=[common],
                       help="run the pipeline against a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--duration", type=float, default=None,
                   help="virtual seconds to snoop (default 3600)")
    p.add_argument("--method", choices=engine.METHODS, default=None,
                   help="probing method (default ttl_recursive)")
    p.add_argument("--window-fraction", type=float, default=None)
    p.add_argument("--probe-interval", type=float, default=None)
    p.add_argument("--confirmations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--format", choices=("table", "csv"), default=None)
    p.add_argument("--out", help="append JSONL records here")
    p.add_argument("--scan-id", help="identifier stamped on every record")

    return parser


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    return config


def _setting(args, config: dict, name: str, default, cast=None):
    """Flags beat SNOOPDNS_* variables beat the config file beat defaults."""
    value = getattr(args, name, None)
    if value is None:
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is not None:
            value = env
        elif name in config:
            value = config[name]
    if value is None:
        return default
    if cast is not None and value is not None:
        try:
            if cast is bool and isinstance(value, str):
                value = value.strip().lower() in ("1", "true", "yes", "on")
            else:
                value = cast(value)
        except (TypeError, ValueError):
            raise UsageError(f"bad value for {name}: {value!r}")
    return value


def _is_loopback(server: str) -> bool:
    import ipaddress

    try:
        host, _ = split_server(server)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if host.lower() == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def _require_authorization(server: str, authorized: bool) -> None:
    if _is_loopback(server):
        return
    if not authorized:
        raise UsageError(
            f"{server} is not a loopback address; probing someone else's resolver "
            f"measures its users' traffic. Pass --authorized only with permission "
            f"to test it.")


def _domain_name(what: str, name: str) -> str:
    """name validated and normalised, else a usage error naming `what`."""
    try:
        return wire.validate_name(name)
    except wire.InvalidName as exc:
        raise UsageError(f"{what} {name!r} is not a domain name: {exc}") from None


def _gather_domains(args, config: dict) -> list[str]:
    names: list[str] = []
    listed = _setting(args, config, "domains", None)
    for part in str(listed or "").split(","):
        name = part.strip()
        if name:
            names.append(_domain_name("--domains entry", name))
    path = _setting(args, config, "domain_file", None)
    if path:
        loaded, skipped = corpus.load_domain_list(path)
        names.extend(loaded)
        if skipped:
            print(f"skipped {skipped} invalid or repeated names in {path}", file=sys.stderr)
    if not names:
        raise UsageError("no domains given; use --domains or --domain-file")
    return list(dict.fromkeys(names))


def _make_prober(args, config: dict) -> Prober:
    rate = _setting(args, config, "rate", DEFAULT_RATE_QPS, float)
    timeout = _setting(args, config, "timeout", DEFAULT_TIMEOUT, float)
    for name, value in (("rate", rate), ("timeout", timeout)):
        if not 0 < value < float("inf"):
            raise UsageError(f"{name} must be finite and positive, got {value}")
    clock = SystemClock()
    return Prober(transport=UdpExchange(), clock=clock,
                  limiter=RateLimiter(rate, clock), timeout=timeout)


def _scan_settings(args, config: dict, default_duration: float | None) -> tuple:
    """The settings snoop and simulate share, checked before any probe:
    (method, duration, window_fraction, probe_interval, confirmations)."""
    method = _setting(args, config, "method", "ttl_recursive")
    if method not in engine.METHODS:
        raise UsageError(f"unknown method {method!r}")
    duration = _setting(args, config, "duration", default_duration, float)
    if duration is not None and not 0 < duration < float("inf"):
        raise UsageError(f"--duration must be finite and positive, got {duration:g}")
    window_fraction = _setting(args, config, "window_fraction", 1.0, float)
    if not 0 < window_fraction <= 1:
        raise UsageError(f"--window-fraction must be in (0, 1], got {window_fraction:g}")
    probe_interval = _setting(args, config, "probe_interval", None, float)
    if probe_interval is not None and not 0 < probe_interval < float("inf"):
        raise UsageError(f"--probe-interval must be finite and positive, "
                         f"got {probe_interval:g}")
    return method, duration, window_fraction, probe_interval, _confirmations(args, config)


def _confirmations(args, config: dict) -> int:
    confirmations = _setting(args, config, "confirmations", 5, int)
    if confirmations < 1:
        raise UsageError(f"--confirmations must be at least 1, got {confirmations}")
    return confirmations


def _z_for(confidence: float) -> float:
    if not 0 < confidence < 1:
        raise UsageError(f"confidence must be in (0, 1), got {confidence}")
    return statistics.NormalDist().inv_cdf((1 + confidence) / 2)


@contextlib.contextmanager
def _output(path: str | None):
    """stdout when path is missing or "-", else the file, appended to when
    its name ends in .jsonl and closed on the way out."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "a" if path.endswith(".jsonl") else "w", encoding="utf-8") as out:
        yield out


def _write_ranking(out, fmt: str, ranked: list) -> None:
    if fmt == "csv":
        estimation.write_ranking_csv(out, ranked)
    else:
        out.write(estimation.format_ranking_table(ranked))


def cmd_discover_ttl(args) -> int:
    config = _load_config(args.config)
    server = _setting(args, config, "server", None)
    if not server:
        raise UsageError("no resolver given; use --server")
    _require_authorization(server, _setting(args, config, "authorized", False, bool))
    domains = _gather_domains(args, config)
    confirmations = _confirmations(args, config)
    prober = _make_prober(args, config)
    with prober.transport:
        found, failed = scan.discover_all(prober, prober.clock, server, domains,
                                          required_confirmations=confirmations)
    payload = {
        "server": server,
        "max_ttls": {d: {
            "max_ttl": m.max_ttl,
            "confirmations": m.confirmations,
            "snapped_to_grid": m.snapped_to_grid,
            "candidates_seen": {str(k): v for k, v in m.candidates_seen.items()},
        } for d, m in found.items()},
        "failed": failed,
    }
    with _output(args.out) as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0 if found else 2


def _load_max_ttls(path: str) -> dict[str, int]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read --max-ttls file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"--max-ttls file is not valid JSON: {exc}")
    table = payload.get("max_ttls", payload) if isinstance(payload, dict) else None
    if not isinstance(table, dict):
        raise UsageError("--max-ttls file must map domains to TTL info")
    out: dict[str, int] = {}
    for domain, info in table.items():
        ttl = info.get("max_ttl") if isinstance(info, dict) else info
        # range first: int() of an infinite or NaN TTL would raise
        if (isinstance(ttl, bool) or not isinstance(ttl, (int, float))
                or not 1 <= ttl <= wire.MAX_TTL or ttl != int(ttl)):
            raise UsageError(f"--max-ttls entry for {domain} must be a whole number "
                             f"from 1 to {wire.MAX_TTL}, got {ttl!r}")
        out[_domain_name("--max-ttls entry for", domain)] = int(ttl)
    if not out:
        raise UsageError("--max-ttls file holds no usable entries")
    return out


def cmd_snoop(args) -> int:
    config = _load_config(args.config)
    server = _setting(args, config, "server", None)
    if not server:
        raise UsageError("no resolver given; use --server")
    _require_authorization(server, _setting(args, config, "authorized", False, bool))
    domains = _gather_domains(args, config)
    method, duration, window_fraction, probe_interval, confirmations = _scan_settings(
        args, config, None)
    cycles = _setting(args, config, "cycles", None, int)
    if duration is None and cycles is None:
        raise UsageError("give a budget: --duration seconds or --cycles N")
    if cycles is not None and cycles < 1:
        raise UsageError(f"--cycles must be at least 1, got {cycles}")
    max_ttls = None
    if args.max_ttls:
        max_ttls = _load_max_ttls(args.max_ttls)
        missing = [d for d in domains if d not in max_ttls]
        if missing:
            raise UsageError(f"--max-ttls file lacks: {', '.join(missing)}")
    zone = _setting(args, config, "calibration_domain", None)
    if method == "timing":
        if not zone:
            raise UsageError("timing method needs --calibration-domain")
        zone = _domain_name("--calibration-domain", zone)
    prober = _make_prober(args, config)
    clock = prober.clock
    with prober.transport:
        if max_ttls is None:
            found, failed = scan.discover_all(prober, clock, server, domains,
                                              required_confirmations=confirmations)
            for domain, why in failed.items():
                print(f"skipping {domain}: {why}", file=sys.stderr)
            domains = [d for d in domains if d in found]
            max_ttls = {d: found[d].max_ttl for d in domains}
            if not domains:
                print("error: discovery failed for every domain", file=sys.stderr)
                return 2

        calibration = None
        if method == "timing":
            calibration = engine.calibrate_timing(prober, server, zone)

        scan_id = args.scan_id or f"scan-{int(time.time()):x}-{os.getpid():x}"
        with _output(args.out) as out:
            result = scan.run_scan(prober, clock, server, domains, max_ttls=max_ttls,
                                   method=method, window_fraction=window_fraction,
                                   probe_interval=probe_interval, duration=duration,
                                   max_cycles=cycles, calibration=calibration,
                                   writer=corpus.ObservationWriter(out, scan_id))
    for domain, why in result.aborted.items():
        print(f"aborted {domain}: {why}", file=sys.stderr)
    print(f"{len(result.observations)} observations, {len(result.errors)} "
          f"annotations, scan_id {scan_id}", file=sys.stderr)
    return _exit_status(result)


def _exit_status(result: scan.ScanResult) -> int:
    """0 when the scan recorded an observation, else 2 with an error line."""
    if result.observations:
        return 0
    print("error: the scan recorded no observation", file=sys.stderr)
    return 2


def cmd_report(args) -> int:
    config = _load_config(args.config)
    fmt = _setting(args, config, "format", "table")
    top = _setting(args, config, "top", None, int)
    if top is not None and top < 0:
        raise UsageError(f"--top must be at least 0, got {top}")
    confidence = _setting(args, config, "confidence", DEFAULT_CONFIDENCE, float)
    z = _z_for(confidence)
    observations = []
    corrupt = 0
    invalidated: set[tuple[str, str]] = set()
    for path in args.inputs:
        try:
            log = corpus.load_observations(path)
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        observations.extend(log.observations)
        corrupt += log.corrupt_lines
        invalidated.update((e.server, e.domain) for e in log.errors
                           if e.kind in engine.INVALIDATING_KINDS)
    pairs = sorted({(o.server, o.method) for o in observations})
    if len(pairs) > 1:
        # one domain's rate from two servers or two methods is no one rate
        named = ", ".join(f"{server} {method}" for server, method in pairs)
        raise UsageError(f"the logs mix {len(pairs)} (server, method) pairs: {named}; "
                         f"report each pair's logs on their own")
    if corrupt:
        print(f"skipped {corrupt} corrupt lines", file=sys.stderr)
    if invalidated:
        # an error invalidates its own server's view of the domain only
        observations = [o for o in observations if (o.server, o.domain) not in invalidated]
        for server, domain in sorted(invalidated):
            print(f"excluding {domain} on {server}: the log marks that server's "
                  f"behavior as invalidating the method", file=sys.stderr)
    stats = estimation.aggregate(observations)
    estimates = [estimation.estimate(s, z=z) for s in stats.values()
                 if s.observed_seconds > 0]
    if not estimates:
        print("error: no usable observations", file=sys.stderr)
        return 2
    with _output(args.out) as out:
        _write_ranking(out, fmt, estimation.rank_domains(estimates, top_n=top))
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    method, duration, window_fraction, probe_interval, confirmations = _scan_settings(
        args, config, 3600.0)
    if method == "timing":
        raise UsageError("simulate cannot run the timing method, which needs a "
                         "calibration; use snoop with --calibration-domain")
    raw = simnet.load_scenario(args.scenario)
    if args.seed is not None:
        raw = dict(raw)
        raw["seed"] = args.seed
    sim_config = simnet.config_from_dict(raw)
    fmt = _setting(args, config, "format", "table")

    # with no --out the scan is not logged: stdout carries the ranking
    with (_output(args.out) if args.out else contextlib.nullcontext()) as out:
        writer = None if out is None else corpus.ObservationWriter(
            out, args.scan_id or f"sim-{sim_config.seed:08x}")
        result = scan.run_batch(sim_config, duration=duration, method=method,
                                window_fraction=window_fraction,
                                probe_interval=probe_interval,
                                required_confirmations=confirmations,
                                writer=writer)

    _write_ranking(sys.stdout, fmt, result.estimates)
    lines = []
    for domain, why in sorted(result.discovery_failed.items()):
        lines.append(f"discovery failed for {domain}: {why}")
    for domain, why in sorted(result.scan.aborted.items()):
        lines.append(f"aborted {domain}: {why}")
    truth = ", ".join(f"{d}={r:.6g}/s" for d, r in sorted(result.true_rates.items()))
    lines.append(f"true rates: {truth}")
    if result.coverage is not None:
        lines.append(f"interval coverage: {result.coverage:.0%}")
    if result.rank_correlation is not None:
        lines.append(f"rank correlation vs truth: {result.rank_correlation:.3f}")
    print("\n".join(lines), file=sys.stderr)
    return _exit_status(result.scan)


_COMMANDS = {
    "discover-ttl": cmd_discover_ttl,
    "snoop": cmd_snoop,
    "report": cmd_report,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (engine.SnoopError, ProbeTimeout, corpus.ParseError, simnet.ConfigError,
            wire.InvalidName, wire.Malformed) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
