"""Command line behavior: exit codes, precedence, the authorization gate,
and the simulate/report pipeline on real files."""

import csv
import io
import json
import socket
import types

import pytest

from snoopdns import cli
from snoopdns.clock import VirtualClock
from snoopdns.corpus import ObservationWriter, load_observations
from snoopdns.engine import RefreshObservation
from snoopdns.simnet import SimExchange, build_sim
from snoopdns.transport import Prober


def scenario_file(tmp_path, **overrides):
    config = {
        "seed": 21,
        "zones": {"alpha.test": {"address": "10.0.0.1", "ttl": 60},
                  "beta.test": {"address": "10.0.0.2", "ttl": 60}},
        "clients": [
            {"domain": "alpha.test", "process": {"kind": "poisson", "rate": 0.05}},
            {"domain": "beta.test", "process": {"kind": "poisson", "rate": 0.005}},
        ],
    }
    config.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    return str(path)


# scan settings that no scan can run with; simulate and snoop share them
BAD_SCAN_SETTINGS = [["--window-fraction", "2"], ["--method", "rd0", "--probe-interval", "0"],
                     ["--confirmations", "0"]]


def observation_log(tmp_path, domains, per_domain=5, name="log.jsonl", server="sim",
                    method="ttl_recursive"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as handle:
        writer = ObservationWriter(handle, "test-log")
        for rank, domain in enumerate(domains):
            for i in range(per_domain):
                censored = rank > 0 or i % 2 == 0
                writer.write(RefreshObservation(
                    server=server, domain=domain, method=method,
                    window_start=60.0 * i, window_length=60.0, probe_rtt_ms=1.0,
                    delay=None if censored else 10.0 * (rank + 1)))
    return str(path)


class TestExitCodes:
    def test_no_command_prints_help_and_fails(self, capsys):
        assert cli.main([]) == 1
        assert "COMMAND" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--bogus"])
        assert exc.value.code == 1

    def test_missing_required_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report"])
        assert exc.value.code == 1

    def test_missing_server_is_a_usage_error(self, capsys):
        assert cli.main(["snoop", "--domains", "a.test", "--duration", "60"]) == 1
        assert "no resolver" in capsys.readouterr().err

    def test_missing_budget_is_a_usage_error(self, capsys):
        assert cli.main(["snoop", "--server", "127.0.0.1",
                         "--domains", "a.test"]) == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [["--duration", "0"], ["--duration", "-5"],
                                        ["--cycles", "0"]])
    def test_zero_budget_is_a_usage_error_before_any_probe(self, budget, monkeypatch,
                                                          capsys):
        monkeypatch.setattr(cli, "_make_prober", lambda *args: pytest.fail("probed"))
        assert cli.main(["snoop", "--server", "127.0.0.1", "--domains", "a.test",
                         *budget]) == 1
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rate", "--timeout"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_a_rate_or_timeout_that_is_not_finite_and_positive_is_a_usage_error(
            self, flag, value, monkeypatch, capsys):
        monkeypatch.setattr(cli, "UdpExchange", lambda: pytest.fail("probed"))
        assert cli.main(["discover-ttl", "--server", "127.0.0.1", "--domains", "a.test",
                         f"{flag}={value}"]) == 1
        assert "must be finite and positive" in capsys.readouterr().err

    def test_a_nan_rate_from_the_environment_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("SNOOPDNS_RATE", "nan")
        monkeypatch.setattr(cli, "UdpExchange", lambda: pytest.fail("probed"))
        assert cli.main(["snoop", "--server", "127.0.0.1", "--domains", "a.test",
                         "--cycles", "1"]) == 1
        assert "rate must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["abc", "70000", "0", ""])
    def test_a_bad_server_port_is_a_usage_error_before_any_probe(self, port, monkeypatch,
                                                                 capsys):
        monkeypatch.setattr(cli, "_make_prober", lambda *args: pytest.fail("probed"))
        assert cli.main(["discover-ttl", "--server", f"127.0.0.1:{port}",
                         "--domains", "a.test"]) == 1
        assert "from 1 to 65535" in capsys.readouterr().err

    def test_discover_ttl_rejects_zero_confirmations_before_any_probe(self, monkeypatch,
                                                                      capsys):
        monkeypatch.setattr(cli, "_make_prober", lambda *args: pytest.fail("probed"))
        assert cli.main(["discover-ttl", "--server", "127.0.0.1", "--domains", "a.test",
                         "--confirmations", "0"]) == 1
        assert "error: --confirmations must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [0, "x", 2**31, 60.5, None])
    def test_a_max_ttls_entry_that_is_no_ttl_is_a_usage_error_before_any_probe(
            self, entry, tmp_path, monkeypatch, capsys):
        path = tmp_path / "maxttls.json"
        path.write_text(json.dumps({"max_ttls": {"a.test": {"max_ttl": entry}}}))
        monkeypatch.setattr(cli, "_make_prober", lambda *args: pytest.fail("probed"))
        assert cli.main(["snoop", "--server", "127.0.0.1", "--domains", "a.test",
                         "--cycles", "1", "--max-ttls", str(path)]) == 1
        assert ("error: --max-ttls entry for a.test must be a whole number from 1 to "
                "2147483647") in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--domains", "a.test,b.test"], "--max-ttls file lacks: b.test"),
        (["--domains", "a.test", "--method", "timing"],
         "timing method needs --calibration-domain"),
        (["--domains", "a.test", "--method", "timing", "--calibration-domain", "bad..name"],
         "--calibration-domain 'bad..name' is not a domain name: empty label"),
    ])
    def test_snoop_input_it_cannot_use_is_a_usage_error_before_any_probe(
            self, flags, message, tmp_path, monkeypatch, capsys):
        path = tmp_path / "maxttls.json"
        path.write_text(json.dumps({"a.test": 60}))
        monkeypatch.setattr(cli, "_make_prober", lambda *args: pytest.fail("probed"))
        assert cli.main(["snoop", "--server", "127.0.0.1", "--cycles", "1",
                         "--max-ttls", str(path), *flags]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", BAD_SCAN_SETTINGS)
    def test_snoop_rejects_a_bad_scan_setting_before_any_query(self, setting, capsys):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as server:
            server.bind(("127.0.0.1", 0))
            server.setblocking(False)
            port = server.getsockname()[1]
            assert cli.main(["snoop", "--server", f"127.0.0.1:{port}", "--domains", "a.test",
                             "--cycles", "1", "--timeout", "0.1", *setting]) == 1
            with pytest.raises(BlockingIOError):
                server.recv(512)
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [*BAD_SCAN_SETTINGS, ["--duration", "-5"],
                                         ["--duration", "inf"]])
    def test_simulate_rejects_a_bad_scan_setting_before_running(self, tmp_path, setting,
                                                               monkeypatch, capsys):
        monkeypatch.setattr(cli.scan, "run_batch", lambda *a, **kw: pytest.fail("ran"))
        assert cli.main(["simulate", "--scenario", scenario_file(tmp_path), *setting]) == 1
        assert "must be" in capsys.readouterr().err

    def test_broken_scenario_is_an_operational_error(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("{nope")
        assert cli.main(["simulate", "--scenario", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_report_input_is_an_operational_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.jsonl")
        assert cli.main(["report", "--in", missing]) == 2

    def test_snoop_exits_2_when_the_scan_aborted_every_domain(self, tmp_path, capsys):
        path = tmp_path / "maxttls.json"
        path.write_text(json.dumps({"a.test": 60, "b.test": 30}))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as server:
            server.bind(("127.0.0.1", 0))
            server.setblocking(False)
            port = server.getsockname()[1]
            assert cli.main(["snoop", "--server", f"127.0.0.1:{port}",
                             "--domains", "a.test,b.test", "--max-ttls", str(path),
                             "--method", "rd0", "--probe-interval", "100",
                             "--duration", "600", "--out", str(tmp_path / "log.jsonl")]) == 2
            with pytest.raises(BlockingIOError):
                server.recv(512)
        err = capsys.readouterr().err
        assert "aborted a.test: probe interval 100s" in err
        assert "aborted b.test: probe interval 100s" in err
        assert err.endswith("error: the scan recorded no observation\n")

    def test_snoop_exits_2_when_the_resolver_never_answers(self, tmp_path, capsys):
        path = tmp_path / "maxttls.json"
        path.write_text(json.dumps({"a.test": 60}))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as server:
            server.bind(("127.0.0.1", 0))
            port = server.getsockname()[1]
            assert cli.main(["snoop", "--server", f"127.0.0.1:{port}", "--domains", "a.test",
                             "--max-ttls", str(path), "--method", "rd0",
                             "--probe-interval", "0.2", "--timeout", "0.1", "--cycles", "1",
                             "--out", str(tmp_path / "log.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "0 observations, 3 annotations" in err
        assert err.endswith("error: the scan recorded no observation\n")

    def test_an_invalid_domains_entry_is_a_usage_error_before_any_probe(self, monkeypatch,
                                                                        capsys):
        monkeypatch.setattr(cli, "_make_prober", lambda *args: pytest.fail("probed"))
        assert cli.main(["snoop", "--server", "127.0.0.1", "--domains", "ok.test,a..test",
                         "--cycles", "1"]) == 1
        assert ("error: --domains entry 'a..test' is not a domain name: empty label"
                in capsys.readouterr().err)

    def test_a_max_ttls_entry_that_is_no_name_is_a_usage_error_before_any_probe(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "maxttls.json"
        path.write_text(json.dumps({"a.test": 60, "a..b": 60}))
        monkeypatch.setattr(cli, "_make_prober", lambda *args: pytest.fail("probed"))
        assert cli.main(["snoop", "--server", "127.0.0.1", "--domains", "a.test",
                         "--cycles", "1", "--max-ttls", str(path)]) == 1
        assert ("error: --max-ttls entry for 'a..b' is not a domain name: empty label"
                in capsys.readouterr().err)

    def test_names_skipped_in_a_domain_file_are_counted_on_stderr(self, tmp_path,
                                                                 monkeypatch, capsys):
        # a headerless rank,domain export holds no valid name on any line
        path = tmp_path / "top.csv"
        path.write_text("1,example.com\n2,example.org\n")
        monkeypatch.setattr(cli, "_make_prober", lambda *args: pytest.fail("probed"))
        assert cli.main(["snoop", "--server", "127.0.0.1", "--domain-file", str(path),
                         "--cycles", "1"]) == 1
        err = capsys.readouterr().err
        assert f"skipped 2 invalid or repeated names in {path}\n" in err
        assert err.endswith("error: no domains given; use --domains or --domain-file\n")

    @pytest.mark.parametrize("top", [["--top", "-1"], ["--top=-5"]])
    def test_a_negative_top_is_a_usage_error_before_any_log_is_read(
            self, top, monkeypatch, capsys):
        monkeypatch.setattr(cli.corpus, "load_observations", lambda *a: pytest.fail("read"))
        assert cli.main(["report", "--in", "log.jsonl", *top]) == 1
        assert "error: --top must be at least 0, got -" in capsys.readouterr().err

    def test_report_with_no_usable_observations_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("{corrupt\n")
        assert cli.main(["report", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert "no usable observations" in err
        assert "1 corrupt" in err


class TestAuthorizationGate:
    def test_non_loopback_target_is_refused_by_default(self, capsys):
        code = cli.main(["discover-ttl", "--server", "8.8.8.8",
                         "--domains", "example.com"])
        assert code == 1
        assert "--authorized" in capsys.readouterr().err

    def test_refusal_names_the_stakes(self, capsys):
        cli.main(["snoop", "--server", "resolver.example.net",
                  "--domains", "example.com", "--duration", "10"])
        assert "users' traffic" in capsys.readouterr().err

    @pytest.mark.parametrize("server", ["127.0.0.1", "127.0.0.1:5353",
                                        "localhost", "[::1]:53", "sim"])
    def test_loopback_targets_need_no_flag(self, server):
        assert cli._is_loopback(server)

    @pytest.mark.parametrize("server", ["8.8.8.8", "dns.example.com",
                                        "[2001:db8::1]:53"])
    def test_remote_targets_do(self, server):
        assert not cli._is_loopback(server)


class TestSettingPrecedence:
    def args(self, **kw):
        return types.SimpleNamespace(**kw)

    def test_flag_beats_env_beats_config_beats_default(self, monkeypatch):
        monkeypatch.setenv("SNOOPDNS_RATE", "7")
        assert cli._setting(self.args(rate=3.0), {"rate": 5}, "rate",
                            10.0, float) == 3.0
        assert cli._setting(self.args(rate=None), {"rate": 5}, "rate",
                            10.0, float) == 7.0
        monkeypatch.delenv("SNOOPDNS_RATE")
        assert cli._setting(self.args(rate=None), {"rate": 5}, "rate",
                            10.0, float) == 5.0
        assert cli._setting(self.args(rate=None), {}, "rate", 10.0, float) == 10.0

    def test_boolean_strings_parse_loosely(self, monkeypatch):
        for text, expected in (("1", True), ("true", True), ("YES", True),
                               ("on", True), ("0", False), ("no", False)):
            monkeypatch.setenv("SNOOPDNS_AUTHORIZED", text)
            assert cli._setting(self.args(authorized=None), {}, "authorized",
                                False, bool) is expected

    def test_uncastable_value_is_a_usage_error(self):
        with pytest.raises(cli.UsageError):
            cli._setting(self.args(rate=None), {"rate": "fast"}, "rate",
                         10.0, float)

    def test_env_reaches_real_commands(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SNOOPDNS_METHOD", "warp-field")
        code = cli.main(["simulate", "--scenario", scenario_file(tmp_path)])
        assert code == 1
        assert "warp-field" in capsys.readouterr().err


class TestConfidence:
    def test_default_confidence_z(self):
        assert cli._z_for(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert cli._z_for(0.99) == pytest.approx(2.575829, abs=1e-5)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_out_of_range_confidence_is_a_usage_error(self, bad):
        with pytest.raises(cli.UsageError):
            cli._z_for(bad)


class TestSimulateCommand:
    def test_ranking_lands_on_stdout_and_truth_on_stderr(self, tmp_path, capsys):
        code = cli.main(["simulate", "--scenario", scenario_file(tmp_path),
                         "--duration", "6000", "--confirmations", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "alpha.test" in captured.out
        assert "lambda_per_s" in captured.out
        assert "true rates:" in captured.err
        assert "alpha.test=0.05/s" in captured.err

    def test_csv_format_parses(self, tmp_path, capsys):
        code = cli.main(["simulate", "--scenario", scenario_file(tmp_path),
                         "--duration", "6000", "--confirmations", "2",
                         "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["domain"] for row in rows] == ["alpha.test", "beta.test"]
        assert float(rows[0]["lambda_per_s"]) > float(rows[1]["lambda_per_s"])

    def test_seed_override_changes_the_run(self, tmp_path, capsys):
        outputs = []
        for seed in ("1", "2"):
            cli.main(["simulate", "--scenario", scenario_file(tmp_path),
                      "--duration", "6000", "--confirmations", "2",
                      "--seed", seed, "--format", "csv"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    def test_an_rd0_interval_above_the_max_ttl_aborts_the_domain(self, tmp_path,
                                                                 capsys):
        scenario = scenario_file(tmp_path, zones={
            "alpha.test": {"address": "10.0.0.1", "ttl": 60}}, clients=[])
        assert cli.main(["simulate", "--scenario", scenario, "--duration", "600",
                         "--method", "rd0", "--probe-interval", "1000"]) == 2
        err = capsys.readouterr().err
        assert "aborted alpha.test: probe interval 1000s exceeds the maximum TTL 60s" in err
        assert err.endswith("error: the scan recorded no observation\n")

    def test_a_scan_that_keeps_one_domain_exits_0(self, tmp_path, capsys):
        scenario = scenario_file(tmp_path, zones={
            "alpha.test": {"address": "10.0.0.1", "ttl": 60},
            "beta.test": {"address": "10.0.0.2", "ttl": 300}}, clients=[])
        assert cli.main(["simulate", "--scenario", scenario, "--duration", "600",
                         "--confirmations", "1", "--method", "rd0",
                         "--probe-interval", "100"]) == 0
        err = capsys.readouterr().err
        assert "aborted alpha.test" in err and "aborted beta.test" not in err
        assert "error:" not in err

    @pytest.mark.parametrize("how", ["flag", "env", "config"])
    def test_the_timing_method_is_a_usage_error_before_the_simulator_is_built(
            self, how, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.simnet, "load_scenario", lambda *a: pytest.fail("loaded"))
        monkeypatch.setattr(cli.scan, "run_batch", lambda *a, **kw: pytest.fail("ran"))
        argv = ["simulate", "--scenario", scenario_file(tmp_path)]
        if how == "flag":
            argv += ["--method", "timing"]
        elif how == "env":
            monkeypatch.setenv("SNOOPDNS_METHOD", "timing")
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"method": "timing"}))
            argv += ["--config", str(config)]
        assert cli.main(argv) == 1
        assert ("error: simulate cannot run the timing method, which needs a calibration"
                in capsys.readouterr().err)

    def test_out_appends_jsonl_records(self, tmp_path, capsys):
        log = tmp_path / "sim.jsonl"
        code = cli.main(["simulate", "--scenario", scenario_file(tmp_path),
                         "--duration", "3000", "--confirmations", "2",
                         "--out", str(log), "--scan-id", "sim-test"])
        assert code == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert lines and all(line["scan_id"] == "sim-test" for line in lines)


class TestReportCommand:
    def test_table_ranks_busier_domains_first(self, tmp_path, capsys):
        log = observation_log(tmp_path, ["busy.test", "slow.test"])
        assert cli.main(["report", "--in", log]) == 0
        out = capsys.readouterr().out
        assert out.index("busy.test") < out.index("slow.test")

    def test_top_and_csv_and_outfile(self, tmp_path, capsys):
        log = observation_log(tmp_path, ["busy.test", "slow.test", "dead.test"])
        report = tmp_path / "report.csv"
        code = cli.main(["report", "--in", log, "--format", "csv",
                         "--top", "2", "--out", str(report)])
        assert code == 0
        with report.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["rank"] == "1"

    def test_multiple_inputs_merge(self, tmp_path, capsys):
        log1 = observation_log(tmp_path, ["busy.test"], name="a.jsonl")
        log2 = observation_log(tmp_path, ["slow.test"], name="b.jsonl")
        assert cli.main(["report", "--in", log1, "--in", log2]) == 0
        out = capsys.readouterr().out
        assert "busy.test" in out and "slow.test" in out

    @pytest.mark.parametrize("server,method", [("sim", "rd0"),
                                               ("other", "ttl_recursive")])
    def test_logs_of_two_servers_or_methods_are_not_merged(self, tmp_path, capsys,
                                                           server, method):
        first = observation_log(tmp_path, ["busy.test"], name="a.jsonl")
        second = observation_log(tmp_path, ["busy.test"], name="b.jsonl",
                                 server=server, method=method)
        assert cli.main(["report", "--in", first, "--in", second]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        pairs = sorted([("sim", "ttl_recursive"), (server, method)])
        assert ", ".join(f"{s} {m}" for s, m in pairs) in captured.err

    def test_confidence_widens_the_interval(self, tmp_path, capsys):
        log = observation_log(tmp_path, ["busy.test"])
        widths = []
        for confidence in ("0.5", "0.99"):
            cli.main(["report", "--in", log, "--format", "csv",
                      "--confidence", confidence])
            rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            widths.append(float(rows[0]["ci_half_width"]))
        assert widths[0] < widths[1]

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        log = observation_log(tmp_path, ["busy.test", "slow.test"])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "csv", "top": 1}))
        assert cli.main(["report", "--in", log, "--config", str(config)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1

    def test_invalidated_domains_are_excluded(self, tmp_path, capsys):
        from snoopdns.corpus import record_line
        from snoopdns.engine import CycleError

        log = observation_log(tmp_path, ["busy.test", "tainted.test"])
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(record_line(CycleError(
                server="sim", domain="tainted.test", method="rd0", at=30.0,
                kind="rd_not_honored", message="fetches on our probes"), "t"))
        assert cli.main(["report", "--in", log]) == 0
        captured = capsys.readouterr()
        assert "tainted.test" not in captured.out
        assert "excluding tainted.test" in captured.err

    def test_an_error_excludes_a_domain_only_on_its_own_server(self, tmp_path, capsys):
        from snoopdns.corpus import record_line
        from snoopdns.engine import CycleError

        observed = observation_log(tmp_path, ["d.test"], name="x.jsonl", server="10.0.0.1")
        tainted = tmp_path / "y.jsonl"
        tainted.write_text(record_line(CycleError(
            server="10.9.9.9", domain="d.test", method="rd0", at=30.0,
            kind="rd_not_honored", message="fetches on our probes"), "t"))
        assert cli.main(["report", "--in", observed, "--in", str(tainted),
                         "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert [row["domain"] for row in csv.DictReader(io.StringIO(captured.out))] == [
            "d.test"]
        assert "excluding d.test on 10.9.9.9" in captured.err

    def test_malformed_error_records_are_skipped_not_fatal(self, tmp_path, capsys):
        from snoopdns.corpus import record_line
        from snoopdns.engine import CycleError

        log = observation_log(tmp_path, ["busy.test", "slow.test"])
        error = json.loads(record_line(CycleError(
            server="sim", domain="busy.test", method="rd0", at=30.0,
            kind="rd_not_honored", message="fetches on our probes"), "t"))
        with open(log, "a", encoding="utf-8") as handle:
            for record in ({k: v for k, v in error.items() if k != "domain"},
                           {**error, "error_kind": ["rd_not_honored"]}):
                handle.write(json.dumps(record) + "\n")
        assert cli.main(["report", "--in", log]) == 0
        captured = capsys.readouterr()
        assert "skipped 2 corrupt lines" in captured.err
        assert "busy.test" in captured.out


class TestPipeline:
    def test_simulate_then_report_round_trip(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert cli.main(["simulate", "--scenario", scenario_file(tmp_path),
                         "--duration", "9000", "--confirmations", "2",
                         "--out", str(log)]) == 0
        capsys.readouterr()
        assert cli.main(["report", "--in", str(log), "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["domain"] for row in rows] == ["alpha.test", "beta.test"]


class ClosableSimExchange(SimExchange):
    """A SimExchange that `with` can hold, as the commands hold a UdpExchange."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


@pytest.fixture
def sim_resolver(monkeypatch):
    """Factory: sim_resolver(zones) points every probing command at a fresh
    simulator of those zones, with no clients, on virtual time. Returns
    the list of simulators built so far, one per command run."""

    def install(zones, **scenario):
        sims = []

        def make_prober(args, config):
            clock = VirtualClock()
            sim = build_sim({"seed": 5, "zones": zones, "clients": [], **scenario},
                            start_time=clock.now())
            sims.append(sim)
            return Prober(transport=ClosableSimExchange(sim, clock), clock=clock)

        monkeypatch.setattr(cli, "_make_prober", make_prober)
        return sims

    return install


ZONES = {"alpha.test": {"address": "10.0.0.1", "ttl": 60},
         "beta.test": {"address": "10.0.0.2", "ttl": 120}}
DEAD = "unresolvable: no usable answer (rcode 3)"


class TestVirtualTimeCommands:
    def test_discover_ttl_reports_found_and_failed_domains(self, sim_resolver, tmp_path):
        sim_resolver(ZONES)
        out = tmp_path / "maxttls.json"
        assert cli.main(["discover-ttl", "--server", "sim", "--confirmations", "2",
                         "--domains", "alpha.test,beta.test,dead.test",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {
            "server": "sim",
            "max_ttls": {domain: {"max_ttl": ttl, "confirmations": 2,
                                  "snapped_to_grid": False,
                                  "candidates_seen": {str(ttl): 2}}
                         for domain, ttl in (("alpha.test", 60), ("beta.test", 120))},
            "failed": {"dead.test": DEAD},
        }

    def test_discover_ttl_exits_2_when_no_domain_is_found(self, sim_resolver, capsys):
        sim_resolver(ZONES)
        assert cli.main(["discover-ttl", "--server", "sim",
                         "--domains", "dead.test"]) == 2
        assert json.loads(capsys.readouterr().out)["max_ttls"] == {}

    def test_snoop_skips_a_dead_name_after_three_reads_and_scans_the_rest(
            self, sim_resolver, tmp_path, capsys):
        sims = sim_resolver(ZONES)
        log = tmp_path / "scan.jsonl"
        assert cli.main(["snoop", "--server", "sim", "--confirmations", "2",
                         "--domains", "alpha.test,dead.test,beta.test",
                         "--duration", "600", "--scan-id", "t", "--out", str(log)]) == 0
        assert f"skipping dead.test: {DEAD}" in capsys.readouterr().err
        [sim] = sims
        assert sum(e.kind == "probe_query" and e.domain == "dead.test"
                   for e in sim.log) == 3
        observed = load_observations(str(log)).observations
        assert {o.domain for o in observed} == {"alpha.test", "beta.test"}

    def test_a_discover_ttl_file_round_trips_through_snoop(self, sim_resolver, tmp_path):
        sims = sim_resolver(ZONES)
        maxttls, log = tmp_path / "maxttls.json", tmp_path / "scan.jsonl"
        domains = ["--domains", "alpha.test,beta.test"]
        assert cli.main(["discover-ttl", "--server", "sim", "--confirmations", "2",
                         *domains, "--out", str(maxttls)]) == 0
        assert cli.main(["snoop", "--server", "sim", *domains, "--cycles", "2",
                         "--max-ttls", str(maxttls), "--scan-id", "t",
                         "--out", str(log)]) == 0
        observed = load_observations(str(log)).observations
        assert sorted((o.domain, o.window_length) for o in observed) == [
            ("alpha.test", pytest.approx(60.0, abs=1.0))] * 2 + [
            ("beta.test", pytest.approx(120.0, abs=1.0))] * 2
        # the maxima came from the file, so no discovery round was sent: per
        # domain a first read, cycle 0's checkpoint and two window reads
        assert sum(e.kind == "probe_query" for e in sims[1].log) == 8

    def test_snoop_timing_calibrates_before_it_scans(self, sim_resolver, tmp_path):
        sim_resolver({**ZONES, "cal.test": {"address": "10.0.0.3", "ttl": 3600}})
        maxttls, log = tmp_path / "maxttls.json", tmp_path / "scan.jsonl"
        maxttls.write_text(json.dumps({"alpha.test": 60}))
        assert cli.main(["snoop", "--server", "sim", "--domains", "alpha.test",
                         "--method", "timing", "--calibration-domain", "cal.test",
                         "--max-ttls", str(maxttls), "--cycles", "3", "--scan-id", "t",
                         "--out", str(log)]) == 0
        observed = load_observations(str(log)).observations
        assert [(o.method, o.censored) for o in observed] == [("timing", True)] * 3

    def test_snoop_timing_refuses_a_jittery_server(self, sim_resolver, tmp_path, capsys):
        sim_resolver({**ZONES, "cal.test": {"address": "10.0.0.3", "ttl": 3600}},
                     rtt_model={"cached_mean": 25.0, "cached_jitter": 40.0,
                                "recursion_extra_mean": 50.0, "recursion_jitter": 40.0})
        maxttls = tmp_path / "maxttls.json"
        maxttls.write_text(json.dumps({"alpha.test": 60}))
        assert cli.main(["snoop", "--server", "sim", "--domains", "alpha.test",
                         "--method", "timing", "--calibration-domain", "cal.test",
                         "--max-ttls", str(maxttls), "--cycles", "3"]) == 2
        assert "error: InsufficientSeparation: sim: cached/miss RTTs overlap" in (
            capsys.readouterr().err)

    def test_snoop_has_no_liveness_flag(self, sim_resolver, capsys):
        sims = sim_resolver(ZONES)
        with pytest.raises(SystemExit) as exc:
            cli.main(["snoop", "--server", "sim", "--domains", "alpha.test",
                      "--cycles", "1", "--liveness"])
        assert exc.value.code == 1 and sims == []
