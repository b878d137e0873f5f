"""Command line behavior: exit codes, precedence, the authorization gate,
and the simulate/report pipeline on real files."""

import csv
import io
import json
import socket
import types

import pytest

from snoopdns import cli
from snoopdns.corpus import ObservationWriter
from snoopdns.engine import RefreshEvent, RefreshObservation


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
                start = 60.0 * i
                event = None
                censored = rank > 0 or i % 2 == 0
                if not censored:
                    event = RefreshEvent(delay_after_expiry=10.0 * (rank + 1),
                                         inferred_refresh_time=start + 10.0)
                writer.write(RefreshObservation(
                    server=server, domain=domain, method=method,
                    window_start=start, window_length=60.0, probe_rtt_ms=1.0,
                    censored=censored, event=event))
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
    ])
    def test_snoop_input_it_cannot_use_is_a_usage_error_before_any_probe(
            self, flags, message, tmp_path, monkeypatch, capsys):
        path = tmp_path / "maxttls.json"
        path.write_text(json.dumps({"a.test": 60}))
        monkeypatch.setattr(cli, "_make_prober", lambda *args: pytest.fail("probed"))
        assert cli.main(["snoop", "--server", "127.0.0.1", "--liveness", "--cycles", "1",
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
                         "--method", "rd0", "--probe-interval", "1000"]) == 0
        assert ("aborted alpha.test: probe interval 1000s exceeds the maximum TTL 60s"
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
