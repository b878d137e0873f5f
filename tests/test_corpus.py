"""Domain lists and the JSONL observation log."""

import io
import json
import math
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snoopdns.corpus import (ObservationWriter, ParseError, load_domain_list,
                             load_observations, observation_from_json, record_line)
from snoopdns.engine import METHODS, CycleError, RefreshObservation


class TestDomainLists:
    def test_plain_lines_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "domains.txt"
        path.write_text("# corpus\n\nexample.com\nWWW.Example.ORG.\n\n# tail\n")
        assert load_domain_list(str(path)) == (["example.com", "www.example.org"], 0)

    def test_invalid_names_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "domains.txt"
        path.write_text("good.com\nnot a domain!\nunder_scored.ok\n-bad-.com\n")
        assert load_domain_list(str(path)) == (["good.com", "under_scored.ok",
                                                 "-bad-.com"], 1)

    def test_duplicates_keep_first_and_count(self, tmp_path):
        path = tmp_path / "domains.txt"
        path.write_text("a.com\nb.com\nA.COM.\n")
        assert load_domain_list(str(path)) == (["a.com", "b.com"], 1)

    def test_csv_with_rank_column(self, tmp_path):
        path = tmp_path / "top.csv"
        path.write_text("GlobalRank,Domain,TldRank\n1,example.com,1\n"
                        "2,example.org,2\n,broken,,\n")
        names, _ = load_domain_list(str(path))
        assert names == ["example.com", "example.org", "broken"]

    def test_auto_sniffs_csv_headers(self, tmp_path):
        path = tmp_path / "list"
        path.write_text("rank,domain\n5,example.net\n")
        assert load_domain_list(str(path)) == (["example.net"], 0)

    def test_a_csv_header_after_blank_lines_is_still_the_header(self, tmp_path):
        path = tmp_path / "top.csv"
        path.write_text("\n  \nrank,Domain\n1,example.com\n\n2,example.org\n3,\n")
        assert load_domain_list(str(path)) == (["example.com", "example.org"], 1)

    def test_a_comment_naming_a_domain_column_is_no_header(self, tmp_path):
        path = tmp_path / "list"
        path.write_text("# columns: rank,domain\nexample.com\nexample.org\n")
        assert load_domain_list(str(path)) == (["example.com", "example.org"], 0)

    def test_a_csv_header_after_comment_lines_is_still_the_header(self, tmp_path):
        path = tmp_path / "top.csv"
        path.write_text("# exported list\nrank,domain\n1,example.com\n2,example.org\n")
        assert load_domain_list(str(path)) == (["example.com", "example.org"], 0)

    def test_auto_sniffs_plain_lines(self, tmp_path):
        path = tmp_path / "list"
        path.write_text("example.net\nexample.org\n")
        assert load_domain_list(str(path))[0] == ["example.net", "example.org"]


def sample_observation(censored=False):
    if censored:
        return RefreshObservation(server="sim", domain="a.test", method="rd0",
                                  window_start=10.0, window_length=150.0,
                                  probe_rtt_ms=4.25, delay=None)
    return RefreshObservation(server="sim", domain="a.test",
                              method="ttl_recursive", window_start=300.0,
                              window_length=300.0, probe_rtt_ms=5.5, delay=120.0)


def record_dict(item, scan_id):
    """The record as a dict, field by field: the reference for record_line."""
    if isinstance(item, CycleError):
        return {"kind": "error", "schema_version": 1, "scan_id": scan_id,
                "server": item.server, "domain": item.domain,
                "method": item.method, "at": item.at, "error_kind": item.kind,
                "message": item.message}
    delay = item.delay
    return {"kind": "observation", "schema_version": 1, "scan_id": scan_id,
            "server": item.server, "domain": item.domain,
            "method": item.method, "window_start": item.window_start,
            "window_length": item.window_length,
            "probe_rtt_ms": item.probe_rtt_ms, "censored": item.censored,
            "event": None if delay is None else {
                "delay_after_expiry": delay,
                "inferred_refresh_time": item.window_start + delay}}


def parsed(item, scan_id):
    return json.loads(record_line(item, scan_id))


# every code point, with quotes, backslashes, control characters,
# non-ASCII and lone surrogates drawn often
any_text = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600')))
special_floats = st.sampled_from([-0.0, 0.0, 5e-324, 1e22, 1e16, 0.1,
                                  math.nan, math.inf, -math.inf])
any_float = st.one_of(special_floats, st.floats())
any_number = st.one_of(any_float, st.integers())


@st.composite
def any_records(draw, number=any_number):
    """Observations and errors with arbitrary field values."""
    if draw(st.booleans()):
        return CycleError(draw(any_text), draw(any_text), draw(any_text),
                          draw(number), draw(any_text), draw(any_text))
    return RefreshObservation(draw(any_text), draw(any_text), draw(any_text),
                              draw(number), draw(number), draw(number),
                              draw(st.one_of(st.none(), number)))


@st.composite
def repeating_records(draw):
    """Records whose server, domain and method each come from a pool of at
    most two, so most observations repeat a (server, domain, method) and
    some differ in one field only, mixed with records with arbitrary fields."""
    text = st.one_of(any_text,
                     st.sampled_from(["sim", "a.test", "%s", '%%"\\', "\u00e9\ud800"]))
    pools = [draw(st.lists(text, min_size=1, max_size=2)) for _ in range(3)]
    number = st.one_of(any_number, st.booleans())
    items = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 3)) == 0:
            items.append(draw(any_records(number=number)))
        else:
            server, domain, method = (draw(st.sampled_from(pool)) for pool in pools)
            items.append(RefreshObservation(server, domain, method, draw(number), draw(number),
                                            draw(number), draw(st.one_of(st.none(), number))))
    return items


@st.composite
def loadable_records(draw):
    """Records that pass validation: arbitrary text, special floats."""
    if draw(st.booleans()):
        return draw(any_records(number=any_float).filter(
            lambda r: isinstance(r, CycleError)))
    finite = st.one_of(special_floats.filter(math.isfinite),
                       st.floats(allow_nan=False, allow_infinity=False))
    start = draw(finite)
    window = draw(st.one_of(st.sampled_from([5e-324, 1e22, 0.1, 300.0]),
                            st.floats(1e-300, 1e300)))
    delay = None
    if draw(st.booleans()):
        delay = window * draw(st.floats(0.0, 1.0))
    return RefreshObservation(draw(any_text), draw(any_text),
                              draw(st.sampled_from(sorted(METHODS))), start,
                              window, draw(any_float), delay)


class TestJsonlLog:
    def test_observation_round_trip(self):
        for censored in (False, True):
            original = sample_observation(censored)
            record = parsed(original, "scan-1")
            assert record["schema_version"] == 1
            back = observation_from_json(record)
            assert back == original

    @given(st.floats(0.0, 1e6), st.floats(0.1, 1e5), st.floats(0.0, 1.0),
           st.booleans())
    def test_round_trip_property(self, start, window, frac, censored):
        original = RefreshObservation(server="sim", domain="a.test",
                                      method="timing", window_start=start,
                                      window_length=window, probe_rtt_ms=1.0,
                                      delay=None if censored else frac * window)
        assert observation_from_json(parsed(original, "x")) == original

    # ill-typed numbers too: they must leave the usual path
    @given(st.one_of(
        any_records(),
        any_records(number=st.one_of(any_number, st.booleans(), st.none())),
        any_records(number=st.floats(allow_nan=False, allow_infinity=False))),
        any_text)
    def test_line_is_json_dumps_of_the_fields(self, item, scan_id):
        try:
            expected = json.dumps(record_dict(item, scan_id), sort_keys=True) + "\n"
        except (TypeError, OverflowError) as exc:  # window_start + delay is undefined
            with pytest.raises(type(exc)):
                record_line(item, scan_id)
            return
        assert record_line(item, scan_id) == expected

    @given(st.lists(loadable_records(), min_size=1, max_size=4), any_text)
    def test_every_written_line_loads_back(self, tmp_path_factory, items, scan_id):
        path = tmp_path_factory.mktemp("log") / "log.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            writer = ObservationWriter(handle, scan_id)
            for item in items:
                writer.write(item)
        log = load_observations(str(path))
        assert log.corrupt_lines == 0
        # JSON reads an escaped surrogate pair back as one character
        assert log.scan_ids == {json.loads(json.dumps(scan_id))}
        # compared as lines, so that NaN fields and surrogate pairs count as equal
        observations = [i for i in items if isinstance(i, RefreshObservation)]
        errors = [i for i in items if isinstance(i, CycleError)]
        assert ([record_line(o, scan_id) for o in log.observations]
                == [record_line(o, scan_id) for o in observations])
        assert ([record_line(e, scan_id) for e in log.errors]
                == [record_line(e, scan_id) for e in errors])

    @given(repeating_records(), any_text)
    def test_a_writer_writes_the_record_lines(self, tmp_path_factory, items, scan_id):
        # the writer keeps the text around an observation's numbers per
        # (server, domain, method); its bytes must still be record_line's
        path = tmp_path_factory.mktemp("log") / "log.jsonl"
        expected = []
        with open(path, "w", encoding="utf-8") as handle:
            writer = ObservationWriter(handle, scan_id)
            for item in items:
                try:
                    line = record_line(item, scan_id)
                except (TypeError, OverflowError) as exc:
                    with pytest.raises(type(exc)):
                        writer.write(item)
                    continue
                writer.write(item)
                expected.append(line)
        assert path.read_text(encoding="utf-8") == "".join(expected)
        assert writer.records_written == len(expected)

    def test_loaded_errors_are_the_written_ones_and_write_back_their_bytes(self, tmp_path):
        path = tmp_path / "log.jsonl"
        errors = [CycleError("sim", "a.test", "rd0", 30.5, "rd_not_honored", "full TTLs"),
                  CycleError("sim", "b.test", "ttl_recursive", 61.0, "timeout", "no reply"),
                  CycleError("sim", "c.test", "discovery", 7.25, "server_prefetches",
                             "TTL jumped to 60 with ~30s left before expiry")]
        with open(path, "w", encoding="utf-8") as handle:
            writer = ObservationWriter(handle, "scan-e")
            writer.write(sample_observation())
            for error in errors:
                writer.write(error)
            # a hand-written line whose at is a JSON integer keeps it one
            handle.write(record_line(errors[0], "scan-e").replace("30.5", "30"))
        log = load_observations(str(path))
        assert log.corrupt_lines == 0
        assert log.errors[:3] == errors
        assert all(type(e) is CycleError for e in log.errors)
        assert type(log.errors[3].at) is int
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert [record_line(e, "scan-e") for e in log.errors] == lines[1:]

    def test_writer_appends_one_flushed_line_per_record(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            writer = ObservationWriter(handle, "scan-7")
            writer.write(sample_observation())
            writer.write(CycleError(server="sim", domain="a.test", method="rd0",
                                    at=5.0, kind="timeout", message="no reply"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert {json.loads(line)["kind"] for line in lines} == {"observation",
                                                                "error"}
        assert all(json.loads(line)["scan_id"] == "scan-7" for line in lines)

    def test_writer_rejects_unknown_types(self):
        writer = ObservationWriter(io.StringIO(), "scan")
        with pytest.raises(TypeError):
            writer.write({"kind": "observation"})

    def test_load_skips_and_counts_corrupt_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = record_line(sample_observation(), "s").strip()
        error_line = record_line(
            CycleError("sim", "a.test", "rd0", 1.0, "timeout", "m"), "s").strip()
        bad_schema = json.dumps({**parsed(sample_observation(), "s"),
                                 "schema_version": 99})
        bad_event = json.dumps({**parsed(sample_observation(), "s"),
                                "censored": True})
        path.write_text("\n".join([
            good, "{not json", '"just a string"', bad_schema,
            '{"kind": "mystery"}', bad_event, error_line, "", good,
        ]) + "\n")
        log = load_observations(str(path))
        assert len(log.observations) == 2
        assert len(log.errors) == 1
        assert log.corrupt_lines == 5  # blank lines skip silently
        assert log.scan_ids == {"s"}

    def test_non_boolean_censored_and_boolean_schema_version_are_corrupt(self, tmp_path):
        path = tmp_path / "log.jsonl"
        censored = parsed(sample_observation(censored=True), "s")
        uncensored = parsed(sample_observation(), "s")
        error = parsed(CycleError("sim", "a.test", "rd0", 1.0, "timeout", "m"), "s")
        path.write_text("\n".join(json.dumps(record) for record in [
            censored,
            {**censored, "censored": "false"},
            {**censored, "schema_version": True},
            {**uncensored, "censored": 0},
            {**error, "schema_version": True},
        ]) + "\n")
        log = load_observations(str(path))
        assert log.observations == [sample_observation(censored=True)]
        assert log.errors == []
        assert log.corrupt_lines == 4

    def test_events_outside_their_window_and_empty_windows_are_corrupt(self, tmp_path):
        path = tmp_path / "log.jsonl"
        censored = parsed(sample_observation(censored=True), "s")
        uncensored = parsed(sample_observation(), "s")  # window 300 to 600, delay 120
        event = uncensored["event"]
        path.write_text("\n".join(json.dumps(record) for record in [
            {**uncensored, "event": {**event, "inferred_refresh_time": 600.5}},
            {**uncensored, "event": {**event, "inferred_refresh_time": 299.5}},
            {**uncensored, "event": {**event, "delay_after_expiry": 300.5}},
            {**censored, "window_length": 0.0},
            {**uncensored, "censored": True},
            {**censored, "censored": False},
            # in its window but not window_start + delay: loads as the delay
            {**uncensored, "event": {**event, "inferred_refresh_time": 421.0}},
        ]) + "\n")
        log = load_observations(str(path))
        assert log.observations == [sample_observation()]
        assert log.corrupt_lines == 6

    def test_numbers_that_are_not_json_numbers_are_corrupt(self, tmp_path):
        path = tmp_path / "log.jsonl"
        censored = parsed(sample_observation(censored=True), "s")
        uncensored = parsed(sample_observation(), "s")
        event = uncensored["event"]
        path.write_text("\n".join(json.dumps(record) for record in [
            {**censored, "window_start": 10},  # an int is a JSON number
            {**censored, "window_start": "300"},
            {**censored, "probe_rtt_ms": True},
            {**censored, "window_length": "1e3"},
            {**censored, "window_length": 10 ** 400},  # no float holds it
            {**uncensored, "event": {**event, "delay_after_expiry": "120"}},
            {**uncensored, "event": {**event, "inferred_refresh_time": False}},
        ]) + "\n")
        log = load_observations(str(path))
        assert log.observations == [sample_observation(censored=True)]
        assert log.corrupt_lines == 6

    def test_text_fields_that_are_not_json_strings_are_corrupt(self, tmp_path):
        path = tmp_path / "log.jsonl"
        censored = parsed(sample_observation(censored=True), "s")
        error = parsed(CycleError("sim", "a.test", "rd0", 1.0, "timeout", "m"), "s")
        untimed = {key: value for key, value in error.items() if key != "at"}
        nameless = {key: value for key, value in error.items() if key != "domain"}
        path.write_text("\n".join(json.dumps(record) for record in [
            censored,
            error,
            {**censored, "domain": None},
            {**censored, "domain": ["x"]},
            {**censored, "server": 5},
            {**censored, "method": None},
            {**censored, "scan_id": 7},
            {**error, "server": 5},
            {**error, "scan_id": ["s"]},
            nameless,
            {**error, "error_kind": ["rd_not_honored"]},
            {**error, "message": None},
            {**error, "at": "1.0"},
            {**error, "at": True},
            untimed,
        ]) + "\n")
        log = load_observations(str(path))
        assert log.observations == [sample_observation(censored=True)]
        assert log.errors == [CycleError("sim", "a.test", "rd0", 1.0, "timeout", "m")]
        assert log.corrupt_lines == 13
        assert log.scan_ids == {"s"}
        with pytest.raises(ParseError, match="not a JSON string"):
            observation_from_json({**censored, "domain": None})

    def test_reloaded_records_share_their_strings(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            writer = ObservationWriter(handle, "scan-shared")
            for i in range(6):
                writer.write(sample_observation(censored=i % 2 == 0))
                writer.write(CycleError("sim", "a.test", "rd0", float(i), "timeout", "m"))
        log = load_observations(str(path))
        assert len(log.observations) == len(log.errors) == 6
        for name in ("server", "domain", "method"):
            values = [getattr(record, name) for record in log.observations + log.errors]
            first = {}
            assert all(first.setdefault(value, value) is value for value in values)
        assert len({o.method for o in log.observations}) == 2

    def test_interrupted_final_line_is_survivable(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = record_line(sample_observation(), "s")
        path.write_text(good + good[: len(good) // 2])
        log = load_observations(str(path))
        assert len(log.observations) == 1
        assert log.corrupt_lines == 1

    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            writer = ObservationWriter(handle, "scan-threads")

            def hammer():
                for _ in range(200):
                    writer.write(sample_observation())

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        lines = path.read_text().splitlines()
        assert len(lines) == 8 * 200
        for line in lines:
            json.loads(line)
        assert writer.records_written == 8 * 200
