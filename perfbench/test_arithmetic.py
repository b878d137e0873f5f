"""Tests of the benchmark's own arithmetic on synthetic inputs.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import json
import types
from pathlib import Path

import pytest

import measure
import run
import scenarios
from tracing import SpanSummary, Tracer, covered_length, self_times


def obs(method, window_length, domain="a.example"):
    return types.SimpleNamespace(method=method, window_length=window_length, domain=domain)


class TestSelfTime:
    def test_nested_spans_subtract_only_direct_children(self):
        # parent [0, 10] > child [1, 4] > grandchild [2, 3]
        starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 4.0, 3.0], [-1, 0, 1]
        assert self_times(starts, ends, parents) == [7.0, 2.0, 1.0]

    def test_sequential_children(self):
        starts, ends, parents = [0.0, 1.0, 5.0], [10.0, 3.0, 9.0], [-1, 0, 0]
        assert self_times(starts, ends, parents) == [4.0, 2.0, 4.0]

    def test_overlapping_children_are_merged(self):
        # children [1, 5] and [3, 7] cover [1, 7]: 6 of the parent's 10
        starts, ends, parents = [0.0, 1.0, 3.0], [10.0, 5.0, 7.0], [-1, 0, 0]
        assert self_times(starts, ends, parents)[0] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        assert covered_length([(8.0, 12.0), (-3.0, 1.0)], 0.0, 10.0) == pytest.approx(3.0)

    def test_contained_and_disjoint_intervals(self):
        intervals = [(1.0, 6.0), (2.0, 3.0), (7.0, 8.0)]
        assert covered_length(intervals, 0.0, 10.0) == pytest.approx(6.0)

    def test_tracer_self_times_add_up_to_root_time(self):
        module = types.ModuleType("toy")
        exec("def leaf():\n    return 1\n"
             "def middle():\n    leaf()\n    leaf()\n", module.__dict__)
        leaf, middle = module.leaf, module.middle
        tracer = Tracer()
        tracer.patch_function([module], leaf, "toy.leaf")
        tracer.patch_function([module], middle, "toy.middle")
        module.middle()
        module.leaf()
        tracer.uninstall()
        assert module.leaf is leaf and module.middle is middle
        spans = SpanSummary(tracer)
        assert spans.count("toy.middle") == 1 and spans.count("toy.leaf") == 3
        assert spans.children_named("toy.middle", "toy.leaf") == 2
        assert sum(spans.layer_self_seconds().values()) == pytest.approx(spans.root_s)


class TestTracerNesting:
    def test_parents_and_raised_flags(self):
        class Worker:
            def outer(self):
                self.inner()
                try:
                    self.fail()
                except ValueError:
                    pass

            def inner(self):
                return 1

            def fail(self):
                raise ValueError("boom")

        tracer = Tracer()
        for name in ("outer", "inner", "fail"):
            tracer.patch(Worker, name, f"w.{name}")
        Worker().outer()
        tracer.uninstall()
        spans = tracer.spans()
        assert [s[0] for s in spans] == ["w.outer", "w.inner", "w.fail"]
        assert [s[3] for s in spans] == [-1, 0, 0]
        assert [s[4] for s in spans] == [False, False, True]
        summary = SpanSummary(tracer)
        assert summary.children_named("w.outer", "w.inner") == 1
        assert summary.raised("w.fail") == 1
        assert summary.self_s[0] == pytest.approx(
            (spans[0][2] - spans[0][1]) - (spans[1][2] - spans[1][1])
            - (spans[2][2] - spans[2][1]))
        assert Worker.__dict__["inner"].__name__ == "inner"


class TestLateness:
    def test_rd0_span_minus_given_interval(self):
        assert measure.lateness_s(obs("rd0", 2.5), 300, probe_interval=2.0) == pytest.approx(0.5)

    def test_rd0_default_interval_is_half_the_max_ttl(self):
        assert measure.lateness_s(obs("rd0", 150.004), 300) == pytest.approx(0.004)

    def test_ttl_recursive_effective_minus_planned_window(self):
        assert measure.lateness_s(obs("ttl_recursive", 301.0), 300) == pytest.approx(1.0)
        assert measure.lateness_s(obs("ttl_recursive", 30.2), 60,
                                  window_fraction=0.5) == pytest.approx(0.2)

    def test_lateness_ms_uses_each_domains_max_ttl(self):
        observations = [obs("ttl_recursive", 60.01, "a"), obs("ttl_recursive", 120.0, "b")]
        values = measure.lateness_ms(observations, {"a": 60, "b": 120})
        assert values == pytest.approx([10.0, 0.0])

    def test_timing_has_no_planned_send_time(self):
        with pytest.raises(ValueError):
            measure.lateness_s(obs("timing", 1.0), 60)


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        assert measure.percentile(values, 50) == 50
        assert measure.percentile(values, 99) == 99
        assert measure.percentile(values, 100) == 100
        assert measure.percentile([7.0], 99) == 7.0

    def test_sample_count_decides_which_percentiles_are_reported(self):
        assert measure.supports(1000, 99) and not measure.supports(999, 99)
        assert measure.supports(20, 50) and not measure.supports(19, 50)
        small = measure.summarize([float(v) for v in range(999)])
        assert small["n"] == 999 and small["p99"] is None and small["p50"] == 499.0
        large = measure.summarize([float(v) for v in range(1000)])
        assert large["n"] == 1000 and large["p99"] == 989.0

    def test_empty_sample(self):
        assert measure.summarize([]) == {"n": 0, "p50": None, "p99": None}
        with pytest.raises(ValueError):
            measure.percentile([], 50)

    def test_quartile_spread(self):
        assert measure.quartile_spread([1.0] * 10) == 0.0
        assert measure.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
            (8.25 - 2.75) / 5.5)


class TestScenarios:
    def test_same_seed_same_inputs(self):
        assert scenarios.day_scenario(3) == scenarios.day_scenario(3)
        assert scenarios.day_scenario(3) != scenarios.day_scenario(4)

    def test_day_population_matches_scenario_a(self):
        scenario = scenarios.day_scenario(5)
        rates = [c["process"]["rate"] for c in scenario["clients"]]
        assert len(rates) == 200
        assert rates[0] == pytest.approx(10 ** -3.5) and rates[-1] == pytest.approx(0.1)
        ttls = [z["ttl"] for z in scenario["zones"].values()]
        assert {t: ttls.count(t) for t in set(ttls)} == {60: 67, 120: 67, 300: 66}

    def test_heavy_and_loopback_populations(self):
        heavy = scenarios.heavy_scenario(1)
        rates = [c["process"]["rate"] for c in heavy["clients"]]
        assert len(rates) == 20 and rates[0] == 1.0 and rates[-1] == pytest.approx(10.0)
        loop = scenarios.loopback_scenario(1)
        assert loop["clock_mode"] == "realtime"
        assert scenarios.max_ttls(loop) == {d: z["ttl"] for d, z in loop["zones"].items()}


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
