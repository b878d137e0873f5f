"""Rate estimation: exposure accounting, intervals, ranking, output."""

import csv
import io
import math
import random

import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from snoopdns.engine import RefreshObservation
from snoopdns.estimation import (ArrivalEstimate, DomainStats, NoObservations,
                                 aggregate, estimate, format_ranking_table,
                                 poisson_pmf, rank_domains, spearman_rho,
                                 write_ranking_csv)


def obs(method="ttl_recursive", domain="a.test", window=100.0, delay=None,
        start=0.0):
    return RefreshObservation(server="s", domain=domain, method=method,
                              window_start=start, window_length=window,
                              probe_rtt_ms=1.0, delay=delay)


class TestAggregate:
    def test_expiry_watch_counts_event_delays_and_censored_windows(self):
        stats = aggregate([
            obs(delay=10.0), obs(delay=20.0), obs(window=100.0),
        ])["a.test"]
        assert stats.events == 2
        assert stats.observed_seconds == pytest.approx(10.0 + 20.0 + 100.0)
        assert stats.cycles == 3
        assert stats.censored == 1

    def test_passive_watch_counts_full_spans_either_way(self):
        stats = aggregate([
            obs(method="rd0", window=150.0, delay=50.0),
            obs(method="rd0", window=150.0),
        ])["a.test"]
        assert stats.events == 1
        assert stats.observed_seconds == pytest.approx(300.0)

    def test_domains_are_kept_separate(self):
        stats = aggregate([obs(domain="a.test"), obs(domain="b.test")])
        assert set(stats) == {"a.test", "b.test"}

    def test_merge_accumulates(self):
        # two scans' observations fold into one tally per domain
        left, right = [obs(delay=10.0)], [obs(window=90.0)]
        merged = aggregate(left + right)["a.test"]
        assert merged.events == 1
        assert merged.observed_seconds == pytest.approx(100.0)
        assert merged.cycles == 2
        # and another domain's never fold into it
        other = aggregate(left + [obs(domain="b.test")])
        assert other["a.test"] == aggregate(left)["a.test"]


class TestEstimate:
    def test_textbook_rate_and_interval(self):
        stats = DomainStats(domain="a.test", events=3000,
                            observed_seconds=450000.0, cycles=3000)
        e = estimate(stats)
        assert e.arrival_rate_per_s == pytest.approx(3000 / 450000)
        assert e.mean_refresh_period_s == 150.0
        assert e.ci_half_width == pytest.approx(
            1.96 * math.sqrt((3000 / 450000) / 450000))

    def test_zero_events_give_zero_rate_and_zero_width(self):
        e = estimate(DomainStats(domain="d", events=0, observed_seconds=900.0))
        assert e.arrival_rate_per_s == 0.0
        assert e.ci_half_width == 0.0
        assert e.mean_refresh_period_s == math.inf

    def test_no_exposure_raises(self):
        with pytest.raises(NoObservations):
            estimate(DomainStats(domain="d"))

    def test_z_scales_the_width(self):
        stats = DomainStats(domain="d", events=100, observed_seconds=10000.0)
        assert estimate(stats, z=2.0).ci_half_width == pytest.approx(
            2 * estimate(stats, z=1.0).ci_half_width)
        with pytest.raises(ValueError):
            estimate(stats, z=0.0)

    @given(st.integers(1, 10**6), st.floats(1.0, 10**7))
    def test_doubling_exposure_shrinks_the_interval_by_root_two(self, t, o):
        one = DomainStats(domain="d", events=t, observed_seconds=o)
        two = DomainStats(domain="d", events=2 * t, observed_seconds=2 * o)
        e1, e2 = estimate(one), estimate(two)
        assert e2.arrival_rate_per_s == pytest.approx(e1.arrival_rate_per_s)
        assert e2.ci_half_width == pytest.approx(e1.ci_half_width / math.sqrt(2))


class TestPoissonPmf:
    def test_matches_scipy_across_a_grid(self):
        for mu in (0.1, 1.0, 5.0, 20.0, 123.456):
            for k in range(0, 60):
                expected = scipy.stats.poisson.pmf(k, mu)
                assert poisson_pmf(k, mu) == pytest.approx(expected, rel=1e-10,
                                                           abs=1e-300)

    def test_zero_mean_is_a_point_mass(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_pmf(2, -0.5)

    def test_mass_sums_to_one(self):
        total = sum(poisson_pmf(k, 7.5) for k in range(0, 100))
        assert total == pytest.approx(1.0, rel=1e-12)


class TestSpearman:
    def test_matches_scipy_on_random_data_with_ties(self):
        rng = random.Random(404)
        for trial in range(50):
            n = rng.randrange(3, 40)
            xs = [rng.choice([1.0, 2.0, 3.0, rng.random() * 10]) for _ in range(n)]
            ys = [rng.choice([1.0, 2.0, rng.random() * 10]) for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            expected = scipy.stats.spearmanr(xs, ys).statistic
            assert spearman_rho(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_perfect_orders(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman_rho([1, 2, 3], [9, 5, 1]) == pytest.approx(-1.0)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValueError):
            spearman_rho([1.0], [2.0])
        with pytest.raises(ValueError):
            spearman_rho([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            spearman_rho([5, 5, 5], [1, 2, 3])


def make_estimate(domain, rate, o=1000.0, events=None):
    events = int(rate * o) if events is None else events
    return ArrivalEstimate(domain=domain, arrival_rate_per_s=rate,
                           ci_half_width=0.1 * rate, events=events,
                           observed_seconds=o, cycles=events + 1)


class TestRanking:
    def test_orders_by_rate_descending(self):
        ranked = rank_domains([make_estimate("low.test", 0.001),
                               make_estimate("high.test", 0.1),
                               make_estimate("mid.test", 0.01)])
        assert [e.domain for e in ranked] == ["high.test", "mid.test", "low.test"]

    def test_rate_ties_prefer_better_observed_then_name(self):
        ranked = rank_domains([
            make_estimate("bbb.test", 0.01, o=100.0),
            make_estimate("aaa.test", 0.01, o=100.0),
            make_estimate("ccc.test", 0.01, o=900.0),
        ])
        assert [e.domain for e in ranked] == ["ccc.test", "aaa.test", "bbb.test"]

    def test_top_n_truncates(self):
        estimates = [make_estimate(f"d{i}.test", 0.001 * (i + 1))
                     for i in range(10)]
        assert len(rank_domains(estimates, top_n=3)) == 3
        with pytest.raises(ValueError):
            rank_domains(estimates, top_n=-1)


class TestOutput:
    def test_csv_round_trips_through_the_csv_module(self):
        ranked = [make_estimate("a.test", 0.05, o=295.0, events=15),
                  make_estimate("b.test", 0.001, o=5000.0, events=5)]
        buffer = io.StringIO()
        write_ranking_csv(buffer, ranked)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert len(rows) == 2
        assert rows[0]["rank"] == "1"
        assert rows[0]["domain"] == "a.test"
        assert float(rows[0]["lambda_per_s"]) == pytest.approx(0.05)
        # values are written with 6 significant digits
        assert float(rows[0]["mean_refresh_period_s"]) == pytest.approx(
            295 / 15, rel=1e-4)
        assert rows[1]["events"] == "5"

    def test_table_is_aligned_and_complete(self):
        ranked = [make_estimate("a.test", 0.05), make_estimate("bb.test", 0.01)]
        text = format_ranking_table(ranked)
        lines = text.splitlines()
        assert lines[0].startswith("rank")
        assert "domain" in lines[0]
        assert len({line.index("a.test" if "a.test" in line else "bb.test")
                    for line in lines[2:]}) == 1, "domain column should align"

    def test_empty_ranking_renders_headers_only(self):
        text = format_ranking_table([])
        assert "rank" in text.splitlines()[0]
        buffer = io.StringIO()
        write_ranking_csv(buffer, [])
        assert buffer.getvalue().strip() == ",".join(
            ["rank", "domain", "lambda_per_s", "ci_half_width",
             "mean_refresh_period_s", "events", "observed_seconds", "cycles"])
