"""Ground-truth simulator: config validation, determinism, cache model."""

import hashlib
import heapq
import json
import random
import socket
import tracemalloc
from collections.abc import Sequence

import pytest
from scipy import stats

from snoopdns import wire
from snoopdns.clock import SystemClock, VirtualClock
from snoopdns.scan import run_batch
from snoopdns.simnet import (ConfigError, Sim, SimEvent, SimExchange, UdpSimServer,
                             build_sim, config_from_dict, load_scenario, serve_udp)
from snoopdns.transport import Prober, UdpExchange


def base_config(**overrides):
    config = {
        "seed": 1,
        "zones": {"a.test": {"address": "10.0.0.1", "ttl": 60}},
        "clients": [],
    }
    config.update(overrides)
    return config


def query(name, rd=True, ident=1):
    return wire.DnsQuery(id=ident, qname=name, recursion_desired=rd)


def refreshes(log):
    """(at, trigger, cause) per cache_refresh; the trigger is the lookup
    or probe logged at the same instant just before it, else the server."""
    out = []
    for before, event in zip([None, *log], log):
        if event.kind != "cache_refresh":
            continue
        trigger = "server"
        if before is not None and before.at == event.at:
            trigger = {"client_query": "client", "probe_query": "probe"}.get(before.kind, "server")
        out.append((event.at, trigger, event.cause))
    return out


def gaps(times):
    return [later - earlier for earlier, later in zip(times, times[1:])]


def per_arrival_refreshes(rates, interval, ttl, band, probe_every, duration, seed):
    """Reference for one domain: every client lookup is its own event.

    Poisson populations (`rates`), an optional periodic one (`interval`),
    RD=1 probes every `probe_every` s and an optional pre_refresh `band`
    (low, high), with the cache rules of Sim. Returns (at, trigger,
    cause) per cache refresh, as `refreshes` reads them from Sim.log.
    """
    rng = random.Random(seed)
    heap = [(rng.expovariate(rate), i, "poisson") for i, rate in enumerate(rates)]
    if interval:
        heap.append((interval, -1, "periodic"))
    heap.append((probe_every, -2, "probe"))
    heapq.heapify(heap)
    expires, generation, out = 0.0, 0, []

    def refresh(at, trigger, cause):
        nonlocal expires, generation
        expires, generation = at + ttl, generation + 1
        out.append((at, trigger, cause))
        if band:
            prefetch_at = expires - rng.uniform(*band)
            if prefetch_at > at:
                heapq.heappush(heap, (prefetch_at, generation, "prefetch"))

    while heap[0][0] <= duration:
        at, key, kind = heapq.heappop(heap)
        if kind == "prefetch":
            if key == generation:
                refresh(at, "server", "prefetch")
            continue
        trigger = "probe" if kind == "probe" else "client"
        remaining = max(0.0, expires - at)
        if remaining > 0 and band and band[0] <= remaining <= band[1]:
            refresh(at, trigger, "prefetch")
        elif remaining == 0:
            refresh(at, trigger, trigger)
        if kind == "poisson":
            heapq.heappush(heap, (at + rng.expovariate(rates[key]), key, kind))
        else:
            step = interval if kind == "periodic" else probe_every
            heapq.heappush(heap, (at + step, key, kind))
    return out


def simulated_refreshes(rates, interval, ttl, band, probe_every, duration, seed):
    """The same scenario through Sim, probed with RD=1 every `probe_every` s."""
    clients = [{"domain": "a.test", "process": {"kind": "poisson", "rate": rate}}
               for rate in rates]
    if interval:
        clients.append({"domain": "a.test",
                        "process": {"kind": "periodic", "interval": interval}})
    config = base_config(seed=seed, clients=clients)
    config["zones"]["a.test"]["ttl"] = ttl
    if band:
        config["anomaly"] = {"kind": "pre_refresh", "remaining_low": band[0],
                             "remaining_high": band[1]}
    sim = build_sim(config)
    at = probe_every
    while at <= duration:
        sim.handle_query(query("a.test"), at)
        at += probe_every
    sim.advance(duration - sim.time)
    return refreshes(sim.log)


class TestConfigValidation:
    def test_minimal_config_builds(self):
        sim = build_sim(base_config())
        assert sim.config.zones["a.test"].ttl == 60

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="zonez"):
            config_from_dict(base_config(zonez={}))

    def test_unknown_nested_key_rejected(self):
        bad = base_config()
        bad["zones"]["a.test"]["tttl"] = 60
        with pytest.raises(ConfigError):
            config_from_dict(bad)

    def test_client_for_unknown_zone_rejected(self):
        bad = base_config(clients=[
            {"domain": "other.test", "process": {"kind": "poisson", "rate": 1.0}}])
        with pytest.raises(ConfigError, match="other.test"):
            config_from_dict(bad)

    def test_negative_rate_rejected(self):
        bad = base_config(clients=[
            {"domain": "a.test", "process": {"kind": "poisson", "rate": -0.5}}])
        with pytest.raises(ConfigError):
            config_from_dict(bad)

    def test_bad_zone_ttl_rejected(self):
        bad = base_config()
        bad["zones"]["a.test"]["ttl"] = 0
        with pytest.raises(ConfigError):
            config_from_dict(bad)

    def test_bad_anomaly_band_rejected(self):
        bad = base_config(anomaly={"kind": "pre_refresh", "remaining_low": 9.0,
                                   "remaining_high": 3.0})
        with pytest.raises(ConfigError):
            config_from_dict(bad)

    @pytest.mark.parametrize("overrides,message", [
        ('{"clients": 5}', "^clients must be a list"),
        ('{"clients": [5]}', r"^clients\[0\] must be a JSON object"),
        ('{"zones": {"a.test": 60}}', "^zone 'a.test' must be a JSON object"),
        ('{"anomaly": null}', "^anomaly must be a JSON object"),
        ('{"ttl_policy": []}', "^ttl_policy must be a JSON object"),
        ('{"clients": [{"domain": "a.test", "process": "poisson"}]}',
         r"^clients\[0\]\.process must be a JSON object"),
        ('{"rtt_model": {"cached_mean": "fast"}}',
         r"^rtt_model\.cached_mean must be a finite number, got 'fast'"),
        pytest.param('{"rtt_model": {"recursion_jitter": 1%s}}' % ("0" * 400),
                     r"^rtt_model\.recursion_jitter must be a finite number",
                     id="an int too large for a float"),
        ('{"clients": [{"domain": "a.test", "process": {"kind": "poisson", "rate": "x"}}]}',
         r"^clients\[0\]\.process\.rate must be a finite number, got 'x'"),
        ('{"clients": [{"domain": "a.test", "process": {"kind": "poisson", "rate": true}}]}',
         r"^clients\[0\]\.process\.rate must be a finite number, got True"),
        ('{"clients": [{"domain": "a.test", "process": {"kind": "periodic", '
         '"interval": Infinity}}]}',
         r"^clients\[0\]\.process\.interval must be a finite number, got inf"),
        ('{"anomaly": {"kind": "pre_refresh", "remaining_low": NaN, "remaining_high": 2}}',
         r"^anomaly\.remaining_low must be a finite number, got nan"),
        ('{"clients": [{"domain": 5}]}', r"^clients\[0\]: domain must be a string, got 5"),
        ('{"zones": {"a.test": {"address": 5, "ttl": 60}}}', "^zone 'a.test': bad address 5"),
        ('{"zones": {"a.test": {"ttl": true}}}',
         "^zone 'a.test': ttl must be a positive integer, got True"),
        ('{"ttl_policy": {"mode": "override", "max_ttl": true}}',
         "^ttl_policy.max_ttl must be a positive integer, got True"),
        ('{"seed": false}', "^seed must be an integer, got False"),
        # names that normalise alike, and inet_aton shorthand for 10.0.0.1
        ('{"zones": {"A.test": {"ttl": 60}, "a.test.": {"ttl": 300}}}',
         "^zone names 'A.test' and 'a.test.' are the same name 'a.test'"),
        *[(f'{{"zones": {{"a.test": {{"address": "{address}", "ttl": 60}}}}}}',
           f"^zone 'a.test': bad address '{address}', want a dotted-quad IPv4 address")
          for address in ("10.1", "167772161", "0x0a.0.0.1", "10.0.0.1 ")],
    ])
    def test_a_malformed_scenario_is_a_config_error_naming_its_field(self, overrides,
                                                                     message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(base_config(**json.loads(overrides)))

    def test_scenario_file_with_broken_json_raises_with_position(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"zones": }')
        with pytest.raises(ConfigError, match="line"):
            load_scenario(str(path))

    def test_scenario_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_config()))
        sim = build_sim(load_scenario(str(path)))
        assert "a.test" in sim.config.zones


def pinned_log_batch(**overrides):
    """A short run_batch over Poisson and periodic clients; `overrides`
    replace or add scenario keys, and `extra_clients` is appended to the
    populations. Its Sim.log is pinned below."""
    zones, clients = {}, []
    for i in range(6):
        name = f"log{i}.example"
        zones[name] = {"address": f"10.1.{i}.1", "ttl": (60, 300)[i % 2]}
        process = ({"kind": "poisson", "rate": 0.01 * (i + 1)} if i % 3 else
                   {"kind": "periodic", "interval": 45.0 + 10 * i})
        clients.append({"domain": name, "process": process})
    clients += overrides.pop("extra_clients", [])
    return run_batch({"seed": 5, "zones": zones, "clients": clients, **overrides},
                     duration=1200.0, required_confirmations=3)


def mixed_sim():
    """A simulator whose log holds every kind of entry, probes included."""
    config = base_config(seed=8, clients=[
        {"domain": "a.test", "process": {"kind": "poisson", "rate": 0.05}},
        {"domain": "b.test", "process": {"kind": "periodic", "interval": 25.0}}])
    config["zones"]["b.test"] = {"address": "10.0.0.2", "ttl": 30}
    sim = build_sim(config)
    for at in range(10, 400, 40):
        sim.handle_query(query("a.test", rd=at % 80 == 10), float(at))
        sim.handle_query(query("B.Test."), at + 0.5)
    sim.advance(100.0)
    return sim


class TestEventLog:
    @pytest.mark.parametrize("overrides,cause,digest", [
        ({"anomaly": {"kind": "pre_refresh", "remaining_low": 0.5, "remaining_high": 1.5}},
         "prefetch", "6bbc5833661670371ae81d3e3e47e9ce3dc9a1d29c5cdd7ba80433bea6967fe1"),
        ({"anomaly": {"kind": "none"}},
         "client", "14a6e7b9f249bc6428e6fda94c94844305b3bd4a269f13880c18c4b839f5210e"),
        # a TTL override, RD ignored, a custom RTT model, and populations
        # of rate 0 (listed before a positive one), of kind none and on a
        # subdomain
        ({"ttl_policy": {"mode": "override", "max_ttl": 90}, "rd_policy": "ignore",
          "rtt_model": {"cached_mean": 3.0, "cached_jitter": 0.5,
                        "recursion_extra_mean": 30.0, "recursion_jitter": 4.0},
          "extra_clients": [
              {"domain": "log1.example", "process": {"kind": "poisson", "rate": 0.0}},
              {"domain": "log1.example", "process": {"kind": "poisson", "rate": 0.02}},
              {"domain": "log2.example", "process": {"kind": "none"}, "label": "idle"},
              {"domain": "www.log3.example",
               "process": {"kind": "periodic", "interval": 70.0}}]},
         "probe", "e794cfddd8564e4af55e15dcb906d4db32e68488015d06602474181deb7157b4"),
    ])
    def test_ground_truth_is_pinned(self, overrides, cause, digest):
        # The first two digests were computed when Sim.log was a list of
        # SimEvent, the third when ttl_policy override became a cap on each
        # zone's TTL; a change to how the log or the options are stored must
        # leave every entry alone.
        log = pinned_log_batch(**overrides).sim.log
        kinds = {(e.kind, e.cause) for e in log}
        assert ("probe_query", "") in kinds and ("client_query", "") in kinds
        assert ("cache_refresh", cause) in kinds
        sha = hashlib.sha256()
        for e in log:
            sha.update(repr((repr(e.at), e.kind, e.domain, e.cause)).encode())
        assert sha.hexdigest() == digest

    def test_every_probe_crosses_each_codec_function_once_through_the_module(
            self, monkeypatch):
        # A tracer sees the codec by replacing these module attributes, and
        # counts a probe's attempts as its wire.encode_query spans; a layer
        # that called a codec function bound elsewhere would slip past it.
        names = ("encode_query", "decode_query", "encode_response", "decode_response")
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _codec=getattr(wire, name), **kwargs):
                counts[_name] += 1
                return _codec(*args, **kwargs)
            monkeypatch.setattr(wire, name, counted)
        log = pinned_log_batch().sim.log
        probes = sum(1 for e in log if e.kind == "probe_query")
        assert probes > 50
        assert counts == dict.fromkeys(names, probes)

    def test_is_a_read_only_sequence_of_sim_events(self):
        log = mixed_sim().log
        assert isinstance(log, Sequence)
        assert all(type(e) is SimEvent for e in log)
        assert {e.kind for e in log} == {"client_query", "cache_refresh",
                                         "probe_query", "expiry"}
        with pytest.raises(TypeError):
            log[0] = log[1]

    def test_length_counts_every_entry(self):
        sim = build_sim(base_config())
        assert len(sim.log) == 0
        sim.handle_query(query("a.test"), 1.0)  # a probe and the refresh it causes
        sim.handle_query(query("missing.example"), 2.0)
        sim.advance(100.0)  # the expiry
        assert len(sim.log) == 4
        assert [e.kind for e in sim.log] == ["probe_query", "cache_refresh",
                                             "probe_query", "expiry"]

    def test_iteration_equals_indexing(self):
        log = mixed_sim().log
        entries = list(log)
        assert len(entries) == len(log) > 30
        assert entries == [log[i] for i in range(len(log))]
        assert entries[0] == log[0] and entries[-1] == log[len(log) - 1]

    def test_negative_indexes_and_index_error(self):
        log = mixed_sim().log
        entries = list(log)
        for i in range(1, len(log) + 1):
            assert log[-i] == entries[-i]
        for bad in (len(log), -len(log) - 1):
            with pytest.raises(IndexError):
                log[bad]
        with pytest.raises(TypeError):
            log[1.0]

    def test_slices_match_a_list(self):
        log = mixed_sim().log
        entries = list(log)
        n = len(entries)
        for cut in (slice(None), slice(5, None), slice(None, -3), slice(3, 17),
                    slice(-8, -2), slice(20, 4), slice(n, n + 5), slice(None, None, 3),
                    slice(2, -2, 5), slice(None, None, -1), slice(-2, 3, -4)):
            assert log[cut] == entries[cut]

    def test_iteration_sees_the_entries_present_when_it_starts(self):
        sim = mixed_sim()
        before = list(sim.log)
        reading = iter(sim.log)
        first = next(reading)
        sim.advance(500.0)  # appends while the iteration is open
        assert len(sim.log) > len(before)
        assert [first, *reading] == before

    def test_advance_returns_exactly_the_new_entries(self):
        sim = mixed_sim()
        before = list(sim.log)
        start = sim.time
        new = sim.advance(300.0)
        assert new and list(sim.log) == before + new
        assert all(start < e.at <= start + 300.0 for e in new)
        assert sim.advance(0.0) == []

    def test_memory_per_entry_is_bounded(self):
        # Periodic lookups log every arrival, so this writes over 10^5
        # entries. A list of SimEvent costs about 110 B per entry.
        config = {"seed": 3, "zones": {}, "clients": []}
        for i in range(20):
            config["zones"][f"m{i}.test"] = {"address": "10.0.0.1", "ttl": 30}
            config["clients"].append({"domain": f"m{i}.test", "process": {
                "kind": "periodic", "interval": 1.0 + i / 20}})
        sim = build_sim(config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                sim.advance(100.0)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sim.log) >= 10 ** 5
        assert grown / len(sim.log) <= 24


class TestDeterminism:
    def _trace(self, seed):
        config = base_config(seed=seed, clients=[
            {"domain": "a.test", "process": {"kind": "poisson", "rate": 0.02}}])
        sim = build_sim(config)
        sim.advance(20000.0)
        return [(e.at, e.kind, e.domain, e.cause) for e in sim.log]

    def test_same_seed_same_event_log(self):
        assert self._trace(42) == self._trace(42)

    def test_different_seed_different_arrivals(self):
        assert self._trace(42) != self._trace(43)


class TestClientProcesses:
    def test_poisson_refresh_gaps_follow_the_renewal_law(self):
        config = base_config(seed=42, clients=[
            {"domain": "a.test", "process": {"kind": "poisson", "rate": 0.01}}])
        sim = build_sim(config)
        sim.advance(1e6)
        times = [at for at, _, cause in refreshes(sim.log) if cause == "client"]
        spans = gaps(times)
        # a lookup refills only an expired cache, then waits Exp(rate) more
        assert all(gap >= 60.0 for gap in spans)
        mean_wait = sum(gap - 60.0 for gap in spans) / len(spans)
        assert mean_wait == pytest.approx(100.0, rel=0.05)

    def test_periodic_arrivals_are_exact(self):
        config = base_config(seed=5, clients=[
            {"domain": "a.test", "process": {"kind": "periodic", "interval": 100.0}}])
        sim = build_sim(config)
        events = sim.advance(1000.0)
        arrivals = [e.at for e in events if e.kind == "client_query"]
        assert arrivals == [pytest.approx(100.0 * k) for k in range(1, 11)]

    def test_client_refreshes_only_on_empty_cache(self):
        config = base_config(seed=7, clients=[
            {"domain": "a.test", "process": {"kind": "periodic", "interval": 30.0}}])
        sim = build_sim(config)
        events = sim.advance(300.0)
        refreshes = [e for e in events if e.kind == "cache_refresh"]
        # ttl 60, hits at 30/90/150/... are free; refreshes at 30, 90+eps...
        assert all(e.cause == "client" for e in refreshes)
        arrivals = {e.at for e in events if e.kind == "client_query"}
        assert all(e.at in arrivals for e in refreshes)
        assert 0 < len(refreshes) < 10


class TestAnalyticPoissonClients:
    """Poisson lookups are drawn only when they change the cache; the
    refresh process must match the per-arrival reference in law."""

    P_MIN = 0.001

    @pytest.mark.parametrize("rates, seed", [((0.01,), 101), ((0.004, 0.011), 102)])
    def test_fill_waits_are_exponential_in_the_merged_rate(self, rates, seed):
        config = base_config(seed=seed, clients=[
            {"domain": "a.test", "process": {"kind": "poisson", "rate": rate}}
            for rate in rates])
        sim = build_sim(config)
        sim.advance(5e5)
        waits = [gap - 60.0 for gap in gaps([at for at, _, _ in refreshes(sim.log)])]
        assert len(waits) > 1000
        p = stats.kstest(waits, "expon", args=(0.0, 1.0 / sum(rates))).pvalue
        assert p > self.P_MIN

    @pytest.mark.parametrize("rates, interval, ttl, band, seed", [
        ((0.02,), 45.0, 60, None, 201),
        ((0.2,), 0.0, 60, (3.0, 8.0), 202),
        ((0.05,), 0.0, 60, (40.0, 70.0), 203),
        ((0.01,), 0.0, 60, None, 204),
    ], ids=["poisson+periodic", "pre_refresh", "pre_refresh_wide_band", "poisson_probed"])
    def test_refreshes_match_the_per_arrival_reference(self, rates, interval, ttl,
                                                       band, seed):
        scenario = (rates, interval, ttl, band, 97.0, 2e5)
        fast = simulated_refreshes(*scenario, seed=seed)
        slow = per_arrival_refreshes(*scenario, seed=seed + 1000)
        assert len(fast) > 1000 and len(slow) > 1000
        p_gaps = stats.ks_2samp(gaps([r[0] for r in fast]),
                                gaps([r[0] for r in slow])).pvalue
        assert p_gaps > self.P_MIN
        labels = sorted({r[1:] for r in fast} | {r[1:] for r in slow})
        table = [[sum(1 for r in side if r[1:] == label) for label in labels]
                 for side in (fast, slow)]
        p_causes = stats.chi2_contingency(table).pvalue
        assert p_causes > self.P_MIN, (labels, table)

    def test_warm_cache_lookups_cost_nothing(self):
        config = base_config(seed=3, clients=[
            {"domain": "a.test", "process": {"kind": "poisson", "rate": 10.0}}])
        sim = build_sim(config)
        sim.advance(1e5)
        fills = [r for r in refreshes(sim.log) if r[2] == "client"]
        lookups = [e for e in sim.log if e.kind == "client_query"]
        assert len(lookups) == len(fills) > 0
        assert len(sim.log) <= 3 * len(fills)


class TestCacheModel:
    def test_miss_then_hit_ttl_counts_down(self):
        sim = build_sim(base_config())
        first, _ = sim.handle_query(query("a.test"), 100.0)
        assert first.answers[0].ttl == 60
        second, _ = sim.handle_query(query("a.test"), 110.5)
        assert second.answers[0].ttl == 49  # int(remaining)

    def test_record_expires_and_rd0_sees_nothing(self):
        sim = build_sim(base_config())
        sim.handle_query(query("a.test"), 0.0)
        reply, _ = sim.handle_query(query("a.test", rd=False), 61.0)
        assert reply.rcode == wire.Rcode.NOERROR
        assert reply.answers == []

    def test_rd0_on_cached_record_answers_without_refreshing(self):
        sim = build_sim(base_config())
        sim.handle_query(query("a.test"), 0.0)
        reply, _ = sim.handle_query(query("a.test", rd=False), 20.0)
        assert reply.answers[0].ttl == 40
        refreshes = [e for e in sim.log if e.kind == "cache_refresh"]
        assert len(refreshes) == 1

    def test_rd_ignoring_server_recurses_anyway(self):
        sim = build_sim(base_config(rd_policy="ignore"))
        reply, _ = sim.handle_query(query("a.test", rd=False), 5.0)
        assert reply.answers[0].ttl == 60

    @pytest.mark.parametrize("zone_ttl,cap,answered", [(60, 30, 30), (300, 90, 90),
                                                       (60, 90, 60)])
    def test_ttl_override_policy_caps_the_cache(self, zone_ttl, cap, answered):
        config = base_config(zones={"a.test": {"address": "10.0.0.1", "ttl": zone_ttl}},
                             ttl_policy={"mode": "override", "max_ttl": cap})
        sim = build_sim(config)
        reply, _ = sim.handle_query(query("a.test"), 0.0)
        assert reply.answers[0].ttl == answered

    def test_unknown_domain_is_nxdomain(self):
        sim = build_sim(base_config())
        reply, _ = sim.handle_query(query("nope.example"), 1.0)
        assert reply.rcode == wire.Rcode.NXDOMAIN

    def test_subdomains_resolve_and_cache_independently(self):
        sim = build_sim(base_config())
        one, _ = sim.handle_query(query("x.a.test"), 0.0)
        assert one.answers[0].ttl == 60
        sim.handle_query(query("y.a.test"), 10.0)
        back, _ = sim.handle_query(query("x.a.test"), 20.0)
        assert back.answers[0].ttl == 40

    def test_answers_carry_each_zones_address(self):
        zones = {"a.test": {"address": "10.0.0.1", "ttl": 60},
                 "b.test": {"address": "192.0.2.77", "ttl": 60}}
        sim = build_sim(base_config(zones=zones))
        for at, name, rdata in [(0.0, "b.test", b"\xc0\x00\x02\x4d"),
                                (1.0, "x.a.test", b"\x0a\x00\x00\x01"),
                                (2.0, "b.test", b"\xc0\x00\x02\x4d")]:
            reply, _ = sim.handle_query(query(name), at)
            assert [(rr.name, rr.rdata) for rr in reply.answers] == [(name, rdata)]

    def test_queries_cannot_go_back_in_time(self):
        sim = build_sim(base_config())
        sim.handle_query(query("a.test"), 50.0)
        with pytest.raises(ValueError):
            sim.handle_query(query("a.test"), 49.0)

    def test_recursion_costs_more_rtt_than_a_hit(self):
        sim = build_sim(base_config(seed=3))
        _, miss_rtt = sim.handle_query(query("a.test"), 0.0)
        _, hit_rtt = sim.handle_query(query("a.test"), 1.0)
        assert miss_rtt > hit_rtt


class TestAnomaly:
    def test_prefetching_server_never_lets_the_record_expire(self):
        config = base_config(seed=11, anomaly={
            "kind": "pre_refresh", "remaining_low": 3.0, "remaining_high": 5.0})
        sim = build_sim(config)
        sim.handle_query(query("a.test"), 0.0)
        reply, _ = sim.handle_query(query("a.test", rd=False), 500.0)
        assert reply.answers, "prefetches should keep the record alive"
        causes = {e.cause for e in sim.log if e.kind == "cache_refresh"}
        assert "prefetch" in causes

    def test_prefetch_happens_inside_the_configured_band(self):
        config = base_config(seed=11, anomaly={
            "kind": "pre_refresh", "remaining_low": 3.0, "remaining_high": 5.0})
        sim = build_sim(config)
        sim.handle_query(query("a.test"), 0.0)
        sim.advance(400.0)
        prefetches = [e for e in sim.log if e.kind == "cache_refresh"
                      and e.cause == "prefetch"]
        assert prefetches
        refreshes = [e for e in sim.log if e.kind == "cache_refresh"]
        for earlier, later in zip(refreshes, refreshes[1:]):
            ttl = 60.0
            remaining_at_refresh = earlier.at + ttl - later.at
            assert 3.0 - 1e-6 <= remaining_at_refresh <= 5.0 + 1e-6


class TestSimExchange:
    def test_clock_advances_by_the_simulated_rtt(self):
        clock = VirtualClock()
        sim = build_sim(base_config(seed=2), start_time=clock.now())
        exchange = SimExchange(sim, clock)
        payload = wire.encode_query(query("a.test", ident=77))
        data, rtt_ms, sent_at = exchange.exchange("sim", payload, timeout=1.0)
        assert sent_at == 0.0
        assert clock.now() == pytest.approx(rtt_ms / 1000.0)
        decoded = wire.decode_response(data)
        assert decoded.id == 77
        assert decoded.answers[0].ttl == 60

    def test_prober_reads_ttls_through_the_exchange(self):
        clock = VirtualClock()
        sim = build_sim(base_config(seed=2), start_time=clock.now())
        prober = Prober(transport=SimExchange(sim, clock), clock=clock)
        first = prober.probe("sim", "a.test")
        clock.sleep(10.0)
        second = prober.probe("sim", "a.test")
        assert first.response.answers[0].ttl == 60
        assert second.response.answers[0].ttl in (49, 50)  # rtt skew, 1s grid


class TestUdpSimServer:
    def test_serves_decrementing_ttls_over_loopback(self):
        config = base_config(seed=9, clock_mode="realtime")
        config["rtt_model"] = {"cached_mean": 1.0, "cached_jitter": 0.1,
                               "recursion_extra_mean": 2.0, "recursion_jitter": 0.1}
        server = serve_udp(config)
        try:
            with UdpExchange() as exchange:
                prober = Prober(transport=exchange, clock=SystemClock(), timeout=2.0)
                first = prober.probe(server.address, "a.test")
                second = prober.probe(server.address, "a.test")
            assert first.response.answers[0].ttl == 60
            assert 58 <= second.response.answers[0].ttl <= 60
        finally:
            server.stop()

    def test_a_port_in_use_is_an_os_error_naming_it(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as taken:
            taken.bind(("127.0.0.1", 0))
            port = taken.getsockname()[1]
            with pytest.raises(OSError, match=f"cannot bind 127.0.0.1:{port}: "):
                UdpSimServer(build_sim(base_config()), port=port)
