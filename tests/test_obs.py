"""repro.obs: metrics registry, trace recorder, legacy adapters, exporters."""

import json

import pytest

from repro.clock import Clock
from repro.dns.cache import CacheStats, DNSCache, TTLPolicy
from repro.dns.records import A, DomainName, Question, ResourceRecord, RRType
from repro.dns.resolver import ResolverStats
from repro.edge.ecmp import ECMPRouter
from repro.faults.events import FaultEvent, FaultTimeline
from repro.netsim.addr import parse_address, parse_prefix
from repro.netsim.packet import FiveTuple, Packet, Protocol
from repro.obs import (
    MetricError,
    MetricsRegistry,
    SpanEvent,
    TraceRecorder,
    bucket_label,
    diff_snapshots,
    render_diff,
    to_json,
    to_prometheus,
)
from repro.obs.adapters import (
    watch_cache_stats,
    watch_ecmp,
    watch_fault_timeline,
    watch_resolver_stats,
    watch_sklookup,
    watch_speakers,
)
from repro.sockets.sklookup import MatchRule, SkLookupProgram, SockArray, Verdict
from repro.sockets.socktable import SocketTable

POOL = parse_prefix("192.0.2.0/24")


def packet(dst="192.0.2.7", dport=80, sport=40000):
    return Packet(
        FiveTuple(Protocol.TCP, parse_address("198.51.100.9"), sport,
                  parse_address(dst), dport),
        syn=True,
    )


class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("requests").inc()
        reg.counter("requests").inc(2)
        reg.gauge("depth").set(7)
        reg.histogram("lat", buckets=(1.0, 10.0)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"]["requests"] == 3
        assert snap["gauges"]["depth"] == 7
        assert snap["histograms"]["lat"]["count"] == 1

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_cross_type_name_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricError):
            reg.gauge("x")
        with pytest.raises(MetricError):
            reg.histogram("x")

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("x").inc(-1)

    def test_snapshot_timestamp_follows_clock(self):
        clock = Clock()
        reg = MetricsRegistry(clock)
        clock.advance(42)
        assert reg.snapshot()["at"] == 42
        assert MetricsRegistry().snapshot()["at"] is None

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = reg.snapshot()["histograms"]["lat"]
        assert snap["buckets"] == [["1", 1], ["10", 2], ["+Inf", 3]]
        assert snap["sum"] == 55.5

    def test_bucket_label_inf_is_json_safe(self):
        assert bucket_label(float("inf")) == "+Inf"
        assert bucket_label(0.25) == "0.25"

    def test_attach_detach_collector(self):
        reg = MetricsRegistry()
        reg.attach("legacy", lambda: {"hits": 4})
        assert reg.snapshot()["counters"]["legacy.hits"] == 4
        reg.detach("legacy")
        assert "legacy.hits" not in reg.snapshot()["counters"]

    def test_duplicate_attach_rejected(self):
        reg = MetricsRegistry()
        reg.attach("p", lambda: {})
        with pytest.raises(MetricError):
            reg.attach("p", lambda: {})


class TestTraceRecorder:
    def test_span_records_simulated_duration(self):
        clock = Clock()
        tracer = TraceRecorder(clock)
        trace = tracer.next_trace_id("query")
        with tracer.span(trace, "resolve"):
            clock.advance(3)
        (span,) = tracer.spans(trace)
        assert span.duration == 3 and span.phase == "resolve"

    def test_span_records_even_on_exception(self):
        clock = Clock()
        tracer = TraceRecorder(clock)
        with pytest.raises(RuntimeError), tracer.span("t:1", "boom"):
            clock.advance(1)
            raise RuntimeError("x")
        assert len(tracer) == 1

    def test_trace_ids_are_unique_and_deterministic(self):
        tracer = TraceRecorder(Clock())
        ids = [tracer.next_trace_id("query"), tracer.next_trace_id("failover"),
               tracer.next_trace_id("query")]
        assert len(set(ids)) == 3
        fresh = TraceRecorder(Clock())
        assert [fresh.next_trace_id("query"), fresh.next_trace_id("failover"),
                fresh.next_trace_id("query")] == ids

    def test_phase_durations_aggregate(self):
        clock = Clock()
        tracer = TraceRecorder(clock)
        tracer.record("t:1", "detect", 0.0, 2.0)
        tracer.record("t:1", "rebind", 2.0, 5.0)
        tracer.record("t:2", "detect", 5.0, 6.0)
        assert tracer.phase_durations() == {"detect": 3.0, "rebind": 3.0}
        assert tracer.phase_durations("t:2") == {"detect": 1.0}

    def test_mark_is_zero_duration(self):
        clock = Clock()
        clock.advance(9)
        tracer = TraceRecorder(clock)
        span = tracer.mark("t:1", "fault")
        assert span.start == span.end == 9 and span.duration == 0

    def test_backwards_span_rejected(self):
        with pytest.raises(ValueError):
            SpanEvent(trace="t:1", phase="p", start=5.0, end=4.0)


class TestLegacySurfaces:
    """Acceptance criterion: all five legacy stats surfaces readable
    through one MetricsRegistry."""

    def test_all_five_surfaces_in_one_registry(self):
        reg = MetricsRegistry()

        cache = CacheStats(hits=3, misses=1)
        watch_cache_stats(reg, "cache", cache)

        resolver = ResolverStats(client_queries=5, retries=2)
        watch_resolver_stats(reg, "resolver", resolver)

        router = ECMPRouter(["a", "b"])
        router.route(packet())
        watch_ecmp(reg, "ecmp", router)

        table = SocketTable()
        listener = table.bind_listen(Protocol.TCP, parse_address("198.18.0.1"), 80)
        arr = SockArray(2)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
        ])
        prog.run(packet())
        watch_sklookup(reg, "sk", prog)

        timeline = FaultTimeline()
        timeline.record(FaultEvent(at=1.0, kind="pop_withdrawn", target="dc1"))
        timeline.record(FaultEvent(at=2.0, kind="pop_withdrawn", target="dc1",
                                   phase="revert"))
        watch_fault_timeline(reg, "faults", timeline)

        counters = reg.snapshot()["counters"]
        assert counters["cache.hits"] == 3
        assert counters["resolver.client_queries"] == 5
        assert counters["ecmp.routed"] == 1 and counters["ecmp.servers"] == 2
        assert counters["sk.runs"] == 1 and counters["sk.rules"] == 1
        assert counters["faults.events"] == 2
        assert counters["faults.by_kind.pop_withdrawn"] == 2
        assert counters["faults.by_phase.revert"] == 1

    def test_collectors_read_live_state(self):
        """Pull-based: the registry sees counts as they are *now*."""
        reg = MetricsRegistry()
        stats = CacheStats()
        watch_cache_stats(reg, "cache", stats)
        assert reg.snapshot()["counters"]["cache.hits"] == 0
        stats.hits += 10
        assert reg.snapshot()["counters"]["cache.hits"] == 10

    def test_watch_cdn_reports_edge_cache_directory_size(self):
        """State gauge for "what is growing?": each PoP's home-node
        directory, never larger than what its cache nodes hold."""
        from repro.deploy import Deployment, DeploymentConfig

        dep = Deployment.build(DeploymentConfig(num_hostnames=20, clients_per_region=1))
        reg = MetricsRegistry()
        dep.cdn.attach_observability(registry=reg)
        client = dep.new_client("eyeball:us:0")
        for i in range(5):
            client.fetch(dep.universe.site(i))
        counters = reg.snapshot()["counters"]
        for name, dc in dep.cdn.datacenters.items():
            entries = counters[f"cdn.{name}.edge_cache.directory_entries"]
            assert entries <= sum(len(node) for node in dc.cache.nodes().values())
        assert sum(counters[f"cdn.{name}.edge_cache.directory_entries"]
                   for name in dep.cdn.datacenters) == 5

    def test_watch_cdn_watches_each_policy_engine_once(self):
        """Every PoP answers from the deployment's one engine: one
        collector, whose index gauge stays within the named-values bound
        however many queries ran."""
        from repro.deploy import Deployment, DeploymentConfig

        dep = Deployment.build(DeploymentConfig(num_hostnames=20, clients_per_region=1))
        reg = MetricsRegistry()
        dep.cdn.attach_observability(registry=reg)
        first = sorted(dep.cdn.datacenters)[0]
        prefix = f"cdn.policy.{first}"
        assert [c for c in reg.snapshot()["counters"] if c.startswith("cdn.policy.")] == [
            f"{prefix}.{name}" for name in
            ("evaluations", "index_builds", "index_entries", "matches", "policies")
        ]
        client = dep.new_client("eyeball:us:0")
        for i in range(5):
            client.fetch(dep.universe.site(i))
        counters = reg.snapshot()["counters"]
        assert counters[f"{prefix}.policies"] == len(dep.engine)
        assert counters[f"{prefix}.evaluations"] == dep.engine.evaluations > 0
        assert counters[f"{prefix}.matches"] == dep.engine.matches
        assert counters[f"{prefix}.index_builds"] == 1
        named = [set().union(*(p.match.get(key, ()) for p in dep.engine.policies()))
                 for key in ("pop", "account_type")]
        bound = (len(named[0]) + 1) * (len(named[1]) + 1) * 2
        assert 0 < counters[f"{prefix}.index_entries"] <= bound


class TestExporters:
    def make_snapshot(self):
        clock = Clock()
        clock.advance(5)
        reg = MetricsRegistry(clock)
        reg.counter("dns.queries").inc(7)
        reg.gauge("pool size").set(3)  # space must be sanitised for prom
        reg.histogram("lat", buckets=(1.0,)).observe(2.5)
        return reg.snapshot()

    def test_json_round_trips_strict(self):
        doc = json.loads(to_json(self.make_snapshot()))
        assert doc["counters"]["dns.queries"] == 7
        # the +Inf bucket must survive strict JSON (no bare Infinity)
        assert doc["histograms"]["lat"]["buckets"][-1][0] == "+Inf"

    def test_prometheus_format(self):
        text = to_prometheus(self.make_snapshot())
        assert "# TYPE repro_dns_queries counter" in text
        assert "repro_dns_queries 7" in text
        assert "repro_pool_size 3" in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text

    def test_diff_reports_only_deltas(self):
        before = self.make_snapshot()
        clock = Clock()
        reg = MetricsRegistry(clock)
        reg.counter("dns.queries").inc(9)
        reg.counter("new.metric").inc(1)
        reg.gauge("pool size").set(3)  # unchanged: must not appear
        after = reg.snapshot()
        diff = diff_snapshots(before, after)
        assert diff["counters"] == {"dns.queries": 2, "new.metric": 1}
        assert diff["gauges"] == {}
        rendered = render_diff(diff)
        assert "dns.queries" in rendered and "+2" in rendered


class TestDeterminism:
    def test_snapshot_and_exports_are_reproducible(self):
        def build():
            reg = MetricsRegistry()
            reg.attach("b", lambda: {"x": 1})
            reg.attach("a", lambda: {"y": 2})
            reg.counter("z").inc()
            reg.histogram("h").observe(0.5)
            return reg.snapshot()

        a, b = build(), build()
        assert a == b
        assert to_json(a) == to_json(b)
        assert to_prometheus(a) == to_prometheus(b)


class TestExperimentTracing:
    """Acceptance criterion: an experiment records per-phase durations."""

    def test_ttl_experiment_records_phase_durations(self):
        from repro.experiments.ttl import run_ttl_experiment

        reg = MetricsRegistry()
        run_ttl_experiment(authoritative_ttl=10, clamp_mins=(0,), registry=reg)
        snap = reg.snapshot()
        hists = snap["histograms"]
        assert hists["ttl.phase_seconds.converge"]["count"] == 1
        assert hists["ttl.flip_seconds"]["count"] == 1
        # flip within TTL + one probe for the honest resolver
        assert hists["ttl.flip_seconds"]["sum"] <= 11
        assert snap["counters"]["ttl.honest.resolver.client_queries"] > 0

    def test_cache_never_blocks_untraced_path(self):
        """registry=None keeps the legacy (un-instrumented) path intact."""
        from repro.experiments.ttl import run_ttl_experiment

        runs = run_ttl_experiment(authoritative_ttl=10, clamp_mins=(0,))
        assert runs[0].observed_flip_time <= runs[0].bound


def question(text="www.example.com"):
    return Question(DomainName.from_text(text), RRType.A)


def record(text="www.example.com", addr="192.0.2.1", ttl=60):
    return ResourceRecord(DomainName.from_text(text), A(parse_address(addr)), ttl)


class TestCacheAdapterIntegration:
    def test_eviction_and_expiration_distinct_in_snapshot(self):
        clock = Clock()
        cache = DNSCache(clock, TTLPolicy.honest(), capacity=2)
        reg = MetricsRegistry(clock)
        watch_cache_stats(reg, "cache", cache.stats)
        cache.store(question("a.example.com"), [record("a.example.com", ttl=100)])
        cache.store(question("b.example.com"), [record("b.example.com", ttl=900)])
        cache.store(question("c.example.com"), [record("c.example.com", ttl=900)])
        counters = reg.snapshot()["counters"]
        assert counters["cache.evictions"] == 1
        assert counters["cache.expirations"] == 0


class TestSpeakersAdapter:
    def make_sim(self):
        from repro.netsim.bgp import Announcement, ASGraph
        from repro.netsim.speakers import LinkProfile, SpeakerSimulation

        g = ASGraph()
        g.add_provider("c", "t")
        g.add_provider("d", "t")
        sim = SpeakerSimulation(
            g, profile=LinkProfile(base_delay_s=0.05, jitter_s=0.05, mrai_s=0.0)
        )
        sim.announce(Announcement(parse_prefix("198.51.100.0/24"), "d"))
        sim.settle()
        return sim

    def test_watch_speakers_prometheus_golden(self):
        sim = self.make_sim()
        reg = MetricsRegistry()
        watch_speakers(reg, "bgp", sim)
        text = to_prometheus(reg.snapshot())
        assert "repro_bgp_messages_sent" in text
        assert "repro_bgp_pending_messages 0" in text
        assert "repro_bgp_sessions_down 0" in text
        # The pre-attach convergence window was replayed into the histogram.
        assert 'repro_bgp_convergence_s_bucket{le="+Inf"} 1' in text
        assert "repro_bgp_convergence_s_count 1" in text

    def test_windows_closed_after_attach_feed_the_histogram(self):
        from repro.netsim.bgp import Announcement
        from repro.netsim.addr import parse_prefix as pp

        sim = self.make_sim()
        reg = MetricsRegistry()
        watch_speakers(reg, "bgp", sim)
        sim.announce(Announcement(pp("203.0.113.0/24"), "c"))
        sim.settle()
        hists = reg.snapshot()["histograms"]
        assert hists["bgp.convergence_s"]["count"] == 2
