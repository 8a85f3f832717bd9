"""Stock collectors: the five legacy stats surfaces, readable in one place.

Each ``watch_*`` function attaches a pull collector to a
:class:`~repro.obs.metrics.MetricsRegistry`: the legacy object keeps its
cheap ad-hoc counters on the hot path, and the registry reads them only
at snapshot time.  Covered surfaces:

==========================  =============================================
legacy surface              metrics (under the caller's prefix)
==========================  =============================================
``dns.cache.CacheStats``    hits, misses, expirations, evictions,
                            insertions
``edge.ecmp.EcmpStats``     routed, servers, per_server.<name>
``dns.resolver.             client_queries, upstream_queries, servfails,
ResolverStats``             nxdomains, retries, upstream_failures,
                            stale_served
``sockets.sklookup`` stats  runs, redirects, drops, fallthroughs,
                            rules_removed, rules (gauge-like), map_size
``faults.FaultTimeline``    events, by_kind.<kind>, by_phase.<phase>
``core.policy.              policies, evaluations, matches, index_builds,
PolicyEngine``              index_entries (gauge)
==========================  =============================================

``watch_cdn`` walks a whole :class:`~repro.edge.cdn.CDN` and attaches the
edge-side surfaces (ECMP, sk_lookup, edge caches, traffic) per
datacenter/server, plus each policy engine the PoPs answer DNS from, so
one call makes an entire deployment observable.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # import cycles: obs must stay importable from every layer
    from collections.abc import Callable

    from ..core.policy import PolicyEngine
    from ..dns.cache import CacheStats
    from ..dns.resolver import ResolverStats
    from ..edge.cache import CacheNodeStats
    from ..edge.cdn import CDN
    from ..edge.datacenter import Datacenter
    from ..edge.ecmp import ECMPRouter
    from ..faults.events import FaultTimeline
    from ..flow.engine import FlowEngine
    from ..netsim.speakers import SpeakerSimulation
    from ..serve.workers import WorkerPool
    from ..sockets.lookup import LookupPath
    from ..sockets.sklookup import SkLookupProgram

__all__ = [
    "DISPATCH_LATENCY_BUCKETS",
    "watch_cache_stats",
    "watch_ecmp",
    "watch_resolver_stats",
    "watch_sklookup",
    "watch_lookup_path",
    "time_lookup_path",
    "watch_fault_timeline",
    "watch_policy_engine",
    "watch_cache_node_stats",
    "watch_datacenter_load",
    "watch_flow_engine",
    "watch_speakers",
    "watch_cdn",
    "watch_serve",
    "watch_campaign",
    "DRAIN_LATENCY_BUCKETS",
]

#: Buckets for per-packet dispatch latency, in *real* seconds: the Python
#: hot path sits in the single-digit-microsecond range, so the default
#: simulated-seconds buckets (1 ms floor) would collapse everything into
#: the first bucket.
DISPATCH_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5, 1e-4, 1e-3, 1e-2,
)


def _dataclass_counters(stats) -> dict[str, int | float]:
    """Flatten a slots-dataclass stats object: numeric fields become
    metrics; dict-valued fields become ``<field>.<key>`` metrics."""
    out: dict[str, int | float] = {}
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            for key, sub in value.items():
                out[f"{f.name}.{key}"] = sub
        elif isinstance(value, (int, float)):
            out[f.name] = value
    return out


def watch_cache_stats(registry: MetricsRegistry, prefix: str, stats: "CacheStats") -> None:
    registry.attach(prefix, lambda: _dataclass_counters(stats))


def watch_resolver_stats(registry: MetricsRegistry, prefix: str, stats: "ResolverStats") -> None:
    registry.attach(prefix, lambda: _dataclass_counters(stats))


def watch_cache_node_stats(registry: MetricsRegistry, prefix: str, stats: "CacheNodeStats") -> None:
    registry.attach(prefix, lambda: _dataclass_counters(stats))


def watch_ecmp(registry: MetricsRegistry, prefix: str, router: "ECMPRouter") -> None:
    def collect() -> dict[str, int | float]:
        out = _dataclass_counters(router.stats)
        out["servers"] = len(router)
        return out

    registry.attach(prefix, collect)


def watch_sklookup(registry: MetricsRegistry, prefix: str, program: "SkLookupProgram") -> None:
    def collect() -> dict[str, int | float]:
        out: dict[str, int | float] = dict(program.stats)
        out["rules"] = len(program.rules())
        out["map_size"] = len(program.map)
        out["map_replacements"] = program.map.replacements
        return out

    registry.attach(prefix, collect)


def watch_lookup_path(registry: MetricsRegistry, prefix: str, path: "LookupPath") -> None:
    """Per-stage dispatch counters plus the dispatch-call accounting.

    Covers the Figure 5a pipeline: packets resolved per stage (connected /
    sk_lookup / listener / wildcard / dropped / miss), how many dispatch
    calls ran (``batches``: a scalar ``dispatch`` is a batch of one, so
    every call counts), and how many packets they carried."""

    def collect() -> dict[str, int | float]:
        out: dict[str, int | float] = {
            f"stage.{stage.value}": count for stage, count in path.stage_counts.items()
        }
        out["batches"] = path.batches
        out["batch_packets"] = path.batch_packets
        out["programs"] = len(path.programs())
        return out

    registry.attach(prefix, collect)


def time_lookup_path(
    registry: MetricsRegistry,
    name: str,
    path: "LookupPath",
    timer: "Callable[[], float]",
):
    """Attach a dispatch-latency histogram to a lookup path.

    ``timer`` is a float-seconds callable — benchmarks pass
    ``time.perf_counter``.  It is *injected* rather than imported here so
    simulation code stays wall-clock-free (the DT001 lint runs over this
    package); only measurement harnesses opt into real time.  Each
    ``dispatch_batch`` call — a scalar ``dispatch`` is a batch of one —
    observes its mean per-packet latency.
    """
    hist = registry.histogram(
        name,
        buckets=DISPATCH_LATENCY_BUCKETS,
        help="mean per-packet dispatch latency per batch (real seconds)",
    )
    path.timer = timer
    path.latency_hist = hist
    return hist


def watch_fault_timeline(registry: MetricsRegistry, prefix: str, timeline: "FaultTimeline") -> None:
    def collect() -> dict[str, int | float]:
        out: dict[str, int | float] = {"events": len(timeline)}
        for event in timeline:
            out[f"by_kind.{event.kind}"] = out.get(f"by_kind.{event.kind}", 0) + 1
            out[f"by_phase.{event.phase}"] = out.get(f"by_phase.{event.phase}", 0) + 1
        return out

    registry.attach(prefix, collect)


def watch_policy_engine(registry: MetricsRegistry, prefix: str, engine: "PolicyEngine") -> None:
    """Policy count, evaluation and match totals, and the first-match
    index: ``index_entries`` is a state gauge (0 while the index awaits
    its rebuild after an add/remove), ``index_builds`` how often it was
    rebuilt."""

    def collect() -> dict[str, int | float]:
        return {
            "policies": len(engine),
            "evaluations": engine.evaluations,
            "matches": engine.matches,
            "index_entries": engine.index_size(),
            "index_builds": engine.index_builds,
        }

    registry.attach(prefix, collect)


def watch_datacenter_load(
    registry: MetricsRegistry, prefix: str, dc: "Datacenter"
) -> None:
    """Ingress-pressure gauges for one PoP: connections shed by the
    capacity cap, SYNs dropped by ingress loss, and the live fault knobs
    (``capacity`` gauge is 0 when uncapped, ``ingress_loss`` the current
    drop probability) — the surface chaos invariants read to tell "PoP
    shedding under overload" from "PoP silently blackholing"."""

    def collect() -> dict[str, int | float]:
        return {
            "sheds": dc.sheds,
            "syn_drops": dc.syn_drops,
            "capacity": dc.capacity or 0,
            "ingress_loss": dc.ingress_loss,
        }

    registry.attach(prefix, collect)


def watch_flow_engine(registry: MetricsRegistry, prefix: str, engine: "FlowEngine") -> None:
    """The columnar flow engine's per-batch rollup, plus which hash
    backend is live (``backend.<name>`` gauge) — the engine itself never
    increments a counter per flow, so this collector is the only place its
    throughput accounting surfaces."""

    def collect() -> dict[str, int | float]:
        out = _dataclass_counters(engine.stats)
        out[f"backend.{engine.backend.name}"] = 1
        return out

    registry.attach(prefix, collect)


def watch_speakers(
    registry: MetricsRegistry, prefix: str, sim: "SpeakerSimulation"
) -> None:
    """Event-driven BGP surface: the :class:`ConvergenceTracker` counters
    plus live gauges (pending messages, down sessions, suppressed routes)
    and a convergence-duration histogram fed by every window the tracker
    closes from now on (already-closed windows are replayed once)."""
    tracker = sim.tracker

    def collect() -> dict[str, int | float]:
        out: dict[str, int | float] = {
            k: v for k, v in tracker.snapshot().items()
            if isinstance(v, (int, float))
        }
        out["pending_messages"] = sim.pending_messages()
        out["sessions_down"] = len(sim.sessions_down())
        out["suppressed_routes"] = sim.suppressed_count()
        out["active_flaps"] = len(sim.active_flaps())
        return out

    registry.attach(prefix, collect)
    hist = registry.histogram(
        f"{prefix}.convergence_s",
        help="BGP convergence window duration (simulated seconds)",
    )
    for opened, closed in tracker.windows:
        hist.observe(closed - opened)
    tracker.observers.append(hist.observe)


def watch_cdn(registry: MetricsRegistry, cdn: "CDN", prefix: str = "cdn") -> None:
    """Attach every edge-side surface of a deployment in one call.

    Per datacenter: the ECMP router, the per-server sk_lookup programs
    and edge-cache node stats, and the edge cache's home-node directory
    size (``edge_cache.directory_entries``, a state gauge bounded by the
    keys the nodes hold); plus one rollup collector for request and
    connection totals.  Each distinct policy engine behind a PoP's
    :class:`~repro.core.authoritative.PolicyAnswerSource` is watched once,
    as ``<prefix>.policy.<dc>`` for the first datacenter (in name order)
    that answers from it.
    """
    from ..core.authoritative import PolicyAnswerSource

    watched_engines: set[int] = set()
    for dc_name in sorted(cdn.datacenters):
        dc = cdn.datacenters[dc_name]
        source = dc.dns.source if dc.dns is not None else None
        if isinstance(source, PolicyAnswerSource) and id(source.engine) not in watched_engines:
            watched_engines.add(id(source.engine))
            watch_policy_engine(registry, f"{prefix}.policy.{dc_name}", source.engine)
        watch_ecmp(registry, f"{prefix}.{dc_name}.ecmp", dc.ecmp)
        watch_datacenter_load(registry, f"{prefix}.{dc_name}.load", dc)
        registry.attach(
            f"{prefix}.{dc_name}.edge_cache",
            lambda dc=dc: {"directory_entries": dc.cache.directory_size()},
        )
        for server_name in sorted(dc.servers):
            server = dc.servers[server_name]

            def sk_collect(server=server) -> dict[str, int | float]:
                # Read through the server: crash/restore replaces the
                # attached program, and the collector must follow it.
                program = server._sk_program
                if program is None:
                    return {"attached": 0}
                out: dict[str, int | float] = dict(program.stats)
                out["attached"] = 1
                out["rules"] = len(program.rules())
                out["map_size"] = len(program.map)
                out["map_replacements"] = program.map.replacements
                return out

            registry.attach(f"{prefix}.{dc_name}.sklookup.{server_name}", sk_collect)
            watch_lookup_path(
                registry, f"{prefix}.{dc_name}.lookup.{server_name}",
                server.lookup_path,
            )
            node = dc.cache.nodes().get(server_name)
            if node is not None:
                watch_cache_node_stats(
                    registry, f"{prefix}.{dc_name}.edge_cache.{server_name}",
                    node.stats,
                )

    def rollup() -> dict[str, int | float]:
        return {
            "requests": cdn.total_requests(),
            "connections": sum(
                dc.connection_count() for dc in cdn.datacenters.values()
            ),
            "sockets": sum(
                dc.total_socket_count() for dc in cdn.datacenters.values()
            ),
        }

    registry.attach(f"{prefix}.totals", rollup)

    # Event-driven routing engines expose a convergence tracker; the
    # static BGPSimulation has nothing time-varying worth a collector.
    sim = getattr(getattr(cdn, "network", None), "sim", None)
    if getattr(sim, "incremental", False):
        watch_speakers(registry, f"{prefix}.bgp", sim)


def watch_serve(registry: MetricsRegistry, prefix: str, pool: "WorkerPool") -> None:
    """Make a :class:`~repro.serve.workers.WorkerPool` observable.

    ``<prefix>.*`` carries the pool-wide totals (queries, responses,
    truncations, malformed drops, TCP sessions, drain markers, and the
    merged latency histogram as ``latency_bucket_le_*`` counters);
    ``<prefix>.w<i>.*`` carries the current generation's per-worker rows.
    Pull-based like every adapter here: workers write shared memory on the
    hot path, aggregation happens only when someone snapshots — and the
    totals stay readable after the pool stops (retired generations are
    folded in, not lost).
    """
    registry.attach(prefix, pool.snapshot)
    for index in range(pool.workers):
        def row(index: int = index) -> dict[str, int | float]:
            rows = pool.worker_snapshots()
            return rows[index] if index < len(rows) else {}

        registry.attach(f"{prefix}.w{index}", row)


#: Drain-latency histogram buckets: seconds from a step's enactment to a
#: tracked connection leaving the vacated space.  TTL-scale, not µs-scale.
DRAIN_LATENCY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0, 120.0)


def watch_campaign(registry: MetricsRegistry, prefix: str, engine) -> None:
    """Make a :class:`~repro.campaign.engine.CampaignEngine` observable.

    ``<prefix>.*`` gauges carry the state machine (state code, step
    cursor, holds, rollbacks, live drain worklist, drain/drop tallies);
    ``<prefix>.drain_s`` is a histogram fed every drain latency via the
    engine's observer hook — the same append pattern as
    :func:`watch_speakers`.
    """
    registry.attach(prefix, engine.status)
    hist = registry.histogram(
        f"{prefix}.drain_s",
        buckets=DRAIN_LATENCY_BUCKETS,
        help="established-connection drain latency (simulated seconds "
             "from step enactment)",
    )
    engine.drain_observers.append(hist.observe)
