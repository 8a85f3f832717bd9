"""The ``flow-warm`` and ``flow-mint-churn`` workloads: FlowEngine batches.

One PoP of 8 servers terminates 192.0.2.0/24 behind ECMP, the L4LB and
sk_lookup, serving a 10,000-site hostname universe (about 40K hostnames
with their asset hosts) through the distributed edge cache.  Flows come
in batches of 256 from a Zipf(1.1) corpus over the sites; each batch is
drawn from the seeded corpus before its timed region starts.

flow-warm
    one policy, TTL 300.  Set-up resolves every hostname once and fetches
    every hostname through the edge cache, so resolve is all resolver
    cache hits and serve is all edge-cache hits.
flow-mint-churn
    256 per-PoP policies, TTL 0, the serving PoP's policy at position 128,
    the edge cache primed.  Every flow mints.  Before every batch, inside
    its timed region, the control plane takes one step of the shrink cycle
    /24 -> /26 -> /28 -> /32 -> /24 on the serving pool and removes and
    re-adds another PoP's policy.

A batch that raises fails every flow in it and the run goes on; a flow
answered with any status but 200, or minted outside the active prefix,
is a wrong output.

The process runs pinned to one CPU, and the reference loop of
:mod:`speed` is timed before every batch; batch times are scaled by it.
"""

from __future__ import annotations

import os
import random
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from repro.clock import Clock
from repro.core.authoritative import PolicyAnswerSource
from repro.core.policy import Policy, PolicyEngine
from repro.core.pool import AddressPool
from repro.dns.cache import DNSCache
from repro.edge.datacenter import Datacenter
from repro.edge.server import ListenMode
from repro.flow import FlowBatch, FlowEngine
from repro.netsim.addr import Prefix, parse_prefix
from repro.netsim.geo import GeoPoint
from repro.netsim.packet import Protocol
from repro.web.http import Request
from repro.web.tls import CertificateStore
from repro.workload.hostnames import HostnameUniverse, UniverseConfig
from repro.workload.traffic import RequestStream

from common import Result, current_rss_mb, median_setup, peak_rss_mb, percentile
from layers import SPANS, layer_metrics, probes_per_eval
from speed import REFERENCE_S, pinned, reference_seconds
from tracing import Tracer

__all__ = ["run_flows"]

clock = time.perf_counter

SITES = 10_000
SERVERS = 8
BATCH = 256
ZIPF_S = 1.1
POP = "bench-pop"
SERVICE_PREFIX = parse_prefix("192.0.2.0/24")
OTHER_PREFIX = parse_prefix("198.51.100.0/24")
CHURN_POLICIES = 256
SERVING_POSITION = 128
SETUP_REPEATS = 3
#: ``flows_per_s`` is a median over slices of this many wall seconds.
SLICE_S = 1.0
#: Each batch is scaled by the median reference timing of the batches
#: within this many places of it.
SMOOTH = 4
PROBE_BATCHES = 4
#: ``rss_peak_mb`` is read once this many flows have run, so it measures
#: a fixed amount of work however fast the flows go (server-side
#: connection state grows with every flow).
RSS_AT_FLOWS = 20_000
#: Flows the lazy corpus can yield; far beyond what one run consumes.
CORPUS_FLOWS = 4_000_000


@dataclass
class FlowWorld:
    dc: Datacenter
    cache: DNSCache
    policies: PolicyEngine
    engine: FlowEngine
    corpus: object
    serving_pool: AddressPool
    #: Shrink-cycle active prefixes and the other PoPs' policies to
    #: remove and re-add (flow-mint-churn only).
    shrink: list[Prefix] = field(default_factory=list)
    others: list[Policy] = field(default_factory=list)
    step: int = 0


def shrink_cycle(rng: random.Random) -> list[Prefix]:
    """/24 -> /26 -> /28 -> /32, each nested at a seeded offset in the one
    before, as the paper shrinks the active set inside one advertisement."""
    cycle = [SERVICE_PREFIX]
    for length in (26, 28, 32):
        parent = cycle[-1]
        size = 1 << (32 - length)
        offset = rng.randrange(parent.num_addresses // size) * size
        cycle.append(Prefix(4, parent.network + offset, length))
    return cycle


def build_world(workload: str, seed: int) -> FlowWorld:
    universe = HostnameUniverse(UniverseConfig(num_hostnames=SITES))
    certs = CertificateStore()
    for customer in universe.registry.customers():
        for cert in customer.make_certificates():
            certs.add(cert)
    dc = Datacenter(POP, GeoPoint(POP, 0.0, 0.0), universe.registry, universe.origins,
                    certs, num_servers=SERVERS)
    dc.configure_listening(SERVICE_PREFIX, ports=(443,), mode=ListenMode.SK_LOOKUP,
                           protocols=(Protocol.TCP,))

    churn = workload == "flow-mint-churn"
    rng = random.Random(seed)
    policies = PolicyEngine(random.Random(rng.getrandbits(64)))
    serving_pool = AddressPool(SERVICE_PREFIX, name="serving-pool")
    others: list[Policy] = []
    if not churn:
        policies.add(Policy("serve-all", serving_pool, match={}, ttl=300))
    else:
        for position in range(CHURN_POLICIES):
            if position == SERVING_POSITION:
                policy = Policy("serving-pop", serving_pool, match={"pop": {POP}}, ttl=0,
                                priority=position)
            else:
                pop = f"pop-{position:03d}"
                policy = Policy(pop, AddressPool(OTHER_PREFIX, name=f"{pop}-pool"),
                                match={"pop": {pop}}, ttl=0, priority=position)
                others.append(policy)
            policies.add(policy)
        rng.shuffle(others)
    source = PolicyAnswerSource(policies, universe.registry)
    cache = DNSCache(Clock())
    engine = FlowEngine(source, cache, dc, POP)

    hostnames = universe.hostnames
    if not churn:
        for i in range(0, len(hostnames), BATCH):
            chunk = hostnames[i:i + BATCH]
            engine.resolve_batch(FlowBatch(chunk, [None] * len(chunk), [0] * len(chunk)))
    for hostname in hostnames:
        dc.cache.fetch(Request(authority=hostname))

    corpus = RequestStream(universe, zipf_s=ZIPF_S).sample_flow_batches(
        CORPUS_FLOWS, seed, batch_size=BATCH
    )
    return FlowWorld(dc, cache, policies, engine, corpus, serving_pool,
                     shrink_cycle(rng) if churn else [], others)


class FlowCheck:
    """Per-batch output checks, run outside the timed region."""

    def __init__(self) -> None:
        self.wrong = Counter()

    def check(self, batch: FlowBatch, active: Prefix) -> tuple[int, int]:
        """Returns (flows served 200, flows wrong)."""
        ok = wrong = 0
        for address, server, status in zip(batch.addresses, batch.servers, batch.statuses):
            if status != 200:
                self.wrong[f"status {status}"] += 1
            elif address not in active:
                self.wrong["address outside the active prefix"] += 1
            elif server is None:
                self.wrong["no owning server"] += 1
            else:
                ok += 1
                continue
            wrong += 1
        return ok, wrong


@dataclass
class Batch:
    seconds: float  # the timed region: control-plane writes and run_batch
    reference: float  # the reference loop, timed just before, on this CPU
    ok: int  # flows served right
    slice: int  # which SLICE_S of wall time the batch started in
    completed: bool  # False when the batch raised


@dataclass
class Phase:
    flows: int = 0
    failed: int = 0
    batches: list[Batch] = field(default_factory=list)
    aborts: Counter = field(default_factory=Counter)
    rss_mb: float | None = None

    def scaled_seconds(self) -> list[float]:
        """Each batch's time scaled to the nominal host, by the median of
        the reference timings of the batches around it."""
        refs = [b.reference for b in self.batches]
        return [
            b.seconds * REFERENCE_S / statistics.median(refs[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i, b in enumerate(self.batches)
        ]

    def latencies(self, scaled: bool = True) -> list[float]:
        times = self.scaled_seconds() if scaled else [b.seconds for b in self.batches]
        return [t for t, b in zip(times, self.batches) if b.completed]

    def rate(self, scaled: bool = True) -> float:
        """Median over slices of flows served right per second of batch
        time; the last slice, cut short when the phase ends, is left out."""
        times = self.scaled_seconds() if scaled else [b.seconds for b in self.batches]
        ok: Counter[int] = Counter()
        busy: Counter[int] = Counter()
        for t, b in zip(times, self.batches):
            ok[b.slice] += b.ok
            busy[b.slice] += t
        slices = sorted(busy)
        rates = [ok[i] / busy[i] for i in slices[:-1] or slices if busy[i]]
        return statistics.median(rates) if rates else 0.0


def control_step(world: FlowWorld) -> Prefix:
    """flow-mint-churn's control-plane writes; returns the active prefix."""
    step = world.step
    world.step += 1
    active = world.shrink[step % len(world.shrink)]
    world.serving_pool.set_active(active)
    other = world.others[step % len(world.others)]
    world.policies.remove(other.name)
    world.policies.add(other)
    return active


def run_phase(world: FlowWorld, check: FlowCheck, seconds: float | None = None,
              batches: int | None = None) -> Phase:
    """Run batches until ``seconds`` of wall time or ``batches`` batches."""
    phase = Phase()
    churn = bool(world.shrink)
    engine = world.engine
    phase_start = clock()
    while True:
        now = clock()
        if seconds is not None and now - phase_start >= seconds:
            break
        if batches is not None and len(phase.batches) >= batches:
            break
        batch = FlowBatch(*next(world.corpus))
        ref_s = reference_seconds()
        started = clock()
        try:
            active = control_step(world) if churn else SERVICE_PREFIX
            engine.run_batch(batch)
        except Exception as exc:  # a batch abort fails its flows; the run goes on
            elapsed = clock() - started
            ok, completed = 0, False
            phase.failed += len(batch)
            phase.aborts[type(exc).__name__] += 1
            if sum(phase.aborts.values()) == 1:
                traceback.print_exc()
        else:
            elapsed = clock() - started
            ok, wrong = check.check(batch, active)
            completed = True
            phase.failed += wrong
        phase.batches.append(
            Batch(elapsed, ref_s, ok, int((started - phase_start) / SLICE_S), completed)
        )
        phase.flows += len(batch)
        if phase.rss_mb is None and phase.flows >= RSS_AT_FLOWS:
            phase.rss_mb = peak_rss_mb()
    return phase


def run_flows(workload: str, seed: int, seconds: float, trace: bool, trace_path) -> Result:
    # One CPU for the whole run, so the reference loop times the CPU the
    # batches run on.
    with pinned(min(os.sched_getaffinity(0))):
        return _run_flows(workload, seed, seconds, trace, trace_path)


def _run_flows(workload: str, seed: int, seconds: float, trace: bool, trace_path) -> Result:
    world, setup_raw, setup_times = median_setup(lambda: build_world(workload, seed),
                                                 SETUP_REPEATS, clock)
    rss_after_setup = current_rss_mb()
    check = FlowCheck()
    result = Result()

    # Traced, the run is untraced, traced, untraced again, so that what the
    # world's growing state costs weighs on both arms of the overhead.
    measured = run_phase(world, check, seconds=seconds / 4 if trace else seconds)
    phases = [measured]
    if trace:
        dns_before = (world.cache.stats.hits, world.cache.stats.misses)
        edge_before = _edge_hits(world)
        tracer = Tracer()
        tracer.patch_all(SPANS)
        try:
            traced = run_phase(world, check, seconds=seconds / 2)
        finally:
            tracer.restore()
        dns_hits = world.cache.stats.hits - dns_before[0]
        dns_misses = world.cache.stats.misses - dns_before[1]
        edge_hits, edge_misses = (a - b for a, b in zip(_edge_hits(world), edge_before))
        after = run_phase(world, check, seconds=seconds / 4)
        if trace_path is not None:
            tracer.dump(trace_path)
        probes, probed = probes_per_eval(
            world.policies, lambda: run_phase(world, check, batches=PROBE_BATCHES)
        )
        phases += [traced, after, probed]
        flows_total = sum(p.flows for p in phases)
        layers = layer_metrics(tracer, traced.flows)
        layers.update({
            "core.policy.probes_per_eval": probes,
            "dns.cache.hit_ratio": dns_hits / max(1, dns_hits + dns_misses),
            "edge.cache.hit_ratio": edge_hits / max(1, edge_hits + edge_misses),
            "edge.datacenter.connections": world.dc.connection_count(),
            "sockets.socktable.sockets": world.dc.total_socket_count(),
            "edge.l4lb.tracked_flows": world.dc.l4lb.tracked_flows(),
            "state_bytes_per_flow": (current_rss_mb() - rss_after_setup) * 2**20 / flows_total,
            "trace.overhead_share":
                1.0 - traced.rate() / statistics.mean([measured.rate(), after.rate()]),
        })
        result.metrics.update(layers)
        result.report.append(("traced_flows_per_s", traced.rate(), "1/s (scaled)"))

    latencies = measured.latencies()
    p50 = percentile(latencies, 50) * 1e3
    p90 = percentile(latencies, 90) * 1e3
    result.report += [
        ("flows_per_s", measured.rate(), "1/s (scaled)"),
        ("batch_p50_ms", p50, "ms (scaled)"),
        ("batch_p90_ms", p90, "ms (scaled)"),
        ("flows_per_s_raw", measured.rate(scaled=False), "1/s"),
        ("batch_p50_ms_raw", percentile(measured.latencies(scaled=False), 50) * 1e3, "ms"),
        ("batches", len(latencies), "count"),
        ("setup_s_raw", statistics.median(setup_raw), "s"),
    ]
    result.attempted = sum(p.flows for p in phases)
    result.failed = sum(p.failed for p in phases)
    result.wrong = sum(check.wrong.values())
    result.notes += [f"wrong flow: {why} x{n}" for why, n in check.wrong.items()]
    aborts = sum((p.aborts for p in phases), Counter())
    result.notes += [f"batch aborted: {name} x{n}" for name, n in aborts.items()]
    result.metrics.update({
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": measured.rate(),
        "latency_p50_ms": p50,
        "latency_tail_ms": p90,
        "rss_peak_mb": measured.rss_mb or peak_rss_mb(),
    })
    return result


def _edge_hits(world: FlowWorld) -> tuple[int, int]:
    nodes = world.dc.cache.nodes().values()
    return sum(n.stats.hits for n in nodes), sum(n.stats.misses for n in nodes)
