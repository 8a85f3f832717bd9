"""The layers the traced run measures, and how spans become metrics.

``SPANS`` maps a layer name to the public methods that enter it.  Both
arms patch the whole table, so a layer a workload never reaches reports
zero instead of going unmeasured: on ``dns-wire`` every ``flow.*``,
``edge.*``, ``sockets.*`` and ``web.*`` metric reading 0 is the check that
no flow-arm or edge layer ran.

Every ``<layer>_us`` metric is self time per unit of work (one flow on the
flow workloads, one query on ``dns-wire``), so the ``_us`` metrics of one
run add up to the traced time per unit.  The four ``flow.engine`` stage
metrics are the exception: they are the stage's inclusive time per flow.
README.md in this directory maps each layer to the end-to-end metric it
should move.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.authoritative import PolicyAnswerSource
from repro.core.policy import Policy, PolicyEngine
from repro.core.pool import AddressPool
from repro.core.strategies import RandomSelection
from repro.dns.cache import DNSCache
from repro.dns.server import AuthoritativeServer, ZoneAnswerSource
from repro.dns.wire import Message
from repro.edge.cache import DistributedCache
from repro.edge.datacenter import Datacenter
from repro.edge.ecmp import ECMPRouter
from repro.edge.l4lb import L4LoadBalancer
from repro.edge.server import EdgeServer
from repro.flow import FlowEngine, NumpyHashBackend, PythonHashBackend
from repro.serve import ProtocolCore
from repro.sockets.lookup import LookupPath
from repro.web.origin import OriginPool
from repro.web.tls import CertificateStore

from tracing import Tracer

__all__ = ["SPANS", "STAGES", "layer_metrics", "probes_per_eval"]

SPANS: dict[str, list[tuple[type, str]]] = {
    # wire arm
    "serve.protocol.datagram": [(ProtocolCore, "datagram")],
    "dns.wire.decode": [(Message, "decode")],
    "dns.wire.encode": [(Message, "encode")],
    "dns.server.handle_query": [(AuthoritativeServer, "handle_query")],
    "core.authoritative.answer": [(PolicyAnswerSource, "answer"),
                                  (PolicyAnswerSource, "answer_batch")],
    "dns.zone.answer": [(ZoneAnswerSource, "answer")],
    "core.policy.evaluate": [(PolicyEngine, "evaluate_batch")],
    "core.strategies.select": [(RandomSelection, "select")],
    # flow arm
    "flow.engine.run": [(FlowEngine, "run_batch")],
    "flow.engine.resolve": [(FlowEngine, "resolve_batch")],
    "flow.engine.connect": [(FlowEngine, "connect_stage")],
    "flow.engine.dispatch": [(FlowEngine, "dispatch_stage")],
    "flow.engine.serve": [(FlowEngine, "serve_stage")],
    "flow.backend.hash": [(NumpyHashBackend, "hash_tuples"),
                          (PythonHashBackend, "hash_tuples")],
    "dns.cache.lookup": [(DNSCache, "lookup"), (DNSCache, "lookup_batch")],
    "dns.cache.store": [(DNSCache, "store_batch")],
    "edge.datacenter.connect": [(Datacenter, "connect_batch")],
    "edge.datacenter.serve": [(Datacenter, "serve_batch")],
    "edge.ecmp.choose": [(ECMPRouter, "choose")],
    "edge.l4lb.admit": [(L4LoadBalancer, "admit")],
    "edge.server.handshake": [(EdgeServer, "handshake")],
    "edge.server.serve": [(EdgeServer, "serve")],
    "sockets.lookup.dispatch": [(LookupPath, "dispatch"), (LookupPath, "dispatch_batch")],
    "web.tls.select": [(CertificateStore, "select")],
    "edge.cache.fetch": [(DistributedCache, "fetch")],
    "edge.cache.home_node": [(DistributedCache, "home_node")],
    "web.origin.fetch": [(OriginPool, "fetch")],
    # control plane
    "core.pool.set_active": [(AddressPool, "set_active")],
    "core.policy.add": [(PolicyEngine, "add")],
    "core.policy.remove": [(PolicyEngine, "remove")],
}

#: Stage spans, reported as inclusive time per flow.
STAGES = ("flow.engine.resolve", "flow.engine.connect", "flow.engine.dispatch",
          "flow.engine.serve")

#: Spans no other span encloses: their inclusive time is the traced total.
TOP = ("serve.protocol.datagram", "flow.engine.run", "core.pool.set_active",
       "core.policy.add", "core.policy.remove")

POLICY_LAYERS = ("core.policy.", "core.strategies.")
EDGE_LAYERS = ("edge.", "web.tls.", "web.origin.", "sockets.lookup.")


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-unit ``_us`` metrics for every span in :data:`SPANS`, plus the
    policy and edge shares of traced self time."""
    out: dict[str, float] = {}
    for name in SPANS:
        if name == "flow.engine.run":
            continue
        ns = tracer.inclusive_ns[name] if name in STAGES else tracer.self_ns[name]
        out[f"{name}_us"] = ns / units / 1000.0 if units else 0.0
    out["share.core_policy"] = tracer.self_share(POLICY_LAYERS, TOP)
    out["share.edge_path"] = tracer.self_share(EDGE_LAYERS, TOP)
    return out


def probes_per_eval(engine: PolicyEngine, drive: Callable[[], object]) -> tuple[float, object]:
    """Calls to ``Policy.matches`` per policy evaluation while ``drive``
    runs; returns the ratio and what ``drive`` returned.  Counted in a
    phase of its own so the count does not weigh on traced self time."""
    tracer = Tracer()
    tracer.patch(Policy, "matches", "probe", count_only=True)
    before = engine.evaluations
    try:
        driven = drive()
    finally:
        tracer.restore()
    evaluations = engine.evaluations - before
    return (tracer.calls["probe"] / evaluations if evaluations else 0.0), driven
