"""Tracing runs inside the batch seams: traced and untraced runs share code.

``PolicyAnswerSource.answer``, ``Datacenter.connect`` and
``Datacenter.serve`` are batches of one, so a traced batch must record
exactly the spans the same items record one call at a time — same trace
ids, phases, instants and details, in the same order — including a
fall-through answer and a refused handshake.  The failover experiment's
full span list is pinned by digest, so a change in what any traced path
records shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.dns.records import DomainName, Question, RRType
from repro.dns.server import Answer, AnswerSource
from repro.dns.wire import Rcode
from repro.experiments.failover import FailoverConfig, run_failover
from repro.experiments.flow_perf import build_flow_world
from repro.netsim import parse_address
from repro.netsim.packet import FiveTuple, Protocol
from repro.obs.trace import TraceRecorder
from repro.sockets.lookup import flow_hash_tuple
from repro.web.http import HTTPVersion, Request
from repro.web.tls import ClientHello


class _NxFallback(AnswerSource):
    """A conventional source that knows no names."""

    def answer(self, question, context):
        return Answer(Rcode.NXDOMAIN)


def _traced_world():
    world = build_flow_world(num_hostnames=16, num_servers=4)
    tracer = TraceRecorder(world.clock)
    world.source.tracer = tracer
    world.dc.tracer = tracer
    return world, tracer


def _spans(tracer):
    return [(s.trace, s.phase, s.start, s.end, s.detail) for s in tracer]


def _answers(answers):
    return [(a.rcode, a.records) for a in answers]


def _questions(world):
    names = world.universe.hostnames[:6]
    questions = [Question(DomainName.from_text(n), RRType.A) for n in names]
    # AAAA matches no policy (the pool is IPv4): a fall-through answer with
    # its policy_match and query spans; TXT is never policy-eligible and
    # records nothing.
    questions.insert(2, Question(DomainName.from_text(names[0]), RRType.AAAA))
    questions.insert(4, Question(DomainName.from_text(names[1]), RRType.TXT))
    return questions


@pytest.mark.parametrize("fallback", [None, _NxFallback()], ids=["refused", "fallback"])
def test_answer_batch_records_the_scalar_spans(fallback):
    (batched, tb), (scalar, ts) = _traced_world(), _traced_world()
    batched.source.fallback = fallback
    scalar.source.fallback = fallback
    ctx = batched.engine.context
    questions = _questions(batched)

    got = batched.source.answer_batch(questions, ctx)
    expected = [scalar.source.answer(q, ctx) for q in questions]

    assert _answers(got) == _answers(expected)
    assert _spans(tb) == _spans(ts)
    phases = [phase for _, phase, _, _, _ in _spans(tb)]
    assert phases.count("query") == len(questions) - 1  # TXT records none
    assert phases.count("mint") == len(questions) - 2   # AAAA falls through
    assert batched.source.log == scalar.source.log


def _requests(world, n):
    ctx = world.engine.context
    out = []
    for i, name in enumerate(world.universe.hostnames[:n]):
        answer = world.source.answer(Question(DomainName.from_text(name), RRType.A), ctx)
        dst = answer.records[0].rdata.address
        t5 = FiveTuple(Protocol.TCP, parse_address(f"198.51.100.{i + 1}"), 40000 + i, dst, 443)
        out.append((t5, ClientHello(sni=name), HTTPVersion.H2))
    return out


def test_connect_and_serve_batches_record_the_scalar_spans():
    (batched, tb), (scalar, ts) = _traced_world(), _traced_world()
    requests = _requests(batched, 8)
    assert requests == _requests(scalar, 8)
    tb.clear()
    ts.clear()

    conns_b = batched.dc.connect_batch(requests)
    conns_s = [scalar.dc.connect(*request) for request in requests]
    pairs_b = [(c, Request(authority=r[1].sni, path=f"/p{i}"))
               for i, (c, r) in enumerate(zip(conns_b, requests))]
    pairs_s = [(c, Request(authority=r[1].sni, path=f"/p{i}"))
               for i, (c, r) in enumerate(zip(conns_s, requests))]
    got = batched.dc.serve_batch(pairs_b)
    expected = [scalar.dc.serve(c, r) for c, r in pairs_s]

    assert [(r.status, r.body_len) for r in got] == [(r.status, r.body_len) for r in expected]
    assert _spans(tb) == _spans(ts)
    phases = [phase for _, phase, _, _, _ in _spans(tb)]
    assert (phases.count("ecmp"), phases.count("dispatch"), phases.count("serve")) == (8, 8, 8)


def test_refused_handshake_records_its_spans_in_both_forms():
    (batched, tb), (scalar, ts) = _traced_world(), _traced_world()
    requests = _requests(batched, 8)
    assert requests == _requests(scalar, 8)
    victim = batched.dc.ecmp.choose(flow_hash_tuple(requests[-1][0]))
    # Keep the survivors off the victim so only the last SYN is refused.
    requests = [r for r in requests[:-1]
                if batched.dc.ecmp.choose(flow_hash_tuple(r[0])) != victim] + requests[-1:]
    assert len(requests) > 2
    batched.dc.crash_server(victim)
    scalar.dc.crash_server(victim)
    tb.clear()
    ts.clear()

    with pytest.raises(ConnectionRefusedError):
        batched.dc.connect_batch(requests)
    for request in requests[:-1]:
        scalar.dc.connect(*request)
    with pytest.raises(ConnectionRefusedError):
        scalar.dc.connect(*requests[-1])

    assert _spans(tb) == _spans(ts)
    refused_trace = _spans(tb)[-1][0]
    assert [s[1] for s in _spans(tb) if s[0] == refused_trace] == ["ecmp", "dispatch"]
    assert batched.dc.connection_count() == scalar.dc.connection_count() == len(requests) - 1


def test_failover_span_list_is_pinned():
    """The full failover trace — query, connection, serve and mitigation
    spans — as one digest over every span's fields."""
    outcome = run_failover(FailoverConfig())
    lines = [f"{s.trace}|{s.phase}|{s.start!r}|{s.end!r}|{s.detail}" for s in outcome.tracer]
    assert len(lines) == 8508
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "60021184f314fbbdf41b331bd1d7d4eccf7a0caa1ed327bc380b42c3d01105cf"
