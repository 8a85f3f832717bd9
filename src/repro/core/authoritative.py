"""The policy-first authoritative answer source (Figure 3b).

§3.2's five steps, verbatim, as code:

1. a query arrives for an A or AAAA record            → ``answer()``
2. processing/validation/logging remains unchanged    → the shared
   :class:`~repro.dns.server.AuthoritativeServer` scaffolding
3. attributes match to a policy that identifies a prefix
                                                       → :class:`PolicyEngine`
4. generate a random bitstring of 32−b (or 128−b) bits → the policy's
   strategy over its :class:`AddressPool`
5. respond with prefix ‖ bitstring                     → the A/AAAA record

Queries that match no policy fall through to a conventional fallback
source ("queries that do not match are resolved as normal", §4.3) — this
is what let the deployment run one global codebase.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..dns.records import A, AAAA, Question, ResourceRecord, RRType
from ..dns.server import Answer, AnswerSource, QueryContext
from ..dns.wire import Rcode
from ..edge.customers import CustomerRegistry
from ..netsim.addr import IPv4, IPv6
from .policy import PolicyAttributes, PolicyEngine

if TYPE_CHECKING:
    from ..obs.trace import TraceRecorder

__all__ = ["PolicyAnswerSource", "PolicyAnswerLog"]


@dataclass(slots=True)
class PolicyAnswerLog:
    """Step-2 accounting: what the policy path answered, per policy."""

    policy_answers: int = 0
    fallback_answers: int = 0
    refused: int = 0
    by_policy: dict[str, int] = field(default_factory=dict)


class PolicyAnswerSource(AnswerSource):
    """Answer A/AAAA queries from policies; everything else via fallback.

    Parameters
    ----------
    engine:
        The policy engine (step 3).
    registry:
        Maps the queried hostname to its account type — the one per-name
        fact the deployment's policy consumes.  Hostnames not in the
        registry never match account-typed policies and use the fallback.
    fallback:
        Conventional answer source for non-matching queries.  ``None``
        makes unmatched queries REFUSED (useful in unit tests; production
        always configures one).
    """

    def __init__(
        self,
        engine: PolicyEngine,
        registry: CustomerRegistry,
        fallback: AnswerSource | None = None,
        rng: random.Random | None = None,
        tracer: "TraceRecorder | None" = None,
    ) -> None:
        self.engine = engine
        self.registry = registry
        self.fallback = fallback
        self.log = PolicyAnswerLog()
        #: Optional :class:`~repro.obs.trace.TraceRecorder`: when set, every
        #: A/AAAA answer records policy_match → mint → query spans (the
        #: §3.2 steps, observable per query).
        self.tracer = tracer
        self._rng = rng or random.Random(0x5EED)

    def answer(self, question: Question, context: QueryContext) -> Answer:
        """:meth:`answer_batch` of one."""
        return self.answer_batch((question,), context)[0]

    def answer_batch(
        self, questions: Sequence[Question], context: QueryContext
    ) -> list[Answer]:
        """Answer questions sharing one context, in order.

        Every A/AAAA question goes through one
        :meth:`~repro.core.policy.PolicyEngine.evaluate_batch` call; the
        RNG draw order matches answering one question at a time because
        fallback answers never touch the engine RNG.  The log counts each
        answer as it is made, so a failure part-way leaves the counts of
        the answers already made.

        With a tracer, each A/AAAA question records its spans in exit
        order: policy_match, mint (policy answers only), query.  Answering
        takes no simulated time, so each is a zero-length mark at the
        current instant — what a span wrapped around the step would
        measure — and a traced batch runs this same loop.
        """
        registry = self.registry
        pop = context.pop
        client_subnet = context.client_subnet
        per_question: list[PolicyAttributes | None] = []
        eligible: list[PolicyAttributes] = []
        for question in questions:
            rrtype = question.rrtype
            if rrtype != RRType.A and rrtype != RRType.AAAA:
                per_question.append(None)
                continue
            hostname = str(question.name).rstrip(".")
            account = registry.account_type_for(hostname)
            attrs = PolicyAttributes(
                pop=pop,
                account_type=account.value if account is not None else None,
                family=IPv4 if rrtype == RRType.A else IPv6,
                hostname=hostname,
                client_subnet=client_subnet,
            )
            per_question.append(attrs)
            eligible.append(attrs)

        decisions = iter(self.engine.evaluate_batch(eligible))
        tracer = self.tracer
        fallback = self.fallback
        log = self.log
        by_policy = log.by_policy
        answers: list[Answer] = []
        append = answers.append
        for question, attrs in zip(questions, per_question):
            decision = None if attrs is None else next(decisions)
            if tracer is not None and attrs is not None:
                trace = tracer.next_trace_id("query")
                tracer.mark(trace, "policy_match")
                if decision is not None:
                    tracer.mark(trace, "mint", decision.policy.name)
                tracer.mark(trace, "query", attrs.hostname)
            if decision is not None:
                rdata = (
                    A(decision.address)
                    if question.rrtype == RRType.A
                    else AAAA(decision.address)
                )
                record = ResourceRecord(question.name, rdata, ttl=decision.ttl)
                name = decision.policy.name
                log.policy_answers += 1
                by_policy[name] = by_policy.get(name, 0) + 1
                append(Answer(Rcode.NOERROR, records=(record,)))
            elif fallback is None:
                log.refused += 1
                append(Answer(Rcode.REFUSED))
            else:
                log.fallback_answers += 1
                append(fallback.answer(question, context))
        return answers
