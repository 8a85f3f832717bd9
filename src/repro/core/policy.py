"""Policies and the policy engine: matching queries without names.

Figure 3b: "Our architecture matches policy without name … For: PoP
location, account type → Use: a.b.c.d/xx".  A :class:`Policy` is a set of
attribute constraints plus an address pool, a selection strategy, and a
TTL.  The :class:`PolicyEngine` evaluates policies in priority order and
returns the first match; queries matching no policy "are resolved as
normal" (§4.3) by whatever fallback the caller wires in.

Attribute constraints are value sets per key — deliberately not arbitrary
code: §4.3 leaves "safe and verifiable policy expression" as future work,
and set-membership constraints are the verifiable core that the deployment
actually used (datacenter ∈ {…} ∧ account_type ∈ {…}).

Because the constraints are finite sets, first-match compiles to a dict:
the engine keys every ``(pop, account_type, family)`` tuple the installed
policies can tell apart to the policy that wins it, with every value no
policy names folded into one :data:`OTHER` key.  Evaluating a query is one
dict lookup however many policies are installed; the linear scan survives
only as the oracle the index is tested against.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from ..netsim.addr import IPAddress
from .pool import AddressPool
from .strategies import RandomSelection, SelectionContext, SelectionStrategy

__all__ = ["PolicyAttributes", "Policy", "PolicyEngine", "PolicyDecision"]

_MATCH_KEYS = frozenset({"pop", "account_type", "family"})

#: The index key standing for every ``pop`` (or ``account_type``) value
#: that no policy's ``match`` names: no policy can tell such values apart.
OTHER = object()


@dataclass(frozen=True, slots=True)
class PolicyAttributes:
    """The attribute tuple a query presents for matching.

    ``hostname`` is carried for *strategies* that need it (static
    baselines, DoS maps); the paper's randomizing policies never read it —
    a property tested explicitly.  ``client_subnet`` is the EDNS Client
    Subnet (RFC 7871) when the resolver sent one; like the hostname it is
    strategy input, not a match key (matching on unbounded prefixes is not
    statically verifiable — see :mod:`repro.core.spec`).
    """

    pop: str
    account_type: str | None = None
    family: int = 4  # 4 for A queries, 6 for AAAA
    hostname: str = ""
    client_subnet: str | None = None


class Policy:
    """One match→pool rule.

    ``match`` maps attribute names (``pop``, ``account_type``, ``family``)
    to the set of acceptable values; absent keys are unconstrained.  Lower
    ``priority`` evaluates first.  ``match`` is frozen at construction (a
    read-only mapping of frozensets): the engine's first-match index relies
    on only ``add``/``remove`` changing which policy wins.
    """

    def __init__(
        self,
        name: str,
        pool: AddressPool,
        match: Mapping[str, object] | None = None,
        strategy: SelectionStrategy | None = None,
        ttl: int = 30,
        priority: int = 100,
    ) -> None:
        if ttl < 0:
            raise ValueError("TTL must be non-negative")
        match = dict(match or {})
        unknown = set(match) - _MATCH_KEYS
        if unknown:
            raise ValueError(f"policy {name!r}: unknown attribute keys {sorted(unknown)}")
        for key, values in match.items():
            if isinstance(values, (str, bytes)):
                # set("iad") is {"i", "a", "d"}: refuse rather than guess.
                raise TypeError(
                    f"policy {name!r}: match[{key!r}] must be a collection of "
                    f"values, not {type(values).__name__} {values!r}"
                )
        self.name = name
        self.pool = pool
        self._match = MappingProxyType({k: frozenset(v) for k, v in match.items()})
        self.strategy = strategy or RandomSelection()
        self.ttl = ttl
        self.priority = priority
        self.hits = 0

    @property
    def match(self) -> Mapping[str, frozenset]:
        return self._match

    def matches(self, attrs: PolicyAttributes) -> bool:
        return all(getattr(attrs, key) in allowed for key, allowed in self._match.items())

    def select(self, attrs: PolicyAttributes, rng: random.Random) -> IPAddress:
        ctx = SelectionContext(
            hostname=attrs.hostname,
            pop=attrs.pop,
            account_type=attrs.account_type,
            client_subnet=attrs.client_subnet,
        )
        return self.strategy.select(self.pool, ctx, rng)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Policy({self.name!r}, match={self.match}, pool={self.pool.name!r})"


@dataclass(frozen=True, slots=True)
class PolicyDecision:
    """The engine's verdict for one query."""

    policy: Policy
    address: IPAddress
    ttl: int


class PolicyEngine:
    """Ordered policy evaluation with runtime add/remove.

    Policies sort by (priority, insertion order); the first match wins.
    Returning ``None`` means "no policy applies — resolve conventionally".

    First-match is compiled into an index keyed on the canonical
    ``(pop, account_type, family)`` tuple (see :meth:`_build_index`).
    ``add`` and ``remove`` drop it and the next evaluation rebuilds it, so
    a burst of writes costs one build.  Nothing else can change which
    policy wins a tuple: ``match`` is frozen, and a pool swap keeps the
    pool's family.
    """

    def __init__(self, rng: random.Random | None = None) -> None:
        self._policies: list[Policy] = []
        self._rng = rng or random.Random(0xA91)
        self.evaluations = 0
        self.matches = 0
        #: (index, named pops, named account types), or None until the next
        #: evaluation rebuilds it.
        self._compiled: tuple[dict[tuple, Policy], frozenset, frozenset] | None = None
        self.index_builds = 0

    # -- management ----------------------------------------------------------

    def add(self, policy: Policy) -> None:
        if any(p.name == policy.name for p in self._policies):
            raise ValueError(f"duplicate policy name {policy.name!r}")
        self._policies.append(policy)
        self._policies.sort(key=lambda p: p.priority)
        self._compiled = None

    def remove(self, name: str) -> Policy:
        for i, policy in enumerate(self._policies):
            if policy.name == name:
                self._compiled = None
                return self._policies.pop(i)
        raise KeyError(f"no policy named {name!r}")

    def get(self, name: str) -> Policy:
        for policy in self._policies:
            if policy.name == name:
                return policy
        raise KeyError(f"no policy named {name!r}")

    def policies(self) -> list[Policy]:
        return list(self._policies)

    def __len__(self) -> int:
        return len(self._policies)

    def index_size(self) -> int:
        """Entries in the first-match index; 0 while it awaits a rebuild.

        At most (named PoPs + 1) × (named account types + 1) × 2, whatever
        the traffic: values no policy names share the :data:`OTHER` key."""
        return len(self._compiled[0]) if self._compiled is not None else 0

    def _build_index(self) -> tuple[dict[tuple, Policy], frozenset, frozenset]:
        """One pass in priority order; ``setdefault`` keeps the first
        policy to claim a tuple, so first-match holds by construction.

        An unconstrained key covers every named value plus :data:`OTHER`;
        the family axis is the pool's family, if the policy's ``family``
        constraint (when it has one) admits it."""
        policies = self._policies
        pops = frozenset().union(*(p._match.get("pop", ()) for p in policies))
        accounts = frozenset().union(*(p._match.get("account_type", ()) for p in policies))
        every_pop = (*pops, OTHER)
        every_account = (*accounts, OTHER)
        index: dict[tuple, Policy] = {}
        for policy in policies:
            match = policy._match
            family = policy.pool.family
            if family not in match.get("family", (family,)):
                continue
            for key in itertools.product(
                match.get("pop", every_pop), match.get("account_type", every_account), (family,)
            ):
                index.setdefault(key, policy)
        self._compiled = (index, pops, accounts)
        self.index_builds += 1
        return self._compiled

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, attrs: PolicyAttributes) -> PolicyDecision | None:
        """First-match policy evaluation; selects an address on match.

        :meth:`evaluate_batch` of one — scalar and batched evaluation share
        one code path so their decisions and counters cannot drift."""
        return self.evaluate_batch((attrs,))[0]

    def evaluate_batch(
        self, batch: Sequence[PolicyAttributes]
    ) -> list[PolicyDecision | None]:
        """Evaluate many attribute tuples; counters folded once per batch.

        Each item is one lookup in the first-match index, rebuilt here
        first if ``add``/``remove`` dropped it.  Selection draws from the
        engine RNG in item order, so a batch produces the same address
        sequence as scalar calls in a loop.  The fold runs even if a
        strategy raises partway: the in-flight item has already been
        counted (evaluations, and hits/matches when it matched), exactly as
        the scalar path counts before selecting.
        """
        index, pops, accounts = self._compiled or self._build_index()
        rng = self._rng
        evaluations = matches = 0
        hit_counts: Counter[Policy] = Counter()
        decisions: list[PolicyDecision | None] = []
        append = decisions.append
        try:
            for attrs in batch:
                evaluations += 1
                pop = attrs.pop
                account = attrs.account_type
                policy = index.get((
                    pop if pop in pops else OTHER,
                    account if account in accounts else OTHER,
                    attrs.family,
                ))
                if policy is None:
                    append(None)
                    continue
                hit_counts[policy] += 1
                matches += 1
                address = policy.select(attrs, rng)
                append(PolicyDecision(policy=policy, address=address, ttl=policy.ttl))
        finally:
            self.evaluations += evaluations
            self.matches += matches
            for policy, n in hit_counts.items():
                policy.hits += n
        return decisions
