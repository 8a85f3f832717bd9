"""The compiled first-match index equals the linear scan it replaced.

``PolicyEngine`` answers from a dict keyed on the canonical
``(pop, account_type, family)`` tuple.  The oracle here is the scan the
index replaced, run by a twin engine over its own copies of the same
policies and an identically seeded RNG: after every add, remove and pool
swap, every point of the attribute domain must get the same policy, the
same address, the same counters and leave the same RNG state.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import Clock
from repro.core.agility import AgilityController
from repro.core.policy import Policy, PolicyAttributes, PolicyDecision, PolicyEngine
from repro.core.pool import AddressPool
from repro.netsim.addr import IPv4, IPv6, parse_prefix

POPS = ("iad", "lhr", "ord")
ACCOUNTS = ("free", "pro", None)
#: Values no policy can name: each must land on the index's OTHER key.
UNNAMED_POP = "unnamed-pop"
UNNAMED_ACCOUNT = "unnamed-account"


class ScanEngine(PolicyEngine):
    """The linear first-match scan, kept as the oracle for the index."""

    def evaluate_batch(self, batch):
        evaluations = matches = 0
        hit_counts = Counter()
        decisions = []
        try:
            for attrs in batch:
                evaluations += 1
                decision = None
                for policy in self._policies:
                    if policy.pool.family == attrs.family and policy.matches(attrs):
                        hit_counts[policy] += 1
                        matches += 1
                        address = policy.select(attrs, self._rng)
                        decision = PolicyDecision(policy, address, policy.ttl)
                        break
                decisions.append(decision)
        finally:
            self.evaluations += evaluations
            self.matches += matches
            for policy, n in hit_counts.items():
                policy.hits += n
        return decisions


def make_pool(family: int, serial: int) -> AddressPool:
    text = f"10.{serial % 256}.0.0/24" if family == IPv4 else f"2001:db8:{serial:x}::/120"
    return AddressPool(parse_prefix(text), name=f"pool-{serial}")


def domain(engine: PolicyEngine) -> list[PolicyAttributes]:
    """Every named value plus one unnamed value per key, account ``None``
    included, in both families."""
    pops = {UNNAMED_POP, *POPS}
    accounts = {UNNAMED_ACCOUNT, *ACCOUNTS}
    for policy in engine.policies():
        pops |= policy.match.get("pop", set())
        accounts |= policy.match.get("account_type", set())
    return [
        PolicyAttributes(pop=pop, account_type=account, family=family, hostname="h.example")
        for pop in sorted(pops)
        for account in sorted(accounts, key=str)
        for family in (IPv4, IPv6)
    ]


#: (pool family, priority, match).  Equal priorities, empty value sets,
#: None accounts and family constraints that contradict the pool's family
#: are all in range.
policy_specs = st.tuples(
    st.sampled_from((IPv4, IPv6)),
    st.integers(0, 3),
    st.fixed_dictionaries({}, optional={
        "pop": st.frozensets(st.sampled_from(POPS)),
        "account_type": st.frozensets(st.sampled_from(ACCOUNTS)),
        "family": st.frozensets(st.sampled_from((IPv4, IPv6))),
    }),
)
steps = st.one_of(
    st.tuples(st.just("add"), policy_specs),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("swap_pool"), st.integers(0, 63)),
)


class Twins:
    """An indexed engine and a scanning one, driven in lockstep."""

    def __init__(self, seed: int) -> None:
        self.indexed = PolicyEngine(random.Random(seed))
        self.scan = ScanEngine(random.Random(seed))
        self.controllers = [AgilityController(e, Clock()) for e in (self.indexed, self.scan)]
        self.serial = 0

    def apply(self, step) -> None:
        kind, arg = step
        self.serial += 1
        names = [p.name for p in self.indexed.policies()]
        if kind == "add":
            family, priority, match = arg
            for engine in (self.indexed, self.scan):
                engine.add(Policy(f"p{self.serial}", make_pool(family, self.serial),
                                  match=match, priority=priority))
        elif names and kind == "remove":
            name = names[arg % len(names)]
            for engine in (self.indexed, self.scan):
                engine.remove(name)
        elif names:
            name = names[arg % len(names)]
            family = self.indexed.get(name).pool.family
            for controller in self.controllers:
                controller.swap_pool(name, make_pool(family, self.serial))

    def check(self) -> None:
        points = domain(self.indexed)
        got = self.indexed.evaluate_batch(points)
        want = self.scan.evaluate_batch(points)
        for attrs, a, b in zip(points, got, want):
            assert (a and (a.policy.name, a.address, a.ttl)) == \
                (b and (b.policy.name, b.address, b.ttl)), attrs
            assert a is None or a.policy.pool.contains(a.address)
        assert self.indexed.evaluations == self.scan.evaluations
        assert self.indexed.matches == self.scan.matches
        assert [(p.name, p.hits) for p in self.indexed.policies()] == \
            [(p.name, p.hits) for p in self.scan.policies()]
        assert self.indexed._rng.getstate() == self.scan._rng.getstate()
        named_pops = set().union(*(p.match.get("pop", ()) for p in self.indexed.policies()))
        named_accounts = set().union(
            *(p.match.get("account_type", ()) for p in self.indexed.policies())
        )
        assert self.indexed.index_size() <= (len(named_pops) + 1) * (len(named_accounts) + 1) * 2


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1 << 16), script=st.lists(steps, min_size=1, max_size=24))
def test_index_equals_linear_scan_after_every_step(seed, script):
    twins = Twins(seed)
    twins.check()
    for step in script:
        twins.apply(step)
        twins.check()


def test_index_builds_lazily_once_per_burst_of_writes():
    engine = PolicyEngine(random.Random(0))
    for i in range(256):
        engine.add(Policy(f"pop-{i}", make_pool(IPv4, i), match={"pop": {f"pop-{i}"}},
                          priority=i))
    assert engine.index_builds == 0 and engine.index_size() == 0
    attrs = PolicyAttributes(pop="pop-128", account_type="free", family=IPv4)
    assert engine.evaluate(attrs).policy.name == "pop-128"
    engine.evaluate_batch([attrs] * 4)
    assert engine.index_builds == 1
    assert engine.index_size() == 256
    engine.remove("pop-3")
    engine.add(Policy("pop-3", make_pool(IPv4, 3), match={"pop": {"pop-3"}}, priority=3))
    assert engine.index_size() == 0
    assert engine.evaluate(attrs).policy.name == "pop-128"
    assert engine.index_builds == 2


def test_index_size_is_bounded_by_named_values_not_traffic():
    engine = PolicyEngine(random.Random(0))
    engine.add(Policy("iad", make_pool(IPv4, 1), match={"pop": {"iad"}}, priority=1))
    engine.add(Policy("free", make_pool(IPv4, 2), match={"account_type": {"free"}}, priority=2))
    engine.add(Policy("v6", make_pool(IPv6, 3)))
    for i in range(500):
        engine.evaluate(PolicyAttributes(pop=f"pop-{i}", account_type=f"acct-{i}",
                                         family=(IPv4, IPv6)[i % 2]))
    # iad: (iad, free|OTHER, 4); free: (OTHER, free, 4); v6: (iad|OTHER, free|OTHER, 6).
    # (OTHER, OTHER, 4) matches no policy and holds no entry.
    assert engine.index_size() == 7
    assert engine.index_builds == 1
