"""E-policy-index: policy evaluation cost is flat in the number of policies.

``PolicyEngine`` compiles first-match into a dict keyed on the canonical
``(pop, account_type, family)`` tuple, so one evaluation is one lookup
however many policies are installed.  This bench times ``evaluate`` on an
engine with one per-PoP policy and on one with 1,000 per-PoP policies
whose match is the last in priority order (the worst case for a linear
scan), and persists ``BENCH_policy_index.json`` whose ``flat_ratio`` =
cost(1) / cost(1,000) the CI perf gate (``benchmarks/perf_gate.py``) pins
with a 0.5 floor: 1,000 policies may cost at most twice one.  It also
records what a write costs at 1,000 policies (``remove`` + ``add`` + the
first ``evaluate``, which rebuilds the index), so an index that makes
writes expensive shows.  Both arms run back to back with the same
best-of-``REPEATS`` harness; only the ratio is gated.
"""

import random
import time

from repro.analysis.reporting import TextTable
from repro.core.policy import Policy, PolicyAttributes, PolicyEngine
from repro.core.pool import AddressPool
from repro.netsim.addr import parse_prefix

MANY = 1000
EVALS = 20_000
WRITES = 200
REPEATS = 5  # best-of, absorbing warm-up and scheduler noise
POOL = AddressPool(parse_prefix("192.0.2.0/24"), name="bench")


def _engine(n_policies: int) -> tuple[PolicyEngine, Policy]:
    engine = PolicyEngine(random.Random(0))
    for i in range(n_policies):
        policy = Policy(f"pop-{i:04d}", POOL, match={"pop": {f"pop-{i:04d}"}}, priority=i)
        engine.add(policy)
    return engine, policy


def _best_us(fn, n_items: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best / n_items * 1e6


def _evaluate_us(engine: PolicyEngine, attrs: PolicyAttributes) -> float:
    evaluate = engine.evaluate

    def run():
        for _ in range(EVALS):
            evaluate(attrs)

    return _best_us(run, EVALS)


def test_policy_evaluation_is_flat(save_table, save_bench, benchmark):
    one, only = _engine(1)
    many, last = _engine(MANY)
    one_attrs = PolicyAttributes(pop=only.name, account_type="free", family=4)
    many_attrs = PolicyAttributes(pop=last.name, account_type="free", family=4)
    assert one.evaluate(one_attrs).policy is only
    assert many.evaluate(many_attrs).policy is last

    one_us = _evaluate_us(one, one_attrs)
    many_us = _evaluate_us(many, many_attrs)
    flat_ratio = one_us / many_us

    def write():
        for _ in range(WRITES):
            many.remove(last.name)
            many.add(last)
            many.evaluate(many_attrs)

    builds = many.index_builds
    write_us = _best_us(write, WRITES)
    assert many.index_builds - builds == REPEATS * WRITES

    table = TextTable(
        f"Policy evaluation: 1 vs {MANY:,} per-PoP policies (match last)",
        ["arm", "µs/op"],
    )
    table.add_row("evaluate, 1 policy", f"{one_us:.2f}")
    table.add_row(f"evaluate, {MANY:,} policies", f"{many_us:.2f}")
    table.add_row("flat_ratio (cost 1 / cost many)", f"{flat_ratio:.2f}")
    table.add_row(f"remove + add + evaluate, {MANY:,} policies", f"{write_us:.1f}")
    save_table("policy_index", table.render())
    save_bench("policy_index", evaluate_one_us=one_us, evaluate_many_us=many_us,
               flat_ratio=flat_ratio, write_many_us=write_us)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
