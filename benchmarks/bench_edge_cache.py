"""E-edge-cache: warm edge-cache fetch versus a per-request HRW argmax.

``DistributedCache.fetch`` finds a stored key's home node in its
directory; before the directory existed every fetch ran the rendezvous
argmax (``home_node``) over all nodes.  This bench times warm ``fetch``
against a reference loop of ``home_node(key)`` plus ``node.get(key)`` over
the same keys, on one 8-node cache, and persists ``BENCH_edge_cache.json``
whose ``fetch_speedup`` ratio the CI perf gate (``benchmarks/perf_gate.py``)
pins with a 3x floor.  Both arms run back to back with the same
best-of-``REPEATS`` harness, so the ratio is machine-independent while the
absolute rates stay ungated.
"""

import time

from repro.analysis.reporting import TextTable
from repro.edge.cache import DistributedCache
from repro.web.http import Request
from repro.web.origin import OriginPool, OriginServer, fixed_size

N_NODES = 8
N_KEYS = 1024
LOOPS = 8
REPEATS = 3  # best-of, absorbing warm-up and scheduler noise


def _rate(fn, n_items):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return n_items / best


def test_warm_fetch_vs_home_node(save_table, save_bench, benchmark):
    hostnames = {f"site{i}.example.com" for i in range(N_KEYS)}
    origins = OriginPool()
    origins.add(OriginServer("origin", hostnames, fixed_size(1024)))
    cache = DistributedCache(origins)
    for i in range(N_NODES):
        cache.add_node(f"lhr-srv{i:02d}")
    requests = [Request(authority=hostname) for hostname in sorted(hostnames)]
    keys = [(request.authority, request.path) for request in requests]
    for request in requests:  # prime: every later fetch is a hit
        cache.fetch(request)
    nodes = cache.nodes().values()
    primed_misses = sum(node.stats.misses for node in nodes)

    def fetch():
        for _ in range(LOOPS):
            for request in requests:
                cache.fetch(request)

    def reference():
        for _ in range(LOOPS):
            for key in keys:
                cache.home_node(key).get(key)

    fetch_rate = _rate(fetch, LOOPS * N_KEYS)
    reference_rate = _rate(reference, LOOPS * N_KEYS)
    speedup = fetch_rate / reference_rate
    assert sum(node.stats.misses for node in nodes) == primed_misses

    table = TextTable(
        f"Edge cache: warm fetch vs per-request HRW ({N_NODES} nodes, {N_KEYS} keys)",
        ["arm", "fetches/s"],
    )
    table.add_row("fetch (directory)", f"{fetch_rate:,.0f}")
    table.add_row("home_node + get", f"{reference_rate:,.0f}")
    table.add_row("speedup", f"{speedup:.2f}x")
    save_table("edge_cache", table.render())
    save_bench("edge_cache", fetch_per_s=fetch_rate, reference_per_s=reference_rate,
               fetch_speedup=speedup)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
