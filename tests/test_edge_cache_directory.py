"""The edge cache's home-node directory against a directory-free reference.

``DistributedCache.fetch`` remembers each stored key's home node so warm
requests skip the HRW argmax.  The reference below is the serve path
without that memory: ``home_node`` on every fetch.  Random interleavings of
fetches (hits, misses, uncacheably large objects, unknown hosts), LRU
evictions under tiny nodes, direct puts on arbitrary nodes, and membership
churn (including re-adding a removed name) must leave both caches serving
the same responses with the same per-node stats, and every directory entry
must name the key's current home node and a key that node really stores.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.cache import DistributedCache, UnknownCacheNodeError
from repro.web.http import Request, Response, Status
from repro.web.origin import OriginPool, OriginServer

HOSTS = ("a.example.com", "b.example.com", "c.example.com", "gone.example.com")
PATHS = ("/0", "/1", "/2", "/3", "/big")
NAMES = ("n0", "n1", "n2", "n3", "n4")
CAPACITY = 200


def _size(hostname: str, path: str) -> int:
    if path == "/big":
        return CAPACITY + 1  # never fits a node
    return 40 + 30 * ((len(hostname) + int(path[1:])) % 4)


def _origins() -> OriginPool:
    pool = OriginPool()
    pool.add(OriginServer("o", set(HOSTS[:3]), _size))
    return pool


class ReferenceCache(DistributedCache):
    """The serve path without a directory: HRW argmax on every fetch."""

    def fetch(self, request: Request) -> Response:
        key = (request.authority.lower().rstrip("."), request.path)
        node = self.home_node(key)
        size = node.get(key)
        if size is not None:
            return Response(Status.OK, body_len=size, served_by=node.name, cache_hit=True)
        response = self.origin_gateway.fetch(request)
        if response.status is Status.OK:
            node.put(key, response.body_len)
        return Response(
            response.status, body_len=response.body_len, served_by=node.name, cache_hit=False
        )


def _pair():
    caches = (DistributedCache(_origins(), CAPACITY), ReferenceCache(_origins(), CAPACITY))
    for cache in caches:
        for name in NAMES[:3]:
            cache.add_node(name)
    return caches


def _check_directory(cache: DistributedCache) -> None:
    members = cache.nodes()
    for key, node in cache._directory.items():
        assert members.get(node.name) is node
        assert node is cache.home_node(key)
        assert key in node
    assert cache.directory_size() <= sum(len(n) for n in members.values())


OPS = st.one_of(
    st.tuples(st.just("fetch"), st.sampled_from(HOSTS), st.sampled_from(PATHS)),
    st.tuples(st.just("put"), st.sampled_from(NAMES), st.sampled_from(HOSTS),
              st.sampled_from(PATHS[:4])),
    st.tuples(st.just("add"), st.sampled_from(NAMES)),
    st.tuples(st.just("remove"), st.sampled_from(NAMES)),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(OPS, max_size=80))
def test_directory_matches_reference(ops):
    cache, reference = _pair()
    for op in ops:
        kind, *args = op
        if kind == "fetch":
            request = Request(args[0], args[1])
            assert cache.fetch(request) == reference.fetch(request), op
        elif kind == "put":
            name, host, path = args
            for c in (cache, reference):
                node = c.nodes().get(name)
                if node is not None:
                    node.put((host, path), _size(host, path))
        elif kind == "add":
            if args[0] not in cache.nodes():
                cache.add_node(args[0])
                reference.add_node(args[0])
        elif len(cache.nodes()) > 1 and args[0] in cache.nodes():
            cache.remove_node(args[0])
            reference.remove_node(args[0])
        assert {n: node.stats for n, node in cache.nodes().items()} == {
            n: node.stats for n, node in reference.nodes().items()
        }, op
        _check_directory(cache)


def test_warm_fetch_skips_home_node(monkeypatch):
    cache, _ = _pair()
    cache.fetch(Request("a.example.com", "/0"))
    calls = []
    monkeypatch.setattr(cache, "home_node", lambda key: calls.append(key))
    assert cache.fetch(Request("a.example.com", "/0")).cache_hit
    assert calls == []


def test_remove_unknown_node_raises_descriptive_error():
    cache, _ = _pair()
    cache.fetch(Request("a.example.com", "/0"))
    with pytest.raises(UnknownCacheNodeError) as exc:
        cache.remove_node("zz")
    assert isinstance(exc.value, LookupError)
    assert "zz" in str(exc.value) and "n0, n1, n2" in str(exc.value)
    # The failed remove leaves membership and the directory as they were.
    assert sorted(cache.nodes()) == ["n0", "n1", "n2"]
    assert cache.directory_size() == 1
    assert cache.fetch(Request("a.example.com", "/0")).cache_hit
