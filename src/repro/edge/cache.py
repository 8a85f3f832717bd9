"""The distributed edge cache: every server participates (Figure 6).

§4.3: "Our architecture and its addressing are isolated from cache
systems … every server participates in the distributed cache.  Both
internal addressing schemes, and distributed filesystems are untouched."

That isolation is a checkable property: the cache keys on *content
identity* — (hostname, path) — never on the connection's destination
address, so hit rates are identical under static, randomized, or
one-address policies.  Tests drive the same request stream through
different addressing policies and assert byte-identical cache behaviour.

Structure: a rendezvous-hash ring assigns each key a home node among the
datacenter's servers; each node runs an LRU store.  Misses fetch through
the origin gateway.  A directory remembers the home node of every key the
cache holds, so the HRW argmax runs once per key per membership, not once
per request.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from ..hashing import fnv1a64, splitmix64
from ..web.http import Request, Response, Status
from ..web.origin import OriginPool

__all__ = ["CacheNode", "DistributedCache", "CacheNodeStats", "UnknownCacheNodeError"]


class UnknownCacheNodeError(LookupError):
    """Membership change targeting a cache node this cache never had."""


@dataclass(slots=True)
class CacheNodeStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_stored: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CacheNode:
    """One server's LRU slice of the distributed cache.

    ``on_evict(node, key)`` runs for every key the LRU pushes out; the
    owning :class:`DistributedCache` uses it to keep its directory in step.
    """

    def __init__(
        self,
        name: str,
        capacity_bytes: int = 1 << 30,
        on_evict: Callable[[CacheNode, tuple[str, str]], None] | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.stats = CacheNodeStats()
        self._store: OrderedDict[tuple[str, str], int] = OrderedDict()
        self._on_evict = on_evict

    def get(self, key: tuple[str, str]) -> int | None:
        size = self._store.get(key)
        if size is None:
            self.stats.misses += 1
            return None
        self._store.move_to_end(key)
        self.stats.hits += 1
        return size

    def put(self, key: tuple[str, str], size: int) -> None:
        if size > self.capacity_bytes:
            return  # uncacheably large object
        if key in self._store:
            self.stats.bytes_stored -= self._store.pop(key)
        while self.stats.bytes_stored + size > self.capacity_bytes and self._store:
            evicted_key, evicted = self._store.popitem(last=False)
            self.stats.bytes_stored -= evicted
            self.stats.evictions += 1
            if self._on_evict is not None:
                self._on_evict(self, evicted_key)
        self._store[key] = size
        self.stats.bytes_stored += size

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)


def _hrw(node: str, key: tuple[str, str]) -> int:
    """Rendezvous weight of ``node`` for ``key``: FNV-1a over the three
    fields, each closed by a 0xFF byte (never valid UTF-8, so the fields
    cannot run together), then the splitmix64 avalanche so similar node
    names do not correlate weights."""
    fields = b"%s\xff%s\xff%s\xff" % (node.encode(), key[0].encode(), key[1].encode())
    return splitmix64(fnv1a64(fields))


class DistributedCache:
    """The datacenter-wide cache: HRW home-node selection over LRU nodes.

    The directory maps each key the cache holds to its home node, so a
    warm fetch is one dict lookup instead of an HRW argmax over every
    node.  An entry is written when :meth:`fetch` finds or fills a key on
    its home node, dropped when that node's LRU evicts the key, and the
    whole directory is cleared on any membership change (a new node can
    win some keys; a removed one takes its keys with it).  It is thus
    bounded by what the nodes already store and always agrees with
    :meth:`home_node`.
    """

    def __init__(self, origin_gateway: OriginPool, node_capacity_bytes: int = 1 << 30) -> None:
        self.origin_gateway = origin_gateway
        self.node_capacity_bytes = node_capacity_bytes
        self._nodes: dict[str, CacheNode] = {}
        self._directory: dict[tuple[str, str], CacheNode] = {}

    # -- membership ----------------------------------------------------------

    def add_node(self, name: str) -> CacheNode:
        if name in self._nodes:
            raise ValueError(f"cache node {name!r} already present")
        node = CacheNode(name, self.node_capacity_bytes, on_evict=self._forget)
        self._nodes[name] = node
        self._directory.clear()
        return node

    def remove_node(self, name: str) -> None:
        """Drop a member; raises :class:`UnknownCacheNodeError` if absent,
        leaving membership and the directory as they were."""
        if name not in self._nodes:
            raise UnknownCacheNodeError(
                f"cache node {name!r} not in distributed cache "
                f"(members: {', '.join(self._nodes) or 'none'})"
            )
        del self._nodes[name]
        self._directory.clear()

    def nodes(self) -> dict[str, CacheNode]:
        return dict(self._nodes)

    def home_node(self, key: tuple[str, str]) -> CacheNode:
        if not self._nodes:
            raise RuntimeError("distributed cache has no nodes")
        name = max(self._nodes, key=lambda n: _hrw(n, key))
        return self._nodes[name]

    def directory_size(self) -> int:
        """Keys whose home node the directory remembers."""
        return len(self._directory)

    def _forget(self, node: CacheNode, key: tuple[str, str]) -> None:
        if self._directory.get(key) is node:
            del self._directory[key]

    # -- the serve path ---------------------------------------------------------

    def fetch(self, request: Request) -> Response:
        """Serve a request through the cache; fills from origin on miss.

        Note the key: content identity only.  The caller's connection,
        destination address, and addressing policy are invisible here —
        the §4.3 isolation property.
        """
        key = (request.authority.lower().rstrip("."), request.path)
        directory = self._directory
        node = directory.get(key)
        if node is None:
            node = self.home_node(key)
        size = node.get(key)
        if size is not None:
            directory[key] = node
            return Response(Status.OK, body_len=size, served_by=node.name, cache_hit=True)
        response = self.origin_gateway.fetch(request)
        if response.status is Status.OK:
            node.put(key, response.body_len)
            if key in node:  # an object larger than the node is not stored
                directory[key] = node
        return Response(
            response.status,
            body_len=response.body_len,
            served_by=node.name,
            cache_hit=False,
        )

    # -- aggregate stats -----------------------------------------------------

    def total_hit_rate(self) -> float:
        hits = sum(n.stats.hits for n in self._nodes.values())
        misses = sum(n.stats.misses for n in self._nodes.values())
        total = hits + misses
        return hits / total if total else 0.0
