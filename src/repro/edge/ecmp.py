"""The ECMP ingress router: stateless consistent-hash fan-out to servers.

Figure 6: "An ECMP router with consistent hashing fans connections out to
servers … the datacenter's first-pass stateless load balancer that hashes
packets in a consistent manner to spread connections between servers."

We use rendezvous (highest-random-weight) hashing: every flow hashes each
server with the flow key and picks the maximum.  This gives the two
properties the paper's architecture relies on:

* all packets of a flow reach the same server (no per-flow state), and
* adding/removing a server reshuffles only ~1/n of flows.

§4.3 notes ECMP "exists independently from" the addressing changes — its
hash covers the whole advertised prefix, so which address DNS returned is
irrelevant to fan-out correctness.  Tests assert exactly that.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..hashing import fnv1a64, splitmix64
from ..netsim.packet import Packet
from ..sockets.lookup import flow_hash

__all__ = ["ECMPRouter", "EcmpStats", "UnknownServerError"]


class UnknownServerError(LookupError):
    """Membership change targeting a server this ECMP group never had."""


def _server_seed(server: str) -> int:
    """A server's half of its HRW weight: depends on the name alone, so
    the router computes it once per membership change, not per flow."""
    return fnv1a64(server.encode())


def _hrw_weight(server: str, fh: int) -> int:
    """Combine server identity with the flow hash.  The splitmix64
    avalanche matters: plain FNV of similar server names ("s7"/"s8")
    gives correlated weights that skew the HRW argmax."""
    return splitmix64(_server_seed(server) ^ fh)


@dataclass(slots=True)
class EcmpStats:
    routed: int = 0
    per_server: dict[str, int] = field(default_factory=dict)

    def fold(self, choices: Sequence[str]) -> None:
        """Fold routing decisions in at once — the hot loop makes
        stateless picks and accounting happens per batch, not per
        packet; :meth:`ECMPRouter.route` folds a batch of one."""
        self.routed += len(choices)
        per_server = self.per_server
        for server, n in Counter(choices).items():
            per_server[server] = per_server.get(server, 0) + n


class ECMPRouter:
    """Rendezvous-hash router over a named server set.

    A server's weight for a flow is ``splitmix64(seed ^ flow_hash)``
    (:func:`_hrw_weight`); each seed is computed once, when the server
    joins, so a pick hashes no names.  ``seed_fn`` is injectable (tests use
    degenerate seeds to make every flow a tie); production callers take
    the default :func:`_server_seed`.
    """

    def __init__(
        self,
        servers: list[str] | None = None,
        seed_fn: Callable[[str], int] = _server_seed,
    ) -> None:
        #: server -> seed, in the order members joined.
        self._seeds: dict[str, int] = {}
        self._seed_fn = seed_fn
        self.stats = EcmpStats()
        for s in servers or []:
            self.add_server(s)

    # -- membership ---------------------------------------------------------

    def add_server(self, server: str) -> None:
        if server in self._seeds:
            raise ValueError(f"server {server!r} already in ECMP group")
        self._seeds[server] = self._seed_fn(server)

    def remove_server(self, server: str) -> None:
        """Drop a member; raises :class:`UnknownServerError` if absent.

        A bare ``list.remove`` ValueError leaked here before — opaque to
        callers draining servers during failover, and easy to mistake for
        a bad argument elsewhere.  Stats are untouched either way:
        ``EcmpStats`` is routing history, not membership."""
        if server not in self._seeds:
            raise UnknownServerError(
                f"server {server!r} not in ECMP group "
                f"(members: {', '.join(self._seeds) or 'none'})"
            )
        del self._seeds[server]

    def servers(self) -> list[str]:
        return list(self._seeds)

    def __len__(self) -> int:
        return len(self._seeds)

    # -- routing -------------------------------------------------------------

    def choose(self, flow_hash_value: int) -> str:
        """The stateless HRW pick for one flow hash — no stats recorded.

        Batch drivers call this per flow and fold accounting once per
        batch (:meth:`EcmpStats.fold`); :meth:`route` composes pick and
        fold for one packet.

        Weight ties break on the server *name*, never on list position:
        HRW's minimal-remap guarantee is a property of the (server, flow)
        weights alone, and a position-dependent tie-break silently
        reintroduced membership-order sensitivity — a remove-then-re-add
        (drain and restore, in failover terms) would reshuffle tied flows
        that should have stayed put.
        """
        if not self._seeds:
            raise RuntimeError("ECMP group is empty")
        return max(
            (splitmix64(seed ^ flow_hash_value), server)
            for server, seed in self._seeds.items()
        )[1]

    def route(self, packet: Packet, flow_hash_value: int | None = None) -> str:
        """Pick the server for a packet's flow; deterministic per 5-tuple.

        ``flow_hash_value`` reuses a hash the ingress pipeline already
        computed — the hot path hashes each packet exactly once.  Counts
        through :meth:`EcmpStats.fold`, the accounting batch callers use.
        """
        fh = flow_hash(packet) if flow_hash_value is None else flow_hash_value
        chosen = self.choose(fh)
        self.stats.fold((chosen,))
        return chosen
