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


def _hrw_weight(server: str, fh: int) -> int:
    """Combine server identity with the flow hash.  The splitmix64
    avalanche matters: plain FNV of similar server names ("s7"/"s8")
    gives correlated weights that skew the HRW argmax."""
    return splitmix64(fnv1a64(server.encode()) ^ fh)


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

    ``weight_fn`` is injectable (tests use degenerate weights to exercise
    tie handling deterministically); production callers take the default
    :func:`_hrw_weight`.
    """

    def __init__(
        self,
        servers: list[str] | None = None,
        weight_fn: Callable[[str, int], int] = _hrw_weight,
    ) -> None:
        self._servers: list[str] = []
        self._weight = weight_fn
        self.stats = EcmpStats()
        for s in servers or []:
            self.add_server(s)

    # -- membership ---------------------------------------------------------

    def add_server(self, server: str) -> None:
        if server in self._servers:
            raise ValueError(f"server {server!r} already in ECMP group")
        self._servers.append(server)

    def remove_server(self, server: str) -> None:
        """Drop a member; raises :class:`UnknownServerError` if absent.

        A bare ``list.remove`` ValueError leaked here before — opaque to
        callers draining servers during failover, and easy to mistake for
        a bad argument elsewhere.  Stats are untouched either way:
        ``EcmpStats`` is routing history, not membership."""
        try:
            self._servers.remove(server)
        except ValueError:
            raise UnknownServerError(
                f"server {server!r} not in ECMP group "
                f"(members: {', '.join(self._servers) or 'none'})"
            ) from None

    def servers(self) -> list[str]:
        return list(self._servers)

    def __len__(self) -> int:
        return len(self._servers)

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
        if not self._servers:
            raise RuntimeError("ECMP group is empty")
        weight = self._weight
        return max(self._servers, key=lambda s: (weight(s, flow_hash_value), s))

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
