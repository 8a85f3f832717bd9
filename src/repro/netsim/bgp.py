"""AS-level BGP substrate: topology, policy routing, RIBs, and LPM lookup.

The paper's §4.3 argues that randomized addressing is transparent to BGP
because "routing succeeds at the granularity of IP prefixes", and §6 builds
route-leak detection on anycast catchments (Figure 9).  Reproducing those
experiments needs an inter-domain routing model with:

* an AS graph annotated with business relationships (provider/customer and
  peer/peer),
* Gao–Rexford route selection and valley-free export filters,
* per-AS RIBs with longest-prefix-match lookup (so a /24 more-specific
  announced for mitigation beats a leaked /20),
* injectable misbehaviour: route leaks (an AS re-exporting a peer- or
  provider-learned route upward) and prefix hijacks.

The propagation algorithm is a work-queue fixpoint over a path-vector
abstraction.  Topologies in this repository are hundreds of ASes, for which
convergence takes milliseconds.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from ..hashing import fnv1a64
from .addr import IPAddress, Prefix

__all__ = [
    "Relationship",
    "ASGraph",
    "GraphConflictError",
    "Route",
    "Announcement",
    "RoutingTable",
    "BGPSimulation",
    "ExportPolicy",
    "GaoRexfordExport",
    "LeakingExport",
]


class GraphConflictError(ValueError):
    """Re-declaring an existing link with a different relationship.

    A silent overwrite here would flip provider/customer economics under an
    already-built topology — precisely the kind of misconfiguration the
    route-leak machinery *injects deliberately* — so accidental rewrites
    must be loud.  Pass ``replace=True`` to :meth:`ASGraph.add_link` when a
    relationship change is intended.
    """


class Relationship(enum.Enum):
    """How I regard a neighbor: they are my CUSTOMER, PEER, or PROVIDER."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"

    @property
    def inverse(self) -> "Relationship":
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER


#: Gao–Rexford local preference: customer routes beat peer routes beat
#: provider routes, because customers pay.
_LOCAL_PREF = {
    Relationship.CUSTOMER: 3,
    Relationship.PEER: 2,
    Relationship.PROVIDER: 1,
}


class ASGraph:
    """An AS-level topology with annotated business relationships.

    AS identifiers are arbitrary hashable labels (ints for real ASNs,
    strings like ``"pop:lhr"`` for virtual PoP nodes in anycast scenarios).
    """

    def __init__(self) -> None:
        self._neighbors: dict[object, dict[object, Relationship]] = {}

    # -- construction ------------------------------------------------------

    def add_as(self, asn: object) -> None:
        self._neighbors.setdefault(asn, {})

    def add_link(
        self,
        a: object,
        b: object,
        rel_of_b_to_a: Relationship,
        replace: bool = False,
    ) -> None:
        """Add a link; ``rel_of_b_to_a`` is what *b is to a*.

        ``add_link(1, 2, Relationship.CUSTOMER)`` means AS 2 is AS 1's
        customer (so AS 1 is AS 2's provider).  Re-declaring an existing
        link with a *different* relationship raises
        :class:`GraphConflictError` unless ``replace=True``.
        """
        if a == b:
            raise ValueError("an AS cannot neighbor itself")
        self.add_as(a)
        self.add_as(b)
        existing = self._neighbors[a].get(b)
        if existing is not None and existing is not rel_of_b_to_a and not replace:
            raise GraphConflictError(
                f"conflicting relationship for link {a}<->{b}: "
                f"{existing.value} -> {rel_of_b_to_a.value} (pass replace=True if intended)"
            )
        self._neighbors[a][b] = rel_of_b_to_a
        self._neighbors[b][a] = rel_of_b_to_a.inverse

    def add_provider(self, asn: object, provider: object) -> None:
        """Declare ``provider`` as a provider of ``asn``."""
        self.add_link(asn, provider, Relationship.PROVIDER)

    def add_peering(self, a: object, b: object) -> None:
        self.add_link(a, b, Relationship.PEER)

    # -- queries -----------------------------------------------------------

    def ases(self) -> Iterator[object]:
        return iter(self._neighbors)

    def __len__(self) -> int:
        return len(self._neighbors)

    def __contains__(self, asn: object) -> bool:
        return asn in self._neighbors

    def neighbors(self, asn: object) -> dict[object, Relationship]:
        return dict(self._neighbors[asn])

    def relationship(self, asn: object, neighbor: object) -> Relationship:
        """What ``neighbor`` is to ``asn``."""
        return self._neighbors[asn][neighbor]

    def customers(self, asn: object) -> list[object]:
        return [n for n, r in self._neighbors[asn].items() if r is Relationship.CUSTOMER]

    def providers(self, asn: object) -> list[object]:
        return [n for n, r in self._neighbors[asn].items() if r is Relationship.PROVIDER]

    def peers(self, asn: object) -> list[object]:
        return [n for n, r in self._neighbors[asn].items() if r is Relationship.PEER]


@dataclass(frozen=True, slots=True)
class Route:
    """One path-vector route as held in an AS's RIB.

    ``as_path[0]`` is the neighbor the route was learned from; the last
    element is the origin.  A locally originated route has an empty path and
    ``learned_from`` of ``None``.
    """

    prefix: Prefix
    origin: object
    as_path: tuple[object, ...]
    learned_from: Relationship | None

    @property
    def path_len(self) -> int:
        return len(self.as_path)

    def local_pref(self) -> int:
        if self.learned_from is None:
            return 4  # our own origination wins over anything learned
        return _LOCAL_PREF[self.learned_from]


def _preference_key(route: Route) -> tuple:
    """Sort key: higher is better (local-pref desc, path length asc, tiebreak).

    The final AS-id string tiebreak stands in for lowest-router-id and keeps
    the simulation deterministic regardless of propagation order.
    """
    next_hop = route.as_path[0] if route.as_path else ""
    return (route.local_pref(), -route.path_len, -_stable_rank(next_hop))


def _stable_rank(label: object) -> float:
    # Deterministic total order across mixed int/str AS labels.
    return hash_to_unit(str(label))


def hash_to_unit(text: str) -> float:
    """Map a string to [0, 1) deterministically (FNV-1a based)."""
    return fnv1a64(text.encode()) / 2**64


class ExportPolicy:
    """Decides whether an AS re-advertises a route to a given neighbor."""

    def allows(
        self,
        graph: ASGraph,
        asn: object,
        route: Route,
        neighbor: object,
    ) -> bool:
        raise NotImplementedError


class GaoRexfordExport(ExportPolicy):
    """Valley-free exporting: customer routes go everywhere; peer- and
    provider-learned routes go only to customers."""

    def allows(self, graph, asn, route, neighbor) -> bool:
        if route.learned_from in (None, Relationship.CUSTOMER):
            return True
        return graph.relationship(asn, neighbor) is Relationship.CUSTOMER


class LeakingExport(ExportPolicy):
    """A misconfigured AS that re-exports routes it should keep to itself.

    Figure 9's incident: AS3 learns the anycasted prefix from a peer (or
    provider) and leaks it to another provider, pulling that provider's
    customer cone toward the wrong PoP.  ``leaked_prefixes`` limits the blast
    radius (real leaks are often a single prefix or config stanza); ``None``
    leaks everything.
    """

    def __init__(self, leaked_prefixes: Iterable[Prefix] | None = None) -> None:
        self._leaked = set(leaked_prefixes) if leaked_prefixes is not None else None
        self._fallback = GaoRexfordExport()

    def allows(self, graph, asn, route, neighbor) -> bool:
        if self._fallback.allows(graph, asn, route, neighbor):
            return True
        return self._leaked is None or route.prefix in self._leaked


@dataclass(frozen=True, slots=True)
class Announcement:
    """A prefix origination: ``origin`` advertises ``prefix`` into BGP."""

    prefix: Prefix
    origin: object


class RoutingTable:
    """One AS's RIB plus longest-prefix-match lookup over it."""

    def __init__(self) -> None:
        self._routes: dict[Prefix, Route] = {}
        # LPM index: lengths present, sorted descending, rebuilt lazily.
        self._lengths: list[int] | None = None

    def best(self, prefix: Prefix) -> Route | None:
        return self._routes.get(prefix)

    def install(self, route: Route) -> bool:
        """Install if better than (or replacing) the current best; returns
        True when the RIB changed."""
        cur = self._routes.get(route.prefix)
        if cur is not None and _preference_key(cur) >= _preference_key(route):
            return False
        self._routes[route.prefix] = route
        self._lengths = None
        return True

    def replace(self, route: Route) -> None:
        """Unconditionally set the best route for ``route.prefix``.

        The event-driven speakers (:mod:`repro.netsim.speakers`) select a
        best path *themselves* over RIB-in and only then publish it here, so
        the install-if-better comparison of :meth:`install` must not second-
        guess them — e.g. after the old best was withdrawn, the replacement
        is legitimately "worse" than what the table last saw.
        """
        self._routes[route.prefix] = route
        self._lengths = None

    def withdraw(self, prefix: Prefix) -> bool:
        if prefix in self._routes:
            del self._routes[prefix]
            self._lengths = None
            return True
        return False

    def prefixes(self) -> list[Prefix]:
        return list(self._routes)

    def lookup(self, address: IPAddress) -> Route | None:
        """Longest-prefix-match forwarding decision for ``address``."""
        if self._lengths is None:
            self._lengths = sorted({p.length for p in self._routes}, reverse=True)
        for length in self._lengths:
            if length > address.bits:
                continue  # a v6-only length cannot match a v4 address
            candidate = Prefix.of(address, length)
            route = self._routes.get(candidate)
            if route is not None:
                return route
        return None

    def __len__(self) -> int:
        return len(self._routes)


class BGPSimulation:
    """Propagate announcements over an :class:`ASGraph` to a fixpoint.

    Usage::

        sim = BGPSimulation(graph)
        sim.announce(Announcement(prefix, origin_asn))
        sim.converge()
        route = sim.rib(client_asn).lookup(address)

    Incremental: further ``announce``/``withdraw`` calls followed by
    ``converge`` update the fixpoint.  Export policies can be overridden
    per-AS (``set_export_policy``) to model leaks.
    """

    #: Instantaneous fixpoint engine: ``converge()`` reaches the final state
    #: in zero simulated time.  The event-driven speakers flip this to True.
    incremental = False

    def __init__(self, graph: ASGraph) -> None:
        self.graph = graph
        self._ribs: dict[object, RoutingTable] = {asn: RoutingTable() for asn in graph.ases()}
        self._policies: dict[object, ExportPolicy] = {}
        self._default_policy: ExportPolicy = GaoRexfordExport()
        self._announcements: list[Announcement] = []
        self._dirty: deque[object] = deque()
        self._dirty_set: set[object] = set()

    # -- configuration -----------------------------------------------------

    def set_export_policy(self, asn: object, policy: ExportPolicy | None) -> None:
        """Override (or with ``None``, reset) one AS's export policy.

        Changing a policy requires re-propagation; callers normally follow
        with :meth:`reconverge_from_scratch` because BGP withdraw dynamics
        are not modelled incrementally here.
        """
        if asn not in self.graph:
            raise KeyError(f"unknown AS {asn!r}")
        if policy is None:
            self._policies.pop(asn, None)
        else:
            self._policies[asn] = policy

    def _policy(self, asn: object) -> ExportPolicy:
        return self._policies.get(asn, self._default_policy)

    def policies(self) -> dict[object, ExportPolicy]:
        """Per-AS export-policy overrides currently in force."""
        return dict(self._policies)

    # -- announcements -----------------------------------------------------

    def announce(self, announcement: Announcement) -> None:
        if announcement.origin not in self.graph:
            raise KeyError(f"unknown origin AS {announcement.origin!r}")
        self._announcements.append(announcement)
        route = Route(announcement.prefix, announcement.origin, (), None)
        if self._ribs[announcement.origin].install(route):
            self._mark_dirty(announcement.origin)

    def withdraw(self, prefix: Prefix, origin: object) -> None:
        """Remove an origination and rebuild the fixpoint.

        Path-vector withdraw dynamics (route hunting) are out of scope; we
        recompute from the surviving announcement set, which yields the same
        final state.
        """
        self._announcements = [
            a for a in self._announcements if not (a.prefix == prefix and a.origin == origin)
        ]
        self.reconverge_from_scratch()

    def reconverge_from_scratch(self) -> None:
        """Clear all RIBs and re-propagate every surviving announcement."""
        self._ribs = {asn: RoutingTable() for asn in self.graph.ases()}
        self._dirty.clear()
        self._dirty_set.clear()
        pending, self._announcements = self._announcements, []
        for ann in pending:
            self.announce(ann)
        self.converge()

    def rebuilt(self, graph: ASGraph) -> "BGPSimulation":
        """A fresh simulation of the same engine flavour over ``graph``.

        Subclasses carrying extra wiring (clock, link profile, tracker)
        override this so topology edits — e.g. attaching a leaker AS —
        preserve the engine configuration.
        """
        return type(self)(graph)

    # -- propagation -------------------------------------------------------

    def _mark_dirty(self, asn: object) -> None:
        if asn not in self._dirty_set:
            self._dirty_set.add(asn)
            self._dirty.append(asn)

    def converge(self, max_iterations: int = 10_000_000) -> int:
        """Run the work-queue to fixpoint; returns processing steps used."""
        steps = 0
        while self._dirty:
            steps += 1
            if steps > max_iterations:
                raise RuntimeError("BGP propagation did not converge")
            asn = self._dirty.popleft()
            self._dirty_set.discard(asn)
            rib = self._ribs[asn]
            policy = self._policy(asn)
            for prefix in rib.prefixes():
                route = rib.best(prefix)
                if route is None:  # pragma: no cover - defensive
                    continue
                for neighbor, rel_of_neighbor in self.graph.neighbors(asn).items():
                    if neighbor in route.as_path or neighbor == route.origin:
                        continue  # loop prevention
                    if not policy.allows(self.graph, asn, route, neighbor):
                        continue
                    advertised = Route(
                        prefix=route.prefix,
                        origin=route.origin,
                        as_path=(asn, *route.as_path),
                        # from the neighbor's perspective, we are the inverse
                        learned_from=rel_of_neighbor.inverse,
                    )
                    if self._ribs[neighbor].install(advertised):
                        self._mark_dirty(neighbor)
        return steps

    # -- lookups -----------------------------------------------------------

    def rib(self, asn: object) -> RoutingTable:
        return self._ribs[asn]

    def best_route(self, asn: object, address: IPAddress) -> Route | None:
        """LPM forwarding decision at ``asn`` for ``address``."""
        return self._ribs[asn].lookup(address)

    def forwarding_path(self, asn: object, address: IPAddress) -> list[object] | None:
        """AS-level path the packet follows, ending at the route's origin.

        Follows the per-hop LPM decision (hops may diverge from the first
        AS's path attribute when more-specifics exist upstream).  Returns
        ``None`` when some hop has no route.
        """
        if asn not in self._ribs:
            return None  # unknown AS: nowhere to forward from
        path = [asn]
        current = asn
        for _ in range(len(self.graph) + 1):
            route = self._ribs[current].lookup(address)
            if route is None:
                return None
            if not route.as_path:  # we are at the origin
                return path
            next_hop = route.as_path[0]
            path.append(next_hop)
            current = next_hop
        raise RuntimeError("forwarding loop detected")  # pragma: no cover

    def catchment(self, address: IPAddress, clients: Iterable[object]) -> dict[object, object]:
        """Map each client AS to the origin its traffic for ``address`` reaches.

        With an anycast prefix (several origins announcing the same prefix)
        this is the anycast catchment; clients with no route map to ``None``.
        """
        result: dict[object, object] = {}
        for client in clients:
            path = self.forwarding_path(client, address)
            result[client] = path[-1] if path else None
        return result
