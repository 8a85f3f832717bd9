"""Golden vectors for every hash the simulator routes, binds or seeds by.

The other suites check that a hash is stable within one run and that the
numpy backend agrees with the Python one.  These pin the values
themselves: ECMP fan-out, listener selection, edge-cache home nodes,
hashed and per-PoP address bindings and BGP tiebreaks all key on them,
so a refactor of the hash code that changed one bit would silently move
flows, cache keys and addresses.  The expected values were captured from
the hand-inlined implementations each call site used to carry.
"""

import random

import pytest

from repro.core.pool import AddressPool
from repro.core.strategies import HashedAssignment, PerPopAssignment, SelectionContext
from repro.edge.cache import DistributedCache, _hrw
from repro.edge.ecmp import ECMPRouter, _hrw_weight
from repro.hashing import fnv1a64, stable_hash
from repro.netsim.addr import IPAddress, parse_prefix
from repro.netsim.bgp import hash_to_unit
from repro.netsim.packet import FiveTuple, Protocol
from repro.sockets.lookup import flow_hash_tuple
from repro.web.origin import OriginPool


def _tuple(proto, src, sport, dst, dport):
    return FiveTuple(proto, IPAddress.from_text(src), sport, IPAddress.from_text(dst), dport)


#: IPv4 TCP and UDP, then two IPv6 tuples that differ only above bit 64 of
#: the destination: their hashes differ, which pins the high-64-bit fold.
TUPLES = [
    (_tuple(Protocol.TCP, "198.51.100.7", 40000, "192.0.2.1", 443), 0xB34DDBB17636BFCE),
    (_tuple(Protocol.UDP, "10.0.0.1", 53, "192.0.2.255", 5353), 0x911B7A6A4C0CB036),
    (_tuple(Protocol.TCP, "2001:db8::1", 40000, "2001:db8:ffff::abcd", 443),
     0x6691D8FCC2DD8914),
    (_tuple(Protocol.TCP, "2001:db8::1", 40000, "2001:db9:ffff::abcd", 443),
     0x61A9DA51C2DD8914),
]

POOL = AddressPool(parse_prefix("192.0.2.0/24"))


class TestFnv:
    @pytest.mark.parametrize("data, expected", [
        (b"", 0xCBF29CE484222325),
        (b"a", 0xAF63DC4C8601EC8C),
        (b"foobar", 0x85944171F73967E8),
        (bytes(range(256)), 0x4242DC5249C33625),
    ])
    def test_fnv1a64(self, data, expected):
        assert fnv1a64(data) == expected

    @pytest.mark.parametrize("parts, expected", [
        ((), 0xCBF29CE484222325),
        (("1",), 0xA47010A89FFED940),
        ((1,), 0xDEC4A66DF1BEFAD4),
        (("dc-ingress", "lhr"), 0x5F31E2AE65F64F42),
        ((1.5, True, None), 0xB90ED571B7ABBEBE),
    ])
    def test_stable_hash(self, parts, expected):
        assert stable_hash(*parts) == expected


class TestEdgeCacheHrw:
    @pytest.mark.parametrize("node, key, expected", [
        ("lhr-srv00", ("example.com", "/"), 0xD1B53ADF2A800A90),
        ("lhr-srv07", ("www.example.com", "/index.html"), 0x254BAF0D1AA2EA99),
        ("", ("", ""), 0x344709B9C514FF0F),
    ])
    def test_hrw(self, node, key, expected):
        assert _hrw(node, key) == expected

    def test_home_node_on_eight_node_ring(self):
        cache = DistributedCache(OriginPool())
        for i in range(8):
            cache.add_node(f"lhr-srv{i:02d}")
        keys = [(f"site{i}.example.com", f"/p{i % 3}") for i in range(12)]
        homes = [cache.home_node(key).name for key in keys]
        assert homes == [
            "lhr-srv01", "lhr-srv02", "lhr-srv00", "lhr-srv00", "lhr-srv06", "lhr-srv03",
            "lhr-srv02", "lhr-srv00", "lhr-srv07", "lhr-srv07", "lhr-srv04", "lhr-srv00",
        ]


class TestEcmpHrw:
    @pytest.mark.parametrize("server, fh, expected", [
        ("s7", 0, 0xCFFEEF8E204F1820),
        ("s8", 0, 0xB2DB336ED38B27EA),
        ("lhr-srv03", 0xDEADBEEFCAFEBABE, 0x4785F5FB26173DB7),
        ("", 2**64 - 1, 0x30EF66C3E79DDA4E),
    ])
    def test_hrw_weight(self, server, fh, expected):
        assert _hrw_weight(server, fh) == expected

    def test_choose(self):
        router = ECMPRouter([f"s{i}" for i in range(8)])
        hashes = (0, 1, 0xDEADBEEFCAFEBABE, 2**64 - 1, 12345678901234567)
        assert [router.choose(fh) for fh in hashes] == ["s2", "s7", "s4", "s0", "s6"]


class TestFlowHash:
    @pytest.mark.parametrize("tuple5, expected", TUPLES)
    def test_flow_hash_tuple(self, tuple5, expected):
        assert flow_hash_tuple(tuple5) == expected

    def test_numpy_backend_matches_python_backend(self):
        pytest.importorskip("numpy")
        from repro.flow.backend import NumpyHashBackend, PythonHashBackend

        tuple5s = [t for t, _ in TUPLES]
        expected = [h for _, h in TUPLES]
        assert PythonHashBackend().hash_tuples(tuple5s) == expected
        assert NumpyHashBackend().hash_tuples(tuple5s) == expected


class TestStrategies:
    def test_hashed_assignment(self):
        strategy = HashedAssignment()
        got = [
            str(strategy.select(POOL, SelectionContext(hostname=name, pop="x"),
                                random.Random(0)))
            for name in ("example.com", "WWW.Example.COM.", "a.b.c")
        ]
        assert got == ["192.0.2.198", "192.0.2.107", "192.0.2.127"]

    def test_per_pop_assignment_overflow_slots(self):
        strategy = PerPopAssignment(["lhr", "ams", "sfo"])
        got = [
            str(strategy.address_for_pop(POOL, pop))
            for pop in ("lhr", "sfo", "nrt", "syd", "jnb")
        ]
        # Known PoPs take slots 0..2; unknown ones hash into the overflow.
        assert got == ["192.0.2.0", "192.0.2.2", "192.0.2.86", "192.0.2.231", "192.0.2.39"]


class TestBgp:
    @pytest.mark.parametrize("text, expected", [
        ("", 0.7966707284832713),
        ("AS1", 0.9781737387244407),
        ("65000", 0.2509229491909846),
        ("13335", 0.34205940709706717),
    ])
    def test_hash_to_unit(self, text, expected):
        assert hash_to_unit(text) == expected
