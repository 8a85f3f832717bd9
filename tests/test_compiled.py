"""Differential property suite: compiled dispatch ≡ the rule interpreter.

The compiled engine (:mod:`repro.sockets.compiled`) must be *semantically
invisible*: for any program and any packet, verdict, chosen socket, and
program stats match the rule-by-rule interpreter exactly — including the
kernel contracts that first match wins, DROP short-circuits, and a
redirect through an empty or stale map slot falls through to the next
matching rule.  Seeded fuzz holds that over 1000 random program/packet
cases; targeted tests pin each contract individually, plus the
compile-cache invalidation rules and the batch path's accounting.
"""

import random

import pytest

from repro.netsim.addr import IPAddress, Prefix, parse_address, parse_prefix
from repro.netsim.packet import FiveTuple, Packet, Protocol
from repro.sockets.compiled import CompiledProgram
from repro.sockets.lookup import Engine, LookupPath, LookupStage
from repro.sockets.sklookup import MatchRule, SkLookupProgram, SockArray, Verdict
from repro.sockets.socktable import SocketTable

POOL = parse_prefix("192.0.2.0/24")
INTERNAL = parse_address("198.18.0.1")


def packet(dst="192.0.2.77", dport=80, proto=Protocol.TCP, sport=40000):
    return Packet(
        FiveTuple(proto, parse_address("198.51.100.9"), sport, parse_address(dst), dport),
        syn=True,
    )


def make_listeners(table: SocketTable, n: int, protocol=Protocol.TCP):
    base = parse_address("198.18.0.1").value
    return [
        table.bind_listen(protocol, IPAddress.v4(base + i), 80, owner="svc")
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Seeded differential fuzz


def random_rule(rng: random.Random, map_size: int) -> MatchRule:
    """A verifier-clean random rule over a small, collision-rich space."""
    proto = rng.choice([Protocol.TCP, Protocol.UDP, None])
    # Narrow port space so random packets actually hit the ranges.
    port_lo = rng.randrange(1, 100)
    port_hi = min(0xFFFF, port_lo + rng.choice([0, 0, 1, 10, 65534]))
    prefixes: tuple[Prefix, ...] = ()
    if rng.random() < 0.85:  # else: unconstrained "always" rule
        prefixes = tuple(
            Prefix.of(
                IPAddress.v4((10 << 24) | (rng.randrange(4) << 16)
                             | (rng.randrange(4) << 8) | rng.randrange(8)),
                rng.choice([8, 16, 24, 29, 32]),
            )
            for _ in range(rng.randrange(1, 4))
        )
    roll = rng.random()
    if roll < 0.15:
        return MatchRule(Verdict.DROP, proto, prefixes, port_lo, port_hi)
    if roll < 0.25:
        return MatchRule(Verdict.PASS, proto, prefixes, port_lo, port_hi)  # pass-through
    return MatchRule(Verdict.PASS, proto, prefixes, port_lo, port_hi,
                     map_key=rng.randrange(map_size))


def random_packet(rng: random.Random) -> Packet:
    dst = IPAddress.v4((10 << 24) | (rng.randrange(4) << 16)
                       | (rng.randrange(4) << 8) | rng.randrange(8))
    return Packet(FiveTuple(
        rng.choice([Protocol.TCP, Protocol.UDP]),
        parse_address("198.51.100.9"),
        1024 + rng.randrange(60000),
        dst,
        rng.randrange(1, 130),  # past the rule port space, to cover misses
    ), syn=True)


def build_twin_programs(rng: random.Random):
    """Two programs with identical rules and one shared sock array —
    separate stats dicts, so engine-for-engine counter equality is real."""
    table = SocketTable()
    listeners = make_listeners(table, 4)
    sock_map = SockArray(6)  # slots 4/5 stay empty: redirects fall through
    for i, sock in enumerate(listeners):
        sock_map.update(i, sock)
    if rng.random() < 0.3:  # sometimes a stale slot too
        table.close(listeners[0])
    rules = [random_rule(rng, map_size=6) for _ in range(rng.randrange(1, 10))]
    interp = SkLookupProgram("interp", sock_map, list(rules))
    source = SkLookupProgram("compiled", sock_map, list(rules))
    return interp, CompiledProgram(source), source


def test_differential_fuzz_1000_cases():
    """Verdict, socket, and stats equality over 1000 seeded cases."""
    for seed in range(1000):
        rng = random.Random(seed)
        interp, compiled, source = build_twin_programs(rng)
        for i in range(12):
            pkt = random_packet(rng)
            vi, si = interp.run(pkt)
            vc, sc = compiled.run(pkt)
            assert (vi, si) == (vc, sc), (
                f"seed={seed} pkt#{i} {pkt.tuple5}: "
                f"interpreter={(vi, si)} compiled={(vc, sc)}"
            )
        # Same rules, same packets ⇒ identical counters (compiles aside).
        want = dict(interp.stats, compiles=source.stats["compiles"])
        assert source.stats == want, f"seed={seed}: stats diverged"


def test_differential_multi_program_attach_order():
    """Both engines agree through the full LookupPath pipeline, including
    multi-program first-responder semantics, over seeded traffic."""
    rng = random.Random(4242)
    table_i, table_c = SocketTable(), SocketTable()
    paths = (LookupPath(table_i, engine=Engine.INTERPRETER),
             LookupPath(table_c, engine=Engine.COMPILED))
    for table, path in zip((table_i, table_c), paths):
        listeners = make_listeners(table, 4)
        for p in range(3):
            sock_map = SockArray(6)
            for i, sock in enumerate(listeners):
                sock_map.update(i, sock)
            prog_rng = random.Random(1000 + p)
            path.attach(SkLookupProgram(
                f"p{p}", sock_map,
                [random_rule(prog_rng, 6) for _ in range(5)],
            ))
    for _ in range(500):
        pkt = random_packet(rng)
        ri = paths[0].dispatch(pkt, deliver=False)
        rc = paths[1].dispatch(pkt, deliver=False)
        assert ri.stage is rc.stage
        # Sockets live in twin tables; compare by bound address identity.
        ai = ri.socket.local_addr if ri.socket else None
        ac = rc.socket.local_addr if rc.socket else None
        assert ai == ac
    assert paths[0].stage_counts == paths[1].stage_counts


# ---------------------------------------------------------------------------
# Pinned contracts


class TestCompiledContracts:
    def test_first_matching_rule_wins(self):
        table = SocketTable()
        first, second = make_listeners(table, 2)
        arr = SockArray(2)
        arr.update(0, first)
        arr.update(1, second)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=1),
        ])
        _, sock = prog.compiled().run(packet())
        assert sock is first

    def test_drop_short_circuits_later_redirect(self):
        table = SocketTable()
        (listener,) = make_listeners(table, 1)
        arr = SockArray(1)
        arr.update(0, listener)
        prog = SkLookupProgram("guard", arr, [
            MatchRule(Verdict.DROP, Protocol.TCP, (POOL,), 80, 80),
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
        ])
        verdict, sock = prog.compiled().run(packet())
        assert verdict is Verdict.DROP and sock is None
        assert prog.stats["drops"] == 1 and prog.stats["redirects"] == 0

    def test_empty_and_stale_slots_fall_through(self):
        table = SocketTable()
        doomed, alive = make_listeners(table, 2)
        arr = SockArray(3)
        arr.update(1, doomed)
        arr.update(2, alive)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),  # empty
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=1),  # goes stale
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=2),
        ])
        compiled = prog.compiled()
        table.close(doomed)
        _, sock = compiled.run(packet())
        assert sock is alive
        assert prog.stats["fallthroughs"] == 2

    def test_explicit_passthrough_stops_evaluation(self):
        table = SocketTable()
        (listener,) = make_listeners(table, 1)
        arr = SockArray(1)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80),
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
        ])
        verdict, sock = prog.compiled().run(packet())
        assert verdict is Verdict.PASS and sock is None

    def test_rule_with_prefixes_at_two_mask_lengths_matches_once(self):
        """A packet covered by the same rule through two prefix groups must
        not act (or fall through) twice."""
        arr = SockArray(1)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP,
                      (parse_prefix("192.0.2.0/24"), parse_prefix("192.0.0.0/16")),
                      80, 80, map_key=0),  # slot empty → one fallthrough
        ])
        verdict, sock = prog.compiled().run(packet())
        assert verdict is Verdict.PASS and sock is None
        assert prog.stats["fallthroughs"] == 1

    def test_quic_matches_udp_rules(self):
        table = SocketTable()
        udp_listener = table.bind_listen(Protocol.UDP, INTERNAL, 443, owner="quic")
        arr = SockArray(1)
        arr.update(0, udp_listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.UDP, (POOL,), 443, 443, map_key=0),
        ])
        _, sock = prog.compiled().run(packet(dport=443, proto=Protocol.QUIC))
        assert sock is udp_listener


# ---------------------------------------------------------------------------
# Cache invalidation


class TestCompileCache:
    def make_program(self):
        table = SocketTable()
        first, second = make_listeners(table, 2)
        arr = SockArray(2)
        arr.update(0, first)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0, label="pool"),
        ])
        return table, prog, first, second

    def test_compiled_form_is_cached(self):
        _, prog, *_ = self.make_program()
        assert prog.compiled() is prog.compiled()
        assert prog.stats["compiles"] == 1

    def test_add_rule_invalidates(self):
        _, prog, *_ = self.make_program()
        stale = prog.compiled()
        prog.add_rule(MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 443, 443, map_key=0))
        fresh = prog.compiled()
        assert fresh is not stale and fresh.version > stale.version
        assert prog.stats["compiles"] == 2
        _, sock = fresh.run(packet(dport=443))
        assert sock is not None  # new rule live in the fresh form

    def test_remove_rules_invalidates(self):
        _, prog, *_ = self.make_program()
        stale = prog.compiled()
        assert prog.remove_rules("pool") == 1
        fresh = prog.compiled()
        assert fresh is not stale
        _, sock = fresh.run(packet())
        assert sock is None

    def test_remove_rules_no_match_does_not_invalidate(self):
        _, prog, *_ = self.make_program()
        before = prog.compiled()
        assert prog.remove_rules("no-such-label") == 0
        assert prog.compiled() is before

    def test_map_update_needs_no_recompile(self):
        """§3.3 live re-pointing: map writes flow through the shared sock
        array; only *rule* changes recompile."""
        _, prog, first, second = self.make_program()
        compiled = prog.compiled()
        _, before = compiled.run(packet())
        prog.map.update(0, second)
        _, after = compiled.run(packet(sport=40001))
        assert before is first and after is second
        assert prog.stats["compiles"] == 1

    def test_lookup_path_follows_program_swap(self):
        """Crash/restore replaces the attached program object; the compiled
        path must pick up the successor's rules, not a stale form."""
        table, prog, first, second = self.make_program()
        path = LookupPath(table, engine=Engine.COMPILED)
        path.attach(prog)
        assert path.dispatch(packet(), deliver=False).socket is first
        path.detach(prog)
        arr = SockArray(1)
        arr.update(0, second)
        path.attach(SkLookupProgram("p2", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
        ]))
        assert path.dispatch(packet(sport=40001), deliver=False).socket is second


# ---------------------------------------------------------------------------
# Batch dispatch


class TestDispatchBatch:
    def build_path(self, engine=Engine.COMPILED):
        table = SocketTable()
        (listener,) = make_listeners(table, 1)
        arr = SockArray(1)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
            MatchRule(Verdict.DROP, Protocol.TCP, (parse_prefix("192.0.9.0/24"),), 1, 65535),
        ])
        path = LookupPath(table, engine=engine)
        path.attach(prog)
        return path, listener

    def batch(self):
        rng = random.Random(11)
        packets = []
        for _ in range(200):
            dst = rng.choice(["192.0.2.7", "192.0.9.1", "203.0.113.5"])
            packets.append(packet(dst=dst, sport=1024 + rng.randrange(60000)))
        return packets

    def test_batch_equals_per_packet_dispatch(self):
        single, _ = self.build_path()
        batched, _ = self.build_path()
        packets = self.batch()
        expected = [single.dispatch(p, deliver=False) for p in packets]
        got = batched.dispatch_batch(packets, deliver=False)
        assert [r.stage for r in got] == [r.stage for r in expected]
        assert single.stage_counts == batched.stage_counts

    def test_stage_counts_invariant(self):
        """One packet, one stage tick: Σ stage_counts == packets dispatched,
        however the packets were fed in.  A scalar dispatch is a batch of
        one, so every dispatch call counts as a batch."""
        path, _ = self.build_path()
        packets = self.batch()
        path.dispatch_batch(packets[:150], deliver=False)
        for p in packets[150:]:
            path.dispatch(p, deliver=False)
        assert sum(path.stage_counts.values()) == len(packets)
        assert path.batches == 1 + len(packets[150:])
        assert path.batch_packets == len(packets)

    def test_batch_delivers(self):
        path, listener = self.build_path()
        hits = [packet(sport=50000 + i) for i in range(10)]
        path.dispatch_batch(hits)
        assert listener.enqueued == 10

    def test_batch_with_precomputed_flow_hashes(self):
        from repro.sockets.lookup import flow_hash
        table = SocketTable()
        table.bind_listen(Protocol.TCP, parse_address("192.0.2.5"), 80)
        path = LookupPath(table)
        packets = [packet(dst="192.0.2.5", sport=45000 + i) for i in range(20)]
        results = path.dispatch_batch(
            packets, deliver=False, flow_hashes=[flow_hash(p) for p in packets]
        )
        assert all(r.stage is LookupStage.LISTENER for r in results)

    def test_interpreter_engine_batch_parity(self):
        compiled, _ = self.build_path(Engine.COMPILED)
        interp, _ = self.build_path(Engine.INTERPRETER)
        packets = self.batch()
        rc = compiled.dispatch_batch(packets, deliver=False)
        ri = interp.dispatch_batch(packets, deliver=False)
        assert [r.stage for r in rc] == [r.stage for r in ri]

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            LookupPath(SocketTable(), engine="jit")
