"""The ``dns-wire`` workload: real UDP over loopback against a serve pool.

The load generator is this one process, with one UDP socket open at a
time: one per phase, and one per pool start for the pool's first answer.
Queries are pre-encoded once per kind and only the 16-bit ID is rewritten
per send.  Every answer's header is checked (ID, QR, RCODE, TC, ANCOUNT)
and a fixed sample is fully decoded and checked against the demo world:
the ``www`` address lies in the agile prefix and the ``alias`` CNAME chain
ends in it.

Phases, each against its own one-worker pool so the worker's CPU time can
be read per phase from the reaped child's resource usage:

closed loop, 60% of the run
    16 queries in flight on one socket; each answer releases the next
    query.  Gives ``dns_qps``, with the worker's and the generator's CPU
    shares.  Its latencies would only restate the rate (16 / ``dns_qps``,
    by Little's law), so none are taken from it.
ping, 30% of the run
    one query in flight: the next is sent when the answer to the last is
    in, and the generator polls its socket without sleeping.  Gives the
    bounded latencies, from send: ``dns_ping_p50_ms`` and
    ``dns_ping_p99_ms``, the time one query takes through the socket
    path and the worker with no queue in front of it.
open loop, 10% of the run
    queries due at a fixed 2,000 qps whatever the answers do; latency runs
    from when a query was due, so a stall also delays the queries queued
    behind it.  Gives ``dns_p50_ms`` and ``dns_p99_ms``, reported but not
    bounded (host wake-ups and stalls on a shared VM set them), and how
    late the generator sent.

Every phase runs in slices (0.2 s closed and ping, 1 s open).  Between
slices the load pauses until the answers in flight are in, and the
reference loop of :mod:`speed` is timed on the idle worker's CPU; each
slice is scaled by the timings on either side of it.

The traced run adds three in-process phases that push the same query mix
through :meth:`ProtocolCore.datagram` on a fresh demo server, untraced,
traced and untraced again, for the per-layer split and the tracing
overhead.
"""
from __future__ import annotations

import gc
import multiprocessing
import os
import random
import resource
import socket
import statistics
import time
from collections import Counter
from contextlib import contextmanager

from repro.dns.records import RRType
from repro.dns.wire import Message, WireError
from repro.serve import ProtocolCore, build_pool, build_server
from repro.serve.app import AGILE_HOSTNAME, AGILE_PREFIX, ALIAS_HOSTNAME, BIG_HOSTNAME

from common import (Result, cpu_seconds, median_setup, peak_rss_mb, percentile,
                    timed_build)
from layers import SPANS, layer_metrics, probes_per_eval
from speed import REFERENCE_S, pinned, reference_median, reference_seconds
from tracing import Tracer

__all__ = ["run_dns_wire"]

clock = time.perf_counter

WWW, ALIAS, BIG = 0, 1, 2
#: (hostname, type, share in percent) per query kind.
MIX = ((AGILE_HOSTNAME, RRType.A, 90), (ALIAS_HOSTNAME, RRType.A, 8),
       (BIG_HOSTNAME, RRType.TXT, 2))
#: Answer records a correct untruncated answer carries, per kind.
ANCOUNT = {WWW: 1, ALIAS: 2}
IN_FLIGHT = 16
#: Rates and tail latencies are medians over slices of this many seconds.
CLOSED_SLICE_S = 0.2
PING_SLICE_S = 0.2
OPEN_SLICE_S = 1.0
OPEN_RATE_QPS = 2000
#: Fully decode the first answer of each kind and every 64th after it.
SAMPLE_EVERY = 64
TIMEOUT_S = 1.0
SETUP_REPEATS = 15  # pool starts per run; three of them serve the phases
RECV_SIZE = 4096
MIX_LEN = 1 << 16
PROBE_SECONDS = 0.2
#: Shares of --seconds for the closed loop, ping, the open loop and each
#: in-process phase.
SPLIT = (0.6, 0.3, 0.1, 0.0)
TRACE_SPLIT = (0.15, 0.15, 0.1, 0.2)

_decode = Message.decode  # bound before any tracing patches the class


def query_mix(seed: int) -> list[int]:
    """The seeded sequence of query kinds, cycled by sequence number."""
    rng = random.Random(seed)
    return rng.choices(range(len(MIX)), weights=[share for _, _, share in MIX], k=MIX_LEN)


def query_tails() -> list[bytes]:
    """Each kind's encoded query without its 2-byte ID (EDNS-less, so UDP
    answers are capped at 512 bytes and ``big`` comes back TC-flagged)."""
    return [Message.query(0, name, rrtype).encode()[2:] for name, rrtype, _ in MIX]


class AnswerCheck:
    """Checks answers; counts the wrong ones and why."""

    def __init__(self) -> None:
        self.seen = Counter()
        self.decoded = 0
        self.wrong = Counter()

    def check(self, kind: int, data: bytes) -> bool:
        seen = self.seen[kind]
        self.seen[kind] = seen + 1
        if len(data) < 12:
            return self.fail("short")
        flags, rcode = data[2], data[3] & 0x0F
        if not flags & 0x80:
            return self.fail("not a response")
        if rcode:
            return self.fail(f"rcode {rcode}")
        if bool(flags & 0x02) != (kind == BIG):
            return self.fail("TC flag")
        if kind != BIG and int.from_bytes(data[6:8], "big") != ANCOUNT[kind]:
            return self.fail("answer count")
        if seen % SAMPLE_EVERY == 0:
            return self._decode_check(kind, data)
        return True

    def _decode_check(self, kind: int, data: bytes) -> bool:
        self.decoded += 1
        try:
            message = _decode(data)
        except WireError:
            return self.fail("undecodable")
        answers = message.answers
        names = [str(rr.name).rstrip(".").lower() for rr in answers]
        if kind == WWW:
            ok = (names == [AGILE_HOSTNAME] and answers[0].rrtype == RRType.A
                  and answers[0].rdata.address in AGILE_PREFIX)
        elif kind == ALIAS:
            ok = (names == [ALIAS_HOSTNAME, AGILE_HOSTNAME]
                  and answers[0].rrtype == RRType.CNAME
                  and str(answers[0].rdata.target).rstrip(".").lower() == AGILE_HOSTNAME
                  and answers[1].rrtype == RRType.A
                  and answers[1].rdata.address in AGILE_PREFIX)
        else:
            ok = message.flags.tc and all(
                n == BIG_HOSTNAME and rr.rrtype == RRType.TXT
                for n, rr in zip(names, answers)
            )
        return ok or self.fail(f"decoded {MIX[kind][0]} answer")

    def fail(self, why: str) -> bool:
        self.wrong[why] += 1
        return False

    @property
    def wrong_total(self) -> int:
        return sum(self.wrong.values())


class Tally:
    """Per-phase attempt and failure counts."""

    def __init__(self) -> None:
        self.sent = self.answered = self.timeouts = self.mismatched = self.wrong = 0

    @property
    def failed(self) -> int:
        return self.timeouts + self.mismatched + self.wrong

    def answer(self, ok: bool) -> None:
        self.answered += 1
        if not ok:
            self.wrong += 1


def _connect(address: tuple[str, int]) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.connect(address)
    sock.settimeout(TIMEOUT_S)
    return sock


def _start_pool(seed: int, tail: bytes):
    """A started one-worker pool that has answered one query."""
    pool = build_pool(workers=1, seed=seed).start()
    try:
        with _connect(pool.address) as sock:
            for _ in range(20):
                sock.send(b"\x00\x00" + tail)
                try:
                    sock.recv(RECV_SIZE)
                    return pool
                except TimeoutError:
                    continue
        raise RuntimeError(f"serve pool at {pool.address} never answered")
    except BaseException:
        pool.stop()
        raise


@contextmanager
def load_phase(pool):
    """Pin the pool's worker and this generator to different CPUs and hold
    the generator's garbage collector, for one load phase; yields a socket
    connected to ``pool`` and the worker's CPU.  Unpinned, the kernel often runs both on one CPU by
    turns, and a full collection in the generator delays sends by
    milliseconds: either way the generator, not the server, would be what
    gets measured."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        raise RuntimeError("dns-wire needs two CPUs: one for the worker, one for the load")
    for child in multiprocessing.active_children():
        os.sched_setaffinity(child.pid, {cpus[-1]})
    gc.disable()
    try:
        with pinned(cpus[0]), _connect(pool.address) as sock:
            yield sock, cpus[-1]
    finally:
        gc.enable()


def _worker_speed(cpu: int) -> float:
    """The reference loop's time on the worker's CPU."""
    with pinned(cpu):
        return reference_median()


def _scale(refs: list[float]) -> float:
    """Time scale for the stretch between the last two reference timings."""
    return REFERENCE_S / ((refs[-2] + refs[-1]) / 2)


# -- phases ------------------------------------------------------------------------


def _accept(data: bytes, arrived: float, outstanding: dict, tally: Tally,
            check: AnswerCheck, latencies: list[float] | None) -> bool:
    """Match one answer to its query and check it; True when it is right."""
    entry = outstanding.pop(int.from_bytes(data[:2], "big"), None)
    if entry is None:
        tally.mismatched += 1
        return False
    ok = check.check(entry[0], data)
    tally.answer(ok)
    if ok and latencies is not None:
        latencies.append(arrived - entry[1])
    return ok


def _drain(sock, outstanding: dict, tally: Tally, check: AnswerCheck,
           latencies: list[float] | None = None) -> int:
    """Collect the answers still in flight; what never comes is a timeout.
    Returns how many right answers came."""
    ok = 0
    while outstanding:
        try:
            data = sock.recv(RECV_SIZE)
        except TimeoutError:
            break
        ok += _accept(data, clock(), outstanding, tally, check, latencies)
    tally.timeouts += len(outstanding)
    outstanding.clear()
    return ok


class Sender:
    """Rewrites the ID of pre-encoded queries; the kind follows the mix."""

    def __init__(self, sock, tails, mix, tally: Tally, outstanding: dict) -> None:
        self.sock, self.tails, self.mix = sock, tails, mix
        self.tally, self.outstanding = tally, outstanding
        self.seq = 0

    def send(self, due: float) -> None:
        self.seq += 1
        qid = self.seq & 0xFFFF
        kind = self.mix[self.seq % MIX_LEN]
        self.sock.send(qid.to_bytes(2, "big") + self.tails[kind])
        self.outstanding[qid] = (kind, due)
        self.tally.sent += 1


def closed_loop(sock, tails, mix, seconds, check: AnswerCheck, worker_cpu: int):
    """Slices of ``CLOSED_SLICE_S``: keep ``IN_FLIGHT`` queries in flight,
    then let the window empty and time the reference loop on the idle
    worker's CPU.  Returns the tally, per slice the right answers per
    second (raw) and the time scale, and the generator's CPU share."""
    tally = Tally()
    outstanding: dict[int, tuple[int, float]] = {}
    sender = Sender(sock, tails, mix, tally, outstanding)
    slices: list[tuple[float, float]] = []
    refs = [_worker_speed(worker_cpu)]
    cpu0 = cpu_seconds()
    start = clock()
    while clock() - start < seconds:
        slice_start = clock()
        ok = 0
        for _ in range(IN_FLIGHT):
            sender.send(0.0)
        while clock() - slice_start < CLOSED_SLICE_S:
            try:
                data = sock.recv(RECV_SIZE)
            except TimeoutError:
                tally.timeouts += len(outstanding)
                outstanding.clear()
            else:
                ok += _accept(data, 0.0, outstanding, tally, check, None)
            while len(outstanding) < IN_FLIGHT:
                sender.send(0.0)
        ok += _drain(sock, outstanding, tally, check)
        rate = ok / (clock() - slice_start)
        refs.append(_worker_speed(worker_cpu))
        slices.append((rate, _scale(refs)))
    gen_cpu = (cpu_seconds() - cpu0) / (clock() - start)
    return tally, slices, gen_cpu


def ping_loop(sock, tails, mix, seconds, check: AnswerCheck, worker_cpu: int):
    """Slices of ``PING_SLICE_S`` with one query in flight, each followed
    by the reference loop on the idle worker's CPU.  The generator polls
    rather than blocks, so its own wake-ups stay out of the latency.
    Returns the tally and, per slice, the latencies from send and their
    time scale."""
    tally = Tally()
    outstanding: dict[int, tuple[int, float]] = {}
    sender = Sender(sock, tails, mix, tally, outstanding)
    slices: list[tuple[list[float], float]] = []
    refs = [_worker_speed(worker_cpu)]
    sock.setblocking(False)
    start = clock()
    while clock() - start < seconds:
        latencies: list[float] = []
        slice_start = clock()
        while (sent := clock()) - slice_start < PING_SLICE_S:
            sender.send(sent)
            while outstanding:
                try:
                    data = sock.recv(RECV_SIZE)
                except BlockingIOError:
                    if clock() - sent > TIMEOUT_S:
                        tally.timeouts += len(outstanding)
                        outstanding.clear()
                    continue
                _accept(data, clock(), outstanding, tally, check, latencies)
        refs.append(_worker_speed(worker_cpu))
        slices.append((latencies, _scale(refs)))
    sock.settimeout(TIMEOUT_S)
    return tally, slices


def open_loop(sock, tails, mix, seconds, check: AnswerCheck, worker_cpu: int):
    """Slices of ``OPEN_SLICE_S`` at ``OPEN_RATE_QPS``, each followed by
    the reference loop on the idle worker's CPU.  Returns the tally, per
    slice the latencies from due time and their time scale, and the send
    lateness samples (s)."""
    tally = Tally()
    outstanding: dict[int, tuple[int, float]] = {}
    sender = Sender(sock, tails, mix, tally, outstanding)
    slices: list[tuple[list[float], float]] = []
    lateness: list[float] = []
    interval = 1.0 / OPEN_RATE_QPS
    refs = [_worker_speed(worker_cpu)]
    started = clock()
    while clock() - started < seconds:
        latencies: list[float] = []
        sock.setblocking(False)
        start = clock()
        sent = 0
        next_due = start
        while True:
            now = clock()
            if now - start >= OPEN_SLICE_S:
                break
            while next_due <= now:
                sender.send(next_due)
                lateness.append(clock() - next_due)
                sent += 1
                next_due = start + sent * interval
            # Poll, never sleep: a generator that sleeps between sends wakes
            # late, and that lateness would land in every latency measured.
            while True:
                try:
                    data = sock.recv(RECV_SIZE)
                except BlockingIOError:
                    break
                _accept(data, clock(), outstanding, tally, check, latencies)
        sock.settimeout(TIMEOUT_S)
        _drain(sock, outstanding, tally, check, latencies)
        refs.append(_worker_speed(worker_cpu))
        slices.append((latencies, _scale(refs)))
    return tally, slices, lateness


def in_process(core: ProtocolCore, tails, mix, seconds,
               check: AnswerCheck) -> tuple[Tally, float]:
    """Drive :meth:`ProtocolCore.datagram` directly; returns the tally and
    right answers per second of busy time, scaled by the reference loop
    timed between chunks of 256 queries on this CPU."""
    tally = Tally()
    datagram = core.datagram
    seq = 0
    busy = 0.0
    refs = [reference_seconds()]
    deadline = clock() + seconds
    while clock() < deadline:
        chunk = 0.0
        for _ in range(256):
            seq += 1
            kind = mix[seq % MIX_LEN]
            query = (seq & 0xFFFF).to_bytes(2, "big") + tails[kind]
            started = clock()
            data = datagram(query)
            chunk += clock() - started
            tally.sent += 1
            tally.answer(check.check(kind, data) if data is not None
                         else check.fail("dropped"))
        refs.append(reference_seconds())
        busy += chunk * _scale(refs)
    return tally, (tally.answered - tally.wrong) / busy


# -- the workload ------------------------------------------------------------------------


def run_dns_wire(seed: int, seconds: float, trace: bool, trace_path) -> Result:
    mix = query_mix(seed)
    tails = query_tails()
    check = AnswerCheck()
    result = Result()
    closed_s, ping_s, open_s, inproc_s = (
        share * seconds for share in (TRACE_SPLIT if trace else SPLIT))

    # Every pool start is a set-up sample; the last three serve the phases.
    started_pools = []

    def start():
        pool = _start_pool(seed, tails[WWW])
        started_pools.append(pool)
        return pool

    def discard(pool) -> None:
        started_pools.remove(pool)
        pool.stop()

    try:
        closed_pool, setup_raw, setup_times = median_setup(
            start, SETUP_REPEATS - 2, clock, discard)
        phase_pools = []
        for _ in range(2):
            pool, raw, scaled = timed_build(start, clock)
            phase_pools.append(pool)
            setup_raw.append(raw)
            setup_times.append(scaled)
        ping_pool, open_pool = phase_pools

        children0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        phase_start = clock()
        with load_phase(closed_pool) as (sock, worker_cpu):
            closed_tally, closed_slices, gen_cpu = closed_loop(
                sock, tails, mix, closed_s, check, worker_cpu)
        phase_s = clock() - phase_start
        discard(closed_pool)
        worker_cpu_share = (cpu_seconds(resource.RUSAGE_CHILDREN) - children0) / phase_s

        with load_phase(ping_pool) as (sock, worker_cpu):
            pinged, ping_slices = ping_loop(sock, tails, mix, ping_s, check, worker_cpu)
        service = ping_pool.snapshot()
        discard(ping_pool)

        with load_phase(open_pool) as (sock, worker_cpu):
            opened, slices, lateness = open_loop(sock, tails, mix, open_s, check, worker_cpu)
        discard(open_pool)
    finally:
        for pool in list(started_pools):
            pool.stop()

    tallies = [closed_tally, pinged, opened]
    qps = statistics.median(rate / scale for rate, scale in closed_slices)
    ping_latencies = [lat * scale for piece, scale in ping_slices for lat in piece]
    ping_raw = [lat for piece, _ in ping_slices for lat in piece]
    ping_p50 = percentile(ping_latencies, 50) * 1e3
    ping_p99 = statistics.median(
        percentile(piece, 99) * scale for piece, scale in ping_slices if piece) * 1e3
    latencies = [lat * scale for piece, scale in slices for lat in piece]
    result.report += [
        ("dns_qps", qps, "1/s (scaled)"),
        ("dns_ping_p50_ms", ping_p50, "ms (scaled, one in flight)"),
        ("dns_ping_p99_ms", ping_p99, "ms (scaled, one in flight)"),
        ("dns_p50_ms", percentile(latencies, 50) * 1e3, "ms (scaled, open loop)"),
        ("dns_p99_ms", percentile(latencies, 99) * 1e3, "ms (scaled, open loop)"),
        ("dns_qps_raw", statistics.median(rate for rate, _ in closed_slices), "1/s"),
        ("dns_ping_p50_ms_raw", percentile(ping_raw, 50) * 1e3, "ms (one in flight)"),
        ("ping_answers", len(ping_latencies), "count"),
        ("open_loop_answers", len(latencies), "count"),
        ("setup_s_raw", statistics.median(setup_raw), "s"),
        ("worker_cpu_share", worker_cpu_share, "share"),
        ("gen_cpu_share", gen_cpu, "share"),
    ]

    if trace:
        core = ProtocolCore(build_server(seed), pop="serve")
        tracer = Tracer()
        with pinned(min(os.sched_getaffinity(0))):
            plain, plain_qps = in_process(core, tails, mix, inproc_s, check)
            tracer.patch_all(SPANS)
            try:
                traced, traced_qps = in_process(core, tails, mix, inproc_s, check)
            finally:
                tracer.restore()
            after, after_qps = in_process(core, tails, mix, inproc_s, check)
            probes, (probed, _) = probes_per_eval(
                core.server.source.engine,
                lambda: in_process(core, tails, mix, PROBE_SECONDS, check),
            )
        tallies += [plain, traced, after, probed]
        if trace_path is not None:
            tracer.dump(trace_path)
        service_us = service["latency_sum_us"] / max(1, service["latency_count"])
        layers = layer_metrics(tracer, traced.sent)
        layers.update({
            "dns.wire.encodes_per_query": tracer.calls["dns.wire.encode"] / traced.sent,
            "core.policy.probes_per_eval": probes,
            "serve.protocol.inproc_qps": plain_qps,
            "serve.workers.service_us": service_us,
            # Both are means over the ping phase: the worker's own time per
            # query and what the client waited for it.
            "serve.workers.socket_us": statistics.mean(ping_raw) * 1e6 - service_us,
            "serve.workers.cpu_share": worker_cpu_share,
            "gen.cpu_share": gen_cpu,
            "gen.late_p99_ms": percentile(lateness, 99) * 1e3,
            "trace.overhead_share": 1.0 - traced_qps / statistics.mean([plain_qps, after_qps]),
        })
        result.metrics.update(layers)
        result.report.append(("traced_inproc_qps", traced_qps, "1/s (scaled)"))

    result.attempted = sum(t.sent for t in tallies)
    result.failed = sum(t.failed for t in tallies)
    result.wrong = check.wrong_total
    result.notes += [f"wrong answer: {why} x{n}" for why, n in check.wrong.items()]
    result.notes.append(
        f"answers checked {sum(check.seen.values())}, fully decoded {check.decoded}; "
        f"timeouts {sum(t.timeouts for t in tallies)}, "
        f"mismatched IDs {sum(t.mismatched for t in tallies)}"
    )
    result.metrics.update({
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": qps,
        "latency_p50_ms": ping_p50,
        "latency_tail_ms": ping_p99,
        "rss_peak_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    })
    return result
