"""Layer probes: one small driver per layer, timed from outside.

Each probe builds the layer's public objects on a loop of the requested
kernel (components constructed on a compiled loop route themselves to
their C twins), pushes a fixed batch of work through them and returns
the host time **per operation** for that batch. Tracing is off. The
caller repeats the probes round-robin and reports medians.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Sequence

from repro import (
    KERNELS,
    ExperimentSpec,
    ResultCache,
    RunLedger,
    TaskQueue,
    expand_scenario,
    run_experiment,
    spec_digest,
)
from repro.cpu.core import CpuCore
from repro.netsim.link import Link
from repro.netsim.packet import PACKET_POOL
from repro.netsim.queue import DropTailQueue
from repro.sim.timer import Timer
from repro.tcp.rate_sample import DeliveryRateEstimator
from repro.tcp.scoreboard import Scoreboard

KERNEL_NAMES = ("pure", "compiled")
_MSS = 1448
_NS = 1e9


def _noop() -> None:
    pass


def _loop(kernel: str):
    return KERNELS.get(kernel).make_loop()


def dispatch_ns_per_event(kernel: str, n: int = 20_000) -> float:
    """Pop-and-call cost of *n* already-scheduled no-op events."""
    loop = _loop(kernel)
    for i in range(n):
        loop.call_after(i, _noop)
    t0 = time.perf_counter()
    loop.run()
    return (time.perf_counter() - t0) / n * _NS


def timer_rearm_ns(kernel: str, n: int = 20_000) -> float:
    """Re-arming one pending RTO-scale timer (cancel + schedule)."""
    loop = _loop(kernel)
    timer = Timer(loop, _noop)
    start = timer.start
    t0 = time.perf_counter()
    for _ in range(n):
        start(200_000_000)
    wall = time.perf_counter() - t0
    timer.cancel()
    return wall / n * _NS


def work_item_ns(kernel: str, n: int = 10_000) -> float:
    """Submit-to-completion cost of one CPU work item on a busy core."""
    loop = _loop(kernel)
    core = CpuCore(loop, 1.0e9)
    t0 = time.perf_counter()
    for _ in range(n):
        core.submit_work(1_000, _noop)
    loop.run()
    return (time.perf_counter() - t0) / n * _NS


def hop_ns_per_packet(kernel: str, n: int = 5_000) -> float:
    """One data packet through a droptail queue, a link and its sink."""
    loop = _loop(kernel)
    link = Link(loop, 1.0e9, 50_000)
    link.connect(PACKET_POOL.release)
    queue = DropTailQueue(loop, link, capacity_segments=n + 1)
    t0 = time.perf_counter()
    for i in range(n):
        queue.enqueue(PACKET_POOL.acquire_data(1, i * _MSS, _MSS, _MSS, 0))
    loop.run()
    return (time.perf_counter() - t0) / n * _NS


def ack_ns(kernel: str, rounds: int = 1_000) -> float:
    """The SACK-storm driver of ``benchmarks/perf_harness.py``, per ACK.

    Each round sends a 10-record flight, applies two ACKs with
    out-of-order SACK blocks (holes that trip loss marking), retransmits
    what was marked lost, then a cumulative catch-up ACK.
    """
    loop = _loop(kernel)
    sb = Scoreboard(_MSS, loop=loop)
    delivery = DeliveryRateEstimator(loop=loop)
    now = seq = 0
    t0 = time.perf_counter()
    for i in range(rounds):
        for j in range(10):
            now += 20_000
            sb.on_transmit(delivery.send_record(
                now, seq, seq + 4 * _MSS, 4, sb.has_inflight, j == 9))
            seq += 4 * _MSS
        base = seq - 40 * _MSS
        now += 300_000
        sb.process_ack(
            delivery, base + 4 * _MSS,
            [(base + 12 * _MSS, base + 16 * _MSS),
             (base + 20 * _MSS, base + 26 * _MSS)],
            now, sb.inflight_segments, False)
        now += 100_000
        sb.process_ack(
            delivery, base + 8 * _MSS, [(base + 28 * _MSS, base + 40 * _MSS)],
            now, sb.inflight_segments, False)
        record = sb.next_lost_record()
        while record is not None:
            sb.on_retransmit(record)
            record = sb.next_lost_record()
        now += 200_000
        sb.process_ack(delivery, seq, [], now, sb.inflight_segments,
                       i % 7 == 0)
        sb.clear_loss_marks()
    return (time.perf_counter() - t0) / (3 * rounds) * _NS


def expand_us_per_point(doc: dict) -> float:
    """Scenario document -> spec list, per point."""
    t0 = time.perf_counter()
    specs = expand_scenario(doc)
    return (time.perf_counter() - t0) / len(specs) * 1e6


def digest_us_per_point(specs: Sequence[ExperimentSpec]) -> float:
    """Canonical JSON + SHA-256 of one spec (the cache and ledger key)."""
    t0 = time.perf_counter()
    for spec in specs:
        spec_digest(spec)
    return (time.perf_counter() - t0) / len(specs) * 1e6


def assemble_ms_per_point(specs: Sequence[ExperimentSpec]) -> float:
    """``run_experiment`` at ~0 simulated seconds: build, start, tear down."""
    from dataclasses import replace

    os.environ["REPRO_KERNEL"] = "compiled"
    tiny = [replace(s, duration_s=0.002, warmup_s=0.001) for s in specs[:8]]
    t0 = time.perf_counter()
    for spec in tiny:
        run_experiment(spec, ledger=False)
    return (time.perf_counter() - t0) / len(tiny) * 1e3


def cache_probe(specs, results, root: str) -> Dict[str, float]:
    """Miss, put and hit cost of one result-cache entry, and its size."""
    store = ResultCache(root=root)
    n = len(specs)
    t0 = time.perf_counter()
    missed = [store.get(spec) for spec in specs]
    t1 = time.perf_counter()
    for spec, result in zip(specs, results):
        store.put(spec, result)
    t2 = time.perf_counter()
    hits = [store.get(spec) for spec in specs]
    t3 = time.perf_counter()
    if any(m is not None for m in missed) or any(h is None for h in hits):
        raise RuntimeError("result cache probe: unexpected hit or miss")
    size = sum(os.path.getsize(store.entry_path(spec)) for spec in specs)
    return {
        "cache.miss_us": (t1 - t0) / n * 1e6,
        "cache.put_us": (t2 - t1) / n * 1e6,
        "cache.hit_us": (t3 - t2) / n * 1e6,
        "cache.entry_bytes": size / n,
    }


def ledger_probe(specs, results, report, root: str) -> Dict[str, float]:
    """One run record per point, then one grid record, into a fresh ledger."""
    ledger = RunLedger(root=root)
    t0 = time.perf_counter()
    for spec, result in zip(specs, results):
        ledger.record_run(spec, result, 0.0, kernel="compiled")
    t1 = time.perf_counter()
    ledger.record_grid(specs, report)
    t2 = time.perf_counter()
    return {
        "obs.ledger_run_us": (t1 - t0) / len(specs) * 1e6,
        "obs.ledger_grid_ms": (t2 - t1) * 1e3,
    }


def queue_cycle_ms(root: str, cycles: int = 50) -> float:
    """Publish + claim + complete of one empty chunk on the task queue."""
    queue = TaskQueue(root)
    queue.prepare({"grid_digest": "probe"})
    t0 = time.perf_counter()
    for c in range(cycles):
        queue.publish(c, [{"index": c, "spec": {}}])
        task = queue.claim("probe-worker", lease_s=60)
        queue.complete(task, {"chunk": task.chunk, "points": []})
    return (time.perf_counter() - t0) / cycles * 1e3


#: metric stem -> per-kernel probe (emitted as ``<stem>.<kernel>``)
KERNEL_PROBES: Dict[str, Callable[[str], float]] = {
    "sim.dispatch_ns_per_event": dispatch_ns_per_event,
    "sim.timer_rearm_ns": timer_rearm_ns,
    "cpu.work_item_ns": work_item_ns,
    "netsim.hop_ns_per_packet": hop_ns_per_packet,
    "tcp.ack_ns": ack_ns,
}


def kernel_probe_round() -> Dict[str, float]:
    """Every per-kernel probe once, kernels interleaved."""
    out: Dict[str, float] = {}
    for stem, probe in KERNEL_PROBES.items():
        for kernel in KERNEL_NAMES:
            out[f"{stem}.{kernel}"] = probe(kernel)
    return out


def simulated_counts(results: List) -> Dict[str, float]:
    """Exact simulated counts of one pass (identical under both kernels)."""
    return {
        "sim.events": sum(r.events_processed for r in results),
        "netsim.router_dropped_segments":
            sum(r.router_dropped_segments for r in results),
        "tcp.retransmitted_segments":
            sum(r.retransmitted_segments for r in results),
        "tcp.rto_count": sum(r.rto_count for r in results),
        "tcp.pacing_periods": sum(r.pacing_periods for r in results),
    }
