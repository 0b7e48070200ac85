"""Perf harness: track simulator speed and runner scaling across PRs.

Run it directly (``PYTHONPATH=src python benchmarks/perf_harness.py``) to
measure

* **single-run speed** — wall-clock and events/sec for three canonical
  grid points (1- and 20-connection BBR on the Low-End config, and a
  20-connection Cubic run on Default), best-of-``REPEATS`` to suppress
  scheduler noise;
* **parallel scaling** — the Figure 2 Low-End grid (BBR + Cubic over
  {1, 5, 10, 20} connections) at ``jobs=1`` versus ``jobs=N``;
* **timer-churn microbenchmark** — hundreds of concurrent re-arming
  timers, the cancel-and-re-arm pattern that stresses the event heap's
  lazy deletion and compaction;
* **allocation microbenchmark** — ``tracemalloc`` peak plus packet-pool
  reuse statistics for one canonical run (the zero-allocation hot path's
  scoreboard);
* **result-cache microbenchmark** — the Figure 5 scenario grid run cold
  (empty cache) and warm (every point a hit) against a throwaway cache
  directory: wall time, hit rate, and the cold/warm speedup;
* **chunked-dispatch microbenchmark** — a grid of many very short
  simulations dispatched one point per pool task versus batched, which
  isolates the per-task IPC round trip the chunking amortizes;
* **distributed-dispatch microbenchmark** — the shared-queue protocol's
  per-chunk cost (publish + atomic-rename claim + completion record)
  plus a 2-worker distributed run of a short grid against the same grid
  run serially, with a metrics-identity check (:mod:`repro.dist`);
* **flow-churn microbenchmark** — Poisson connection arrivals racing a
  greedy flow, which stresses flow setup/teardown and the per-flow
  accounting rather than the steady-state fast path.

All timing measurements pin ``cache=False`` so the result cache can
never serve a point the harness meant to time.

Results are written to ``benchmarks/results/BENCH_runner.json``. The
``baseline`` block is *preserved* across reruns — it records the seed
repo's numbers on the machine that first established it — so the
``current`` block always has something fixed to be compared against.
Future perf PRs should rerun this harness and keep ``current`` moving.

Every invocation also appends one compact trajectory entry (per-point
events/sec, kernel, quick flag, CPU count, git head) to
``benchmarks/results/BENCH_history.jsonl`` (``--no-history`` skips it;
``repro perf trend`` renders the file). ``--check-regression`` gates
against the **median of comparable history entries** — same kernel,
quick mode, and CPU count — so a sustained slide trips it even when each
step stays inside the budget; with no comparable history it falls back
to the frozen baseline, exactly the old behavior.

``--quick`` shortens simulated durations for CI smoke use; quick numbers
are noisier and are not written unless ``--write`` is also given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from typing import Dict, List

from repro import (
    KERNELS,
    ExperimentSpec,
    FlowSpec,
    NetemConfig,
    ResultCache,
    kernel_info,
    load_scenario,
    resolve_kernel,
    run_experiment,
    run_grid_report,
)
from repro.kernel import KERNEL_ENV_VAR
from repro.netsim.packet import PACKET_POOL
from repro.obs import perf_trend
from repro.sim import EventLoop, Timer

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_runner.json")
HISTORY_PATH = os.path.join(RESULTS_DIR, perf_trend.HISTORY_FILENAME)

#: best-of repetitions per single-run point
REPEATS = 5

#: Seed-repo single-run numbers (pre parallel-runner/event-loop PR),
#: measured on the container that established the baseline. Used to seed
#: the ``baseline`` block when BENCH_runner.json does not exist yet.
SEED_BASELINE: Dict[str, Dict[str, float]] = {
    "bbr_1c_low-end": {"wall_s": 0.197, "events": 27451, "events_per_sec": 139319.5},
    "bbr_20c_low-end": {"wall_s": 1.1971, "events": 164376, "events_per_sec": 137317.4},
    "cubic_20c_default": {"wall_s": 2.7164, "events": 293844, "events_per_sec": 108175.4},
}


def canonical_points(duration_s: float = 2.0, warmup_s: float = 0.5) -> Dict[str, ExperimentSpec]:
    """The three single-run measurement points (stable across PRs)."""
    return {
        "bbr_1c_low-end": ExperimentSpec(
            cc="bbr", connections=1, cpu_config="low-end",
            duration_s=duration_s, warmup_s=warmup_s),
        "bbr_20c_low-end": ExperimentSpec(
            cc="bbr", connections=20, cpu_config="low-end",
            duration_s=duration_s, warmup_s=warmup_s),
        "cubic_20c_default": ExperimentSpec(
            cc="cubic", connections=20, cpu_config="default",
            duration_s=duration_s, warmup_s=warmup_s),
    }


def fig2_lowend_grid(duration_s: float = 2.0, warmup_s: float = 0.5) -> List[ExperimentSpec]:
    """The Figure 2 Low-End slice: BBR + Cubic x {1, 5, 10, 20} connections."""
    return [
        ExperimentSpec(cc=cc, connections=n, cpu_config="low-end",
                       duration_s=duration_s, warmup_s=warmup_s)
        for cc in ("bbr", "cubic")
        for n in (1, 5, 10, 20)
    ]


def measure_single_runs(duration_s: float, warmup_s: float) -> Dict[str, Dict[str, float]]:
    """Best-of-REPEATS wall/events/sec for each canonical point."""
    out: Dict[str, Dict[str, float]] = {}
    for name, spec in canonical_points(duration_s, warmup_s).items():
        best_wall = float("inf")
        events = 0
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = run_experiment(spec)
            wall = time.perf_counter() - t0
            if wall < best_wall:
                best_wall = wall
                events = result.events_processed
        out[name] = {
            "wall_s": round(best_wall, 4),
            "events": events,
            "events_per_sec": round(events / best_wall, 1),
        }
        print(f"  {name}: {best_wall:.3f}s  {events / best_wall:,.0f} ev/s")
    return out


def measure_parallel_scaling(duration_s: float, warmup_s: float) -> Dict[str, object]:
    """Fig. 2 Low-End grid wall-clock at jobs=1 vs jobs=N.

    On a single-core box this section is skipped entirely: a jobs=N
    measurement there reports pure process-pool overhead (speedup < 1x),
    which reads like a regression when it is really a statement about
    the hardware. The skip is recorded so the JSON says *why* the
    numbers are absent. ``--check-regression`` never gates on this
    section either way — only the single-run points are budgeted.
    """
    if (os.cpu_count() or 1) < 2:
        print("  skipped: single core")
        return {"skipped_reason": "single core"}
    grid = fig2_lowend_grid(duration_s, warmup_s)
    jobs_n = min(os.cpu_count(), 4)
    serial = run_grid_report(grid, jobs=1, cache=False)
    print(f"  jobs=1: {serial.summary_line()}")
    parallel = run_grid_report(grid, jobs=jobs_n, cache=False)
    print(f"  jobs={jobs_n}: {parallel.summary_line()}")
    speedup = serial.wall_s / parallel.wall_s if parallel.wall_s > 0 else 0.0
    return {
        "grid": "fig2_low-end (bbr+cubic x 1/5/10/20 connections)",
        "points": serial.points,
        "jobs1_wall_s": round(serial.wall_s, 3),
        "jobsN": parallel.jobs,
        "jobsN_wall_s": round(parallel.wall_s, 3),
        "speedup": round(speedup, 2),
        "events_per_sec_jobs1": round(serial.events_per_sec, 1),
        "events_per_sec_jobsN": round(parallel.events_per_sec, 1),
    }


def measure_timer_churn(quick: bool) -> Dict[str, object]:
    """Re-arm hundreds of RTO-style timers and report the re-arm rate.

    Models the dominant hrtimer pattern in the stack: every ACK re-arms
    the connection's RTO ~200 ms out, so the previously armed expiry is
    cancelled long before it fires. Each cancelled expiry lingers in the
    event heap as lazy-deletion debt until compaction drops it, so the
    compaction count is recorded next to the rate.
    """
    n_timers, rounds = (200, 100) if quick else (500, 600)
    loop = EventLoop()
    timers = [Timer(loop, lambda: None) for _ in range(n_timers)]
    rearms = 0

    def drive(idx: int, remaining: int) -> None:
        nonlocal rearms
        timers[idx].start(200_000_000 + idx)  # RTO-scale horizon
        rearms += 1
        if remaining > 1:
            loop.call_after(300_000 + (idx % 11) * 1_000, drive, idx, remaining - 1)

    for i in range(n_timers):
        loop.call_after(i, drive, i, rounds)
    t0 = time.perf_counter()
    loop.run()
    wall = time.perf_counter() - t0
    heap = {
        "fires": sum(t.fire_count for t in timers),
        "compactions": loop.compactions,
        "rearms_per_sec": round(rearms / wall, 1) if wall > 0 else 0.0,
        "wall_s": round(wall, 4),
    }
    print(f"  heap: {heap['rearms_per_sec']:,.0f} re-arms/s   "
          f"({heap['compactions']} compactions)")
    return {"timers": n_timers, "rounds": rounds, "heap": heap}


def measure_result_cache(quick: bool) -> Dict[str, object]:
    """Cold vs warm wall time for a scenario grid through the result cache.

    Uses a throwaway cache directory so the numbers are honest cold/warm
    measurements regardless of the developer's real cache state. The
    full harness runs the Figure 5 grid (the ISSUE's acceptance target:
    a warm re-run recomputes 0 points and is >= 50x faster); ``--quick``
    uses the 2-point CI smoke grid.
    """
    name = "smoke_2point" if quick else "fig5_pacing_connections"
    specs = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.json"))
    with tempfile.TemporaryDirectory(prefix="repro-cache-bench-") as tmp:
        cache = ResultCache(root=tmp)
        cold = run_grid_report(specs, cache=cache)
        warm = run_grid_report(specs, cache=cache)
    speedup = cold.wall_s / warm.wall_s if warm.wall_s > 0 else float("inf")
    hit_rate = warm.cache_hits / warm.points if warm.points else 0.0
    print(f"  {name}: cold {cold.wall_s:.3f}s -> warm {warm.wall_s:.4f}s "
          f"(x{speedup:,.0f}, {hit_rate:.0%} hits, "
          f"{warm.total_events} events recomputed)")
    return {
        "grid": name,
        "points": cold.points,
        "cold_wall_s": round(cold.wall_s, 4),
        "cold_misses": cold.cache_misses,
        "warm_wall_s": round(warm.wall_s, 4),
        "warm_hits": warm.cache_hits,
        "warm_recomputed_events": warm.total_events,
        "hit_rate": round(hit_rate, 4),
        "speedup": round(speedup, 1),
    }


def measure_chunked_dispatch(quick: bool) -> Dict[str, object]:
    """Chunk=1 vs batched dispatch on a grid of many short simulations.

    The grid is the smoke-2point pair fanned across seeds: each point is
    a few tens of milliseconds of simulation, so the per-task IPC round
    trip (pickle, queue, result pickle) is a visible fraction of the
    cold run — exactly the overhead chunking is meant to amortize.
    """
    seeds = range(1, 9) if quick else range(1, 17)
    specs = [
        ExperimentSpec(cc=cc, connections=2, duration_s=0.8, warmup_s=0.2,
                       seed=seed)
        for seed in seeds
        for cc in ("bbr", "cubic")
    ]
    jobs = max(2, min(os.cpu_count() or 1, 4))
    chunk = max(2, len(specs) // (jobs * 2))
    unchunked = run_grid_report(specs, jobs=jobs, chunk=1, cache=False)
    print(f"  chunk=1: {unchunked.summary_line()}")
    chunked = run_grid_report(specs, jobs=jobs, chunk=chunk, cache=False)
    print(f"  chunk={chunk}: {chunked.summary_line()}")
    improvement = (unchunked.wall_s / chunked.wall_s - 1
                   if chunked.wall_s > 0 else 0.0)
    print(f"  chunked dispatch: {improvement:+.1%} wall-clock vs per-point")
    return {
        "grid": "smoke pair x seeds",
        "points": len(specs),
        "jobs": jobs,
        "chunk": chunk,
        "unchunked_wall_s": round(unchunked.wall_s, 4),
        "chunked_wall_s": round(chunked.wall_s, 4),
        "improvement": round(improvement, 4),
    }


def measure_dist_dispatch(quick: bool) -> Dict[str, object]:
    """Distributed-sweep overhead: queue ops per chunk and 2-worker wall.

    Two numbers matter for the coordinator/worker layer. First, the raw
    cost of the queue protocol itself — publish, claim (atomic rename +
    lease stamp), complete — measured over an empty-payload churn loop:
    this is pure filesystem overhead every chunk pays on top of its
    simulations. Second, a 2-worker distributed run of a short grid
    against a serial run of the same grid: wall-clock ratio plus a
    metrics-identity check, since the distributed path is only a win if
    it is *exactly* the same computation. On a single-core box the
    worker comparison reports the honest (likely <1x) ratio; the queue
    overhead numbers are hardware-independent either way.
    """
    from repro.dist import TaskQueue, run_distributed

    ops = 100 if quick else 400
    with tempfile.TemporaryDirectory(prefix="repro-dist-bench-") as tmp:
        queue = TaskQueue(os.path.join(tmp, "queue"))
        queue.prepare({"grid_digest": "bench"})
        t0 = time.perf_counter()
        for c in range(ops):
            queue.publish(c, [{"index": c, "spec": {}}])
            task = queue.claim("bench-worker", lease_s=60)
            queue.complete(task, {"chunk": task.chunk, "points": []})
        queue_wall = time.perf_counter() - t0
    per_chunk_ms = queue_wall / ops * 1e3
    print(f"  queue protocol: {ops} publish+claim+complete cycles in "
          f"{queue_wall:.3f}s ({per_chunk_ms:.2f} ms/chunk)")

    seeds = range(1, 3) if quick else range(1, 5)
    specs = [
        ExperimentSpec(cc=cc, connections=2, duration_s=0.8, warmup_s=0.2,
                       seed=seed)
        for seed in seeds
        for cc in ("bbr", "cubic")
    ]
    serial = run_grid_report(specs, jobs=1, cache=False)
    print(f"  serial: {serial.summary_line()}")
    with tempfile.TemporaryDirectory(prefix="repro-dist-bench-") as tmp:
        cache = ResultCache(root=os.path.join(tmp, "cache"))
        dist = run_distributed(
            specs, os.path.join(tmp, "queue"), cache=cache, workers=2,
            lease_s=60, poll_s=0.05, wait_timeout_s=600, name="bench",
            ledger=False,
        )
    print(f"  2 workers: {dist.summary_line()}")
    metrics_identical = all(
        d.scalar_metrics() == s.scalar_metrics()
        for d, s in zip(dist.results, serial.results)
    )
    speedup = serial.wall_s / dist.wall_s if dist.wall_s > 0 else 0.0
    print(f"  distributed vs serial: x{speedup:.2f} wall-clock, metrics "
          f"{'identical' if metrics_identical else 'DIVERGED'}")
    return {
        "queue_ops": ops,
        "queue_wall_s": round(queue_wall, 4),
        "queue_overhead_ms_per_chunk": round(per_chunk_ms, 3),
        "grid_points": len(specs),
        "serial_wall_s": round(serial.wall_s, 4),
        "workers2_wall_s": round(dist.wall_s, 4),
        "workers2_chunk": dist.chunk,
        "speedup": round(speedup, 2),
        "metrics_identical": metrics_identical,
    }


def measure_flow_churn(quick: bool) -> Dict[str, object]:
    """Flow-churn microbenchmark: Poisson connection arrivals against a
    greedy flow on a shared bottleneck.

    Unlike the steady-state canonical points, this run spends its time
    on flow setup/teardown — connection creation, per-flow accounting,
    completion hooks, and the flow routing table — so regressions in the
    multi-flow plumbing show up here even when the fast path is fine.
    """
    duration_s, rate_hz = (1.2, 20.0) if quick else (3.0, 30.0)
    spec = ExperimentSpec(
        duration_s=duration_s, warmup_s=0.2,
        netem=NetemConfig(rate_bps=2e8),
        flows=(FlowSpec(cc="bbr"),
               FlowSpec(cc="cubic", count=0, arrival_rate_hz=rate_hz,
                        mean_transfer_bytes=200_000, start_s=0.1)),
    )
    best_wall = float("inf")
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        candidate = run_experiment(spec)
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best_wall, result = wall, candidate
    events_per_sec = result.events_processed / best_wall if best_wall else 0.0
    print(f"  churn {rate_hz:g}/s: {result.flow_count} flows "
          f"({result.flows_completed} completed), {best_wall:.3f}s  "
          f"{events_per_sec:,.0f} ev/s")
    return {
        "arrival_rate_hz": rate_hz,
        "duration_s": duration_s,
        "flows": result.flow_count,
        "flows_completed": result.flows_completed,
        "fct_mean_ms": round(result.fct_mean_ms, 3),
        "wall_s": round(best_wall, 4),
        "events": result.events_processed,
        "events_per_sec": round(events_per_sec, 1),
    }


def _ack_processing_rate(loop, rounds: int) -> Dict[str, object]:
    """Drive a synthetic SACK-heavy ACK stream through one scoreboard.

    Each round sends a 10-record flight (4 segments each) and applies
    three ACKs: two with out-of-order SACK blocks (partial coverage,
    holes that trip FACK loss marking), retransmits whatever was marked
    lost, then a cumulative catch-up ACK. *loop* selects the kernel: a
    compiled EventLoop routes the scoreboard/estimator to C, None keeps
    them pure.
    """
    from repro.tcp.rate_sample import DeliveryRateEstimator
    from repro.tcp.scoreboard import Scoreboard

    mss = 1448
    sb = Scoreboard(mss, loop=loop)
    delivery = DeliveryRateEstimator(loop=loop)
    now = 0
    seq = 0
    acks = 0
    t0 = time.perf_counter()
    for i in range(rounds):
        for j in range(10):
            now += 20_000
            record = delivery.send_record(
                now, seq, seq + 4 * mss, 4, sb.has_inflight, j == 9
            )
            sb.on_transmit(record)
            seq += 4 * mss
        base = seq - 40 * mss
        now += 300_000
        sb.process_ack(
            delivery, base + 4 * mss,
            [(base + 12 * mss, base + 16 * mss),
             (base + 20 * mss, base + 26 * mss)],
            now, sb.inflight_segments, False,
        )
        now += 100_000
        sb.process_ack(
            delivery, base + 8 * mss,
            [(base + 28 * mss, base + 40 * mss)],
            now, sb.inflight_segments, False,
        )
        record = sb.next_lost_record()
        while record is not None:
            sb.on_retransmit(record)
            record = sb.next_lost_record()
        now += 200_000
        sb.process_ack(delivery, seq, [], now, sb.inflight_segments,
                       i % 7 == 0)
        acks += 3
        sb.clear_loss_marks()
    wall = time.perf_counter() - t0
    return {
        "acks": acks,
        "acks_per_sec": round(acks / wall, 1) if wall > 0 else 0.0,
        "wall_s": round(wall, 4),
        # cross-kernel integrity fingerprint (must match pure vs C)
        "delivered_bytes": delivery.delivered_bytes,
        "snd_una": sb.snd_una,
        "retransmitted_segments": sb.total_retransmitted_segments,
    }


def measure_ack_processing(quick: bool) -> Dict[str, object]:
    """Pure vs compiled rates for the per-ACK scoreboard/estimator path."""
    rounds = 2_000 if quick else 10_000
    pure = _ack_processing_rate(None, rounds)
    out: Dict[str, object] = {"rounds": rounds, "pure": pure}
    compiled_kernel = KERNELS.get("compiled")
    if compiled_kernel.available:
        compiled = _ack_processing_rate(compiled_kernel.make_loop(), rounds)
        speedup = (compiled["acks_per_sec"] / pure["acks_per_sec"]
                   if pure["acks_per_sec"] else 0.0)
        state_match = all(
            compiled[key] == pure[key]
            for key in ("delivered_bytes", "snd_una",
                        "retransmitted_segments")
        )
        out["compiled"] = compiled
        out["compiled_vs_pure"] = round(speedup, 3)
        out["state_match"] = state_match
        print(f"  pure: {pure['acks_per_sec']:,.0f} acks/s   "
              f"compiled: {compiled['acks_per_sec']:,.0f} acks/s   "
              f"(x{speedup:.2f}, state {'ok' if state_match else 'DIVERGED'})")
    else:
        print(f"  pure: {pure['acks_per_sec']:,.0f} acks/s   "
              f"(compiled kernel not built)")
    return out


def measure_allocations(duration_s: float, warmup_s: float) -> Dict[str, object]:
    """tracemalloc peak + packet-pool reuse for one canonical run.

    The run is repeated under tracemalloc, so its wall time is *not*
    comparable to the single-run numbers; only the allocation profile is
    recorded. Pool counters are process-global — deltas isolate this run.
    """
    spec = canonical_points(duration_s, warmup_s)["bbr_20c_low-end"]
    acquired0, reused0 = PACKET_POOL.acquired, PACKET_POOL.reused
    tracemalloc.start()
    run_experiment(spec)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    acquired = PACKET_POOL.acquired - acquired0
    reused = PACKET_POOL.reused - reused0
    reuse_fraction = round(reused / acquired, 4) if acquired else 0.0
    print(f"  bbr_20c_low-end: peak {peak / 1024:,.0f} KiB, "
          f"{acquired:,} packets, {reuse_fraction:.1%} pooled")
    return {
        "point": "bbr_20c_low-end",
        "tracemalloc_peak_kib": round(peak / 1024, 1),
        "packets_acquired": acquired,
        "packets_reused": reused,
        "pool_reuse_fraction": reuse_fraction,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short simulations (CI smoke; noisier numbers)")
    parser.add_argument("--write", action="store_true", default=None,
                        help="write BENCH_runner.json (default unless --quick)")
    parser.add_argument("--check-regression", type=float, default=None,
                        metavar="PCT",
                        help="exit 1 if any point's events/sec falls more "
                             "than PCT%% below the reference (the median of "
                             "comparable history entries, or the committed "
                             "baseline when there are none)")
    parser.add_argument("--output", default=BENCH_PATH, metavar="PATH",
                        help="where to write the results JSON (CI points "
                             "this elsewhere to keep the committed "
                             "BENCH_runner.json pristine)")
    parser.add_argument("--history", default=HISTORY_PATH, metavar="PATH",
                        help="trajectory JSONL to append to and gate "
                             "against (render with 'repro perf trend')")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append this run to the history file")
    args = parser.parse_args(argv)

    duration_s, warmup_s = (0.8, 0.2) if args.quick else (2.0, 0.5)
    write = args.write if args.write is not None else not args.quick

    active_kernel = resolve_kernel()
    print("single-run speed (best of %d, kernel=%s):"
          % (REPEATS, active_kernel.describe()))
    current = measure_single_runs(duration_s, warmup_s)

    # When the compiled kernel is built and the regular numbers above ran
    # pure, measure the compiled backend too: the baseline comparison
    # stays like-for-like while the JSON still records what the fast
    # kernel does on this hardware.
    current_compiled = None
    compiled_kernel = KERNELS.get("compiled")
    if active_kernel.name != "compiled" and compiled_kernel.available:
        print("single-run speed (kernel=%s):" % compiled_kernel.describe())
        prev = os.environ.get(KERNEL_ENV_VAR)
        os.environ[KERNEL_ENV_VAR] = "compiled"
        try:
            current_compiled = measure_single_runs(duration_s, warmup_s)
        finally:
            if prev is None:
                os.environ.pop(KERNEL_ENV_VAR, None)
            else:
                os.environ[KERNEL_ENV_VAR] = prev

    print("parallel scaling:")
    scaling = measure_parallel_scaling(duration_s, warmup_s)
    print("timer churn (microbenchmark):")
    churn = measure_timer_churn(args.quick)
    print("allocations (microbenchmark):")
    allocations = measure_allocations(duration_s, warmup_s)
    print("result cache (microbenchmark):")
    cache_bench = measure_result_cache(args.quick)
    print("chunked dispatch (microbenchmark):")
    chunking = measure_chunked_dispatch(args.quick)
    print("distributed dispatch (microbenchmark):")
    dist_dispatch = measure_dist_dispatch(args.quick)
    print("flow churn (microbenchmark):")
    flow_churn = measure_flow_churn(args.quick)
    print("ack processing (microbenchmark):")
    ack_processing = measure_ack_processing(args.quick)

    existing: Dict[str, object] = {}
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as f:
            existing = json.load(f)
    baseline = existing.get("baseline") or SEED_BASELINE

    payload = {
        "baseline": baseline,
        "current": current,
        "parallel": scaling,
        "microbench": {
            "timer_churn": churn,
            "allocation": allocations,
            "result_cache": cache_bench,
            "chunked_dispatch": chunking,
            "dist_dispatch": dist_dispatch,
            "flow_churn": flow_churn,
            "ack_processing": ack_processing,
        },
        "meta": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "quick": bool(args.quick),
            #: the backend the ``current`` block was measured with
            "kernel": kernel_info(active_kernel),
        },
    }
    if current_compiled is not None:
        payload["current_compiled"] = current_compiled
        payload["meta"]["kernel_compiled"] = kernel_info(compiled_kernel)
    if write:
        os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        with open(args.output, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"wrote {args.output}")

    # The gate reads history *before* this run is appended: the newest
    # entry under test is the run we just measured, never its own
    # reference.
    prior = perf_trend.comparable_entries(
        perf_trend.load_history(args.history),
        kernel=active_kernel.name, quick=args.quick,
    )

    if not args.no_history:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        head = perf_trend.git_head(repo_root)
        micro_rates = {
            "timer_rearms_per_sec": churn["heap"]["rearms_per_sec"],
            "flow_churn_events_per_sec": flow_churn["events_per_sec"],
        }
        appended = perf_trend.append_history(
            args.history,
            perf_trend.history_record(
                {name: c["events_per_sec"] for name, c in current.items()},
                kernel=active_kernel.name, quick=args.quick,
                microbench=micro_rates, head=head,
            ),
        )
        if current_compiled is not None:
            perf_trend.append_history(
                args.history,
                perf_trend.history_record(
                    {name: c["events_per_sec"]
                     for name, c in current_compiled.items()},
                    kernel="compiled", quick=args.quick, head=head,
                ),
            )
        if appended:
            print(f"appended history entry to {args.history}")

    for name, cur in current.items():
        base = baseline.get(name)
        if base:
            gain = cur["events_per_sec"] / base["events_per_sec"] - 1
            print(f"  {name}: events/sec {gain:+.1%} vs baseline")
    if args.check_regression is None:
        return 0
    if prior:
        gate = perf_trend.median_baseline(prior)
        source = f"median of {len(prior)} comparable history entries"
    else:
        gate = {name: base["events_per_sec"]
                for name, base in baseline.items()}
        source = "frozen baseline (no comparable history)"
    print(f"  regression gate: {source}")
    regressed = perf_trend.check_trend(
        {name: cur["events_per_sec"] for name, cur in current.items()},
        gate, args.check_regression,
    )
    if regressed:
        for name, gain in regressed:
            print(f"REGRESSION: {name} events/sec {gain:+.1%} exceeds "
                  f"the -{args.check_regression:g}% budget vs the {source}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
