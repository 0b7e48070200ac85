"""Coordinator: shard a grid into a queue, await workers, assemble results.

:func:`run_distributed` is the distributed counterpart of
:func:`repro.runner.run_grid_report` and keeps its contract — results in
grid order, per-point error capture, one :class:`GridReport` out — while
replacing the process pool with the shared-filesystem queue of
:mod:`repro.dist.queue`. The division of labor:

* the **shared result cache is the data plane and the checkpoint**: the
  coordinator pre-scans it (resumed sweeps publish only what is missing
  — zero recomputation of completed points), workers write every
  computed result into it, and final assembly reads results back out of
  it. Queue files carry only indices, specs, and statuses — never
  results;
* the **queue is the control plane**: published chunks (cut and ordered
  by :func:`repro.runner.plan_batches`, expensive points first — a
  chunk id is a dispatch rank, not a grid position), lease-claimed
  chunks, per-chunk completion records, worker heartbeats. The
  coordinator's poll loop re-publishes expired leases, so any worker
  death costs one lease timeout, not the sweep;
* the **run ledger is the journal**: the sweep appends a standard grid
  record extended with a ``distributed`` block (queue path, workers
  seen, chunks, reclaims), so ``repro runs list|diff`` treat distributed
  and local sweeps uniformly.

The coordinator never simulates. With ``workers=0`` it only coordinates
— start ``repro worker --pull <queue>`` processes anywhere the queue
directory and cache are mounted; with ``workers=N`` it spawns N local
pull-workers as subprocesses for the single-box case.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from typing import (
    TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union,
)

from ..cache import ResultCache, kernel_fingerprint, resolve_cache
from ..core.spec import ExperimentSpec, canonical_spec_json, spec_to_dict
from ..kernel import resolve_kernel
from ..obs.ledger import RunLedger, resolve_ledger
from ..obs.live import GridMonitor, progress_hit
from ..runner import (
    ExperimentGridError,
    GridPointError,
    GridReport,
    plan_batches,
)
from .queue import QUEUE_FORMAT_VERSION, TaskQueue

if TYPE_CHECKING:
    import subprocess

__all__ = [
    "DistributedSweepError",
    "default_queue_dir",
    "grid_digest",
    "run_distributed",
]


class DistributedSweepError(RuntimeError):
    """The sweep cannot make progress (dead workers, timeout)."""


def grid_digest(specs: Sequence[ExperimentSpec]) -> str:
    """Content digest of an ordered grid (order matters: index = identity).

    Two sweeps share a queue directory only when this matches — same
    specs, same order — which is what makes resuming safe and mixing
    sweeps impossible.
    """
    h = hashlib.sha256()
    for spec in specs:
        h.update(canonical_spec_json(spec).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def default_queue_dir(name: str, digest: str) -> str:
    """A per-sweep queue location under the cache root.

    Keyed by scenario name + grid digest so re-issuing the same sweep
    resumes its queue and a changed grid gets a fresh one, with no
    ``--queue`` bookkeeping by the user on the single-box path.
    """
    from ..cache import default_cache_dir

    safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in name)
    return os.path.join(default_cache_dir(), "queue",
                        f"{safe or 'sweep'}-{digest[:12]}")


def _spawn_local_worker(
    queue_dir: str,
    lease_s: float,
    poll_s: float,
    worker_jobs: Optional[int],
) -> subprocess.Popen:
    """Start one ``repro worker --pull`` subprocess against *queue_dir*.

    Workers inherit the environment (REPRO_KERNEL et al. must match the
    manifest or they will refuse the queue) plus a PYTHONPATH that
    guarantees they import the same ``repro`` as the coordinator.
    Worker stdout is discarded — the coordinator owns the terminal —
    but stderr passes through so a crashing worker is never silent.
    """
    import subprocess  # a resumed or workers=0 sweep spawns nothing

    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable, "-m", "repro", "worker",
        "--pull", queue_dir,
        "--lease-timeout", str(lease_s),
        "--poll", str(poll_s),
    ]
    if worker_jobs is not None:
        cmd += ["--jobs", str(worker_jobs)]
    return subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env)


def _fold_done_record(
    record: Dict[str, Any],
    monitor: Optional[GridMonitor],
    seen_workers: set,
) -> None:
    """Feed one newly-landed completion record into the live monitor."""
    seen_workers.add(str(record.get("worker", "?")))
    if monitor is None:
        return
    points = record.get("points", [])
    wall_each = float(record.get("wall_s", 0.0)) / max(1, len(points))
    worker = str(record.get("worker", "?"))
    for point in points:
        index = int(point.get("index", -1))
        status = point.get("status")
        if status == "computed":
            monitor.record(("done", index, int(point.get("events", 0)),
                            wall_each, worker))
        elif status == "cached":
            monitor.record(progress_hit(index))
        else:
            monitor.record(("error", index,
                            str(point.get("error", "unknown error")), worker))


def run_distributed(
    specs: Sequence[ExperimentSpec],
    queue_dir: str,
    cache: Union[None, bool, ResultCache] = None,
    chunk: Optional[int] = None,
    workers: int = 0,
    worker_jobs: Optional[int] = None,
    lease_s: float = 60.0,
    poll_s: float = 0.5,
    wait_timeout_s: Optional[float] = None,
    monitor: Optional[GridMonitor] = None,
    ledger: Union[None, bool, RunLedger] = None,
    raise_on_error: bool = True,
    name: str = "sweep",
) -> GridReport:
    """Run *specs* through the distributed queue; results in grid order.

    Publishes every not-yet-cached point into *queue_dir* in chunks of
    *chunk* (``None``: ``REPRO_CHUNK``, then auto-sizing against the
    expected worker count), optionally spawns *workers* local
    pull-workers, and polls until every chunk has a completion record —
    re-publishing chunks whose lease expired (*lease_s*) along the way.
    Which points share a chunk, and in what order chunks go out, is
    :func:`repro.runner.plan_batches`' decision, the same one the process
    pool uses: chunk 0 holds the points with the highest cost hint, and
    workers claim the lowest chunk id first, so the expensive points
    start first. Chunk ids are therefore *not* grid positions; every
    published point and every completion record carries its grid index,
    and results are read back from the shared cache by that index, in
    grid order.

    Restartability is the core contract: killing the coordinator (or any
    worker) and re-invoking with the same specs and queue resumes from
    the cache — completed points are pre-scan hits and are never
    republished. *wait_timeout_s* bounds the wait for external workers
    (``None`` waits indefinitely); exceeding it stops the sweep with
    :class:`DistributedSweepError`, as does every spawned local worker
    dying with chunks still outstanding.
    """
    specs = list(specs)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if lease_s <= 0:
        raise ValueError(f"lease_s must be > 0, got {lease_s}")
    store = resolve_cache(cache)
    if store is None:
        raise ValueError(
            "distributed sweeps require the shared result cache — it is how "
            "workers return results; unset REPRO_CACHE=off or pass cache="
        )
    t_start = time.perf_counter()

    # Pre-scan: the cache is the checkpoint, so everything already in it
    # is done before any task is published.
    slots: List[Optional[Any]] = [None] * len(specs)
    hit_indices: List[int] = []
    pending: List[Tuple[int, ExperimentSpec]] = []
    for i, spec in enumerate(specs):
        hit = store.get(spec)
        if hit is not None:
            slots[i] = hit
            hit_indices.append(i)
            if monitor is not None:
                monitor.record(progress_hit(i))
        else:
            pending.append((i, spec))
    t_dispatch = time.perf_counter()

    digest = grid_digest(specs)
    queue = TaskQueue(queue_dir)
    chunk_size, batches = plan_batches(pending, jobs=max(workers, 1),
                                       chunk=chunk)
    manifest = {
        "v": QUEUE_FORMAT_VERSION,
        "name": name,
        "grid_digest": digest,
        "total_points": len(specs),
        "pending_points": len(pending),
        "chunks": len(batches),
        "chunk_size": chunk_size,
        "kernel": resolve_kernel().name,
        "fingerprint": kernel_fingerprint(),
        "cache_root": store.root,
        "created_ts": time.time(),
    }
    queue.prepare(manifest)
    for c, batch in enumerate(batches):
        queue.publish(c, [
            {"index": i, "spec": spec_to_dict(spec)} for i, spec in batch
        ])
    chunk_ids = list(range(len(batches)))
    if monitor is not None:
        monitor.chunk = chunk_size

    procs: List[subprocess.Popen] = []
    notices: List[str] = []
    seen_workers: set = set()
    folded: set = set()
    reclaim_total = 0
    deadline = (time.perf_counter() + wait_timeout_s
                if wait_timeout_s is not None else None)
    try:
        if chunk_ids and workers:
            procs = [
                _spawn_local_worker(queue.root, lease_s, poll_s, worker_jobs)
                for _ in range(workers)
            ]
        done: Dict[int, Dict[str, Any]] = {}
        while chunk_ids:
            done = queue.done_records()
            for c in chunk_ids:
                if c in done and c not in folded:
                    folded.add(c)
                    _fold_done_record(done[c], monitor, seen_workers)
            if monitor is not None and hasattr(monitor, "update_workers"):
                monitor.update_workers(queue.worker_snapshots())
            if len(folded) == len(chunk_ids):
                break
            reclaimed = queue.reclaim_expired(lease_s=lease_s)
            if reclaimed:
                reclaim_total += len(reclaimed)
            if procs and all(p.poll() is not None for p in procs):
                # Give the filesystem one final look before declaring
                # the sweep dead — the last worker may have completed
                # its chunk between our listing and its exit.
                if len(queue.done_records()) < len(chunk_ids):
                    raise DistributedSweepError(
                        f"all {len(procs)} local worker(s) exited with "
                        f"{len(chunk_ids) - len(folded)} chunk(s) "
                        f"outstanding; see worker stderr above"
                    )
                continue
            if deadline is not None and time.perf_counter() > deadline:
                raise DistributedSweepError(
                    f"sweep did not complete within {wait_timeout_s:g}s: "
                    f"{len(folded)}/{len(chunk_ids)} chunks done "
                    f"(queue {queue.root}, stats {queue.stats()})"
                )
            time.sleep(poll_s)
    finally:
        queue.request_stop()
        if procs:
            from subprocess import TimeoutExpired
        for p in procs:
            try:
                p.wait(timeout=30.0)
            except TimeoutExpired:
                p.terminate()
                try:
                    p.wait(timeout=5.0)
                except TimeoutExpired:
                    p.kill()
    if reclaim_total:
        notices.append(
            f"re-dispatched {reclaim_total} expired chunk lease(s)"
        )

    # Assembly: statuses from completion records, results from the cache.
    t_store = time.perf_counter()
    outcome_by_index: Dict[int, Dict[str, Any]] = {}
    busy_s = 0.0
    for record in queue.done_records().values():
        busy_s += float(record.get("wall_s", 0.0))
        for point in record.get("points", []):
            outcome_by_index[int(point.get("index", -1))] = point
    total_events = 0
    cache_misses = cache_skipped = 0
    errors: List[GridPointError] = []
    for i, spec in pending:
        point = outcome_by_index.get(i)
        if point is not None and point.get("status") == "error":
            error = GridPointError(
                index=i, spec=spec,
                error=str(point.get("error", "unknown error")),
                traceback=str(point.get("traceback", "")),
            )
            slots[i] = error
            errors.append(error)
            cache_skipped += 1
            continue
        result = store.get(spec)
        if result is None:
            error = GridPointError(
                index=i, spec=spec,
                error="chunk completed but the result is missing from the "
                      f"shared cache under {store.root}",
                traceback="",
            )
            slots[i] = error
            errors.append(error)
            cache_skipped += 1
            continue
        slots[i] = result
        if point is not None and point.get("status") == "computed":
            total_events += int(point.get("events", 0))
            cache_misses += 1
        else:  # another worker computed it first — still a shared-cache hit
            hit_indices.append(i)
    if monitor is not None:
        monitor.finish()

    t_end = time.perf_counter()
    report = GridReport(
        results=list(slots),
        jobs=max(1, len(seen_workers)),
        wall_s=t_end - t_start,
        total_events=total_events,
        errors=errors,
        cache_hits=len(hit_indices),
        cache_misses=cache_misses,
        cache_skipped=cache_skipped,
        cache_used=True,
        chunk=chunk_size,
        kernel=manifest["kernel"],
        cache_hit_indices=frozenset(hit_indices),
        notices=notices,
        # probe = the pre-scan, dispatch = publish + wait for the workers,
        # store = reading the results back out of the shared cache
        phase_s={
            "expand": 0.0,
            "probe": t_dispatch - t_start,
            "dispatch": t_store - t_dispatch,
            "store": t_end - t_store,
        },
        busy_s=busy_s,
    )
    ledger_store = resolve_ledger(ledger)
    if ledger_store is not None:
        report.run_id = ledger_store.record_grid(specs, report, extra={
            "distributed": {
                "queue": queue.root,
                "workers": sorted(seen_workers),
                "chunks": len(chunk_ids),
                "chunk_size": chunk_size,
                "reclaims": reclaim_total,
                "lease_s": lease_s,
            },
        })
    if errors and raise_on_error:
        raise ExperimentGridError(errors)
    return report
