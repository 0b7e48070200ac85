"""Pull-worker: claim chunks from a shared queue and execute them.

``repro worker --pull <queue>`` runs this loop. A worker is stateless by
design — everything it needs arrives in the task file (grid indices +
wire-format specs) and everything it produces leaves through the shared
result cache (:mod:`repro.cache`), a per-chunk completion record, and
its own run-ledger shard. Killing a worker at any instant therefore
loses nothing: its leased chunk expires and is re-claimed, and any
points it already finished are cache hits for whoever re-runs them.

Chunk execution reuses :func:`repro.runner.run_grid_report` wholesale —
cache-first lookup (another worker's result is this worker's hit),
per-point error capture, and the serial fast path when the worker has
one core (:func:`repro.runner.resolve_worker_jobs` caps the pool at the
machine, fixing the ``parallel.speedup = 0.95`` pathology of forcing a
pool onto a 1-core box). Between points the worker renews its lease and
refreshes its heartbeat snapshot through a monitor hook, so a sweep's
``--live`` line shows per-worker throughput while leases stay visibly
alive.

Safety: a worker refuses a queue whose manifest was written by different
simulator code or a different kernel backend — mixed versions would
break the sweep's bit-identity contract, the one property the whole
distributed layer is built to preserve.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..cache import ResultCache, kernel_fingerprint
from ..core.spec import spec_from_dict
from ..kernel import resolve_kernel
from ..obs.ledger import RunLedger, ledger_enabled
from ..obs.live import GridMonitor
from ..runner import GridPointError, resolve_worker_jobs, run_grid_report
from .queue import Task, TaskQueue, new_worker_id

__all__ = [
    "POINT_DELAY_ENV_VAR",
    "WorkerError",
    "WorkerReport",
    "run_worker",
]

#: test/debug hook: sleep this many seconds before simulating each point
#: (lets fault-tolerance tests pin a worker mid-chunk deterministically)
POINT_DELAY_ENV_VAR = "REPRO_DIST_POINT_DELAY"


class WorkerError(RuntimeError):
    """The worker cannot (or must not) serve this queue."""


@dataclass
class WorkerReport:
    """What one worker process did over its lifetime."""

    worker_id: str
    chunks: int = 0
    points: int = 0
    computed: int = 0
    cached: int = 0
    errors: int = 0
    events: int = 0
    wall_s: float = 0.0
    #: why the pull loop ended ("stop requested" / "idle timeout" /
    #: "chunk limit")
    exit_reason: str = ""
    #: chunk indices executed, in claim order
    chunk_ids: List[int] = field(default_factory=list)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def summary_line(self) -> str:
        return (
            f"worker={self.worker_id} chunks={self.chunks} "
            f"points={self.points} computed={self.computed} "
            f"cached={self.cached} errors={self.errors} "
            f"wall={self.wall_s:.2f}s events/sec={self.events_per_sec:,.0f}"
            f" ({self.exit_reason or 'done'})"
        )


def _point_delay() -> float:
    """The test-hook delay, validated fail-fast like every other knob."""
    raw = os.environ.get(POINT_DELAY_ENV_VAR, "").strip()
    if not raw:
        return 0.0
    try:
        delay = float(raw)
    except ValueError:
        raise ValueError(
            f"{POINT_DELAY_ENV_VAR} must be a number of seconds, got {raw!r}"
        ) from None
    return max(0.0, delay)


class _ChunkMonitor(GridMonitor):
    """Grid monitor that piggybacks lease renewal + heartbeats on progress.

    ``run_grid_report`` calls :meth:`record` once per point lifecycle
    edge; that cadence (at least once per point) is exactly what lease
    renewal needs, so the worker gets liveness for free without a
    watchdog thread. Rendering is off (``stream=None``) — the
    coordinator owns the screen.
    """

    def __init__(self, total_points: int, worker: "_WorkerLoop"):
        super().__init__(total_points, stream=None)
        self._worker = worker

    def record(self, event) -> None:
        if event[0] == "start" and self._worker.point_delay > 0:
            time.sleep(self._worker.point_delay)
        super().record(event)
        self._worker.on_progress(self)


class _WorkerLoop:
    """State for one worker process (claim / execute / heartbeat)."""

    def __init__(self, queue: TaskQueue, worker_id: str, jobs: int,
                 lease_s: float, ledger: Optional[RunLedger]):
        self.queue = queue
        self.worker_id = worker_id
        self.jobs = jobs
        self.lease_s = lease_s
        self.ledger = ledger
        self.point_delay = _point_delay()
        self.report = WorkerReport(worker_id=worker_id)
        self.task: Optional[Task] = None
        self._last_renew = 0.0
        self._last_snapshot = 0.0
        self._t0 = time.perf_counter()

    # -- heartbeats ----------------------------------------------------------

    def on_progress(self, monitor: GridMonitor) -> None:
        """Per-point hook: renew the lease, refresh the snapshot."""
        now = time.perf_counter()
        if self.task is not None and not self.task.lost \
                and now - self._last_renew >= self.lease_s / 3.0:
            self.queue.renew(self.task, self.lease_s)
            self._last_renew = now
        if now - self._last_snapshot >= 1.0:
            self.write_snapshot("running", monitor)
            self._last_snapshot = now

    def write_snapshot(self, state: str,
                       monitor: Optional[GridMonitor] = None) -> None:
        """Publish this worker's progress file into the queue."""
        report = self.report
        in_chunk_events = monitor.sim_events if monitor is not None else 0
        in_chunk_done = monitor.processed if monitor is not None else 0
        elapsed = time.perf_counter() - self._t0
        events = report.events + in_chunk_events
        self.queue.write_worker_snapshot(self.worker_id, {
            "pid": os.getpid(),
            "state": state,
            "chunks_done": report.chunks,
            "points_done": report.points + in_chunk_done,
            "errors": report.errors,
            "events": events,
            "elapsed_s": round(elapsed, 3),
            "events_per_sec": round(events / elapsed, 1) if elapsed > 0 else 0.0,
            "current_chunk": self.task.chunk if self.task is not None else None,
        })

    # -- chunk execution -----------------------------------------------------

    def execute(self, task: Task, store: ResultCache) -> Dict[str, Any]:
        """Run one chunk and build its completion record.

        The grid report gives per-point results in chunk order; each is
        mapped back to its global grid index. A point whose simulation
        succeeded but whose result never reached the shared cache (disk
        full, permissions) is reported as an error — "done" in a
        distributed sweep *means* "fetchable by everyone".
        """
        self.task = task
        self._last_renew = time.perf_counter()
        indices = [int(p["index"]) for p in task.points]
        specs = [spec_from_dict(p["spec"]) for p in task.points]
        monitor = _ChunkMonitor(len(specs), self)
        t0 = time.perf_counter()
        grid = run_grid_report(
            specs, jobs=self.jobs, raise_on_error=False, cache=store,
            monitor=monitor, ledger=self.ledger if self.ledger else False,
        )
        wall = time.perf_counter() - t0
        points: List[Dict[str, Any]] = []
        for local_i, (index, spec, result) in enumerate(
                zip(indices, specs, grid.results)):
            if isinstance(result, GridPointError):
                points.append({
                    "index": index, "status": "error",
                    "error": result.error, "traceback": result.traceback,
                })
                self.report.errors += 1
            elif local_i in grid.cache_hit_indices:
                points.append({"index": index, "status": "cached",
                               "events": 0})
                self.report.cached += 1
            elif not store.contains(spec):
                points.append({
                    "index": index, "status": "error",
                    "error": "result was computed but could not be written "
                             f"to the shared cache under {store.root}",
                    "traceback": "",
                })
                self.report.errors += 1
            else:
                points.append({
                    "index": index, "status": "computed",
                    "events": result.events_processed,
                })
                self.report.computed += 1
                self.report.events += result.events_processed
        self.report.chunks += 1
        self.report.points += len(points)
        self.report.chunk_ids.append(task.chunk)
        record = {
            "chunk": task.chunk,
            "worker": self.worker_id,
            "wall_s": round(wall, 4),
            "kernel": grid.kernel,
            "points": points,
        }
        self.task = None
        return record


def _check_manifest(manifest: Dict[str, Any]) -> None:
    """Refuse code-version or kernel skew between coordinator and worker."""
    kernel = resolve_kernel().name
    wanted_kernel = manifest.get("kernel")
    if wanted_kernel is not None and wanted_kernel != kernel:
        raise WorkerError(
            f"queue wants kernel {wanted_kernel!r} but this worker resolves "
            f"{kernel!r}; align REPRO_KERNEL/--kernel on every host"
        )
    fingerprint = kernel_fingerprint()
    wanted_fp = manifest.get("fingerprint")
    if wanted_fp is not None and wanted_fp != fingerprint:
        raise WorkerError(
            f"queue was published by different simulator code "
            f"(fingerprint {str(wanted_fp)[:16]}... != "
            f"{fingerprint[:16]}...); update this host's checkout — mixed "
            f"versions would break the sweep's bit-identity"
        )


def run_worker(
    queue_dir: str,
    jobs: Optional[int] = None,
    lease_s: float = 60.0,
    idle_timeout_s: float = 300.0,
    poll_s: float = 0.5,
    max_chunks: Optional[int] = None,
    worker_id: Optional[str] = None,
    cache_root: Optional[str] = None,
) -> WorkerReport:
    """Pull and execute chunks from *queue_dir* until drained.

    The loop claims one task at a time, executes it against the shared
    cache named by the queue manifest (*cache_root* overrides, for hosts
    that mount the cache at a different path), and exits when the
    coordinator's stop sentinel appears with no tasks left, when
    *idle_timeout_s* passes without work (0 disables the timeout), or
    after *max_chunks* chunks. A worker started before the coordinator
    simply waits for the manifest.

    Raises :class:`WorkerError` on manifest skew (wrong code fingerprint
    or kernel backend) and ``ValueError`` on bad knobs, both before any
    task is claimed.
    """
    if lease_s <= 0:
        raise ValueError(f"lease_s must be > 0, got {lease_s}")
    if idle_timeout_s < 0:
        raise ValueError(f"idle_timeout_s must be >= 0, got {idle_timeout_s}")
    queue = TaskQueue(queue_dir)
    worker_id = worker_id or new_worker_id()
    jobs = resolve_worker_jobs(jobs)

    # Wait for the coordinator's manifest (it may not have started yet).
    deadline = time.perf_counter() + (idle_timeout_s or float("inf"))
    while True:
        manifest = queue.read_manifest()
        if manifest is not None:
            break
        if queue.stop_requested():
            return WorkerReport(worker_id=worker_id,
                                exit_reason="stop requested")
        if time.perf_counter() >= deadline:
            raise WorkerError(
                f"no sweep manifest appeared under {queue_dir} within "
                f"{idle_timeout_s:g}s (is the coordinator running?)"
            )
        time.sleep(min(poll_s, 0.5))
    _check_manifest(manifest)

    root = cache_root or manifest.get("cache_root") or None
    # Explicit instance: the shared cache is the sweep's data plane, so
    # it is always on here regardless of the REPRO_CACHE kill-switch.
    store = ResultCache(root=root)
    ledger = (RunLedger(root=queue.ledger_dir(worker_id))
              if ledger_enabled() else None)

    loop = _WorkerLoop(queue, worker_id, jobs, lease_s, ledger)
    loop.write_snapshot("idle")
    t0 = time.perf_counter()
    idle_since = time.perf_counter()
    try:
        while True:
            task = queue.claim(worker_id, lease_s)
            if task is None:
                if queue.stop_requested():
                    loop.report.exit_reason = "stop requested"
                    break
                if idle_timeout_s and \
                        time.perf_counter() - idle_since > idle_timeout_s:
                    loop.report.exit_reason = "idle timeout"
                    break
                time.sleep(poll_s)
                continue
            record = loop.execute(task, store)
            queue.complete(task, record)
            loop.write_snapshot("running")
            idle_since = time.perf_counter()
            if max_chunks is not None and loop.report.chunks >= max_chunks:
                loop.report.exit_reason = "chunk limit"
                break
    finally:
        loop.report.wall_s = time.perf_counter() - t0
        loop.write_snapshot("exited")
    return loop.report
