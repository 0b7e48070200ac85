"""Distributed sweeps: coordinator/worker sharding over a shared cache.

The single-box ceiling on grid throughput is the process pool of
:mod:`repro.runner`; this package removes it by splitting the sweep into
a coordinator (:mod:`~repro.dist.coordinator`) that shards the grid into
lease-claimed task files in a shared queue directory
(:mod:`~repro.dist.queue`), and any number of pull-workers
(:mod:`~repro.dist.worker`) that execute chunks against one shared
content-addressed result cache — so any worker's result is every
worker's hit, the cache is the sweep's checkpoint, and killing any
process costs at most one lease timeout of duplicated deterministic
work.
"""

from ..registry import lazy_exports

__all__ = [
    "DistributedSweepError",
    "QueueStateError",
    "Task",
    "TaskQueue",
    "WorkerError",
    "WorkerReport",
    "default_queue_dir",
    "grid_digest",
    "new_worker_id",
    "run_distributed",
    "run_worker",
]

_SUBMODULES = {
    ".coordinator": (
        "DistributedSweepError",
        "default_queue_dir",
        "grid_digest",
        "run_distributed",
    ),
    ".queue": ("QueueStateError", "Task", "TaskQueue", "new_worker_id"),
    ".worker": ("WorkerError", "WorkerReport", "run_worker"),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
