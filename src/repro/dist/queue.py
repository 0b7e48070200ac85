"""Shared-filesystem task queue for distributed sweeps.

The queue is a directory that any number of processes — on one box or
on many hosts sharing a filesystem — can cooperate through without a
broker, a database, or a network service. All coordination reduces to
two primitives every POSIX filesystem gives us:

* **atomic publish** — a task is a JSON file written to a temp name and
  ``os.replace``d into ``tasks/``, so readers never observe a partial
  task;
* **atomic claim** — a worker claims a task by ``os.replace``-ing it
  from ``tasks/`` into ``leases/``. Rename is atomic within a
  filesystem: exactly one contender wins, every loser gets ``ENOENT``
  and moves to the next file. No locks, no fencing tokens.

A claimed task carries a **lease**: the winning worker stamps the lease
file with its id and an expiry, and renews the stamp while it computes.
A worker that dies (SIGKILL, OOM, host loss) simply stops renewing; the
coordinator notices the expired lease and moves the task back to
``tasks/`` for someone else. Because every grid point is deterministic
and results land in the content-addressed cache (:mod:`repro.cache`),
re-dispatch is idempotent: the worst case of the at-least-once protocol
is a point computed twice with bit-identical results.

Layout under the queue root::

    manifest.json        coordinator-written sweep descriptor (grid
                         digest, code fingerprint, kernel, cache root)
    tasks/chunk-*.json   published, unclaimed chunks
    leases/chunk-*.json  claimed chunks (payload + lease stamp)
    done/chunk-*.json    per-chunk completion records (per-point status)
    workers/<id>.json    per-worker heartbeat/progress snapshots
    ledgers/<id>/        per-worker run ledgers (see ``repro runs merge``)
    stop                 sentinel: pull-workers drain and exit

Completion records and worker snapshots are also plain atomic-replace
JSON files, so the coordinator's poll loop only ever lists directories
and reads whole files — cheap enough to run every half second against a
10k-point sweep on NFS.

Clocks: lease expiry compares a wall-clock stamp written by the worker
against the reader's wall clock. Hosts sharing a queue are assumed
NTP-sane; the default lease (60 s) dwarfs realistic skew, and the only
cost of a wrong reclaim is duplicated deterministic work. A claimed but
not yet stamped lease has no worker clock in it: the reader ages it on
its own clock, from when it first saw it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs.ledger import atomic_write_text

__all__ = [
    "QUEUE_FORMAT_VERSION",
    "Task",
    "TaskQueue",
    "QueueStateError",
    "new_worker_id",
    "write_json_atomic",
]

#: bumped when the task/manifest layout changes incompatibly
QUEUE_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_TASKS = "tasks"
_LEASES = "leases"
_DONE = "done"
_WORKERS = "workers"
_LEDGERS = "ledgers"
_STOP = "stop"

_CHUNK_PREFIX = "chunk-"


class QueueStateError(RuntimeError):
    """The queue directory disagrees with the sweep being coordinated."""


def new_worker_id() -> str:
    """A queue-unique worker id: host + pid + entropy.

    Host and pid make the id debuggable (you can see *where* a lease
    lives); the entropy suffix keeps ids unique across pid reuse and
    containers that all think they are ``localhost`` pid 1.
    """
    import socket  # workers only: the coordinator never mints an id

    host = socket.gethostname().split(".")[0][:16] or "host"
    return f"{host}-{os.getpid()}-{os.urandom(2).hex()}"


def write_json_atomic(path: str, payload: Dict[str, Any]) -> None:
    """Write *payload* as JSON via a same-directory temp file + replace.

    Readers racing this write see either the old file or the new one,
    never a torn mix — the property every queue artifact relies on.
    """
    atomic_write_text(path, json.dumps(payload, separators=(",", ":")))


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    """Read a JSON object, tolerating races (missing/partial -> None)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


@dataclass
class Task:
    """One claimed chunk: its payload plus where its lease file lives."""

    name: str
    chunk: int
    #: ``[{"index": <grid index>, "spec": <wire dict>}, ...]``
    points: List[Dict[str, Any]]
    #: path of the lease file this worker holds
    lease_path: str
    worker_id: str
    #: wall-clock expiry of the current lease stamp
    expires_ts: float = 0.0
    #: set when a renewal discovered the lease was reclaimed from us
    lost: bool = field(default=False, compare=False)


class TaskQueue:
    """Coordinator/worker operations over one shared queue directory."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        #: lease file -> when :meth:`reclaim_expired` first saw it
        #: claimed (renamed into ``leases/``) but not yet stamped
        self._unstamped_since: Dict[str, float] = {}

    # -- paths ---------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, _MANIFEST)

    @property
    def tasks_dir(self) -> str:
        return os.path.join(self.root, _TASKS)

    @property
    def leases_dir(self) -> str:
        return os.path.join(self.root, _LEASES)

    @property
    def done_dir(self) -> str:
        return os.path.join(self.root, _DONE)

    @property
    def workers_dir(self) -> str:
        return os.path.join(self.root, _WORKERS)

    @property
    def stop_path(self) -> str:
        return os.path.join(self.root, _STOP)

    def ledger_dir(self, worker_id: str) -> str:
        """Where *worker_id* keeps its private run ledger.

        Per-worker directories exist because ``O_APPEND`` atomicity is a
        single-host guarantee — two hosts appending to one JSONL over
        NFS can interleave. Each worker appends alone;
        ``repro runs merge`` folds the shards afterwards.
        """
        return os.path.join(self.root, _LEDGERS, worker_id)

    def worker_ledger_dirs(self) -> List[str]:
        """Every per-worker ledger directory currently in the queue."""
        root = os.path.join(self.root, _LEDGERS)
        try:
            names = sorted(os.listdir(root))
        except OSError:
            return []
        return [os.path.join(root, n) for n in names
                if os.path.isdir(os.path.join(root, n))]

    # -- manifest / lifecycle ------------------------------------------------

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        """The sweep descriptor, or ``None`` when not yet published."""
        return _read_json(self.manifest_path)

    def prepare(self, manifest: Dict[str, Any]) -> None:
        """Initialize (or re-initialize) the queue for one sweep.

        A fresh directory is laid out and the manifest published. An
        existing queue is reused only when its manifest describes the
        **same grid** (``grid_digest`` matches) — the interrupted-sweep
        resume path; its stale tasks/leases/done/worker files are swept
        (completed points live on in the shared cache, which is the real
        checkpoint). A queue holding a *different* grid raises
        :class:`QueueStateError` instead of silently mixing sweeps.
        Per-worker ledgers survive re-preparation: they are history, not
        state.
        """
        existing = self.read_manifest()
        if existing is not None:
            theirs = existing.get("grid_digest")
            ours = manifest.get("grid_digest")
            if theirs != ours:
                raise QueueStateError(
                    f"queue {self.root} already holds a different sweep "
                    f"(grid {str(theirs)[:12]}... != {str(ours)[:12]}...); "
                    f"point --queue somewhere else or delete it"
                )
            for directory in (self.tasks_dir, self.leases_dir,
                              self.done_dir, self.workers_dir):
                self._clear_dir(directory)
        for directory in (self.tasks_dir, self.leases_dir, self.done_dir,
                          self.workers_dir):
            os.makedirs(directory, exist_ok=True)
        try:
            os.unlink(self.stop_path)
        except OSError:
            pass
        write_json_atomic(self.manifest_path, manifest)

    @staticmethod
    def _clear_dir(directory: str) -> None:
        try:
            names = os.listdir(directory)
        except OSError:
            return
        for name in names:
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass

    def request_stop(self) -> None:
        """Tell pull-workers to drain and exit (idempotent)."""
        try:
            with open(self.stop_path, "w", encoding="utf-8") as fh:
                fh.write(str(time.time()))
        except OSError:
            pass

    def stop_requested(self) -> bool:
        return os.path.exists(self.stop_path)

    # -- publish / claim / complete ------------------------------------------

    @staticmethod
    def chunk_filename(chunk: int) -> str:
        return f"{_CHUNK_PREFIX}{chunk:05d}.json"

    def publish(self, chunk: int, points: List[Dict[str, Any]]) -> str:
        """Publish one chunk as an unclaimed task file; returns its path."""
        payload = {
            "v": QUEUE_FORMAT_VERSION,
            "chunk": chunk,
            "points": points,
        }
        path = os.path.join(self.tasks_dir, self.chunk_filename(chunk))
        write_json_atomic(path, payload)
        return path

    def _task_names(self) -> List[str]:
        try:
            names = os.listdir(self.tasks_dir)
        except OSError:
            return []
        return sorted(n for n in names
                      if n.startswith(_CHUNK_PREFIX) and n.endswith(".json"))

    def pending_count(self) -> int:
        """Unclaimed task files currently published."""
        return len(self._task_names())

    def claim(self, worker_id: str, lease_s: float) -> Optional[Task]:
        """Claim the first available task, or ``None`` when none are free.

        First means lowest chunk id: the coordinator publishes chunks in
        dispatch order (expensive points first), and this is where that
        order takes effect. The claim is the atomic rename from
        ``tasks/`` to ``leases/``; losing a race for one file just moves
        on to the next. The winner immediately stamps the lease file with
        its id and expiry so the coordinator can tell a live claim from
        an abandoned one.
        """
        for name in self._task_names():
            src = os.path.join(self.tasks_dir, name)
            dst = os.path.join(self.leases_dir, name)
            try:
                os.replace(src, dst)
            except OSError:
                continue  # lost the race (or task vanished); next one
            payload = _read_json(dst)
            if payload is None:
                continue  # torn by a concurrent reclaim; extremely unlikely
            expires = time.time() + lease_s
            payload["lease"] = {
                "worker": worker_id,
                "claimed_ts": time.time(),
                "expires_ts": expires,
            }
            write_json_atomic(dst, payload)
            return Task(
                name=name,
                chunk=int(payload.get("chunk", -1)),
                points=list(payload.get("points", [])),
                lease_path=dst,
                worker_id=worker_id,
                expires_ts=expires,
            )
        return None

    def renew(self, task: Task, lease_s: float) -> bool:
        """Extend *task*'s lease; returns whether we still own it.

        A worker that was presumed dead (its lease expired and was
        reclaimed while it was merely slow) discovers it here: the lease
        file is gone or stamped with someone else's id. The worker keeps
        computing — results are deterministic and cache writes
        idempotent — but stops renewing and lets the other claim stand.
        """
        current = _read_json(task.lease_path)
        lease = (current or {}).get("lease") or {}
        if current is None or lease.get("worker") != task.worker_id:
            task.lost = True
            return False
        lease["expires_ts"] = time.time() + lease_s
        current["lease"] = lease
        write_json_atomic(task.lease_path, current)
        task.expires_ts = lease["expires_ts"]
        return True

    def complete(self, task: Task, record: Dict[str, Any]) -> str:
        """Write *task*'s completion record and release its lease."""
        path = os.path.join(self.done_dir, task.name)
        write_json_atomic(path, record)
        if not task.lost:
            try:
                os.unlink(task.lease_path)
            except OSError:
                pass
        return path

    def reclaim_expired(self, now: Optional[float] = None,
                        lease_s: float = 60.0) -> List[str]:
        """Move expired leases back to ``tasks/``; returns their names.

        Called by the coordinator's poll loop. A lease whose stamp is
        past expiry — or unreadable, which a healthy worker would have
        re-stamped within a renewal period — is republished for any
        worker to re-claim. A lease file with no stamp at all is a claim
        in progress (the winner renames first and stamps next): it is
        left alone until this caller has seen it unstamped for *lease_s*,
        which is how a worker that died between the two steps is still
        recovered. A chunk whose completion record already
        exists is not republished (the worker finished but died before
        releasing the lease); its lease is simply dropped.
        """
        now = time.time() if now is None else now
        reclaimed: List[str] = []
        try:
            names = sorted(os.listdir(self.leases_dir))
        except OSError:
            return reclaimed
        unstamped_since, self._unstamped_since = self._unstamped_since, {}
        for name in names:
            if not name.startswith(_CHUNK_PREFIX):
                continue
            lease_path = os.path.join(self.leases_dir, name)
            payload = _read_json(lease_path)
            if payload is None:
                continue  # mid-rewrite; the next poll sees the new stamp
            lease = payload.get("lease")
            if lease is None:
                since = unstamped_since.get(name, now)
                if now - since < lease_s:
                    self._unstamped_since[name] = since
                    continue
            expires = (lease or {}).get("expires_ts", 0.0)
            try:
                expired = float(expires) <= now
            except (TypeError, ValueError):
                expired = True
            if not expired:
                continue
            if os.path.exists(os.path.join(self.done_dir, name)):
                try:
                    os.unlink(lease_path)
                except OSError:
                    pass
                continue
            payload.pop("lease", None)
            write_json_atomic(
                os.path.join(self.tasks_dir, name), payload)
            try:
                os.unlink(lease_path)
            except OSError:
                pass
            reclaimed.append(name)
        return reclaimed

    def done_records(self) -> Dict[int, Dict[str, Any]]:
        """All completion records, keyed by chunk index."""
        out: Dict[int, Dict[str, Any]] = {}
        try:
            names = sorted(os.listdir(self.done_dir))
        except OSError:
            return out
        for name in names:
            if not name.startswith(_CHUNK_PREFIX):
                continue
            record = _read_json(os.path.join(self.done_dir, name))
            if record is None:
                continue
            try:
                out[int(record["chunk"])] = record
            except (KeyError, TypeError, ValueError):
                continue
        return out

    # -- worker heartbeats ---------------------------------------------------

    def write_worker_snapshot(self, worker_id: str,
                              snapshot: Dict[str, Any]) -> None:
        """Publish *worker_id*'s progress snapshot (best-effort)."""
        snapshot = dict(snapshot, worker=worker_id, ts=time.time())
        try:
            write_json_atomic(
                os.path.join(self.workers_dir, worker_id + ".json"), snapshot)
        except OSError:
            pass  # telemetry must never kill work

    def worker_snapshots(self) -> Dict[str, Dict[str, Any]]:
        """Every worker's most recent snapshot, keyed by worker id."""
        out: Dict[str, Dict[str, Any]] = {}
        try:
            names = sorted(os.listdir(self.workers_dir))
        except OSError:
            return out
        for name in names:
            if not name.endswith(".json"):
                continue
            snap = _read_json(os.path.join(self.workers_dir, name))
            if snap is not None:
                out[name[: -len(".json")]] = snap
        return out

    # -- inspection ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Task-file counts by state (for status displays and tests)."""
        def _count(directory: str) -> int:
            try:
                return sum(1 for n in os.listdir(directory)
                           if n.startswith(_CHUNK_PREFIX))
            except OSError:
                return 0

        return {
            "tasks": _count(self.tasks_dir),
            "leases": _count(self.leases_dir),
            "done": _count(self.done_dir),
        }
