"""Run ledger: a persistent, append-only history of what was run.

Every simulation in this repository is deterministic, cached, and
cheap to describe — yet until this module the *history* of runs
evaporated with the process: there was no persistent record of which
specs ran, under which kernel, at what throughput, with how many cache
hits. The ledger fixes that. Each :func:`repro.core.experiment.run_experiment`
and :func:`repro.runner.run_grid_report` invocation appends one
structured manifest record to a JSONL file:

* **run records** (``kind="run"``) — one simulated experiment: the spec
  digest plus a canonical-JSON ref, the kernel backend, the code
  fingerprint, a flow summary, every scalar metric, and wall/sim timing;
* **grid records** (``kind="grid"``) — one grid invocation: per-point
  digests/labels/metrics (cache hits included, so a fully-cached re-run
  is still diffable), cache hit/miss/skip and chunk counters, per-point
  :class:`~repro.runner.GridPointError` messages, and aggregate timing
  with its per-phase split (``phase_s``: expand / probe / dispatch /
  store, see :class:`~repro.runner.GridReport`) and the workers' summed
  per-point wall time (``busy_s``; over ``jobs * phase_s.dispatch`` it
  is the dispatch balance).

The ledger lives under ``~/.cache/repro-bbr/ledger/`` next to the
result cache (``REPRO_LEDGER_DIR`` overrides the location,
``REPRO_LEDGER=off`` disables writing). Appends are atomic — each
record is a single ``O_APPEND`` ``write()`` of one complete line — so
pool workers appending concurrently can never interleave partial
records. Writes mirror :mod:`repro.cache`'s swallow semantics: a ledger
that cannot persist (read-only filesystem, disk full) must never fail a
run.

Canonical spec JSON is stored once per digest under
``<root>/specs/<digest>.json`` so records stay compact while every
digest in the ledger remains resolvable back to the exact spec that
produced it.

The CLI surface is ``repro runs list | show | diff | prune``
(:mod:`repro.cli`); :func:`diff_records` implements the metric diff with
its CI-facing exit-code contract.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "LEDGER_DIR_ENV_VAR",
    "LEDGER_ENV_VAR",
    "LEDGER_RECORD_VERSION",
    "RunLedger",
    "atomic_append_line",
    "atomic_write_text",
    "default_ledger_dir",
    "diff_records",
    "grid_record",
    "ledger_enabled",
    "merge_ledgers",
    "record_metrics_by_digest",
    "resolve_ledger",
    "run_record",
]

#: environment variable overriding the ledger directory
LEDGER_DIR_ENV_VAR = "REPRO_LEDGER_DIR"
#: environment variable disabling the ledger ("off"/"0"/"no"/"false")
LEDGER_ENV_VAR = "REPRO_LEDGER"

_DISABLED_VALUES = ("0", "off", "no", "false")

#: schema version stamped into every record
LEDGER_RECORD_VERSION = 1

#: ledger file name inside the ledger directory
_LEDGER_FILENAME = "ledger.jsonl"
#: subdirectory holding one canonical spec JSON per digest
_SPECS_SUBDIR = "specs"


def default_ledger_dir() -> str:
    """The ledger root: ``$REPRO_LEDGER_DIR`` or ``<cache root>/ledger``.

    Sharing the cache root (``~/.cache/repro-bbr`` unless
    ``REPRO_CACHE_DIR`` moves it) keeps every persistent artifact of a
    machine in one place; :mod:`repro.cache` knows to leave the
    ``ledger`` subdirectory alone when clearing.
    """
    env = os.environ.get(LEDGER_DIR_ENV_VAR, "").strip()
    if env:
        return env
    from ..cache import default_cache_dir

    return os.path.join(default_cache_dir(), "ledger")


def ledger_enabled() -> bool:
    """Whether the default (env-configured) ledger is enabled."""
    return os.environ.get(LEDGER_ENV_VAR, "").strip().lower() not in _DISABLED_VALUES


def atomic_append_line(path: str, line: str) -> bool:
    """Append one complete line to *path* atomically; returns success.

    The payload goes down in a single ``write()`` on an ``O_APPEND``
    descriptor, so concurrent appenders (grid pool workers, parallel CI
    jobs sharing a ledger) serialize at the file offset and can never
    interleave partial records. Failures are swallowed into ``False`` —
    the ledger never fails a run.
    """
    data = (line.rstrip("\n") + "\n").encode("utf-8")
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
    except OSError:
        return False
    return True


def atomic_write_text(path: str, text: str) -> None:
    """Write *text* to *path* via a same-directory temp file + replace.

    Readers racing the write see the old file or the new one, never a
    torn mix, and a failed write leaves no temp file behind. Raises
    ``OSError``. Every whole-file write of the package (cache entries,
    spec refs, queue artifacts) goes through here, which makes this the
    one place that imports ``tempfile``, and only when called: a warm
    run writes no file, and ``tempfile`` loads ``random`` and ``bisect``
    behind it.
    """
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.splitext(path)[1])
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _new_record_id() -> str:
    """A short unique id for one ledger record (wall clock + entropy)."""
    return f"{int(time.time()):x}{os.urandom(4).hex()}"


def _flow_summary(spec) -> Dict[str, Any]:
    """Compact description of the spec's flow plan for the record."""
    if spec.flows:
        return {
            "ccs": list(dict.fromkeys(f.cc for f in spec.flows)),
            "static": sum(f.count for f in spec.flows),
            "churn": any(f.arrival_rate_hz > 0 for f in spec.flows),
        }
    return {"ccs": [spec.cc], "static": spec.connections, "churn": False}


def run_record(
    spec,
    result,
    wall_s: float,
    kernel: Optional[str] = None,
) -> Dict[str, Any]:
    """Build the manifest record for one completed experiment."""
    from ..cache import code_fingerprint
    from ..core.spec import spec_digest
    from ..kernel import resolve_kernel

    events = result.events_processed
    return {
        "v": LEDGER_RECORD_VERSION,
        "id": _new_record_id(),
        "kind": "run",
        "ts": time.time(),
        "label": spec.label(),
        "spec_digest": spec_digest(spec),
        "kernel": kernel if kernel is not None else resolve_kernel().name,
        "fingerprint": code_fingerprint()[:16],
        "flows": _flow_summary(spec),
        "metrics": result.scalar_metrics(),
        "wall_s": wall_s,
        "sim_s": spec.duration_s,
        "events": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
    }


def grid_record(
    specs: Sequence, report, extra: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Build the manifest record for one grid invocation.

    Every point appears — computed, cached, or failed — keyed by its
    spec digest, with its full scalar metrics when it produced a result.
    Cache hits carry metrics too, so ``repro runs diff`` works between a
    cold run and a fully-cached re-run. *extra* adds caller-owned keys
    (the distributed coordinator journals its queue/worker/reclaim
    summary this way) without being able to clobber the core schema.
    """
    from ..cache import code_fingerprint
    from ..core.spec import spec_digest
    from ..runner import GridPointError

    points: List[Dict[str, Any]] = []
    for index, (spec, result) in enumerate(zip(specs, report.results)):
        point: Dict[str, Any] = {
            "digest": spec_digest(spec),
            "label": spec.label(),
            "cache_hit": index in report.cache_hit_indices,
        }
        if isinstance(result, GridPointError):
            point["error"] = result.error
        else:
            point["metrics"] = result.scalar_metrics()
        points.append(point)
    record = dict(extra) if extra else {}
    record.update({
        "v": LEDGER_RECORD_VERSION,
        "id": _new_record_id(),
        "kind": "grid",
        "ts": time.time(),
        "kernel": report.kernel,
        "fingerprint": code_fingerprint()[:16],
        "points": points,
        "cache": {
            "used": report.cache_used,
            "hits": report.cache_hits,
            "misses": report.cache_misses,
            "skipped": report.cache_skipped,
        },
        "jobs": report.jobs,
        "chunk": report.chunk,
        "errors": len(report.errors),
        "wall_s": report.wall_s,
        "phase_s": dict(report.phase_s),
        "busy_s": report.busy_s,
        "events": report.total_events,
        "events_per_sec": report.events_per_sec,
    })
    return record


class RunLedger:
    """Append-only JSONL store of run/grid manifest records."""

    def __init__(self, root: Optional[str] = None):
        self.root = os.path.abspath(root or default_ledger_dir())

    @property
    def path(self) -> str:
        """The ledger JSONL file."""
        return os.path.join(self.root, _LEDGER_FILENAME)

    @property
    def specs_dir(self) -> str:
        """Directory of canonical spec JSON files, one per digest."""
        return os.path.join(self.root, _SPECS_SUBDIR)

    def spec_ref_path(self, digest: str) -> str:
        """Where the canonical spec JSON for *digest* lives."""
        return os.path.join(self.specs_dir, digest + ".json")

    def append(self, record: Dict[str, Any]) -> Optional[str]:
        """Append *record*; returns its id on success, ``None`` on failure.

        Serialization errors and filesystem errors are both swallowed —
        the ledger must never fail the run it is describing.
        """
        try:
            line = json.dumps(record, separators=(",", ":"))
        except (TypeError, ValueError):
            return None
        if not atomic_append_line(self.path, line):
            return None
        return record.get("id")

    def write_spec_ref(self, spec) -> bool:
        """Store *spec*'s canonical JSON under its digest (idempotent)."""
        from ..core.spec import canonical_spec_json, spec_digest

        path = self.spec_ref_path(spec_digest(spec))
        if os.path.exists(path):
            return True
        try:
            atomic_write_text(path, canonical_spec_json(spec))
        except OSError:
            return False
        return True

    def record_run(self, spec, result, wall_s: float,
                   kernel: Optional[str] = None) -> Optional[str]:
        """Append a run record (plus its spec ref); never raises."""
        try:
            self.write_spec_ref(spec)
            return self.append(run_record(spec, result, wall_s, kernel=kernel))
        except Exception:  # noqa: BLE001 - ledger never fails a run
            return None

    def record_grid(self, specs: Sequence, report,
                    extra: Optional[Dict[str, Any]] = None) -> Optional[str]:
        """Append a grid record (plus every point's spec ref); never raises."""
        try:
            for spec in specs:
                self.write_spec_ref(spec)
            return self.append(grid_record(specs, report, extra=extra))
        except Exception:  # noqa: BLE001 - ledger never fails a run
            return None

    def records(
        self,
        limit: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Stored records, oldest first; corrupt lines are skipped.

        *limit* keeps only the most recent records (after filtering by
        *kind*), matching what ``repro runs list`` shows.
        """
        out: List[Dict[str, Any]] = []
        try:
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if not isinstance(record, dict) or "id" not in record:
                        continue
                    if kind is not None and record.get("kind") != kind:
                        continue
                    out.append(record)
        except OSError:
            return []
        if limit is not None and limit >= 0:
            out = out[-limit:] if limit else []
        return out

    def find(self, id_prefix: str) -> Dict[str, Any]:
        """The unique record whose id starts with *id_prefix*.

        Raises ``KeyError`` when no record matches and ``ValueError``
        when the prefix is ambiguous (the message lists the candidates).
        """
        if not id_prefix:
            raise KeyError("empty record id")
        matches = [r for r in self.records()
                   if str(r.get("id", "")).startswith(id_prefix)]
        if not matches:
            raise KeyError(f"no ledger record with id {id_prefix!r} "
                           f"under {self.path}")
        ids = {str(r["id"]) for r in matches}
        if len(ids) > 1:
            raise ValueError(
                f"record id {id_prefix!r} is ambiguous: "
                f"{', '.join(sorted(ids))}"
            )
        return matches[-1]

    def prune(self, keep: int = 0) -> int:
        """Drop all but the most recent *keep* records; returns removed count.

        The ledger file is rewritten atomically; spec refs no longer
        referenced by any surviving record are deleted too.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        records = self.records()
        kept = records[-keep:] if keep else []
        removed = len(records) - len(kept)
        try:
            atomic_write_text(self.path, "".join(
                json.dumps(record, separators=(",", ":")) + "\n"
                for record in kept))
        except OSError:
            return 0
        live_digests = set()
        for record in kept:
            live_digests.update(record_metrics_by_digest(record))
        try:
            for name in os.listdir(self.specs_dir):
                if not name.endswith(".json"):
                    continue
                if name[: -len(".json")] not in live_digests:
                    try:
                        os.unlink(os.path.join(self.specs_dir, name))
                    except OSError:
                        pass
        except OSError:
            pass
        return removed


def record_metrics_by_digest(
    record: Dict[str, Any],
) -> Dict[str, Dict[str, float]]:
    """Map spec digest -> scalar metrics for either record kind.

    Run records contribute their single point; grid records contribute
    every point that produced metrics (failed points are skipped). This
    is the join key :func:`diff_records` compares on.
    """
    out: Dict[str, Dict[str, float]] = {}
    if record.get("kind") == "run":
        digest = record.get("spec_digest")
        metrics = record.get("metrics")
        if isinstance(digest, str) and isinstance(metrics, dict):
            out[digest] = metrics
    elif record.get("kind") == "grid":
        for point in record.get("points", []):
            if not isinstance(point, dict):
                continue
            digest = point.get("digest")
            metrics = point.get("metrics")
            if isinstance(digest, str) and isinstance(metrics, dict):
                out[digest] = metrics
    return out


def diff_records(
    a: Dict[str, Any],
    b: Dict[str, Any],
    tol: float = 0.0,
) -> Tuple[List[Dict[str, Any]], int]:
    """Compare two records' scalar metrics by spec digest.

    Returns ``(rows, exit_code)``. Each row describes one metric on one
    shared digest whose values differ beyond *tol* (relative tolerance:
    ``|a-b| > tol * max(|a|, |b|)``; ``tol=0`` demands exact equality).
    The exit code is the CI contract of ``repro runs diff``:

    * ``0`` — every compared metric within tolerance,
    * ``1`` — at least one metric differs beyond tolerance,
    * ``2`` — the records share no spec digests (nothing comparable).
    """
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    metrics_a = record_metrics_by_digest(a)
    metrics_b = record_metrics_by_digest(b)
    shared = sorted(set(metrics_a) & set(metrics_b))
    if not shared:
        return [], 2
    rows: List[Dict[str, Any]] = []
    for digest in shared:
        ma, mb = metrics_a[digest], metrics_b[digest]
        for name in sorted(set(ma) | set(mb)):
            if name not in ma or name not in mb:
                rows.append({
                    "digest": digest, "metric": name,
                    "a": ma.get(name), "b": mb.get(name),
                    "delta": None,
                })
                continue
            va, vb = float(ma[name]), float(mb[name])
            if va == vb:
                continue
            scale = max(abs(va), abs(vb))
            if abs(va - vb) > tol * scale:
                rows.append({
                    "digest": digest, "metric": name,
                    "a": va, "b": vb, "delta": vb - va,
                })
    return rows, (1 if rows else 0)


def merge_ledgers(
    sources: Sequence[Union[str, "RunLedger"]],
    dest: Union[None, str, "RunLedger"] = None,
) -> Tuple["RunLedger", int]:
    """Fold per-worker ledger shards into one queryable ledger.

    A distributed sweep gives every worker a private ledger directory
    (``O_APPEND`` line atomicity is a single-host guarantee, so workers
    on different hosts must never share one JSONL file); this merge
    makes the shards usable by ``repro runs list|diff`` again. Records
    are deduplicated by id against the destination and each other,
    ordered by timestamp (ties by id, so the merge is deterministic),
    and appended with their spec refs copied alongside. Returns the
    destination ledger and the number of records added. Sources are read
    only — re-merging is idempotent.
    """
    dest_ledger = (dest if isinstance(dest, RunLedger)
                   else RunLedger(root=dest))
    seen = {str(r.get("id")) for r in dest_ledger.records()}
    incoming: List[Tuple[Any, str, Dict[str, Any], "RunLedger"]] = []
    added = 0
    for source in sources:
        src_ledger = (source if isinstance(source, RunLedger)
                      else RunLedger(root=source))
        if os.path.abspath(src_ledger.root) == os.path.abspath(dest_ledger.root):
            continue
        for record in src_ledger.records():
            rid = str(record.get("id"))
            if rid in seen:
                continue
            seen.add(rid)
            incoming.append((record.get("ts", 0.0), rid, record, src_ledger))
    incoming.sort(key=lambda item: (item[0], item[1]))
    for _ts, _rid, record, src_ledger in incoming:
        for digest in record_metrics_by_digest(record):
            src_path = src_ledger.spec_ref_path(digest)
            dst_path = dest_ledger.spec_ref_path(digest)
            if os.path.exists(dst_path) or not os.path.exists(src_path):
                continue
            try:
                with open(src_path, encoding="utf-8") as fh:
                    atomic_write_text(dst_path, fh.read())
            except OSError:
                pass  # a missing spec ref degrades `runs show`, not the merge
        if dest_ledger.append(record) is not None:
            added += 1
    return dest_ledger, added


def resolve_ledger(
    ledger: Union[None, bool, "RunLedger"] = None,
) -> Optional["RunLedger"]:
    """Resolve a ``ledger`` argument to a store (or ``None``).

    Mirrors :func:`repro.cache.resolve_cache`: ``None`` means the
    env-configured default (off when ``REPRO_LEDGER`` disables it),
    ``False`` forces off, ``True`` forces the default on, and an
    explicit :class:`RunLedger` is used as-is.
    """
    if isinstance(ledger, RunLedger):
        return ledger
    if ledger is False:
        return None
    if ledger is None and not ledger_enabled():
        return None
    return RunLedger()
