"""Content-addressed on-disk cache for experiment results.

Every grid point in this repository is a fully deterministic simulation:
the :class:`~repro.core.experiment.ExperimentSpec` (which includes the
seed) plus the simulator source code completely determine the
:class:`~repro.core.experiment.ExperimentResult`. That makes results
perfect cache material — re-rendering a figure after touching only the
CLI or the docs should not re-run a single simulation.

An entry is addressed by two hashes:

* the **spec digest** — SHA-256 of the canonical wire-format JSON
  (:func:`repro.core.scenario.canonical_spec_json`), so any spec
  mutation misses;
* the **code fingerprint** — SHA-256 over every ``*.py`` and ``*.c``
  file under ``src/repro/``, so any simulator change invalidates the
  whole cache version at once (entries from older code stay on disk as
  *stale* versions until ``repro cache clear``). The default fingerprint
  additionally folds in the active simulation-kernel backend
  (:func:`kernel_fingerprint`): pure and compiled kernels are verified
  bit-identical, but a defect in one must never poison the other's
  cached results.

Entries live under ``~/.cache/repro-bbr/<fingerprint>/<digest>.json``
(root overridable via ``REPRO_CACHE_DIR``) and store the full result —
scalar metrics, per-flow goodputs, and any probe time series — as
compact JSON. JSON round-trips Python ints exactly and floats via
``repr``, so a cache hit reproduces the fresh run's metrics
bit-identically. Writes are atomic (temp file + ``os.replace``), so
concurrent grid runners can share one cache directory safely; corrupt or
truncated entries read back as misses.

``REPRO_CACHE=off`` (also ``0``/``no``/``false``) disables the default
cache; explicit :class:`ResultCache` instances passed to the runner are
always honoured.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Union

from .core.spec import (
    ExperimentResult,
    ExperimentSpec,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
)
from .obs.ledger import atomic_write_text
from .obs.series import TimeSeries

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CACHE_ENV_VAR",
    "CacheStats",
    "ResultCache",
    "cache_enabled",
    "code_fingerprint",
    "default_cache_dir",
    "kernel_fingerprint",
    "resolve_cache",
    "result_from_dict",
    "result_to_dict",
]

#: environment variable overriding the cache root directory
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
#: environment variable disabling the default cache ("off"/"0"/"no"/"false")
CACHE_ENV_VAR = "REPRO_CACHE"

_DISABLED_VALUES = ("0", "off", "no", "false")

#: fingerprint directories use this many hex digits (collision-safe at
#: the "versions of one codebase" scale while keeping paths short)
_FINGERPRINT_DIRLEN = 16

#: subdirectories of the cache root that belong to other subsystems and
#: must never be scanned, counted, or cleared as cache versions (the run
#: ledger of :mod:`repro.obs.ledger` lives beside the cache by default)
_RESERVED_SUBDIRS = ("ledger",)

#: result fields that need structured (non-scalar) serialization
_RESULT_SPECIAL_FIELDS = ("spec", "per_flow_goodput_mbps", "timeseries")

_code_fingerprint: Optional[str] = None


def default_cache_dir() -> str:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-bbr``."""
    env = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-bbr")


def cache_enabled() -> bool:
    """Whether the default (env-configured) cache is enabled."""
    return os.environ.get(CACHE_ENV_VAR, "").strip().lower() not in _DISABLED_VALUES


def code_fingerprint() -> str:
    """SHA-256 over the source of the installed ``repro`` package.

    Files are hashed in sorted relative-path order (paths normalized to
    ``/``), path and content both, so the fingerprint is stable across
    platforms and changes whenever any simulator source changes — which
    is exactly when cached results may no longer be reproducible.
    Computed once per process.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        root = os.path.dirname(os.path.abspath(__file__))
        paths = []
        for dirpath, dirnames, filenames in os.walk(root):
            # a build leaves one per package directory; nothing in them
            # is source
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in filenames:
                if filename.endswith((".py", ".c")):
                    full = os.path.join(dirpath, filename)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    paths.append((rel, full))
        digest = hashlib.sha256()
        for rel, full in sorted(paths):
            digest.update(rel.encode("utf-8"))
            digest.update(b"\0")
            with open(full, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def kernel_fingerprint(kernel_name: Optional[str] = None) -> str:
    """The code fingerprint specialized to a simulation-kernel backend.

    The pure kernel (the behavioral reference) keeps the plain
    :func:`code_fingerprint`, so existing caches stay valid; any other
    backend gets a derived version. *kernel_name* defaults to the
    backend the environment currently selects.
    """
    if kernel_name is None:
        from .kernel import resolve_kernel

        kernel_name = resolve_kernel().name
    base = code_fingerprint()
    if kernel_name == "pure":
        return base
    return hashlib.sha256(
        f"{base}:kernel={kernel_name}".encode("utf-8")
    ).hexdigest()


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Serialize a result to a plain JSON-compatible dict (exact round trip).

    Scalar fields are stored verbatim under ``metrics`` (ints stay ints,
    floats stay floats), the spec in its wire format, and probe series
    via :meth:`~repro.obs.series.TimeSeries.to_dict`.
    """
    metrics: Dict[str, Any] = {}
    for f in fields(ExperimentResult):
        if f.name not in _RESULT_SPECIAL_FIELDS:
            metrics[f.name] = getattr(result, f.name)
    out: Dict[str, Any] = {
        "spec": spec_to_dict(result.spec),
        "per_flow_goodput_mbps": list(result.per_flow_goodput_mbps),
        "metrics": metrics,
    }
    if result.timeseries:
        out["timeseries"] = {
            name: ts.to_dict() for name, ts in result.timeseries.items()
        }
    return out


def result_from_dict(data: Dict[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict`.

    Raises ``ValueError`` on any schema mismatch (an entry written by a
    different result layout), which the cache treats as a miss.
    """
    if not isinstance(data, dict):
        raise ValueError(f"cache entry must be a mapping, got {type(data).__name__}")
    metrics = data.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("cache entry has no metrics mapping")
    expected = {
        f.name for f in fields(ExperimentResult)
        if f.name not in _RESULT_SPECIAL_FIELDS
    }
    if set(metrics) != expected:
        raise ValueError(
            f"cache entry metric fields {sorted(metrics)} do not match "
            f"the current ExperimentResult schema {sorted(expected)}"
        )
    timeseries = {
        name: TimeSeries.from_dict(payload)
        for name, payload in data.get("timeseries", {}).items()
    }
    return ExperimentResult(
        spec=spec_from_dict(data["spec"]),
        per_flow_goodput_mbps=list(data["per_flow_goodput_mbps"]),
        timeseries=timeseries,
        **metrics,
    )


@dataclass
class CacheStats:
    """A snapshot of the cache directory's contents."""

    path: str
    fingerprint: str
    #: entries usable by the current code version
    current_entries: int
    #: entries left behind by older code fingerprints
    stale_entries: int
    #: total on-disk size of all entries, bytes
    size_bytes: int
    #: distinct code fingerprints with at least one entry
    versions: int

    @property
    def entries(self) -> int:
        """Total entries across all code versions."""
        return self.current_entries + self.stale_entries

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form for ``repro cache stats --json``."""
        return {
            "path": self.path,
            "fingerprint": self.fingerprint,
            "entries": self.entries,
            "current_entries": self.current_entries,
            "stale_entries": self.stale_entries,
            "size_bytes": self.size_bytes,
            "versions": self.versions,
        }

    def render(self) -> str:
        """Human-readable multi-line summary."""
        return (
            f"cache path : {self.path}\n"
            f"fingerprint: {self.fingerprint}\n"
            f"entries    : {self.entries} "
            f"({self.current_entries} current, {self.stale_entries} stale "
            f"across {self.versions} code version(s))\n"
            f"size       : {self.size_bytes / 1024:.1f} KiB"
        )


class ResultCache:
    """Content-addressed experiment result store on the local filesystem."""

    def __init__(self, root: Optional[str] = None,
                 fingerprint: Optional[str] = None):
        self.root = os.path.abspath(root or default_cache_dir())
        self.fingerprint = fingerprint or kernel_fingerprint()

    @property
    def version_dir(self) -> str:
        """The subdirectory holding entries for the current code version."""
        return os.path.join(self.root, self.fingerprint[:_FINGERPRINT_DIRLEN])

    def entry_path(self, spec: ExperimentSpec) -> str:
        """Where *spec*'s result lives (whether or not it exists yet)."""
        return os.path.join(self.version_dir, spec_digest(spec) + ".json")

    def get(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """The cached result for *spec*, or ``None`` on a miss.

        Unreadable or schema-mismatched entries (concurrent writer
        races, older layouts) are treated as misses, never errors.
        """
        try:
            with open(self.entry_path(spec), encoding="utf-8") as fh:
                return result_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def contains(self, spec: ExperimentSpec) -> bool:
        """Whether an entry for *spec* exists, without deserializing it.

        A cheap existence probe for coordination layers that only need
        to know "is this point done?" (the distributed sweep asks this
        per point when assembling and verifying). A ``True`` here can
        still read back as a miss if the entry is corrupt — callers that
        need the result must still :meth:`get` it.
        """
        return os.path.exists(self.entry_path(spec))

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> bool:
        """Store *result* under *spec*'s address; returns success.

        The write is atomic — the payload lands in a temp file in the
        destination directory and is ``os.replace``d into place — so
        parallel grid runners sharing the cache can never observe a
        half-written entry. Failures (read-only filesystem, disk full)
        are swallowed: a cache that cannot persist must not fail runs.
        """
        payload = json.dumps(result_to_dict(result), separators=(",", ":"))
        try:
            atomic_write_text(self.entry_path(spec), payload)
        except OSError:
            return False
        return True

    def _version_dirs(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [
            os.path.join(self.root, name)
            for name in names
            if name not in _RESERVED_SUBDIRS
            and os.path.isdir(os.path.join(self.root, name))
        ]

    def _entries(self, version_dir: str) -> List[str]:
        try:
            names = sorted(os.listdir(version_dir))
        except OSError:
            return []
        return [
            os.path.join(version_dir, name)
            for name in names
            if name.endswith(".json") and not name.startswith(".tmp-")
        ]

    def stats(self) -> CacheStats:
        """Count entries and bytes, split current vs stale code versions."""
        current = stale = size = versions = 0
        current_dir = self.version_dir
        for version_dir in self._version_dirs():
            entries = self._entries(version_dir)
            if not entries:
                continue
            versions += 1
            for path in entries:
                try:
                    size += os.path.getsize(path)
                except OSError:
                    continue
                if version_dir == current_dir:
                    current += 1
                else:
                    stale += 1
        return CacheStats(
            path=self.root,
            fingerprint=self.fingerprint,
            current_entries=current,
            stale_entries=stale,
            size_bytes=size,
            versions=versions,
        )

    def clear(self, stale_only: bool = False) -> int:
        """Delete entries (all versions, or only stale ones); returns count.

        Emptied version directories are removed too; the cache root is
        left in place.
        """
        removed = 0
        current_dir = self.version_dir
        for version_dir in self._version_dirs():
            if stale_only and version_dir == current_dir:
                continue
            for path in self._entries(version_dir):
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    continue
            try:
                os.rmdir(version_dir)
            except OSError:
                pass  # stray temp files or concurrent writers; leave it
        return removed


def resolve_cache(
    cache: Union[None, bool, ResultCache] = None,
) -> Optional[ResultCache]:
    """Resolve the runner's ``cache`` argument to a store (or ``None``).

    ``None`` means *default*: a cache in the env-configured location,
    unless ``REPRO_CACHE`` disables it. ``False`` forces caching off,
    ``True`` forces the default cache on regardless of the environment,
    and an explicit :class:`ResultCache` is used as-is.
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is False:
        return None
    if cache is None and not cache_enabled():
        return None
    return ResultCache()
