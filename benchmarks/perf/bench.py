#!/usr/bin/env python3
"""The repo benchmark: one workload through every execution path a user has.

    python3 benchmarks/perf/bench.py --workload W [--seed S] [--seconds N] [--trace 0|1]

builds the C kernel from source, generates workload *W*'s scenario from
the seed, and runs it

* in-process through ``run_experiment`` under the compiled and the pure
  kernel (cache and ledger off),
* through a fresh ``python -m repro grid --jobs 2`` process, cold (empty
  cache) and again warm (every point a cache hit), and
* through ``python -m repro sweep --distributed --workers 2``,

interleaving reps of the paths in weighted round-robin for ``--seconds``.
Every point's ``scalar_metrics()`` on every path must equal the pure
in-process result of the same invocation (and the committed reference
where the scenario matches it); ``failed`` counts the ones that do not.
With ``--trace 0`` the end-to-end metrics are reported; ``--trace 1`` is
a separate traced run that reports the per-layer metrics. Metric names,
units and bounds live in ``BENCHMARK.json``; README.md explains the
method.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

Other modes: ``--selfcheck``, ``--compare A B``, ``--update-reference``,
``--figures`` (see README.md).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
REFERENCE_DIR = HERE / "reference"
#: scratch space for scenario files, caches, ledgers and queues; one
#: fresh subdirectory per invocation, removed on exit
WORK_DIR = HERE / ".work"

# The benchmark's own modules, and (imported only after the build) repro.
sys.path[:0] = [str(HERE), str(SRC)]

import layers  # noqa: E402
import workloads  # noqa: E402

KERNEL_NAMES = ("compiled", "pure")
#: worker processes per CLI path: closed-loop load, never above the cores
JOBS = max(1, min(2, os.cpu_count() or 1))
#: forced builds (+ fresh-process warm-ups) per run; setup_s is their median
SETUP_REPS = 3
#: path -> share of the reps it gets. The CLI paths are the noisiest
#: (fresh processes, two workers on two cores) and the pure pass the
#: most expensive, so per pure pass there are two compiled passes, two
#: distributed sweeps and four cold+warm grid pairs.
WEIGHTS = {"grid": 4, "dist": 2, "compiled": 2, "pure": 1}
#: the whole invocation must end well inside the driver's 180 s limit
WATCHDOG_S = 170

#: name, unit, better, bound (share of the parent's median), statistic.
#: The statistic is how one run's reps become the reported value:
#: "envelope" sums, over the independently timed units of a rep (the
#: points of an in-process pass, the one process of a CLI rep), each
#: unit's fastest time in any rep; README.md has the evidence that on a
#: shared host this is 2-3x steadier than the median of the reps.
END_TO_END: Tuple[Tuple[str, str, str, float, str], ...] = (
    ("setup_s", "s", "lower", 0.25, "median"),
    ("sim_wall_s.compiled", "s", "lower", 0.20, "envelope"),
    ("sim_wall_s.pure", "s", "lower", 0.20, "envelope"),
    ("grid_cold_wall_s", "s", "lower", 0.25, "envelope"),
    ("grid_warm_wall_s", "s", "lower", 0.25, "envelope"),
    ("dist_cold_done_s", "s", "lower", 0.25, "envelope"),
    ("peak_rss_mib", "MiB", "lower", 0.05, "median"),
)

#: layer-probe and derived per-layer metrics: name, unit, better
_PROBE_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.dispatch_ns_per_event.pure", "ns", "lower"),
    ("sim.dispatch_ns_per_event.compiled", "ns", "lower"),
    ("sim.timer_rearm_ns.pure", "ns", "lower"),
    ("sim.timer_rearm_ns.compiled", "ns", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.host_ns_per_event.pure", "ns", "lower"),
    ("sim.host_ns_per_event.compiled", "ns", "lower"),
    ("cpu.work_item_ns.pure", "ns", "lower"),
    ("cpu.work_item_ns.compiled", "ns", "lower"),
    ("netsim.hop_ns_per_packet.pure", "ns", "lower"),
    ("netsim.hop_ns_per_packet.compiled", "ns", "lower"),
    ("netsim.router_dropped_segments", "count", "lower"),
    ("netsim.packet_pool_reuse_ratio", "ratio", "higher"),
    ("tcp.ack_ns.pure", "ns", "lower"),
    ("tcp.ack_ns.compiled", "ns", "lower"),
    ("tcp.retransmitted_segments", "count", "lower"),
    ("tcp.rto_count", "count", "lower"),
    ("tcp.pacing_periods", "count", "lower"),
    ("core.expand_us_per_point", "us", "lower"),
    ("core.digest_us_per_point", "us", "lower"),
    ("core.assemble_ms_per_point", "ms", "lower"),
    ("cache.miss_us", "us", "lower"),
    ("cache.put_us", "us", "lower"),
    ("cache.hit_us", "us", "lower"),
    ("cache.warm_hit_ratio", "ratio", "higher"),
    ("cache.entry_bytes", "bytes", "lower"),
    ("obs.ledger_run_us", "us", "lower"),
    ("obs.ledger_grid_ms", "ms", "lower"),
    ("runner.parallel_speedup", "x", "higher"),
    ("runner.serial_overhead_s", "s", "lower"),
    ("dist.queue_cycle_ms", "ms", "lower"),
    ("dist.cold_wall_s", "s", "lower"),
    ("dist.overhead_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("kernel.build_s", "s", "lower"),
    ("kernel.speedup", "x", "higher"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric: the probes, then the trace table per kernel."""
    out = list(_PROBE_METRICS)
    for kernel in KERNEL_NAMES:
        for layer in layers.LAYERS:
            out.append((f"trace.{kernel}.{layer}.self_s", "s", "lower"))
            out.append((f"trace.{kernel}.{layer}.calls", "count", "lower"))
        out.append((f"trace.{kernel}.overhead_ratio", "x", "lower"))
    return out


def manifest() -> Dict[str, Any]:
    """What ``BENCHMARK.json`` must contain (test_bench.py compares them)."""
    return {
        "command": ["python3", "benchmarks/perf/bench.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": 20,
        "workloads": [
            {"name": name, "why": why}
            for name, why in workloads.WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b in per_layer_metrics()
        ],
    }


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy measurement."""


# -- statistics ---------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """median / min / q1 / q3 / n of one list of rep times."""
    q1, _, q3 = quartiles(values)
    return {
        "median": statistics.median(values), "min": min(values),
        "q1": q1, "q3": q3, "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def envelope(reps: Sequence[Sequence[float]]) -> float:
    """Sum over units of each unit's fastest time in any rep."""
    return sum(min(unit) for unit in zip(*reps))


def reported(statistic: str, reps: Sequence[Sequence[float]]) -> float:
    """One run's value of a metric from its reps' unit times."""
    if statistic == "envelope":
        return envelope(reps)
    return statistics.median(sum(rep) for rep in reps)


# -- environment --------------------------------------------------------------


def scrubbed_env(environ: Dict[str, str]) -> Dict[str, str]:
    """*environ* without any ``REPRO_*`` setting, importing ``repro`` from src/.

    An inherited ``REPRO_KERNEL``/``JOBS``/``CHUNK``/``CACHE*``/``LEDGER*``
    would silently change what is timed; every knob a path needs is set
    explicitly per child instead.
    """
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@contextmanager
def work_dir() -> Iterator[Path]:
    """A fresh directory under ``benchmarks/perf/.work``, removed on exit."""
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another invocation is using it


# -- spans and correctness accounting ----------------------------------------


class Spans:
    """In-memory span recorder: name, start, end, parent; written at exit."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        row = {"id": len(self.rows), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A closed child span of the innermost open one."""
        self.rows.append({"id": len(self.rows), "name": name,
                          "parent": self._open[-1] if self._open else None,
                          "start": start, "end": end})


class Checks:
    """failed / attempted over every point x path."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def point(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def path(self, points: int, what: str) -> None:
        """A path rep that failed as a whole fails every point it carried."""
        for i in range(points):
            self.point(False, f"{what} (point {i})")


def canon(result) -> str:
    """Canonical JSON of a result's scalar metrics (the compared bytes)."""
    return json.dumps(result.scalar_metrics(), sort_keys=True)


def metrics_digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- building the kernel ------------------------------------------------------


def build_kernel(env: Dict[str, str]) -> float:
    """Force-rebuild ``repro._ckernel`` in place; returns the wall seconds.

    Nothing ties a loaded ``.so`` to ``_ckernel.c`` (``code_fingerprint``
    hashes sources only), so a stale extension would be timed silently.
    The old one is deleted first: a build that fails leaves no kernel.
    """
    for stale in (SRC / "repro").glob("_ckernel*.so"):
        stale.unlink()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--force"],
        cwd=ROOT, env={**env, "REPRO_BUILD_CKERNEL": "require"},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not list((SRC / "repro").glob("_ckernel*.so")):
        raise BenchError(
            "could not build the compiled kernel:\n" + proc.stdout[-2000:])
    return wall


#: what a fresh process does between the build and its first timed rep
_WARMUP_SNIPPET = """
import dataclasses, os, sys
from repro import KERNELS, load_scenario, run_experiment
assert KERNELS.get("compiled").available, "compiled kernel not importable"
spec = dataclasses.replace(load_scenario(sys.argv[1])[0],
                           duration_s=0.2, warmup_s=0.1)
for kernel in ("compiled", "pure"):
    os.environ["REPRO_KERNEL"] = kernel
    run_experiment(spec, ledger=False)
"""


# -- the benchmark ------------------------------------------------------------


class Bench:
    """One workload, set up once, measurable path by path."""

    def __init__(self, workload: str, seed: int, work: Path,
                 spans: Spans, checks: Checks) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.spans = spans
        self.checks = checks
        self.env = scrubbed_env(dict(os.environ))
        # the compiler, tempfile and multiprocessing write here, not /tmp
        self.env["TMPDIR"] = str(work)
        #: metric -> one wall time per rep, and the same split into units
        self.samples: Dict[str, List[float]] = {}
        self.units: Dict[str, List[List[float]]] = {}
        self.cpu_samples: Dict[str, List[float]] = {}
        self.scenario = work / f"{workload}.json"
        self.scenario.write_text(
            json.dumps(workloads.scenario_doc(workload, seed), indent=2))
        self._serial = 0
        #: False only while --update-reference regenerates the file
        self.use_committed_reference = True

    def record(self, name: str, wall: float, cpu: Optional[float] = None,
               units: Optional[List[float]] = None) -> None:
        self.samples.setdefault(name, []).append(wall)
        self.units.setdefault(name, []).append(units or [wall])
        if cpu is not None:
            self.cpu_samples.setdefault(name, []).append(cpu)

    def best(self, name: str) -> float:
        """The fastest rep of *name* (what the traced run's ratios use)."""
        return min(self.samples[name])

    def value(self, name: str, statistic: str) -> float:
        if name not in self.units:
            raise BenchError(f"no rep of {name} completed")
        return reported(statistic, self.units[name])

    # -- set-up ---------------------------------------------------------------

    def setup(self, reps: int) -> None:
        """Build + fresh-process warm-up *reps* times, then load in-process."""
        with self.spans.span("setup"):
            for _ in range(reps):
                t0 = time.perf_counter()
                self.record("kernel.build_s", build_kernel(self.env))
                proc = subprocess.run(
                    [sys.executable, "-c", _WARMUP_SNIPPET, str(self.scenario)],
                    cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT, text=True,
                )
                if proc.returncode != 0:
                    raise BenchError("warm-up process failed:\n" + proc.stdout)
                self.record("setup_s", time.perf_counter() - t0)
            self._load()

    def _load(self) -> None:
        """Import the freshly built package; the first pass per kernel.

        The first pure pass is this invocation's reference: every later
        point on every path must reproduce its metrics exactly. Both
        passes are timed like any other rep; being cold they are slow,
        which the envelope statistic ignores.
        """
        import repro
        import repro._ckernel as ck

        if Path(ck.__file__).resolve().parent != SRC / "repro":
            raise BenchError(f"loaded a kernel from outside src/: {ck.__file__}")
        self.repro = repro
        self.doc = repro.load_scenario_doc(str(self.scenario))
        self.specs = repro.expand_scenario(self.doc)
        self.fingerprint = repro.kernel_fingerprint("compiled")
        with self.spans.span("first-pass"):
            self.pure_results = self._pass("pure", check=False,
                                           name="sim_wall_s.pure")
            failed = [r for r in self.pure_results if isinstance(r, Exception)]
            if failed:
                raise BenchError(f"pure reference pass raised: {failed[0]!r}")
            self.reference = [canon(r) for r in self.pure_results]
            if self.use_committed_reference:
                self._check_committed_reference()
            self.rep_sim("compiled")

    def _check_committed_reference(self) -> None:
        """Compare with ``reference/<workload>.json`` where it applies.

        The reference was generated at the default seed; it applies to
        this invocation exactly when the generated specs are the same.
        """
        path = REFERENCE_DIR / f"{self.workload}.json"
        if not path.exists():
            raise BenchError(f"missing {path}; run --update-reference")
        committed = json.loads(path.read_text())["points"]
        digests = [self.repro.spec_digest(s) for s in self.specs]
        if digests != [p["spec_digest"] for p in committed]:
            return
        for i, (point, mine) in enumerate(zip(committed, self.reference)):
            self.checks.point(
                point["metrics_sha256"] == metrics_digest(mine),
                f"point {i} differs from the committed reference")

    # -- in-process passes ----------------------------------------------------

    def _pass(self, kernel: str, check: bool = True,
              profiler: Optional[cProfile.Profile] = None,
              name: Optional[str] = None) -> List[Any]:
        """Simulate the spec list serially under *kernel*; time it as *name*."""
        os.environ["REPRO_KERNEL"] = kernel
        active = self.repro.resolve_kernel().name
        run_experiment = self.repro.run_experiment
        results: List[Any] = []
        marks: List[Tuple[float, float]] = []
        gc.collect()
        with self.spans.span(name or f"pass.{kernel}"):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            for spec in self.specs:
                p0 = time.perf_counter()
                try:
                    results.append(run_experiment(spec, ledger=False))
                except Exception as exc:  # noqa: BLE001 - counted per point
                    results.append(exc)
                marks.append((p0, time.perf_counter()))
            if profiler is not None:
                profiler.disable()
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            for i, (start, end) in enumerate(marks):
                self.spans.add(f"point.{i}", start, end)
        if name is not None:
            self.record(name, wall, cpu, [end - p0 for p0, end in marks])
        if check:
            for i, result in enumerate(results):
                ok = (active == kernel and not isinstance(result, Exception)
                      and canon(result) == self.reference[i])
                self.checks.point(ok, f"in-process {kernel} point {i}: "
                                      f"kernel={active} result={result!r:.80}")
        return results

    def rep_sim(self, kernel: str) -> List[Any]:
        """One timed in-process pass; the previous results are dropped first."""
        return self._pass(kernel, name=f"sim_wall_s.{kernel}")

    # -- CLI paths ------------------------------------------------------------

    def _cli(self, name: str, argv: List[str], env: Dict[str, str]):
        """Run ``python -m repro *argv`` to completion; time it as *name*.

        Returns ``(output, peak_rss_mib, launched)`` with *launched* on
        the ``time.time()`` clock file timestamps use. The child is reaped
        with ``wait4`` so its rusage (own tree only) is available.
        """
        self._serial += 1
        log_path = self.work / f"cli-{self._serial}.log"
        gc.collect()
        with self.spans.span(name), open(log_path, "w") as log:
            launched = time.time()
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *argv], cwd=ROOT, env=env,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.record(name, wall, usage.ru_utime + usage.ru_stime)
        output = log_path.read_text()
        if proc.returncode != 0:
            output += f"\n[exit code {proc.returncode}]"
        return output, usage.ru_maxrss / 1024.0, launched

    def _cli_env(self, tag: str) -> Tuple[Dict[str, str], Path]:
        """Child environment with a fresh cache and ledger directory."""
        self._serial += 1
        base = self.work / f"{tag}-{self._serial}"
        env = dict(self.env)
        env["REPRO_KERNEL"] = "compiled"
        env["REPRO_CACHE_DIR"] = str(base / "cache")
        env["REPRO_LEDGER_DIR"] = str(base / "ledger")
        return env, base

    def _check_cli(self, what: str, output: str, base: Path,
                   expect: str, kernel_mark: str) -> None:
        """Summary line says compiled + *expect*; cached results == reference."""
        n = len(self.specs)
        if "[exit code" in output or kernel_mark not in output \
                or expect not in output:
            self.checks.path(n, f"{what}: want {kernel_mark!r} and "
                                f"{expect!r} in: {output[-300:]!r}")
            return
        store = self.repro.ResultCache(root=str(base / "cache"),
                                       fingerprint=self.fingerprint)
        for i, spec in enumerate(self.specs):
            hit = store.get(spec)
            self.checks.point(
                hit is not None and canon(hit) == self.reference[i],
                f"{what} point {i}: cached result differs from pure")

    def rep_grid(self) -> None:
        """Cold ``repro grid``, then the same command again, warm."""
        n = len(self.specs)
        env, base = self._cli_env("grid")
        argv = ["grid", "--scenario", str(self.scenario), "--jobs", str(JOBS)]
        output, rss, _ = self._cli("grid_cold_wall_s", argv, env)
        self._check_cli("cold grid", output, base,
                        f"cache hits=0 misses={n}", "kernel=compiled[")
        self.record("peak_rss_mib", rss)
        output, _, _ = self._cli("grid_warm_wall_s", argv, env)
        self._check_cli("warm grid", output, base,
                        f"cache hits={n} misses=0", "kernel=compiled[")
        hits = re.search(r"cache hits=(\d+)", output)
        self.warm_hit_ratio = int(hits.group(1)) / n if hits else 0.0
        shutil.rmtree(base, ignore_errors=True)

    def rep_dist(self) -> None:
        """``repro sweep --distributed`` on a fresh queue and cache.

        The command's wall time is quantised: the coordinator polls for
        completion every 0.5 s and idle workers poll for the stop file
        every 0.5 s, so a sweep lands in one of two modes half a second
        apart and a 5 % slower host flips it from one to the other. It is
        kept as the per-layer ``dist.cold_wall_s``. The end-to-end metric
        stops the clock when the last chunk's completion record lands in
        the queue, which is when every result is in the shared cache.
        """
        env, base = self._cli_env("dist")
        argv = ["sweep", "--scenario", str(self.scenario), "--distributed",
                "--workers", str(JOBS), "--jobs", "1",
                "--queue", str(base / "queue")]
        output, _, launched = self._cli("dist.cold_wall_s", argv, env)
        self._check_cli("distributed sweep", output, base,
                        f"cache hits=0 misses={len(self.specs)}",
                        "kernel=compiled")
        done_dir = Path(self.repro.TaskQueue(str(base / "queue")).done_dir)
        landed = [p.stat().st_mtime for p in done_dir.glob("*.json")]
        if landed:
            self.record("dist_cold_done_s", max(landed) - launched)
        shutil.rmtree(base, ignore_errors=True)

    def rep(self, path: str) -> None:
        """One rep of *path* (a key of :data:`WEIGHTS`)."""
        if path == "grid":
            self.rep_grid()
        elif path == "dist":
            self.rep_dist()
        else:
            self.rep_sim(path)


# -- the timed run (--trace 0) ------------------------------------------------


def run_timed(bench: Bench, seconds: float) -> Dict[str, float]:
    """Weighted round-robin reps of every path for *seconds*."""
    bench.setup(SETUP_REPS)
    with bench.spans.span("measure"):
        start = time.perf_counter()
        taken = {path: 0 for path in WEIGHTS}
        cost = {path: 0.0 for path in WEIGHTS}
        while True:
            # the path furthest behind its share goes next
            path = min(WEIGHTS, key=lambda p: taken[p] / WEIGHTS[p])
            elapsed = time.perf_counter() - start
            # One full cycle at least; after that a rep is started while
            # half of it still fits, so the time measured averages out
            # at --seconds.
            if min(taken.values()) >= 1 and elapsed + cost[path] / 2 > seconds:
                break
            t0 = time.perf_counter()
            bench.rep(path)
            cost[path] = time.perf_counter() - t0
            taken[path] += 1
    return {name: bench.value(name, statistic)
            for name, _, _, _, statistic in END_TO_END}


# -- the traced run (--trace 1) -----------------------------------------------


def run_traced(bench: Bench, seconds: float, artifact: Dict[str, Any]
               ) -> Dict[str, float]:
    """One untraced and one cProfile-wrapped pass per kernel, then the probes."""
    import probes

    start = time.perf_counter()
    bench.setup(1)
    best = bench.best
    out: Dict[str, float] = {"kernel.build_s": best("kernel.build_s")}
    out.update(probes.simulated_counts(bench.pure_results))
    package_dir = str(SRC / "repro")

    # A second, warm pass per kernel: the untraced side of overhead_ratio.
    pool = probes.PACKET_POOL
    acquired0, reused0 = pool.acquired, pool.reused
    compiled_results = bench.rep_sim("compiled")
    acquired = pool.acquired - acquired0
    out["netsim.packet_pool_reuse_ratio"] = \
        (pool.reused - reused0) / acquired if acquired else 0.0
    bench.rep_sim("pure")
    for kernel in KERNEL_NAMES:
        out[f"sim.host_ns_per_event.{kernel}"] = \
            best(f"sim_wall_s.{kernel}") / out["sim.events"] * 1e9
    out["kernel.speedup"] = \
        best("sim_wall_s.pure") / best("sim_wall_s.compiled")

    with bench.spans.span("traced"):
        for kernel in KERNEL_NAMES:
            profiler = cProfile.Profile()
            bench._pass(kernel, profiler=profiler, name=f"traced.{kernel}")
            table, top20 = layers.roll_up(profiler.getstats(), package_dir)
            artifact.setdefault("layers", {})[kernel] = table
            artifact.setdefault("top20", {})[kernel] = top20
            for layer, row in table.items():
                out[f"trace.{kernel}.{layer}.self_s"] = row["self_s"]
                out[f"trace.{kernel}.{layer}.calls"] = row["calls"]
            out[f"trace.{kernel}.overhead_ratio"] = \
                best(f"traced.{kernel}") / best(f"sim_wall_s.{kernel}")

    with bench.spans.span("cli"):
        bench.rep_grid()
        out["cache.warm_hit_ratio"] = bench.warm_hit_ratio
        bench.rep_dist()
        out["dist.cold_wall_s"] = best("dist.cold_wall_s")
        out["dist.overhead_s"] = \
            out["dist.cold_wall_s"] - best("grid_cold_wall_s")
        imports = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import repro.cli"],
                           cwd=ROOT, env=bench.env, check=True)
            imports.append(time.perf_counter() - t0)
        out["cli.import_s"] = statistics.median(imports)

    with bench.spans.span("runner"):
        os.environ["REPRO_KERNEL"] = "compiled"
        reports = {}
        for jobs in (1, JOBS):
            gc.collect()
            reports[jobs] = bench.repro.run_grid_report(
                bench.specs, jobs=jobs, cache=False, ledger=False)
            for i, result in enumerate(reports[jobs].results):
                bench.checks.point(
                    reports[jobs].kernel == "compiled"
                    and canon(result) == bench.reference[i],
                    f"run_grid_report jobs={jobs} point {i} differs")
        out["runner.parallel_speedup"] = \
            reports[1].wall_s / reports[JOBS].wall_s
        out["runner.serial_overhead_s"] = \
            reports[1].wall_s - best("sim_wall_s.compiled")

    with bench.spans.span("probes"):
        rounds: List[Dict[str, float]] = []
        cost = 0.0
        while not rounds or time.perf_counter() - start + cost / 2 < seconds:
            t0 = time.perf_counter()
            serial = len(rounds)
            row = probes.kernel_probe_round()
            row["core.expand_us_per_point"] = \
                probes.expand_us_per_point(bench.doc)
            row["core.digest_us_per_point"] = \
                probes.digest_us_per_point(bench.specs)
            row["core.assemble_ms_per_point"] = \
                probes.assemble_ms_per_point(bench.specs)
            row.update(probes.cache_probe(
                bench.specs, compiled_results,
                str(bench.work / f"probe-cache-{serial}")))
            row.update(probes.ledger_probe(
                bench.specs, compiled_results, reports[1],
                str(bench.work / f"probe-ledger-{serial}")))
            row["dist.queue_cycle_ms"] = probes.queue_cycle_ms(
                str(bench.work / f"probe-queue-{serial}"))
            rounds.append(row)
            cost = time.perf_counter() - t0
        for name in rounds[0]:
            out[name] = statistics.median(r[name] for r in rounds)
    return out


# -- output -------------------------------------------------------------------


def print_table(bench: Bench, metrics: Dict[str, float],
                units: Dict[str, str]) -> None:
    """Every metric by name with its unit; rep statistics where timed."""
    statistic = {n: how for n, _, _, _, how in END_TO_END}
    print(f"workload {bench.workload}  seed {bench.seed}  "
          f"points {len(bench.specs)}  jobs {JOBS}")
    print(f"{'metric':<44}{'value':>14} {'unit':<6}{'statistic':<10}"
          f"{'median':>9}{'min':>9}{'q1':>9}{'q3':>9}{'n':>4}{'cpu_s':>8}")
    for name, value in metrics.items():
        line = f"{name:<44}{value:>14.6g} {units[name]:<6}"
        if name in bench.samples:
            s = summarize(bench.samples[name])
            line += (f"{statistic.get(name, 'min'):<10}{s['median']:>9.4g}"
                     f"{s['min']:>9.4g}{s['q1']:>9.4g}{s['q3']:>9.4g}{s['n']:>4}")
            if name in bench.cpu_samples:
                line += f"{statistics.median(bench.cpu_samples[name]):>8.3f}"
        print(line)
    checks = bench.checks
    print(f"{'failed_share':<44}{checks.failed / checks.attempted:>14.6g} ratio"
          f"  ({checks.failed} of {checks.attempted} point x path checks)")
    for message in checks.messages:
        print(f"  FAILED: {message}", file=sys.stderr)


def print_layer_table(artifact: Dict[str, Any]) -> None:
    """The 13-layer self-time table of the traced passes, both kernels."""
    tables = artifact["layers"]
    print(f"{'layer':<10}" + "".join(
        f"{k + ' self_s':>18}{k + ' calls':>16}" for k in KERNEL_NAMES))
    for layer in layers.LAYERS:
        print(f"{layer:<10}" + "".join(
            f"{tables[k][layer]['self_s']:>18.4f}{tables[k][layer]['calls']:>16}"
            for k in KERNEL_NAMES))


def result_record(checks: Checks, values: Dict[str, float],
                  units: Dict[str, str]) -> Dict[str, Any]:
    """The object printed as the last line of standard output."""
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             out_path: Optional[str] = None
             ) -> Tuple[Dict[str, Any], Dict[str, List[float]]]:
    """One benchmark invocation: prints its table, returns (record, samples)."""
    spans, checks = Spans(), Checks()
    artifact: Dict[str, Any] = {}
    with work_dir() as work, spans.span(f"workload.{workload}"):
        bench = Bench(workload, seed, work, spans, checks)
        if trace:
            values = run_traced(bench, seconds, artifact)
            units = {n: u for n, u, _ in per_layer_metrics()}
            values = {n: values[n] for n in units}
        else:
            values = run_timed(bench, seconds)
            units = {n: u for n, u, _, _, _ in END_TO_END}
        print_table(bench, values, units)
        if trace:
            print_layer_table(artifact)
    record = result_record(checks, values, units)
    if out_path:
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                **record, "workload": workload, "seed": seed,
                "seconds": seconds, "trace": int(trace),
                "samples": bench.samples, "units": bench.units,
                "cpu_samples": bench.cpu_samples,
                "spans": spans.rows, **artifact,
            }) + "\n")
    return record, bench.samples


# -- --update-reference -------------------------------------------------------


def update_reference(names: Sequence[str]) -> int:
    """Regenerate ``reference/<workload>.json`` at the default seed.

    Refuses when the pure and compiled kernels disagree on any point.
    """
    import probes

    seed = workloads.DEFAULT_SEED
    for name in names:
        spans, checks = Spans(), Checks()
        with work_dir() as work:
            bench = Bench(name, seed, work, spans, checks)
            bench.use_committed_reference = False
            bench.setup(1)
            if checks.failed:
                print(f"{name}: pure != compiled, reference NOT written:",
                      *checks.messages, sep="\n  ", file=sys.stderr)
                return 1
            points = [
                {"label": spec.label(),
                 "spec_digest": bench.repro.spec_digest(spec),
                 "metrics_sha256": metrics_digest(canonical)}
                for spec, canonical in zip(bench.specs, bench.reference)
            ]
            counts = probes.simulated_counts(bench.pure_results)
        REFERENCE_DIR.mkdir(exist_ok=True)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(
            {"workload": name, "seed": seed, "points": points,
             "counts": counts}, indent=2) + "\n")
        print(f"wrote {path.relative_to(ROOT)} ({len(points)} points)")
    return 0


# -- --selfcheck and --compare ------------------------------------------------


def _bounds() -> Dict[str, Tuple[str, float]]:
    return {n: (better, bound) for n, _, better, bound, _ in END_TO_END}


def _worsening(a: float, b: float, better: str) -> float:
    """How much worse *b* is than *a*, as a share of *a* (negative: better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def selfcheck(names: Sequence[str], seed: int, seconds: float,
              runs: int) -> int:
    """Two sets of *runs* runs of the same code must agree within the bounds.

    The procedure the benchmark is accepted by: each run of a set takes
    another seed (the same seeds in both sets); per workload and
    end-to-end metric the two set medians may differ by at most the
    bound, and each set's spread (interquartile distance of its run
    values as a share of their median; with one run per set, of that
    run's reps) must stay within it too, except for ``setup_s``.
    """
    status = 0
    print(f"{'workload':<24}{'metric':<22}{'set 1':>10}{'set 2':>10}"
          f"{'change':>9}{'spread':>9}{'bound':>7}  verdict")
    for name in names:
        sets: List[Dict[str, List[float]]] = [{}, {}]
        noise: Dict[str, float] = {}
        failed = 0
        for values in sets:
            for i in range(runs):
                # the nested run's table goes to stderr: stdout is one report
                with redirect_stdout(sys.stderr):
                    record, samples = run_once(name, seed + i, seconds,
                                               trace=False)
                failed += record["failed"]
                for metric, entry in record["metrics"].items():
                    values.setdefault(metric, []).append(entry["value"])
            for metric, run_values in values.items():
                noise[metric] = max(
                    noise.get(metric, 0.0),
                    spread(run_values if runs > 1 else samples[metric]))
        for metric, (better, bound) in _bounds().items():
            a, b = (statistics.median(values[metric]) for values in sets)
            worse = max(_worsening(a, b, better), _worsening(b, a, better))
            ok = worse <= bound and \
                (metric == "setup_s" or noise[metric] <= bound)
            status |= 0 if ok else 1
            print(f"{name:<24}{metric:<22}{a:>10.4g}{b:>10.4g}"
                  f"{worse:>9.1%}{noise[metric]:>9.1%}{bound:>7.0%}  "
                  f"{'ok' if ok else 'DISAGREE'}")
        if failed:
            status = 1
            print(f"{name:<24}failed_share > 0 ({failed} failed checks)")
    return status


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per ``--trace 0`` run in an --out file."""
    table: Dict[Tuple[str, str], List[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for metric, entry in record["metrics"].items():
                table.setdefault((record["workload"], metric), []).append(
                    entry["value"])
    return table


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, worsening, spread)`` of side *b* against side *a*.

    ``unresolved`` when the run-to-run spread of either side exceeds the
    bound, unless every run of one side beats every run of the other.
    """
    worse = _worsening(statistics.median(a), statistics.median(b), better)
    noise = max(spread(a), spread(b))
    separated = max(a) < min(b) or max(b) < min(a)
    if noise > bound and not separated:
        return "unresolved", worse, noise
    if worse > bound:
        return "regressed", worse, noise
    if worse < -bound:
        return "improved", worse, noise
    return "unchanged", worse, noise


def compare(path_a: str, path_b: str) -> int:
    """One row per (end-to-end metric, workload): B against A, by the bound."""
    a, b = load_runs(path_a), load_runs(path_b)
    status = 0
    print(f"{'workload':<24}{'metric':<22}{'A':>10}{'B':>10}"
          f"{'worse by':>10}{'spread':>9}{'bound':>7}  verdict")
    for name in workloads.WORKLOADS:
        for metric, (better, bound) in _bounds().items():
            key = (name, metric)
            if key not in a or key not in b:
                continue
            result, worse, noise = verdict(a[key], b[key], better, bound)
            status |= 1 if result == "regressed" else 0
            print(f"{name:<24}{metric:<22}{statistics.median(a[key]):>10.4g}"
                  f"{statistics.median(b[key]):>10.4g}{worse:>10.1%}"
                  f"{noise:>9.1%}{bound:>7.0%}  {result}")
    return status


# -- --figures ----------------------------------------------------------------


def figures() -> int:
    """Regenerate every archived result once; wall time and byte-identity.

    Not gated and not part of any metric: the headline "how long does the
    whole paper take" number, under the compiled kernel with the cache
    off, plus proof that the regenerated files did not change.
    """
    results = ROOT / "benchmarks" / "results"

    def snapshot() -> Dict[str, str]:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(results.glob("*.txt"))}

    env = scrubbed_env(dict(os.environ))
    build_kernel(env)
    env.update(REPRO_KERNEL="compiled", REPRO_CACHE="off", REPRO_LEDGER="off",
               REPRO_JOBS=str(JOBS))
    before = snapshot()
    tests = sorted(str(p) for p in (ROOT / "benchmarks").glob("test_*.py"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env)
    wall = time.perf_counter() - t0
    after = snapshot()
    changed = sorted(n for n in before if before[n] != after.get(n))
    print(f"figures: {len(after)} archived results regenerated in {wall:.1f} s "
          f"(compiled kernel, {JOBS} jobs, cache off); "
          f"{'byte-identical' if not changed else 'CHANGED: ' + ', '.join(changed)}")
    return 1 if proc.returncode or changed else 0


# -- entry point --------------------------------------------------------------


def _on_alarm(signum, frame):
    raise BenchError(f"benchmark exceeded its {WATCHDOG_S} s watchdog")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="The repo benchmark (see benchmarks/perf/README.md).")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced run (per-layer metrics)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="append this run's full record (samples, spans, "
                             "layer table, top-20) to FILE as one JSON line")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--selfcheck", action="store_true",
                      help="run each workload (or --workload) in two sets "
                           "and check they agree within the bounds")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare two --out files, B against A")
    mode.add_argument("--update-reference", action="store_true",
                      help="regenerate reference/<workload>.json at seed 1")
    mode.add_argument("--figures", action="store_true",
                      help="regenerate all archived results once (not gated)")
    parser.add_argument("--runs", type=int, default=1,
                        help="--selfcheck: runs per set, each on another seed")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir() or not MANIFEST.is_file():
        print(f"error: {SRC}/repro or {MANIFEST} is missing; the benchmark "
              f"builds and measures the repository it sits in",
              file=sys.stderr)
        return 2
    scrubbed = scrubbed_env(dict(os.environ))
    os.environ.clear()
    os.environ.update(scrubbed)
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads(MANIFEST.read_text())["run_seconds"])
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        if args.figures:
            return figures()
        if args.update_reference:
            return update_reference(names)
        if args.selfcheck:
            return selfcheck(names, args.seed, seconds, args.runs)
        if not args.workload:
            parser.error("--workload is required")
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(WATCHDOG_S)
        record, _ = run_once(args.workload, args.seed, seconds,
                             bool(args.trace), args.out)
        signal.alarm(0)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
