"""The two-layer import rule (DESIGN.md §5), checked deterministically.

The *declarative layer* — specs, results, profiles, registries by name,
wire format, cache, ledger, kernel selection, the runner's cache-probe /
report half, the CLI, the dist coordinator and queue — must be loadable
without the *simulator layer*, and may never import it at module level.
Not a timer: every case asserts on ``sys.modules`` of a fresh interpreter
or on the import statements themselves.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(REPO, "src")
SMOKE = os.path.join(REPO, "benchmarks", "scenarios", "smoke_2point.json")

#: modules that describe, store, ship or report experiments
DECLARATIVE = {
    "repro", "repro.__main__", "repro.registry", "repro.units",
    "repro.kernel", "repro.cache", "repro.runner", "repro.cli",
    # package namespaces: one lazy-export table each (plus the
    # by-reference registries of cc / cpu / obs)
    "repro.apps", "repro.cc", "repro.core", "repro.cpu", "repro.devices",
    "repro.dist", "repro.metrics", "repro.netsim", "repro.obs", "repro.sim",
    "repro.tcp",
    "repro.core.spec", "repro.core.flows", "repro.core.scenario",
    "repro.core.analysis", "repro.core.stride",
    "repro.cpu.costs", "repro.devices.profiles", "repro.netsim.profiles",
    "repro.metrics.collector", "repro.metrics.fairness",
    "repro.metrics.report", "repro.metrics.summary",
    "repro.obs.series", "repro.obs.ledger", "repro.obs.live",
    "repro.dist.queue", "repro.dist.coordinator", "repro.dist.worker",
}

#: modules that simulate (or instrument a simulation); they may import
#: anything, nothing above may import them outside a function body
SIMULATOR = {
    "repro.core.experiment",
    "repro.sim.engine", "repro.sim.rng", "repro.sim.timer", "repro.sim.trace",
    "repro.cpu.cluster", "repro.cpu.core", "repro.cpu.governor",
    "repro.cpu.softirq", "repro.devices.configs",
    "repro.netsim.link", "repro.netsim.media", "repro.netsim.packet",
    "repro.netsim.queue", "repro.netsim.shaper", "repro.netsim.testbed",
    "repro.tcp.connection", "repro.tcp.pacing", "repro.tcp.rate_sample",
    "repro.tcp.receiver", "repro.tcp.rtt", "repro.tcp.scoreboard",
    "repro.tcp.segmentation", "repro.tcp.stack",
    "repro.cc.base", "repro.cc.bbr", "repro.cc.bbr2", "repro.cc.cubic",
    "repro.cc.master", "repro.cc.minmax", "repro.cc.reno",
    "repro.apps.flows", "repro.apps.iperf",
    "repro.obs.probes", "repro.obs.profiler", "repro.obs.trace_export",
}

#: process-pool machinery a cached re-run has no use for, and what only
#: spawning a worker (subprocess) or writing a file atomically (tempfile,
#: which loads shutil, random, bisect, lzma, bz2) needs
POOL_STDLIB = {"multiprocessing", "concurrent.futures", "socket",
               "subprocess", "tempfile"}


def _source_modules():
    """Every ``src/repro/**/*.py`` as ``(module name, path)``."""
    found = []
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            parts = os.path.relpath(path, SRC)[:-len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            found.append((".".join(parts), path))
    return sorted(found)


def test_the_two_lists_partition_the_package():
    names = {name for name, _path in _source_modules()}
    assert not DECLARATIVE & SIMULATOR
    assert names == DECLARATIVE | SIMULATOR, (
        f"classify in tests/test_import_layering.py: "
        f"{sorted(names ^ (DECLARATIVE | SIMULATOR))}"
    )


def _module_level_imports(tree):
    """(module, names) for every import executed when the module loads.

    Function and class bodies are skipped (an import there runs when the
    function does — that is how the declarative layer reaches the
    simulator on the miss path); ``if TYPE_CHECKING:`` never runs.
    """
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, 0, ()
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level, [a.name for a in node.names]
        elif isinstance(node, ast.If):
            test = node.test
            if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
                pending.extend(node.orelse)
            else:
                pending.extend(node.body + node.orelse)
        elif isinstance(node, (ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody"):
                pending.extend(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def _imported_modules(importer, is_package, module, level, names):
    """Resolve one import statement to the ``repro`` modules it loads."""
    if level:
        base = importer.split(".")
        base = base[: len(base) - level + (1 if is_package else 0)]
        module = ".".join(base + ([module] if module else []))
    if module != "repro" and not module.startswith("repro."):
        return
    yield module
    for name in names:
        # `from package import name`: a submodule, or a lazily exported
        # name that loads the submodule defining it
        if f"{module}.{name}" in DECLARATIVE | SIMULATOR:
            yield f"{module}.{name}"
        elif module in DECLARATIVE | SIMULATOR:
            table = getattr(importlib.import_module(module), "_SUBMODULES", {})
            for submodule, exported in table.items():
                if name in exported:
                    yield importlib.util.resolve_name(submodule, module)


@pytest.mark.parametrize(
    "name,path", [m for m in _source_modules() if m[0] in DECLARATIVE])
def test_declarative_module_never_imports_the_simulator_at_load(name, path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    is_package = os.path.basename(path) == "__init__.py"
    offending = sorted({
        target
        for module, level, names in _module_level_imports(tree)
        for target in _imported_modules(name, is_package, module, level, names)
        if target in SIMULATOR
    })
    assert not offending, (
        f"{name} (declarative layer) imports {offending} at module level")


# -- what a fresh interpreter actually loads ----------------------------------


def _run(code, tmp_path):
    """Run *code* in a fresh interpreter; returns its stdout."""
    environ = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_") or k == "REPRO_KERNEL"}
    environ.update(
        PYTHONPATH=SRC,
        REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path / "cache"),
        REPRO_LEDGER="on", REPRO_LEDGER_DIR=str(tmp_path / "ledger"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=environ,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_REPORT_MODULES = (
    "import json, sys; "
    "print('MODULES ' + json.dumps(sorted(sys.modules)))"
)


def _loaded(stdout):
    line = [l for l in stdout.splitlines() if l.startswith("MODULES ")][-1]
    return set(json.loads(line[len("MODULES "):]))


def _main(argv):
    return (f"import io; from repro.cli import main; out = io.StringIO(); "
            f"assert main({argv!r}, out=out) == 0; "
            f"print('OUTPUT ' + out.getvalue().replace(chr(10), chr(1))); ")


def _output(stdout):
    line = [l for l in stdout.splitlines() if l.startswith("OUTPUT ")][-1]
    return line[len("OUTPUT "):].replace(chr(1), "\n")


def _assert_no_simulator(loaded):
    assert not loaded & SIMULATOR, sorted(loaded & SIMULATOR)
    assert not loaded & POOL_STDLIB, sorted(loaded & POOL_STDLIB)


@pytest.mark.parametrize("code", [
    "import repro; ",
    "import repro.cli; ",
    _main(["list"]),
    _main(["runs", "list"]),
    _main(["cache", "stats"]),
], ids=["import-repro", "import-cli", "list", "runs-list", "cache-stats"])
def test_commands_that_do_not_simulate_do_not_load_the_simulator(code, tmp_path):
    loaded = _loaded(_run(code + _REPORT_MODULES, tmp_path))
    assert "repro" in loaded
    _assert_no_simulator(loaded)


def test_warm_grid_loads_no_simulator_and_cold_grid_loads_it_in_the_parent(
        tmp_path):
    grid = ["grid", "--scenario", SMOKE, "--jobs", "2", "--json"]
    cold_out = _run(_main(grid) + _REPORT_MODULES, tmp_path)
    cold = _loaded(cold_out)
    # the parent imported the simulator before forking the pool, so the
    # workers inherited it instead of importing it once each
    assert "repro.tcp.connection" in cold
    assert "concurrent.futures" in cold

    warm_out = _run(_main(grid) + _REPORT_MODULES, tmp_path)
    _assert_no_simulator(_loaded(warm_out))
    assert _output(warm_out) == _output(cold_out)

    # every check the warm path owes still ran: the ledger got both
    # invocations, the second one all hits
    runs = json.loads(_output(_run(
        _main(["runs", "list", "--kind", "grid", "--json"]), tmp_path)))
    assert [r["cache"] for r in runs] == [
        {"used": True, "hits": 0, "misses": 2, "skipped": 0},
        {"used": True, "hits": 2, "misses": 0, "skipped": 0},
    ]
    assert runs[1]["phase_s"]["dispatch"] == 0.0

    serial = ["grid", "--scenario", SMOKE, "--jobs", "1", "--no-cache",
              "--json"]
    assert _output(_run(_main(serial), tmp_path)) == _output(cold_out)


def test_warm_stride_sweep_loads_no_simulator(tmp_path):
    sweep = ["sweep-strides", "--connections", "1", "--duration", "0.6",
             "--warmup", "0.2", "--strides", "1", "5", "--jobs", "1", "--json"]
    cold_out = _run(_main(sweep) + _REPORT_MODULES, tmp_path)
    assert "repro.tcp.connection" in _loaded(cold_out)
    warm_out = _run(_main(sweep) + _REPORT_MODULES, tmp_path)
    _assert_no_simulator(_loaded(warm_out))
    assert _output(warm_out) == _output(cold_out)
