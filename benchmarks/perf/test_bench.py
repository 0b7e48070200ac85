"""Fast checks of the benchmark's own machinery (no simulation is timed).

Runs under ``pytest benchmarks`` in well under five seconds and writes
nothing under ``benchmarks/results``.
"""

from __future__ import annotations

import inspect
import json
import re
import statistics
from pathlib import Path

import pytest

import bench
import layers
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# -- layer table --------------------------------------------------------------


def test_every_source_module_maps_to_exactly_one_layer():
    package = bench.SRC / "repro"
    modules = sorted(p.relative_to(package).as_posix()
                     for p in package.rglob("*.py"))
    assert len(modules) > 50
    for rel in modules:
        # raises KeyError unless exactly one rule covers the file
        assert layers.layer_of_module(rel) in layers.LAYERS, rel


def test_unknown_module_has_no_layer():
    with pytest.raises(KeyError):
        layers.layer_of_module("quic/stream.py")


def test_every_ckernel_type_maps_to_the_ckernel_layer():
    ck = pytest.importorskip("repro._ckernel")
    types = [n for n, v in vars(ck).items() if inspect.isclass(v)]
    assert "EventLoop" in types and "Scoreboard" in types
    for name in types:
        assert layers.layer_of_ckernel_type(name) == "ckernel"
    assert layers.layer_of_profile_entry("<built-in method time.sleep>", "") \
        == "other"


def test_thirteen_layers():
    assert len(layers.LAYERS) == len(set(layers.LAYERS)) == 13


# -- output schema ------------------------------------------------------------


def test_manifest_matches_benchmark_json_and_the_contract():
    doc = json.loads(bench.MANIFEST.read_text())
    assert doc == bench.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/perf"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(bench.MANIFEST.read_bytes()) <= 64 * 1024


def test_result_record_schema():
    checks = bench.Checks()
    checks.point(True, "ok")
    checks.point(False, "bad")
    record = bench.result_record(checks, {"setup_s": 1.25}, {"setup_s": "s"})
    assert record == {
        "correct": False, "attempted": 2, "failed": 1,
        "metrics": {"setup_s": {"value": 1.25, "unit": "s"}},
    }
    assert json.loads(json.dumps(record)) == record


def test_reference_files_cover_every_workload():
    for name in workloads.WORKLOADS:
        doc = json.loads((bench.REFERENCE_DIR / f"{name}.json").read_text())
        assert doc["workload"] == name and doc["seed"] == workloads.DEFAULT_SEED
        assert doc["counts"]["sim.events"] > 0
        for point in doc["points"]:
            assert len(point["spec_digest"]) == len(point["metrics_sha256"]) == 64


# -- statistics ---------------------------------------------------------------


def test_quartiles_are_the_statistics_module_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, median, q3 = bench.quartiles(values)
    assert (q1, median, q3) == tuple(statistics.quantiles(values, n=4))
    assert median == statistics.median(values) == 3.0
    assert bench.spread(values) == (q3 - q1) / median
    assert bench.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert bench.spread([2.0]) == 0.0
    summary = bench.summarize(values)
    assert summary == {"median": 3.0, "min": 1.0, "q1": q1, "q3": q3, "n": 7}


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert bench.verdict(steady, [1.2, 1.21, 1.19, 1.2], "lower", 0.1)[0] \
        == "regressed"
    assert bench.verdict(steady, [0.8, 0.81, 0.79, 0.8], "lower", 0.1)[0] \
        == "improved"
    assert bench.verdict(steady, [0.8, 0.81, 0.79, 0.8], "higher", 0.1)[0] \
        == "regressed"
    assert bench.verdict(steady, [1.02, 1.03, 1.01, 1.02], "lower", 0.1)[0] \
        == "unchanged"
    noisy = [0.8, 1.0, 1.3, 1.1]
    assert bench.verdict(noisy, [0.9, 1.2, 1.0, 1.4], "lower", 0.1)[0] \
        == "unresolved"
    # too noisy for the bound, but every run of B beats every run of A
    assert bench.verdict(noisy, [0.4, 0.5, 0.7, 0.6], "lower", 0.1)[0] \
        == "improved"


# -- workloads and seeds ------------------------------------------------------


def _specs(name, seed):
    repro = pytest.importorskip("repro")
    return repro.expand_scenario(workloads.scenario_doc(name, seed))


def test_seed_sets_spec_seeds_and_is_deterministic():
    for name in ("paced_bbr_bulk", "unpaced_cubic_bulk", "many_small_points"):
        assert workloads.scenario_doc(name, 7) == workloads.scenario_doc(name, 7)
        specs = _specs(name, 7)
        assert [s.seed for s in specs] == [7 + i for i in range(len(specs))]
    assert len(_specs("many_small_points", 1)) == 48
    assert len(_specs("paced_bbr_bulk", 1)) == 4


def test_seed_shuffles_point_order_of_many_small_points():
    def shape(seed):
        return [(s.cc, s.connections, s.cpu_config)
                for s in _specs("many_small_points", seed)]

    assert shape(1) == shape(1)
    assert shape(1) != shape(2)
    assert sorted(shape(1)) == sorted(shape(2))


def test_lossy_workload_keeps_its_simulations_for_every_seed():
    assert workloads.scenario_doc("lossy_multiflow_churn", 1) \
        == workloads.scenario_doc("lossy_multiflow_churn", 99)
    specs = _specs("lossy_multiflow_churn", 5)
    assert [(s.medium.name, s.seed) for s in specs] == [
        ("ethernet", 1), ("ethernet", 2), ("wifi", 1), ("wifi", 2)]
    assert all(len(s.flows) == 3 for s in specs)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.scenario_doc("no_such_workload")


# -- environment --------------------------------------------------------------


def test_environment_scrub():
    dirty = {
        "PATH": "/usr/bin", "HOME": "/home/u", "PYTHONPATH": "/elsewhere",
        "REPRO_KERNEL": "pure", "REPRO_JOBS": "7", "REPRO_CHUNK": "3",
        "REPRO_CACHE": "off", "REPRO_CACHE_DIR": "/tmp/c",
        "REPRO_LEDGER": "off", "REPRO_LEDGER_DIR": "/tmp/l",
        "REPRO_DIST_POINT_DELAY": "1",
    }
    env = bench.scrubbed_env(dirty)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PATH"] == "/usr/bin" and env["HOME"] == "/home/u"
    assert env["PYTHONPATH"] == str(bench.SRC)
    assert dirty["REPRO_KERNEL"] == "pure"  # the input is not modified


def test_work_dir_is_inside_the_benchmark_and_removed():
    with bench.work_dir() as path:
        assert Path(path).is_dir()
        assert bench.HERE in Path(path).parents
    assert not Path(path).exists()
