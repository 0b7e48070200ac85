"""Tests for the command-line interface."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _subcommands(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return list(action.choices)


#: every subcommand, in ``repro --help`` order
COMMANDS = ("run", "grid", "sweep", "worker", "compare", "sweep-strides",
            "cache", "runs", "report", "list")
_CHOOSE_FROM = ", ".join(repr(name) for name in COMMANDS)


def test_parser_for_one_command_registers_only_that_command():
    everything = build_parser()
    assert _subcommands(everything) == list(COMMANDS)
    grid = build_parser("grid")
    assert _subcommands(grid) == ["grid"]
    # ... and still prints the usage line that names them all
    assert grid.format_usage() == everything.format_usage()
    assert grid.parse_args(["grid", "--scenario", "x"]).scenario == "x"
    assert _subcommands(build_parser("bogus")) == _subcommands(everything)


@pytest.mark.parametrize("argv,code,message", [
    ([], 2, "repro: error: the following arguments are required: command\n"),
    (["bogus"], 2,
     "repro: error: argument command: invalid choice: 'bogus' (choose from "
     f"{_CHOOSE_FROM})\n"),
    (["grid", "--scenario", "x", "--bogus"], 2,
     "repro: error: unrecognized arguments: --bogus\n"),
    (["--help"], 0, ""),
    (["perf", "trend"], 2,
     "repro: error: argument command: invalid choice: 'perf' (choose from "
     f"{_CHOOSE_FROM})\n"),
])
def test_top_level_help_and_errors_name_every_command(argv, code, message,
                                                      capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == code
    captured = capsys.readouterr()
    everything = build_parser()
    usage = everything.format_usage()
    assert "{%s}" % ",".join(COMMANDS) in usage
    if code:
        assert captured.err == usage + message
    else:
        assert captured.out == everything.format_help()
        listed = [line.split()[0] for line in captured.out.splitlines()
                  if line.startswith("    ") and line[4] != " "]
        assert listed == list(COMMANDS)


#: sha256 (first 16 hex digits) of ``repro <command> --help`` at 80
#: columns; after changing a flag on purpose, take the new value from
#: ``COLUMNS=80 python -m repro <command> --help | sha256sum``
HELP_DIGESTS = {
    "run": "4df6c14dda1ad984",
    "grid": "a7b080e5bf3e53b6",
    "sweep": "8f1374196706ae29",
    "worker": "6c2023c7c73569e5",
    "compare": "b0c2d9b18822f5a5",
    "sweep-strides": "eacc09ff9d24d551",
    "cache": "10f2a8cec28611cc",
    "runs": "bb13850984e3ac6d",
    "report": "7670377d525012c5",
    "list": "291eea187c5aa00f",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays help out differently in other "
                           "Python versions; CI pins 3.11")
@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == HELP_DIGESTS[command], text


def test_reader_closing_the_pipe_early_is_a_normal_end(tmp_path):
    """``repro runs show ID | head -1``: no traceback, exit status 0."""
    from repro import RunLedger

    ledger = RunLedger(root=str(tmp_path / "ledger"))
    # far more JSON than a pipe (64 KiB) and the reader's buffer hold, so
    # the command is still writing when the read end goes away
    ledger.append({"v": 1, "id": "big1", "kind": "grid", "ts": 0.0,
                   "points": [{"digest": f"{i:064x}", "label": "x" * 64}
                              for i in range(4000)]})
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "runs", "show", "big1"],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src),
             "REPRO_LEDGER_DIR": ledger.root},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0, stderr
    finally:
        proc.kill()
        proc.stderr.close()
    assert stderr == ""


def test_run_text_output():
    code, text = run_cli([
        "run", "--cc", "cubic", "--connections", "2",
        "--duration", "1.5", "--warmup", "0.5",
    ])
    assert code == 0
    assert "goodput_mbps" in text
    assert "cubic" in text


def test_run_json_output():
    code, text = run_cli([
        "run", "--cc", "bbr", "--connections", "2",
        "--duration", "1.5", "--warmup", "0.5", "--json",
    ])
    assert code == 0
    payload = json.loads(text)
    assert payload["goodput_mbps"] > 0
    assert payload["runs"] == 1
    assert "bbr" in payload["label"]


def test_run_with_master_knobs():
    code, text = run_cli([
        "run", "--cc", "bbr", "--connections", "2",
        "--duration", "1.5", "--warmup", "0.5",
        "--fixed-cwnd", "70", "--disable-model", "--json",
    ])
    assert code == 0
    assert json.loads(text)["goodput_mbps"] > 0


def test_run_with_netem():
    code, text = run_cli([
        "run", "--cc", "cubic", "--connections", "1",
        "--duration", "1.5", "--warmup", "0.5",
        "--rate-limit-mbps", "50", "--json",
    ])
    assert code == 0
    assert json.loads(text)["goodput_mbps"] < 55


def test_compare_emits_gap():
    code, text = run_cli([
        "compare", "--connections", "4",
        "--duration", "1.5", "--warmup", "0.5",
    ])
    assert code == 0
    assert "gap" in text
    assert "cubic" in text and "bbr" in text


def test_sweep_strides_rows():
    code, text = run_cli([
        "sweep-strides", "--connections", "4",
        "--duration", "1.5", "--warmup", "0.5",
        "--strides", "1", "5", "--json",
    ])
    assert code == 0
    rows = json.loads(text)
    assert len(rows) == 2
    assert rows[0]["stride"] == "1x"
    assert rows[1]["stride"] == "5x"


def test_invalid_choice_rejected():
    with pytest.raises(SystemExit):
        run_cli(["run", "--cc", "warp"])


def _write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_scenario_single_point(tmp_path):
    path = _write_scenario(tmp_path, {
        "base": {"cc": "cubic", "connections": 2,
                 "duration_s": 1.5, "warmup_s": 0.5},
    })
    code, text = run_cli(["run", "--scenario", path, "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["goodput_mbps"] > 0
    assert "cubic" in payload["label"]


def test_run_scenario_rejects_multi_point(tmp_path, capsys):
    path = _write_scenario(tmp_path, {
        "grid": {"cc": ["bbr", "cubic"]},
    })
    code, _ = run_cli(["run", "--scenario", path])
    assert code == 2
    assert "repro grid" in capsys.readouterr().err


def test_grid_scenario_runs_all_points(tmp_path):
    path = _write_scenario(tmp_path, {
        "base": {"connections": 2, "duration_s": 1.0, "warmup_s": 0.2},
        "grid": {"cc": ["bbr", "cubic"]},
    })
    code, text = run_cli(["grid", "--scenario", path, "--json", "--jobs", "1"])
    assert code == 0
    rows = json.loads(text)
    assert len(rows) == 2
    assert "bbr" in rows[0]["label"] and "cubic" in rows[1]["label"]


def test_grid_scenario_matches_python_specs(tmp_path):
    """CLI grid output equals the same points built and run in Python."""
    from repro import ExperimentSpec, run_replicated_grid

    path = _write_scenario(tmp_path, {
        "base": {"connections": 2, "duration_s": 1.0, "warmup_s": 0.2},
        "grid": {"cc": ["bbr", "cubic"]},
    })
    code, text = run_cli(["grid", "--scenario", path, "--json", "--jobs", "1"])
    assert code == 0
    rows = json.loads(text)
    specs = [
        ExperimentSpec(cc=cc, connections=2, duration_s=1.0, warmup_s=0.2)
        for cc in ("bbr", "cubic")
    ]
    aggs = run_replicated_grid(specs, runs=1, jobs=1)
    assert [r["goodput_mbps"] for r in rows] == \
           [round(a.goodput_mbps, 2) for a in aggs]


def test_list_prints_registered_components():
    code, text = run_cli(["list"])
    assert code == 0
    for name in ("cubic", "bbr2", "serial", "wifi", "pixel6", "low-end"):
        assert name in text


def test_list_json():
    code, text = run_cli(["list", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["cc"] == ["cubic", "bbr", "bbr2", "reno"]
    assert payload["device"] == ["pixel4", "pixel6"]


# -- run ledger / live telemetry ---------------------------------------------


SMOKE_DOC = {
    "base": {"connections": 1, "duration_s": 0.6, "warmup_s": 0.2},
    "grid": {"cc": ["bbr", "cubic"]},
}


@pytest.fixture
def ledger_env(tmp_path, monkeypatch):
    """Route the ledger (and cache) to tmp dirs with writing enabled."""
    monkeypatch.setenv("REPRO_LEDGER", "on")
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def test_grid_live_with_exports(tmp_path, ledger_env, capsys):
    from repro import validate_openmetrics

    scenario = _write_scenario(tmp_path, SMOKE_DOC)
    om = tmp_path / "grid.om"
    jl = tmp_path / "grid-progress.jsonl"
    code, text = run_cli([
        "grid", "--scenario", scenario, "--jobs", "2", "--live",
        "--metrics-out", str(om), "--progress-out", str(jl),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "2/2" in err  # the live status line reached stderr
    assert validate_openmetrics(om.read_text()) >= 8
    events = [json.loads(line) for line in jl.read_text().splitlines()]
    assert {e["kind"] for e in events} >= {"start", "done"}
    assert " run=" in text  # ledger record id on the timing line


def test_runs_list_show_diff_prune(tmp_path, ledger_env):
    scenario = _write_scenario(tmp_path, SMOKE_DOC)
    for _ in range(2):
        code, _ = run_cli(["grid", "--scenario", scenario, "--jobs", "1"])
        assert code == 0

    code, text = run_cli(["runs", "list", "--kind", "grid", "--json"])
    assert code == 0
    records = json.loads(text)
    assert len(records) == 2
    cold, warm = records
    assert cold["cache"] == {"used": True, "hits": 0, "misses": 2,
                             "skipped": 0}
    assert warm["cache"]["hits"] == 2

    code, text = run_cli(["runs", "list"])
    assert code == 0
    assert "0h/2m" in text and "2h/0m" in text

    code, text = run_cli(["runs", "show", cold["id"][:10]])
    assert code == 0
    assert json.loads(text)["id"] == cold["id"]

    # Cold vs fully-cached re-run: bit-identical metrics, exit 0.
    code, text = run_cli(["runs", "diff", cold["id"], warm["id"]])
    assert code == 0
    assert "records match" in text

    code, text = run_cli(["runs", "path"])
    assert code == 0 and text.strip().endswith("ledger.jsonl")

    code, text = run_cli(["runs", "prune", "--keep", "1"])
    assert code == 0
    code, text = run_cli(["runs", "list", "--json"])
    assert len(json.loads(text)) == 1


def test_runs_diff_exit_codes(tmp_path, ledger_env, capsys):
    from repro import RunLedger

    ledger = RunLedger()
    base = {"v": 1, "kind": "run", "ts": 0.0, "spec_digest": "d1"}
    ledger.append({**base, "id": "aaa1", "metrics": {"goodput_mbps": 100.0}})
    ledger.append({**base, "id": "bbb2", "metrics": {"goodput_mbps": 90.0}})
    ledger.append({**base, "id": "ccc3", "spec_digest": "other",
                   "metrics": {"goodput_mbps": 90.0}})

    code, text = run_cli(["runs", "diff", "aaa1", "bbb2"])
    assert code == 1
    assert "goodput_mbps" in text

    code, _ = run_cli(["runs", "diff", "aaa1", "bbb2", "--tol", "0.2"])
    assert code == 0

    code, _ = run_cli(["runs", "diff", "aaa1", "ccc3"])
    assert code == 2
    assert "no spec digests" in capsys.readouterr().err

    code, _ = run_cli(["runs", "diff", "aaa1", "zzz9"])
    assert code == 2
    assert "no ledger record" in capsys.readouterr().err


def test_runs_diff_json_contract(tmp_path, ledger_env):
    from repro import RunLedger

    ledger = RunLedger()
    base = {"v": 1, "kind": "run", "ts": 0.0, "spec_digest": "d1"}
    ledger.append({**base, "id": "aaa1", "metrics": {"m": 1.0}})
    ledger.append({**base, "id": "bbb2", "metrics": {"m": 2.0}})
    code, text = run_cli(["runs", "diff", "aaa1", "bbb2", "--json"])
    assert code == 1
    payload = json.loads(text)
    assert payload["exit_code"] == 1
    assert payload["differing"][0]["metric"] == "m"


def test_sweep_status_renders_progress(capsys):
    code, _ = run_cli([
        "sweep-strides", "--connections", "1", "--duration", "0.6",
        "--warmup", "0.2", "--strides", "1", "5", "--status", "--json",
    ])
    assert code == 0
    assert "2/2" in capsys.readouterr().err


def test_report_surfaces_meta_notices(tmp_path, capsys):
    series = {
        "goodput": {"name": "goodput", "unit": "mbps",
                    "t_ns": [0, 1000], "values": [1.0, 2.0]},
        "_meta": {"notices": ["trace ring buffer dropped 7 oldest records"],
                  "dropped_trace_records": 7},
    }
    path = tmp_path / "series.json"
    path.write_text(json.dumps(series))
    code, text = run_cli(["report", str(path)])
    assert code == 0
    assert "goodput" in text
    assert "dropped 7 oldest records" in capsys.readouterr().err
