"""Tests for the distributed sweep layer (:mod:`repro.dist`).

The contract under test is the same one :mod:`repro.runner` carries:
sharding a grid across pull-workers changes *nothing* about the results
— same metrics, same grid ordering — versus a serial run, and killing
any process (worker SIGKILL mid-chunk, coordinator restart) costs at
most one lease timeout of duplicated deterministic work, never a wrong
or missing result.

Worker subprocesses are real ``repro worker --pull`` invocations so the
full path — CLI, manifest validation, queue claims, cache writes —
is exercised, not a test double.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import (
    ExperimentSpec,
    ResultCache,
    resolve_kernel,
    resolve_worker_jobs,
    run_grid_report,
)
from repro.cli import main as cli_main
from repro.dist import (
    DistributedSweepError,
    QueueStateError,
    TaskQueue,
    grid_digest,
    run_distributed,
    run_worker,
)
from repro.dist.worker import WorkerError
from repro.obs.ledger import RunLedger, merge_ledgers
from repro.obs.live import DistMonitor
from repro.runner import JOBS_ENV_VAR, plan_batches

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _quick(**overrides) -> ExperimentSpec:
    defaults = dict(duration_s=0.8, warmup_s=0.2)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def _grid():
    return [
        _quick(cc=cc, connections=n)
        for cc in ("bbr", "cubic")
        for n in (1, 2)
    ]


def _worker_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra)
    return env


def _spawn_worker(queue_dir, lease=2.0, idle=60.0, **env_extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--pull", str(queue_dir),
         "--lease-timeout", str(lease), "--idle-timeout", str(idle),
         "--poll", "0.05"],
        env=_worker_env(**env_extra),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


# -- queue primitives --------------------------------------------------------


def _publish_two(queue):
    queue.prepare({"grid_digest": "d" * 64})
    queue.publish(0, [{"index": 0, "spec": {}}])
    queue.publish(1, [{"index": 1, "spec": {}}])


def test_queue_claim_is_exclusive_and_ordered(tmp_path):
    queue = TaskQueue(str(tmp_path / "q"))
    _publish_two(queue)
    assert queue.pending_count() == 2
    a = queue.claim("worker-a", lease_s=60)
    b = queue.claim("worker-b", lease_s=60)
    assert a.chunk == 0 and b.chunk == 1  # claim order follows chunk order
    assert queue.claim("worker-c", lease_s=60) is None
    assert queue.stats() == {"tasks": 0, "leases": 2, "done": 0}


def test_queue_complete_releases_lease_and_records(tmp_path):
    queue = TaskQueue(str(tmp_path / "q"))
    _publish_two(queue)
    task = queue.claim("worker-a", lease_s=60)
    queue.complete(task, {"chunk": task.chunk, "points": []})
    assert queue.stats() == {"tasks": 1, "leases": 0, "done": 1}
    assert set(queue.done_records()) == {0}


def test_expired_lease_is_reclaimed_but_live_one_is_not(tmp_path):
    queue = TaskQueue(str(tmp_path / "q"))
    _publish_two(queue)
    dead = queue.claim("dead-worker", lease_s=0.01)
    live = queue.claim("live-worker", lease_s=300)
    time.sleep(0.05)
    reclaimed = queue.reclaim_expired()
    assert reclaimed == [dead.name]
    assert queue.stats() == {"tasks": 1, "leases": 1, "done": 0}
    # The reclaimed chunk is claimable again; the live one stays leased.
    again = queue.claim("other-worker", lease_s=60)
    assert again.chunk == dead.chunk
    assert live.chunk != dead.chunk


def test_claimed_but_unstamped_lease_gets_a_full_lease_period(tmp_path):
    """A poll landing between a claim's rename and its stamp must not
    republish the chunk; a claimer that died there is still recovered."""
    queue = TaskQueue(str(tmp_path / "q"))
    _publish_two(queue)
    name = queue.chunk_filename(0)
    lease_path = os.path.join(queue.leases_dir, name)
    os.replace(os.path.join(queue.tasks_dir, name), lease_path)
    assert queue.reclaim_expired() == []
    assert os.path.exists(lease_path)
    assert queue.stats() == {"tasks": 1, "leases": 1, "done": 0}
    seen = time.time()
    assert queue.reclaim_expired(now=seen + 59, lease_s=60) == []
    assert queue.reclaim_expired(now=seen + 61, lease_s=60) == [name]
    assert queue.stats() == {"tasks": 2, "leases": 0, "done": 0}
    # re-claimed and abandoned unstamped again: the period starts afresh
    os.replace(os.path.join(queue.tasks_dir, name), lease_path)
    assert queue.reclaim_expired(now=seen + 62, lease_s=60) == []


def test_expired_but_completed_lease_is_dropped_not_republished(tmp_path):
    queue = TaskQueue(str(tmp_path / "q"))
    _publish_two(queue)
    task = queue.claim("worker-a", lease_s=0.01)
    time.sleep(0.05)
    # Worker finished but died before releasing the lease.
    queue.complete(task, {"chunk": task.chunk, "points": []})
    assert queue.reclaim_expired() == []
    assert queue.stats()["tasks"] == 1  # only the never-claimed chunk


def test_renew_detects_losing_the_lease(tmp_path):
    queue = TaskQueue(str(tmp_path / "q"))
    _publish_two(queue)
    task = queue.claim("slow-worker", lease_s=0.01)
    time.sleep(0.05)
    queue.reclaim_expired()
    thief = queue.claim("other-worker", lease_s=60)
    assert thief.chunk == task.chunk
    assert queue.renew(task, lease_s=60) is False
    assert task.lost
    # Completing a lost task must not clobber the thief's live lease.
    queue.complete(task, {"chunk": task.chunk, "points": []})
    assert queue.renew(thief, lease_s=60) is True


def test_prepare_refuses_a_different_grid_and_resumes_same_one(tmp_path):
    queue = TaskQueue(str(tmp_path / "q"))
    _publish_two(queue)
    with pytest.raises(QueueStateError, match="different sweep"):
        queue.prepare({"grid_digest": "e" * 64})
    # Same digest: stale tasks are swept, ledgers survive.
    ledger_dir = queue.ledger_dir("worker-a")
    os.makedirs(ledger_dir)
    queue.prepare({"grid_digest": "d" * 64})
    assert queue.pending_count() == 0
    assert os.path.isdir(ledger_dir)


# -- worker-jobs hardening (satellite 1) ------------------------------------


def test_resolve_worker_jobs_never_exceeds_host_cores(monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    cores = os.cpu_count() or 1
    assert resolve_worker_jobs(None) == cores
    assert resolve_worker_jobs(1) == 1
    # An explicit request above the core count is clamped, not rejected:
    # one command line must work across heterogeneous worker hosts.
    assert resolve_worker_jobs(cores + 7) == cores
    monkeypatch.setenv(JOBS_ENV_VAR, str(cores + 3))
    assert resolve_worker_jobs(None) == cores
    with pytest.raises(ValueError):
        resolve_worker_jobs(0)


# -- distributed == serial ---------------------------------------------------


def test_distributed_sweep_matches_serial_bit_identically(tmp_path):
    specs = _grid()
    cache = ResultCache(root=str(tmp_path / "cache"))
    report = run_distributed(
        specs, str(tmp_path / "queue"), cache=cache, workers=2,
        lease_s=30, poll_s=0.05, wait_timeout_s=300, name="t",
    )
    serial = run_grid_report(specs, jobs=1, cache=False)
    assert report.points == len(specs)
    for dist, ser, spec in zip(report.results, serial.results, specs):
        assert dist.spec == ser.spec == spec
        assert dist.scalar_metrics() == ser.scalar_metrics()
        assert dist.per_flow_goodput_mbps == ser.per_flow_goodput_mbps
    assert report.cache_misses == len(specs)
    assert report.total_events == serial.total_events


def test_distributed_resume_recomputes_nothing(tmp_path):
    specs = _grid()[:2]
    cache = ResultCache(root=str(tmp_path / "cache"))
    cold = run_distributed(
        specs, str(tmp_path / "queue"), cache=cache, workers=1,
        lease_s=30, poll_s=0.05, wait_timeout_s=300, name="t",
    )
    assert cold.cache_misses == len(specs)
    # Re-issue the identical sweep: the shared cache is the checkpoint,
    # so every point is a pre-scan hit and no chunk is even published.
    warm = run_distributed(
        specs, str(tmp_path / "queue"), cache=cache, workers=0,
        lease_s=30, poll_s=0.05, wait_timeout_s=30, name="t",
    )
    assert warm.cache_hits == len(specs)
    assert warm.cache_misses == 0 and warm.total_events == 0
    assert TaskQueue(str(tmp_path / "queue")).pending_count() == 0
    for a, b in zip(cold.results, warm.results):
        assert a.scalar_metrics() == b.scalar_metrics()


# -- dispatch order ----------------------------------------------------------


def _published_chunks(specs, queue_dir, cache, chunk):
    """Publish with nobody listening, then drain the queue the way a
    worker would: the grid indices of each chunk, in claim order."""
    with pytest.raises(DistributedSweepError, match="did not complete"):
        run_distributed(
            specs, queue_dir, cache=cache, workers=0, chunk=chunk,
            lease_s=30, poll_s=0.01, wait_timeout_s=0.0, ledger=False,
            name="t",
        )
    queue = TaskQueue(queue_dir)
    chunks = []
    while True:
        task = queue.claim("drain", lease_s=60)
        if task is None:
            return chunks
        assert task.chunk == len(chunks)  # lowest chunk id first
        chunks.append([int(p["index"]) for p in task.points])


def test_chunk_zero_holds_the_heaviest_points(tmp_path):
    # connections ascending: grid order would publish the cheapest first
    specs = [_quick(connections=n, seed=s) for n in (1, 2, 8) for s in (1, 2)]
    cache = ResultCache(root=str(tmp_path / "cache"))
    chunks = _published_chunks(specs, str(tmp_path / "queue"), cache, chunk=2)
    assert chunks == [[4, 5], [2, 3], [0, 1]]
    pending = list(enumerate(specs))
    assert chunks == [[i for i, _ in batch]
                      for batch in plan_batches(pending, 1, 2)[1]]
    manifest = TaskQueue(str(tmp_path / "queue")).read_manifest()
    assert manifest["chunks"] == 3 and manifest["chunk_size"] == 2


def test_resumed_sweep_republishes_only_missing_points_in_plan_order(tmp_path):
    specs = [_quick(connections=n, seed=s) for n in (1, 2, 8) for s in (1, 2)]
    cache = ResultCache(root=str(tmp_path / "cache"))
    queue_dir = str(tmp_path / "queue")
    # the interrupted first attempt got as far as points 4 and 1
    run_grid_report([specs[4], specs[1]], jobs=1, cache=cache, ledger=False)
    first = _published_chunks(specs, queue_dir, cache, chunk=2)
    assert first == [[5, 2], [3, 0]]
    # re-issuing the sweep sweeps the stale tasks and publishes the same
    # plan again: chunk ids mean the same points on every attempt
    assert _published_chunks(specs, queue_dir, cache, chunk=2) == first
    assert TaskQueue(queue_dir).read_manifest()["pending_points"] == 4


def test_distributed_requires_a_cache(tmp_path):
    with pytest.raises(ValueError, match="shared result cache"):
        run_distributed([_quick()], str(tmp_path / "queue"), cache=False)


def test_distributed_captures_point_errors(tmp_path):
    specs = [_quick(), _quick(connections=0)]  # second point is invalid
    cache = ResultCache(root=str(tmp_path / "cache"))
    report = run_distributed(
        specs, str(tmp_path / "queue"), cache=cache, workers=1,
        lease_s=30, poll_s=0.05, wait_timeout_s=300,
        raise_on_error=False, name="t",
    )
    assert len(report.errors) == 1
    assert report.errors[0].index == 1
    assert report.results[0].scalar_metrics()
    assert "ValueError" in report.errors[0].error


# -- fault tolerance (satellite 3) -------------------------------------------


def test_sigkilled_worker_chunk_is_redispatched(tmp_path):
    """SIGKILL a worker mid-chunk; the sweep must still finish exactly.

    Worker A claims a chunk and stalls on its first point (the
    REPRO_DIST_POINT_DELAY hook); we SIGKILL it, its lease expires, the
    coordinator re-publishes the chunk, and worker B — started with no
    delay — computes everything. The final grid must be bit-identical
    to a serial run and the coordinator must report the re-dispatch.
    """
    specs = _grid()
    cache = ResultCache(root=str(tmp_path / "cache"))
    queue_dir = str(tmp_path / "queue")
    queue = TaskQueue(queue_dir)
    outcome = {}

    def coordinate():
        try:
            outcome["report"] = run_distributed(
                specs, queue_dir, cache=cache, workers=0, chunk=2,
                lease_s=1.5, poll_s=0.05, wait_timeout_s=300, name="t",
            )
        except BaseException as exc:  # surfaced in the main thread
            outcome["error"] = exc

    coordinator = threading.Thread(target=coordinate, daemon=True)
    coordinator.start()

    def wait_for(predicate, timeout=60.0, what="condition"):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, f"timed out waiting: {what}"
            assert "error" not in outcome, f"coordinator died: {outcome}"
            time.sleep(0.05)

    wait_for(lambda: queue.pending_count() > 0, what="chunks published")
    victim = _spawn_worker(queue_dir, lease=1.5, idle=60,
                           REPRO_DIST_POINT_DELAY="600")
    try:
        wait_for(lambda: queue.stats()["leases"] > 0,
                 what="victim claimed a chunk")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        rescuer = _spawn_worker(queue_dir, lease=5.0, idle=60)
        try:
            coordinator.join(timeout=300)
            assert not coordinator.is_alive(), "sweep never completed"
        finally:
            rescuer.wait(timeout=60)
    finally:
        if victim.poll() is None:
            victim.kill()

    assert "error" not in outcome, f"coordinator raised: {outcome.get('error')}"
    report = outcome["report"]
    assert any("re-dispatched" in n for n in report.notices), report.notices
    serial = run_grid_report(specs, jobs=1, cache=False)
    for dist, ser in zip(report.results, serial.results):
        assert dist.scalar_metrics() == ser.scalar_metrics()


def test_coordinator_detects_all_local_workers_dead(tmp_path):
    # A worker pool that dies instantly (bogus delay knob kills it on
    # the first point) must fail the sweep loudly, not hang it.
    specs = [_quick()]
    cache = ResultCache(root=str(tmp_path / "cache"))
    env_backup = os.environ.get("REPRO_DIST_POINT_DELAY")
    os.environ["REPRO_DIST_POINT_DELAY"] = "not-a-number"
    try:
        with pytest.raises(DistributedSweepError, match="exited"):
            run_distributed(
                specs, str(tmp_path / "queue"), cache=cache, workers=1,
                lease_s=30, poll_s=0.05, wait_timeout_s=300, name="t",
            )
    finally:
        if env_backup is None:
            del os.environ["REPRO_DIST_POINT_DELAY"]
        else:
            os.environ["REPRO_DIST_POINT_DELAY"] = env_backup


# -- worker validation -------------------------------------------------------


def test_worker_refuses_fingerprint_skew(tmp_path):
    queue = TaskQueue(str(tmp_path / "queue"))
    queue.prepare({
        "grid_digest": "d" * 64,
        "kernel": resolve_kernel().name,  # the skew is the fingerprint's alone
        "fingerprint": "f" * 64,  # nothing real hashes to this
        "cache_root": str(tmp_path / "cache"),
    })
    with pytest.raises(WorkerError, match="different simulator code"):
        run_worker(str(queue.root), idle_timeout_s=5, poll_s=0.05)


def test_worker_times_out_without_a_manifest(tmp_path):
    with pytest.raises(WorkerError, match="no sweep manifest"):
        run_worker(str(tmp_path / "empty"), idle_timeout_s=0.2, poll_s=0.05)


def test_worker_exits_on_stop_and_reports(tmp_path):
    specs = [_quick()]
    cache = ResultCache(root=str(tmp_path / "cache"))
    queue = TaskQueue(str(tmp_path / "queue"))
    queue.prepare({
        "grid_digest": grid_digest(specs),
        "kernel": resolve_kernel().name,
        "cache_root": cache.root,
    })
    from repro.core.scenario import spec_to_dict

    queue.publish(0, [{"index": 0, "spec": spec_to_dict(specs[0])}])
    queue.request_stop()
    report = run_worker(str(queue.root), lease_s=30, idle_timeout_s=60,
                        poll_s=0.05)
    # Stop drains remaining work first, then exits.
    assert report.chunks == 1 and report.computed == 1
    assert report.exit_reason == "stop requested"
    assert cache.contains(specs[0])
    snapshots = queue.worker_snapshots()
    assert snapshots[report.worker_id]["state"] == "exited"


# -- ledger merge (satellite 2) ----------------------------------------------


def test_merge_ledgers_dedupes_and_orders(tmp_path):
    shard_a = RunLedger(root=str(tmp_path / "a"))
    shard_b = RunLedger(root=str(tmp_path / "b"))
    shard_a.append({"id": "aa1", "kind": "run", "ts": 3.0})
    shard_a.append({"id": "aa2", "kind": "run", "ts": 1.0})
    shard_b.append({"id": "bb1", "kind": "run", "ts": 2.0})
    shard_b.append({"id": "aa1", "kind": "run", "ts": 3.0})  # duplicate
    dest, added = merge_ledgers([shard_a, shard_b],
                                dest=str(tmp_path / "merged"))
    assert added == 3
    assert [r["id"] for r in dest.records()] == ["aa2", "bb1", "aa1"]
    # Idempotent: merging again adds nothing.
    _, added_again = merge_ledgers([shard_a, shard_b], dest=dest)
    assert added_again == 0


def test_merge_ledgers_copies_spec_refs(tmp_path):
    spec = _quick()
    shard = RunLedger(root=str(tmp_path / "shard"))
    result = run_grid_report([spec], jobs=1, cache=False,
                             ledger=shard)
    assert shard.records(kind="grid")
    dest, added = merge_ledgers([shard], dest=str(tmp_path / "merged"))
    assert added == 1
    from repro import spec_digest

    assert os.path.exists(dest.spec_ref_path(spec_digest(spec)))
    assert result.run_id in {r["id"] for r in dest.records()}


def test_distributed_journal_lands_in_coordinator_ledger(tmp_path):
    specs = _grid()[:2]
    cache = ResultCache(root=str(tmp_path / "cache"))
    journal = RunLedger(root=str(tmp_path / "journal"))
    report = run_distributed(
        specs, str(tmp_path / "queue"), cache=cache, workers=1,
        lease_s=30, poll_s=0.05, wait_timeout_s=300, name="t",
        ledger=journal,
    )
    assert report.run_id is not None
    record = journal.find(report.run_id)
    dist = record["distributed"]
    assert dist["queue"] == str(tmp_path / "queue")
    assert len(dist["workers"]) == 1
    assert dist["reclaims"] == 0
    # busy_s is the sum of the completion records' wall_s: one worker
    # cannot have been busier than the dispatch phase was long
    assert record["busy_s"] == report.busy_s > 0.0
    assert 0.0 < report.dispatch_balance <= 1.0


# -- live telemetry ----------------------------------------------------------


def test_dist_monitor_renders_worker_heartbeats():
    monitor = DistMonitor(total_points=4)
    monitor.record(("done", 0, 1000, 0.5, "hostx-12-ab"))
    monitor.update_workers({
        "hostx-12-ab": {"state": "running", "events_per_sec": 1234.0},
        "hostx-99-cd": {"state": "exited", "events_per_sec": 0.0},
    })
    line = monitor.render_line()
    assert "1/4" in line
    assert "1 live" in line and "12@1,234ev/s" in line
    # Exited workers leave the live tail. Only the tail is checked: the
    # head carries a wall-clock-derived ev/s figure that can contain "99".
    assert "99@" not in line.split("live:", 1)[1]


def test_distributed_monitor_sees_every_point(tmp_path):
    specs = _grid()[:2]
    cache = ResultCache(root=str(tmp_path / "cache"))
    monitor = DistMonitor(total_points=len(specs))
    run_distributed(
        specs, str(tmp_path / "queue"), cache=cache, workers=1,
        lease_s=30, poll_s=0.05, wait_timeout_s=300, name="t",
        monitor=monitor,
    )
    assert monitor.processed == len(specs)
    assert monitor.sim_events > 0


# -- CLI surface -------------------------------------------------------------


@pytest.fixture
def dist_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_LEDGER", "on")
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    return tmp_path


def test_cli_sweep_distributed_no_cache_is_an_error(tmp_path, capsys):
    import io

    code = cli_main([
        "sweep", "--scenario",
        os.path.join("benchmarks", "scenarios", "smoke_2point.json"),
        "--distributed", "--no-cache", "--queue", str(tmp_path / "q"),
    ], out=io.StringIO())
    assert code == 2
    assert "incompatible" in capsys.readouterr().err


def test_cli_sweep_distributed_end_to_end(dist_env, capsys):
    import io

    scenario = os.path.join("benchmarks", "scenarios", "smoke_2point.json")
    out = io.StringIO()
    code = cli_main([
        "sweep", "--scenario", scenario, "--distributed",
        "--workers", "1", "--queue", str(dist_env / "q"),
        "--wait-timeout", "300", "--json",
    ], out=out)
    assert code == 0
    rows = json.loads(out.getvalue())
    assert len(rows) == 2
    # Identical to the plain (non-distributed) sweep, served from cache.
    out2 = io.StringIO()
    code = cli_main(["sweep", "--scenario", scenario, "--json"], out=out2)
    assert code == 0
    assert json.loads(out2.getvalue()) == rows
    # Merge the per-worker shards and confirm the ledger is queryable.
    out3 = io.StringIO()
    code = cli_main(["runs", "merge", str(dist_env / "q")], out=out3)
    assert code == 0
    assert "merged" in out3.getvalue()


def test_cli_worker_reports_errors_cleanly(tmp_path, capsys):
    import io

    code = cli_main([
        "worker", "--pull", str(tmp_path / "nope"),
        "--idle-timeout", "0.2", "--poll", "0.05",
    ], out=io.StringIO())
    assert code == 2
    assert "no sweep manifest" in capsys.readouterr().err
