"""Tests for the parallel experiment runner (:mod:`repro.runner`).

The load-bearing property is determinism: fanning a grid across worker
processes must change *nothing* about the results — same metrics, same
ordering — versus the serial path. Short simulations keep these quick.
"""

import heapq
import os
from dataclasses import replace

import pytest

import repro.runner as runner_module
from repro import (
    ExperimentGridError,
    ExperimentSpec,
    FlowSpec,
    GridPointError,
    ResultCache,
    RunLedger,
    load_scenario,
    resolve_chunk,
    resolve_jobs,
    run_grid,
    run_grid_report,
    run_replicated,
    run_replicated_grid,
    run_replicated_parallel,
)
from repro.runner import (
    CHUNK_ENV_VAR,
    JOBS_ENV_VAR,
    MAX_AUTO_CHUNK,
    TASKS_PER_WORKER,
    _replication_specs,
    cost_hint,
    plan_batches,
)

SCENARIOS = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "benchmarks", "scenarios")


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


# -- determinism ------------------------------------------------------------


def test_parallel_grid_matches_serial_exactly():
    specs = _grid()
    serial = run_grid(specs, jobs=1)
    parallel = run_grid(specs, jobs=4)
    assert len(serial) == len(parallel) == len(specs)
    for s, p, spec in zip(serial, parallel, specs):
        # Results come back in grid order regardless of completion order.
        assert s.spec == p.spec == spec
        assert s.scalar_metrics() == p.scalar_metrics()
        assert s.per_flow_goodput_mbps == p.per_flow_goodput_mbps
        assert s.events_processed == p.events_processed


def test_parallel_replication_matches_serial_run_replicated():
    spec = _quick(cc="bbr", connections=2)
    serial = run_replicated(spec, runs=3)
    pooled = run_replicated_parallel(spec, runs=3, jobs=3)
    assert len(serial.runs) == len(pooled.runs) == 3
    for s, p in zip(serial.runs, pooled.runs):
        assert s.spec == p.spec  # identical derived seeds
        assert s.scalar_metrics() == p.scalar_metrics()
    assert serial.goodput_mbps == pooled.goodput_mbps
    assert serial.goodput_stdev == pooled.goodput_stdev
    for name in serial.stats.names():
        assert serial.stats.mean(name) == pooled.stats.mean(name)


def test_replication_seeds_match_serial_derivation():
    spec = _quick(seed=7)
    seeds = [s.seed for s in _replication_specs(spec, 4)]
    assert seeds == [7, 1007, 2007, 3007]


def test_run_replicated_grid_orders_by_spec():
    specs = [_quick(cc="bbr"), _quick(cc="cubic")]
    aggs = run_replicated_grid(specs, runs=2, jobs=2)
    assert [a.spec.cc for a in aggs] == ["bbr", "cubic"]
    assert all(len(a.runs) == 2 for a in aggs)


# -- error capture ----------------------------------------------------------


def test_failing_point_is_captured_not_fatal():
    good = _quick()
    bad = ExperimentSpec(duration_s=0.5, warmup_s=1.0)  # warmup >= duration
    results = run_grid([good, bad, good], jobs=2, raise_on_error=False)
    assert results[0].scalar_metrics() == results[2].scalar_metrics()
    err = results[1]
    assert isinstance(err, GridPointError)
    assert err.index == 1
    assert err.spec == bad
    assert "ValueError" in err.error
    assert "warmup must be shorter" in err.traceback


def test_failing_point_raises_after_grid_completes():
    bad = ExperimentSpec(duration_s=0.5, warmup_s=1.0)
    with pytest.raises(ExperimentGridError) as excinfo:
        run_grid([_quick(), bad], jobs=1)
    assert len(excinfo.value.errors) == 1
    assert excinfo.value.errors[0].index == 1


# -- chunked dispatch -------------------------------------------------------


def _chunk_grid():
    specs = [_quick(cc="bbr", seed=s) for s in range(1, 6)]
    bad = ExperimentSpec(duration_s=0.5, warmup_s=1.0)  # warmup >= duration
    specs.insert(2, bad)
    return specs, 2


def test_chunked_matches_unchunked_ordering_and_errors():
    specs, bad_index = _chunk_grid()
    unchunked = run_grid_report(specs, jobs=3, chunk=1, raise_on_error=False)
    chunked = run_grid_report(specs, jobs=3, chunk=2, raise_on_error=False)
    assert unchunked.chunk == 1 and chunked.chunk == 2
    assert len(unchunked.results) == len(chunked.results) == len(specs)
    for i, (u, c) in enumerate(zip(unchunked.results, chunked.results)):
        if i == bad_index:
            assert isinstance(u, GridPointError)
            assert isinstance(c, GridPointError)
            assert c.index == bad_index and c.spec == specs[bad_index]
            assert "warmup must be shorter" in c.traceback
        else:
            assert u.spec == c.spec == specs[i]
            assert u.scalar_metrics() == c.scalar_metrics()


def test_oversized_chunk_batches_whole_grid_into_one_task():
    specs = [_quick(cc=cc) for cc in ("bbr", "cubic")]
    report = run_grid_report(specs, jobs=2, chunk=64)
    assert report.chunk == 64
    assert [r.spec for r in report.results] == specs


def test_chunk_summary_line():
    specs = [_quick(cc="bbr", seed=s) for s in range(1, 5)]
    report = run_grid_report(specs, jobs=2, chunk=2)
    assert "chunk=2" in report.summary_line()


# -- dispatch order ---------------------------------------------------------


def _reordered_grid():
    """Connections ascending, one strided point, one point that raises:
    descending cost hint is [4, 1, 0, 3, 2], nothing like grid order."""
    bad = ExperimentSpec(duration_s=0.5, warmup_s=1.0)  # warmup >= duration
    specs = [
        _quick(connections=1),
        _quick(connections=2),
        bad,
        _quick(connections=4, pacing_stride=5.0),
        _quick(connections=3),
    ]
    return specs, 2


def _planned_indices(pending, jobs, chunk=None):
    return [[i for i, _ in batch]
            for batch in plan_batches(pending, jobs, chunk)[1]]


def test_dispatch_order_never_reaches_the_results(tmp_path):
    specs, bad_index = _reordered_grid()
    assert _planned_indices(list(enumerate(specs)), 2, 1) == \
        [[4], [1], [0], [3], [2]]
    reports = []
    for n, (jobs, chunk) in enumerate([(1, None), (2, 1), (2, 2)]):
        # one point already cached, so cache_hit_indices is not vacuous
        cache = ResultCache(root=str(tmp_path / f"cache{n}"))
        run_grid_report([specs[1]], jobs=1, cache=cache, ledger=False)
        reports.append(run_grid_report(
            specs, jobs=jobs, chunk=chunk, cache=cache, ledger=False,
            raise_on_error=False))
    serial = reports[0]
    assert serial.jobs == 1
    for report in reports[1:]:
        assert report.jobs == 2
        assert report.cache_hit_indices == serial.cache_hit_indices == {1}
        assert [(e.index, e.spec, e.error) for e in report.errors] == \
            [(e.index, e.spec, e.error) for e in serial.errors]
        assert [e.index for e in report.errors] == [bad_index]
        for i, (a, b) in enumerate(zip(serial.results, report.results)):
            if i == bad_index:
                assert a is serial.errors[0] and b is report.errors[0]
            else:
                assert a.spec == b.spec == specs[i]
                assert a.scalar_metrics() == b.scalar_metrics()
        assert (report.cache_hits, report.cache_misses,
                report.cache_skipped) == (1, 3, 1)


def test_half_cached_grid_plans_only_the_misses(tmp_path, monkeypatch):
    specs = [_quick(connections=n) for n in (1, 2, 3, 4)]
    cache = ResultCache(root=str(tmp_path / "cache"))
    run_grid_report([specs[0], specs[3]], jobs=1, cache=cache, ledger=False)
    planned = []

    def spy(pending, jobs, chunk=None):
        planned.append(([i for i, _ in pending], jobs))
        return plan_batches(pending, jobs, chunk)

    monkeypatch.setattr(runner_module, "plan_batches", spy)
    report = run_grid_report(specs, jobs=2, cache=cache, ledger=False)
    assert planned == [([1, 2], 2)]
    assert report.cache_hit_indices == {0, 3}
    # an all-hit grid has nothing to plan
    run_grid_report(specs, jobs=2, cache=cache, ledger=False)
    assert len(planned) == 1


def test_serial_path_runs_in_grid_order(monkeypatch):
    specs, _ = _reordered_grid()
    ran = []
    real = runner_module._run_point

    def spy(indexed):
        ran.append(indexed[0])
        return real(indexed)

    monkeypatch.setattr(runner_module, "_run_point", spy)
    run_grid_report(specs, jobs=1, cache=False, ledger=False,
                    raise_on_error=False)
    assert ran == [0, 1, 2, 3, 4]


def test_busy_s_sums_worker_time_and_phases_still_sum_to_wall(tmp_path):
    specs = [_quick(connections=n) for n in (1, 2)]
    ledger = RunLedger(root=str(tmp_path / "ledger"))
    for jobs in (1, 2):
        report = run_grid_report(specs, jobs=jobs, cache=False, ledger=ledger)
        assert 0.0 < report.busy_s
        assert sum(report.phase_s.values()) == pytest.approx(report.wall_s)
        # the workers cannot have been busier than they existed
        assert 0.0 < report.dispatch_balance <= 1.0
        assert ledger.find(report.run_id)["busy_s"] == report.busy_s
    cached = ResultCache(root=str(tmp_path / "cache"))
    run_grid_report(specs, jobs=1, cache=cached, ledger=False)
    warm = run_grid_report(specs, jobs=2, cache=cached, ledger=False)
    assert warm.busy_s == 0.0 and warm.dispatch_balance == 0.0


# -- the plan itself (pure function) ----------------------------------------


def test_plan_is_deterministic_and_a_partition():
    specs = [
        _quick(connections=n, pacing_stride=stride, seed=seed)
        for n in (1, 5, 20) for stride in (1.0, 10.0) for seed in (1, 2)
    ]
    pending = [(i, spec) for i, spec in enumerate(specs) if i % 3]
    for jobs in (1, 2, 4):
        for chunk in (None, 1, 2, 5, 64):
            size, batches = plan_batches(pending, jobs, chunk)
            assert (size, batches) == plan_batches(list(pending), jobs, chunk)
            assert size == resolve_chunk(chunk, len(pending), jobs)
            assert all(len(b) == size for b in batches[:-1])
            assert 1 <= len(batches[-1]) <= size
            flat = [item for batch in batches for item in batch]
            assert sorted(i for i, _ in flat) == [i for i, _ in pending]
            assert all(spec is specs[i] for i, spec in flat)
            hints = [cost_hint(spec) for _, spec in flat]
            assert hints == sorted(hints, reverse=True)
    assert plan_batches([], 2) == (1, [])


def test_plan_ties_keep_grid_order():
    # an all-equal grid is sliced exactly as it was before there was a hint
    specs = [_quick(cc=cc, seed=s) for s in (1, 2, 3) for cc in ("bbr", "cubic")]
    pending = list(enumerate(specs))
    for chunk in (1, 2, 4):
        assert plan_batches(pending, 2, chunk)[1] == \
            [pending[k : k + chunk] for k in range(0, len(pending), chunk)]
    # within a hint class, too
    mixed = [_quick(connections=n) for n in (1, 4, 1, 4, 1)]
    assert _planned_indices(list(enumerate(mixed)), 2, 1) == \
        [[1], [3], [0], [2], [4]]


def test_plan_honours_repro_chunk(monkeypatch):
    pending = list(enumerate(_quick(seed=s) for s in range(6)))
    monkeypatch.setenv(CHUNK_ENV_VAR, "4")
    size, batches = plan_batches(pending, 2)
    assert size == 4 and [len(b) for b in batches] == [4, 2]
    assert plan_batches(pending, 2, 3)[0] == 3  # the argument still wins


def test_cost_hint_is_monotone_in_what_drives_host_cost():
    base = _quick(connections=4, pacing_stride=2.0)
    assert cost_hint(replace(base, duration_s=1.6)) > cost_hint(base)
    assert cost_hint(replace(base, connections=5)) > cost_hint(base)
    assert cost_hint(replace(base, pacing_stride=4.0)) < cost_hint(base)
    assert cost_hint(replace(base, pacing_stride=1.0)) > cost_hint(base)
    # what does not change the packet count does not change the hint
    assert cost_hint(replace(base, seed=99, cpu_config="default")) == \
        cost_hint(base)
    # forced-off pacing never strides
    off = replace(base, pacing_mode="off")
    assert cost_hint(off) == cost_hint(replace(off, pacing_stride=50.0))
    assert cost_hint(off) == cost_hint(replace(base, pacing_stride=1.0))


def test_cost_hint_counts_multi_host_flows_and_churn():
    legacy = _quick(connections=3)
    hosts = _quick(flows=(FlowSpec(cc="bbr", count=2),
                          FlowSpec(cc="cubic", count=1)))
    assert cost_hint(hosts) == cost_hint(legacy)
    churn = _quick(flows=(
        FlowSpec(cc="bbr", count=2),
        FlowSpec(cc="bbr2", count=0, arrival_rate_hz=10.0,
                 mean_transfer_bytes=100_000),
    ))
    # 2 static flows + 10/s x 0.8 s expected arrivals
    assert cost_hint(churn) == pytest.approx(0.8 * (2 + 8.0))
    assert cost_hint(replace(churn, duration_s=1.6)) > 2 * cost_hint(churn)


def test_unrateable_spec_sorts_last_and_fails_as_a_point():
    # planning happens outside the per-point try/except: a stride the
    # simulator will refuse must not raise here
    bad = _quick(pacing_stride=0.0)
    assert cost_hint(bad) == 0.0
    specs = [bad, _quick(), _quick(cc="cubic")]
    assert _planned_indices(list(enumerate(specs)), 2, 1) == [[1], [2], [0]]
    results = run_grid(specs, jobs=2, chunk=1, cache=False, ledger=False,
                       raise_on_error=False)
    assert isinstance(results[0], GridPointError) and results[0].index == 0
    assert results[1].spec == specs[1] and results[2].spec == specs[2]


# -- replay: measured per-point costs through a list-scheduling model -------

#: host seconds per point, compiled kernel, best of 3, in grid order
#: (ISSUE 24 Motivation; fig5/fig8 are benchmarks/scenarios/*.json)
_PACED_BBR_BULK_COST_S = [0.072, 0.097, 0.082, 0.266]
_FIG5_COST_S = [0.093, 0.105, 0.341, 0.264, 0.575, 0.569]
_FIG8_COST_S = [
    0.564, 0.384, 0.207, 0.121, 0.085, 0.046,
    1.338, 0.645, 0.279, 0.191, 0.114, 0.047,
    1.350, 0.727, 0.340, 0.225, 0.117, 0.050,
]


def _makespan(batches, cost_s, workers):
    """Each batch, in order, goes to the worker that frees up first."""
    free = [0.0] * workers
    for batch in batches:
        heapq.heappush(
            free, heapq.heappop(free) + sum(cost_s[i] for i, _ in batch))
    return max(free)


def _replay(case, workers):
    """Makespans of *case* at *workers*: (grid order, hint order, lower bound)."""
    paced = [
        _quick(cc="bbr", cpu_config=cpu, connections=n, duration_s=1.0,
               warmup_s=0.3)
        for cpu in ("low-end", "mid-end") for n in (5, 20)
    ]
    fig5 = load_scenario(os.path.join(SCENARIOS, "fig5_pacing_connections.json"))
    fig8 = load_scenario(os.path.join(SCENARIOS, "fig8_stride_sweep.json"))
    fig8x3 = [point for spec in fig8 for point in _replication_specs(spec, 3)]
    specs, cost_s = {
        "paced_bbr_bulk": (paced, _PACED_BBR_BULK_COST_S),
        "fig5": (fig5, _FIG5_COST_S),
        "fig8": (fig8, _FIG8_COST_S),
        "fig8x3": (fig8x3, [c for c in _FIG8_COST_S for _ in range(3)]),
    }[case]
    assert len(specs) == len(cost_s)
    pending = list(enumerate(specs))
    size, planned = plan_batches(pending, workers)
    in_grid_order = [pending[k : k + size]
                     for k in range(0, len(pending), size)]
    return (_makespan(in_grid_order, cost_s, workers),
            _makespan(planned, cost_s, workers),
            max(max(cost_s), sum(cost_s) / workers))


@pytest.mark.parametrize("workers", [2, 4, 8])
@pytest.mark.parametrize("case", ["paced_bbr_bulk", "fig5", "fig8", "fig8x3"])
def test_replayed_hint_order_is_no_worse_than_grid_order(
        monkeypatch, case, workers):
    monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
    grid, hint, bound = _replay(case, workers)
    # Longest-first is a 4/3-approximation, not a dominance rule, and
    # equal hints hide real differences: on fig5 at 2 workers pacing=off
    # costs 12 ms more than auto at 1 connection and grid order happens
    # to pair that with the lighter side (1.015 s vs 1.003 s). Anything
    # past that 1.2 % is a regression of the hint.
    assert hint <= grid * 1.015, (hint, grid)
    assert hint <= bound * 1.12, (hint, bound)


def test_replayed_gains_where_the_issue_claims_them(monkeypatch):
    monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
    # the benchmark workload at --jobs 2: the heaviest point ran last
    assert _replay("paced_bbr_bulk", 2) == pytest.approx((0.363, 0.266, 0.266))
    grid, hint, _ = _replay("fig8", 2)
    assert hint < 0.9 * grid
    grid, hint, _ = _replay("fig8", 4)
    assert hint < 0.8 * grid


# -- chunk resolution -------------------------------------------------------


def test_resolve_chunk_explicit_wins(monkeypatch):
    monkeypatch.setenv(CHUNK_ENV_VAR, "7")
    assert resolve_chunk(3, points=100, jobs=2) == 3


def test_resolve_chunk_env_var(monkeypatch):
    monkeypatch.setenv(CHUNK_ENV_VAR, "5")
    assert resolve_chunk(points=100, jobs=2) == 5


def test_resolve_chunk_auto_sizing(monkeypatch):
    monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
    assert resolve_chunk(points=0, jobs=4) == 1
    assert resolve_chunk(points=8, jobs=4) == 1
    # 100 points on 2 workers: ceil(100 / (2 * TASKS_PER_WORKER))
    expected = -(-100 // (2 * TASKS_PER_WORKER))
    assert resolve_chunk(points=100, jobs=2) == expected
    assert resolve_chunk(points=100_000, jobs=2) == MAX_AUTO_CHUNK


@pytest.mark.parametrize("env", ["0", "-1", "2.5", "many"])
def test_resolve_chunk_bad_env(monkeypatch, env):
    monkeypatch.setenv(CHUNK_ENV_VAR, env)
    with pytest.raises(ValueError, match="REPRO_CHUNK"):
        resolve_chunk(points=10, jobs=2)


def test_resolve_chunk_rejects_bad_arguments():
    with pytest.raises(ValueError):
        resolve_chunk(0)
    with pytest.raises(ValueError):
        resolve_chunk(-3)
    with pytest.raises(ValueError):
        resolve_chunk(2.5)
    with pytest.raises(ValueError):
        resolve_chunk(True)


# -- jobs resolution / fallback ---------------------------------------------


def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "8")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env_var(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "5")
    assert resolve_jobs() == 5


@pytest.mark.parametrize("env", ["lots", "2.5", "0", "-4"])
def test_resolve_jobs_bad_env(monkeypatch, env):
    """Junk REPRO_JOBS fails fast, naming the variable — not deep in the
    executor."""
    monkeypatch.setenv(JOBS_ENV_VAR, env)
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs()


def test_resolve_jobs_rejects_nonpositive():
    with pytest.raises(ValueError):
        resolve_jobs(0)
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_resolve_jobs_rejects_non_integers():
    with pytest.raises(ValueError, match="integer"):
        resolve_jobs(2.5)
    with pytest.raises(ValueError, match="integer"):
        resolve_jobs(True)


def test_report_serial_fallback_for_single_point():
    report = run_grid_report([_quick()], jobs=4)
    assert report.jobs == 1  # capped at the point count
    assert report.points == 1
    assert report.total_events > 0
    assert report.events_per_sec > 0
    assert "points=1" in report.summary_line()


def test_report_caps_workers_at_point_count():
    report = run_grid_report([_quick(), _quick(cc="cubic")], jobs=16)
    assert report.jobs == 2
    assert not report.errors


def test_empty_grid():
    report = run_grid_report([], jobs=4)
    assert report.results == []
    assert report.points == 0


def test_summary_line_renders_notices():
    report = run_grid_report([_quick()], jobs=1)
    assert "[note:" not in report.summary_line()
    report.notices.append("kernel 'compiled' unavailable; ran pure")
    line = report.summary_line()
    assert "[note: kernel 'compiled' unavailable; ran pure]" in line
