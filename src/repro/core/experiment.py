"""Experiment runner: one call from specification to measured result.

This is the library's main entry point. A
:class:`~repro.core.spec.ExperimentSpec` names a device + CPU
configuration (Table 1), a medium (§3.2), a congestion control, a
connection count, and the §5/§6 knobs (pacing mode, master module
overrides, pacing stride). :func:`run_experiment` assembles the full
simulated testbed, runs the iperf workload, and returns an
:class:`~repro.core.spec.ExperimentResult`; :func:`run_replicated`
averages over seeds the way the paper averages over 10 iperf runs.

The spec and result dataclasses are defined in :mod:`repro.core.spec`
(re-exported here): this module is the one that imports the simulator,
so everything that only describes, stores or ships experiments imports
that one instead.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, List, Optional, Union

from ..apps.flows import FlowClient
from ..apps.iperf import IperfServerApp
from ..cc import CC_ALGORITHMS, CongestionOps, MasterModule
from ..cpu import EXECUTORS
from ..devices import build_device
from ..kernel import resolve_kernel
from ..metrics.collector import StatAccumulator
from ..metrics.fairness import jain_fairness_index
from ..metrics.summary import RunSet
from ..netsim import Testbed
from ..obs.ledger import RunLedger, resolve_ledger
from ..obs.probes import ProbeContext, ProbeSet
from ..sim import NULL_TRACER, PeriodicTimer, RngStreams, Tracer
from ..tcp.connection import SocketConfig
from ..tcp.stack import FlowIdAllocator, MobileTcpStack
from ..units import MSEC, mbps, seconds, to_mbps
from .flows import FlowSpec, resolve_flows
from .spec import ExperimentResult, ExperimentSpec, ReplicatedResult

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "ReplicatedResult",
    "FlowSpec",
    "run_experiment",
    "run_replicated",
    "make_cc_factory",
]


def make_cc_factory(
    spec: ExperimentSpec, cc: Optional[str] = None
) -> Callable[[], CongestionOps]:
    """Resolve a CC name + the spec's master-module knobs to a factory.

    *cc* overrides the spec-level algorithm (per-flow CC in multi-flow
    experiments); the §5 master-module knobs always come from the spec.
    """
    base_factory = CC_ALGORITHMS.get(cc if cc is not None else spec.cc)
    needs_master = (
        spec.disable_model
        or spec.fixed_cwnd_segments is not None
        or spec.fixed_pacing_rate_mbps is not None
    )
    if not needs_master:
        return base_factory
    fixed_rate = (
        mbps(spec.fixed_pacing_rate_mbps)
        if spec.fixed_pacing_rate_mbps is not None
        else None
    )

    def factory() -> CongestionOps:
        return MasterModule(
            base_factory(),
            disable_model=spec.disable_model,
            fixed_cwnd_segments=spec.fixed_cwnd_segments,
            fixed_pacing_rate_bps=fixed_rate,
        )

    return factory


def run_experiment(
    spec: ExperimentSpec,
    tracer: Optional[Tracer] = None,
    profiler=None,
    ledger: Union[None, bool, RunLedger] = None,
) -> ExperimentResult:
    """Run one simulated iperf experiment and return its measurements.

    *tracer* (a :class:`~repro.sim.trace.Tracer`) is threaded through
    every traced component — CPU cores and governors, the TCP stack,
    links and queues, and CC state machines; export its records with
    :mod:`repro.obs.trace_export`. *profiler* (a
    :class:`~repro.obs.profiler.SimProfiler`) installs per-callback
    event-loop accounting. Both default to off and cost nothing then.

    *ledger* selects the run ledger
    (:func:`repro.obs.ledger.resolve_ledger`): unless disabled
    (``REPRO_LEDGER=off`` / ``ledger=False``), a manifest record of this
    invocation — spec digest, kernel, metrics, timing — is appended
    after the run. The ledger observes results and never changes them;
    append failures are swallowed.
    """
    if spec.warmup_s >= spec.duration_s:
        raise ValueError("warmup must be shorter than the duration")
    wall_start = time.perf_counter()
    if tracer is None:
        tracer = NULL_TRACER
    # Kernel selection (REPRO_KERNEL / --kernel) happens here and only
    # here: every component below takes the loop, and the ones with C
    # counterparts route themselves to the compiled backend when the loop
    # is compiled (see repro.kernel). Instrumented runs always get the
    # pure kernel — the C hot path carries no tracer/profiler hooks.
    kernel = resolve_kernel(
        instrumented=tracer.enabled or profiler is not None
    )
    loop = kernel.make_loop()
    rng = RngStreams(spec.seed)
    if profiler is not None:
        loop.set_profiler(profiler)

    # One sender host per flow entry. Host 0 is built exactly the way the
    # single-host path always was (same construction order, component
    # names, and RNG streams), so legacy specs — the implicit one-entry
    # plan of resolve_flows — reproduce archived results byte for byte.
    flow_plan = resolve_flows(spec)
    devices = [build_device(loop, spec.device, spec.cpu_config, tracer=tracer)]
    testbed = Testbed(
        loop,
        spec.medium,
        netem=spec.netem,
        rng=rng,
        phone_qdisc_segments=spec.phone_qdisc_segments,
        tracer=tracer,
    )
    if flow_plan[0].netem is not None:
        testbed.set_port_netem(0, flow_plan[0].netem)
    for host_flow in flow_plan[1:]:
        devices.append(
            build_device(loop, spec.device, spec.cpu_config, tracer=tracer)
        )
        testbed.add_sender_port(netem=host_flow.netem)

    flow_ids = FlowIdAllocator()
    stacks = []
    for host_index, device in enumerate(devices):
        costs = spec.costs if spec.costs is not None else device.cost_model
        executor = EXECUTORS.get(spec.executor)(device.cpu)
        stacks.append(
            MobileTcpStack(
                loop, executor, costs, testbed, tracer=tracer,
                port=testbed.ports[host_index], flow_ids=flow_ids,
            )
        )
    device, stack = devices[0], stacks[0]
    server = IperfServerApp(loop, testbed)
    socket_config = SocketConfig(
        pacing_mode=spec.pacing_mode,
        pacing_stride=spec.pacing_stride,
    )
    client = FlowClient(loop, socket_config=socket_config)
    for host_index, host_flow in enumerate(flow_plan):
        cc_factory = make_cc_factory(spec, cc=host_flow.cc)
        if host_flow.count > 0:
            client.add_flow_group(
                stacks[host_index],
                cc_factory,
                count=host_flow.count,
                start_s=host_flow.start_s,
                stop_s=host_flow.stop_s,
                transfer_bytes=host_flow.transfer_bytes,
                label=host_flow.cc,
            )
        if host_flow.arrival_rate_hz > 0:
            client.add_churn_process(
                stacks[host_index],
                cc_factory,
                rng.stream(f"flow-arrivals-{host_index}"),
                arrival_rate_hz=host_flow.arrival_rate_hz,
                mean_transfer_bytes=host_flow.mean_transfer_bytes,
                start_s=host_flow.start_s,
                stop_s=host_flow.stop_s,
                horizon_s=spec.duration_s,
                max_arrivals=host_flow.max_arrivals,
                label=host_flow.cc,
            )

    warmup_ns = seconds(spec.warmup_s)
    duration_ns = seconds(spec.duration_s)
    client.rtt_window_start_ns = warmup_ns

    # Memory proxy sampler: qdisc backlog + unacked inflight, in bytes.
    memory_stats = StatAccumulator()
    mss = socket_config.mss

    def sample_memory() -> None:
        if loop.now < warmup_ns:
            return
        backlog = testbed.phone_backlog_segments * mss
        inflight = sum(
            c.scoreboard.packets_out * mss for c in client.connections
        )
        memory_stats.add(backlog + inflight)

    memory_sampler = PeriodicTimer(loop, 50 * MSEC, sample_memory, name="memsample")

    probe_set: Optional[ProbeSet] = None
    if spec.probes:
        probe_set = ProbeSet(
            spec.probes,
            ProbeContext(
                loop, spec, client, server, testbed, device, stack,
                devices=devices, stacks=stacks,
            ),
        )

    # Teardown runs in the finally block so that an exception anywhere in
    # the run or in metrics extraction cannot leak live periodic timers.
    # This matters once worker processes reuse interpreters across grid
    # points (see repro.runner): a leaked sampler would keep the dead
    # testbed reachable for the worker's lifetime.
    try:
        memory_sampler.start()
        if probe_set is not None:
            probe_set.start()
        for host_device in devices:
            host_device.start()
        client.start()
        loop.run(until=duration_ns)

        goodput_bps = server.goodput_bps_between(warmup_ns, duration_ns)
        per_flow = [
            to_mbps(server.flow_goodput_bps_between(c.flow_id, warmup_ns, duration_ns))
            for c in client.connections
        ]
        rtt = client.rtt_stats
        pacing_periods = sum(c.pacer.periods for c in client.connections)
        fct_stats = StatAccumulator(keep=True)
        for completion_ns in client.completion_times_ns():
            fct_stats.add(completion_ns / 1e6)

        result = ExperimentResult(
            spec=spec,
            goodput_mbps=to_mbps(goodput_bps),
            per_flow_goodput_mbps=per_flow,
            rtt_mean_ms=rtt.mean,
            rtt_p50_ms=rtt.percentile(50) if rtt.count else 0.0,
            rtt_p95_ms=rtt.percentile(95) if rtt.count else 0.0,
            rtt_min_ms=rtt.min_value or 0.0,
            retransmitted_segments=client.retransmitted_segments,
            rto_count=client.rto_count,
            cpu_busy_fraction=sum(
                d.cpu_busy_fraction(duration_ns) for d in devices
            ) / len(devices),
            mean_skb_bytes=client.mean_pacer_period_bytes(),
            mean_idle_ms=client.mean_pacer_idle_ns() / 1e6,
            pacing_periods=pacing_periods,
            router_dropped_segments=testbed.router_dropped_segments,
            phone_dropped_segments=testbed.phone_dropped_segments,
            peak_qdisc_segments=testbed.peak_phone_qdisc_segments,
            peak_memory_bytes=int(memory_stats.max_value or 0),
            mean_memory_bytes=memory_stats.mean,
            mean_cwnd_segments=client.mean_cwnd_segments,
            events_processed=loop.events_processed,
            flow_count=len(client.connections),
            flows_completed=client.flows_completed,
            jain_fairness=jain_fairness_index(per_flow),
            fct_mean_ms=fct_stats.mean,
            fct_p95_ms=fct_stats.percentile(95) if fct_stats.count else 0.0,
            timeseries=probe_set.timeseries if probe_set is not None else {},
        )
        ledger_store = resolve_ledger(ledger)
        if ledger_store is not None:
            ledger_store.record_run(
                spec, result, time.perf_counter() - wall_start,
                kernel=kernel.name,
            )
        return result
    finally:
        # Teardown so the loop holds no live periodic sources.
        memory_sampler.stop()
        if probe_set is not None:
            probe_set.stop()
        client.stop()
        for host_device in devices:
            host_device.stop()
        testbed.stop_processes()


def run_replicated(
    spec: ExperimentSpec, runs: int = 3, jobs: Optional[int] = 1
) -> ReplicatedResult:
    """Run *runs* seeded replications of *spec* and aggregate.

    Seeds are derived deterministically from ``spec.seed``, so the same
    spec always yields the same aggregate. With *jobs* > 1 (or ``None``
    to resolve via ``REPRO_JOBS`` / the CPU count) the replications fan
    out through :mod:`repro.runner`; ordering and aggregates are
    identical to the serial path.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if jobs is None or jobs != 1:
        # Deferred import: repro.runner imports this module.
        from ..runner import resolve_jobs, run_replicated_parallel

        if resolve_jobs(jobs) > 1:
            return run_replicated_parallel(spec, runs=runs, jobs=jobs)
    results: List[ExperimentResult] = []
    stats = RunSet()
    for i in range(runs):
        run_spec = replace(spec, seed=spec.seed + 1000 * i)
        result = run_experiment(run_spec)
        results.append(result)
        stats.add_run(result.scalar_metrics())
    return ReplicatedResult(spec=spec, runs=results, stats=stats)
