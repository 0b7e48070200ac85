"""The probe framework: named periodic samplers over a running testbed.

A *probe* is a named factory registered in :data:`repro.obs.PROBES`
(the built-in ones below by reference, so listing probe names imports
nothing from here; extensions through :func:`probe`). Given a
:class:`ProbeContext` (the live experiment components), it creates its
:class:`~repro.obs.series.TimeSeries` objects through
:meth:`ProbeContext.series` and returns a sampler callable that appends
one sample per tick. :class:`ProbeSet` drives all selected samplers from
a single :class:`~repro.sim.timer.PeriodicTimer`, so N probes cost one
event per period.

Probes are read-only observers: they never mutate connection, CPU, or
queue state, so enabling them changes event *counts* but no measured
metric (tested in ``tests/test_obs_probes.py``). Experiment specs select
probes with the ``probes`` field (``ExperimentSpec(probes=("cwnd",))``),
which round-trips through the scenario wire format and the parallel
runner; the CLI spells it ``--probe cwnd``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..sim import EventLoop, PeriodicTimer
from ..units import MSEC, SEC
from . import PROBES
from .series import TimeSeries

__all__ = ["PROBES", "ProbeContext", "ProbeSet", "DEFAULT_PROBE_PERIOD_NS", "probe"]

#: default sampling period (10 ms, the governor's own cadence)
DEFAULT_PROBE_PERIOD_NS = 10 * MSEC

#: a sampler takes the current simulated time and records one sample
Sampler = Callable[[int], None]


class ProbeContext:
    """The live experiment components a probe can observe.

    Created by :func:`repro.core.experiment.run_experiment`; all series
    created through :meth:`series` accumulate in :attr:`timeseries`,
    which becomes ``ExperimentResult.timeseries``.
    """

    def __init__(
        self,
        loop: EventLoop,
        spec,
        client,
        server,
        testbed,
        device,
        stack,
        devices: Optional[Sequence] = None,
        stacks: Optional[Sequence] = None,
    ):
        self.loop = loop
        self.spec = spec
        self.client = client
        self.server = server
        self.testbed = testbed
        self.device = device
        self.stack = stack
        #: all sender hosts (multi-flow experiments); [device]/[stack]
        #: for the single-host shape
        self.devices = list(devices) if devices is not None else [device]
        self.stacks = list(stacks) if stacks is not None else [stack]
        self.timeseries: Dict[str, TimeSeries] = {}

    def series(self, name: str, unit: str = "", labelled: bool = False) -> TimeSeries:
        """Create (and register) a named output series."""
        if name in self.timeseries:
            raise ValueError(f"duplicate probe series {name!r}")
        ts = TimeSeries(name=name, unit=unit, labels=[] if labelled else None)
        self.timeseries[name] = ts
        return ts


def probe(name: str) -> Callable[[Callable], Callable]:
    """Decorator: register an extension probe factory under *name*."""

    def register(factory: Callable[[ProbeContext], Sampler]) -> Callable:
        PROBES.register(name, factory)
        return factory

    return register


class ProbeSet:
    """The selected probes of one experiment, driven by one timer."""

    def __init__(
        self,
        names: Sequence[str],
        ctx: ProbeContext,
        period_ns: int = DEFAULT_PROBE_PERIOD_NS,
    ):
        self.ctx = ctx
        self.period_ns = int(period_ns)
        # Resolve all names first: an unknown probe fails fast with the
        # registry's choices-enumerating error, before anything runs.
        self._samplers: List[Sampler] = [PROBES.get(name)(ctx) for name in names]
        self._timer = PeriodicTimer(ctx.loop, self.period_ns, self._sample, name="probes")

    @property
    def timeseries(self) -> Dict[str, TimeSeries]:
        """All series produced by this probe set."""
        return self.ctx.timeseries

    def start(self) -> None:
        """Begin sampling, with a tick at t=now (so series start at 0)."""
        if self._samplers:
            self._timer.start(initial_delay_ns=0)

    def stop(self) -> None:
        """Stop the sampling timer."""
        self._timer.stop()

    def _sample(self) -> None:
        now = self.ctx.loop.now
        for sampler in self._samplers:
            sampler(now)


# --------------------------------------------------------------------------
# TCP / congestion-control probes
# --------------------------------------------------------------------------


def _cwnd_probe(ctx: ProbeContext) -> Sampler:
    """Mean congestion window across connections, in segments."""
    series = ctx.series("cwnd", "segments")
    conns = ctx.client.connections

    def sample(now: int) -> None:
        n = len(conns)
        series.append(now, sum(c.cwnd for c in conns) / n if n else 0.0)

    return sample


def _inflight_probe(ctx: ProbeContext) -> Sampler:
    """Total unacknowledged segments in flight."""
    series = ctx.series("inflight", "segments")
    conns = ctx.client.connections

    def sample(now: int) -> None:
        series.append(now, float(sum(c.inflight_segments for c in conns)))

    return sample


def _pacing_rate_probe(ctx: ProbeContext) -> Sampler:
    """Mean pacing rate across connections, in Mbps."""
    series = ctx.series("pacing_rate", "Mbps")
    conns = ctx.client.connections

    def sample(now: int) -> None:
        n = len(conns)
        rate = sum(c.pacer.rate_bps for c in conns) / n if n else 0.0
        series.append(now, rate / 1e6)

    return sample


def _srtt_probe(ctx: ProbeContext) -> Sampler:
    """Mean smoothed RTT across connections with an estimate, in ms."""
    series = ctx.series("srtt", "ms")
    conns = ctx.client.connections

    def sample(now: int) -> None:
        samples = [c.srtt_ns for c in conns if c.srtt_ns is not None]
        mean_ns = sum(samples) / len(samples) if samples else 0.0
        series.append(now, mean_ns / 1e6)

    return sample


def _delivery_rate_probe(ctx: ProbeContext) -> Sampler:
    """Aggregate ACK-clocked delivery rate over the last period, Mbps."""
    series = ctx.series("delivery_rate", "Mbps")
    conns = ctx.client.connections
    state = {"t": ctx.loop.now, "bytes": sum(c.delivered_bytes for c in conns)}

    def sample(now: int) -> None:
        delivered = sum(c.delivered_bytes for c in conns)
        dt = now - state["t"]
        rate_mbps = (
            (delivered - state["bytes"]) * 8 * SEC / dt / 1e6 if dt > 0 else 0.0
        )
        state["t"], state["bytes"] = now, delivered
        series.append(now, rate_mbps)

    return sample


def _goodput_probe(ctx: ProbeContext) -> Sampler:
    """Server-side in-order goodput over the last period, Mbps."""
    series = ctx.series("goodput", "Mbps")
    aggregate = ctx.server.aggregate
    state = {"t": ctx.loop.now, "bytes": aggregate.total}

    def sample(now: int) -> None:
        total = aggregate.total
        dt = now - state["t"]
        rate_mbps = (total - state["bytes"]) * 8 * SEC / dt / 1e6 if dt > 0 else 0.0
        state["t"], state["bytes"] = now, total
        series.append(now, rate_mbps)

    return sample


def _bbr_state_probe(ctx: ProbeContext) -> Sampler:
    """First flow's CC mode (label) and pacing gain (value).

    Works for any CC: loss-based modules report their name and gain 0.
    A :class:`~repro.cc.master.MasterModule` wrapper is unwrapped to the
    model underneath.
    """
    series = ctx.series("bbr_state", "pacing_gain", labelled=True)
    conns = ctx.client.connections

    def sample(now: int) -> None:
        # Resolved per tick: churn-only experiments have no connection
        # until the first arrival.
        if not conns:
            series.append(now, 0.0, label="none")
            return
        cc = conns[0].cc
        cc = getattr(cc, "inner", cc)
        series.append(
            now,
            float(getattr(cc, "pacing_gain", 0.0)),
            label=str(getattr(cc, "mode", cc.name)),
        )

    return sample


# --------------------------------------------------------------------------
# CPU probes
# --------------------------------------------------------------------------


def _cpu_util_probe(ctx: ProbeContext) -> Sampler:
    """Per-core busy fraction over the last period, plus the core sum."""
    cores = ctx.device.cpu.all_cores()
    total = ctx.series("cpu_util", "fraction")
    per_core = {c.name: ctx.series(f"cpu_util.{c.name}", "fraction") for c in cores}
    state = {"t": ctx.loop.now}
    last_busy = {c.name: c.busy_ns_up_to_now() for c in cores}

    def sample(now: int) -> None:
        dt = now - state["t"]
        state["t"] = now
        busy_sum = 0.0
        for core in cores:
            busy = core.busy_ns_up_to_now()
            frac = (busy - last_busy[core.name]) / dt if dt > 0 else 0.0
            last_busy[core.name] = busy
            busy_sum += frac
            per_core[core.name].append(now, frac)
        total.append(now, busy_sum)

    return sample


def _cpu_freq_probe(ctx: ProbeContext) -> Sampler:
    """Per-core clock frequency in MHz."""
    cores = ctx.device.cpu.all_cores()
    per_core = {c.name: ctx.series(f"cpu_freq.{c.name}", "MHz") for c in cores}

    def sample(now: int) -> None:
        for core in cores:
            per_core[core.name].append(now, core.freq_hz / 1e6)

    return sample


def _softirq_probe(ctx: ProbeContext) -> Sampler:
    """Pending stack work items across cores (softirq backlog)."""
    series = ctx.series("softirq", "items")
    cores = ctx.device.cpu.all_cores()

    def sample(now: int) -> None:
        series.append(now, float(sum(c.queue_depth for c in cores)))

    return sample


# --------------------------------------------------------------------------
# Network probes
# --------------------------------------------------------------------------


def _qdisc_probe(ctx: ProbeContext) -> Sampler:
    """Phone-qdisc and router-buffer backlogs, in segments.

    The phone series sums every sender port's qdisc (identical to the
    legacy single-qdisc reading when there is one host).
    """
    phone = ctx.series("qdisc.phone", "segments")
    router = ctx.series("qdisc.router", "segments")
    testbed = ctx.testbed

    def sample(now: int) -> None:
        phone.append(now, float(testbed.phone_backlog_segments))
        router.append(now, float(testbed.router_queue.backlog_segments))

    return sample


# --------------------------------------------------------------------------
# Per-flow probes (series keyed by flow id)
# --------------------------------------------------------------------------


def _flow_goodput_probe(ctx: ProbeContext) -> Sampler:
    """Per-flow server goodput over the last period, Mbps.

    One ``flow_goodput.f<id>`` series per flow. Flows created at setup
    are tracked from the first tick; churn-spawned flows appear lazily
    as they arrive. The discovery tick anchors the rate window at 0.
    """
    server = ctx.server
    client = ctx.client
    # flow id -> [series, window start, byte total at window start]
    known: Dict[int, list] = {}

    def sample(now: int) -> None:
        flow_ids = {conn.flow_id for conn in client.connections}
        flow_ids.update(server.per_flow)
        for flow_id in sorted(flow_ids):
            counter = server.per_flow.get(flow_id)
            total = 0 if counter is None else counter.total
            entry = known.get(flow_id)
            if entry is None:
                ts = ctx.series(f"flow_goodput.f{flow_id}", "Mbps")
                known[flow_id] = [ts, now, total]
                ts.append(now, 0.0)
                continue
            ts, t0, bytes0 = entry
            dt = now - t0
            rate_mbps = (
                (total - bytes0) * 8 * SEC / dt / 1e6 if dt > 0 else 0.0
            )
            entry[1], entry[2] = now, total
            ts.append(now, rate_mbps)

    return sample


def _flow_cwnd_probe(ctx: ProbeContext) -> Sampler:
    """Per-flow congestion window, one ``flow_cwnd.f<id>`` series each.

    Closed flows (completed transfers, scheduled stops) drop out of
    their series rather than flat-lining at the final cwnd.
    """
    conns = ctx.client.connections
    known: Dict[int, TimeSeries] = {}

    def sample(now: int) -> None:
        for conn in conns:
            if conn.closed:
                continue
            ts = known.get(conn.flow_id)
            if ts is None:
                ts = known[conn.flow_id] = ctx.series(
                    f"flow_cwnd.f{conn.flow_id}", "segments"
                )
            ts.append(now, float(conn.cwnd))

    return sample
