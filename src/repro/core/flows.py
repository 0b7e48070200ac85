"""Flow-level experiment description: heterogeneous senders at one bottleneck.

The source paper only ever needs N identical greedy uplink flows from a
single phone, which is what ``ExperimentSpec.connections`` expresses. The
related work the ROADMAP targets (BBR-vs-Cubic share studies,
RTT-unfairness sweeps, web-like churn) needs the *flow* as a first-class
entity: each :class:`FlowSpec` describes one sender host attached to the
shared bottleneck — its congestion control, its access-path impairment
(base RTT / loss), the lifetime of its flows, and optionally a seeded
Poisson arrival process of finite transfers.

``ExperimentSpec.flows`` holds a tuple of these; an empty tuple means the
legacy single-host shape, which :func:`resolve_flows` maps to the exact
equivalent one-entry plan so both spellings run the same code path (and
produce bit-identical results for archived grids).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..netsim.profiles import NetemConfig

__all__ = ["FlowSpec", "resolve_flows"]


@dataclass(frozen=True)
class FlowSpec:
    """One sender host and the flows it contributes to the experiment.

    Every host gets its own device CPU, TCP stack, qdisc and access
    links; all hosts share the router bottleneck. ``count`` static flows
    are opened at ``start_s`` (slightly staggered, like the legacy iperf
    client); each is greedy unless ``transfer_bytes`` bounds it. With
    ``arrival_rate_hz`` > 0 the host additionally spawns finite flows at
    Poisson arrival times with exponentially distributed sizes (mean
    ``mean_transfer_bytes``), drawn from the experiment's seeded
    :class:`~repro.sim.rng.RngStreams` — so churn is identical under
    serial, parallel, and cached execution.
    """

    #: congestion control for this host's flows: "cubic" | "bbr" | ...
    cc: str = "bbr"
    #: static flows opened at start_s (0 = churn-only host)
    count: int = 1
    #: when the static flows open, seconds
    start_s: float = 0.0
    #: when this host's flows close (None = run to the end)
    stop_s: Optional[float] = None
    #: static flows stop after this many bytes (None = greedy);
    #: rounded up to whole MSS segments by the flow client
    transfer_bytes: Optional[int] = None
    #: per-host access-path impairment (extra one-way delay / loss on the
    #: data path); rate/buffer describe the shared bottleneck and belong
    #: in the spec-level ``netem``
    netem: Optional[NetemConfig] = None
    #: Poisson arrival rate of extra finite flows (0 = no churn)
    arrival_rate_hz: float = 0.0
    #: mean of the exponential flow-size draw (required with churn)
    mean_transfer_bytes: Optional[int] = None
    #: hard cap on churn arrivals (None = bounded by the run duration)
    max_arrivals: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("flow count must be >= 0")
        if self.count == 0 and self.arrival_rate_hz <= 0:
            raise ValueError(
                "a flow entry needs static flows (count >= 1) or a churn "
                "process (arrival_rate_hz > 0)"
            )
        if self.start_s < 0:
            raise ValueError("start_s must be >= 0")
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise ValueError("stop_s must be > start_s")
        if self.transfer_bytes is not None and self.transfer_bytes <= 0:
            raise ValueError("transfer_bytes must be > 0")
        if self.arrival_rate_hz < 0:
            raise ValueError("arrival_rate_hz must be >= 0")
        if self.arrival_rate_hz > 0 and self.mean_transfer_bytes is None:
            raise ValueError("churn (arrival_rate_hz > 0) needs mean_transfer_bytes")
        if self.mean_transfer_bytes is not None and self.mean_transfer_bytes <= 0:
            raise ValueError("mean_transfer_bytes must be > 0")
        if self.max_arrivals is not None and self.max_arrivals < 1:
            raise ValueError("max_arrivals must be >= 1")

    def label(self) -> str:
        """Compact human-readable identifier for reports."""
        parts = [self.cc]
        if self.count != 1:
            parts.append(f"{self.count}c")
        if self.arrival_rate_hz > 0:
            parts.append(f"poisson@{self.arrival_rate_hz:g}/s")
        if self.netem is not None and self.netem.extra_delay_ns:
            parts.append(f"+{self.netem.extra_delay_ns / 1e6:g}ms")
        return "/".join(parts)


def resolve_flows(spec) -> Tuple[FlowSpec, ...]:
    """The spec's flow plan: explicit ``flows``, or the legacy mapping.

    A legacy spec (``flows == ()``) is exactly one host running
    ``spec.connections`` greedy flows under ``spec.cc`` — the shape every
    archived result grid was produced with.
    """
    if spec.flows:
        return spec.flows
    return (FlowSpec(cc=spec.cc, count=spec.connections),)
