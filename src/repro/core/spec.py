"""Experiment specifications and results as data, and their wire format.

The declarative core of the library: what one measurement point *is*
(:class:`ExperimentSpec`), what it measured (:class:`ExperimentResult`,
:class:`ReplicatedResult`), and how a spec travels between processes,
files and hosts. Nothing here runs a simulation — the module imports no
simulator code, so the CLI, the result cache, the run ledger and the
distributed coordinator can load specs and results without loading the
TCP/CPU/network stack (:func:`repro.core.experiment.run_experiment` is
the other half).

A spec is a frozen dataclass, which is perfect inside one Python process
but opaque as soon as it has to travel. :func:`spec_to_dict` /
:func:`spec_from_dict` convert specs to and from plain JSON-compatible
dicts with an **exact round trip** (``spec_from_dict(spec.to_dict()) ==
spec`` always). Devices and media are referenced by their registry name
(``"pixel4"``, ``"wifi"``); unregistered profiles, ``netem`` and
``costs`` serialize as inline field dicts. Unknown keys are rejected
with a message naming the valid ones. :func:`canonical_spec_json` and
:func:`spec_digest` derive the content address the cache and ledger key
on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..cpu.costs import CostModel
from ..devices.profiles import DEVICES, PIXEL_4, CpuConfig, DeviceProfile
from ..metrics.summary import RunSet
from ..netsim.profiles import ETHERNET_LAN, MEDIA, MediumProfile, NetemConfig
from ..obs.series import TimeSeries
from ..registry import Registry
from .flows import FlowSpec

__all__ = [
    "PacingMode",
    "ExperimentSpec",
    "ExperimentResult",
    "ReplicatedResult",
    "spec_to_dict",
    "spec_from_dict",
    "flow_to_dict",
    "flow_from_dict",
    "canonical_spec_json",
    "spec_digest",
]


class PacingMode:
    """How pacing is decided for a connection (§5's experiment knobs)."""

    #: follow the congestion-control module (BBR: on, Cubic: off)
    AUTO = "auto"
    #: force pacing on (the §5.2.2 Cubic-with-pacing experiments)
    ON = "on"
    #: force pacing off (the §5.2.1 BBR-without-pacing experiments)
    OFF = "off"

    ALL = (AUTO, ON, OFF)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one measurement point."""

    #: congestion control: "cubic" | "bbr" | "bbr2" | "reno"
    cc: str = "bbr"
    #: parallel connections (iperf3 -P)
    connections: int = 1
    device: DeviceProfile = PIXEL_4
    #: Table 1 configuration name (see :class:`repro.devices.CpuConfig`)
    cpu_config: str = CpuConfig.LOW_END
    medium: MediumProfile = ETHERNET_LAN
    netem: Optional[NetemConfig] = None
    #: pacing decision (§5.2): auto / forced on / forced off
    pacing_mode: str = PacingMode.AUTO
    #: the paper's pacing stride (§6); 1.0 = stock kernel
    pacing_stride: float = 1.0
    #: simulated transfer duration (the paper runs 5 min; the defaults
    #: here are shorter but past convergence — see EXPERIMENTS.md)
    duration_s: float = 8.0
    #: measurement starts after this warmup
    warmup_s: float = 2.0
    seed: int = 1
    #: cost-model override (None = device default); ablations use this
    costs: Optional[CostModel] = None
    # --- §5 master-module knobs ---
    disable_model: bool = False
    fixed_cwnd_segments: Optional[int] = None
    fixed_pacing_rate_mbps: Optional[float] = None
    #: stack work placement: "serial" (default, see DESIGN.md §4),
    #: "rps" (multi-core ablation), "free" (no CPU model)
    executor: str = "serial"
    phone_qdisc_segments: int = 1000
    #: telemetry probes to sample during the run (names registered in
    #: :data:`repro.obs.PROBES`); results land in
    #: :attr:`ExperimentResult.timeseries`
    probes: Tuple[str, ...] = ()
    #: heterogeneous sender hosts (see :class:`repro.core.flows.FlowSpec`);
    #: empty = the legacy shape (``connections`` flows under ``cc``)
    flows: Tuple[FlowSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.flows, tuple):
            object.__setattr__(self, "flows", tuple(self.flows))
        for flow in self.flows:
            if not isinstance(flow, FlowSpec):
                raise ValueError(
                    f"flows entries must be FlowSpec, got {type(flow).__name__}"
                )
        if self.flows and self.connections != 1:
            raise ValueError(
                "a spec uses either 'flows' or 'connections', not both "
                "(leave connections at its default of 1)"
            )

    def label(self) -> str:
        """Compact human-readable identifier for reports."""
        if self.flows:
            ccs = "+".join(dict.fromkeys(f.cc for f in self.flows))
            total = sum(f.count for f in self.flows)
            shape = f"{len(self.flows)}h{total}f"
            parts = [ccs, shape, self.cpu_config, self.medium.name]
        else:
            parts = [self.cc, f"{self.connections}c", self.cpu_config,
                     self.medium.name]
        if self.pacing_mode != PacingMode.AUTO:
            parts.append(f"pacing={self.pacing_mode}")
        if self.pacing_stride != 1.0:
            parts.append(f"stride={self.pacing_stride:g}x")
        return "/".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a plain JSON-compatible dict (exact round trip).

        The inverse is :func:`spec_from_dict`; this is the wire format
        specs travel in (worker processes, scenario files, archives).
        """
        return spec_to_dict(self)


@dataclass
class ExperimentResult:
    """Measured outputs of one run."""

    spec: ExperimentSpec
    goodput_mbps: float
    per_flow_goodput_mbps: List[float]
    rtt_mean_ms: float
    rtt_p50_ms: float
    rtt_p95_ms: float
    rtt_min_ms: float
    retransmitted_segments: int
    rto_count: int
    cpu_busy_fraction: float
    #: Table 2 quantities (pacing connections only; 0.0 otherwise)
    mean_skb_bytes: float
    mean_idle_ms: float
    pacing_periods: int
    router_dropped_segments: int
    phone_dropped_segments: int
    peak_qdisc_segments: int
    #: memory proxy: peak of (qdisc backlog + unacked inflight), bytes
    peak_memory_bytes: int
    mean_memory_bytes: float
    mean_cwnd_segments: float
    events_processed: int
    #: flows that ran (static + churn-spawned), i.e. len(per_flow_goodput_mbps)
    flow_count: int = 1
    #: finite transfers that acknowledged all their bytes
    flows_completed: int = 0
    #: Jain index over per-flow goodput in the window (1.0 = equal shares)
    jain_fairness: float = 1.0
    #: flow-completion-time summary over completed finite transfers, ms
    fct_mean_ms: float = 0.0
    fct_p95_ms: float = 0.0
    #: probe output: series name -> :class:`~repro.obs.series.TimeSeries`
    #: (empty unless the spec selected probes)
    timeseries: Dict[str, TimeSeries] = field(default_factory=dict)

    def scalar_metrics(self) -> Dict[str, float]:
        """Flat metric dict for :class:`~repro.metrics.summary.RunSet`.

        Derived from the dataclass itself: every numeric field is a
        metric (so new fields aggregate automatically); the spec and
        per-flow list are skipped. Per-flow goodput *shares* are emitted
        as ``goodput_share_f<id>`` entries (flow ids follow creation
        order) whenever anything was delivered, so fairness outcomes ride
        through :class:`~repro.metrics.summary.RunSet` aggregation.
        """
        out: Dict[str, float] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f.name] = float(value)
        total = sum(self.per_flow_goodput_mbps)
        if total > 0.0:
            for index, goodput in enumerate(self.per_flow_goodput_mbps):
                out[f"goodput_share_f{index + 1}"] = goodput / total
        return out


@dataclass
class ReplicatedResult:
    """Aggregate over seeded replications (the paper's 10-run averages)."""

    spec: ExperimentSpec
    runs: List[ExperimentResult]
    stats: RunSet = field(default_factory=RunSet)

    @property
    def goodput_mbps(self) -> float:
        """Mean goodput across runs."""
        return self.stats.mean("goodput_mbps")

    @property
    def goodput_stdev(self) -> float:
        """Goodput standard deviation across runs."""
        return self.stats.stdev("goodput_mbps")

    @property
    def rtt_mean_ms(self) -> float:
        """Mean of per-run mean RTTs."""
        return self.stats.mean("rtt_mean_ms")

    @property
    def retransmitted_segments(self) -> float:
        """Mean retransmitted segments per run."""
        return self.stats.mean("retransmitted_segments")

    def mean(self, name: str) -> float:
        """Mean of any scalar metric across runs."""
        return self.stats.mean(name)


# -- wire format ------------------------------------------------------------


def field_names(cls) -> List[str]:
    return [f.name for f in fields(cls)]


def reject_unknown_keys(data: Dict[str, Any], valid: Sequence[str], what: str) -> None:
    unknown = [k for k in data if k not in valid]
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {sorted(unknown)}; "
            f"valid keys are {sorted(valid)}"
        )


def _dataclass_to_dict(value) -> Dict[str, Any]:
    """One-level dataclass -> dict; tuples become lists (JSON-friendly)."""
    out: Dict[str, Any] = {}
    for f in fields(value):
        v = getattr(value, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def _dataclass_from_dict(cls, data: Dict[str, Any], what: str):
    """One-level dict -> dataclass; lists become tuples; keys checked."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a mapping, got {type(data).__name__}")
    reject_unknown_keys(data, field_names(cls), what)
    kwargs = {
        k: tuple(v) if isinstance(v, list) else v for k, v in data.items()
    }
    return cls(**kwargs)


def _profile_to_ref(registry: Registry, value) -> Union[str, Dict[str, Any]]:
    """A registered profile serializes as its name, others inline."""
    name = getattr(value, "name", None)
    if name in registry and registry.get(name) == value:
        return name
    return _dataclass_to_dict(value)


def _profile_from_ref(registry: Registry, cls, ref, what: str):
    if isinstance(ref, str):
        return registry.get(ref)
    if isinstance(ref, dict):
        return _dataclass_from_dict(cls, ref, what)
    raise ValueError(
        f"{what} must be a registered name (one of {sorted(registry.names())}) "
        f"or an inline field mapping, got {type(ref).__name__}"
    )


def flow_to_dict(flow: FlowSpec) -> Dict[str, Any]:
    """Serialize one :class:`FlowSpec` to a plain JSON-compatible dict."""
    out: Dict[str, Any] = {}
    for f in fields(FlowSpec):
        value = getattr(flow, f.name)
        if f.name == "netem":
            out[f.name] = None if value is None else _dataclass_to_dict(value)
        else:
            out[f.name] = value
    return out


def flow_from_dict(data: Dict[str, Any]) -> FlowSpec:
    """Build a :class:`FlowSpec` from a (possibly partial) dict.

    Missing keys take the flow's defaults; unknown keys raise
    ``ValueError`` naming the valid ones.
    """
    if not isinstance(data, dict):
        raise ValueError(f"flow must be a mapping, got {type(data).__name__}")
    reject_unknown_keys(data, field_names(FlowSpec), "flow")
    kwargs = dict(data)
    if kwargs.get("netem") is not None:
        kwargs["netem"] = _dataclass_from_dict(
            NetemConfig, kwargs["netem"], "flow netem"
        )
    return FlowSpec(**kwargs)


def spec_to_dict(spec: ExperimentSpec) -> Dict[str, Any]:
    """Serialize *spec* to a plain JSON-compatible dict (all fields).

    The inverse of :func:`spec_from_dict`; the round trip is exact.
    """
    out: Dict[str, Any] = {}
    for f in fields(ExperimentSpec):
        value = getattr(spec, f.name)
        if f.name == "device":
            out[f.name] = _profile_to_ref(DEVICES, value)
        elif f.name == "medium":
            out[f.name] = _profile_to_ref(MEDIA, value)
        elif f.name in ("netem", "costs"):
            out[f.name] = None if value is None else _dataclass_to_dict(value)
        elif f.name == "probes":
            out[f.name] = list(value)
        elif f.name == "flows":
            out[f.name] = [flow_to_dict(flow) for flow in value]
        else:
            out[f.name] = value
    return out


def spec_from_dict(data: Dict[str, Any]) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from a (possibly partial) dict.

    Missing keys take the spec's defaults; unknown keys raise
    ``ValueError`` naming the valid ones, and device/medium names are
    resolved through the component registries (unknown names raise with
    the list of registered choices).
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"spec must be a mapping, got {type(data).__name__}"
        )
    reject_unknown_keys(data, field_names(ExperimentSpec), "ExperimentSpec")
    kwargs = dict(data)
    if "device" in kwargs:
        kwargs["device"] = _profile_from_ref(
            DEVICES, DeviceProfile, kwargs["device"], "device"
        )
    if "medium" in kwargs:
        kwargs["medium"] = _profile_from_ref(
            MEDIA, MediumProfile, kwargs["medium"], "medium"
        )
    if kwargs.get("netem") is not None:
        kwargs["netem"] = _dataclass_from_dict(
            NetemConfig, kwargs["netem"], "netem"
        )
    if kwargs.get("costs") is not None:
        kwargs["costs"] = _dataclass_from_dict(
            CostModel, kwargs["costs"], "costs"
        )
    if "probes" in kwargs:
        probes = kwargs["probes"]
        if not isinstance(probes, (list, tuple)) or not all(
            isinstance(p, str) for p in probes
        ):
            raise ValueError("probes must be a list of probe names")
        kwargs["probes"] = tuple(probes)
    if "flows" in kwargs:
        flows = kwargs["flows"]
        if not isinstance(flows, (list, tuple)):
            raise ValueError("flows must be a list of flow mappings")
        kwargs["flows"] = tuple(flow_from_dict(flow) for flow in flows)
    return ExperimentSpec(**kwargs)


def canonical_spec_json(spec: ExperimentSpec) -> str:
    """The canonical wire-format serialization of *spec*, as one line.

    Key-sorted, separator-minimal JSON over :func:`spec_to_dict`, so two
    equal specs always produce the same byte string regardless of field
    declaration order or how the spec was constructed (built in Python,
    expanded from a scenario file, or round-tripped through a worker).
    This is the string the result cache (:mod:`repro.cache`) hashes.
    """
    return json.dumps(spec_to_dict(spec), sort_keys=True,
                      separators=(",", ":"))


def spec_digest(spec: ExperimentSpec) -> str:
    """SHA-256 hex digest of :func:`canonical_spec_json`.

    The content address of one experiment: any spec mutation — a seed
    bump, a different device, an extra probe — changes the digest, and
    equal specs always share it.
    """
    return hashlib.sha256(canonical_spec_json(spec).encode("utf-8")).hexdigest()
