"""The paper-facing API: experiment specs, the runner, stride studies,
and the §6 analytical model."""

from ..registry import lazy_exports

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "ReplicatedResult",
    "FlowSpec",
    "resolve_flows",
    "run_experiment",
    "run_replicated",
    "make_cc_factory",
    "spec_to_dict",
    "spec_from_dict",
    "flow_to_dict",
    "flow_from_dict",
    "canonical_spec_json",
    "spec_digest",
    "expand_scenario",
    "expand_scenario_dicts",
    "load_scenario",
    "load_scenario_doc",
    "PAPER_STRIDES",
    "sweep_strides",
    "AdaptiveStrideController",
    "StrideRow",
    "expected_throughput_bps",
    "idle_time_ns",
]

_SUBMODULES = {
    ".analysis": ("StrideRow", "expected_throughput_bps", "idle_time_ns"),
    ".experiment": ("make_cc_factory", "run_experiment", "run_replicated"),
    ".flows": ("FlowSpec", "resolve_flows"),
    ".scenario": (
        "canonical_spec_json",
        "expand_scenario",
        "expand_scenario_dicts",
        "flow_from_dict",
        "flow_to_dict",
        "load_scenario",
        "load_scenario_doc",
        "spec_digest",
        "spec_from_dict",
        "spec_to_dict",
    ),
    ".spec": ("ExperimentResult", "ExperimentSpec", "ReplicatedResult"),
    ".stride": ("PAPER_STRIDES", "AdaptiveStrideController", "sweep_strides"),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
