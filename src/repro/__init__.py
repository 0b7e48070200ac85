"""repro — a reproduction of *Are Mobiles Ready for BBR?* (IMC 2022).

The paper measures BBR/BBR2 vs. Cubic on Pixel phones and finds TCP's
internal packet pacing — a per-send timer — throttles goodput on
CPU-constrained devices; a *pacing stride* (pace less often, more data
per period) recovers the loss while keeping pacing's low RTTs.

This package reproduces the study in simulation: a cycle-cost CPU model
of the phone (``repro.cpu``), a Linux-structured TCP stack with internal
pacing and the stride modification (``repro.tcp``), Cubic/BBR/BBR2
(``repro.cc``), the Ethernet/WiFi/LTE testbed (``repro.netsim``), and an
experiment API (``repro.core``). Quick start::

    from repro import ExperimentSpec, run_experiment

    result = run_experiment(ExperimentSpec(cc="bbr", connections=20))
    print(result.goodput_mbps)
"""

from .registry import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ExperimentSpec",
    "ExperimentResult",
    "ReplicatedResult",
    "FlowSpec",
    "resolve_flows",
    "run_experiment",
    "run_replicated",
    "make_cc_factory",
    "jain_fairness_index",
    "goodput_shares",
    "spec_to_dict",
    "spec_from_dict",
    "flow_to_dict",
    "flow_from_dict",
    "canonical_spec_json",
    "spec_digest",
    "CacheStats",
    "ResultCache",
    "code_fingerprint",
    "default_cache_dir",
    "kernel_fingerprint",
    "resolve_cache",
    "KERNELS",
    "kernel_info",
    "compiled_components",
    "resolve_kernel",
    "expand_scenario",
    "expand_scenario_dicts",
    "load_scenario",
    "load_scenario_doc",
    "Registry",
    "RegistryError",
    "UnknownNameError",
    "DuplicateNameError",
    "all_registries",
    "CC_ALGORITHMS",
    "EXECUTORS",
    "MEDIA",
    "DEVICES",
    "CPU_CONFIGS",
    "sweep_strides",
    "PAPER_STRIDES",
    "AdaptiveStrideController",
    "StrideRow",
    "expected_throughput_bps",
    "idle_time_ns",
    "PIXEL_4",
    "PIXEL_6",
    "CpuConfig",
    "DeviceProfile",
    "ETHERNET_LAN",
    "WIFI_LAN",
    "LTE_CELLULAR",
    "NetemConfig",
    "PacingMode",
    "PROBES",
    "ProbeSet",
    "SimProfiler",
    "TimeSeries",
    "Tracer",
    "RunLedger",
    "resolve_ledger",
    "merge_ledgers",
    "diff_records",
    "GridMonitor",
    "DistMonitor",
    "DistributedSweepError",
    "TaskQueue",
    "WorkerReport",
    "run_distributed",
    "run_worker",
    "validate_openmetrics",
    "export_jsonl",
    "load_jsonl",
    "validate_jsonl",
    "export_chrome_trace",
    "validate_chrome_trace",
    "ExperimentGridError",
    "GridPointError",
    "GridReport",
    "resolve_chunk",
    "resolve_jobs",
    "resolve_worker_jobs",
    "run_grid",
    "run_grid_report",
    "run_replicated_grid",
    "run_replicated_grid_report",
    "run_replicated_parallel",
]

# Every public name, by the submodule that defines it. Nothing is
# imported until a name is used: ``import repro`` (and so every CLI
# command, cache probe and ledger query) loads none of the simulator.
_SUBMODULES = {
    ".cache": (
        "CacheStats",
        "ResultCache",
        "code_fingerprint",
        "default_cache_dir",
        "kernel_fingerprint",
        "resolve_cache",
    ),
    ".cc": ("CC_ALGORITHMS",),
    ".core.analysis": ("StrideRow", "expected_throughput_bps", "idle_time_ns"),
    ".core.experiment": ("make_cc_factory", "run_experiment", "run_replicated"),
    ".core.flows": ("FlowSpec", "resolve_flows"),
    ".core.scenario": (
        "expand_scenario",
        "expand_scenario_dicts",
        "load_scenario",
        "load_scenario_doc",
    ),
    ".core.spec": (
        "ExperimentResult",
        "ExperimentSpec",
        "PacingMode",
        "ReplicatedResult",
        "canonical_spec_json",
        "flow_from_dict",
        "flow_to_dict",
        "spec_digest",
        "spec_from_dict",
        "spec_to_dict",
    ),
    ".core.stride": ("PAPER_STRIDES", "AdaptiveStrideController", "sweep_strides"),
    ".cpu": ("EXECUTORS",),
    ".devices.profiles": (
        "CPU_CONFIGS",
        "DEVICES",
        "PIXEL_4",
        "PIXEL_6",
        "CpuConfig",
        "DeviceProfile",
    ),
    ".dist.coordinator": ("DistributedSweepError", "run_distributed"),
    ".dist.queue": ("TaskQueue",),
    ".dist.worker": ("WorkerReport", "run_worker"),
    ".kernel": ("KERNELS", "compiled_components", "kernel_info", "resolve_kernel"),
    ".metrics.fairness": ("goodput_shares", "jain_fairness_index"),
    ".netsim.profiles": (
        "ETHERNET_LAN",
        "LTE_CELLULAR",
        "MEDIA",
        "WIFI_LAN",
        "NetemConfig",
    ),
    ".obs": ("PROBES",),
    ".obs.ledger": ("RunLedger", "diff_records", "merge_ledgers", "resolve_ledger"),
    ".obs.live": ("DistMonitor", "GridMonitor", "validate_openmetrics"),
    ".obs.probes": ("ProbeSet",),
    ".obs.profiler": ("SimProfiler",),
    ".obs.series": ("TimeSeries",),
    ".obs.trace_export": (
        "export_chrome_trace",
        "export_jsonl",
        "load_jsonl",
        "validate_chrome_trace",
        "validate_jsonl",
    ),
    ".registry": (
        "DuplicateNameError",
        "Registry",
        "RegistryError",
        "UnknownNameError",
        "all_registries",
    ),
    ".runner": (
        "ExperimentGridError",
        "GridPointError",
        "GridReport",
        "resolve_chunk",
        "resolve_jobs",
        "resolve_worker_jobs",
        "run_grid",
        "run_grid_report",
        "run_replicated_grid",
        "run_replicated_grid_report",
        "run_replicated_parallel",
    ),
    ".sim.trace": ("Tracer",),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
