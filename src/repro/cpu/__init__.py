"""Simulated mobile CPU: cores, clusters, governors, and cycle costs.

This package provides the compute substrate that makes the paper's effect
reproducible in simulation: TCP stack operations are billed CPU cycles
(:class:`~repro.cpu.costs.CostModel`), executed serially on a core
(:class:`~repro.cpu.core.CpuCore`) whose clock is managed by a governor
(:mod:`repro.cpu.governor`) over a big.LITTLE topology
(:class:`~repro.cpu.cluster.BigLittleCpu`).
"""

from ..registry import Registry, lazy_exports

__all__ = [
    "EXECUTORS",
    "BigLittleCpu",
    "CpuCluster",
    "CpuCore",
    "WorkItem",
    "CostModel",
    "DEFAULT_COSTS",
    "ZERO_COSTS",
    "UserspaceGovernor",
    "PerformanceGovernor",
    "SchedutilGovernor",
    "ThermalModel",
    "DynamicCpuPolicy",
    "StackExecutor",
    "NetStackExecutor",
    "RpsExecutor",
    "FreeExecutor",
]

#: name -> factory ``(BigLittleCpu) -> StackExecutor`` (spec ``executor=``
#: values), by reference into :mod:`repro.cpu.softirq`
EXECUTORS: Registry = Registry("executor")
EXECUTORS.register_ref("serial", "repro.cpu.softirq:NetStackExecutor")
EXECUTORS.register_ref("rps", "repro.cpu.softirq:RpsExecutor")
EXECUTORS.register_ref("free", "repro.cpu.softirq:_free_executor")

_SUBMODULES = {
    ".cluster": ("BigLittleCpu", "CpuCluster"),
    ".core": ("CpuCore", "WorkItem"),
    ".costs": ("DEFAULT_COSTS", "ZERO_COSTS", "CostModel"),
    ".governor": (
        "DynamicCpuPolicy",
        "PerformanceGovernor",
        "SchedutilGovernor",
        "ThermalModel",
        "UserspaceGovernor",
    ),
    ".softirq": (
        "FreeExecutor",
        "NetStackExecutor",
        "RpsExecutor",
        "StackExecutor",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
