"""Workload applications: bulk uplink clients (iperf-like and
multi-flow) and the measuring server."""

from ..registry import lazy_exports

__all__ = ["FlowClient", "FlowRecord", "IperfClientApp", "IperfServerApp"]

_SUBMODULES = {
    ".flows": ("FlowClient", "FlowRecord"),
    ".iperf": ("IperfClientApp", "IperfServerApp"),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
