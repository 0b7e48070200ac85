"""Congestion-control modules: Cubic (Android default), BBR, BBR2, Reno,
and the §5 master module for controlled experiments.

Factories: every connection needs its **own instance** (modules hold
per-connection state), so experiment code passes callables like
``lambda: Bbr()``. The built-in algorithms are registered by name in
:data:`CC_ALGORITHMS`; specs and scenario files reference them by that
name, and new algorithms (e.g. a BBRv3 variant) become available
everywhere by registering a factory here.
"""

from ..registry import Registry, lazy_exports

__all__ = [
    "CongestionOps",
    "Cubic",
    "Bbr",
    "Bbr2",
    "Reno",
    "MasterModule",
    "WindowedMaxFilter",
    "CC_ALGORITHMS",
]

#: name -> zero-argument factory producing a fresh per-connection module
#: (by reference: listing the names imports no algorithm)
CC_ALGORITHMS: Registry = Registry("congestion control")
CC_ALGORITHMS.register_ref("cubic", "repro.cc.cubic:Cubic")
CC_ALGORITHMS.register_ref("bbr", "repro.cc.bbr:Bbr")
CC_ALGORITHMS.register_ref("bbr2", "repro.cc.bbr2:Bbr2")
CC_ALGORITHMS.register_ref("reno", "repro.cc.reno:Reno")

_SUBMODULES = {
    ".base": ("CongestionOps",),
    ".bbr": ("Bbr",),
    ".bbr2": ("Bbr2",),
    ".cubic": ("Cubic",),
    ".master": ("MasterModule",),
    ".minmax": ("WindowedMaxFilter",),
    ".reno": ("Reno",),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
