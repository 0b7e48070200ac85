"""The layer table: which source module belongs to which layer.

A layer is a group of the repo's modules. The traced run (``--trace 1``)
wraps one in-process pass per kernel in :mod:`cProfile` and books every
function's self time and call count to exactly one of the layers below,
so the table says where host time went without any hook inside
``src/repro``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

#: display order of the 13 layers
LAYERS: Tuple[str, ...] = (
    "sim", "cpu", "netsim", "tcp_send", "tcp_ack", "tcp_recv", "cc",
    "apps", "metrics", "core", "obs", "ckernel", "other",
)

#: ``src/repro``-relative directory (trailing ``/``) or file -> layer;
#: exactly one rule must cover each source file
_MODULE_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("cpu/", "cpu"),
    ("devices/", "cpu"),
    ("netsim/", "netsim"),
    ("tcp/connection.py", "tcp_send"),
    ("tcp/stack.py", "tcp_send"),
    ("tcp/pacing.py", "tcp_send"),
    ("tcp/segmentation.py", "tcp_send"),
    ("tcp/__init__.py", "tcp_send"),
    ("tcp/scoreboard.py", "tcp_ack"),
    ("tcp/rate_sample.py", "tcp_ack"),
    ("tcp/rtt.py", "tcp_ack"),
    ("tcp/receiver.py", "tcp_recv"),
    ("cc/", "cc"),
    ("apps/", "apps"),
    ("metrics/", "metrics"),
    ("obs/", "obs"),
    # experiment assembly and everything that runs, stores or ships a
    # grid of experiments
    ("core/", "core"),
    ("dist/", "core"),
    ("cache.py", "core"),
    ("runner.py", "core"),
    ("cli.py", "core"),
    ("kernel.py", "core"),
    ("registry.py", "core"),
    ("units.py", "core"),
    ("__init__.py", "core"),
    ("__main__.py", "core"),
)

#: how cProfile names a method of a compiled-kernel type
_CKERNEL_MARK = "repro._ckernel."


def layer_of_module(relpath: str) -> str:
    """The layer of a ``src/repro``-relative source path (``/``-separated).

    Raises ``KeyError`` unless exactly one rule covers the path: a new
    module must be given a layer here before time is attributed to it.
    """
    layers = [
        layer for rule, layer in _MODULE_RULES
        if relpath == rule or (rule.endswith("/") and relpath.startswith(rule))
    ]
    if len(layers) != 1:
        raise KeyError(
            f"src/repro/{relpath} is covered by {len(layers)} layer rules, "
            f"need exactly one"
        )
    return layers[0]


def layer_of_ckernel_type(type_name: str) -> str:
    """The layer of a ``repro._ckernel`` type's visible methods.

    cProfile sees only the C methods Python calls into (``EventLoop.run``
    self time includes every callback the kernel dispatches in C), so all
    of them share the one ``ckernel`` layer.
    """
    return layer_of_profile_entry(
        f"<method 'x' of '{_CKERNEL_MARK}{type_name}' objects>", "")


def layer_of_profile_entry(code, package_dir: str) -> str:
    """The layer of one ``cProfile`` entry's ``code`` attribute."""
    if isinstance(code, str):  # a C function or method
        return "ckernel" if _CKERNEL_MARK in code else "other"
    filename = code.co_filename
    if package_dir and filename.startswith(package_dir + os.sep):
        rel = filename[len(package_dir) + 1:].replace(os.sep, "/")
        try:
            return layer_of_module(rel)
        except KeyError:
            # A module added after this table was written must not stop
            # the benchmark; test_bench.py is what flags the missing rule.
            return "other"
    return "other"


def roll_up(stats, package_dir: str) -> Tuple[Dict[str, Dict[str, float]],
                                              List[Dict[str, object]]]:
    """Roll ``cProfile.Profile.getstats()`` up by layer.

    Returns ``({layer: {"self_s", "calls"}}, top20)`` where *top20* lists
    the twenty functions with the largest self time.
    """
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    functions = []
    for entry in stats:
        layer = layer_of_profile_entry(entry.code, package_dir)
        table[layer]["self_s"] += entry.inlinetime
        table[layer]["calls"] += entry.callcount
        if isinstance(entry.code, str):
            name = entry.code
        else:
            name = (f"{os.path.basename(entry.code.co_filename)}:"
                    f"{entry.code.co_firstlineno}:{entry.code.co_name}")
        functions.append({
            "function": name, "layer": layer,
            "self_s": entry.inlinetime, "calls": entry.callcount,
        })
    functions.sort(key=lambda row: row["self_s"], reverse=True)
    return table, functions[:20]
