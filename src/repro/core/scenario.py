"""Declarative scenarios: whole experiment grids as JSON documents.

Built on the spec wire format of :mod:`repro.core.spec`
(:func:`spec_to_dict` / :func:`spec_from_dict`, exact round trip,
unknown keys rejected; re-exported here). **Scenario files** describe
whole experiment grids declaratively, the way ns-3 / Pantheon-style
harnesses do. A scenario is a JSON document::

      {
        "name": "fig8_stride_sweep",
        "base":  {"cc": "bbr", "connections": 20},
        "grid":  {"cpu_config": ["low-end", "default"],
                  "pacing_stride": [1, 5, 10]},
        "overrides": [
          {"match": {"cpu_config": "default"}, "set": {"seed": 7}}
        ]
      }

:func:`expand_scenario` takes the cartesian product of the ``grid``
axes over ``base`` (first axis outermost, last axis fastest-varying),
applies each ``overrides`` entry to every matching point, and returns
a deterministic ``List[ExperimentSpec]``.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List

from .spec import (
    ExperimentSpec,
    canonical_spec_json,
    field_names,
    flow_from_dict,
    flow_to_dict,
    reject_unknown_keys,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
)

__all__ = [
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
]

#: scenario-document keys that are not spec fields
_SCENARIO_KEYS = ("name", "description", "base", "grid", "overrides")
_OVERRIDE_KEYS = ("match", "set")


def expand_scenario_dicts(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Expand a scenario document into per-point spec dicts.

    Expansion is deterministic: the cartesian product iterates ``grid``
    axes in document order with the last axis varying fastest, and
    ``overrides`` entries apply in list order to every point whose
    fields match the entry's ``match`` mapping (an empty/omitted
    ``match`` applies everywhere).
    """
    if not isinstance(doc, dict):
        raise ValueError(
            f"scenario must be a mapping, got {type(doc).__name__}"
        )
    reject_unknown_keys(doc, _SCENARIO_KEYS, "scenario")
    spec_keys = field_names(ExperimentSpec)

    base = doc.get("base", {})
    if not isinstance(base, dict):
        raise ValueError("scenario 'base' must be a mapping")
    reject_unknown_keys(base, spec_keys, "scenario base")

    grid = doc.get("grid", {})
    if not isinstance(grid, dict):
        raise ValueError("scenario 'grid' must be a mapping")
    reject_unknown_keys(grid, spec_keys, "scenario grid")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ValueError(
                f"scenario grid axis {key!r} must be a non-empty list"
            )

    overrides = doc.get("overrides", [])
    if not isinstance(overrides, list):
        raise ValueError("scenario 'overrides' must be a list")
    for i, entry in enumerate(overrides):
        if not isinstance(entry, dict):
            raise ValueError(f"scenario override #{i} must be a mapping")
        reject_unknown_keys(entry, _OVERRIDE_KEYS, f"scenario override #{i}")
        reject_unknown_keys(entry.get("match", {}), spec_keys,
                        f"scenario override #{i} match")
        reject_unknown_keys(entry.get("set", {}), spec_keys,
                        f"scenario override #{i} set")

    axes = list(grid)
    points: List[Dict[str, Any]] = []
    for combo in itertools.product(*(grid[axis] for axis in axes)):
        point = dict(base)
        point.update(zip(axes, combo))
        for entry in overrides:
            match = entry.get("match", {})
            if all(point.get(k) == v for k, v in match.items()):
                point.update(entry.get("set", {}))
        points.append(point)
    return points


def expand_scenario(doc: Dict[str, Any]) -> List[ExperimentSpec]:
    """Expand a scenario document into its :class:`ExperimentSpec` list."""
    return [spec_from_dict(point) for point in expand_scenario_dicts(doc)]


def load_scenario_doc(path: str) -> Dict[str, Any]:
    """Read a scenario JSON document from *path* (no expansion)."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario file {path!r} is not valid JSON: {exc}")
    return doc


def load_scenario(path: str) -> List[ExperimentSpec]:
    """Read and expand the scenario file at *path*."""
    return expand_scenario(load_scenario_doc(path))
