"""Tests for the declarative scenario layer: component registries,
spec serialization, and scenario-file expansion."""

import json
import os

import pytest

from repro import (
    CC_ALGORITHMS,
    CPU_CONFIGS,
    DEVICES,
    EXECUTORS,
    ExperimentSpec,
    MEDIA,
    CpuConfig,
    DuplicateNameError,
    Registry,
    RegistryError,
    UnknownNameError,
    all_registries,
    expand_scenario,
    expand_scenario_dicts,
    load_scenario,
    run_experiment,
    run_replicated,
    spec_from_dict,
    spec_to_dict,
)

SCENARIO_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "scenarios"
)


def scenario_file(name):
    return os.path.join(SCENARIO_DIR, f"{name}.json")


# ---------------------------------------------------------------------------
# Registry behaviour
# ---------------------------------------------------------------------------


def test_registry_register_get_names_order():
    reg = Registry("widget")
    reg.register("b", 2)
    reg.register("a", 1)
    assert reg.get("b") == 2
    assert reg.names() == ("b", "a")  # registration order, not sorted
    assert "a" in reg and "zz" not in reg
    assert len(reg) == 2


def test_registry_unknown_name_lists_choices():
    reg = Registry("widget")
    reg.register("alpha", 1)
    reg.register("beta", 2)
    with pytest.raises(UnknownNameError) as exc:
        reg.get("gamma")
    assert "unknown widget 'gamma'" in str(exc.value)
    assert "alpha" in str(exc.value) and "beta" in str(exc.value)
    assert isinstance(exc.value, ValueError)  # callers catch ValueError


def test_registry_duplicate_rejected_unless_replace():
    reg = Registry("widget")
    reg.register("x", 1)
    with pytest.raises(DuplicateNameError):
        reg.register("x", 2)
    assert reg.get("x") == 1
    reg.register("x", 2, replace=True)
    assert reg.get("x") == 2


def test_builtin_registries_populated():
    assert set(CC_ALGORITHMS.names()) == {"cubic", "bbr", "bbr2", "reno"}
    assert set(EXECUTORS.names()) == {"serial", "rps", "free"}
    assert set(MEDIA.names()) == {"ethernet", "wifi", "lte"}
    assert set(DEVICES.names()) == {"pixel4", "pixel6"}
    assert CPU_CONFIGS.names() == CpuConfig.ALL
    registries = all_registries()
    assert len(registries) == 6
    assert "probe" in registries and len(registries["probe"]) > 0


def test_builtin_registries_list_the_documented_names_in_order():
    """Registration order is the contract for ``choices=`` and ``repro list``:
    holding references instead of objects must not reorder or rename."""
    listed = {key: reg.names() for key, reg in all_registries().items()}
    assert listed == {
        "cc": ("cubic", "bbr", "bbr2", "reno"),
        "executor": ("serial", "rps", "free"),
        "medium": ("ethernet", "wifi", "lte"),
        "device": ("pixel4", "pixel6"),
        "cpu-config": ("low-end", "mid-end", "high-end", "default"),
        "probe": (
            "cwnd", "inflight", "pacing_rate", "srtt", "delivery_rate",
            "goodput", "bbr_state", "cpu_util", "cpu_freq", "softirq",
            "qdisc", "flow_goodput", "flow_cwnd",
        ),
    }


def test_every_builtin_reference_resolves():
    from repro.cc import Bbr
    from repro.cpu import FreeExecutor

    for reg in all_registries().values():
        for name, item in reg.items():  # items() resolves every reference
            assert item is reg.get(name) and not isinstance(item, str)
    assert CC_ALGORITHMS.get("bbr") is Bbr
    assert isinstance(EXECUTORS.get("free")(None), FreeExecutor)


def test_registry_reference_is_imported_on_first_get_only():
    reg = Registry("widget")
    reg.register_ref("ordered", "collections:OrderedDict")
    reg.register("eager", 1)
    assert reg.names() == ("ordered", "eager")
    assert "ordered" in reg and len(reg) == 2
    import collections

    assert reg.get("ordered") is collections.OrderedDict
    assert reg.items() == [("ordered", collections.OrderedDict), ("eager", 1)]


@pytest.mark.parametrize("target", [
    "no_such_module_xyz:thing",      # module missing
    "collections:NoSuchAttribute",   # attribute missing
    "collections",                   # not module:attr
])
def test_registry_bad_reference_fails_at_get_naming_everything(target):
    reg = Registry("widget")
    reg.register_ref("broken", target)  # registering never imports
    assert reg.names() == ("broken",)
    with pytest.raises(RegistryError) as exc:
        reg.get("broken")
    message = str(exc.value)
    assert "widget" in message and "'broken'" in message and target in message
    assert not isinstance(exc.value, UnknownNameError)


def test_registry_replace_of_a_lazily_registered_name():
    reg = Registry("widget")
    reg.register_ref("x", "no_such_module_xyz:thing")
    with pytest.raises(DuplicateNameError):
        reg.register("x", 1)
    with pytest.raises(DuplicateNameError):
        reg.register_ref("x", "collections:OrderedDict")
    reg.register("x", 1, replace=True)  # the bad reference is never imported
    assert reg.get("x") == 1
    reg.register_ref("x", "collections:deque", replace=True)
    import collections

    assert reg.get("x") is collections.deque
    assert reg.names() == ("x",)


def test_registered_cc_extension_reaches_experiment():
    """A newly registered algorithm is runnable by name, core untouched."""
    from repro.cc import Reno

    CC_ALGORITHMS.register("reno-test-variant", Reno)
    try:
        spec = ExperimentSpec(
            cc="reno-test-variant", connections=1,
            duration_s=1.0, warmup_s=0.2,
        )
        result = run_experiment(spec_from_dict(spec.to_dict()))
        assert result.goodput_mbps > 0
    finally:
        CC_ALGORITHMS._items.pop("reno-test-variant")


# ---------------------------------------------------------------------------
# Spec serialization
# ---------------------------------------------------------------------------


def test_spec_to_dict_uses_registry_names():
    wire = spec_to_dict(ExperimentSpec())
    assert wire["device"] == "pixel4"
    assert wire["medium"] == "ethernet"
    assert wire["netem"] is None
    assert wire["costs"] is None


def test_spec_from_dict_defaults_for_missing_keys():
    assert spec_from_dict({}) == ExperimentSpec()
    assert spec_from_dict({"cc": "cubic"}) == ExperimentSpec(cc="cubic")


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown ExperimentSpec key\(s\)"):
        spec_from_dict({"cc": "bbr", "connectoins": 2})


def test_spec_from_dict_rejects_unknown_nested_keys():
    with pytest.raises(ValueError, match="netem"):
        spec_from_dict({"netem": {"rate_bps": 1e6, "burst": 3}})
    with pytest.raises(ValueError, match="costs"):
        spec_from_dict({"costs": {"cycles_per_byte_recv": 1.0}})


def test_spec_from_dict_rejects_unknown_device_and_medium():
    with pytest.raises(ValueError, match="pixel4"):
        spec_from_dict({"device": "pixel9"})
    with pytest.raises(ValueError, match="ethernet"):
        spec_from_dict({"medium": "5g"})


def test_unregistered_profile_serializes_inline():
    from dataclasses import replace

    from repro import PIXEL_4

    custom = replace(PIXEL_4, cycles_scale=0.7)
    spec = ExperimentSpec(device=custom)
    wire = spec.to_dict()
    assert isinstance(wire["device"], dict)
    assert spec_from_dict(json.loads(json.dumps(wire))) == spec


# ---------------------------------------------------------------------------
# Scenario expansion
# ---------------------------------------------------------------------------


def test_grid_expansion_order_is_last_axis_fastest():
    doc = {
        "base": {"cc": "bbr"},
        "grid": {"connections": [1, 5], "pacing_mode": ["auto", "off"]},
    }
    points = [
        (s.connections, s.pacing_mode) for s in expand_scenario(doc)
    ]
    assert points == [(1, "auto"), (1, "off"), (5, "auto"), (5, "off")]


def test_base_only_scenario_is_one_point():
    specs = expand_scenario({"base": {"cc": "cubic", "connections": 4}})
    assert specs == [ExperimentSpec(cc="cubic", connections=4)]


def test_overrides_apply_to_matching_points_in_order():
    doc = {
        "base": {"cc": "bbr", "seed": 1},
        "grid": {"cpu_config": ["low-end", "default"]},
        "overrides": [
            {"match": {"cpu_config": "default"}, "set": {"seed": 7}},
            {"set": {"connections": 2}},  # no match = applies everywhere
        ],
    }
    specs = expand_scenario(doc)
    assert [s.seed for s in specs] == [1, 7]
    assert [s.connections for s in specs] == [2, 2]


def test_scenario_rejects_unknown_keys_everywhere():
    with pytest.raises(ValueError, match="scenario"):
        expand_scenario_dicts({"base": {}, "gird": {}})
    with pytest.raises(ValueError, match="scenario base"):
        expand_scenario_dicts({"base": {"cpu": "low-end"}})
    with pytest.raises(ValueError, match="scenario grid"):
        expand_scenario_dicts({"grid": {"strides": [1, 2]}})
    with pytest.raises(ValueError, match=r"override #0"):
        expand_scenario_dicts({"overrides": [{"match": {}, "apply": {}}]})
    with pytest.raises(ValueError, match=r"override #0 match"):
        expand_scenario_dicts({"overrides": [{"match": {"ccc": "bbr"}}]})


def test_scenario_rejects_empty_grid_axis():
    with pytest.raises(ValueError, match="non-empty list"):
        expand_scenario_dicts({"grid": {"connections": []}})


# ---------------------------------------------------------------------------
# Checked-in canonical scenarios
# ---------------------------------------------------------------------------


def test_fig5_scenario_matches_python_built_grid():
    specs = load_scenario(scenario_file("fig5_pacing_connections"))
    expected = [
        ExperimentSpec(
            cc="bbr", cpu_config="low-end", connections=n, pacing_mode=mode,
            duration_s=4.0, warmup_s=1.5,
        )
        for n in (1, 5, 20)
        for mode in ("auto", "off")
    ]
    assert specs == expected


def test_fig8_scenario_matches_python_built_grid():
    specs = load_scenario(scenario_file("fig8_stride_sweep"))
    expected = [
        ExperimentSpec(
            cc="bbr", connections=20, cpu_config=config, pacing_stride=stride,
            duration_s=4.0, warmup_s=1.5,
        )
        for config in ("low-end", "mid-end", "default")
        for stride in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
    ]
    assert specs == expected


def test_smoke_scenario_expands_to_two_points():
    specs = load_scenario(scenario_file("smoke_2point"))
    assert [s.cc for s in specs] == ["bbr", "cubic"]
    assert all(s.connections == 2 for s in specs)


# ---------------------------------------------------------------------------
# Satellite behaviours riding on the refactor
# ---------------------------------------------------------------------------


def test_scalar_metrics_cover_all_numeric_fields():
    result = run_experiment(
        ExperimentSpec(cc="bbr", connections=2, duration_s=1.0, warmup_s=0.2)
    )
    metrics = result.scalar_metrics()
    for name in (
        "rtt_min_ms", "rto_count", "pacing_periods",
        "router_dropped_segments", "phone_dropped_segments",
        "peak_qdisc_segments", "events_processed",
    ):
        assert name in metrics, name
    assert "spec" not in metrics and "per_flow_goodput_mbps" not in metrics
    assert all(isinstance(v, float) for v in metrics.values())


def test_run_replicated_parallel_matches_serial():
    spec = ExperimentSpec(cc="cubic", connections=1, duration_s=1.0, warmup_s=0.2)
    serial = run_replicated(spec, runs=2, jobs=1)
    parallel = run_replicated(spec, runs=2, jobs=2)
    assert [r.scalar_metrics() for r in serial.runs] == \
           [r.scalar_metrics() for r in parallel.runs]
    assert serial.goodput_mbps == parallel.goodput_mbps
    assert serial.stats.runs == parallel.stats.runs == 2


def test_run_replicated_rejects_bad_jobs():
    spec = ExperimentSpec(duration_s=1.0, warmup_s=0.2)
    with pytest.raises(ValueError):
        run_replicated(spec, runs=1, jobs=0)
