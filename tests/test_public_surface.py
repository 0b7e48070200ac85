"""The public surface of ``repro`` and its subpackages after the move to
lazy (PEP 562) re-exports: every name still there, still the same
object, and failures still the right exception."""

import copy
import importlib
import pickle
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro", "repro.apps", "repro.cc", "repro.core", "repro.cpu",
    "repro.devices", "repro.dist", "repro.metrics", "repro.netsim",
    "repro.obs", "repro.sim", "repro.tcp",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_public_name_resolves_to_its_defining_object(package_name):
    package = importlib.import_module(package_name)
    assert len(set(package.__all__)) == len(package.__all__)
    assert set(package.__all__) <= set(dir(package))
    table = {name: module for module, names in package._SUBMODULES.items()
             for name in names}
    # __all__ and the table describe the same surface; the rest is
    # defined in the __init__ itself (registries, __version__)
    assert set(table) <= set(package.__all__)
    for name in package.__all__:
        value = getattr(package, name)
        if name in table:
            home = importlib.import_module(table[name], package_name)
            assert value is getattr(home, name), f"{package_name}.{name}"
        else:
            assert name in vars(package), f"{package_name}.{name}"


def test_star_import_binds_all_of_dunder_all():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["ExperimentSpec"] is repro.ExperimentSpec


def test_dataclasses_keep_their_historic_import_paths():
    from repro.core import experiment, scenario, spec
    from repro.devices import configs, profiles
    from repro.netsim import media, shaper
    from repro.netsim import profiles as net_profiles
    from repro.tcp import pacing

    for name in ("ExperimentSpec", "ExperimentResult", "ReplicatedResult"):
        assert getattr(experiment, name) is getattr(spec, name)
    for name in ("spec_to_dict", "spec_from_dict", "spec_digest",
                 "canonical_spec_json", "flow_to_dict", "flow_from_dict"):
        assert getattr(scenario, name) is getattr(spec, name)
    assert configs.CpuConfig is profiles.CpuConfig
    assert configs.CPU_CONFIGS is profiles.CPU_CONFIGS
    assert media.MediumProfile is net_profiles.MediumProfile
    assert media.MEDIA is net_profiles.MEDIA
    assert shaper.NetemConfig is net_profiles.NetemConfig
    assert pacing.PacingMode is spec.PacingMode is repro.PacingMode


def test_unknown_attribute_is_attribute_error():
    assert not hasattr(repro, "no_such_name")
    assert not hasattr(repro.core, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    with pytest.raises(ImportError):
        exec("from repro import no_such_name")


def test_submodules_stay_reachable_as_attributes():
    code = ("import repro; "
            "assert repro.cache.ResultCache is repro.ResultCache; "
            "assert repro.core.spec.ExperimentSpec is repro.ExperimentSpec")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_import_error_inside_a_submodule_is_not_masked(tmp_path):
    """The classic lazy-export bug: a broken submodule must surface as
    ImportError, never as "module has no attribute"."""
    package = tmp_path / "lazypkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from repro.registry import lazy_exports\n"
        "__all__ = ['thing', 'fine']\n"
        "__getattr__, __dir__ = lazy_exports(\n"
        "    __name__, {'.broken': ('thing',), '.ok': ('fine',)}, globals())\n"
    )
    (package / "broken.py").write_text("import no_such_dependency_xyz\n")
    (package / "ok.py").write_text("fine = 1\n")
    sys.path.insert(0, str(tmp_path))
    try:
        lazypkg = importlib.import_module("lazypkg")
        assert lazypkg.fine == 1
        with pytest.raises(ImportError, match="no_such_dependency_xyz"):
            lazypkg.thing
        with pytest.raises(ImportError, match="no_such_dependency_xyz"):
            hasattr(lazypkg, "thing")
        with pytest.raises(ImportError, match="no_such_dependency_xyz"):
            lazypkg.broken  # as a submodule attribute, too
        with pytest.raises(ImportError, match="no_such_dependency_xyz"):
            exec("from lazypkg import thing")
    finally:
        sys.path.remove(str(tmp_path))
        for name in [m for m in sys.modules if m.split(".")[0] == "lazypkg"]:
            del sys.modules[name]


def test_spec_and_result_survive_pickle_and_deepcopy():
    from repro import ExperimentSpec, FlowSpec, NetemConfig, run_experiment

    spec = ExperimentSpec(
        cc="cubic", duration_s=0.4, warmup_s=0.1, probes=("cwnd",),
        netem=NetemConfig(buffer_segments=50),
        flows=(FlowSpec(cc="bbr"), FlowSpec(cc="cubic", count=2)),
    )
    result = run_experiment(spec, ledger=False)
    for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert clone == spec and type(clone) is ExperimentSpec
    for clone in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert clone == result
        assert clone.scalar_metrics() == result.scalar_metrics()
        assert clone.timeseries.keys() == result.timeseries.keys()
