"""Bytecode as a build artefact (``setup.py build_ext --inplace``).

Every case runs the real ``setup.py`` on a copy of the source tree, with
the C build switched off (no compiler needed) and, as on the benchmark
host, ``PYTHONDONTWRITEBYTECODE=1``: the build writes the ``.pyc`` files
explicitly, the import system reads them, and a source edited afterwards
still wins over its now-stale ``.pyc``.
"""

import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

from repro.cache import code_fingerprint

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _copy_tree(dest):
    """``setup.py`` + ``pyproject.toml`` + ``src/`` with no bytecode in it."""
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy(os.path.join(REPO, name), dest / name)
    shutil.copytree(
        os.path.join(REPO, "src"), dest / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def _python(tree, *args):
    """Run the interpreter in *tree* the way the benchmark host runs it."""
    environ = {k: v for k, v in os.environ.items()
               if not k.startswith(("REPRO_", "PYTHON"))}
    environ.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
                   REPRO_BUILD_CKERNEL="0")
    return subprocess.run([sys.executable, *args], cwd=tree, env=environ,
                          capture_output=True, text=True, timeout=120)


def _build(tree):
    proc = _python(tree, "setup.py", "build_ext", "--inplace")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout + proc.stderr


def _files(tree, suffix):
    return sorted(
        os.path.join(dirpath, name)
        for dirpath, _dirs, names in os.walk(tree / "src" / "repro")
        for name in names if name.endswith(suffix))


def _fingerprint(tree):
    proc = _python(tree, "-c",
                   "from repro.cache import code_fingerprint; "
                   "print(code_fingerprint())")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _bytecode_state(tree):
    proc = _python(tree, "-c", "import repro.cli; "
                   "from repro.kernel import kernel_info; "
                   "print(kernel_info()['bytecode'])")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A built copy of the tree; tests that edit it restore what they touch."""
    tree = _copy_tree(tmp_path_factory.mktemp("built"))
    assert _files(tree, ".pyc") == []
    assert _bytecode_state(tree) == "source"
    _build(tree)
    return tree


def test_build_writes_one_pyc_per_module(built):
    assert _files(built, ".pyc") == sorted(
        importlib.util.cache_from_source(path)
        for path in _files(built, ".py"))
    assert _bytecode_state(built) == "cached"
    listing = _python(built, "-m", "repro", "list").stdout
    assert listing.rstrip().endswith("; bytecode=cached")


def test_no_module_is_compiled_from_source_after_the_build(built):
    proc = _python(built, "-v", "-c", "import repro.core.experiment")
    assert proc.returncode == 0, proc.stderr
    loaded = [line.split("code object from ", 1)[1].strip("'")
              for line in proc.stderr.splitlines()
              if "code object from " in line and str(built) in line]
    assert len(loaded) > 40  # the simulator is most of the package
    assert [path for path in loaded if not path.endswith(".pyc")] == []


def test_an_edited_source_wins_over_its_stale_bytecode(built):
    path = built / "src" / "repro" / "units.py"
    original = path.read_text()
    stat = os.stat(path)
    show = ("-c", "import repro.units; print(repro.units.EDITED)")
    try:
        # new size, same mtime
        path.write_text(original + "\nEDITED = 1\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert _python(built, *show).stdout.strip() == "1"
        # (the build goes by mtime alone, so make it recompile this one)
        os.unlink(importlib.util.cache_from_source(str(path)))
        _build(built)
        assert _python(built, *show).stdout.strip() == "1"
        # same size, newer mtime
        path.write_text(original + "\nEDITED = 2\n")
        later = stat.st_mtime_ns + 5 * 10**9
        os.utime(path, ns=(later, later))
        assert _python(built, *show).stdout.strip() == "2"
    finally:
        path.write_text(original)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        os.unlink(importlib.util.cache_from_source(str(path)))
        _build(built)


def test_a_second_build_rewrites_nothing(built):
    before = {path: os.stat(path).st_mtime_ns
              for path in _files(built, ".pyc")}
    _build(built)
    assert {path: os.stat(path).st_mtime_ns
            for path in _files(built, ".pyc")} == before


def test_code_fingerprint_ignores_what_a_build_leaves_behind(built, tmp_path):
    # same sources, so the same fingerprint as the tree under test,
    # which may or may not have been built
    assert _fingerprint(built) == code_fingerprint()
    cache_dir = built / "src" / "repro" / "core" / "__pycache__"
    strays = [built / "src" / "repro" / "gone.pyc",
              cache_dir / "gone.pyc",
              # not source either: the walk does not descend into these
              cache_dir / "gone.py"]
    try:
        for stray in strays:
            stray.write_bytes(b"stray")
        assert _fingerprint(built) == code_fingerprint()
    finally:
        for stray in strays:
            stray.unlink()
    assert _fingerprint(_copy_tree(tmp_path)) == code_fingerprint()


def test_a_tree_the_build_cannot_write_to_gets_a_notice(tmp_path):
    tree = _copy_tree(tmp_path)
    # Works under any uid (root ignores permission bits): the cache
    # directory's name is taken by a file, so every write into it fails.
    (tree / "src" / "repro" / "__pycache__").write_text("")
    output = _build(tree)  # exit status 0
    assert "repro: could not byte-compile every module" in output
    assert _bytecode_state(tree) == "source"
    assert _python(tree, "-m", "repro", "list").returncode == 0
