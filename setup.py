"""Setup shim for legacy editable installs.

The offline environment this project targets has no ``wheel`` package, so
PEP 660 editable builds (which require building a wheel) are unavailable;
``pip install -e .`` falls back to ``setup.py develop`` through this
shim. All metadata lives in pyproject.toml.

The compiled simulation kernel (``repro._ckernel``) is an *optional* C
extension: if no C toolchain (or no CPython headers) is available the
build quietly degrades to the pure-python kernel, which is the behavioral
reference. Control via the ``REPRO_BUILD_CKERNEL`` environment variable:

    REPRO_BUILD_CKERNEL=0        never attempt the C build
    REPRO_BUILD_CKERNEL=require  fail the install if the C build fails
    (unset / anything else)      try to build, fall back to pure on error

Build in place for a source checkout with::

    python setup.py build_ext --inplace

The same command byte-compiles ``src/repro`` into ``__pycache__``
(whatever ``REPRO_BUILD_CKERNEL`` says), so that no ``repro`` process has
to compile the package from source at start-up — which every process
does where ``PYTHONDONTWRITEBYTECODE`` stops the import system caching
it as a side effect. The files carry the interpreter's own source
mtime + size check: an edited module is recompiled on its next import.
"""

import compileall
import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


PACKAGE_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "src", "repro")


class OptionalBuildExt(build_ext):
    """Build the C kernel if possible, then byte-compile the package.

    ``repro.kernel`` copes with the extension being absent at import
    time, and the interpreter with bytecode being absent, so swallowing
    either failure here leaves a fully working (just slower)
    installation.
    """

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, headers missing, ...
            self._fall_back(exc)
        # Not forced: up-to-date files are only stat()ed, so a rebuild of
        # the kernel does not recompile the package.
        if not compileall.compile_dir(PACKAGE_DIR, quiet=1):
            print(
                "repro: could not byte-compile every module under "
                f"{PACKAGE_DIR} (see above); each process will compile "
                "those from source when it imports them"
            )

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._fall_back(exc)

    @staticmethod
    def _fall_back(exc):
        if os.environ.get("REPRO_BUILD_CKERNEL") == "require":
            raise
        print(
            "repro: could not build the compiled simulation kernel "
            f"({exc!r}); falling back to the pure-python kernel"
        )


if os.environ.get("REPRO_BUILD_CKERNEL") == "0":
    ext_modules = []
else:
    ext_modules = [
        Extension(
            "repro._ckernel",
            sources=["src/repro/_ckernel.c"],
            extra_compile_args=["-O2"],
        )
    ]

setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
