"""Named registries for the library's pluggable components.

Every measurement point in the paper is "a device + CPU config + medium
+ CC + knobs" (Table 1, §3.2); each of those axes is a *named* component
that experiment specs reference as data. A :class:`Registry` is the one
lookup mechanism behind all of them: congestion-control factories
(``repro.cc.CC_ALGORITHMS``), stack executors (``repro.cpu.EXECUTORS``),
access media (``repro.netsim.MEDIA``), device profiles
(``repro.devices.DEVICES``), and Table 1 CPU configurations
(``repro.devices.CPU_CONFIGS``).

Registries live in the *declarative layer* (DESIGN.md §5): listing
names — argparse ``choices=``, ``repro list``, scenario validation —
must not import the simulator. Data components (device and medium
profiles) are registered as objects; code components (CC modules,
executors, CPU configurators, probes) are registered **by reference**
(:meth:`Registry.register_ref`, ``"package.module:attr"``) and imported
on their first :meth:`Registry.get`. Third-party extensions (e.g. a
BBRv3 variant) call ``register`` at import time and become addressable
from specs, scenario files, and the CLI with no core changes.

:func:`lazy_exports` applies the same rule to the package namespaces:
every ``__init__`` re-exports its public names through one PEP 562
``__getattr__`` table instead of importing its submodules eagerly.
"""

from __future__ import annotations

from importlib import import_module
from typing import (
    Any, Callable, Dict, Generic, Iterable, List, Mapping, Tuple, TypeVar,
)

__all__ = [
    "Registry",
    "RegistryError",
    "UnknownNameError",
    "DuplicateNameError",
    "all_registries",
    "lazy_exports",
]

T = TypeVar("T")


class RegistryError(ValueError):
    """Base class for registry lookup/registration failures."""


class UnknownNameError(RegistryError, KeyError):
    """A name was looked up that no component registered.

    The message enumerates the valid names so CLI users and scenario
    authors can self-correct.
    """

    def __init__(self, kind: str, name: str, choices: Iterable[str]):
        self.kind = kind
        self.name = name
        self.choices = sorted(choices)
        ValueError.__init__(
            self,
            f"unknown {kind} {name!r}; choose from {self.choices}",
        )

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class DuplicateNameError(RegistryError):
    """A name was registered twice without ``replace=True``."""

    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name
        super().__init__(
            f"{kind} {name!r} is already registered; "
            f"pass replace=True to override it"
        )


class _Ref:
    """A registered-but-not-yet-imported component (``"module:attr"``)."""

    __slots__ = ("target",)

    def __init__(self, target: str):
        self.target = target


class Registry(Generic[T]):
    """A small name -> component mapping with helpful errors.

    *kind* is the human-readable component category ("congestion
    control", "medium", ...) used in error messages. Registration order
    is preserved and is the order :meth:`names` reports, so CLI
    ``choices=`` and scenario docs stay stable across runs. Only
    :meth:`get` and :meth:`items` import by-reference components;
    :meth:`names`, ``in`` and ``len`` never do.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._items: Dict[str, Any] = {}

    def register(self, name: str, item: T, replace: bool = False) -> T:
        """Register *item* under *name*; returns *item* for chaining."""
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} name must be a non-empty string")
        if name in self._items and not replace:
            raise DuplicateNameError(self.kind, name)
        self._items[name] = item
        return item

    def register_ref(self, name: str, target: str, replace: bool = False) -> None:
        """Register *name* as the reference ``"package.module:attr"``.

        The module is imported on the first :meth:`get` of *name*, not
        here; a reference that cannot be resolved fails there with a
        :class:`RegistryError` naming this registry, *name* and *target*.
        """
        self.register(name, _Ref(target), replace=replace)

    def get(self, name: str) -> T:
        """Look up *name*; raises :class:`UnknownNameError` otherwise."""
        try:
            item = self._items[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self._items) from None
        if type(item) is _Ref:
            module_name, _, attr = item.target.partition(":")
            try:
                item = getattr(import_module(module_name), attr)
            except (ImportError, AttributeError, ValueError) as exc:
                raise RegistryError(
                    f"{self.kind} {name!r}: cannot resolve reference "
                    f"{item.target!r} ({type(exc).__name__}: {exc})"
                ) from exc
            self._items[name] = item
        return item

    def __contains__(self, name: object) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._items)

    def items(self) -> List[Tuple[str, T]]:
        """(name, component) pairs, in registration order."""
        return [(name, self.get(name)) for name in self._items]

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, names={list(self._items)})"


def all_registries() -> Dict[str, "Registry"]:
    """Every component registry, keyed by a stable section label.

    Imports lazily so this module stays dependency-free (the modules
    that hold the registries import it at their own import time).
    """
    from .cc import CC_ALGORITHMS
    from .cpu import EXECUTORS
    from .devices.profiles import CPU_CONFIGS, DEVICES
    from .netsim.profiles import MEDIA
    from .obs import PROBES

    return {
        "cc": CC_ALGORITHMS,
        "executor": EXECUTORS,
        "medium": MEDIA,
        "device": DEVICES,
        "cpu-config": CPU_CONFIGS,
        "probe": PROBES,
    }


def lazy_exports(
    package: str,
    submodules: Mapping[str, Tuple[str, ...]],
    namespace: Dict[str, Any],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``(__getattr__, __dir__)`` for a package ``__init__``.

    *submodules* maps each submodule (relative to *package*, e.g.
    ``".core.spec"``) to the public names it defines — the lazy spelling
    of ``from .core.spec import A, B``. A submodule is imported on the
    first access of one of its names and the value is cached in
    *namespace* (the package's ``globals()``). Submodules themselves are
    reachable as attributes the same way (``repro.cache`` after a bare
    ``import repro``). An ``ImportError`` raised *inside* a submodule
    propagates as ``ImportError``; only a name that is neither exported
    nor a submodule becomes ``AttributeError``.
    """
    home = {name: module for module, names in submodules.items()
            for name in names}

    def __getattr__(name: str) -> Any:
        module_name = home.get(name)
        if module_name is not None:
            value = getattr(import_module(module_name, package), name)
        elif name.startswith("__"):
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            full_name = f"{package}.{name}"
            try:
                value = import_module(full_name)
            except ModuleNotFoundError as exc:
                if exc.name != full_name:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
