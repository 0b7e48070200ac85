"""Binding of network-stack work to device CPU cores.

On the phones the paper measures, iperf3 is a single process and the
transmit softirq work for its sockets runs (almost entirely) on one core
at a time. :class:`NetStackExecutor` models that: every piece of stack
work — pacing-timer fires, skb transmits, ACK processing — is submitted
through one executor, which forwards it to the CPU topology's *active*
core. Static configurations keep the binding fixed; the Default policy
migrates it.

Work carries a priority: interrupt/RX-class work (ACKs, timer
expirations) is queued ahead of bulk transmit items, matching how real
kernels interleave RX softirq and hrtimer handling with the transmit
path.

An :class:`RpsExecutor` variant spreads connections across cores
(Receive/Transmit Packet Steering), used only by the ablation benchmarks
to show how much of the paper's effect depends on serialization.
"""

from __future__ import annotations

from typing import Callable, List

from .cluster import BigLittleCpu
from .core import CpuCore, WorkItem

__all__ = [
    "StackExecutor",
    "NetStackExecutor",
    "RpsExecutor",
    "FreeExecutor",
]


class StackExecutor:
    """Interface: anything that can run stack work and report busy time."""

    def submit(
        self,
        cycles: int,
        callback: Callable[[], None],
        name: str = "work",
        priority: int = WorkItem.NORMAL,
        continuation: bool = False,
    ) -> None:
        """Run *callback* after charging *cycles* of CPU time."""
        raise NotImplementedError

    def submit_for(
        self,
        flow_id: int,
        cycles: int,
        callback: Callable[[], None],
        name: str = "work",
        priority: int = WorkItem.NORMAL,
        continuation: bool = False,
    ) -> None:
        """Like :meth:`submit`, with a flow hint for multi-core steering."""
        self.submit(cycles, callback, name, priority, continuation)

    def busy_ns(self) -> int:
        """Total CPU busy time consumed via this executor's cores."""
        raise NotImplementedError


class NetStackExecutor(StackExecutor):
    """Serialize all stack work on the topology's active core (default)."""

    def __init__(self, cpu: BigLittleCpu):
        self.cpu = cpu

    def submit(
        self,
        cycles: int,
        callback: Callable[[], None],
        name: str = "work",
        priority: int = WorkItem.NORMAL,
        continuation: bool = False,
    ) -> None:
        self.cpu.active_core.submit_work(cycles, callback, name, priority,
                                         continuation)

    def submit_for(
        self,
        flow_id: int,
        cycles: int,
        callback: Callable[[], None],
        name: str = "work",
        priority: int = WorkItem.NORMAL,
        continuation: bool = False,
    ) -> None:
        # Serialized executor ignores the flow hint; go straight to the
        # active core rather than through the base-class indirection. The
        # submit_work form lets a compiled-kernel core build its WorkItem
        # internally instead of allocating one here per submission.
        self.cpu.active_core.submit_work(cycles, callback, name, priority,
                                         continuation)

    def busy_ns(self) -> int:
        return sum(core.busy_ns_up_to_now() for core in self.cpu.all_cores())


class RpsExecutor(StackExecutor):
    """Hash flows across the enabled cores (ablation only).

    Work without a flow hint goes to core 0. Real phones do not steer the
    single-process iperf transmit path this way, which is why this is not
    the default — see DESIGN.md §4.
    """

    def __init__(self, cpu: BigLittleCpu):
        self.cpu = cpu

    def _cores(self) -> List[CpuCore]:
        cores = self.cpu.all_cores()
        if not cores:
            raise RuntimeError("no enabled cores")
        return cores

    def submit(
        self,
        cycles: int,
        callback: Callable[[], None],
        name: str = "work",
        priority: int = WorkItem.NORMAL,
        continuation: bool = False,
    ) -> None:
        self._cores()[0].submit_work(cycles, callback, name, priority,
                                     continuation)

    def submit_for(
        self,
        flow_id: int,
        cycles: int,
        callback: Callable[[], None],
        name: str = "work",
        priority: int = WorkItem.NORMAL,
        continuation: bool = False,
    ) -> None:
        cores = self._cores()
        cores[flow_id % len(cores)].submit_work(cycles, callback, name,
                                                priority, continuation)

    def busy_ns(self) -> int:
        return sum(core.busy_ns_up_to_now() for core in self.cpu.all_cores())


class FreeExecutor(StackExecutor):
    """An infinitely fast CPU: callbacks run immediately.

    Used by protocol unit tests that want network behaviour without
    compute effects, and by the desktop iperf *server* side (the paper's
    server is never the bottleneck).
    """

    def submit(
        self,
        cycles: int,
        callback: Callable[[], None],
        name: str = "work",
        priority: int = WorkItem.NORMAL,
        continuation: bool = False,
    ) -> None:
        callback()

    def busy_ns(self) -> int:
        return 0


def _free_executor(cpu: BigLittleCpu) -> FreeExecutor:
    """The ``"free"`` entry of :data:`repro.cpu.EXECUTORS`: ignores the
    topology by design."""
    return FreeExecutor()
