"""The four CPU configurations of Table 1 and the device builder.

The configuration *names* (:class:`~repro.devices.profiles.CpuConfig`,
:data:`~repro.devices.profiles.CPU_CONFIGS`; re-exported here) live with
the profiles; this module holds the configurators they refer to.

``build_device(loop, profile, config)`` assembles a
:class:`~repro.cpu.cluster.BigLittleCpu` with the right clusters
enabled/disabled, pins or starts the right governor, and returns a
:class:`DeviceSetup` whose ``cost_model`` is the default cost model
scaled by the profile's per-cycle efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..cpu import (
    BigLittleCpu,
    CostModel,
    CpuCluster,
    DEFAULT_COSTS,
    DynamicCpuPolicy,
    ThermalModel,
    UserspaceGovernor,
)
from ..sim import EventLoop, Tracer, NULL_TRACER
from .profiles import CPU_CONFIGS, CpuConfig, DeviceProfile

__all__ = ["CpuConfig", "CPU_CONFIGS", "DeviceSetup", "build_device"]


@dataclass
class DeviceSetup:
    """A fully assembled device: topology, governors, and cost model."""

    profile: DeviceProfile
    config: str
    cpu: BigLittleCpu
    cost_model: CostModel
    governors: List[object] = field(default_factory=list)
    policy: Optional[DynamicCpuPolicy] = None

    def start(self) -> None:
        """Apply pinned frequencies / start dynamic sampling."""
        for governor in self.governors:
            governor.start()
        if self.policy is not None:
            self.policy.start()

    def stop(self) -> None:
        """Stop periodic governor work (lets the event loop drain)."""
        for governor in self.governors:
            governor.stop()
        if self.policy is not None:
            self.policy.stop()

    def cpu_busy_fraction(self, elapsed_ns: int) -> float:
        """Aggregate busy fraction of the active core over *elapsed_ns*."""
        if elapsed_ns <= 0:
            return 0.0
        busy = sum(core.busy_ns_up_to_now() for core in self.cpu.all_cores())
        return busy / elapsed_ns


def _pin_low_end(loop: EventLoop, setup: DeviceSetup, tracer: Tracer) -> None:
    setup.cpu.disable_big()
    setup.governors.append(
        UserspaceGovernor(setup.cpu.little, setup.profile.low_end_hz)
    )


def _pin_mid_end(loop: EventLoop, setup: DeviceSetup, tracer: Tracer) -> None:
    setup.cpu.disable_big()
    setup.governors.append(
        UserspaceGovernor(setup.cpu.little, setup.profile.mid_end_hz)
    )


def _pin_high_end(loop: EventLoop, setup: DeviceSetup, tracer: Tracer) -> None:
    setup.cpu.disable_little()
    setup.governors.append(
        UserspaceGovernor(setup.cpu.big, setup.profile.high_end_hz)
    )


def _dynamic_default(loop: EventLoop, setup: DeviceSetup, tracer: Tracer) -> None:
    # DEFAULT: dynamic scaling + migration + thermal envelope
    thermal = ThermalModel(sustained_hz=setup.profile.sustained_big_hz)
    setup.policy = DynamicCpuPolicy(loop, setup.cpu, thermal=thermal, tracer=tracer)


def build_device(
    loop: EventLoop,
    profile: DeviceProfile,
    config: str,
    base_costs: CostModel = DEFAULT_COSTS,
    tracer: Tracer = NULL_TRACER,
) -> DeviceSetup:
    """Build the device *profile* in Table 1 configuration *config*."""
    configure = CPU_CONFIGS.get(config)

    little = CpuCluster(
        loop, "little", profile.little_opps_hz, profile.little_cores, tracer=tracer
    )
    big = CpuCluster(
        loop, "big", profile.big_opps_hz, profile.big_cores, tracer=tracer
    )
    cpu = BigLittleCpu(little, big)
    costs = base_costs.scaled(profile.cycles_scale)
    setup = DeviceSetup(profile=profile, config=config, cpu=cpu, cost_model=costs)
    configure(loop, setup, tracer)
    return setup
