"""Device profiles: Pixel 4 and Pixel 6 (§3.1), and Table 1's names.

A :class:`DeviceProfile` captures what the reproduction needs from a
phone SoC: the OPP (frequency) tables of the LITTLE and BIG clusters, the
core counts, a sustained-clock thermal cap for dynamic mode, and a
relative per-cycle efficiency factor.

Frequency tables follow the real SoCs (Snapdragon 855 for the Pixel 4,
Google Tensor for the Pixel 6) closely enough that Table 1's pin points
exist exactly: 576 MHz / 1.2 GHz / 2.8 GHz on the Pixel 4 and
300 MHz / 1.2 GHz / 2.8 GHz on the Pixel 6.

``cycles_scale`` multiplies the cost model's cycle counts: the Tensor's
Cortex-A55/X1 cores retire this workload in fewer effective cycles than
the 855's (newer cores, better memory system), which is why the paper
sees similar Low-End goodput on the Pixel 6 at 300 MHz as on the Pixel 4
at 576 MHz (Figure 3).

:class:`CpuConfig` and :data:`CPU_CONFIGS` name the four Table 1 CPU
configurations; the configurators that apply them to a built topology
live in :mod:`repro.devices.configs` and are registered here by
reference, so this module stays importable without the CPU model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..registry import Registry
from ..units import ghz, mhz

__all__ = [
    "DeviceProfile",
    "PIXEL_4",
    "PIXEL_6",
    "DEVICES",
    "CpuConfig",
    "CPU_CONFIGS",
]


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of a phone SoC."""

    name: str
    little_opps_hz: Tuple[float, ...]
    big_opps_hz: Tuple[float, ...]
    little_cores: int = 4
    big_cores: int = 4
    #: sustained BIG-cluster clock under the thermal envelope (dynamic mode)
    sustained_big_hz: float = 0.0
    #: multiplier on CostModel cycle counts (relative core efficiency)
    cycles_scale: float = 1.0

    @property
    def low_end_hz(self) -> float:
        """Table 1 Low-End pin: minimum LITTLE OPP."""
        return min(self.little_opps_hz)

    @property
    def mid_end_hz(self) -> float:
        """Table 1 Mid-End pin: the 1.2 GHz LITTLE OPP (median region)."""
        table = sorted(self.little_opps_hz)
        return table[len(table) // 2]

    @property
    def high_end_hz(self) -> float:
        """Table 1 High-End pin: maximum BIG OPP."""
        return max(self.big_opps_hz)


#: Pixel 4 (2019, Snapdragon 855, Android 11 / kernel 4.14).
PIXEL_4 = DeviceProfile(
    name="pixel4",
    little_opps_hz=(
        mhz(576), mhz(672), mhz(768), mhz(940), mhz(1056),
        mhz(1200), mhz(1360), mhz(1516), mhz(1612), mhz(1708), mhz(1785),
    ),
    big_opps_hz=(
        mhz(826), mhz(1056), mhz(1286), mhz(1516), mhz(1747),
        mhz(1977), mhz(2208), mhz(2400), mhz(2600), ghz(2.8),
    ),
    little_cores=4,
    big_cores=4,
    sustained_big_hz=mhz(1460),
    cycles_scale=1.0,
)

#: Pixel 6 (2021, Google Tensor, Android 12 / kernel 5.10).
PIXEL_6 = DeviceProfile(
    name="pixel6",
    little_opps_hz=(
        mhz(300), mhz(574), mhz(738), mhz(930), mhz(1098),
        mhz(1197), mhz(1328), mhz(1491), mhz(1598), mhz(1704), mhz(1803),
    ),
    big_opps_hz=(
        mhz(500), mhz(851), mhz(984), mhz(1106), mhz(1277),
        mhz(1426), mhz(1582), mhz(1745), mhz(1826), mhz(2048),
        mhz(2188), mhz(2252), mhz(2401), mhz(2507), mhz(2630),
        mhz(2704), ghz(2.8),
    ),
    little_cores=4,
    big_cores=2,
    sustained_big_hz=mhz(1582),
    cycles_scale=0.52,
)

#: name -> :class:`DeviceProfile` (spec ``device=`` scenario references)
DEVICES: Registry = Registry("device")
DEVICES.register(PIXEL_4.name, PIXEL_4)
DEVICES.register(PIXEL_6.name, PIXEL_6)


class CpuConfig:
    """Table 1's configuration names."""

    LOW_END = "low-end"
    MID_END = "mid-end"
    HIGH_END = "high-end"
    DEFAULT = "default"

    # ALL is assigned from the CPU_CONFIGS registry below, so the tuple
    # and the registry can never drift apart.
    ALL: tuple


#: name -> configurator ``(loop, DeviceSetup, tracer) -> None`` applying a
#: Table 1 configuration to a freshly built topology
CPU_CONFIGS: Registry = Registry("CPU config")
CPU_CONFIGS.register_ref(CpuConfig.LOW_END, "repro.devices.configs:_pin_low_end")
CPU_CONFIGS.register_ref(CpuConfig.MID_END, "repro.devices.configs:_pin_mid_end")
CPU_CONFIGS.register_ref(CpuConfig.HIGH_END, "repro.devices.configs:_pin_high_end")
CPU_CONFIGS.register_ref(CpuConfig.DEFAULT, "repro.devices.configs:_dynamic_default")

CpuConfig.ALL = CPU_CONFIGS.names()
