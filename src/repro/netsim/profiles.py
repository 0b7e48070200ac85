"""Network profiles as data: access media and router impairments.

The declarative half of :mod:`repro.netsim` — what an
:class:`~repro.core.spec.ExperimentSpec` names, with nothing that runs:

* :class:`MediumProfile` and the three §3.2 / Appendix A.1 media
  (rates, base one-way delays, variability), registered in
  :data:`MEDIA` for ``medium=`` scenario references;
* :class:`NetemConfig`, the ``tc``-style knobs of the router's
  server-facing port (§3.2): egress rate limit, additional one-way
  delay, random loss, egress buffer depth.

The links and impairments that *apply* these live in
:mod:`repro.netsim.media` and :mod:`repro.netsim.shaper`; this module
imports no simulator code, so specs, scenario files, the cache and the
CLI can load it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..registry import Registry
from ..units import MSEC, gbps, mbps, microseconds, milliseconds

__all__ = [
    "MediumProfile",
    "ETHERNET_LAN",
    "WIFI_LAN",
    "LTE_CELLULAR",
    "MEDIA",
    "NetemConfig",
]


@dataclass(frozen=True)
class MediumProfile:
    """Static description of an access medium."""

    name: str
    #: uplink (phone -> router) capacity in bits/s
    uplink_bps: float
    #: downlink (router -> phone) capacity in bits/s
    downlink_bps: float
    #: one-way propagation/processing delay per direction, ns
    one_way_delay_ns: int
    #: relative std-dev of the AR(1) capacity process (0 = fixed rate)
    rate_sigma: float = 0.0
    #: AR(1) memory parameter in [0, 1); closer to 1 = slower fading
    rate_phi: float = 0.9
    #: capacity process update period, ns
    rate_update_ns: int = 50 * MSEC


#: Ethernet LAN via USB adapter: ~1 Gbps line rate, sub-millisecond RTT.
ETHERNET_LAN = MediumProfile(
    name="ethernet",
    uplink_bps=gbps(1.0),
    downlink_bps=gbps(1.0),
    one_way_delay_ns=microseconds(250),
)

#: WiFi LAN, phone ~1 m from the AP: high but variable effective rate.
WIFI_LAN = MediumProfile(
    name="wifi",
    uplink_bps=mbps(620.0),
    downlink_bps=mbps(620.0),
    one_way_delay_ns=milliseconds(1.0),
    rate_sigma=0.12,
    rate_phi=0.9,
)

#: T-Mobile LTE uplink: bandwidth-limited (<20 Mbps goodput in the paper).
LTE_CELLULAR = MediumProfile(
    name="lte",
    uplink_bps=mbps(18.0),
    downlink_bps=mbps(60.0),
    one_way_delay_ns=milliseconds(30.0),
    rate_sigma=0.08,
    rate_phi=0.95,
)

#: name -> :class:`MediumProfile` (spec ``medium=`` scenario references)
MEDIA: Registry = Registry("medium")
MEDIA.register(ETHERNET_LAN.name, ETHERNET_LAN)
MEDIA.register(WIFI_LAN.name, WIFI_LAN)
MEDIA.register(LTE_CELLULAR.name, LTE_CELLULAR)


@dataclass(frozen=True)
class NetemConfig:
    """Router egress traffic-control settings.

    ``rate_bps=None`` leaves the port at line rate. ``buffer_segments``
    overrides the router's egress buffer depth (the §5.2.3 shallow-buffer
    experiment uses 10).
    """

    rate_bps: Optional[float] = None
    extra_delay_ns: int = 0
    loss_probability: float = 0.0
    buffer_segments: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        if self.extra_delay_ns < 0:
            raise ValueError("extra delay must be >= 0")
