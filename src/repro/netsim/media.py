"""Access links for the Ethernet, WiFi, and LTE media (§3.2, Appendix A.1).

Each medium is described by a :class:`~repro.netsim.profiles.MediumProfile`
(rates, base one-way delays, and variability; re-exported here). WiFi
capacity follows an AR(1) (Gauss-Markov) process around its mean, which
is the standard first-order model for slow fading plus contention; LTE
is a low fixed-rate uplink with higher base delay — the regime in which
the paper finds *no* BBR/Cubic gap because the network, not the CPU, is
the bottleneck.
"""

from __future__ import annotations

import random
from typing import Optional

from ..sim import EventLoop, NULL_TRACER, PeriodicTimer, Tracer
from .link import Link
from .profiles import ETHERNET_LAN, LTE_CELLULAR, MEDIA, WIFI_LAN, MediumProfile

__all__ = [
    "MediumProfile",
    "ETHERNET_LAN",
    "WIFI_LAN",
    "LTE_CELLULAR",
    "MEDIA",
    "VariableRateLink",
    "make_access_link",
]


class VariableRateLink(Link):
    """A link whose rate follows an AR(1) process around a mean.

    ``rate(t+1) = mean + phi * (rate(t) - mean) + noise`` with Gaussian
    noise scaled so the stationary standard deviation is
    ``sigma * mean``; the rate is clamped to ``[0.3, 1.5] * mean``.
    """

    def __init__(
        self,
        loop: EventLoop,
        mean_rate_bps: float,
        sigma: float,
        phi: float,
        update_ns: int,
        prop_delay_ns: int,
        rng: random.Random,
        name: str = "varlink",
        tracer: Tracer = NULL_TRACER,
    ):
        super().__init__(loop, mean_rate_bps, prop_delay_ns, name=name, tracer=tracer)
        self.mean_rate_bps = float(mean_rate_bps)
        self.sigma = float(sigma)
        self.phi = float(phi)
        self._rng = rng
        # stationary variance of AR(1) = noise_var / (1 - phi^2)
        self._noise_std = sigma * mean_rate_bps * (1.0 - phi * phi) ** 0.5
        self._timer = PeriodicTimer(loop, update_ns, self._update, name=f"{name}-rate")
        if sigma > 0.0:
            self._timer.start(initial_delay_ns=0)

    def _update(self) -> None:
        deviation = self.rate_bps - self.mean_rate_bps
        new_rate = (
            self.mean_rate_bps
            + self.phi * deviation
            + self._rng.gauss(0.0, self._noise_std)
        )
        low = 0.3 * self.mean_rate_bps
        high = 1.5 * self.mean_rate_bps
        self.rate_bps = min(high, max(low, new_rate))

    def stop(self) -> None:
        """Stop the rate process (lets the event loop drain)."""
        self._timer.stop()


def make_access_link(
    loop: EventLoop,
    profile: MediumProfile,
    direction: str,
    rng: random.Random,
    tracer: Tracer = NULL_TRACER,
    name: Optional[str] = None,
) -> Link:
    """Build the uplink or downlink access link for *profile*.

    *direction* is ``"up"`` (phone to router) or ``"down"``. *name*
    overrides the default link name (extra sender ports need distinct
    ones); ``None`` keeps the legacy ``"<medium>-<direction>link"``.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    rate = profile.uplink_bps if direction == "up" else profile.downlink_bps
    if name is None:
        name = f"{profile.name}-{direction}link"
    if profile.rate_sigma > 0.0:
        return VariableRateLink(
            loop,
            rate,
            profile.rate_sigma,
            profile.rate_phi,
            profile.rate_update_ns,
            profile.one_way_delay_ns,
            rng,
            name=name,
            tracer=tracer,
        )
    return Link(loop, rate, profile.one_way_delay_ns, name=name, tracer=tracer)
