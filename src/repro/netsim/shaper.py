"""tc/netem-style impairments.

The paper's testbed lets network conditions be set on the OpenWRT router
with Linux ``tc`` (§3.2). :class:`~repro.netsim.profiles.NetemConfig`
(re-exported here) captures the knobs the reproduction needs — an egress
rate limit, additional one-way delay, random loss, and the egress buffer
depth — and the :class:`~repro.netsim.testbed.Testbed` applies them to
the router's server-facing port.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..sim import EventLoop
from .packet import Packet
from .profiles import NetemConfig

__all__ = ["NetemConfig", "NetemImpairment"]


class NetemImpairment:
    """Applies random loss and added delay between two components.

    Sits on a path as a packet filter: ``impairment(packet)`` either drops
    the packet or forwards it to the downstream sink after the configured
    delay.
    """

    def __init__(
        self,
        loop: EventLoop,
        config: NetemConfig,
        sink: Callable[[Packet], None],
        rng: Optional[random.Random] = None,
    ):
        self._loop = loop
        self.config = config
        self.sink = sink
        self._rng = rng or random.Random(0)
        self.dropped_packets = 0
        self.forwarded_packets = 0

    def __call__(self, packet: Packet) -> None:
        if self.config.loss_probability > 0.0:
            if self._rng.random() < self.config.loss_probability:
                self.dropped_packets += 1
                return
        self.forwarded_packets += 1
        if self.config.extra_delay_ns > 0:
            self._loop.call_after(self.config.extra_delay_ns, self.sink, packet)
        else:
            self.sink(packet)
