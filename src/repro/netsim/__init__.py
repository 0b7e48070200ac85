"""Network substrate: packets, links, queues, impairments, media, testbed.

See :class:`~repro.netsim.testbed.Testbed` for the assembled Figure-1
topology and :mod:`repro.netsim.media` for the Ethernet/WiFi/LTE profiles.
"""

from ..registry import lazy_exports

__all__ = [
    "Link",
    "MediumProfile",
    "ETHERNET_LAN",
    "WIFI_LAN",
    "LTE_CELLULAR",
    "MEDIA",
    "VariableRateLink",
    "make_access_link",
    "Packet",
    "SackBlock",
    "DEFAULT_MSS",
    "HEADER_BYTES",
    "DropTailQueue",
    "NetemConfig",
    "NetemImpairment",
    "Testbed",
    "SenderPort",
    "DEFAULT_PHONE_QDISC_SEGMENTS",
    "DEFAULT_ROUTER_BUFFER_SEGMENTS",
]

_SUBMODULES = {
    ".link": ("Link",),
    ".media": ("VariableRateLink", "make_access_link"),
    ".packet": ("DEFAULT_MSS", "HEADER_BYTES", "Packet", "SackBlock"),
    ".profiles": (
        "ETHERNET_LAN",
        "LTE_CELLULAR",
        "MEDIA",
        "WIFI_LAN",
        "MediumProfile",
        "NetemConfig",
    ),
    ".queue": ("DropTailQueue",),
    ".shaper": ("NetemImpairment",),
    ".testbed": (
        "DEFAULT_PHONE_QDISC_SEGMENTS",
        "DEFAULT_ROUTER_BUFFER_SEGMENTS",
        "SenderPort",
        "Testbed",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
