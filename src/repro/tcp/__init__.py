"""Event-driven reimplementation of the Linux TCP sender/receiver pair.

Highlights:

* :class:`~repro.tcp.connection.TcpSender` — cwnd, SACK recovery, RTO,
  delivery-rate sampling, TSO autosizing, internal pacing with the
  paper's *pacing stride*,
* :class:`~repro.tcp.receiver.TcpReceiverEndpoint` — reassembly + SACKs,
* :class:`~repro.tcp.stack.MobileTcpStack` — binds everything to the
  simulated device CPU,
* :class:`~repro.tcp.pacing.PacingController` — Eq. 1/Eq. 2 of the paper.
"""

from ..registry import lazy_exports

__all__ = [
    "TcpSender",
    "SocketConfig",
    "InfiniteSource",
    "FiniteSource",
    "TCP_INIT_CWND",
    "PacingController",
    "PacingMode",
    "RateSample",
    "TxRecord",
    "DeliveryRateEstimator",
    "TcpReceiverEndpoint",
    "RttEstimator",
    "MinRttFilter",
    "Scoreboard",
    "AckOutcome",
    "GSO_MAX_BYTES",
    "PACING_SHIFT",
    "tso_autosize_bytes",
    "tso_autosize_segments",
    "MobileTcpStack",
    "ServerHost",
]

_SUBMODULES = {
    ".connection": (
        "TCP_INIT_CWND",
        "FiniteSource",
        "InfiniteSource",
        "SocketConfig",
        "TcpSender",
    ),
    ".pacing": ("PacingController", "PacingMode"),
    ".rate_sample": ("DeliveryRateEstimator", "RateSample", "TxRecord"),
    ".receiver": ("TcpReceiverEndpoint",),
    ".rtt": ("MinRttFilter", "RttEstimator"),
    ".scoreboard": ("AckOutcome", "Scoreboard"),
    ".segmentation": (
        "GSO_MAX_BYTES",
        "PACING_SHIFT",
        "tso_autosize_bytes",
        "tso_autosize_segments",
    ),
    ".stack": ("MobileTcpStack", "ServerHost"),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
