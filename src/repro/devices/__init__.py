"""Device profiles (Pixel 4 / Pixel 6) and Table 1 CPU configurations."""

from ..registry import lazy_exports

__all__ = [
    "DeviceProfile",
    "PIXEL_4",
    "PIXEL_6",
    "DEVICES",
    "CpuConfig",
    "CPU_CONFIGS",
    "DeviceSetup",
    "build_device",
]

_SUBMODULES = {
    ".configs": ("DeviceSetup", "build_device"),
    ".profiles": (
        "CPU_CONFIGS",
        "DEVICES",
        "PIXEL_4",
        "PIXEL_6",
        "CpuConfig",
        "DeviceProfile",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
