"""Hardware models: CPUs, timers, caches, SmartNICs."""

from repro.hw.cpu import CpuCore, HardwareThread, Socket, HostMachine
from repro.hw.timer_apic import ApicTimer, TimerMechanism
from repro.hw.cache import CacheLevel, DdioModel, CacheHierarchy
from repro.hw.smartnic import StingraySmartNic, FabricDomain

__all__ = [
    "CpuCore",
    "HardwareThread",
    "Socket",
    "HostMachine",
    "ApicTimer",
    "TimerMechanism",
    "CacheLevel",
    "DdioModel",
    "CacheHierarchy",
    "StingraySmartNic",
    "FabricDomain",
]
