"""Hardware models: CPUs, timers, caches, SmartNICs."""
