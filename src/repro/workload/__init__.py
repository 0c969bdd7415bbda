"""Workload generation: service-time distributions, arrivals, apps."""
