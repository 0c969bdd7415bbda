"""The open-loop load generator (§4: "similar to mutilate").

Generates requests on an arrival process, stamps them, hands them to
the system under test, and records arrivals with the metrics
collector.  Being open-loop, it never waits for responses.

:class:`ClientPool` supplies flow identities: dataplane systems need
many concurrent connections for RSS to spread load (§2.2-1 notes IX
and MICA "require a large number of concurrent connections to keep
per-core queues balanced"), so the pool size is a first-class
experimental knob.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.metrics.collector import MetricsCollector
from repro.runtime.request import Request
from repro.sim.rng import RngRegistry
from repro.workload.arrivals import ArrivalProcess
from repro.workload.apps import SpinApp, SyntheticApp
from repro.workload.distributions import ServiceTimeDistribution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class ClientPool:
    """A set of client connections to draw flow identities from."""

    def __init__(self, n_clients: int = 2, connections_per_client: int = 64,
                 base_ip: int = 0x0A010101, base_port: int = 40000):
        if n_clients < 1 or connections_per_client < 1:
            raise WorkloadError("need at least one client connection")
        self.flows: List[Tuple[int, int]] = []
        for client in range(n_clients):
            ip = base_ip + client
            for conn in range(connections_per_client):
                self.flows.append((ip, base_port + conn))

    def pick(self, rng: random.Random) -> Tuple[int, int]:
        """A random established connection's (src_ip, src_port)."""
        return self.flows[rng.randrange(len(self.flows))]

    def __len__(self) -> int:
        return len(self.flows)


class OpenLoopLoadGenerator:
    """Drives a system with open-loop arrivals.

    Parameters
    ----------
    sim:
        Owning simulator.
    ingress:
        The system's entry point, called with each new request at its
        arrival time.
    arrivals:
        Arrival process (rate lives here).
    app:
        Request factory; a :class:`~repro.workload.apps.SpinApp` is
        built from *distribution* when only that is given.
    distribution:
        Service-time distribution (ignored when *app* is given).
    rngs:
        Named random streams.
    metrics:
        Where arrivals are recorded.
    horizon_ns:
        Stop generating at this simulated time.
    clients:
        Flow-identity pool (default: 2 clients x 64 connections).
    """

    def __init__(self, sim: "Simulator",
                 ingress: Callable[[Request], None],
                 arrivals: ArrivalProcess,
                 rngs: RngRegistry,
                 metrics: MetricsCollector,
                 horizon_ns: float,
                 distribution: Optional[ServiceTimeDistribution] = None,
                 app: Optional[SyntheticApp] = None,
                 clients: Optional[ClientPool] = None,
                 request_bytes: int = 64):
        if app is None:
            if distribution is None:
                raise WorkloadError("need either an app or a distribution")
            app = SpinApp(distribution)
        if horizon_ns <= 0:
            raise WorkloadError(f"horizon must be positive: {horizon_ns}")
        self.sim = sim
        self.ingress = ingress
        self.arrivals = arrivals
        self.app = app
        self.rngs = rngs
        self.metrics = metrics
        self.horizon_ns = horizon_ns
        self.clients = clients if clients is not None else ClientPool()
        self.request_bytes = request_bytes
        self.generated = 0
        self._process = None

    def start(self) -> None:
        """Begin generating (call once, before ``sim.run``)."""
        if self._process is not None:
            raise WorkloadError("generator already started")
        self._process = self.sim.process(self._run(), label="loadgen")

    def _run(self):
        arrival_rng = self.rngs.stream("arrivals")
        service_rng = self.rngs.stream("service")
        flow_rng = self.rngs.stream("flows")
        sim = self.sim
        next_gap_ns = self.arrivals.next_gap_ns
        make_request = self.app.make_request
        pick = self.clients.pick
        record_arrival = self.metrics.record_arrival
        ingress = self.ingress
        horizon_ns = self.horizon_ns
        request_bytes = self.request_bytes
        while True:
            gap = next_gap_ns(arrival_rng)
            if sim._now + gap > horizon_ns:
                return
            yield gap
            request = make_request(service_rng, sim._now)
            src_ip, src_port = pick(flow_rng)
            request.src_ip = src_ip
            request.src_port = src_port
            request.size_bytes = request_bytes
            self.generated += 1
            record_arrival(request)
            ingress(request)

    def __repr__(self) -> str:
        return (f"<OpenLoopLoadGenerator {self.arrivals!r} "
                f"generated={self.generated}>")
