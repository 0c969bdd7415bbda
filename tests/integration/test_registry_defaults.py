"""Every registered system's *default* config, pinned point by point.

The registry golden (``test_registry_golden.py``) pins hand-picked
configs only.  These tests build each system with
``registry.default_config`` instead and run one point per system at a
common load, so a change to any default (worker count, preemption
slice, dispatcher costs, ...) or to what a default system measures
moves a digest.  Each system has its own digest, so a failure names the
system whose default moved; one more digest covers the nine points in
registry order.

Digests are :func:`~repro.experiments.executor.metrics_digest`.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    make_executor,
    metrics_digest,
)
from repro.experiments.harness import RunConfig
from repro.systems import registry
from repro.units import us
from repro.workload.distributions import Fixed

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "1"))

#: High enough to exercise queueing, low enough that every system
#: keeps up.
RATE_RPS = 200e3
SEED = 42
SCALE = 0.2
DIST = Fixed(us(2.0))

DEFAULTS_DIGEST = ("f829559c8ef9363e972b80598a1625193d19c3c3f02648aeba122d"
                   "b7717a11a9")

#: One point per system, in registry order.
SYSTEM_DIGESTS = {
    "elastic-rss":
        "b25985c4ce26106de47682db641bdfd4109474a19ec42862b61bb95de8263ce5",
    "ideal-offload":
        "ccca517b8055ae7725b311a6bc4f45b3d82c1bdb30097868e629582ceeb91e32",
    "mica":
        "5a008bd9557ce9ba0493bcbe9bbb064e582fd30b8f52844566eae9b2f3dd433e",
    "rpcvalet":
        "c5c2a3997cbc7fc21615182ad3841ce2383e9d1f81780de6e1ea069549c73e17",
    "rss":
        "8fca2be61c97ecd53e75135d3deb6e28c51c907df5c0b88a86da96f6ee8f3f3c",
    "sharded-shinjuku":
        "c243e820e008233f42b6d727215f7d4057f9ea730bae5c511032ffeaa03cf218",
    "shinjuku":
        "6578195b80172b29591c9eeab32b169ae5d4d5a3be118c7e38e4f22b75d220f7",
    "shinjuku-offload":
        "84bb301048ac3255612636a5dcf440d6638ae6d2f25ed7b42ec4261f1fabc2d4",
    "workstealing":
        "18c131b27cdc78cdeff5dbc555a91de82883ccb030a09e4e83ce9a097600267f",
}


def _run_defaults(rate_rps=RATE_RPS, seed=SEED):
    """Run one default-config point per registered system."""
    names = [entry.name for entry in registry.list_systems()]
    config = RunConfig(seed=seed).scaled(SCALE)
    specs = [PointSpec(factory=ConfiguredFactory.by_name(
                           name, registry.default_config(name)),
                       rate_rps=rate_rps, distribution=DIST, config=config,
                       label=name)
             for name in names]
    return names, make_executor(jobs=JOBS).run_points(specs)


@pytest.fixture(scope="module")
def default_points():
    names, results = _run_defaults()
    return dict(zip(names, results))


def test_default_config_of_every_system_is_pinned(default_points):
    assert list(default_points) == list(SYSTEM_DIGESTS)
    assert metrics_digest(default_points.values()) == DEFAULTS_DIGEST


@pytest.mark.parametrize("name", sorted(SYSTEM_DIGESTS))
def test_default_config_point_is_pinned(default_points, name):
    assert metrics_digest([default_points[name]]) == SYSTEM_DIGESTS[name]


@pytest.mark.parametrize("rate_rps, seed", [(150e3, SEED), (RATE_RPS, 43)],
                         ids=["other-rate", "other-seed"])
def test_perturbed_input_moves_every_digest(rate_rps, seed):
    """The pins witness their inputs: another load or seed changes the
    combined digest and each system's own."""
    names, results = _run_defaults(rate_rps, seed)
    assert metrics_digest(results) != DEFAULTS_DIGEST
    for name, metrics in zip(names, results):
        assert metrics_digest([metrics]) != SYSTEM_DIGESTS[name], name
