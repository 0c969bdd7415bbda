"""The system registry: lookup, validation, and by-name factories."""

from __future__ import annotations

import pickle

import pytest

from repro.config import ShinjukuConfig, ShinjukuOffloadConfig
from repro.errors import ConfigError
from repro.experiments.executor import ConfiguredFactory
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.systems import registry
from repro.systems.base import BaseSystem
from repro.systems.rss_system import RssSystemConfig
from repro.systems.shinjuku import ShinjukuSystem
from repro.units import ms

EXPECTED_NAMES = [
    "elastic-rss",
    "ideal-offload",
    "mica",
    "rpcvalet",
    "rss",
    "sharded-shinjuku",
    "shinjuku",
    "shinjuku-offload",
    "workstealing",
]


def _fresh_run_context():
    sim = Simulator()
    rngs = RngRegistry(7)
    metrics = MetricsCollector(sim, warmup_ns=ms(0.1))
    return sim, rngs, metrics


class TestCatalog:
    def test_every_system_is_registered(self):
        assert [e.name for e in registry.list_systems()] == EXPECTED_NAMES

    def test_entries_agree_with_class_names(self):
        for entry in registry.list_systems():
            assert entry.cls.name == entry.name
            assert entry.description  # one-liner required for `repro systems`

    def test_module_table_matches_registrations(self):
        """Each table entry's module registers exactly that name, and
        no module registers a name the table lacks."""
        for name, module in registry.SYSTEM_MODULES.items():
            assert registry.get(name).cls.__module__ == module
        assert [entry.name for entry in registry.list_systems()] == \
            sorted(registry.SYSTEM_MODULES)

    def test_unknown_name_lists_known_systems(self):
        with pytest.raises(ConfigError, match="registered systems"):
            registry.get("shinjuku-typo")

    def test_default_config_is_fresh_per_call(self):
        first = registry.default_config("rss")
        second = registry.default_config("rss")
        assert isinstance(first, RssSystemConfig)
        assert first == second and first is not second

    def test_ideal_offload_default_is_the_preset(self):
        """Preset-configured systems default to their factory, not
        ``config_cls()``."""
        config = registry.default_config("ideal-offload")
        assert isinstance(config, ShinjukuOffloadConfig)
        assert config != ShinjukuOffloadConfig()
        assert config.outstanding_per_worker == 2


class TestBuild:
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_round_trip_build_by_name(self, name):
        """Every registered name constructs its own class, both with
        the default config and with an explicit default instance."""
        entry = registry.get(name)
        sim, rngs, metrics = _fresh_run_context()
        system = registry.build(name, sim, rngs, metrics)
        assert type(system) is entry.cls
        assert system.name == name

        explicit = entry.default_config()
        sim, rngs, metrics = _fresh_run_context()
        system = registry.build(name, sim, rngs, metrics, config=explicit)
        assert type(system) is entry.cls
        assert system.config == explicit

    def test_config_type_mismatch_is_rejected(self):
        sim, rngs, metrics = _fresh_run_context()
        with pytest.raises(ConfigError, match="expects RssSystemConfig"):
            registry.build("rss", sim, rngs, metrics,
                           config=ShinjukuConfig())

    def test_unknown_name_is_rejected(self):
        sim, rngs, metrics = _fresh_run_context()
        with pytest.raises(ConfigError, match="unknown system"):
            registry.build("nope", sim, rngs, metrics)

    def test_kwargs_pass_through(self):
        sim, rngs, metrics = _fresh_run_context()
        system = registry.build("shinjuku", sim, rngs, metrics,
                                client_wire_ns=0.0)
        assert system.client_wire_ns == 0.0


class TestRegistration:
    def test_duplicate_name_is_rejected(self):
        with pytest.raises(ConfigError, match="registered twice"):
            @registry.register_system("shinjuku")
            class Impostor(BaseSystem):  # noqa: F811
                name = "shinjuku"

    def test_name_class_mismatch_is_rejected(self):
        with pytest.raises(ConfigError, match="does not match"):
            @registry.register_system("misnamed-system")
            class Misnamed(BaseSystem):
                name = "something-else"


class TestByNameFactories:
    def test_by_name_builds_the_same_system(self):
        factory = ConfiguredFactory.by_name("shinjuku",
                                            ShinjukuConfig(workers=3))
        sim, rngs, metrics = _fresh_run_context()
        system = factory(sim, rngs, metrics)
        assert isinstance(system, ShinjukuSystem)
        assert system.config.workers == 3

    def test_by_name_token_matches_by_class_token(self):
        """Switching factory styles never invalidates a result cache."""
        config = ShinjukuConfig(workers=3)
        by_name = ConfiguredFactory.by_name("shinjuku", config)
        by_class = ConfiguredFactory(ShinjukuSystem, config)
        assert by_name.cache_token() == by_class.cache_token()

    def test_by_name_is_picklable(self):
        factory = ConfiguredFactory.by_name("rss", RssSystemConfig(workers=2))
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        assert clone.cache_token() == factory.cache_token()

    def test_by_name_rejects_unknown_system_eagerly(self):
        with pytest.raises(ConfigError, match="unknown system"):
            ConfiguredFactory.by_name("not-a-system")

    def test_by_name_rejects_config_type_mismatch_eagerly(self):
        with pytest.raises(ConfigError, match="expects ShinjukuConfig"):
            ConfiguredFactory.by_name("shinjuku", RssSystemConfig())
