"""Unit tests for configuration dataclasses and paper constants."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro import config
from repro.errors import ConfigError


class TestPaperConstants:
    def test_communication_latency(self):
        assert config.ARM_HOST_ONE_WAY_NS == 2560.0

    def test_timer_cycle_counts(self):
        assert config.TIMER_ARM_LINUX_CYCLES == 610
        assert config.TIMER_ARM_DUNE_CYCLES == 40
        assert config.TIMER_FIRE_LINUX_CYCLES == 4193
        assert config.TIMER_FIRE_DUNE_CYCLES == 1272

    def test_default_time_slice(self):
        assert config.DEFAULT_TIME_SLICE_NS == 10_000.0

    def test_dispatcher_cap(self):
        assert config.HOST_DISPATCHER_CAP_RPS == 5e6

    def test_host_dispatcher_op_implies_5m_cap(self):
        """Three ops per request at the configured op cost must land
        near the published 5 M RPS ceiling."""
        costs = config.HostCosts()
        per_request = 3 * costs.dispatcher_op_ns
        implied_cap = 1e9 / per_request
        assert implied_cap == pytest.approx(5e6, rel=0.05)

    def test_arm_tx_implies_offload_plateau(self):
        """The packet-TX core is the binding stage at ~1.5 M RPS
        (Figure 3's 16-worker plateau / Figure 6's bottleneck)."""
        costs = config.ArmCosts()
        cap = 1e9 / costs.packet_tx_ns
        assert 1.3e6 < cap < 1.7e6


class TestHostCosts:
    def test_timer_cost_properties(self):
        costs = config.HostCosts()
        assert costs.timer_arm_dune_ns == pytest.approx(40 / 2.3)
        assert costs.timer_arm_linux_ns == pytest.approx(610 / 2.3)
        assert costs.timer_fire_dune_ns == pytest.approx(1272 / 2.3)
        assert costs.timer_fire_linux_ns == pytest.approx(4193 / 2.3)


class TestValidation:
    def test_host_machine_validation(self):
        with pytest.raises(ConfigError):
            config.HostMachineConfig(sockets=0)
        with pytest.raises(ConfigError):
            config.HostMachineConfig(threads_per_core=0)

    def test_host_machine_thread_count(self):
        machine = config.HostMachineConfig()
        assert machine.total_threads == 48  # 2 x 12 x 2

    def test_stingray_validation(self):
        with pytest.raises(ConfigError):
            config.StingrayConfig(arm_cores=0)
        with pytest.raises(ConfigError):
            config.StingrayConfig(one_way_latency_ns=-1.0)

    def test_preemption_validation(self):
        with pytest.raises(ConfigError):
            config.PreemptionConfig(time_slice_ns=0.0)
        with pytest.raises(ConfigError):
            config.PreemptionConfig(mechanism="telepathy")
        assert not config.PreemptionConfig(time_slice_ns=None).enabled
        assert config.PreemptionConfig().enabled

    def test_shinjuku_validation(self):
        with pytest.raises(ConfigError):
            config.ShinjukuConfig(workers=0)

    def test_offload_validation(self):
        with pytest.raises(ConfigError):
            config.ShinjukuOffloadConfig(workers=0)
        with pytest.raises(ConfigError):
            config.ShinjukuOffloadConfig(outstanding_per_worker=0)


class TestReplace:
    def test_replace_changes_field(self):
        base = config.ShinjukuConfig(workers=3)
        changed = config.replace(base, workers=15)
        assert changed.workers == 15
        assert base.workers == 3

    def test_replace_unknown_field(self):
        with pytest.raises(ConfigError):
            config.replace(config.ShinjukuConfig(), frobnicate=1)


class TestIdealNic:
    def test_ideal_defaults(self):
        ideal = config.IdealNicConfig()
        assert ideal.one_way_latency_ns == 300.0
        assert ideal.costs.packet_tx_ns == 20.0


def _config_classes():
    """Every dataclass in ``repro.config`` plus each system's config."""
    from repro.systems import registry
    classes = {cls for cls in vars(config).values()
               if dataclasses.is_dataclass(cls) and isinstance(cls, type)
               and cls.__module__ == config.__name__}
    classes.update(entry.config_cls for entry in registry.list_systems()
                   if entry.config_cls is not None)
    return sorted(classes, key=lambda cls: cls.__qualname__)


def _attribute_loads():
    """Every ``x.name`` read in ``src/repro``, outside ``config.py``."""
    package = Path(config.__file__).parent
    names = set()
    for path in package.rglob("*.py"):
        if path == Path(config.__file__):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.fixture(scope="module")
def attribute_loads():
    return _attribute_loads()


class TestEveryFieldIsRead:
    """A config field nothing reads is a knob that turns nothing."""

    @pytest.mark.parametrize("cls", _config_classes(),
                             ids=lambda cls: cls.__qualname__)
    def test_every_config_field_is_read_outside_config(
            self, cls, attribute_loads):
        unread = [f"{cls.__qualname__}.{f.name}"
                  for f in dataclasses.fields(cls)
                  if f.name not in attribute_loads]
        assert unread == []
