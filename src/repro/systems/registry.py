"""Name-keyed registry of every served system.

One composition path from the CLI down to the executor: a system class
registers itself (with its config dataclass and a one-line description)
via :func:`register_system`, and every consumer — the CLI's
``--system`` flag, :class:`~repro.experiments.executor.ConfiguredFactory`
by-name factories, figures, tables — resolves it
through :func:`build` / :func:`get` instead of importing the class and
hand-wiring its constructor.  Adding a tenth system is then a small
change: write the class, decorate it, and list its name and module in
:data:`SYSTEM_MODULES`.

Each system module registers its class when it is imported.  A lookup
by name imports only the module :data:`SYSTEM_MODULES` lists for it;
listing every system (or failing on an unknown name) imports them all,
so callers never have to care about registration order.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    TYPE_CHECKING,
    Type,
    TypeVar,
)

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.collector import MetricsCollector
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry
    from repro.systems.base import BaseSystem

S = TypeVar("S", bound="BaseSystem")


@dataclass(frozen=True)
class SystemEntry:
    """One registered system: class, config binding, and description."""

    name: str
    cls: Type["BaseSystem"]
    config_cls: Optional[Type]
    #: Zero-arg factory for the system's canonical default config.
    #: Usually ``config_cls`` itself; systems whose defaults are a
    #: derived preset (the ideal NIC) register an explicit factory.
    default_config_factory: Optional[Callable[[], Any]]
    description: str

    def default_config(self) -> Any:
        """A fresh instance of this system's default configuration."""
        if self.default_config_factory is not None:
            return self.default_config_factory()
        if self.config_cls is not None:
            return self.config_cls()
        return None


_REGISTRY: Dict[str, SystemEntry] = {}

#: Every served system's name and the module that registers it.
SYSTEM_MODULES: Dict[str, str] = {
    "shinjuku": "repro.systems.shinjuku",
    "shinjuku-offload": "repro.systems.shinjuku_offload",
    "rss": "repro.systems.rss_system",
    "workstealing": "repro.systems.workstealing",
    "mica": "repro.systems.mica_system",
    "rpcvalet": "repro.systems.rpcvalet",
    "ideal-offload": "repro.systems.ideal_offload",
    "sharded-shinjuku": "repro.systems.sharded_shinjuku",
    "elastic-rss": "repro.systems.elastic_rss",
}


def register_system(name: str, config: Optional[Type] = None,
                    default_config: Optional[Callable[[], Any]] = None,
                    description: str = "") -> Callable[[Type[S]], Type[S]]:
    """Class decorator binding a served system to the registry.

    ``name`` is the public lookup key (it must match the class's
    ``name`` attribute so traces, metrics labels, and registry lookups
    agree); ``config`` is the dataclass :func:`build` validates
    explicit configs against; ``default_config`` overrides the default
    construction for systems whose canonical config is a preset rather
    than ``config()``.
    """
    def decorate(cls: Type[S]) -> Type[S]:
        if name in _REGISTRY:
            raise ConfigError(
                f"system {name!r} registered twice "
                f"({_REGISTRY[name].cls.__qualname__} and {cls.__qualname__})")
        if getattr(cls, "name", None) != name:
            raise ConfigError(
                f"registry name {name!r} does not match "
                f"{cls.__qualname__}.name == {getattr(cls, 'name', None)!r}")
        _REGISTRY[name] = SystemEntry(
            name=name, cls=cls, config_cls=config,
            default_config_factory=default_config,
            description=description)
        return cls
    return decorate


def get(name: str) -> SystemEntry:
    """The registry entry for *name*, importing only its module;
    unknown names list what exists."""
    module = SYSTEM_MODULES.get(name)
    if module is not None:
        importlib.import_module(module)
        return _REGISTRY[name]
    known = ", ".join(entry.name for entry in list_systems())
    raise ConfigError(
        f"unknown system {name!r}; registered systems: {known}")


def list_systems() -> List[SystemEntry]:
    """Every registered system, sorted by name."""
    for module in SYSTEM_MODULES.values():
        importlib.import_module(module)
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def default_config(name: str) -> Any:
    """A fresh default config for *name* (None for config-less systems)."""
    return get(name).default_config()


def build(name: str, sim: "Simulator", rngs: "RngRegistry",
          metrics: "MetricsCollector", config: Any = None,
          **kwargs: Any) -> "BaseSystem":
    """Construct the system registered under *name*.

    With ``config=None`` the class's own default applies (which for
    preset-configured systems like the ideal NIC is the preset, not
    ``config_cls()``).  An explicit config must be an instance of the
    registered config class — a Shinjuku config can never silently
    drive an RSS dataplane.  Extra keyword arguments (``policy``,
    ``tracer``, ``client_wire_ns``, ...) pass through to the
    constructor.
    """
    entry = get(name)
    if config is None:
        return entry.cls(sim, rngs, metrics, **kwargs)
    if entry.config_cls is None:
        raise ConfigError(
            f"system {name!r} takes no config, got {type(config).__name__}")
    if not isinstance(config, entry.config_cls):
        raise ConfigError(
            f"system {name!r} expects {entry.config_cls.__name__}, "
            f"got {type(config).__name__}")
    return entry.cls(sim, rngs, metrics, config=config, **kwargs)
