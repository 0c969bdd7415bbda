"""Metric scopes and the mergeable-collector protocol.

A :class:`MetricScope` names one node of the measurement tree a run
builds as it executes: the root scope is the run itself, systems hang a
host scope beneath it, and worker (or, later, tenant) scopes hang
beneath the host.  Scopes are pure identity — the samples live in the
:class:`~repro.metrics.collector.MetricsCollector` bound to each node —
so splitting a run across shards and merging the shards back is a data
operation, not a bookkeeping one.

:class:`MergeableCollector` is the protocol that makes the splitting
safe: any collector that implements it guarantees that merging two
disjoint halves of a run is indistinguishable from having recorded the
whole run into one collector (``merge(a, b)`` ≡ combined, order- and
partition-insensitive).  The property suite in
``tests/property/test_merge_properties.py`` holds the two concrete
implementations (latency reservoirs and full collectors) to
associativity, commutativity, and the merge-≡-monolithic equivalence
on random splits.
"""

from __future__ import annotations

from typing import Iterator, Optional, Protocol, Tuple, TypeVar, runtime_checkable

from repro.errors import ExperimentError

#: Separator between scope names in a path ("run/host0/worker3").
SCOPE_SEP = "/"

C = TypeVar("C", bound="MergeableCollector")


@runtime_checkable
class MergeableCollector(Protocol):
    """Anything whose measurements can be split and recombined.

    Implementations must make ``merge_from`` a multiset union of the
    recorded observations: for any partition of a run's events across
    collectors ``a`` and ``b``, ``a.merge_from(b)`` must leave ``a``
    observationally identical to a single collector that recorded every
    event itself — bit-identical summaries, not merely close ones.
    That holds only for statistics that are functions of the observation
    multiset (counts, exact percentiles, exactly rounded sums), which is
    why the concrete implementations derive everything they report from
    sorted views and :func:`math.fsum`.
    """

    def merge_from(self, other: "MergeableCollector") -> None:
        """Fold *other*'s observations into this collector (in place)."""
        ...

    def merged(self: C, other: C) -> C:
        """A new collector equivalent to recording both inputs' events."""
        ...


def check_mergeable(kind: str, ours: object, theirs: object) -> None:
    """Raise unless two collectors' structural parameters match.

    Merging is only defined over collectors measuring the same thing
    the same way (equal bucket widths, equal warmups); a mismatch is a
    caller bug, not a degenerate merge.
    """
    if ours != theirs:
        raise ExperimentError(
            f"cannot merge collectors with different {kind}: "
            f"{ours!r} != {theirs!r}")


class MetricScope:
    """One named node of the run -> host -> worker measurement tree.

    Purely hierarchical identity: a name, a parent, and the derived
    path.  Tenant scoping needs nothing more than another level of
    names — a scope does not know or care what kind of entity it
    labels.
    """

    __slots__ = ("name", "parent")

    def __init__(self, name: str, parent: Optional["MetricScope"] = None):
        if not name or SCOPE_SEP in name:
            raise ExperimentError(
                f"scope names must be non-empty and {SCOPE_SEP!r}-free: "
                f"{name!r}")
        self.name = name
        self.parent = parent

    def child(self, name: str) -> "MetricScope":
        """A new scope one level beneath this one."""
        return MetricScope(name, parent=self)

    @property
    def path(self) -> str:
        """The full ``root/.../name`` path of this scope."""
        return SCOPE_SEP.join(scope.name for scope in self.lineage())

    @property
    def depth(self) -> int:
        """Levels beneath the root (the root itself is depth 0)."""
        return sum(1 for _ in self.lineage()) - 1

    def lineage(self) -> Tuple["MetricScope", ...]:
        """Root-first chain of scopes ending at this one."""
        chain = []
        scope: Optional[MetricScope] = self
        while scope is not None:
            chain.append(scope)
            scope = scope.parent
        return tuple(reversed(chain))

    def __iter__(self) -> Iterator["MetricScope"]:
        return iter(self.lineage())

    def __repr__(self) -> str:
        return f"<MetricScope {self.path}>"
