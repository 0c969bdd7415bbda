"""Structured execution tracing.

A :class:`Tracer` collects timestamped records emitted by components.
Components take ``tracer=None`` by default (tracing off, one attribute
check per emit site); tests pass a tracer to validate event orderings —
e.g. that a request walks the five numbered steps of the paper's
Figure 1 in order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class TraceRecord:
    """One trace entry: (time, component, action, fields)."""

    __slots__ = ("time", "component", "action", "fields")

    def __init__(self, time: float, component: str, action: str,
                 fields: Dict[str, Any]):
        self.time = time
        self.component = component
        self.action = action
        self.fields = fields

    def __repr__(self) -> str:
        kv = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.time:12.1f}ns] {self.component}.{self.action} {kv}"


class Tracer:
    """Collects :class:`TraceRecord`s stamped by *sim*'s clock."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._records: List[TraceRecord] = []

    def emit(self, component: str, action: str, **fields: Any) -> None:
        """Record one event."""
        self._records.append(
            TraceRecord(self.sim.now, component, action, fields))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def records(self, component: Optional[str] = None,
                action: Optional[str] = None, **field_filters: Any
                ) -> List[TraceRecord]:
        """Filter records by component, action, and exact field values."""
        out = []
        for rec in self._records:
            if component is not None and rec.component != component:
                continue
            if action is not None and rec.action != action:
                continue
            if any(rec.fields.get(k) != v for k, v in field_filters.items()):
                continue
            out.append(rec)
        return out

    def actions(self, **kwargs: Any) -> List[str]:
        """Just the action names of matching records, in time order."""
        return [rec.action for rec in self.records(**kwargs)]

    def clear(self) -> None:
        """Drop all recorded entries."""
        self._records.clear()

    def dump(self) -> str:
        """Human-readable multi-line rendering of the whole trace."""
        return "\n".join(repr(rec) for rec in self._records)

