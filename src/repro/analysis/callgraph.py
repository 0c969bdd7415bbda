"""Interprocedural program model for the static race pass.

The race rules in :mod:`repro.analysis.racecheck` need more than one
file's AST: "these two handlers can run at the same instant and touch
the same state" is a property of the *program*, not a line.  This
module builds that whole-program view in one pass:

- every function and method (including nested closures handed to
  ``defer``), keyed by qualified name and indexed by simple name for
  call resolution;
- per function: the ``self.*`` attributes it reads and writes, the
  terminal names it calls, and every **schedule site** — a call that
  inserts something into the event schedule (``succeed``/``fail``
  triggers, ``defer``/``defer_at`` callback scheduling);
- per schedule site: a conservative **delay class** (provably zero,
  provably positive, or symbolic) and, for triggers, where the receiver
  event came from (freshly created, popped from a shared waiter queue,
  a parameter, ...).

Resolution is name-based with a same-class preference — deliberately
simple and conservative: the race rules only *report* when the model
proves a zero-delay simultaneity, so an unresolvable call can hide a
race (soundness is the fuzzer's job, see ``repro race``) but never
invent one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import AnalysisError

#: Delay classes for a schedule site.
DELAY_ZERO = "zero"
DELAY_POSITIVE = "positive"
DELAY_SYMBOLIC = "symbolic"

#: Receiver origins for a trigger site (where the event object that is
#: being succeeded/failed came from, within the enclosing function).
RECV_FRESH = "fresh"          # created here (sim.event(), Event(), timeout())
RECV_POPPED = "popped"        # drawn from a shared waiter container
RECV_ITERATED = "iterated"    # loop variable over some container
RECV_SELF = "self"            # self.succeed(...)
RECV_PARAM = "param"          # function parameter
RECV_ATTRIBUTE = "attribute"  # obj.attr.succeed(...)
RECV_UNKNOWN = "unknown"

#: Calls that trigger an existing event into the schedule.
_TRIGGER_CALLS = frozenset({"succeed", "fail"})
#: Calls that schedule a callback after a relative delay (arg 0).
_DELAY_CALLBACK_CALLS = frozenset({"defer"})
#: Calls that schedule a callback at an absolute time (arg 0).
_AT_CALLBACK_CALLS = frozenset({"defer_at"})
#: Calls whose result is an event drawn from a shared waiter queue.
_POP_CALLS = frozenset({"popleft", "pop", "popitem", "get_nowait"})
#: Calls whose result is a freshly created event (single-producer).
_FRESH_CALLS = frozenset({"event", "Event", "timeout", "Timeout",
                          "process", "Process"})


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def classify_delay(node: Optional[ast.AST]) -> str:
    """Conservative delay class of an expression (None = defaulted 0)."""
    if node is None:
        return DELAY_ZERO
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return classify_delay(node.operand)
    if (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)):
        return DELAY_ZERO if node.value == 0 else DELAY_POSITIVE
    return DELAY_SYMBOLIC


def _is_now_expr(node: ast.AST) -> bool:
    """Does *node* read the simulation clock (``*.now``)?"""
    return isinstance(node, ast.Attribute) and node.attr == "now"


@dataclass(frozen=True)
class ScheduleSite:
    """One call that inserts an entry into the event schedule."""

    kind: str               # "trigger" | "callback"
    call: str               # terminal callee name (succeed, defer, ...)
    delay: str              # DELAY_ZERO | DELAY_POSITIVE | DELAY_SYMBOLIC
    receiver: str           # RECV_* (triggers; RECV_UNKNOWN for callbacks)
    handler: Optional[str]  # terminal handler name (callbacks only)
    path: str
    line: int
    col: int
    function: str           # qualname of the enclosing function


@dataclass
class FunctionInfo:
    """One function/method and its schedule-relevant behavior."""

    qualname: str
    name: str
    class_name: Optional[str]
    path: str
    line: int
    writes: Set[str] = field(default_factory=set)
    reads: Set[str] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)
    sites: List[ScheduleSite] = field(default_factory=list)


class ProgramModel:
    """The whole-program index the race rules query."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: path -> source lines, for anchoring findings to text.
        self.sources: Dict[str, Tuple[str, ...]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, paths: Sequence[Union[str, Path]],
              root: Optional[Union[str, Path]] = None) -> "ProgramModel":
        """Model every ``.py`` file under *paths*.

        Paths are recorded relative to *root* (mirroring
        :func:`repro.analysis.lint.lint_paths`) so site paths match
        lint finding paths exactly.
        """
        from repro.analysis.lint import iter_python_files
        model = cls()
        root_path = Path(root) if root is not None else None
        for file_path in iter_python_files(paths):
            rel = file_path
            if root_path is not None:
                try:
                    rel = file_path.resolve().relative_to(root_path.resolve())
                except ValueError:
                    rel = file_path
            try:
                source = file_path.read_text(encoding="utf-8")
            except OSError as exc:
                raise AnalysisError(
                    f"cannot read {file_path}: {exc}") from exc
            model.add_module(source, rel.as_posix())
        return model

    def add_module(self, source: str, path: str) -> None:
        """Index one module's source (syntax errors are skipped: the
        lint engine reports them as ``parse-error`` separately)."""
        self.sources[path] = tuple(source.splitlines())
        try:
            module = ast.parse(source, filename=path)
        except SyntaxError:
            return
        self._walk_body(module.body, path, class_name=None, scope="")

    def _walk_body(self, body: Sequence[ast.stmt], path: str,
                   class_name: Optional[str], scope: str) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                prefix = f"{scope}{stmt.name}."
                self._walk_body(stmt.body, path, class_name=stmt.name,
                                scope=prefix)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(stmt, path, class_name, scope)

    def _collect_function(self, node, path: str,
                          class_name: Optional[str], scope: str) -> None:
        qualname = f"{scope}{node.name}"
        info = FunctionInfo(qualname=qualname, name=node.name,
                            class_name=class_name, path=path,
                            line=node.lineno)
        origins = _receiver_origins(node)
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute):
                if (isinstance(child.value, ast.Name)
                        and child.value.id == "self"):
                    if isinstance(child.ctx, ast.Load):
                        info.reads.add(child.attr)
                    else:
                        info.writes.add(child.attr)
            elif isinstance(child, ast.AugAssign):
                # self.x += y both reads and writes x; the Store
                # context above only recorded the write.
                target = child.target
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    info.reads.add(target.attr)
            elif isinstance(child, ast.Call):
                callee = _terminal(child.func)
                if callee is None:
                    continue
                info.calls.add(callee)
                site = _classify_call(child, callee, origins, path,
                                      qualname)
                if site is not None:
                    info.sites.append(site)
            elif (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and child is not node):
                # Nested closures (defer handlers) become functions in
                # their own right; their self.* accesses also stay in
                # the parent's sets (conservative, harmless).
                self._collect_function(child, path, class_name,
                                       f"{qualname}.")
        self.functions[qualname] = info
        self.by_name.setdefault(node.name, []).append(info)

    # -- queries -------------------------------------------------------------

    def resolve(self, caller: FunctionInfo,
                name: str) -> List[FunctionInfo]:
        """Functions *name* may refer to from *caller* (same-class
        methods preferred; empty when nothing matches)."""
        candidates = self.by_name.get(name, [])
        if caller.class_name is not None:
            same = [fn for fn in candidates
                    if fn.class_name == caller.class_name]
            if same:
                return same
        return candidates

    def reachable_accesses(self, fn: FunctionInfo,
                           depth: int = 4) -> Tuple[Set[str], Set[str]]:
        """``(reads, writes)`` of *fn* plus everything it can call,
        resolved by name to *depth* hops."""
        reads: Set[str] = set()
        writes: Set[str] = set()
        seen: Set[str] = set()
        frontier = [fn]
        for _ in range(depth + 1):
            if not frontier:
                break
            next_frontier: List[FunctionInfo] = []
            for current in frontier:
                if current.qualname in seen:
                    continue
                seen.add(current.qualname)
                reads.update(current.reads)
                writes.update(current.writes)
                for callee_name in current.calls:
                    for callee in self.resolve(current, callee_name):
                        if callee.qualname not in seen:
                            next_frontier.append(callee)
            frontier = next_frontier
        return reads, writes


def _receiver_origins(func_node) -> Dict[str, str]:
    """Map each local name to the origin class of the value bound to it
    (flow-insensitive: the last classifiable binding wins)."""
    origins: Dict[str, str] = {}
    args = func_node.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        origins[arg.arg] = RECV_PARAM
    if args.vararg is not None:
        origins[args.vararg.arg] = RECV_PARAM
    if args.kwarg is not None:
        origins[args.kwarg.arg] = RECV_PARAM
    for child in ast.walk(func_node):
        if isinstance(child, ast.Assign):
            if len(child.targets) != 1:
                continue
            target = child.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = child.value
            if isinstance(value, ast.Call):
                callee = _terminal(value.func)
                if callee in _POP_CALLS:
                    origins[target.id] = RECV_POPPED
                elif callee in _FRESH_CALLS:
                    origins[target.id] = RECV_FRESH
                else:
                    origins.setdefault(target.id, RECV_UNKNOWN)
            else:
                origins.setdefault(target.id, RECV_UNKNOWN)
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            if isinstance(child.target, ast.Name):
                origins[child.target.id] = RECV_ITERATED
    return origins


def _receiver_of(call: ast.Call, origins: Dict[str, str]) -> str:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return RECV_UNKNOWN
    value = func.value
    if isinstance(value, ast.Name):
        if value.id == "self":
            return RECV_SELF
        return origins.get(value.id, RECV_UNKNOWN)
    if isinstance(value, ast.Attribute):
        return RECV_ATTRIBUTE
    return RECV_UNKNOWN


def _argument(call: ast.Call, position: int,
              keyword: Optional[str] = None) -> Optional[ast.AST]:
    if keyword is not None:
        for kw in call.keywords:
            if kw.arg == keyword:
                return kw.value
    if len(call.args) > position:
        return call.args[position]
    return None


def _classify_call(call: ast.Call, callee: str,
                   origins: Dict[str, str], path: str,
                   function: str) -> Optional[ScheduleSite]:
    if callee in _TRIGGER_CALLS:
        # Event.succeed(value=None, delay=0.0) / fail(exc, delay=0.0).
        delay = classify_delay(_argument(call, 1, keyword="delay"))
        return ScheduleSite(
            kind="trigger", call=callee, delay=delay,
            receiver=_receiver_of(call, origins), handler=None,
            path=path, line=call.lineno, col=call.col_offset,
            function=function)
    if callee in _DELAY_CALLBACK_CALLS or callee in _AT_CALLBACK_CALLS:
        when = _argument(call, 0)
        if callee in _AT_CALLBACK_CALLS:
            # defer_at(when, fn): zero-delay iff when is the clock itself.
            delay = (DELAY_ZERO if when is not None and _is_now_expr(when)
                     else DELAY_SYMBOLIC)
        else:
            delay = classify_delay(when)
        handler_node = _argument(call, 1)
        handler = (_terminal(handler_node)
                   if handler_node is not None else None)
        return ScheduleSite(
            kind="callback", call=callee, delay=delay,
            receiver=RECV_UNKNOWN, handler=handler,
            path=path, line=call.lineno, col=call.col_offset,
            function=function)
    return None
