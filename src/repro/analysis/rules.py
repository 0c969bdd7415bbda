"""Determinism lint rules (the static half of the reproducibility gate).

Every stochastic draw in this repro must flow through
:class:`~repro.sim.rng.RngRegistry` named streams, every notion of
"time" must come from :attr:`Simulator.now <repro.sim.engine.Simulator.now>`,
and every dispatch order must be derived from a deterministic container.
The parallel sweep executor and the content-addressed result cache
(``repro.experiments.executor``) are only sound under that contract —
one stray ``random.random()`` or wall-clock read silently invalidates
cached results and serial/parallel equivalence.

Each rule here has a stable id, a severity, a one-line summary, and a
fix-it hint.  Rules are pluggable: subclass :class:`Rule`, implement
:meth:`Rule.check`, and append an instance to :data:`ALL_RULES`.
Findings can be silenced inline with ``# repro: allow[rule-id]`` on the
flagged line, or via the checked-in baseline file (see
``repro.analysis.lint``).
"""

from __future__ import annotations

import ast
import enum
import hashlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple


class Severity(enum.Enum):
    """How bad an unsuppressed finding is.

    Both levels fail ``repro lint`` — warnings are hazards that need a
    human look (e.g. a float ``==`` that might be intentional), errors
    are near-certain determinism bugs.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class FileContext:
    """One file being linted: its path (relative to the lint root) and
    source lines, shared by every rule."""

    path: str
    source_lines: Tuple[str, ...] = field(default=())

    def line_text(self, lineno: int) -> str:
        """The stripped source text of 1-based *lineno* ('' off-range)."""
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1].strip()
        return ""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: Severity
    message: str
    hint: str
    path: str
    line: int
    col: int
    source_line: str

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching.

        Hashes (rule, path, whitespace-normalized source text) — not
        the line number — so unrelated edits that shift lines do not
        invalidate baseline entries.  Identical flagged text twice in
        one file shares a fingerprint and is baselined as one entry.
        """
        normalized = " ".join(self.source_line.split())
        payload = f"{self.rule_id}|{self.path}|{normalized}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        """``path:line:col: severity [rule-id] message`` plus the hint."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity.value} [{self.rule_id}] {self.message}\n"
                f"    | {self.source_line}\n"
                f"    = hint: {self.hint}")


class Rule:
    """Base class for one lint rule.

    Subclasses set the four class attributes and implement
    :meth:`check`; everything else (suppression, baselines, reporting)
    is shared machinery in ``repro.analysis.lint``.
    """

    #: Stable identifier used in ``allow[...]`` and baseline entries.
    rule_id: str = ""
    severity: Severity = Severity.ERROR
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""
    #: How to fix (or sanction) a finding.
    hint: str = ""

    def check(self, module: ast.Module,
              ctx: FileContext) -> Iterator[Finding]:
        """Yield every violation of this rule in *module*."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST,
                message: Optional[str] = None) -> Finding:
        """Build a :class:`Finding` anchored at *node*."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            message=message if message is not None else self.summary,
            hint=self.hint,
            path=ctx.path,
            line=lineno,
            col=col,
            source_line=ctx.line_text(lineno),
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """The dotted name of an attribute chain, e.g. ``time.perf_counter``.

    Returns None for anything that is not a pure Name/Attribute chain
    (calls, subscripts, literals).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class UnregisteredRandomRule(Rule):
    """Flag stochastic draws that bypass ``RngRegistry``.

    Module-level ``random.*`` calls share one process-global generator,
    so any reordering of draws anywhere perturbs every component; a
    bare ``random.Random()`` hides its seed from the experiment config.
    ``numpy.random`` module-level calls share the same defect.
    """

    rule_id = "unregistered-random"
    severity = Severity.ERROR
    summary = ("stochastic draw outside RngRegistry (module-level "
               "random.* or bare random.Random())")
    hint = ("draw from a named stream: rngs.stream('component-name'); "
            "construct raw random.Random only inside repro.sim.rng")

    def check(self, module: ast.Module,
              ctx: FileContext) -> Iterator[Finding]:
        """Yield module-level RNG calls and global-RNG imports."""
        for node in ast.walk(module):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if name == "random.Random":
                    yield self.finding(
                        ctx, node,
                        "bare random.Random() constructed outside "
                        "RngRegistry")
                elif name.startswith("random."):
                    yield self.finding(
                        ctx, node,
                        f"module-level {name}() draws from the shared "
                        "global generator")
                elif (name.startswith("numpy.random.")
                      or name.startswith("np.random.")):
                    yield self.finding(
                        ctx, node,
                        f"{name}() draws from numpy's shared global "
                        "generator")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    bad = [alias.name for alias in node.names
                           if alias.name != "Random"]
                    if bad:
                        yield self.finding(
                            ctx, node,
                            "importing module-level functions "
                            f"({', '.join(bad)}) from random binds the "
                            "shared global generator")


#: Wall-clock reads that must never appear in simulation code.
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
})


class WallClockRule(Rule):
    """Flag wall-clock, host-entropy, and UUID reads.

    Simulated time comes from ``Simulator.now``; anything read from the
    host clock or OS entropy pool differs between runs and machines,
    which breaks the bit-identical reproduction guarantee and poisons
    the result cache.
    """

    rule_id = "wall-clock"
    severity = Severity.ERROR
    summary = "wall-clock/host-entropy read in simulation code"
    hint = ("use sim.now for simulated time; operator-facing elapsed-"
            "time reporting may use time.perf_counter() behind an "
            "inline '# repro: allow[wall-clock]'")

    def check(self, module: ast.Module,
              ctx: FileContext) -> Iterator[Finding]:
        """Yield calls into the host clock / entropy surface."""
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _WALL_CLOCK_CALLS or name.startswith("secrets."):
                yield self.finding(
                    ctx, node,
                    f"{name}() reads host state that varies across "
                    "runs")


#: Call targets that feed the event schedule or a queue decision.
_SCHEDULING_CALLS = frozenset({
    "_push", "_schedule", "schedule", "enqueue", "dequeue", "try_dequeue",
    "succeed", "fail", "timeout", "process", "defer", "defer_at",
    "heappush", "push", "interrupt", "send",
})


def _is_unordered_iterable(node: ast.AST) -> Optional[str]:
    """Why *node* iterates in nondeterministic/hash order, or None.

    Flags set displays, ``set()``/``frozenset()`` constructions and
    set-typed method results; ``sorted(...)`` (or any other wrapper)
    around them restores a deterministic order and is not flagged.
    """
    if isinstance(node, ast.Set):
        return "a set display"
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return f"a {name}() constructor"
        terminal = _terminal_name(node.func)
        if terminal in ("intersection", "union", "difference",
                        "symmetric_difference"):
            return f"a set .{terminal}() result"
        if terminal == "values":
            return "dict.values() (ordered only by insertion history)"
        if terminal == "keys":
            return "dict.keys() (ordered only by insertion history)"
    return None


class UnorderedIterationRule(Rule):
    """Flag scheduling decisions driven by set/dict iteration order.

    Iterating a ``set`` visits elements in hash order — which for
    strings depends on ``PYTHONHASHSEED`` — so any ``_push()``,
    ``enqueue()`` or queue selection inside such a loop dispatches in a
    different order on a different run.  ``dict`` iteration is
    insertion-ordered but still encodes incidental history, so feeding
    it straight into the schedule is flagged too.
    """

    rule_id = "unordered-iteration"
    severity = Severity.ERROR
    summary = ("iteration over a set/dict view feeds the event "
               "schedule or a queue decision")
    hint = ("iterate a list, or wrap the container in sorted(...) with "
            "an explicit deterministic key before scheduling from it")

    def _body_schedules(self, body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    if _terminal_name(node.func) in _SCHEDULING_CALLS:
                        return True
        return False

    def check(self, module: ast.Module,
              ctx: FileContext) -> Iterator[Finding]:
        """Yield unordered-container loops whose body schedules."""
        for node in ast.walk(module):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                reason = _is_unordered_iterable(node.iter)
                if reason and self._body_schedules(node.body):
                    yield self.finding(
                        ctx, node,
                        f"loop over {reason} feeds the event schedule")
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    reason = _is_unordered_iterable(gen.iter)
                    if reason and self._body_schedules([ast.Expr(node.elt)]):
                        yield self.finding(
                            ctx, node,
                            f"comprehension over {reason} feeds the "
                            "event schedule")


#: Identifier shapes that carry simulated-time values.
_TIME_SUFFIXES = ("_ns", "_us", "_ms", "_time", "_deadline")
_TIME_NAMES = frozenset({"now", "when", "deadline", "horizon", "expiry"})


def _is_time_like(node: ast.AST) -> bool:
    """Heuristic: does *node* name a simulated-time value?"""
    name = _terminal_name(node)
    if name is None:
        return False
    return name in _TIME_NAMES or name.endswith(_TIME_SUFFIXES)


class FloatTimeEqRule(Rule):
    """Flag exact ``==``/``!=`` comparisons on simulated times.

    Simulated times are floats accumulated through arithmetic; two
    paths to "the same instant" can differ in the last ulp, so exact
    equality silently diverges between runs that accumulate in a
    different order (e.g. serial vs parallel sweeps).
    """

    rule_id = "float-time-eq"
    severity = Severity.WARNING
    summary = "exact float ==/!= comparison on a simulated time"
    hint = ("compare with an ordering (<=, >=) or an explicit "
            "tolerance (math.isclose / abs(a - b) < eps)")

    def check(self, module: ast.Module,
              ctx: FileContext) -> Iterator[Finding]:
        """Yield Eq/NotEq comparisons with a time-like operand."""
        for node in ast.walk(module):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (left, right)
                if not any(_is_time_like(operand) for operand in pair):
                    continue
                # String/None constants are identity checks, not
                # floating-point hazards.
                if any(isinstance(operand, ast.Constant)
                       and not isinstance(operand.value, (int, float))
                       for operand in pair):
                    continue
                yield self.finding(ctx, node)
                break


class MutableDefaultRule(Rule):
    """Flag mutable default argument values.

    A ``def f(x, acc=[])`` shares one list across every call — state
    leaks between runs of "independent" experiments, a classic
    determinism (and correctness) hazard.
    """

    rule_id = "mutable-default"
    severity = Severity.ERROR
    summary = "mutable default argument (shared across calls)"
    hint = "default to None and construct the container in the body"

    _MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "bytearray", "deque", "defaultdict",
        "OrderedDict", "Counter",
    })

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            return _terminal_name(node.func) in self._MUTABLE_CALLS
        return False

    def check(self, module: ast.Module,
              ctx: FileContext) -> Iterator[Finding]:
        """Yield function definitions with mutable defaults."""
        for node in ast.walk(module):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default in {node.name}() is shared "
                        "across calls")


class HashSeedRule(Rule):
    """Flag ``hash()`` calls outside ``__hash__`` implementations.

    ``hash()`` of a str/bytes depends on ``PYTHONHASHSEED`` and of an
    arbitrary object on its address, so seeds or cache keys derived
    from it differ across interpreter launches.  Implementing
    ``__hash__`` by delegating to ``hash()`` is the one sanctioned
    shape (those values never cross a process boundary).
    """

    rule_id = "hash-seed"
    severity = Severity.ERROR
    summary = "hash()-derived value (PYTHONHASHSEED/address dependent)"
    hint = ("derive stable identities with hashlib (see "
            "repro.sim.rng._derive_seed's BLAKE2b recipe)")

    def check(self, module: ast.Module,
              ctx: FileContext) -> Iterator[Finding]:
        """Yield hash() calls that are not inside a __hash__ method."""
        exempt_spans: List[Tuple[int, int]] = []
        for node in ast.walk(module):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "__hash__"):
                exempt_spans.append(
                    (node.lineno, node.end_lineno or node.lineno))
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                continue
            if any(lo <= node.lineno <= hi for lo, hi in exempt_spans):
                continue
            yield self.finding(ctx, node)


#: Identifier shapes that carry a simulated *instant* (a clock value,
#: not a duration): duration counters (``busy_ns``, ``wait_ns``) are
#: legitimately accumulated all over the tree, but a component keeping
#: its own clock by repeated float addition drifts from the kernel's
#: ``now`` by accumulated rounding.
_INSTANT_SUFFIXES = ("_time", "_deadline")


def _is_instant_like(node: ast.AST) -> bool:
    """Heuristic: does *node* name a simulated clock instant?"""
    name = _terminal_name(node)
    if name is None:
        return False
    return name in _TIME_NAMES or name.endswith(_INSTANT_SUFFIXES)


class SimTimeArithRule(Rule):
    """Flag cumulative float updates of a simulated instant outside the
    engine.

    ``self.now += dt`` keeps a private clock by summation; the kernel's
    clock advances by assignment from schedule entries, so the two
    accumulate rounding differently and drift apart — and the private
    clock's value depends on the *order* terms were added, which ties
    it to scheduling accidents.  Only the engine modules under
    ``repro/sim/`` are sanctioned to do time arithmetic; single-
    producer arrival generators that deliberately accumulate a local
    clock sanction themselves inline.
    """

    rule_id = "sim-time-arith"
    severity = Severity.WARNING
    summary = ("cumulative float arithmetic on a simulated instant "
               "outside the engine (private clock drift)")
    hint = ("derive instants from sim.now (or schedule entries) instead "
            "of accumulating them; a reviewed single-producer "
            "accumulator takes '# repro: allow[sim-time-arith]'")

    @staticmethod
    def _sanctioned(ctx: FileContext) -> bool:
        normalized = "/" + ctx.path.replace("\\", "/")
        return "/repro/sim/" in normalized or normalized.startswith("/sim/")

    def check(self, module: ast.Module,
              ctx: FileContext) -> Iterator[Finding]:
        """Yield +=/-= updates of instant-like names (non-engine files)."""
        if self._sanctioned(ctx):
            return
        for node in ast.walk(module):
            if not isinstance(node, ast.AugAssign):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            if _is_instant_like(node.target):
                name = _terminal_name(node.target)
                yield self.finding(
                    ctx, node,
                    f"cumulative update of simulated instant "
                    f"{name!r} outside repro/sim")


class FaultStreamRule(Rule):
    """Flag fault-injection RNG draws outside the ``faults.*`` streams.

    The fault injector's stochastic decisions (per-packet loss,
    feedback loss) must come from streams under the ``faults.``
    namespace so that a null plan — which never creates those streams —
    leaves every other component's draw sequence untouched.  A fault
    module drawing from, say, ``stream('service')`` would perturb the
    workload's RNG and break the fault-free bit-identity guarantee.
    Only files under a ``faults`` package are checked.
    """

    rule_id = "fault-stream"
    severity = Severity.ERROR
    summary = ("fault-injection code draws from an RNG stream outside "
               "the faults.* namespace")
    hint = ("name the stream under the fault namespace: "
            "rngs.stream('faults.<component>')")

    @staticmethod
    def _applies(ctx: FileContext) -> bool:
        normalized = ctx.path.replace("\\", "/")
        return "faults" in normalized.split("/")

    def check(self, module: ast.Module,
              ctx: FileContext) -> Iterator[Finding]:
        """Yield stream() calls with names outside ``faults.`` (fault
        modules only)."""
        if not self._applies(ctx):
            return
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            if _terminal_name(node.func) != "stream":
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                continue
            if not first.value.startswith("faults."):
                yield self.finding(
                    ctx, node,
                    f"fault module draws from stream({first.value!r}) "
                    "outside the faults.* namespace")


#: The active rule set, in reporting order.  ``repro lint`` runs every
#: rule here; tests iterate it to guarantee coverage per rule.
ALL_RULES: Tuple[Rule, ...] = (
    UnregisteredRandomRule(),
    WallClockRule(),
    UnorderedIterationRule(),
    FloatTimeEqRule(),
    MutableDefaultRule(),
    HashSeedRule(),
    SimTimeArithRule(),
    FaultStreamRule(),
)
