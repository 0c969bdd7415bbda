"""Unit tests for the determinism lint engine and every rule.

Each rule gets a positive fixture (must flag), a negative fixture
(must stay silent), and a suppression fixture (flag silenced by
``# repro: allow[rule-id]``).  Engine-level tests cover the baseline
file, fingerprint stability, path walking, and the CLI subcommand.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import (
    Baseline,
    lint_paths,
    lint_source,
    lint_text,
    parse_suppressions,
)
from repro.analysis.rules import ALL_RULES, Severity
from repro.cli import main
from repro.errors import AnalysisError


def rule_ids(source: str) -> list:
    """The rule ids flagged in *source*, pre-suppression."""
    return [f.rule_id for f in lint_source(textwrap.dedent(source))]


def surviving_ids(source: str) -> list:
    """The rule ids surviving inline suppression in *source*."""
    return [f.rule_id
            for f in lint_text(textwrap.dedent(source)).findings]


class TestUnregisteredRandom:
    def test_module_level_call_flagged(self):
        assert "unregistered-random" in rule_ids("""
            import random
            x = random.random()
        """)

    def test_bare_random_constructor_flagged(self):
        findings = lint_source("import random\nr = random.Random(4)\n")
        assert [f.rule_id for f in findings] == ["unregistered-random"]
        assert "RngRegistry" in findings[0].message

    def test_numpy_global_flagged(self):
        assert "unregistered-random" in rule_ids("""
            import numpy as np
            x = np.random.uniform()
        """)

    def test_from_import_of_global_function_flagged(self):
        assert "unregistered-random" in rule_ids(
            "from random import randint\n")

    def test_named_stream_draw_not_flagged(self):
        assert rule_ids("""
            def sample(rngs):
                return rngs.stream("arrivals").random()
        """) == []

    def test_random_class_annotation_not_flagged(self):
        assert rule_ids("""
            import random
            def pick(rng: random.Random) -> float:
                return rng.random()
        """) == []

    def test_from_import_of_random_class_not_flagged(self):
        assert rule_ids("from random import Random\n") == []

    def test_inline_suppression(self):
        assert surviving_ids("""
            import random
            r = random.Random(1)  # repro: allow[unregistered-random]
        """) == []


class TestWallClock:
    def test_time_time_flagged(self):
        assert "wall-clock" in rule_ids(
            "import time\nt = time.time()\n")

    def test_perf_counter_flagged(self):
        assert "wall-clock" in rule_ids(
            "import time\nt = time.perf_counter()\n")

    def test_datetime_now_flagged(self):
        assert "wall-clock" in rule_ids("""
            import datetime
            stamp = datetime.datetime.now()
        """)

    def test_os_urandom_flagged(self):
        assert "wall-clock" in rule_ids(
            "import os\nsalt = os.urandom(8)\n")

    def test_sim_now_not_flagged(self):
        assert rule_ids("""
            def measure(sim):
                return sim.now
        """) == []

    def test_inline_suppression(self):
        assert surviving_ids("""
            import time
            t = time.perf_counter()  # repro: allow[wall-clock]
        """) == []


class TestUnorderedIteration:
    def test_set_call_feeding_schedule_flagged(self):
        assert "unordered-iteration" in rule_ids("""
            def kick(sim, events):
                for ev in set(events):
                    sim._schedule(ev)
        """)

    def test_set_call_feeding_kernel_push_flagged(self):
        """``Simulator._push`` is the one schedule primitive."""
        assert "unordered-iteration" in rule_ids("""
            def kick(sim, cells):
                for cell in set(cells):
                    sim._push(sim.now, cell)
        """)

    def test_set_literal_feeding_enqueue_flagged(self):
        assert "unordered-iteration" in rule_ids("""
            def fill(queue, a, b):
                for req in {a, b}:
                    queue.enqueue(req)
        """)

    def test_dict_values_feeding_schedule_flagged(self):
        assert "unordered-iteration" in rule_ids("""
            def kick(sim, pending):
                for ev in pending.values():
                    sim._schedule(ev)
        """)

    def test_sorted_wrapper_not_flagged(self):
        assert rule_ids("""
            def kick(sim, events):
                for ev in sorted(set(events), key=lambda e: e.label):
                    sim._schedule(ev)
        """) == []

    def test_list_iteration_not_flagged(self):
        assert rule_ids("""
            def kick(sim, events):
                for ev in events:
                    sim._schedule(ev)
        """) == []

    def test_set_loop_without_scheduling_not_flagged(self):
        assert rule_ids("""
            def tally(items):
                total = 0
                for item in set(items):
                    total += item
                return total
        """) == []

    def test_inline_suppression(self):
        assert surviving_ids("""
            def kick(sim, events):
                for ev in set(events):  # repro: allow[unordered-iteration]
                    sim._schedule(ev)
        """) == []


class TestFloatTimeEq:
    def test_eq_on_ns_suffixed_name_flagged(self):
        findings = lint_source("done = arrival_ns == completion_ns\n")
        assert [f.rule_id for f in findings] == ["float-time-eq"]
        assert findings[0].severity is Severity.WARNING

    def test_neq_on_now_flagged(self):
        assert "float-time-eq" in rule_ids("""
            def stale(sim, when):
                return sim.now != when
        """)

    def test_ordering_comparison_not_flagged(self):
        assert rule_ids("""
            def before(a_ns, b_ns):
                return a_ns <= b_ns
        """) == []

    def test_non_time_names_not_flagged(self):
        assert rule_ids("ok = count == total\n") == []

    def test_string_constant_comparison_not_flagged(self):
        assert rule_ids('named = label_time == "warmup"\n') == []

    def test_inline_suppression(self):
        assert surviving_ids(
            "hit = slot_ns == 0.0  # repro: allow[float-time-eq]\n") == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        assert "mutable-default" in rule_ids("""
            def accumulate(x, acc=[]):
                acc.append(x)
                return acc
        """)

    def test_dict_and_constructor_defaults_flagged(self):
        ids = rule_ids("""
            def index(x, table={}, bag=list()):
                table[x] = bag
        """)
        assert ids.count("mutable-default") == 2

    def test_keyword_only_default_flagged(self):
        assert "mutable-default" in rule_ids("""
            def f(*, slots=set()):
                return slots
        """)

    def test_none_default_not_flagged(self):
        assert rule_ids("""
            def accumulate(x, acc=None):
                acc = [] if acc is None else acc
                return acc
        """) == []

    def test_immutable_defaults_not_flagged(self):
        assert rule_ids("""
            def f(a=0, b=1.5, c="x", d=(1, 2), e=frozenset()):
                return a
        """) == []

    def test_inline_suppression(self):
        assert surviving_ids("""
            def f(acc=[]):  # repro: allow[mutable-default]
                return acc
        """) == []


class TestHashSeed:
    def test_hash_call_flagged(self):
        assert "hash-seed" in rule_ids("""
            def derive(name):
                return hash(name) & 0xFFFF
        """)

    def test_hash_inside_dunder_hash_not_flagged(self):
        assert rule_ids("""
            class Addr:
                def __hash__(self):
                    return hash((Addr, 1))
        """) == []

    def test_blake2b_derivation_not_flagged(self):
        assert rule_ids("""
            import hashlib
            def derive(name):
                return hashlib.blake2b(name, digest_size=8).digest()
        """) == []

    def test_inline_suppression(self):
        assert surviving_ids(
            "key = hash('x')  # repro: allow[hash-seed]\n") == []


class TestEngine:
    def test_syntax_error_becomes_parse_error_finding(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule_id for f in findings] == ["parse-error"]
        assert findings[0].severity is Severity.ERROR

    def test_wildcard_suppression(self):
        assert surviving_ids("""
            import time
            t = time.time()  # repro: allow[*]
        """) == []

    def test_suppression_only_covers_its_line(self):
        result = lint_text(textwrap.dedent("""
            import time
            a = time.time()  # repro: allow[wall-clock]
            b = time.time()
        """))
        assert len(result.findings) == 1
        assert result.inline_suppressed == 1

    def test_suppression_of_other_rule_does_not_hide(self):
        assert surviving_ids("""
            import time
            t = time.time()  # repro: allow[mutable-default]
        """) == ["wall-clock"]

    def test_parse_suppressions_lists_and_wildcard(self):
        allowed = parse_suppressions([
            "x = 1",
            "y = 2  # repro: allow[wall-clock, hash-seed]",
            "z = 3  # repro: allow[*]",
        ])
        assert allowed == {2: {"wall-clock", "hash-seed"},
                           3: {"*"}}

    def test_every_rule_has_id_summary_hint(self):
        for rule in ALL_RULES:
            assert rule.rule_id
            assert rule.summary
            assert rule.hint

    def test_rule_ids_unique(self):
        ids = [rule.rule_id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))

    def test_fingerprint_ignores_line_number(self):
        a = lint_source("import time\nt = time.time()\n", "mod.py")
        b = lint_source("import time\n\n\nt = time.time()\n", "mod.py")
        assert a[0].fingerprint == b[0].fingerprint
        assert a[0].line != b[0].line

    def test_fingerprint_distinguishes_paths(self):
        a = lint_source("import time\nt = time.time()\n", "a.py")
        b = lint_source("import time\nt = time.time()\n", "b.py")
        assert a[0].fingerprint != b[0].fingerprint


class TestSimTimeArith:
    def test_accumulating_an_instant_flagged(self):
        assert "sim-time-arith" in rule_ids("""
            def produce(self, gap):
                self.now += gap
        """)

    def test_subtracting_from_deadline_flagged(self):
        assert "sim-time-arith" in rule_ids("""
            def shrink(self, slack):
                self.next_deadline -= slack
        """)

    def test_duration_counters_not_flagged(self):
        """busy_ns/wait_ns are durations, not instants: summing them is
        the intended accounting, not a private clock."""
        assert rule_ids("""
            def account(self, span):
                self.busy_ns += span
                self.wait_ns += span
        """) == []

    def test_assignment_from_schedule_not_flagged(self):
        assert rule_ids("""
            def observe(self, sim):
                self.deadline = sim.now + 100.0
        """) == []

    def test_engine_modules_sanctioned(self):
        source = "def advance(self, gap):\n    self.now += gap\n"
        assert lint_source(source, "repro/sim/engine.py") == []

    def test_inline_allow_suppresses(self):
        assert surviving_ids("""
            def record(self, gap):
                self.now += gap  # repro: allow[sim-time-arith]
        """) == []


class TestBaseline:
    SOURCE = "import time\nt = time.time()\n"

    def test_baseline_suppresses_matching_finding(self):
        findings = lint_source(self.SOURCE, "mod.py")
        baseline = Baseline.from_findings(findings)
        result = lint_text(self.SOURCE, "mod.py", baseline=baseline)
        assert result.ok
        assert result.baseline_suppressed == 1

    def test_baseline_round_trips_through_disk(self, tmp_path):
        findings = lint_source(self.SOURCE, "mod.py")
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        assert loaded.fingerprints == {findings[0].fingerprint}

    def test_missing_baseline_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").fingerprints == set()

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(AnalysisError):
            Baseline.load(path)

    def test_unused_entries_reported(self, tmp_path):
        baseline = Baseline([{"fingerprint": "deadbeefdeadbeef"}])
        result = lint_text("x = 1\n", "mod.py", baseline=baseline)
        assert result.ok
        assert result.unused_baseline == {"deadbeefdeadbeef"}


class TestLintPaths:
    def test_walks_directories_and_relativizes(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "clean.py").write_text("x = 1\n")
        (pkg / "dirty.py").write_text("import time\nt = time.time()\n")
        result = lint_paths([pkg], root=tmp_path)
        assert result.files_checked == 2
        assert [f.path for f in result.findings] == ["pkg/dirty.py"]

    def test_rejects_non_python_path(self, tmp_path):
        other = tmp_path / "data.txt"
        other.write_text("hello")
        with pytest.raises(AnalysisError):
            lint_paths([other])


class TestLintCli:
    @staticmethod
    def _write_violation(tmp_path: Path) -> Path:
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        return bad

    def test_repo_lints_clean(self, capsys):
        """The shipped tree has zero unsuppressed findings."""
        package_dir = Path(repro.__file__).resolve().parent
        assert main(["lint", str(package_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_each_rule_fails_a_fixture(self, tmp_path, capsys):
        fixtures = {
            "unregistered-random": "import random\nx = random.random()\n",
            "wall-clock": "import time\nt = time.time()\n",
            "unordered-iteration": ("def f(sim, evs):\n"
                                    "    for e in set(evs):\n"
                                    "        sim._schedule(e)\n"),
            "float-time-eq": "same = a_ns == b_ns\n",
            "mutable-default": "def f(acc=[]):\n    return acc\n",
            "hash-seed": "key = hash('name')\n",
            "sim-time-arith": "now = 0.0\nnow += 1.5\n",
            # Only fires on modules under a faults/ path segment.
            "fault-stream": "u = rngs.stream('service').random()\n",
        }
        assert set(fixtures) == {rule.rule_id for rule in ALL_RULES}
        for rule_id, source in fixtures.items():
            if rule_id == "fault-stream":
                target = tmp_path / "faults" / "injector.py"
                target.parent.mkdir(exist_ok=True)
            else:
                target = tmp_path / f"{rule_id}.py"
            target.write_text(source)
            assert main(["lint", str(target)]) == 1, rule_id
            assert rule_id in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = self._write_violation(tmp_path)
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "wall-clock"
        assert payload["findings"][0]["fingerprint"]

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        bad = self._write_violation(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(bad), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        # The catalog is exactly the per-file rules: tie-break races
        # are the permutation fuzzer's ('repro race').
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("  ")]
        assert listed == [rule.rule_id for rule in ALL_RULES]

    def test_stale_baseline_fails_the_run(self, tmp_path, capsys):
        """Fixing a baselined finding must fail lint until the ledger
        is pruned — sanctioned-findings entries can never rot."""
        bad = self._write_violation(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(bad), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        bad.write_text("x = 1\n")  # the finding is fixed
        capsys.readouterr()
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "stale baseline" in out
        assert "--prune-baseline" in out

    def test_prune_baseline_drops_stale_entries(self, tmp_path, capsys):
        bad = self._write_violation(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(bad), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        bad.write_text("x = 1\n")
        capsys.readouterr()
        assert main(["lint", str(bad), "--baseline", str(baseline),
                     "--prune-baseline"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale entry" in out
        assert "clean" in out
        assert Baseline.load(baseline).fingerprints == set()
        # And the pruned ledger now passes a plain run.
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0

    def test_prune_keeps_live_entries(self, tmp_path, capsys):
        """Pruning removes only the stale fingerprints."""
        first = tmp_path / "first.py"
        second = tmp_path / "second.py"
        first.write_text("import time\nt = time.time()\n")
        second.write_text("key = hash('name')\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(first), str(second),
                     "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert len(Baseline.load(baseline).fingerprints) == 2
        second.write_text("x = 1\n")  # fix one of the two
        capsys.readouterr()
        assert main(["lint", str(first), str(second),
                     "--baseline", str(baseline),
                     "--prune-baseline"]) == 0
        remaining = Baseline.load(baseline).fingerprints
        assert len(remaining) == 1
        assert "1 baselined" in capsys.readouterr().out
