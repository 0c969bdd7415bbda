"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.experiments.progress import (
    CACHE_HIT,
    COMPLETED,
    SWEEP_DONE,
    ProgressLedger,
)

#: Every command that sweeps points, with the arguments it requires.
SWEEP_COMMANDS = [
    ["fig2"], ["fig3"], ["fig4"], ["fig5"], ["fig6"], ["all"],
    ["run", "--system", "rpcvalet"],
]
SWEEP_IDS = [argv[0] for argv in SWEEP_COMMANDS]


class TestCli:
    def test_list_shows_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "table-t1",
                     "all"):
            assert name in out
        assert not any(line.split()[:1] == ["bench"]
                       for line in out.splitlines())

    def test_bench_command_is_gone(self, capsys):
        """perfbench/ is the one benchmark; argparse rejects the old
        recorder's subcommand as an unknown choice."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "fig2"])
        assert excinfo.value.code == 2
        assert "bench" in capsys.readouterr().err

    def test_no_command_defaults_to_list(self, capsys):
        assert main([]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_figure_accepts_scale_and_seed(self, capsys):
        # A tiny figure run through the real code path.
        assert main(["fig4", "--scale", "0.15", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "Shinjuku-Offload" in out
        assert "regenerated in" in out

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4", "--jobs", jobs, "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", SWEEP_COMMANDS, ids=SWEEP_IDS)
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_every_sweep_command_rejects_jobs_below_one(self, capsys,
                                                        argv, jobs):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--jobs", jobs])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", SWEEP_COMMANDS, ids=SWEEP_IDS)
    @pytest.mark.parametrize("flag", [["--fastpath", "auto"],
                                      ["--supervised"], ["--resume"]],
                             ids=["fastpath", "supervised", "resume"])
    def test_removed_executor_flags_are_rejected(self, capsys, argv, flag):
        """Every point is an exact simulation under one executor: the
        approximate mode and the executor selector are gone, and a sweep
        resumes by re-running with the same --cache-dir."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + flag)
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err


def _figure_lines(out):
    """The printed figure alone: the ``[progress ...]``, ``[executor:
    ...]`` and ``[... regenerated in ...]`` lines vary between runs."""
    return [line for line in out.splitlines() if not line.startswith("[")]


def _executor_stats(out):
    """The ``[executor: ...]`` fields, as ints keyed by name."""
    [line] = [line for line in out.splitlines()
              if line.startswith("[executor:")]
    fields = line.strip("[]").split()[1:]
    return {name: int(value)
            for name, value in (field.split("=") for field in fields)}


def _ledger_terminal_kinds(cache_dir):
    events = ProgressLedger.read_events(cache_dir / "progress.jsonl")
    assert events[-1].kind == SWEEP_DONE
    return {event.kind for event in events if event.terminal}


class TestCacheResume:
    """Re-running with the same --cache-dir resumes a sweep; the cache
    key covers the seed and the horizon, so a run with other settings
    over the same directory measures every point afresh."""

    @pytest.mark.parametrize("flag,value", [("--seed", "7"),
                                            ("--scale", "0.05")],
                             ids=["seed", "scale"])
    def test_another_run_over_the_cache_matches_a_fresh_run(
            self, tmp_path, capsys, flag, value):
        first = ["fig6", "--scale", "0.02", "--seed", "42"]
        other = list(first)
        other[other.index(flag) + 1] = value
        cached = ["--cache-dir", str(tmp_path), "--progress"]

        assert main(first + cached) == 0
        capsys.readouterr()
        assert main(other) == 0
        fresh = _figure_lines(capsys.readouterr().out)

        assert main(other + cached) == 0
        out = capsys.readouterr().out
        stats = _executor_stats(out)
        assert stats["run"] == stats["points"] and stats["cached"] == 0
        assert _figure_lines(out) == fresh
        assert _ledger_terminal_kinds(tmp_path) == {COMPLETED}

        assert main(other + cached) == 0
        out = capsys.readouterr().out
        stats = _executor_stats(out)
        assert stats["cached"] == stats["points"] and stats["run"] == 0
        assert _figure_lines(out) == fresh
        assert _ledger_terminal_kinds(tmp_path) == {CACHE_HIT}

    def test_resume_needs_no_ledger(self, tmp_path, capsys):
        """Without --progress no ledger is written, and a re-run over the
        same --cache-dir still serves every point from the cache."""
        argv = ["fig6", "--scale", "0.02", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert not (tmp_path / "progress.jsonl").exists()
        assert main(argv) == 0
        out = capsys.readouterr().out
        stats = _executor_stats(out)
        assert stats["cached"] == stats["points"] and stats["run"] == 0
        assert _figure_lines(out) == _figure_lines(first)
        assert not (tmp_path / "progress.jsonl").exists()
