"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main

#: Every command that sweeps points, with the arguments it requires.
SWEEP_COMMANDS = [
    ["fig2"], ["fig3"], ["fig4"], ["fig5"], ["fig6"], ["all"],
    ["run", "--system", "rpcvalet"], ["bench", "fig2"],
]
SWEEP_IDS = [argv[0] for argv in SWEEP_COMMANDS]


class TestCli:
    def test_list_shows_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "table-t1",
                     "all"):
            assert name in out

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
                                      ["--supervised"]],
                             ids=["fastpath", "supervised"])
    def test_removed_executor_flags_are_rejected(self, capsys, argv, flag):
        """Every point is an exact simulation under one executor: the
        approximate mode and the executor selector are gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + flag)
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err
