"""What a run imports: no third-party package and no lint tool chain.

Every ``repro`` launch pays for its import graph before the first
event.  numpy is not a runtime dependency (the reservoir's pairwise
mean reproduces numpy's order in plain Python), and the lint modules
belong to ``repro lint`` / ``repro race`` alone; these guards keep
either from creeping back into a run's or the CLI's imports.  An
in-process (``jobs=1``) sweep never forks a worker, so it must not load
``multiprocessing`` either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Modules a run must never load.
FORBIDDEN = (
    "numpy",
    "repro.analysis.lint",
    "repro.analysis.rules",
    "repro.analysis.callgraph",
    "repro.analysis.report",
)

PROBE = (
    "import json, sys\n"
    "import {modules}\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)


#: One tiny point through a ``jobs=1`` executor, the CLI's default.
SWEEP_PROBE = """\
import json, sys
from repro.experiments.executor import ConfiguredFactory, SweepExecutor
from repro.experiments.harness import RunConfig, load_sweep
from repro.units import ms, us
from repro.workload.distributions import Fixed
load_sweep(ConfiguredFactory.by_name("shinjuku-offload"), [1e5],
           Fixed(us(1.0)), RunConfig(horizon_ns=ms(0.2), warmup_ns=ms(0.05)),
           executor=SweepExecutor(jobs=1))
print(json.dumps(sorted(sys.modules)))
"""


def _run_probe(probe):
    """Every module a fresh interpreter holds after running *probe*."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def _loaded(*modules):
    """Every module a fresh interpreter holds after importing *modules*."""
    return _run_probe(PROBE.format(modules=", ".join(modules)))


def test_run_imports_no_numpy_and_no_lint_chain():
    loaded = _loaded("repro", "repro.experiments.executor")
    assert "repro.experiments.executor" in loaded
    assert [name for name in FORBIDDEN if name in loaded] == []


def test_cli_start_up_imports_no_numpy_and_no_lint_chain():
    """``repro fig*`` launches through the CLI; only ``repro lint`` and
    ``repro race`` load the lint chain, inside their commands."""
    loaded = _loaded("repro.cli")
    assert "repro.cli" in loaded
    assert [name for name in FORBIDDEN if name in loaded] == []


def test_in_process_sweep_loads_no_multiprocessing():
    """Forking, worker pipes and ``connection.wait`` belong to the
    worker path; a ``jobs=1`` sweep runs its points here and never
    reaches them."""
    loaded = _run_probe(SWEEP_PROBE)
    assert "repro.experiments.supervise" in loaded
    assert sorted(name for name in loaded
                  if name.split(".")[0] == "multiprocessing") == []
