"""What a run imports: no third-party package and no lint tool chain.

Every ``repro`` launch pays for its import graph before the first
event.  numpy is not a runtime dependency (the reservoir's pairwise
mean reproduces numpy's order in plain Python), and the lint modules
belong to ``repro lint`` / ``repro race`` alone; these guards keep
either from creeping back into a run's or the CLI's imports.  An
in-process (``jobs=1``) sweep never forks a worker, so it must not load
``multiprocessing`` either.

Packages do not re-export and ``repro``'s top-level names resolve on
first use, so ``import repro`` loads nothing else; building an
executor, cache or ledger loads no simulation model (the first point
imports it); the fault injector and the sanitizer load only for the
points that use them; and the CLI's informational commands load no
model at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


#: Packages whose modules are the simulation model a point runs.
MODEL_PACKAGES = ("repro.sim", "repro.hw", "repro.net", "repro.core",
                  "repro.runtime")


def _under(loaded, *packages):
    """The modules in *loaded* inside any of *packages*."""
    return sorted(name for name in loaded
                  if any(name == package or name.startswith(package + ".")
                         for package in packages))


def _model_modules(loaded):
    """Loaded model modules: the model packages plus every system module
    (the registry itself and the bare ``repro.systems`` package aside)."""
    systems = [name for name in _under(loaded, "repro.systems")
               if name not in ("repro.systems", "repro.systems.registry")]
    return _under(loaded, *MODEL_PACKAGES) + systems


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


#: The same point through a two-worker pool.
POOL_PROBE = SWEEP_PROBE.replace("jobs=1", "jobs=2")

#: Building what perfbench's set-up builds: an executor over a result
#: cache, and a progress ledger beside it.
SETUP_PROBE = """\
import json, sys
from repro.experiments.executor import make_executor
from repro.experiments.progress import ProgressLedger
make_executor(jobs=1, cache_dir={cache_dir!r})
ProgressLedger.in_cache_dir({cache_dir!r})
print(json.dumps(sorted(sys.modules)))
"""

#: Every way the top-level API could break, one string per fault.
LAZY_PROBE = """\
import json, repro
names = [name for name in repro.__all__ if name != "__version__"]
faults = ["eager " + name for name in names if name in vars(repro)]
faults += ["unlisted " + name for name in repro.__all__
           if name not in dir(repro)]
faults += ["unresolved " + name for name in names
           if getattr(repro, name, None) is None]
faults += ["uncached " + name for name in names if name not in vars(repro)]
print(json.dumps(faults))
"""

#: One CLI command, run to its exit.
CLI_PROBE = """\
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main({argv!r})
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""


def _run_probe(probe, **env_vars):
    """Every module a fresh interpreter holds after running *probe*.

    The probe's environment is this one without ``REPRO_SANITIZE`` (an
    inherited value would change what a point imports), plus
    *env_vars*.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("REPRO_SANITIZE", None)
    env.update(env_vars)
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


def test_import_repro_loads_only_the_package_and_its_version():
    loaded = _loaded("repro")
    assert _under(loaded, "repro") == ["repro", "repro.version"]


def test_every_public_name_resolves_on_first_use_and_is_listed():
    """Each name in ``__all__`` is listed by ``dir()`` before it is
    imported, resolves through ``getattr`` and is kept once resolved."""
    assert _run_probe(LAZY_PROBE) == set()


def test_executor_cache_and_ledger_load_no_model(tmp_path):
    """Set-up loads the harness, not what a point runs: the model is
    imported by the first point of the process."""
    loaded = _run_probe(SETUP_PROBE.format(cache_dir=str(tmp_path)))
    assert "repro.experiments.executor" in loaded
    assert _model_modules(loaded) == []
    assert _under(loaded, "repro.faults", "repro.analysis.sanitizer") == []


def test_clean_sweep_loads_no_faults_and_no_sanitizer():
    loaded = _run_probe(SWEEP_PROBE)
    assert "repro.sim.engine" in loaded
    assert _under(loaded, "repro.faults", "repro.analysis.sanitizer") == []


def test_sanitize_env_still_loads_the_sanitizer():
    """The sanitizer is imported on demand, and ``REPRO_SANITIZE`` still
    asks for it."""
    loaded = _run_probe(SWEEP_PROBE, REPRO_SANITIZE="1")
    assert "repro.analysis.sanitizer" in loaded
    assert _under(loaded, "repro.faults") == []


@pytest.mark.parametrize("argv", [["--help"], ["list"]])
def test_informational_cli_commands_load_no_model(argv):
    loaded = _run_probe(CLI_PROBE.format(argv=argv))
    assert "repro.cli" in loaded
    assert _model_modules(loaded) == []


def test_pool_sweep_imports_the_model_before_forking():
    """Workers inherit the parent's modules; a model first imported in
    a worker would be compiled again in every worker of every batch."""
    loaded = _run_probe(POOL_PROBE)
    assert {"repro.sim.engine", "repro.metrics.collector",
            "repro.workload.generator"} <= loaded
