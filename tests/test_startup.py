"""What a fresh process imports, command by command.

Every CLI call is a fresh process, so each scipy subpackage imported at
module top is paid by every command.  None is: ``import torsionlab`` and
``import torsionlab.cli`` load numpy and no scipy module, and so does
``radial``, whose closed form needs numpy alone.  The grid solver imports
``scipy.sparse`` when it assembles and ``scipy.linalg`` when it factors a
disk, so a ball's ``solve``, ``verify`` or ``sweep`` loads those two;
only a domain that is not a disk is factored by SuperLU and loads
``scipy.sparse.linalg``.  ``scipy.optimize`` (pulling in
``scipy.special``) is imported only by ``rigidity``, which descends with
``least_squares``; no command imports ``scipy.integrate``.  One
subprocess imports the package and the CLI, runs ``radial``, the solving
commands on balls, then on star domains, then ``rigidity`` in-process,
recording the scipy modules in ``sys.modules`` after each step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.special")

PROBE = """
import json, sys
steps = {{}}

def record(step):
    steps[step] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(*argv):
    assert cli.main([*argv, "--out", {out!r}]) == 0, argv

import torsionlab
record("import torsionlab")
import torsionlab.cli as cli
record("import torsionlab.cli")
run("--command", "radial")
record("radial")
grid = ("--Ns", "32", "--Ntheta", "64")
for command in ("solve", "verify"):
    run("--command", command, *grid)
run("--command", "sweep", "--family", "ball", "--family_values", "0.3,0.6", *grid)
record("ball")
run("--command", "verify", "--a2", "0.1", *grid)
run("--command", "sweep", "--family", "offset", "--family_values", "0,0.1", *grid)
record("star")
run("--command", "rigidity", "--a2", "0.1", "--modes", "2",
    "--Ns", "16", "--Ntheta", "32")
record("rigidity")
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Step name -> the scipy modules in ``sys.modules`` after that step."""
    out = str(tmp_path_factory.mktemp("startup") / "out.csv")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PROBE.format(out=out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_scipy_module(loaded):
    assert loaded["import torsionlab"] == []
    assert loaded["import torsionlab.cli"] == []


def test_radial_loads_no_scipy_module(loaded):
    assert loaded["radial"] == []


def test_ball_solves_load_sparse_and_linalg_but_not_superlu(loaded):
    assert {"scipy.sparse", "scipy.linalg"} <= set(loaded["ball"])
    assert "scipy.sparse.linalg" not in loaded["ball"]


def test_star_solves_load_superlu(loaded):
    assert "scipy.sparse.linalg" in loaded["star"]


def test_solving_commands_load_no_deferred_subpackage(loaded):
    assert not set(DEFERRED) & set(loaded["star"])


def test_rigidity_loads_scipy_optimize(loaded):
    assert "scipy.optimize" in loaded["rigidity"]
    assert "scipy.integrate" not in loaded["rigidity"]
