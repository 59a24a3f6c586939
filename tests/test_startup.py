"""What a fresh process imports, command by command.

Every CLI call is a fresh process, so each scipy subpackage imported at
module top is paid by every command.  ``scipy.optimize`` (pulling in
``scipy.special``) is imported only by ``rigidity``, which descends with
``least_squares``; no command imports ``scipy.integrate``.  One subprocess
imports the CLI, runs the solving commands and ``radial`` in-process and
then ``rigidity``, recording ``sys.modules`` after each step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.special")
AT_TOP = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg")

PROBE = """
import json, sys
names = {names!r}
steps = {{}}

def record(step):
    steps[step] = sorted(m for m in names if m in sys.modules)

import torsionlab.cli as cli
record("import")
grid = ["--Ns", "32", "--Ntheta", "64", "--out", {out!r}]
for command in ("solve", "verify", "sweep"):
    assert cli.main(["--command", command, *grid]) == 0, command
record("solvers")
assert cli.main(["--command", "radial", "--out", {out!r}]) == 0
record("radial")
assert cli.main(["--command", "rigidity", "--a2", "0.1", "--modes", "2",
                 "--Ns", "16", "--Ntheta", "32", "--out", {out!r}]) == 0
record("rigidity")
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Step name -> the watched modules in ``sys.modules`` after that step."""
    out = str(tmp_path_factory.mktemp("startup") / "out.csv")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = PROBE.format(names=DEFERRED + AT_TOP, out=out)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_the_solver_subpackages_only(loaded):
    assert loaded["import"] == sorted(AT_TOP)


def test_solving_commands_load_no_deferred_subpackage(loaded):
    assert not set(DEFERRED) & set(loaded["solvers"])


def test_rigidity_loads_scipy_optimize(loaded):
    assert "scipy.optimize" in loaded["rigidity"]
    assert "scipy.integrate" not in loaded["rigidity"]


def test_radial_loads_no_deferred_subpackage(loaded):
    assert not set(DEFERRED) & set(loaded["radial"])
