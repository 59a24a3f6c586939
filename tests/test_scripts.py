"""Smoke runs of the experiment scripts in ``scripts/``.

Each script runs once as a subprocess at a tiny grid and must exit 0
without a traceback.  Arguments the library rejects must end in an
argparse usage error (exit 2), not a traceback, and a descent that finds
no feasible shape ends in exit 1 without a usage line.  Those cases run
in-process through ``runpy`` because none of them reaches a solve and a
fresh interpreter per case would only add import time.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("script,args", [
    ("convergence_study.py", ["--base-ns", "8", "--levels", "2"]),
    ("rigidity_contrast.py", ["--ns", "16", "--ntheta", "32"]),
    ("shape_recovery.py", ["--ns", "16", "--ntheta", "32", "--budget", "50"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("script,args,message", [
    ("shape_recovery.py", ["--budget", "20"], "budget must be at least"),
    ("shape_recovery.py", ["--modes", "0"], "modes must be"),
    ("rigidity_contrast.py", ["--offsets", "0.9"], "offset < radius"),
    ("convergence_study.py", ["--base-ns", "4"], "ns must be at least"),
])
def test_rejected_argument_is_a_usage_error(script, args, message, monkeypatch,
                                            capsys):
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert err.startswith("usage:")
    assert message in err
    assert "Traceback" not in err


def test_infeasible_descent_is_not_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["shape_recovery.py", "--r0", "1.6",
                                      "--budget", "50", "--ns", "16",
                                      "--ntheta", "32"])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / "shape_recovery.py"), run_name="__main__")
    err = capsys.readouterr().err
    assert info.value.code == 1
    assert "no feasible shape" in err
    assert "usage:" not in err
    assert "Traceback" not in err
