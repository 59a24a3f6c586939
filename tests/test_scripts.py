"""The experiment script and the run configs in ``scripts/``.

``convergence_study.py`` runs once as a subprocess at a tiny grid and must
exit 0 without a traceback; an argument the library rejects must end in an
argparse usage error (exit 2), run in-process through ``runpy`` because it
never reaches a solve.  ``cli_digests.py`` runs in-process too and must
digest all of its runs with exit 0, to the lines of ``cli_digests.txt``
on the numpy and SciPy builds, and the LAPACK of each, named at its head.
Each ``*.cfg`` must parse to the study's inputs and run through
``cli.main`` at a tiny grid.
"""

import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from torsionlab.cli import RunConfig, main, parse_config

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
DIGESTS = Path(__file__).with_name("cli_digests.txt")


@pytest.mark.parametrize("script,args", [
    ("convergence_study.py", ["--base-ns", "8", "--levels", "2"]),
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
    pytest.param("convergence_study.py", ["--base-ns", "4"], "ns must be at least",
                 id="convergence_study.py-args3-ns must be at least"),
    pytest.param("convergence_study.py", ["--tol", "1e-10"], "unrecognized arguments",
                 id="convergence_study.py-tol-unrecognized arguments"),
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


def test_cli_digests_cover_every_run(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["cli_digests.py"])
    monkeypatch.setattr(sys, "path", list(sys.path))
    runpy.run_path(str(SCRIPTS / "cli_digests.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 94
    assert len({line.split()[0] for line in lines}) == 94
    for line in lines:
        assert re.fullmatch(r"\S+ 0 [0-9a-f]{16}", line), line
    # The frozen bytes: the reference is headed by the builds it was made on,
    # since the digits of a solve depend on numpy, SciPy and their LAPACK.
    reference = DIGESTS.read_text().splitlines()
    made_on = dict(line[2:].split(maxsplit=1) for line in reference
                   if line.startswith("# "))
    here = {"numpy": np.__version__, "scipy": scipy.__version__}
    for module in (np, scipy):
        build = module.__config__.CONFIG["Build Dependencies"]["lapack"]
        here[f"{module.__name__}-lapack"] = f"{build['name']} {build['version']}"
    if made_on != here:
        pytest.skip(f"{DIGESTS.name} was made on {made_on}, this build is {here}")
    assert lines == [line for line in reference if not line.startswith("# ")]


CONTRAST = dict(command="sweep", family="offset",
                family_values=(0.0, 0.05, 0.1, 0.2), Ns=128, Ntheta=256)
SWEEP_HEADER = "parameter,j,c_mean,c_std,status"

# Config file -> (its inputs, the frozen CSV header, flags for a short run).
CONFIGS = {
    "contrast_sphere.cfg": (RunConfig(geometry="spherical", R0=math.pi / 4,
                                      **CONTRAST), SWEEP_HEADER, []),
    "contrast_plane.cfg": (RunConfig(geometry="euclidean", R0=1.0, **CONTRAST),
                           SWEEP_HEADER, []),
    "shape_recovery.cfg": (RunConfig(command="rigidity", geometry="spherical",
                                     R0=math.pi / 4, cos_coeffs={2: 0.1},
                                     modes=2, budget=400, Ns=64, Ntheta=128),
                           "index,evaluations,j,spread,r0,a1,a2,b1,b2,status",
                           ["--budget", "50"]),
    "hyperbolic_branch.cfg": (RunConfig(command="rigidity", geometry="hyperbolic",
                                        R0=math.acosh(2.0) - 0.03,
                                        cos_coeffs={2: 0.15}, modes=8,
                                        Ns=32, Ntheta=64),
                              "index,evaluations,j,spread,r0,"
                              + ",".join(f"a{k}" for k in range(1, 9)) + ","
                              + ",".join(f"b{k}" for k in range(1, 9)) + ",status",
                              []),
}


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.cfg")),
                         ids=lambda path: path.name)
def test_config_runs(path, capsys):
    inputs, header, flags = CONFIGS[path.name]
    # Every key not set above keeps its default.
    assert parse_config(path.read_text()) == inputs

    rc = main([str(path), "--Ns", "16", "--Ntheta", "32", *flags])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out.split("\n", 1)[0] == header
