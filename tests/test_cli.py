"""Config parsing, command dispatch, serialization and exit codes."""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab.cli as cli
import torsionlab.discretization as discretization
from torsionlab import neumann_trace, solve_torsion
from torsionlab.cli import ConfigError, RunConfig, main, parse_config, run


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


VERIFY_BALL = """
command = verify
geometry = spherical
n = 2
R0 = 0.7853981633974483
Ns = 64
Ntheta = 128
"""

VERIFY_FLOWER = """
command = verify
geometry = spherical
R0 = 0.8
a3 = 0.15
Ns = 32
Ntheta = 64
"""

SOLVE_BALL = "command=solve\ngeometry=hyperbolic\nR0=1.5\nNs=8\nNtheta=16"
SOLVE_FLOWER = ("command=solve\ngeometry=spherical\nR0=0.7\na2=0.1\nb1=0.05\n"
                "Ns=8\nNtheta=16")
RIGIDITY = ("command=rigidity\ngeometry=spherical\nR0=0.7853981633974483\n"
            "a2=0.1\nmodes=3\nbudget=60\nNs=16\nNtheta=32")
RADIAL = "command=radial\ngeometry=hyperbolic\nR0=2.0\nn=3\nNs=16"
SWEEP = ("command=sweep\ngeometry=spherical\nR0=0.7\nfamily=offset\n"
         "family_values=-0.0,0,0.1\nNs=8\nNtheta=16")


class TestParseConfig:
    def test_valid_minimal(self):
        cfg = parse_config("geometry=spherical\nn=2\nR0=0.7853981634\ncommand=verify")
        assert cfg.command == "verify"
        assert cfg.geometry == "spherical"
        assert cfg.n == 2
        assert cfg.R0 == 0.7853981634
        assert cfg.Ns == 64 and cfg.Ntheta == 128    # defaults

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# run\ncommand=solve  # inline\n\nNs=16\nNtheta=32")
        assert cfg.command == "solve"
        assert cfg.Ns == 16

    def test_hemisphere_bound_rejected(self):
        with pytest.raises(ConfigError, match="hemisphere|r_max"):
            parse_config("command=solve\ngeometry=spherical\nR0=2.0")
        with pytest.raises(ConfigError, match="r_max"):
            parse_config("command=radial\ngeometry=spherical\nR0=2.0")

    def test_profile_bound_elsewhere_names_no_hemisphere(self):
        with pytest.raises(ConfigError, match=r"r_max = 50$"):
            parse_config("command=solve\ngeometry=hyperbolic\nR0=50")
        with pytest.raises(ConfigError, match=r"\(hemisphere cap\)$"):
            parse_config("command=solve\ngeometry=spherical\nR0=1.6")

    def test_odd_ntheta_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            parse_config("command=solve\nNtheta=15")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"config line 2.*frobnicate"):
            parse_config("command=solve\nfrobnicate=1")

    def test_seed_is_not_a_key(self):
        with pytest.raises(ConfigError, match=r"config line 2.*seed"):
            parse_config("command=solve\nseed=1")

    def test_tol_is_not_a_key(self):
        # The solver's residual bound is the constant SOLVER_TOL.
        with pytest.raises(ConfigError, match=r"config line 2: unknown key 'tol'"):
            parse_config("command=solve\ntol=1e-10")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="config line 1"):
            parse_config("command solve")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="Ns"):
            parse_config("command=solve\nNs=plenty")

    def test_flag_overrides_file(self):
        cfg = parse_config("command=solve\nNs=16\nNtheta=32", [("Ns", "24")])
        assert cfg.Ns == 24

    def test_flag_source_in_diagnostics(self):
        with pytest.raises(ConfigError, match=r"flag --Ns"):
            parse_config("command=solve", [("Ns", "4")])

    def test_degenerate_domain_names_its_sources(self):
        # The shape comes from R0 and the coefficients; each one set is named.
        with pytest.raises(ConfigError,
                           match=r"^flag --a2: degenerate domain"):
            parse_config("command=solve", [("a2", "1.5")])
        with pytest.raises(ConfigError,
                           match=r"^config line 2, config line 3: degenerate"):
            parse_config("command=solve\nR0=0.5\na2=1.5")
        with pytest.raises(ConfigError,
                           match=r"^config line 1, flag --b3: degenerate"):
            parse_config("a2=0.6\ncommand=solve", [("b3", "0.6")])

    def test_coefficient_keys(self):
        cfg = parse_config("command=solve\nR0=0.8\na3=0.15\nb2=-0.05")
        assert cfg.cos_coeffs == {3: 0.15}
        assert cfg.sin_coeffs == {2: -0.05}
        dom = cfg.domain()
        assert dom.cos_coeffs == (0.0, 0.0, 0.15)
        assert dom.sin_coeffs == (0.0, -0.05, 0.0)

    def test_family_values_parsing(self):
        cfg = parse_config("command=sweep\ngeometry=euclidean\nR0=1.0\n"
                           "family_values=0,0.1,0.3")
        assert cfg.family_values == (0.0, 0.1, 0.3)
        with pytest.raises(ConfigError, match="family_values"):
            parse_config("command=sweep\nfamily_values=a,b")

    def test_sweep_offsets_must_stay_inside(self):
        with pytest.raises(ConfigError, match="offset"):
            parse_config("command=sweep\ngeometry=euclidean\nR0=1.0\n"
                         "family_values=0,1.5")
        with pytest.raises(ConfigError, match="r_max"):
            parse_config("command=sweep\ngeometry=spherical\nR0=0.8\n"
                         "family_values=0,0.78")

    def test_offset_sweep_radius_names_r0(self):
        # The offset members are disks of radius R0, so R0 is the key at fault.
        with pytest.raises(ConfigError,
                           match=r"^config line 3: ball radius R0 = 60.0 reaches"):
            parse_config("command=sweep\ngeometry=euclidean\nR0=60")

    def test_offset_sweep_member_names_r0(self):
        # Member 0.1 of the default offsets leaves through R0 + 0.1, and the
        # user set only R0.
        with pytest.raises(ConfigError) as info:
            parse_config("command=sweep", [("R0", "1.5")])
        assert str(info.value) == ("flag --R0: family member 0.1 leaves the "
                                   "profile bound r_max = 1.570796327")
        # A ball member leaves by itself, whatever R0 is.
        with pytest.raises(ConfigError) as info:
            parse_config("command=sweep\nfamily=ball\nR0=0.5",
                         [("family_values", "0.5,2")])
        assert str(info.value) == ("flag --family_values: family member 2.0 "
                                   "leaves the profile bound r_max = 1.570796327")

    def test_grid_commands_are_surface_only(self):
        with pytest.raises(ConfigError, match="n = 3"):
            parse_config("command=solve\nn=3")
        cfg = parse_config("command=radial\nn=3")
        assert cfg.n == 3

    def test_scalar_bounds(self):
        for body, pattern in [
            ("command=walk", "command"),
            ("command=radial\nn=1", "n must be >= 2, got 1"),
            ("command=solve\ngeometry=flat", "geometry"),
            ("command=solve\nR0=-1", "R0"),
            ("command=solve\nNs=4", "Ns"),
            ("command=solve\ntol=0", "unknown key 'tol'"),
            ("command=solve\nmax_iter=0", "unknown key 'max_iter'"),
            ("command=verify\nreport_tol=0", "report_tol"),
            ("command=solve\nformat=xml", "format"),
            ("command=rigidity\nmodes=9", "modes"),
            ("command=rigidity\nmodes=0", "modes"),
            ("command=rigidity\nbudget=49", "budget"),
            ("command=rigidity\nmodes=1\na3=0.1", "harmonic above modes = 1"),
            ("command=sweep\nfamily=spiral", "family"),
            ("command=sweep\nfamily=ball\nfamily_values=0.5,0",
             "ball radius 0.0 in family_values"),
            ("command=sweep\nfamily=ball\nfamily_values=0.5,-0.5",
             "ball radius -0.5 in family_values"),
            ("command=sweep\nfamily=ball\nfamily_values=0.5,nan",
             "ball radius nan in family_values"),
        ]:
            with pytest.raises(ConfigError, match=pattern):
                parse_config(body)

    def test_run_config_defaults(self):
        cfg = RunConfig()
        assert cfg.geometry == "spherical"
        assert cfg.R0 == math.pi / 4
        assert cfg.family_values == (0.0, 0.05, 0.1, 0.2)


class TestVerifyCommand:
    def test_spherical_ball_report(self, tmp_path, capsys):
        rc = main([write_config(tmp_path, VERIFY_BALL)])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == "label,hypothesis_class,lhs,rhs,abs_residual,rel_residual,verdict"
        assert len(lines) == 11
        assert all(line.split(",")[-1] == "pass" for line in lines[1:])

    def test_generic_domain_not_applicable_rows(self, tmp_path, capsys):
        rc = main([write_config(tmp_path, VERIFY_FLOWER)])
        captured = capsys.readouterr()
        assert rc == 0
        verdicts = [line.split(",")[-1]
                    for line in captured.out.strip().split("\n")[1:]]
        assert verdicts.count("not_applicable") == 6
        assert verdicts.count("pass") == 4

    def test_verdict_failure_exit_code(self, tmp_path, capsys):
        rc = main([write_config(tmp_path, VERIFY_FLOWER), "--report_tol", "1e-12"])
        capsys.readouterr()
        assert rc == 1

    def test_large_ball_inequality_rows_are_scale_free(self, capsys):
        # A 32x64 euclidean ball of radius 40: the Bochner bound is violated
        # by 3927 on sides of 4.0e6, a relative 9.8e-4 within report_tol.
        rc = main(["--command", "verify", "--geometry", "euclidean", "--R0", "40",
                   "--Ns", "32", "--Ntheta", "64"])
        rows = {line.split(",")[0]: line.split(",")
                for line in capsys.readouterr().out.strip().split("\n")[1:]}
        assert rc == 0
        bound = rows["bw_lower_bound"]
        assert float(bound[4]) < -1.0
        assert 0.0 < float(bound[5]) < 1e-3
        assert bound[6] == "pass"


class TestOtherCommands:
    def test_radial_rows(self, tmp_path, capsys):
        cfg = "command=radial\ngeometry=spherical\nR0=0.7853981633974483\nNs=16"
        rc = main([write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == "record,name,r,value"
        samples = [l for l in lines[1:] if l.startswith("sample,")]
        catalog = [l for l in lines[1:] if l.startswith("catalog,")]
        assert len(samples) == 32          # u and u_r at 16 radii
        assert len(catalog) == 23
        first = samples[0].split(",")
        assert float(first[2]) == pytest.approx(0.7853981633974483 * 0.5 / 16)

    def test_radial_large_euclidean_ball(self, capsys):
        # Its integrands reach 1e6; the catalog still closes the Pohozaev
        # balance to rounding.
        rc = main(["--command", "radial", "--geometry", "euclidean", "--R0", "5",
                   "--n", "5"])
        catalog = {row[1]: float(row[3])
                   for row in (line.split(",")
                               for line in capsys.readouterr().out.split("\n"))
                   if row[0] == "catalog"}
        assert rc == 0
        flux, bulk = catalog["pohozaev_flux"], catalog["pohozaev_bulk"]
        assert abs(flux - bulk) <= 1e-14 * abs(flux)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_radial_tiny_ball_is_finite(self, n, capsys):
        # h^2 underflows at the smallest quadrature node; no warning is
        # raised (RuntimeWarning is an error here) and no cell reads nan.
        assert main(["--command", "radial", "--R0", "1e-200", "--n", str(n)]) == 0
        values = [float(row[3]) for row in (line.split(",") for line in
                                            capsys.readouterr().out.split("\n"))
                  if row[0] == "catalog"]
        assert len(values) == 23
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("geometry,R0,n,code", [
        ("hyperbolic", "49", 13, 2),      # h^(n-1) overflows in the quadrature
        ("hyperbolic", "49", 16, 2),      # and c^(n-1) in the boundary measure
        ("hyperbolic", "49", 20, 2),
        ("euclidean", "49.9", 180, 2),
        ("euclidean", "49.9", 183, 2),
        # (n - 1)/h overflows at the node nearest the pole, except at n = 2
        # and 3e-306, where 1/h stays below 1.8e308.
        *[(g, R0, n, 0 if (R0, n) == ("3e-306", 2) else 2)
          for g in cli.GEOMETRIES for R0 in ("3e-306", "1e-320") for n in (2, 3, 5)],
    ])
    def test_radial_beyond_the_float_range(self, geometry, R0, n, code, capsys):
        # Finite cells, or exit 2 with one line naming R0 and n and no output;
        # never a traceback, a warning (an error here) or a non-finite cell.
        rc = main(["--command", "radial", "--geometry", geometry, "--R0", R0,
                   "--n", str(n)])
        out, err = capsys.readouterr()
        values = [float(row[3]) for row in (line.split(",") for line in out.split("\n"))
                  if row[0] == "catalog"]
        assert rc == code
        assert all(math.isfinite(v) for v in values)
        if code == 0:
            assert err == "" and len(values) == 23
        else:
            assert out == ""
            assert err.splitlines() == [f"the catalog of the ball R0 = {float(R0)} in "
                                        f"dimension n = {n} leaves the float range"]

    def test_solve_rows(self, tmp_path, capsys):
        cfg = "command=solve\ngeometry=euclidean\nR0=1.0\nNs=8\nNtheta=16"
        rc = main([write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == "record,j,i,theta,r,value,weight"
        nodes = [l for l in lines[1:] if l.startswith("node,")]
        neumann = [l for l in lines[1:] if l.startswith("neumann,")]
        assert len(nodes) == 128
        assert len(neumann) == 16
        # Euclidean unit disk: trace is 1 to discretization accuracy.
        for line in neumann:
            assert abs(float(line.split(",")[5]) - 1.0) < 1e-2

    def test_sweep_rows(self, tmp_path, capsys):
        cfg = ("command=sweep\ngeometry=euclidean\nR0=1.0\nfamily=offset\n"
               "family_values=0,0.05,0.1,0.2\nNs=32\nNtheta=64")
        rc = main([write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == "parameter,j,c_mean,c_std,status"
        assert len(lines) == 5
        assert all(line.endswith(",ok") for line in lines[1:])
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 0.05, 0.1, 0.2]

    def test_ball_sweep_ignores_r0(self, capsys):
        # A ball sweep builds no domain from R0, so an R0 past the
        # hemisphere cap is not checked and changes no byte.
        args = ["--command", "sweep", "--family", "ball", "--family_values",
                "0.3,0.6", "--Ns", "16", "--Ntheta", "32"]
        outputs = []
        for extra in ([], ["--R0", "2"]):
            assert main(args + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_radial_ignores_coefficient_keys(self, capsys):
        # radial evaluates the ball of radius R0: a coefficient that would
        # make a degenerate star domain is not checked and changes no byte.
        outputs = []
        for extra in ([], ["--a2", "1.5"]):
            assert main(["--command", "radial", "--Ns", "16", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_rigidity_trace(self, tmp_path, capsys):
        cfg = ("command=rigidity\ngeometry=spherical\nR0=0.7853981633974483\n"
               "a2=0.1\nmodes=2\nbudget=80\nNs=16\nNtheta=32")
        rc = main([write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == "index,evaluations,j,spread,r0,a1,a2,b1,b2,status"
        assert len(lines) >= 2
        # Status tag only on the final row.
        assert lines[-1].split(",")[-1] in ("target reached", "budget exhausted",
                                            "simplex collapsed")
        for line in lines[1:-1]:
            assert line.endswith(",")
        js = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(js[k + 1] <= js[k] for k in range(len(js) - 1))

    def test_solver_nonconvergence_exit_code(self, tmp_path, monkeypatch,
                                             capsys):
        # The bound case and the singular cases (disks and a star domain, at
        # two grid sizes) each write one stderr line and no numpy warning.
        bound = discretization.SOLVER_TOL
        for cfg, tol in [("command=solve\ngeometry=euclidean\nR0=1.0", 1e-30),
                         ("command=solve\ngeometry=spherical\nR0=1e-300", bound),
                         ("command=verify\ngeometry=hyperbolic\nR0=1e-300", bound),
                         ("command=verify\ngeometry=euclidean\nR0=1e-300\na2=0.1",
                          bound)]:
            monkeypatch.setattr(discretization, "SOLVER_TOL", tol)
            for grid in ("\nNs=8\nNtheta=16", "\nNs=16\nNtheta=32"):
                rc = main([write_config(tmp_path, cfg + grid)])
                captured = capsys.readouterr()
                assert rc == 3, cfg + grid
                assert captured.out == ""
                assert captured.err.startswith("solver did not converge: ")
                assert captured.err.count("\n") == 1

    def test_singular_factor_exit_code(self, monkeypatch, capsys):
        def singular(A, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        rc = main(["--command", "solve", "--a2", "0.1", "--Ns", "8",
                   "--Ntheta", "16"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "solver did not converge: Factor is exactly singular\n"

    def test_sweep_continues_past_singular_factor(self, capsys):
        rc = main(["--command", "sweep", "--family", "ball", "--family_values",
                   "1e-300,0.5", "--Ns", "8", "--Ntheta", "16"])
        lines = capsys.readouterr().out.split("\n")
        assert rc == 0
        assert lines[1].startswith("1e-300,nan,nan,nan,failed: ")
        assert "singular" in lines[1]
        assert lines[2].startswith("0.5,") and lines[2].endswith(",ok")
        assert lines[3:] == [""]

    def test_descent_with_no_solvable_shape_exit_code(self, monkeypatch, capsys):
        bound = discretization.SOLVER_TOL
        for tol, args in ((1e-30, []),
                          (bound, ["--R0", "1e-300", "--a2", "0.1"])):  # singular factorization
            monkeypatch.setattr(discretization, "SOLVER_TOL", tol)
            rc = main(["--command", "rigidity", "--Ns", "8", "--Ntheta", "16",
                       "--budget", "50", *args])
            captured = capsys.readouterr()
            assert rc == 3, args
            assert captured.out == ""
            assert "no feasible shape" in captured.err
            assert captured.err.count("\n") == 1


def csv_cells(column):
    """The CSV cells that the writer makes of a one-column table."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit({"c": column}, RunConfig())
    header, *cells, last = out.getvalue().split("\n")
    assert header == "c" and last == ""
    return cells


class TestSerialization:
    def test_full_precision_cells(self):
        assert csv_cells([math.pi]) == ["3.1415926535897931"]
        assert float(csv_cells([math.pi])[0]) == math.pi
        assert float(csv_cells([1.0 / 3.0])[0]) == 1.0 / 3.0
        assert csv_cells([7]) == ["7"]
        assert csv_cells([None]) == [""]
        assert csv_cells(["pass"]) == ["pass"]
        assert csv_cells(np.array([math.pi, 1.0 / 3.0])) == csv_cells([math.pi, 1.0 / 3.0])

    def test_byte_determinism(self, tmp_path):
        path = write_config(tmp_path, VERIFY_FLOWER)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main([path, "--out", out1]) == 0
        assert main([path, "--out", out2]) == 0
        first = Path(out1).read_bytes()
        assert first == Path(out2).read_bytes()
        assert first.decode().count("\n") == 11

    def test_json_mirrors_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, VERIFY_FLOWER)
        assert main([path]) == 0
        csv_lines = capsys.readouterr().out.strip().split("\n")
        assert main([path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(csv_lines) - 1
        header = csv_lines[0].split(",")
        for row, line in zip(rows, csv_lines[1:]):
            assert list(row.keys()) == header
            cells = line.split(",")
            assert row["label"] == cells[0]
            assert row["lhs"] == float(cells[2])     # full precision round-trip

        path = write_config(tmp_path, SOLVE_FLOWER, name="solve.cfg")
        assert main([path]) == 0
        csv_lines = capsys.readouterr().out.strip().split("\n")
        assert main([path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(csv_lines) - 1 == 8 * 16 + 16
        header = csv_lines[0].split(",")
        for row, line in zip(rows, csv_lines[1:]):
            assert list(row.keys()) == header
            assert [reference_cell(v) for v in row.values()] == line.split(",")

    def test_out_file_and_quiet_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, VERIFY_FLOWER)
        target = str(tmp_path / "report.csv")
        rc = main([path, "--out", target])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        assert read_out(target).startswith("label,")


# The writer before column tables, tuple rows and cached line templates: one
# dict per row, one formatted cell at a time.  Every command's bytes must
# stay the same.
def reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return format(float(value), ".17g")


def reference_payload(dict_rows, columns, fmt):
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(columns) + "\n")
        for row in dict_rows:
            buf.write(",".join(reference_cell(row.get(c)) for c in columns) + "\n")
        return buf.getvalue()
    return json.dumps([{c: row.get(c) for c in columns} for row in dict_rows],
                      indent=2, allow_nan=True) + "\n"


def column_parts(column):
    """The parts of a column: itself, or the parts of each part of a tuple."""
    if isinstance(column, tuple):
        return [leaf for part in column for leaf in column_parts(part)]
    return [column]


def column_values(column):
    """The cells of a column in row order; array cells become Python values."""
    cells = []
    for part in column_parts(column):
        if isinstance(part, cli._Repeat):
            cells += [part.value] * part.count
        else:
            cells += part.tolist() if isinstance(part, np.ndarray) else part
    return cells


def table_rows(table):
    """One dict per row of a column table."""
    columns = list(map(column_values, table.values()))
    assert len({len(c) for c in columns}) == 1
    return [dict(zip(table, row)) for row in zip(*columns)]


def read_out(path):
    """An output file's text, with no newline translation."""
    with open(path, newline="") as fh:
        return fh.read()


def emitted_payload(tmp_path, table, fmt):
    out = str(tmp_path / "out")
    cli._emit(table, RunConfig(format=fmt, out=out))
    return read_out(out)


def reference_solve_rows(cfg):
    field_ = solve_torsion(cfg.profile(), cfg.domain(), cfg.Ns, cfg.Ntheta)
    grid = field_.grid
    values, weights = neumann_trace(field_)
    rows = []
    for j in range(grid.ns):
        for i in range(grid.ntheta):
            rows.append({"record": "node", "j": j, "i": i,
                         "theta": float(grid.theta[i]), "r": float(grid.r[j, i]),
                         "value": float(field_.values[j, i]), "weight": None})
    for i in range(grid.ntheta):
        rows.append({"record": "neumann", "j": None, "i": i,
                     "theta": float(grid.theta[i]), "r": float(grid.rho[i]),
                     "value": float(values[i]), "weight": float(weights[i])})
    return rows


def capture_tables(monkeypatch):
    """Record every table handed to the writer, then write it as usual."""
    emitted = []
    emit = cli._emit

    def capture(table, cfg):
        emitted.append(dict(table))
        emit(table, cfg)

    monkeypatch.setattr(cli, "_emit", capture)
    return emitted


def is_part(part):
    return (isinstance(part, (list, cli._Repeat))
            or (isinstance(part, np.ndarray) and part.ndim == 1
                and (part.dtype == np.float64 or part.dtype.kind in "iu")))


def is_column(column):
    return all(map(is_part, column_parts(column)))


SIGNED_ZEROS = [0.0, -0.0, -0.0, 0.0]
SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  1.7976931348623157e308, 0.1, 1e17]


class TestWriterBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("text", [SOLVE_BALL, SOLVE_FLOWER], ids=["ball", "star"])
    def test_solve_matches_reference(self, tmp_path, monkeypatch, fmt, text):
        emitted = capture_tables(monkeypatch)
        path = write_config(tmp_path, text)
        out = str(tmp_path / "out")
        assert main([path, "--format", fmt, "--out", out]) == 0
        cfg = parse_config(text, [("format", fmt)])
        columns = ["record", "j", "i", "theta", "r", "value", "weight"]
        want = reference_payload(reference_solve_rows(cfg), columns, fmt)
        assert read_out(out) == want
        # The grid's columns reach the writer as arrays and repeats, not as
        # row tuples or per-cell lists.
        (table,) = emitted
        assert list(table) == columns
        assert all(isinstance(table[c], np.ndarray) for c in ("theta", "r", "value"))
        assert all(map(is_column, table.values()))
        assert not any(isinstance(part, list) for column in table.values()
                       for part in column_parts(column))
        assert table_rows(table) == reference_solve_rows(cfg)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("text", [RADIAL, VERIFY_FLOWER, RIGIDITY, SWEEP],
                             ids=["radial", "verify", "rigidity", "sweep"])
    def test_commands_match_reference(self, tmp_path, monkeypatch, fmt, text):
        emitted = capture_tables(monkeypatch)
        path = write_config(tmp_path, text)
        out = str(tmp_path / "out")
        assert main([path, "--format", fmt, "--out", out]) in (0, 1)
        (table,) = emitted
        assert all(map(is_column, table.values()))
        assert len({len(column_values(column)) for column in table.values()}) == 1
        want = reference_payload(table_rows(table), list(table), fmt)
        assert read_out(out) == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_special_cells_match_reference(self, tmp_path, fmt):
        columns = ["a", "b", "c", "d"]
        rows = [(1, None, "ok", math.nan),
                (-7, 0, "", math.inf),
                (None, None, None, -math.inf),
                (2 ** 70, "x,y", "pass", -0.0),
                (3, None, "fail", 0.1),
                (True, np.float64(1.0 / 3.0), np.float64(-0.0), 5e-324),
                (4, 1.7976931348623157e308, -1e-300, math.pi)]
        table = {c: list(cells) for c, cells in zip(columns, zip(*rows))}
        want = reference_payload([dict(zip(columns, row)) for row in rows], columns, fmt)
        assert emitted_payload(tmp_path, table, fmt) == want
        cells = [v for row in rows for v in row] + [np.int64(4), np.int64(-2)]
        assert [csv_cells([v])[0] for v in cells] == [reference_cell(v) for v in cells]
        assert csv_cells(cells) == [reference_cell(v) for v in cells]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_array_columns_match_reference(self, tmp_path, fmt):
        heavy = np.repeat([0.25, -1.5, math.pi], [700, 1, 299])
        specials = SIGNED_ZEROS + SPECIAL_FLOATS
        table = {"zeros": np.array(SIGNED_ZEROS * 250),
                 "specials": np.resize(np.array(specials), 1000),
                 "heavy": heavy,
                 "strided": np.arange(2000.0)[::2] / 7}
        want = reference_payload(table_rows(table), list(table), fmt)
        assert emitted_payload(tmp_path, table, fmt) == want
        assert csv_cells(np.array(SIGNED_ZEROS)) == ["0", "-0", "-0", "0"]
        assert csv_cells(np.array(specials)) == [reference_cell(v) for v in specials]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_list_columns_match_reference(self, tmp_path, fmt):
        # Cells that compare or hash equal but print differently, in one column.
        mixed = [10 ** 17, 1e17, 10 ** 17, 1, True, 1.0, 1, 0.0, -0.0, 0, False,
                 None, None, "x,y", "x,y", None, -0.0, -0.0, 0.0, 1e17, 10 ** 17]
        table = {"mixed": mixed,
                 "runs": [None] * 8 + [3] * 5 + [None] * 3 + ["a"] * 5,
                 "floats": list(np.resize(SIGNED_ZEROS + SPECIAL_FLOATS, 21)),
                 "array": np.resize(np.array(SIGNED_ZEROS), 21)}
        want = reference_payload(table_rows(table), list(table), fmt)
        assert emitted_payload(tmp_path, table, fmt) == want
        assert csv_cells([-0.0, 0.0]) == ["-0", "0"]
        assert csv_cells([10 ** 17, 1e17]) == ["100000000000000000", "1e+17"]
        assert csv_cells([1, True, 1.0, False, 0]) == ["1", "1", "1", "0", "0"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_part_columns_match_reference(self, tmp_path, fmt):
        # Integer arrays of several dtypes, repeats of cells that compare
        # equal but print differently, and tuples of parts, empty ones too.
        table = {"ints": np.array([10 ** 17, -7, 0, 10 ** 17, -2 ** 63, 2 ** 63 - 1]),
                 "small": np.array([1, -1, 1, 0, 127, -128], dtype=np.int8),
                 "unsigned": np.array([0, 2 ** 64 - 1, 5, 5, 0, 1], dtype=np.uint64),
                 "repeat": cli._Repeat(-0.0, 6),
                 "parts": (cli._Repeat(1, 2), cli._Repeat(True, 1), cli._Repeat(1.0, 1),
                           (), cli._Repeat("x,y", 0), np.array([2, 3])),
                 "nested": ((cli._Repeat(None, 2), np.array([-0.0, math.nan])),
                            [1e17, 10 ** 17])}
        want = reference_payload(table_rows(table), list(table), fmt)
        assert emitted_payload(tmp_path, table, fmt) == want
        assert csv_cells(np.array([1, -2])) == ["1", "-2"]
        assert csv_cells(np.array([2 ** 64 - 1], dtype=np.uint64)) == ["18446744073709551615"]
        assert csv_cells(cli._Repeat(None, 3)) == ["", "", ""]
        assert csv_cells((cli._Repeat(1, 1), cli._Repeat(1.0, 1))) == ["1", "1"]
        assert csv_cells((np.array([0.0]), [-0.0])) == ["0", "-0"]

    @pytest.mark.parametrize("column", [
        np.array([0.1, 0.2], dtype=np.float32),
        np.array([[1.0, 2.0]]),
        np.array([True, False]),
        np.array([1 + 2j, 3j]),
        np.array(["a", "b"]),
        np.array([None, 1], dtype=object),
        np.array(2.5),
        (cli._Repeat(None, 1), np.array([0.5], dtype=np.float16)),
    ], ids=["float32", "2-d", "bool", "complex", "str", "object", "0-d", "part"])
    def test_unprintable_array_is_refused(self, column, capsys):
        # An array is never reinterpreted: the writer names the column and
        # writes nothing.
        with pytest.raises(TypeError, match="column 'c' "):
            cli._emit({"a": [1, 2], "c": column}, RunConfig())
        assert capsys.readouterr().out == ""

    def test_numpy_scalar_cells(self):
        # Not JSON-serializable, so CSV only.
        cells = [np.float32(0.1), np.float32(0.1), np.int64(-2), np.int64(-2),
                 np.float64(-0.0), np.float64(0.0), np.int64(4), np.float32(-0.0)]
        assert csv_cells(cells) == [reference_cell(v) for v in cells]
        assert csv_cells(cells)[:3] == ["0.10000000149011612", "0.10000000149011612", "-2"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table_is_header_only(self, tmp_path, fmt):
        table = {"a": [], "b": np.empty(0), "c": []}
        want = reference_payload([], list(table), fmt)
        assert emitted_payload(tmp_path, table, fmt) == want
        assert want == ("a,b,c\n" if fmt == "csv" else "[]\n")


# Small pools, so that drawn columns repeat values, and signed zeros, NaNs,
# 1 / True / 1.0 and 10**17 / 1e17 meet in one column.
FLOAT_POOL = SIGNED_ZEROS[:2] + SPECIAL_FLOATS + [math.pi, -2.5]
CELL_POOL = (FLOAT_POOL + [np.float64(-0.0), np.float64(0.1)]
             + [0, 1, -7, 10 ** 17, 2 ** 70, True, False, None, "", "x,y", "pass"])


INT_POOL = [0, 1, -1, -7, 10 ** 17, 2 ** 63 - 1, -2 ** 63]
INT_DTYPES = [np.int64, np.int32, np.uint8, np.uint64]


def column_part(draw, rows):
    """One column part of ``rows`` cells, of a kind the writer takes."""
    kind = draw(st.sampled_from(["floats", "ints", "repeat", "list"]))
    if kind == "floats":
        pool = st.sampled_from(FLOAT_POOL)
        return np.array(draw(st.lists(pool, min_size=rows, max_size=rows)),
                        dtype=np.float64)
    if kind == "ints":
        dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
        info = np.iinfo(dtype)
        pool = st.sampled_from([v for v in INT_POOL if info.min <= v <= info.max])
        return np.array(draw(st.lists(pool, min_size=rows, max_size=rows)), dtype=dtype)
    if kind == "repeat":
        return cli._Repeat(draw(st.sampled_from(CELL_POOL)), rows)
    return draw(st.lists(st.sampled_from(CELL_POOL), min_size=rows, max_size=rows))


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 12))
    width = draw(st.integers(1, 4))
    table = {}
    for k in range(width):
        if draw(st.booleans()):
            table[f"c{k}"] = column_part(draw, rows)
        else:
            # A tuple of parts, cut at sorted points, empty parts included.
            cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=3)))
            bounds = [0, *cuts, rows]
            table[f"c{k}"] = tuple(column_part(draw, stop - start)
                                   for start, stop in zip(bounds, bounds[1:]))
    return table


class TestWriterProperty:
    @settings(max_examples=150, deadline=None)
    @given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
    def test_any_table_matches_reference(self, tmp_path_factory, table, fmt):
        out = tmp_path_factory.mktemp("emit")
        want = reference_payload(table_rows(table), list(table), fmt)
        assert emitted_payload(out, table, fmt) == want


class TestMainArgv:
    def test_missing_config_file(self, capsys):
        rc = main(["/nonexistent/path.cfg"])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_undecodable_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"command = radial\nR0 = 0.5\xff\n")
        rc = main([str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"cannot read config file {str(path)!r}")
        assert err.count("\n") == 1

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        body = b"command = radial\nR0 = 0.5\nNs = 8\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        assert main([str(plain)]) == 0
        want = capsys.readouterr().out
        rc = main([str(marked)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert captured.out == want

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        rc = main(["--command", "radial", "--Ns", "8", "--out", str(out)])
        assert rc == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_invalid_config_exit(self, tmp_path, capsys):
        rc = main([write_config(tmp_path, "command=warp")])
        assert rc == 2
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--Ns", "3.5", "key 'Ns' expects an int, got '3.5'"),
        ("--R0", "wide", "key 'R0' expects a float, got 'wide'"),
    ])
    def test_bad_value_type_on_stderr(self, capsys, flag, value, message):
        rc = main(["--command", "radial", flag, value])
        assert rc == 2
        assert capsys.readouterr().err == f"invalid config: flag {flag}: {message}\n"

    def test_flag_without_value(self, capsys):
        rc = main(["--Ns"])
        assert rc == 2
        capsys.readouterr()

    def test_extra_positional(self, tmp_path, capsys):
        p = write_config(tmp_path, VERIFY_FLOWER)
        rc = main([p, "stray"])
        assert rc == 2
        capsys.readouterr()

    def test_flags_only_no_file(self, capsys):
        rc = main(["--command", "radial", "--geometry", "euclidean",
                   "--R0", "1.0", "--Ns", "8"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("record,name,r,value")
