"""Config parsing, command dispatch, serialization and exit codes."""

import io
import json
import math

import numpy as np
import pytest

import torsionlab.cli as cli
from torsionlab import neumann_trace, solve_torsion
from torsionlab.cli import ConfigError, RunConfig, main, parse_config, run
from torsionlab.cli import _format_cell


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

    def test_odd_ntheta_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            parse_config("command=solve\nNtheta=15")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"config line 2.*frobnicate"):
            parse_config("command=solve\nfrobnicate=1")

    def test_seed_is_not_a_key(self):
        with pytest.raises(ConfigError, match=r"config line 2.*seed"):
            parse_config("command=solve\nseed=1")

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

    def test_grid_commands_are_surface_only(self):
        with pytest.raises(ConfigError, match="n = 3"):
            parse_config("command=solve\nn=3")
        cfg = parse_config("command=radial\nn=3")
        assert cfg.n == 3

    def test_scalar_bounds(self):
        for body, pattern in [
            ("command=walk", "command"),
            ("command=solve\ngeometry=flat", "geometry"),
            ("command=solve\nR0=-1", "R0"),
            ("command=solve\nNs=4", "Ns"),
            ("command=solve\ntol=0", "tol"),
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

    def test_solver_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg = ("command=solve\ngeometry=euclidean\nR0=1.0\nNs=8\nNtheta=16\n"
               "tol=1e-30")
        rc = main([write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "converge" in captured.err

    def test_descent_with_no_solvable_shape_exit_code(self, capsys):
        rc = main(["--command", "rigidity", "--tol", "1e-30", "--Ns", "8",
                   "--Ntheta", "16", "--budget", "50"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "no feasible shape" in captured.err


class TestSerialization:
    def test_full_precision_cells(self):
        assert _format_cell(math.pi) == "3.1415926535897931"
        assert float(_format_cell(math.pi)) == math.pi
        assert float(_format_cell(1.0 / 3.0)) == 1.0 / 3.0
        assert _format_cell(7) == "7"
        assert _format_cell(None) == ""
        assert _format_cell("pass") == "pass"

    def test_byte_determinism(self, tmp_path):
        path = write_config(tmp_path, VERIFY_FLOWER)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main([path, "--out", out1]) == 0
        assert main([path, "--out", out2]) == 0
        first = open(out1, "rb").read()
        assert first == open(out2, "rb").read()
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
            assert [_format_cell(v) for v in row.values()] == line.split(",")

    def test_out_file_and_quiet_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, VERIFY_FLOWER)
        target = str(tmp_path / "report.csv")
        rc = main([path, "--out", target])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        assert open(target).read().startswith("label,")


# The writer before tuple rows and cached line templates: one dict per row,
# one formatted cell at a time.  Every command's bytes must stay the same.
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


def reference_solve_rows(cfg):
    field_ = solve_torsion(cfg.profile(), cfg.domain(), cfg.Ns, cfg.Ntheta,
                           tol=cfg.tol)
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


class TestWriterBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("text", [SOLVE_BALL, SOLVE_FLOWER], ids=["ball", "star"])
    def test_solve_matches_reference(self, tmp_path, fmt, text):
        path = write_config(tmp_path, text)
        out = str(tmp_path / "out")
        assert main([path, "--format", fmt, "--out", out]) == 0
        cfg = parse_config(text, [("format", fmt)])
        columns = ["record", "j", "i", "theta", "r", "value", "weight"]
        want = reference_payload(reference_solve_rows(cfg), columns, fmt)
        assert open(out, newline="").read() == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("text", [RADIAL, VERIFY_FLOWER, RIGIDITY],
                             ids=["radial", "verify", "rigidity"])
    def test_commands_match_reference(self, tmp_path, monkeypatch, fmt, text):
        emitted = []
        emit = cli._emit

        def capture(rows, columns, cfg):
            emitted.append((list(rows), list(columns)))
            emit(rows, columns, cfg)

        monkeypatch.setattr(cli, "_emit", capture)
        path = write_config(tmp_path, text)
        out = str(tmp_path / "out")
        assert main([path, "--format", fmt, "--out", out]) in (0, 1)
        (rows, columns), = emitted
        assert all(isinstance(row, tuple) and len(row) == len(columns) for row in rows)
        want = reference_payload([dict(zip(columns, row)) for row in rows], columns, fmt)
        assert open(out, newline="").read() == want

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
        out = str(tmp_path / "out")
        cli._emit(rows, columns, RunConfig(format=fmt, out=out))
        want = reference_payload([dict(zip(columns, row)) for row in rows], columns, fmt)
        assert open(out, newline="").read() == want
        cells = [v for row in rows for v in row] + [np.int64(4), np.int64(-2)]
        assert [_format_cell(v) for v in cells] == [reference_cell(v) for v in cells]


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

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        rc = main(["--command", "radial", "--Ns", "8", "--out", str(out)])
        assert rc == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_invalid_config_exit(self, tmp_path, capsys):
        rc = main([write_config(tmp_path, "command=warp")])
        assert rc == 2
        assert "invalid config" in capsys.readouterr().err

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
