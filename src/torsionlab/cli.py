"""Command-line frontend.

Runs are described by plain ``key=value`` config files; every key can also
be given (or overridden) on the command line as ``--key value``.  Five
commands cover the package surface:

    radial     closed-form ball solution samples plus functional catalog
    solve      discrete torsion solve: field values and Neumann trace
    verify     identity report for a discrete solve (exit 1 on failure)
    rigidity   Gauss-Newton descent of the Neumann-deviation objective
    sweep      J over a parametrized family of domains

Output is CSV or JSON (one object per row), written with full float
precision so identical configs produce byte-identical artifacts.

Exit codes: 0 success, 1 verdict failure, 2 invalid config (a ``radial``
catalog beyond the float range too), unreadable or non-UTF-8 config file,
or unwritable output, 3 solver non-convergence (for ``rigidity``: on the
start shape).
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
from itertools import groupby

import numpy as np

from .closed_form import radial_torsion_solution
from .discretization import (
    SolverConvergenceError,
    StarDomain,
    solve_torsion,
    neumann_trace,
)
from .functionals import compute_catalog, identity_report
from .geometry import GEOMETRIES, make_profile, sphere_area
from .rigidity import (NoFeasibleShapeError, ball_family, offset_family,
                       optimize_shape, sweep)

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

FORMATS = ("csv", "json")
FAMILIES = ("offset", "ball")

_COEFF_KEY = re.compile(r"^([ab])([1-9][0-9]?)$")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass
class RunConfig:
    command: str = ""
    geometry: str = "spherical"
    n: int = 2
    R0: float = math.pi / 4
    cos_coeffs: dict = field(default_factory=dict)   # harmonic index -> a_k
    sin_coeffs: dict = field(default_factory=dict)
    Ns: int = 64
    Ntheta: int = 128
    report_tol: float = 1e-2
    out: str | None = None
    format: str = "csv"
    modes: int = 2
    budget: int = 200
    family: str = "offset"
    family_values: tuple = (0.0, 0.05, 0.1, 0.2)

    def domain(self) -> StarDomain:
        K = max([0, *self.cos_coeffs.keys(), *self.sin_coeffs.keys()])
        a = tuple(self.cos_coeffs.get(k, 0.0) for k in range(1, K + 1))
        b = tuple(self.sin_coeffs.get(k, 0.0) for k in range(1, K + 1))
        return StarDomain(self.R0, a, b)

    def profile(self):
        return make_profile(self.geometry)


# Each RunConfig field with a plain default is a key, parsed as the type of
# that default; ``out`` (None) and ``family_values`` (split later) as text.
_SCALAR_KEYS = {f.name: type(f.default) if isinstance(f.default, (int, float))
                else str for f in fields(RunConfig) if f.default is not MISSING}


def _parse_value(caster: type, key: str, raw: str, where: str):
    try:
        return caster(raw)
    except ValueError:
        name = caster.__name__
        article = "an" if name[0] in "aeiou" else "a"
        raise ConfigError(f"{where}: key {key!r} expects {article} {name}, "
                          f"got {raw!r}") from None


def parse_config(text: str = "", overrides=()) -> RunConfig:
    """Parse a key=value config body plus (key, value) override pairs.

    Unknown keys, malformed values and violated module preconditions are
    all reported as ``ConfigError`` with the source line (or flag) named.
    """
    cfg = RunConfig()
    sources = {}

    def apply(key: str, raw: str, where: str):
        key = key.strip()
        raw = raw.strip()
        sources[key] = where
        m = _COEFF_KEY.match(key)
        if m is None and key not in _SCALAR_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        value = _parse_value(float if m else _SCALAR_KEYS[key], key, raw, where)
        if m:
            target = cfg.cos_coeffs if m.group(1) == "a" else cfg.sin_coeffs
            target[int(m.group(2))] = value
        elif key == "family_values":
            try:
                cfg.family_values = tuple(float(v) for v in value.split(","))
            except ValueError:
                raise ConfigError(
                    f"{where}: family_values expects comma-separated floats, "
                    f"got {value!r}") from None
        else:
            setattr(cfg, key, value)

    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected key=value, got {body!r}")
        key, raw = body.split("=", 1)
        apply(key, raw, f"config line {lineno}")

    for key, raw in overrides:
        apply(key, raw, f"flag --{key}")

    _validate(cfg, sources)
    return cfg


def _validate(cfg: RunConfig, sources: dict) -> None:
    def fail(message: str, *keys: str):
        # Name every listed key that was set, in parse order.
        places = [place for key, place in sources.items() if key in keys]
        raise ConfigError(f"{', '.join(places) or 'config'}: {message}") from None

    for key, choices in (("command", COMMANDS), ("geometry", GEOMETRIES),
                         ("format", FORMATS), ("family", FAMILIES)):
        value = getattr(cfg, key)
        if value not in choices:
            fail(f"{key} must be one of {choices}, got {value!r}", key)
    if cfg.n < 2:
        fail(f"n must be >= 2, got {cfg.n}", "n")
    if cfg.command != "radial" and cfg.n != 2:
        fail(f"command {cfg.command!r} runs the grid solver, which is "
             f"surface-only (n = 2); got n = {cfg.n}", "n")
    if not (cfg.R0 > 0 and math.isfinite(cfg.R0)):
        fail(f"R0 must be positive, got {cfg.R0}", "R0")
    if cfg.Ns < 8:
        fail(f"Ns must be at least 8, got {cfg.Ns}", "Ns")
    if cfg.Ntheta < 16 or cfg.Ntheta % 2:
        fail(f"Ntheta must be even and at least 16, got {cfg.Ntheta}", "Ntheta")
    if not (cfg.report_tol > 0):
        fail(f"report_tol must be positive, got {cfg.report_tol}", "report_tol")
    if not (1 <= cfg.modes <= 8):
        fail(f"modes must lie in 1..8, got {cfg.modes}", "modes")
    if cfg.budget < 50:
        fail(f"budget must be at least 50, got {cfg.budget}", "budget")

    r_max = cfg.profile().r_max
    # radial and an offset sweep use the ball of radius R0.
    if cfg.R0 >= r_max and (cfg.command == "radial"
                            or (cfg.command, cfg.family) == ("sweep", "offset")):
        fail(f"ball radius R0 = {cfg.R0} reaches the profile bound "
             f"r_max = {r_max:.10g}", "R0")
    # Only these commands build the domain of R0 and the coefficient keys.
    if cfg.command in ("solve", "verify", "rigidity"):
        try:
            domain = cfg.domain()
        except ValueError as exc:
            fail(str(exc), "R0", *filter(_COEFF_KEY.match, sources))
        if cfg.command == "rigidity" and any(domain.cos_coeffs[cfg.modes:]
                                             + domain.sin_coeffs[cfg.modes:]):
            fail(f"the start shape has a nonzero harmonic above modes = {cfg.modes}", "modes")
        if domain.max_radius >= r_max:
            fail(f"domain radius {domain.max_radius:.10g} reaches the "
                 f"profile bound r_max = {r_max:.10g}"
                 + (" (hemisphere cap)" if cfg.geometry == "spherical" else ""), "R0")
    if cfg.command == "sweep":
        # An offset member leaves through R0 + v.
        members = ("family_values", "R0") if cfg.family == "offset" else ("family_values",)
        for v in cfg.family_values:
            bound = v + cfg.R0 if cfg.family == "offset" else v
            if cfg.family == "offset" and not (0 <= v < cfg.R0):
                fail(f"offset {v} must lie in [0, R0)", "family_values")
            if cfg.family == "ball" and not (v > 0 and math.isfinite(v)):
                fail(f"ball radius {v} in family_values must be positive and finite",
                     "family_values")
            if bound >= r_max:
                fail(f"family member {v} leaves the profile bound r_max = {r_max:.10g}",
                     *members)


def _cell_spec(kind: type) -> str:
    """printf spec of one CSV cell of type ``kind``.

    Floats are written with 17 significant digits, which round-trip; bools
    and numpy scalars count as floats.  ``%.0s`` consumes None and writes
    nothing.
    """
    if kind is type(None):
        return "%.0s"
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, int) and not issubclass(kind, bool):
        return "%d"
    return "%.17g"


_encode = json.JSONEncoder(allow_nan=True).encode

class _Repeat:
    """One cell value written ``count`` times, as a column or a part of one."""

    __slots__ = ("value", "count")

    def __init__(self, value, count: int):
        self.value, self.count = value, count


class _Tile:
    """One column part written ``count`` times in a row, as a column or a
    part of one."""

    __slots__ = ("part", "count")

    def __init__(self, part, count: int):
        self.part, self.count = part, count


def _column_cells(name: str, column, cell) -> list:
    """Cells of one column; ``cell(kind)`` formats a value of type ``kind``.

    A 1-d float64 array is formatted once per distinct bit pattern, so 0.0
    and -0.0 stay apart, and a 1-d integer array once per distinct value;
    an array of any other dtype or shape raises ``TypeError``.  A
    ``_Repeat`` is formatted once, and so is the part of a ``_Tile``, whose
    cells are then repeated; a tuple is the concatenation of its parts.  A
    list is formatted cell by cell, with one formatter per run of one cell
    type.
    """
    if isinstance(column, _Repeat):
        return [cell(type(column.value))(column.value)] * column.count
    if isinstance(column, _Tile):
        return _column_cells(name, column.part, cell) * column.count
    if isinstance(column, tuple):
        cells = []
        for part in column:
            cells += _column_cells(name, part, cell)
        return cells
    if isinstance(column, np.ndarray):
        if column.ndim == 1 and column.dtype == np.float64:
            kind, keys = float, column.view(np.uint64)
        elif column.ndim == 1 and column.dtype.kind in "iu":
            kind, keys = int, column
        else:
            raise TypeError(f"column {name!r} is a {column.ndim}-d {column.dtype} "
                            f"array; the writer takes 1-d float64 or integer arrays")
        distinct, inverse = np.unique(keys, return_inverse=True)
        if kind is float:
            distinct = distinct.view(np.float64)
        text = list(map(cell(kind), distinct.tolist()))
        return np.array(text, dtype=object)[inverse].tolist()
    cells = []
    stop = 0
    for kind, run in groupby(map(type, column)):
        start, stop = stop, stop + len(list(run))
        cells += map(cell(kind), column[start:stop])
    return cells


def _emit(table: dict, cfg: RunConfig) -> None:
    """Write a table, column name -> column, as CSV or JSON.

    Every column has one cell per row.  A column is a list of cells, a 1-d
    float64 or integer array, a ``_Repeat`` of one cell, a ``_Tile`` of one
    part, or a tuple of such parts written one after another.  Both formats
    are put together column by column; JSON has the layout of
    ``json.dumps(rows, indent=2)``.
    """
    width = len(table)
    for k, (name, column) in enumerate(table.items()):
        if cfg.format == "csv":
            end = "," if k < width - 1 else "\n"
            cell = lambda kind: (_cell_spec(kind) + end).__mod__
        else:
            head = ("  {\n" if k == 0 else "") + f"    {_encode(name)}: "
            end = ",\n" if k < width - 1 else "\n  },\n"
            cell = lambda kind: lambda value: head + _encode(value) + end
        column_cells = _column_cells(name, column, cell)
        if k == 0:
            # Slot 0 holds the CSV header or the opening bracket, so that
            # one join builds the payload.
            cells = [None] * (1 + len(column_cells) * width)
            cells[0] = ",".join(table) + "\n" if cfg.format == "csv" else "[\n"
        cells[1 + k::width] = column_cells
    if cfg.format == "json":
        # The last row closes with "}" and the bracket instead of "},".
        cells[-1] = cells[-1][:-2] + "\n]\n" if len(cells) > 1 else "[]\n"
    payload = "".join(cells)
    if cfg.out is None:
        sys.stdout.write(payload)
    else:
        try:
            with open(cfg.out, "w", newline="") as sink:
                sink.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write output {cfg.out!r}: {exc}") from None


def _columns(records, names) -> dict:
    """Table of the attributes ``names`` of each record, one column per name."""
    return {name: [getattr(rec, name) for rec in records] for name in names}


def _run_radial(cfg: RunConfig) -> int:
    sol = radial_torsion_solution(cfg.profile(), cfg.n, cfg.R0)
    radii = cfg.R0 * (np.arange(1, cfg.Ns + 1) - 0.5) / cfg.Ns
    samples = np.stack([sol.u(radii), sol.u_r(radii)], axis=1).ravel().tolist()
    # h^(n-1) or, at the quadrature node nearest the pole, (n-1)/h leaves the
    # float range on some balls: refuse them, not write non-finite cells.
    # So does |S^(n-1)|, which scales every integral: subnormal from n = 439,
    # it would write lost digits, and from n = 456, zeros.
    try:
        if sphere_area(cfg.n) < sys.float_info.min:
            raise ArithmeticError
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            catalog = compute_catalog(sol).as_dict()
        if not all(map(math.isfinite, catalog.values())):
            raise OverflowError
    except (ArithmeticError, ValueError):   # ValueError: a node underflows to 0
        raise ConfigError(f"the catalog of the ball R0 = {cfg.R0} in dimension "
                          f"n = {cfg.n} leaves the float range") from None
    _emit({"record": ["sample"] * len(samples) + ["catalog"] * len(catalog),
           "name": ["u", "u_r"] * cfg.Ns + list(catalog),
           "r": np.repeat(radii, 2).tolist() + [None] * len(catalog),
           "value": samples + list(catalog.values())}, cfg)
    return 0


def _run_solve(cfg: RunConfig) -> int:
    field_ = solve_torsion(cfg.profile(), cfg.domain(), cfg.Ns, cfg.Ntheta)
    grid = field_.grid
    values, weights = neumann_trace(field_)
    ns, nt = grid.ns, grid.ntheta
    # Node rows ring by ring, then one Neumann row per boundary angle.
    _emit({"record": (_Repeat("node", grid.size), _Repeat("neumann", nt)),
           "j": (np.repeat(np.arange(ns), nt), _Repeat(None, nt)),
           "i": _Tile(np.arange(nt), ns + 1),
           "theta": _Tile(grid.theta, ns + 1),
           "r": np.concatenate([grid.r.ravel(), grid.rho]),
           "value": np.concatenate([field_.values.ravel(), values]),
           "weight": (_Repeat(None, grid.size), weights)}, cfg)
    return 0


def _run_verify(cfg: RunConfig) -> int:
    field_ = solve_torsion(cfg.profile(), cfg.domain(), cfg.Ns, cfg.Ntheta)
    report = identity_report(compute_catalog(field_), cfg.report_tol)
    _emit(_columns(report.records, ["label", "hypothesis_class", "lhs", "rhs",
                                    "abs_residual", "rel_residual", "verdict"]),
          cfg)
    return 0 if report.all_applicable_pass else 1


def _run_rigidity(cfg: RunConfig) -> int:
    trace = optimize_shape(cfg.domain(), cfg.modes, cfg.profile(), cfg.budget,
                           cfg.Ns, cfg.Ntheta)
    rows = trace.rows
    table = _columns(rows, ["index", "evaluations", "j", "spread", "r0"])
    for k in range(cfg.modes):
        table[f"a{k + 1}"] = [row.cos_coeffs[k] for row in rows]
    for k in range(cfg.modes):
        table[f"b{k + 1}"] = [row.sin_coeffs[k] for row in rows]
    # The status is written on the last row only.
    table["status"] = [None] * len(rows)
    if rows:
        table["status"][-1] = trace.status
    _emit(table, cfg)
    return 0


def _run_sweep(cfg: RunConfig) -> int:
    profile = cfg.profile()
    if cfg.family == "offset":
        family = offset_family(cfg.R0, cfg.family_values)
    else:
        family = ball_family(cfg.family_values)
    table = sweep(family, profile, cfg.Ns, cfg.Ntheta)
    _emit(_columns(table, ["parameter", "j", "c_mean", "c_std", "status"]), cfg)
    return 0


_RUNNERS = {
    "radial": _run_radial,
    "solve": _run_solve,
    "verify": _run_verify,
    "rigidity": _run_rigidity,
    "sweep": _run_sweep,
}
COMMANDS = tuple(_RUNNERS)


def run(cfg: RunConfig) -> int:
    # The config check keeps a descent's start shape valid, so a descent with
    # no feasible shape is one whose start solve failed.
    try:
        return _RUNNERS[cfg.command](cfg)
    except (SolverConvergenceError, NoFeasibleShapeError) as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    path = None
    overrides = []
    k = 0
    while k < len(argv):
        token = argv[k]
        if token.startswith("--"):
            if k + 1 >= len(argv):
                print(f"flag {token} is missing a value", file=sys.stderr)
                return 2
            overrides.append((token[2:], argv[k + 1]))
            k += 2
        elif path is None:
            path = token
            k += 1
        else:
            print(f"unexpected positional argument {token!r}", file=sys.stderr)
            return 2

    text = ""
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read config file {path!r}: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = parse_config(text, overrides)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
