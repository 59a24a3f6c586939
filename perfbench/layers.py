"""Where the traced run puts its spans, and the per-layer metrics it derives.

Layers are the package modules ``cli``, ``rigidity``, ``functionals``,
``discretization`` and ``closed_form``; ``geometry`` is only called from
inside them and shows up in their self time.  Each entry below wraps one
imported name in the namespace of the module that calls it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from torsionlab import cli, closed_form, discretization, functionals, rigidity

from tracing import Tracer


def _solve_probe(field):
    return {"iterations": field.iterations, "residual": field.residual}


def _descent_probe(trace):
    return {"evaluations": trace.evaluations, "rows": len(trace.rows)}


# (namespace, imported name, span name, probe)
SPANS = (
    (cli, "main", "cli.main", None),
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "optimize_shape", "rigidity.optimize_shape", _descent_probe),
    (cli, "compute_catalog", "functionals.compute_catalog", None),
    (cli, "identity_report", "functionals.identity_report", None),
    (cli, "neumann_trace", "discretization.neumann_trace", None),
    (rigidity, "neumann_deviation", "rigidity.neumann_deviation", None),
    (rigidity, "neumann_trace", "discretization.neumann_trace", None),
    (discretization, "build_grid", "discretization.build_grid", None),
    (discretization, "assemble", "discretization.assemble",
     lambda system: {"nnz": system.matrix.nnz}),
    (discretization, "solve", "discretization.solve", _solve_probe),
    (functionals, "gradient_field", "discretization.gradient_field", None),
    (functionals, "scalar_gradient", "discretization.scalar_gradient", None),
    (functionals, "neumann_trace", "discretization.neumann_trace", None),
    (functionals, "integrate", "discretization.integrate", None),
    (closed_form, "radial_functionals", "closed_form.radial_functionals", None),
    (closed_form, "quad", "closed_form.quad", None),
    (closed_form, "bochner_residual", "closed_form.pointwise", None),
    (closed_form, "pohozaev_pointwise_residual", "closed_form.pointwise", None),
    (closed_form, "newton_equality_check", "closed_form.pointwise", None),
)

# Per-layer metric -> unit.  Each is a total over one pass of the workload;
# see ``summarize`` for how passes are combined.
METRICS = {
    "discretization.solve.s": "s",
    "discretization.solve.calls": "count",
    "discretization.solve.iterations": "count",
    "discretization.solve.residual_max": "ratio",
    "discretization.solve.failed": "count",
    "discretization.assemble.s": "s",
    "discretization.assemble.calls": "count",
    "discretization.assemble.nnz": "count",
    "discretization.build_grid.s": "s",
    "discretization.gradient_field.s": "s",
    "discretization.scalar_gradient.s": "s",
    "discretization.neumann_trace.s": "s",
    "discretization.integrate.calls": "count",
    "functionals.compute_catalog.self_s": "s",
    "functionals.identity_report.s": "s",
    "rigidity.neumann_deviation.calls": "count",
    "rigidity.neumann_deviation.s": "s",
    "rigidity.optimize_shape.self_s": "s",
    "rigidity.useful_frac": "ratio",
    "rigidity.infeasible_evals": "count",
    "closed_form.radial_functionals.self_s": "s",
    "closed_form.quad.calls": "count",
    "closed_form.quad.s": "s",
    "closed_form.pointwise.calls": "count",
    "closed_form.pointwise.s": "s",
    "cli.parse_config.s": "s",
    "cli.main.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def install(tracer: Tracer) -> None:
    for namespace, attr, name, probe in SPANS:
        tracer.wrap(namespace, attr, name, probe)


def layer_metrics(spans, own, indices, out_bytes: int, span_cost: float) -> dict:
    """Per-layer totals over ``spans[i]`` for ``i`` in ``indices``, one pass.

    ``own`` holds the self time of every span (``tracing.self_times``).
    """
    total = defaultdict(float)
    own_total = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(list)
    for index in indices:
        span = spans[index]
        total[span.name] += span.duration
        own_total[span.name] += own[index]
        calls[span.name] += 1
        info[span.name].append((index, span.info))

    def infos(name, key):
        return [i.get(key, 0) for _, i in info[name]]

    # An evaluation is infeasible when it never reached a successful solve:
    # the shape was invalid, or neumann_deviation raised.
    feasible = sum(1 for index, i in info["rigidity.neumann_deviation"]
                   if not i.get("failed") and spans[index].parent is not None
                   and spans[spans[index].parent].name == "rigidity.optimize_shape")
    evaluations = sum(infos("rigidity.optimize_shape", "evaluations"))
    rows = sum(infos("rigidity.optimize_shape", "rows"))
    roots = [spans[i] for i in indices if spans[i].parent is None]
    wall = (max(s.end for s in roots) - min(s.start for s in roots)) if roots else 0.0

    values = {
        "discretization.solve.s": total["discretization.solve"],
        "discretization.solve.calls": calls["discretization.solve"],
        "discretization.solve.iterations": sum(infos("discretization.solve", "iterations")),
        "discretization.solve.residual_max": max(infos("discretization.solve", "residual"),
                                                 default=0.0),
        "discretization.solve.failed": sum(infos("discretization.solve", "failed")),
        "discretization.assemble.s": total["discretization.assemble"],
        "discretization.assemble.calls": calls["discretization.assemble"],
        "discretization.assemble.nnz": sum(infos("discretization.assemble", "nnz")),
        "discretization.build_grid.s": total["discretization.build_grid"],
        "discretization.gradient_field.s": total["discretization.gradient_field"],
        "discretization.scalar_gradient.s": total["discretization.scalar_gradient"],
        "discretization.neumann_trace.s": total["discretization.neumann_trace"],
        "discretization.integrate.calls": calls["discretization.integrate"],
        "functionals.compute_catalog.self_s": own_total["functionals.compute_catalog"],
        "functionals.identity_report.s": total["functionals.identity_report"],
        "rigidity.neumann_deviation.calls": calls["rigidity.neumann_deviation"],
        "rigidity.neumann_deviation.s": total["rigidity.neumann_deviation"],
        "rigidity.optimize_shape.self_s": own_total["rigidity.optimize_shape"],
        "rigidity.useful_frac": rows / evaluations if evaluations else 0.0,
        "rigidity.infeasible_evals": evaluations - feasible,
        "closed_form.radial_functionals.self_s": own_total["closed_form.radial_functionals"],
        "closed_form.quad.calls": calls["closed_form.quad"],
        "closed_form.quad.s": total["closed_form.quad"],
        "closed_form.pointwise.calls": calls["closed_form.pointwise"],
        "closed_form.pointwise.s": total["closed_form.pointwise"],
        "cli.parse_config.s": total["cli.parse_config"],
        "cli.main.self_s": own_total["cli.main"],
        "cli.out_bytes": out_bytes,
        "trace.spans": len(indices),
        "trace.overhead_frac": len(indices) * span_cost / wall if wall else 0.0,
    }
    return values


def summarize(per_pass: list) -> dict:
    """Times: median over passes.  Counts and ratios: the first pass.

    Every pass repeats the seed's study, so the counts of the first pass
    repeat exactly in every run with the same seed.
    """
    out = {}
    for name, unit in METRICS.items():
        if unit == "s" or name == "trace.overhead_frac":
            value = statistics.median(p[name] for p in per_pass)
        else:
            value = per_pass[0][name]
        out[name] = {"value": value, "unit": unit}
    return out
