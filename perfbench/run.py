"""torsionlab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload ball_solve --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
client calls ``torsionlab.cli.main`` in-process and starts each op only
after the previous one has returned.  The seed fixes the workload's study,
one input from every stratum of the workload, and the run repeats that same
study in passes; a new pass starts only while one more pass of median length
fits in ``--seconds``, and the first pass always runs.  Every op's output is
checked after the timed loop.  The gated times are paced against fixed
reference work (``pace.py``).  The exit code is 0 whenever the result line
is printed; failed ops show in it as ``correct: false``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a run with spans around every layer
boundary.  The line before it holds the environment and the metrics that
apply to one workload only.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# The first pass must finish by then so a run ends well inside 180 s.
FIRST_PASS_LIMIT_S = 140
MAX_FAILURES_SHOWN = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(pace) -> list:
    """(probe seconds, reference seconds just before it) for each probe."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_PROBES):
        reference = pace.reference_time()
        done = subprocess.run([sys.executable, os.path.join(HERE, "probe.py")],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append((float(done.stdout.strip().splitlines()[-1]), reference))
    return samples


def _blas_threads():
    """OpenBLAS thread count of the library numpy loaded, if it can be asked."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    """HEAD of the checkout's git repository, or None outside one."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "torsionlab", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def run_loop(workloads, workload, seed, seconds, workdir, profiles, tracer, pacer):
    """Run whole passes of the seed's study; returns the op records and the
    time of each pass."""
    study = workloads.study(workload, seed)
    records = []
    passes = []
    begin = time.perf_counter()
    deadline = begin + seconds
    while not passes or time.perf_counter() + statistics.median(passes) <= deadline:
        first = len(records)
        for params in study:
            if not passes and time.perf_counter() - begin > FIRST_PASS_LIMIT_S:
                raise RuntimeError(f"the first pass did not finish within "
                                   f"{FIRST_PASS_LIMIT_S} s")
            records.append(run_one(workloads, workload, len(records), params, workdir,
                                   profiles, tracer, pacer))
        passes.append(records[-1]["end"] - records[first]["start"])
    return records, passes


def run_one(workloads, workload, index, params, workdir, profiles, tracer, pacer):
    path = os.path.join(workdir, f"op{index}.out")
    if tracer is not None:
        tracer.op = index
    error = extra = code = None
    reference = pacer.before_op()
    start = time.perf_counter()
    try:
        code, extra = workloads.run_op(workload, params, path, profiles)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return {"params": params, "path": path, "code": code, "extra": extra,
            "error": error, "start": start, "end": end, "reference": reference}


def check_records(workloads, workload, records, profiles):
    """Check every op; returns (failed count, per-workload accuracy figures)."""
    failed = 0
    figures = {}
    for index, rec in enumerate(records):
        problem = rec["error"]
        if problem is None and rec["code"] != 0:
            problem = f"exit code {rec['code']}"
        if problem is None:
            try:
                found = workload.check(rec["params"], rec["path"], rec["extra"], profiles)
            except (workloads.CheckFailed, OSError, KeyError, IndexError, ValueError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            else:
                for key, value in found.items():
                    figures[key] = max(figures.get(key, value), value)
        if problem is not None:
            failed += 1
            if failed <= MAX_FAILURES_SHOWN:
                print(f"op {index} failed ({rec['params']}): {problem}", file=sys.stderr)
    if failed > MAX_FAILURES_SHOWN:
        print(f"... {failed - MAX_FAILURES_SHOWN} more failed ops", file=sys.stderr)
    return failed, figures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "torsionlab", "cli.py")):
        print(f"perfbench: no torsionlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import pace
    setup = [] if args.trace else measure_setup(pace)

    import layers
    import stats
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    profiles = workloads.build_profiles()
    env = environment()

    tracer = None
    cost = 0.0
    if args.trace:
        cost = tracing.span_cost()
        tracer = tracing.Tracer()
        layers.install(tracer)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        try:
            records, passes = run_loop(workloads, workload, args.seed, args.seconds,
                                       workdir, profiles, tracer, pace.Pacer())
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        finally:
            if tracer is not None:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, figures = check_records(workloads, workload, records, profiles)
        out_bytes = [os.path.getsize(r["path"]) if os.path.exists(r["path"]) else 0
                     for r in records]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    latencies = [r["end"] - r["start"] for r in records]
    references = [r["reference"] for r in records]
    paced = [pace.paced(t, ref) for t, ref in zip(latencies, references)]
    k = len(records) // len(passes)
    report = {"ops": len(records), "passes": len(passes), "ops_per_pass": k,
              "failed_frac": {"value": failed / len(records), "unit": "ratio"}}
    for key, value in figures.items():
        report[key] = {"value": value, "unit": "ratio"}
    if args.trace:
        # Same statistic as the untraced wall_s, for the tracing overhead.
        report["traced_wall_s"] = {"value": stats.study_time(paced, k), "unit": "s"}
        report["span_cost_s"] = {"value": cost, "unit": "s"}
        own = tracing.self_times(tracer.spans)
        by_pass = [[] for _ in passes]
        for i, span in enumerate(tracer.spans):
            by_pass[span.op // k].append(i)
        metrics = layers.summarize([
            layers.layer_metrics(tracer.spans, own, indices,
                                 sum(out_bytes[p * k:(p + 1) * k]), cost)
            for p, indices in enumerate(by_pass)])
    else:
        tail = stats.tail(latencies)
        if tail is not None:
            p, value, beyond = tail
            report["op_s.tail"] = {"value": value, "unit": "s", "percentile": p,
                                   "samples": len(latencies), "beyond": beyond}
        report["op_s.p50"] = {"value": statistics.median(latencies), "unit": "s"}
        report["pass_s.p50"] = {"value": statistics.median(passes), "unit": "s"}
        report["pass_s.min"] = {"value": min(passes), "unit": "s"}
        report["reference_s.p50"] = {"value": statistics.median(references), "unit": "s"}
        report["setup_s.samples"] = [probe for probe, _ in setup]
        report["setup_s.references"] = [reference for _, reference in setup]
        metrics = {
            "setup_s": {"value": statistics.median(pace.paced(*s) for s in setup),
                        "unit": "s"},
            "wall_s": {"value": stats.study_time(paced, k), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      "environment": env, "report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
