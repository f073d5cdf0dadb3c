"""Benchmark of the ensemble HDG solver: one workload per run.

    python3 bench/run.py --workload march --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Imports ensemble_hdg from the src/ directory of the checkout that holds
this file, runs a tiny warm-up, then repeats whole passes of the workload
while the next pass is expected to end within --seconds (at least one
pass; two in a traced run).  Every pass is checked by the workload's
correctness gate.  The last line of standard output is one JSON object:
with --trace 0 the end-to-end metrics, medians over the passes; with
--trace 1 the per-layer metrics of the traced passes, which alternate with
untraced ones so that the tracing overhead is measured in the same run.
The line before it records the environment, sizes and every pass.
Spans of the traced passes are written to bench/out/.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("march", "converge", "refactor")


def import_library():
    """Put the checkout's src/ first on the path; fail without it, so that
    an installed copy of the package is never measured instead."""
    if not (SRC / "ensemble_hdg" / "__init__.py").is_file():
        sys.exit(f"benchmark: no ensemble_hdg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # one BLAS thread: on a shared two-core machine a second one made the
    # run-to-run spread wider without making a step faster
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def openblas_threads(numpy):
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy
    import sympy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": openblas_threads(numpy),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes):
    """Medians over passes; errors are the max over members.  Peak memory
    is the high-water mark at the end of the first pass: later passes need
    no more, and only add allocator fragmentation that varies run to run."""
    first = passes[0]
    med = {key: statistics.median(p[key] for p in passes)
           for key in ("wall_s", "setup_s")}
    med["step_ms"] = statistics.median(
        1e3 * p["run_s"] / p["steps"] for p in passes)
    metrics = {"wall_s": (med["wall_s"], "s"),
               "setup_s": (med["setup_s"], "s"),
               "step_ms": (med["step_ms"], "ms"),
               "peak_rss_mb": (first["peak_rss_mb"], "MiB")}
    for name, key in (("err_u", "Eu"), ("err_q", "Eq"),
                      ("err_ustar", "Eustar")):
        metrics[name] = (max(first["errors"][key]), "L2")
    return metrics


def per_layer(traced, untraced):
    """Medians over the traced passes of every span and count."""
    from tracing import SPAN_NAMES

    metrics = {}
    for name in SPAN_NAMES:
        for field, unit in (("s", "s"), ("self_s", "s"), ("calls", "count")):
            metrics[f"{name}.{field}"] = (statistics.median(
                p["spans"][name][field] for p in traced), unit)
    last = traced[-1]
    counts = {"trace_system.factorizations": sum(last["factorizations"]),
              "trace_system.lu_fill_nnz": last["lu_fill_nnz"],
              "trace_system.dofs": last["sizes"]["trace_dofs"],
              "solver.steps": last["sizes"]["steps"],
              "solver.members": last["sizes"]["J"]}
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["bench.tracing_overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced), "s")
    return metrics


def measure(workload, size, seed, seconds, trace):
    from tracing import Tracer
    from workloads import TINY, WORKLOADS, gate, load_reference

    run = WORKLOADS[workload]
    reference = load_reference()
    run(TINY[workload], seed)  # imports, lazy tables and sympy caches
    passes, spans = [], []
    start = time.perf_counter()
    last = 0.0
    while (not passes or (trace and len(passes) < 2)
           or time.perf_counter() - start + last <= seconds):
        t = time.perf_counter()
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        result = run(size, seed, tracer.installed() if tracer
                     else contextlib.nullcontext())
        result["traced"] = tracer is not None
        result["peak_rss_mb"] = peak_rss_mb()
        result["failures"] = gate(workload, size, result, reference)
        if tracer is not None:
            result["spans"] = tracer.summary()
            result["lu_fill_nnz"] = tracer.lu_fill_nnz[-1]
            spans.append(tracer.columns())
        passes.append(result)
        last = time.perf_counter() - t
    return passes, spans


def report(workload, size, seed, seconds, trace):
    """Measure one workload: (info line, result line, spans per pass)."""
    passes, spans = measure(workload, size, seed, seconds, trace)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced)
    steps_ms = [1e3 * s for p in untraced for s in p["step_samples_s"]]
    info = {
        "workload": workload, "size": size, "seed": seed,
        "seconds": seconds, "trace": trace,
        "env": environment(), "sizes": passes[-1]["sizes"],
        "errors": passes[-1]["errors"], "rates": passes[-1].get("rates"),
        "passes": [{key: p[key] for key in
                    ("traced", "wall_s", "setup_s", "run_s", "failures")}
                   for p in passes],
    }
    if len(steps_ms) > 1:
        info["step_ms_samples"] = len(steps_ms)
        info["step_ms_p50"] = statistics.median(steps_ms)
        info["step_ms_p90"] = statistics.quantiles(steps_ms, n=10)[-1]
    failed = sum(1 for p in passes if p["failures"])
    result = {"correct": failed == 0, "attempted": len(passes),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return info, result, spans


def run_one(args):
    import_library()
    from workloads import FULL

    info, result, spans = report(args.workload, FULL[args.workload],
                                 args.seed, args.seconds, args.trace)
    if spans:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"traced_passes": spans}))
        info["trace_file"] = str(path.relative_to(HERE.parent))
    for p in info["passes"]:
        for msg in p["failures"]:
            print(f"benchmark: {args.workload}: {msg}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    ok = True
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
