"""Command-line interface: converge, run, bench and check subcommands."""

import argparse
import json
import math
import os
import sys

import numpy as np

from .discretization import Discretization
from .errors import ErrorAccumulator
from .io import (load_config, problem_from_config, write_convergence_csv,
                 write_snapshot_csv, write_snapshot_vtk)
from .mesh import build_uniform_square_mesh, read_mesh_text
from .postprocess import Postprocessor
from .problems import get_example
from .solver import EnsembleSolver, check_admissibility
from .study import (benchmark_ensemble_vs_separate, convergence_study,
                    resolve_dt_rule)


def _parse_levels(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _add_common(p):
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--example", type=int, choices=(1, 2, 3),
                   help="built-in example ensemble")
    p.add_argument("--degree", type=int, default=None,
                   help="polynomial degree k (default 1)")
    p.add_argument("--levels", default=None,
                   help="mesh levels, e.g. 1..5 or 3 (n = 2^level)")
    p.add_argument("--dt-rule", default=None, dest="dt_rule",
                   help="h, h3 or fixed=<value>")
    p.add_argument("--T", type=float, default=None,
                   help="final time (defaults to the problem's)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--strict-admissibility", action="store_true",
                   dest="strict_admissibility")
    p.add_argument("--mesh-file", dest="mesh_file",
                   help="plain-text mesh overriding --levels (run/check)")
    p.add_argument("--snapshot", default=None,
                   help="none, final or every=<m> (run only)")


def _merge(args):
    cfg = load_config(args.config) if args.config else {}
    merged = dict(cfg)
    for key in ("example", "degree", "levels", "dt_rule", "T",
                "mesh_file", "snapshot"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if args.strict_admissibility:
        merged["strict_admissibility"] = True
    merged.setdefault("degree", 1)
    merged.setdefault("dt_rule", "h")
    merged["out"] = args.out
    return merged


def _problem(merged):
    if "custom" in merged:
        return problem_from_config(merged)
    return get_example(merged.get("example", 1))


def _levels(merged, default="1..4"):
    raw = merged.get("levels", default)
    return _parse_levels(raw) if isinstance(raw, str) else raw


def cmd_converge(args):
    merged = _merge(args)
    problem = _problem(merged)
    if not problem.has_exact:
        print("error: convergence study needs a problem with exact "
              "solutions (examples 1 and 2)", file=sys.stderr)
        return 2
    levels = _levels(merged)
    table = convergence_study(
        problem, merged["degree"], levels, merged["dt_rule"],
        T=merged.get("T"),
        strict_admissibility=merged.get("strict_admissibility", False))
    os.makedirs(merged["out"], exist_ok=True)
    path = os.path.join(
        merged["out"],
        f"convergence_{problem.name}_k{merged['degree']}.csv")
    write_convergence_csv(table, path)
    print(table)
    print(f"wrote {path}")
    return 0


def cmd_run(args):
    merged = _merge(args)
    problem = _problem(merged)
    degree = merged["degree"]
    T = merged.get("T") or problem.default_T
    if merged.get("mesh_file"):
        mesh = read_mesh_text(merged["mesh_file"])
        h = mesh.h_max
    else:
        level = _levels(merged, default="4")[-1]
        mesh = build_uniform_square_mesh(2 ** level)
        h = math.sqrt(2.0) / 2 ** level
    dt = resolve_dt_rule(merged["dt_rule"], h, T)
    disc = Discretization(mesh, degree)
    solver = EnsembleSolver(
        disc, problem, dt=dt,
        strict_admissibility=merged.get("strict_admissibility", False))
    N = int(round(T / dt))

    observers = []
    acc = None
    if problem.has_exact:
        acc = ErrorAccumulator(disc, problem, dt, final_step=N)
        observers.append(acc)

    os.makedirs(merged["out"], exist_ok=True)
    snap = merged.get("snapshot") or "none"
    post = Postprocessor(disc)

    def write_snap(state, tag):
        c_vals = np.stack([disc.sample_scalar(m.c, state.t, "data")
                           for m in problem.members])
        star = post.apply(state.u, state.q, c_vals)
        base = os.path.join(merged["out"],
                            f"snapshot_{problem.name}_{tag}")
        write_snapshot_csv(disc, state, base + ".csv", postprocessed=star)
        write_snapshot_vtk(disc, state, base + ".vtk", postprocessed=star)

    if snap.startswith("every="):
        stride = int(snap.split("=", 1)[1])
        observers.append(lambda n, t, state: (
            write_snap(state, f"n{n:06d}") if n % stride == 0 else None))

    state = solver.run(T, observers=observers)
    print(f"ran {N} steps (dt={dt:.6g}) on {mesh.n_elements} elements; "
          f"{solver.n_factorizations} factorization(s)")
    if acc is not None:
        res = acc.results()
        for j in range(problem.J):
            print(f"member {j + 1}: Eu={res['Eu'][j]:.6e} "
                  f"Eq={res['Eq'][j]:.6e} Eustar={res['Eustar'][j]:.6e}")
    if snap in ("final",) or snap.startswith("every="):
        write_snap(state, "final")
        print(f"snapshot(s) written to {merged['out']}")
    return 0


def cmd_bench(args):
    merged = _merge(args)
    problem = _problem(merged)
    level = _levels(merged, default="4")[-1]
    T = merged.get("T") or problem.default_T
    dt = resolve_dt_rule(merged["dt_rule"], math.sqrt(2.0) / 2 ** level, T)
    report = benchmark_ensemble_vs_separate(problem, merged["degree"], level,
                                            dt, T)
    os.makedirs(merged["out"], exist_ok=True)
    path = os.path.join(merged["out"], f"bench_{problem.name}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"ensemble: {report['t_ensemble']:.3f}s with "
          f"{report['factorizations_ensemble']} factorization(s)")
    print(f"separate: {report['t_separate_total']:.3f}s total with "
          f"{report['factorizations_separate']} factorization(s)")
    print(f"ratio ensemble/separate = {report['ratio']:.3f}")
    print(f"wrote {path}")
    return 0


def cmd_check(args):
    merged = _merge(args)
    problem = _problem(merged)
    T = merged.get("T") or problem.default_T
    if merged.get("mesh_file"):
        mesh = read_mesh_text(merged["mesh_file"])
        h = mesh.h_max
    else:
        level = _levels(merged, default="3")[-1]
        mesh = build_uniform_square_mesh(2 ** level)
        h = math.sqrt(2.0) / 2 ** level
    dt = resolve_dt_rule(merged["dt_rule"], h, T)
    N = int(round(T / dt))
    times = [0.0] if problem.autonomous else [i * dt for i in range(N + 1)]
    report = check_admissibility(problem, mesh, times)
    print(report)
    for j, n, x, y in report.violations[:10]:
        print(f"  member {j + 1} at t_{n}, point ({x:.4f}, {y:.4f})")
    if not report.ok and merged.get("strict_admissibility"):
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ensemble-hdg",
        description="Ensemble HDG solver for parameterized "
                    "convection-diffusion equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, helptext in (
            ("converge", cmd_converge, "convergence-rate study -> CSV"),
            ("run", cmd_run, "single simulation, errors and snapshots"),
            ("bench", cmd_bench, "ensemble vs separate-runs benchmark"),
            ("check", cmd_check, "ensemble-mean admissibility check")):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
