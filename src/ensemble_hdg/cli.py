"""Command-line interface: converge, run, bench and check subcommands."""

import argparse
import json
import math
import os
import sys

from .discretization import Discretization
from .errors import ErrorAccumulator
from .io import (final_time, load_config, problem_from_config,
                 write_convergence_csv, write_snapshot_csv,
                 write_snapshot_vtk)
from .mesh import build_uniform_square_mesh, read_mesh_text
from .postprocess import Postprocessor
from .solver import EnsembleSolver, check_admissibility
from .study import (benchmark_ensemble_vs_separate, convergence_study,
                    resolve_dt_rule)


_CONFIG_HELP = (
    "A --config file's [run] section sets flags by their long names, with "
    "underscores: every subcommand reads example, degree, levels, dt_rule, "
    "T and out; converge, run and check also read strict_admissibility; "
    "run and check mesh_file; run snapshot.  A key the subcommand does "
    "not read is an error.  A [custom] section defines a "
    "constant-coefficient ensemble in place of the example.")


def _parse_levels(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            levels = list(range(int(lo), int(hi) + 1))
        else:
            levels = [int(v) for v in text.split(",")]
    except ValueError:
        levels = []
    if not levels or levels != sorted(set(levels)) or levels[0] < 0:
        raise ValueError(f"levels {text!r}: give ascending levels >= 0, "
                         "e.g. 1..4 or 2,3")
    return levels


def _parse_snapshot(text):
    """Stride of --snapshot: None for none, 0 for the final state only and
    m for every m-th step as well."""
    if text in (None, "none"):
        return None
    if text == "final":
        return 0
    every = text[len("every="):] if text.startswith("every=") else ""
    if not every.isdigit() or int(every) < 1:
        raise ValueError(f"snapshot {text!r}: give none, final or "
                         "every=<m> with an integer m >= 1")
    return int(every)


def _add_common(p):
    p.add_argument("--config",
                   help="INI config file; its [run] keys are this "
                        "subcommand's long flag names, and flags given "
                        "override them")
    p.add_argument("--example", type=int, choices=(1, 2, 3),
                   help="built-in example ensemble (default 1)")
    p.add_argument("--degree", type=int, default=None,
                   help="polynomial degree k (default 1)")
    p.add_argument("--levels", default=None,
                   help="mesh levels, e.g. 1..5 or 3 (n = 2^level)")
    p.add_argument("--dt-rule", default=None, dest="dt_rule",
                   help="h, h3 or fixed=<value> (default h)")
    p.add_argument("--T", type=float, default=None,
                   help="final time (defaults to the problem's)")
    p.add_argument("--out", default=None,
                   help="output directory (default .)")


def _merge(args):
    """The run options: defaults, then the config's [run] keys, then the
    flags given.  A [run] key is the dest of a flag, and a key whose flag
    the subcommand does not register is an error."""
    cfg = load_config(args.config) if args.config else {}
    for key in cfg:
        if key != "custom" and not hasattr(args, key):
            raise ValueError(f"config section [run], key {key!r}: the "
                             f"{args.command} subcommand does not read it")
    given = {key: val for key, val in vars(args).items()
             if val is not None and key not in ("command", "func", "config")}
    return {"example": 1, "degree": 1, "dt_rule": "h", "out": ".",
            **cfg, **given}


def _levels(merged, default):
    return _parse_levels(merged.get("levels", default))


def _mesh_and_steps(merged, default_level):
    """The mesh of --mesh-file or of the finest level, and the dt its
    h_max and the dt rule give, with the step count T / dt."""
    if merged.get("mesh_file"):
        mesh = read_mesh_text(merged["mesh_file"])
    else:
        mesh = build_uniform_square_mesh(
            2 ** _levels(merged, default_level)[-1])
    dt = resolve_dt_rule(merged["dt_rule"], mesh.h_max, merged["T"])
    return mesh, dt, int(round(merged["T"] / dt))


def cmd_converge(merged, problem):
    if not problem.has_exact:
        print("error: convergence study needs a problem with exact "
              "solutions (examples 1 and 2)", file=sys.stderr)
        return 2
    table = convergence_study(
        problem, merged["degree"], _levels(merged, "1..4"),
        merged["dt_rule"], T=merged["T"],
        strict_admissibility=merged.get("strict_admissibility", False))
    os.makedirs(merged["out"], exist_ok=True)
    path = os.path.join(
        merged["out"],
        f"convergence_{problem.name}_k{merged['degree']}.csv")
    write_convergence_csv(table, path)
    print(table)
    print(f"wrote {path}")
    return 0


def cmd_run(merged, problem):
    stride = _parse_snapshot(merged.get("snapshot"))
    mesh, dt, N = _mesh_and_steps(merged, "4")
    disc = Discretization(mesh, merged["degree"])
    solver = EnsembleSolver(
        disc, problem, dt=dt,
        strict_admissibility=merged.get("strict_admissibility", False))

    observers = []
    acc = None
    if problem.has_exact:
        acc = ErrorAccumulator(disc, problem, dt, final_step=N)
        observers.append(acc)

    os.makedirs(merged["out"], exist_ok=True)
    if stride is not None:
        post = Postprocessor(disc)
        maps = post.operator_stack([m.c for m in problem.members])

    def write_snap(state, tag):
        star = post.apply(state.u, state.q, maps(state.t))
        base = os.path.join(merged["out"],
                            f"snapshot_{problem.name}_{tag}")
        write_snapshot_csv(disc, state, base + ".csv", star)
        write_snapshot_vtk(disc, state, base + ".vtk", star)

    if stride:
        observers.append(lambda n, t, state: (
            write_snap(state, f"n{n:06d}") if n % stride == 0 else None))

    state = solver.run(merged["T"], observers=observers)
    print(f"ran {N} steps (dt={dt:.6g}) on {mesh.n_elements} elements; "
          f"{solver.n_factorizations} factorization(s)")
    if acc is not None:
        res = acc.results()
        for j in range(problem.J):
            print(f"member {j + 1}: Eu={res['Eu'][j]:.6e} "
                  f"Eq={res['Eq'][j]:.6e} Eustar={res['Eustar'][j]:.6e}")
    if stride is not None:
        write_snap(state, "final")
        print(f"snapshot(s) written to {merged['out']}")
    return 0


def cmd_bench(merged, problem):
    level, T = _levels(merged, "4")[-1], merged["T"]
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


def cmd_check(merged, problem):
    mesh, dt, N = _mesh_and_steps(merged, "3")
    solver = EnsembleSolver(Discretization(mesh, merged["degree"]), problem,
                            dt=dt)
    report = check_admissibility(solver, [i * dt for i in range(N + 1)])
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
                    "convection-diffusion equations",
        epilog=_CONFIG_HELP)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, helptext in (
            ("converge", cmd_converge, "convergence-rate study -> CSV"),
            ("run", cmd_run, "single simulation, errors and snapshots"),
            ("bench", cmd_bench, "ensemble vs separate-runs benchmark"),
            ("check", cmd_check, "ensemble-mean admissibility check")):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name != "bench":
            p.add_argument("--strict-admissibility", action="store_true",
                           default=None, dest="strict_admissibility",
                           help="treat a failed ensemble-mean condition "
                                "as an error")
        if name in ("run", "check"):
            p.add_argument("--mesh-file", dest="mesh_file",
                           help="plain-text mesh overriding --levels")
        if name == "run":
            p.add_argument("--snapshot", help="none, final or every=<m>")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    merged = _merge(args)
    problem = problem_from_config(merged)
    # --T, or the problem's own final time when it is not given
    T = merged.get("T")
    merged["T"] = problem.default_T if T is None else final_time(T)
    return args.func(merged, problem)


if __name__ == "__main__":
    sys.exit(main())
