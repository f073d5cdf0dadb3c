"""Convergence studies, observed rates and the shared-matrix benchmark.

A study runs a manufactured ensemble over a sequence of uniform meshes
n = 2^level, with the time step tied to the mesh via a rule ("h", "h3" or a
fixed value, h being the element diameter sqrt(2)/n) and snapped so that
T / dt is an integer.  Each level fills one table block with the final-time
scalar error, the trajectory flux error and the trajectory postprocessed
error per member, plus observed rates against the previous level: log2 of
the error ratio over the level gap.
"""

import math
import time

from .discretization import Discretization
from .errors import ErrorAccumulator
from .mesh import build_uniform_square_mesh
from .solver import EnsembleSolver


def snap_dt(T, dt_raw):
    """Largest dt <= dt_raw (up to rounding) with T / dt integral."""
    if dt_raw <= 0:
        raise ValueError("dt must be positive")
    r = T / dt_raw
    n = max(1, math.ceil(r - 1e-9))
    return T / n


def resolve_dt_rule(rule, h, T):
    """Map a dt rule ("h", "h3", "fixed=<v>" or a number) to a snapped dt."""
    if isinstance(rule, (int, float)):
        return snap_dt(T, float(rule))
    if rule == "h":
        return snap_dt(T, h)
    if rule == "h3":
        return snap_dt(T, h ** 3)
    if isinstance(rule, str) and rule.startswith("fixed="):
        return snap_dt(T, float(rule.split("=", 1)[1]))
    raise ValueError(f"unknown dt rule {rule!r}")


class ConvergenceTable:
    """Per-level, per-member error and rate records of one study.

    Rows are dicts with keys level, h_over_sqrt2, member (1-based), Eq,
    Eq_rate, Eu, Eu_rate, Eustar, Eustar_rate.  A rate compares a level
    with the last other level added before it, over the level gap; rate
    cells are None on the first level.
    """

    COLUMNS = ("level", "h_over_sqrt2", "member", "Eq", "Eq_rate",
               "Eu", "Eu_rate", "Eustar", "Eustar_rate")

    def __init__(self, degree, dt_rule, T):
        self.degree = degree
        self.dt_rule = dt_rule
        self.T = T
        self.rows = []
        self.meta = []

    def add_level(self, level, errors, meta=None):
        """Append one level's error dict {Eq, Eu, Eustar: (J,) arrays}."""
        J = len(errors["Eu"])
        prev_level = next((r["level"] for r in reversed(self.rows)
                           if r["level"] != level), None)
        prev = {r["member"]: r for r in self.rows
                if r["level"] == prev_level}
        for j in range(1, J + 1):
            row = {"level": level, "h_over_sqrt2": 2.0 ** -level,
                   "member": j}
            for key in ("Eq", "Eu", "Eustar"):
                val = float(errors[key][j - 1])
                row[key] = val
                last = prev.get(j)
                if last is not None and last[key] != 0.0 and val > 0.0:
                    rate = math.log2(last[key] / val)
                    row[f"{key}_rate"] = rate / (level - prev_level)
                else:
                    row[f"{key}_rate"] = None
            self.rows.append(row)
        if meta is not None:
            self.meta.append(meta)

    def column(self, member, key):
        """Level-ordered values of one column for one member."""
        rows = sorted((r for r in self.rows if r["member"] == member),
                      key=lambda r: r["level"])
        return [r[key] for r in rows]

    def final_rate(self, member, key):
        return self.column(member, f"{key}_rate")[-1]

    def final_error(self, member, key):
        return self.column(member, key)[-1]

    def __str__(self):
        lines = [" ".join(f"{c:>12}" for c in self.COLUMNS)]
        for r in self.rows:
            cells = []
            for c in self.COLUMNS:
                v = r[c]
                if v is None:
                    cells.append(f"{'':>12}")
                elif c in ("level", "member"):
                    cells.append(f"{v:>12d}")
                elif c.endswith("_rate"):
                    cells.append(f"{v:>12.2f}")
                else:
                    cells.append(f"{v:>12.4e}")
            lines.append(" ".join(cells))
        return "\n".join(lines)


def run_level(problem, n, degree, dt, T, strict_admissibility=False):
    """Solve one mesh level and return per-member errors plus run info."""
    mesh = build_uniform_square_mesh(n)
    disc = Discretization(mesh, degree)
    solver = EnsembleSolver(disc, problem, dt=dt,
                            strict_admissibility=strict_admissibility)
    N = int(round(T / dt))
    acc = ErrorAccumulator(disc, problem, dt, final_step=N)
    t0 = time.perf_counter()
    state = solver.run(T, observers=[acc])
    elapsed = time.perf_counter() - t0
    out = acc.results()
    info = {"n": n, "dt": dt, "steps": N, "seconds": elapsed,
            "factorizations": solver.n_factorizations,
            "trace_dofs": disc.n_trace_dofs}
    return out, info, state


def convergence_study(problem, degree, levels, dt_rule, T=None,
                      strict_admissibility=False):
    """Run levels n = 2^level and tabulate errors with observed rates."""
    if not problem.has_exact:
        raise ValueError("convergence study needs exact solutions")
    T = problem.default_T if T is None else T
    table = ConvergenceTable(degree, dt_rule, T)
    for level in levels:
        n = 2 ** level
        h = math.sqrt(2.0) / n
        dt = resolve_dt_rule(dt_rule, h, T)
        errors, info, _ = run_level(problem, n, degree, dt, T,
                                    strict_admissibility)
        info["level"] = level
        table.add_level(level, errors, meta=info)
    return table


def benchmark_ensemble_vs_separate(problem, degree, level, dt, T):
    """Wall-clock one shared-factorization ensemble run against J
    independent single-member runs, each building and factorizing its own
    trace matrix.

    No observers run in either mode.  Returns a report dict with the times,
    the time ratio ensemble / (sum of separate) and the factorization
    counts, which for autonomous coefficients are exactly 1 and J.
    """
    n = 2 ** level

    def one_ensemble_run(spec):
        t0 = time.perf_counter()
        mesh = build_uniform_square_mesh(n)
        disc = Discretization(mesh, degree)
        solver = EnsembleSolver(disc, spec, dt=dt)
        solver.run(T)
        return time.perf_counter() - t0, solver.n_factorizations

    t_ens, fact_ens = one_ensemble_run(problem)
    t_sep = []
    fact_sep = []
    for j in range(problem.J):
        elapsed, nf = one_ensemble_run(problem.single_member(j))
        t_sep.append(elapsed)
        fact_sep.append(nf)
    total_sep = sum(t_sep)
    return {
        "level": level, "n": n, "degree": degree, "dt": dt, "T": T,
        "steps": int(round(T / dt)),
        "t_ensemble": t_ens,
        "t_separate": t_sep,
        "t_separate_total": total_sep,
        "ratio": t_ens / total_sep,
        "factorizations_ensemble": fact_ens,
        "factorizations_separate": sum(fact_sep),
    }
