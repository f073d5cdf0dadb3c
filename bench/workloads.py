"""The benchmark's three workloads and their correctness gates.

Each workload runs one complete solve through the public ensemble_hdg API
and returns its timings, errors and counts.  The seed fixes the order of
the ensemble members: the ensemble means, and so every answer, do not
depend on it beyond rounding, which the gates must tolerate.  Errors are
returned per member in the unpermuted order.

Every call into the library goes through a submodule attribute looked up
at call time, so the bindings the tracer patches are the ones used.
"""

import contextlib
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import sympy

from ensemble_hdg import (discretization, errors, mesh, problems, solver,
                          study)

T_FINAL = 1.0
DEGREE = 1

FULL = {
    "march": {"n": 64, "steps": 128},
    "converge": {"levels": [1, 2, 3, 4]},
    "refactor": {"n": 32, "steps": 64},
}
TINY = {
    "march": {"n": 4, "steps": 4},
    "converge": {"levels": [1, 2, 3]},
    "refactor": {"n": 4, "steps": 4},
}

REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Relative tolerance on the errors of march and refactor.  Reordering the
# members moves them by at most 5e-11 and a 3e-5 shift of tau by 7e-6; a
# wrong scheme (tau 10% off, a dropped lag term) moves Eu by 4% or more.
ERROR_RTOL = 1e-4
# Finest-level observed rates must be within this of k+1 (Eu, Eq) and k+2
# (Eu*); level 4 of the h^3 study reads 1.99, 2.03-2.11 and 3.05-3.16.
RATE_TOL = 0.25


def size_key(workload, size):
    return workload + " " + " ".join(f"{k}={v}" for k, v in size.items())


def load_reference():
    return json.loads(REFERENCE_FILE.read_text())


def permuted(spec, seed):
    """spec with its members shuffled by seed, and the order used."""
    order = list(range(spec.J))
    random.Random(seed).shuffle(order)
    return solver.ProblemSpec([spec.members[i] for i in order],
                              autonomous=spec.autonomous,
                              default_T=spec.default_T,
                              name=spec.name), order


def unpermute(values, order):
    out = np.empty(len(order))
    out[order] = values
    return out.tolist()


def refactor_problem():
    """Example 1's members with inverse diffusion c_j (1 + t/2).

    beta_j stays autonomous: the solver samples tau at t = 0 only.
    """
    x, y, t = sympy.symbols("x y t")
    members = []
    for j, (cj, aj) in enumerate(zip(problems.EXAMPLE1_C,
                                     problems.EXAMPLE1_BETA_SCALE), 1):
        u = sympy.sin(t) * sympy.sin(x) * sympy.sin(y) / j
        members.append(problems.manufactured_member(
            cj * (1 + t / 2), (aj * y, aj * x), u))
    return solver.ProblemSpec(members, autonomous=False, default_T=T_FINAL,
                              name="refactor")


def _march_like(build_spec, size, seed, traced, observe):
    """Set up and march one ensemble; errors come after the timed region
    unless `observe` runs an ErrorAccumulator during the run."""
    t0 = time.perf_counter()
    with traced:
        spec, order = permuted(build_spec(), seed)
        disc = discretization.Discretization(
            mesh.build_uniform_square_mesh(size["n"]), DEGREE)
        dt = T_FINAL / size["steps"]
        ens = solver.EnsembleSolver(disc, spec, dt)
        observers = []
        if observe:
            observers.append(errors.ErrorAccumulator(
                disc, spec, dt, final_step=size["steps"]))
        marks = []
        observers.append(lambda n, t, state: marks.append(time.perf_counter()))
        t1 = time.perf_counter()
        state = ens.run(T_FINAL, observers=observers)
        t2 = time.perf_counter()
    if observe:
        acc = observers[0]
    else:
        # one call with dt = 1 gives the final-time norms of u, q and u*
        acc = errors.ErrorAccumulator(disc, spec, 1.0, final_step=state.n)
        acc(state.n, state.t, state)
    res = acc.results()
    return {
        "wall_s": t2 - t0,
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "steps": ens.n_steps,
        "step_samples_s": np.diff(marks).tolist(),
        "errors": {key: unpermute(res[key], order)
                   for key in ("Eu", "Eq", "Eustar")},
        "factorizations": [ens.n_factorizations],
        "sizes": {"elements": disc.mesh.n_elements,
                  "trace_dofs": disc.n_trace_dofs, "J": spec.J,
                  "steps": ens.n_steps},
    }


def march(size, seed, traced=contextlib.nullcontext()):
    """Example 1 marched to T = 1 with no error observer: step-heavy at a
    size where the sparse LU matters."""
    return _march_like(problems.example1, size, seed, traced, observe=False)


def refactor(size, seed, traced=contextlib.nullcontext()):
    """Time-dependent c_j: every step re-samples, reassembles, condenses
    and refactorizes."""
    return _march_like(refactor_problem, size, seed, traced, observe=True)


def converge(size, seed, traced=contextlib.nullcontext()):
    """The paper's rate table: levels of example 1 with dt = h^3."""
    t0 = time.perf_counter()
    with traced:
        spec, order = permuted(problems.example1(), seed)
        table = study.convergence_study(spec, DEGREE, size["levels"], "h3")
        t1 = time.perf_counter()
    run_s = sum(m["seconds"] for m in table.meta)
    steps = sum(m["steps"] for m in table.meta)
    finest = table.meta[-1]
    members = [order.index(j) + 1 for j in range(spec.J)]
    return {
        "wall_s": t1 - t0,
        "setup_s": (t1 - t0) - run_s,
        "run_s": run_s,
        "steps": steps,
        "step_samples_s": [],
        "errors": {key: [table.final_error(m, key) for m in members]
                   for key in ("Eu", "Eq", "Eustar")},
        "rates": {key: [table.final_rate(m, key) for m in members]
                  for key in ("Eu", "Eq", "Eustar")},
        "factorizations": [m["factorizations"] for m in table.meta],
        "sizes": {"elements": 2 * finest["n"] ** 2,
                  "trace_dofs": finest["trace_dofs"], "J": spec.J,
                  "steps": steps},
    }


WORKLOADS = {"march": march, "converge": converge, "refactor": refactor}


def gate(workload, size, result, reference):
    """Correctness failures of one pass, as messages (empty: correct)."""
    failures = []
    expected = {"march": [1], "refactor": [size.get("steps")],
                "converge": [1] * len(size.get("levels", ()))}[workload]
    if result["factorizations"] != expected:
        failures.append(f"factorizations {result['factorizations']}, "
                        f"expected {expected}")
    if workload == "converge":
        for key, want in (("Eu", DEGREE + 1), ("Eq", DEGREE + 1),
                          ("Eustar", DEGREE + 2)):
            for j, rate in enumerate(result["rates"][key], 1):
                if rate is None or not abs(rate - want) <= RATE_TOL:
                    failures.append(f"member {j} {key} rate {rate}, "
                                    f"expected {want} +- {RATE_TOL}")
        return failures
    ref = reference.get(size_key(workload, size))
    if ref is None:
        return failures + [f"no reference for {size_key(workload, size)}"]
    for key, want in ref.items():
        for j, (got, exp) in enumerate(zip(result["errors"][key], want), 1):
            if not math.isclose(got, exp, rel_tol=ERROR_RTOL, abs_tol=0.0):
                failures.append(f"member {j} {key} = {got!r}, reference "
                                f"{exp!r} (rtol {ERROR_RTOL})")
    return failures
