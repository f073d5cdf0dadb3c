import math
import warnings

import numpy as np
import pytest

from ensemble_hdg.discretization import Discretization
from ensemble_hdg.mesh import build_uniform_square_mesh
from ensemble_hdg.problems import EXAMPLE1_C, example1, example2, example3
from ensemble_hdg.solver import (EnsembleSolver, Member, ProblemSpec,
                                 check_admissibility, choose_tau,
                                 ensemble_means, initialize, state_samples)

from oracles import dense_run, dense_step


def constant_members(cs, betas):
    members = []
    for cj, (bx, by) in zip(cs, betas):
        members.append(Member(
            c=lambda x, y, t, cj=cj: np.full_like(x, cj),
            beta=lambda x, y, t, bx=bx, by=by: np.stack(
                [np.full_like(x, bx), np.full_like(x, by)], -1),
            f=lambda x, y, t: np.zeros_like(x),
            g=lambda x, y, t: np.zeros_like(x),
            u0=lambda x, y: np.zeros_like(x)))
    return members


def test_ensemble_means_single_member(mesh2, rng):
    spec = ProblemSpec(constant_members([2.5], [(1.0, -1.0)]))
    pts = rng.random((40, 2))
    cbar, bbar = ensemble_means(spec, 0.3, pts)
    assert np.abs(cbar - 2.5).max() == 0.0
    assert np.abs(bbar - [1.0, -1.0]).max() == 0.0


def test_ensemble_means_example1_constants(rng):
    spec = example1()
    pts = rng.random((10, 2))
    cbar, _ = ensemble_means(spec, 0.0, pts)
    assert np.abs(cbar - sum(EXAMPLE1_C) / 3).max() < 1e-15


def test_ensemble_means_random_fields(rng):
    fields = [lambda x, y, t: np.sin(x) + t, lambda x, y, t: x * y + 1.0,
              lambda x, y, t: np.exp(-x) + y]
    members = [Member(c=f,
                      beta=lambda x, y, t: np.stack([y, x], -1),
                      f=None, g=None, u0=None) for f in fields]
    spec = ProblemSpec(members)
    pts = rng.random((25, 2))
    t = 0.7
    cbar, bbar = ensemble_means(spec, t, pts)
    direct = sum(f(pts[:, 0], pts[:, 1], t) for f in fields) / 3
    assert np.abs(cbar - direct).max() < 1e-15


def test_admissibility_example1(mesh2):
    report = check_admissibility(example1(), mesh2, [0.0])
    assert report.ok
    assert report.c_min > 0.26


def test_admissibility_single_member_trivial(mesh2):
    spec = ProblemSpec(constant_members([7.0], [(0, 0)]))
    assert check_admissibility(spec, mesh2, [0.0]).ok


def test_admissibility_detects_violation(mesh2):
    # c = {1, 3, 20}: cbar = 8, |8 - 20| = 12 >= 8 -> fail
    spec = ProblemSpec(constant_members([1.0, 3.0, 20.0],
                                        [(0, 0)] * 3))
    report = check_admissibility(spec, mesh2, [0.0])
    assert not report.ok
    members = {v[0] for v in report.violations}
    assert members == {2}
    # c = {1, 100}: |50.5 - 1| = 49.5 < 50.5 -> the mean condition holds
    spec2 = ProblemSpec(constant_members([1.0, 100.0], [(0, 0)] * 2))
    assert check_admissibility(spec2, mesh2, [0.0]).ok


def test_choose_tau_zero_velocity(mesh2):
    spec = ProblemSpec(constant_members([1.0], [(0.0, 0.0)]))
    assert choose_tau(spec, mesh2) == 1.0


def test_choose_tau_example2_constants(mesh2):
    # max-component convention: max over {(2,3),(3,4),(4,5)} is 5 -> tau 6
    assert abs(choose_tau(example2(), mesh2) - 6.0) < 1e-12


def test_choose_tau_example1_fields():
    # sup of 1.6797 * max(|y|, |x|) over the square is 1.6797 -> tau 2.6797
    mesh = build_uniform_square_mesh(4)
    tau = choose_tau(example1(), mesh)
    assert tau <= 2.6797 + 1e-12
    assert abs(tau - 2.6797) < 2e-3


def test_initialize_zero_and_polynomial(mesh2):
    # zero initial data -> zero state
    spec = ProblemSpec(constant_members([1.0, 2.0], [(0, 0)] * 2))
    disc = Discretization(mesh2, 1)
    state = initialize(spec, disc)
    assert np.abs(state.u).max() == 0.0 and np.abs(state.q).max() == 0.0
    assert state.uhat is None and state.n == 0

    # u0 in P^(k+1), constant c: both projections are exact
    members = constant_members([2.0], [(0, 0)])
    members[0].u0 = lambda x, y: x * y + 0.5 * x ** 2 - y
    spec = ProblemSpec(members)
    state = initialize(spec, disc)
    s = state_samples(disc, state)
    X = disc.X_data
    x, y = X[..., 0], X[..., 1]
    assert np.abs(s["u"][0] - (x * y + 0.5 * x ** 2 - y)).max() < 1e-13
    # q0 = -grad(u0)/c in [P^k]^2 exactly
    assert np.abs(s["q"][0][..., 0] - (-(y + x) / 2.0)).max() < 1e-13
    assert np.abs(s["q"][0][..., 1] - (-(x - 1) / 2.0)).max() < 1e-13


def test_initialize_example1_is_zero(mesh2):
    disc = Discretization(mesh2, 0)
    state = initialize(example1(), disc)
    assert np.abs(state.u).max() == 0.0
    assert np.abs(state.q).max() == 0.0


def test_zero_data_fixed_point(mesh2):
    spec = ProblemSpec(constant_members([1.0, 2.0, 3.0],
                                        [(1, 0), (0, 1), (1, 1)]))
    disc = Discretization(mesh2, 1)
    solver = EnsembleSolver(disc, spec, dt=0.25)
    state = solver.run(1.0)
    assert np.abs(state.u).max() == 0.0
    assert np.abs(state.q).max() == 0.0
    assert np.abs(state.uhat).max() == 0.0


def test_run_zero_steps_returns_initial(mesh2):
    spec = ProblemSpec(constant_members([1.0], [(0, 0)]))
    disc = Discretization(mesh2, 0)
    solver = EnsembleSolver(disc, spec, dt=0.5)
    state = solver.run(0.0)
    assert state.n == 0 and state.t == 0.0


def test_run_rejects_non_integral_grid(mesh2):
    spec = ProblemSpec(constant_members([1.0], [(0, 0)]))
    solver = EnsembleSolver(Discretization(mesh2, 0), spec, dt=0.3)
    with pytest.raises(ValueError, match="integral"):
        solver.run(1.0)


def test_polynomial_solution_reproduced_exactly(mesh2):
    """u = (1+t)(x+y) lies in the k=1 space and is linear in t, so the
    implicit stepper reproduces it to rounding."""
    c = lambda x, y, t: np.full_like(x, 1.0)
    beta = lambda x, y, t: np.stack([np.full_like(x, 0.3),
                                     np.full_like(x, 0.2)], -1)
    u_ex = lambda x, y, t: (1 + t) * (x + y)
    q_ex = lambda x, y, t: np.stack([np.full_like(x, -(1 + t)),
                                     np.full_like(x, -(1 + t))], -1)
    f = lambda x, y, t: (x + y) + 0.5 * (1 + t)
    spec = ProblemSpec([Member(c, beta, f, u_ex,
                               lambda x, y: u_ex(x, y, 0.0), u_ex, q_ex)])
    disc = Discretization(mesh2, 1)
    solver = EnsembleSolver(disc, spec, dt=0.25, tau=2.0,
                            check_residuals=True)
    state = solver.run(1.0)
    s = state_samples(disc, state)
    X = disc.X_data
    assert np.abs(s["u"][0] - u_ex(X[..., 0], X[..., 1], 1.0)).max() < 1e-12
    assert np.abs(s["q"][0] - q_ex(X[..., 0], X[..., 1], 1.0)).max() < 1e-11
    assert solver.n_factorizations == 1


@pytest.mark.parametrize("k", [0, 1])
def test_step_matches_dense_oracle_with_lag(k, rng):
    """One step from a synthetic nonzero previous state: condensed sparse
    path vs the monolithic dense solve, J = 3 with example-1 coefficients."""
    spec = example1()
    mesh = build_uniform_square_mesh(2)
    disc = Discretization(mesh, k)
    dt = 0.1
    tau = choose_tau(spec, mesh)
    state = initialize(spec, disc)
    # synthetic nonzero previous state so every lag term is exercised
    state.u = rng.normal(size=state.u.shape)
    state.q = rng.normal(size=state.q.shape)

    solver = EnsembleSolver(disc, spec, dt=dt, tau=tau)
    got = solver.step(state)
    want = dense_step(disc, spec, tau, dt, state)
    for name in ("u", "q", "uhat"):
        a, b = getattr(got, name), getattr(want, name)
        scale = max(1.0, np.abs(b).max())
        assert np.abs(a - b).max() < 1e-10 * scale, name


@pytest.mark.parametrize("k", [0, 1])
def test_three_steps_match_dense_run_with_lag(k, rng):
    """Three steps from a nonzero degree-(k+1) start: step 1 runs the
    degree-(k+1) RHS operators, steps 2 and 3 the cached degree-k ones."""
    spec = example1()
    disc = Discretization(build_uniform_square_mesh(2), k)
    dt = 0.1
    tau = 2.6797
    state = initialize(spec, disc)
    state.u = rng.normal(size=state.u.shape)
    state.q = rng.normal(size=state.q.shape)
    assert state.u_degree == k + 1

    solver = EnsembleSolver(disc, spec, dt=dt, tau=tau)
    got = state
    for _ in range(3):
        got = solver.step(got)
    want = dense_run(disc, spec, tau, dt, 3, state, lag=True)
    for name in ("u", "q", "uhat"):
        a, b = getattr(got, name), getattr(want, name)
        scale = max(1.0, np.abs(b).max())
        assert np.abs(a - b).max() < 1e-10 * scale, name


def test_constant_mean_changing_deviations_match_dense_steps(mesh2, rng):
    """c = {1 + t/2, 3 - t/2}: the mean, and so the trace matrix, never
    changes while the deviations do.  One factorization serves every step,
    and the lag operators follow the deviations."""
    members = constant_members([1.0, 3.0], [(0.5, 0.2), (-0.3, 0.4)])
    members[0].c = lambda x, y, t: np.full_like(x, 1.0 + 0.5 * t)
    members[1].c = lambda x, y, t: np.full_like(x, 3.0 - 0.5 * t)
    spec = ProblemSpec(members, autonomous=False)
    disc = Discretization(mesh2, 1)
    dt = 0.25
    tau = 1.5
    solver = EnsembleSolver(disc, spec, dt=dt, tau=tau)
    state = initialize(spec, disc)
    state.u = rng.normal(size=state.u.shape)
    state.q = rng.normal(size=state.q.shape)
    for _ in range(4):
        got = solver.step(state)
        want = dense_step(disc, spec, tau, dt, state)
        for name in ("u", "q", "uhat"):
            a, b = getattr(got, name), getattr(want, name)
            scale = max(1.0, np.abs(b).max())
            assert np.abs(a - b).max() < 1e-10 * scale, (got.n, name)
        state = got
    assert solver.n_factorizations == 1


def test_j1_matches_lag_free_reference(mesh4):
    """Criterion-5 style check at module scale: J = 1 over 10 steps."""
    spec = example1()
    single = spec.single_member(0)
    disc = Discretization(mesh4, 1)
    dt = 0.05
    tau = 2.6797
    solver = EnsembleSolver(disc, single, dt=dt, tau=tau)
    state = solver.run(0.5)
    ref = dense_run(disc, single, tau, dt, 10, initialize(single, disc),
                    lag=False)
    for name in ("u", "q", "uhat"):
        a, b = getattr(state, name), getattr(ref, name)
        scale = max(np.abs(b).max(), 1e-30)
        assert np.abs(a - b).max() < 1e-12 * max(1.0, scale), name


def test_lag_terms_skipped_for_single_member(mesh2):
    spec = example1().single_member(1)
    disc = Discretization(mesh2, 1)
    solver = EnsembleSolver(disc, spec, dt=0.5)
    assert solver._coeff_cache["c_dev"] is None
    assert solver._coeff_cache["b_dev"] is None


def test_factorization_reuse_and_fingerprint(mesh2):
    spec = example1()
    disc = Discretization(mesh2, 0)
    solver = EnsembleSolver(disc, spec, dt=0.25)
    solver.run(1.0)
    assert solver.n_factorizations == 1
    assert solver.n_steps == 4


def test_time_dependent_coefficients_refactorize(mesh2):
    members = constant_members([1.0, 2.0], [(0, 0)] * 2)
    for m, c0 in zip(members, (1.0, 2.0)):
        m.c = lambda x, y, t, c0=c0: np.full_like(x, c0 + 0.5 * t)
    spec = ProblemSpec(members, autonomous=False)
    disc = Discretization(mesh2, 0)
    solver = EnsembleSolver(disc, spec, dt=0.25)
    solver.run(1.0)
    assert solver.n_factorizations == 4


def test_admissibility_enforcement(mesh2):
    members = constant_members([1.0, 3.0, 20.0], [(0, 0)] * 3)
    spec = ProblemSpec(members)
    disc = Discretization(mesh2, 0)
    solver = EnsembleSolver(disc, spec, dt=0.5, strict_admissibility=True)
    with pytest.raises(RuntimeError, match="admissibility"):
        solver.run(1.0)
    lax = EnsembleSolver(disc, spec, dt=0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lax.run(1.0)
    assert any("admissibility" in str(w.message) for w in caught)


def test_shared_factorization_object_within_step(mesh2):
    """All members are advanced against the identical factorization."""
    spec = example1()
    disc = Discretization(mesh2, 1)
    solver = EnsembleSolver(disc, spec, dt=0.25)
    seen = []
    orig = solver.system.solve_multi

    def spy(rhs, fingerprint=None):
        seen.append((id(solver.system), rhs.shape[1]))
        return orig(rhs, fingerprint)

    solver.system.solve_multi = spy
    solver.run(1.0)
    assert len(seen) == 4  # one block solve per step
    assert all(cols == spec.J for _, cols in seen)
    assert len({h for h, _ in seen}) == 1


def test_stability_no_blowup_small(mesh2, rng):
    """f = 0, g = 0, random start: the trajectory stays bounded."""
    spec = ProblemSpec(constant_members(list(EXAMPLE1_C),
                                        [(0.5, 0.2)] * 3))
    disc = Discretization(mesh2, 1)
    state0 = initialize(spec, disc)
    state0.u = rng.normal(size=state0.u.shape)
    solver = EnsembleSolver(disc, spec, dt=0.1)
    state = state0
    norm0 = np.abs(state0.u).max()
    for _ in range(10):
        state = solver.step(state)
        assert np.abs(state.u).max() < 5 * norm0
