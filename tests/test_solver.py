import warnings

import numpy as np
import pytest
import sympy

from ensemble_hdg.discretization import Discretization
from ensemble_hdg.local import CoefficientError
from ensemble_hdg.mesh import build_uniform_square_mesh
from ensemble_hdg.problems import (EXAMPLE1_BETA_SCALE, EXAMPLE1_C,
                                   SeparableField, VectorField, example1,
                                   example2, manufactured_member)
from ensemble_hdg.basis import triangle_quadrature
from ensemble_hdg.mesh import BatchedGeometry
from ensemble_hdg.solver import (EnsembleSolver, Member, ProblemSpec,
                                 check_admissibility, choose_tau,
                                 initialize, state_samples)

from oracles import dense_run, dense_step, lag_samples


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


def mean_samples(spec, mesh, t):
    """The ensemble-mean samples the solver builds its trace matrix from,
    and the members' deviations from them: the mean and deviation weights
    of level t times the samples of the modes."""
    disc = Discretization(mesh, 1)
    solver = EnsembleSolver(disc, spec, dt=0.1, tau=1.0)
    level = solver._coefficients(t)
    ne, nq = disc.X_data.shape[:2]
    out = {}
    for suffix, key in (("bar", "mean"), ("_dev", "dev")):
        (wc, (c, _)), (wb, (b, _)) = level[key]
        lead = wc.shape[:-1]
        out["c" + suffix] = np.tensordot(wc, c, 1).reshape(lead + (ne, nq))
        # the velocity samples at the element data points, then the face
        # data points
        b = np.tensordot(wb, b, 1)
        out["b" + suffix] = b[..., :ne * nq, :].reshape(lead + (ne, nq, 2))
        out["b" + suffix + "_face"] = b[..., ne * nq:, :].reshape(
            lead + (ne, 3, -1, 2))
    return out


def test_ensemble_means_single_member(mesh2):
    spec = ProblemSpec(constant_members([2.5], [(1.0, -1.0)]), autonomous=True)
    means = mean_samples(spec, mesh2, 0.3)
    assert np.abs(means["cbar"] - 2.5).max() == 0.0
    assert np.abs(means["bbar"] - [1.0, -1.0]).max() == 0.0
    assert np.abs(means["bbar_face"] - [1.0, -1.0]).max() == 0.0


def test_ensemble_means_example1_constants(mesh2):
    means = mean_samples(example1(), mesh2, 0.0)
    assert np.abs(means["cbar"] - sum(EXAMPLE1_C) / 3).max() < 1e-15


RANDOM_C = (lambda x, y, t: np.sin(x) + t, lambda x, y, t: x * y + 1.0,
            lambda x, y, t: np.exp(-x) + y)


def random_field_members(kind):
    """Three members with time-dependent c_j and beta_j = (1 + s_j t)(y, x),
    whose mean velocity is (y, x): plain callables, or manufactured members
    whose c is a SeparableField and beta a VectorField."""
    speeds = (-1.0, 0.0, 1.0)
    if kind == "lambda":
        members = constant_members([1.0] * 3, [(0, 0)] * 3)
        for m, s in zip(members, speeds):
            m.beta = lambda x, y, t, s=s: (1 + s * t) * np.stack([y, x], -1)
        for m, f in zip(members, RANDOM_C):
            m.c = f
        return members
    x, y, t = sympy.symbols("x y t")
    cs = (sympy.sin(x) + t, x * y + 1, sympy.exp(-x) + y)
    return [manufactured_member(c, ((1 + s * t) * y, (1 + s * t) * x), x * t)
            for c, s in zip(cs, speeds)]


def assert_means_match_member_samples(mesh, members):
    """The joint evaluators against per-member sampling: the means and the
    deviations of c and beta at a time level."""
    spec = ProblemSpec(members, autonomous=False)
    t = 0.7
    means = mean_samples(spec, mesh, t)
    disc = Discretization(mesh, 1)
    X = disc.X_data
    direct = sum(f(X[..., 0], X[..., 1], t) for f in RANDOM_C) / 3
    assert np.abs(means["cbar"] - direct).max() < 1e-15
    assert np.abs(means["bbar"] - X[..., ::-1]).max() < 1e-15
    c = np.stack([disc.sample_scalar(m.c, t) for m in members])
    b = np.stack([disc.sample_vector(m.beta, t) for m in members])
    bf = np.stack([disc.sample_vector_faces(m.beta, t) for m in members])
    for key, want in (("cbar", c.mean(0)), ("bbar", b.mean(0)),
                      ("bbar_face", bf.mean(0)), ("c_dev", c.mean(0) - c),
                      ("b_dev", b.mean(0) - b),
                      ("b_dev_face", bf.mean(0) - bf)):
        assert means[key].shape == want.shape, key
        assert np.abs(means[key] - want).max() < 1e-15, key


def test_ensemble_means_random_fields(mesh2):
    assert_means_match_member_samples(mesh2, random_field_members("lambda"))


def test_ensemble_means_random_separable_fields(mesh2):
    members = random_field_members("sympy")
    assert all(isinstance(m.c, SeparableField) and
               isinstance(m.beta, VectorField) for m in members)
    assert_means_match_member_samples(mesh2, members)


def test_admissibility_example1(mesh2):
    report = check_admissibility(example1(), mesh2, [0.0])
    assert report.ok
    assert report.c_min > 0.26


def test_admissibility_single_member_trivial(mesh2):
    spec = ProblemSpec(constant_members([7.0], [(0, 0)]), autonomous=True)
    assert check_admissibility(spec, mesh2, [0.0]).ok


def test_admissibility_detects_violation(mesh2):
    # c = {1, 3, 20}: cbar = 8, |8 - 20| = 12 >= 8 -> fail
    spec = ProblemSpec(constant_members([1.0, 3.0, 20.0],
                                        [(0, 0)] * 3), autonomous=True)
    report = check_admissibility(spec, mesh2, [0.0])
    assert not report.ok
    members = {v[0] for v in report.violations}
    assert members == {2}
    # c = {1, 100}: |50.5 - 1| = 49.5 < 50.5 -> the mean condition holds
    spec2 = ProblemSpec(constant_members([1.0, 100.0], [(0, 0)] * 2),
                        autonomous=True)
    assert check_admissibility(spec2, mesh2, [0.0]).ok


def test_admissibility_report_counts_every_violation(mesh2):
    """More violations than the report keeps, over several levels, from
    both conditions: the counts and the kept records against a per-point
    loop over the same sample points."""
    members = constant_members([1.0, 3.0, 1.0], [(0, 0)] * 3)
    # member 3 dominates the mean where x is large and is negative near x=0
    members[2].c = lambda x, y, t: 20.0 * x * (1.0 + t) - 1.0
    spec = ProblemSpec(members, autonomous=False)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    report = check_admissibility(spec, mesh2, times)

    g = BatchedGeometry(mesh2)
    X = np.einsum("eij,qj->eqi", g.jacobian, triangle_quadrature(6).points)
    X += g.corners[:, None, 0, :]
    x, y = X[..., 0].ravel(), X[..., 1].ravel()
    c = [[np.broadcast_to(m.c(x, y, t), x.shape) for m in members]
         for t in times]
    records, count = [], 0
    for n in range(1, len(times)):
        for j in range(3):
            for p in range(len(x)):
                now = sum(c[n][i][p] for i in range(3)) / 3
                before = sum(c[n - 1][i][p] for i in range(3)) / 3
                cj = c[n][j][p]
                if abs(now - cj) >= min(now, before) or cj <= 0:
                    count += 1
                    records.append((j, n, float(x[p]), float(y[p])))
    assert count > report.max_records
    assert not report.ok
    assert report.n_violations == count
    assert report.violations == records[:report.max_records]
    assert report.c_min == min(float(np.min(ct)) for ct in c)


def test_admissibility_reports_a_nan_sample(mesh2):
    """A NaN c fails every comparison, the passing ones too: the point is
    reported for the member that has it, and for the other member, whose
    mean it spoils."""
    X = BatchedGeometry(mesh2).points(triangle_quadrature(6).points)
    x0, y0 = X[3, 2]
    members = constant_members([1.0, 2.0], [(0, 0)] * 2)
    members[1].c = lambda x, y, t: np.where((x == x0) & (y == y0), np.nan,
                                            2.0)
    report = check_admissibility(ProblemSpec(members, autonomous=True),
                                 mesh2, [0.0])
    assert not report.ok
    assert report.violations == [(0, 1, float(x0), float(y0)),
                                 (1, 1, float(x0), float(y0))]
    assert report.c_min == 1.0


def test_choose_tau_zero_velocity(mesh2):
    spec = ProblemSpec(constant_members([1.0], [(0.0, 0.0)]), autonomous=True)
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
    # the taus behind the benchmark's reference errors, to the last bit: a
    # change in how the sampled points round moves them
    assert tau == 2.679193908385754
    assert choose_tau(example1(), build_uniform_square_mesh(32)) == \
        2.6796367385482194


def test_initialize_zero_and_polynomial(mesh2):
    # zero initial data -> zero state
    spec = ProblemSpec(constant_members([1.0, 2.0], [(0, 0)] * 2),
                       autonomous=True)
    disc = Discretization(mesh2, 1)
    state = initialize(spec, disc)
    assert np.abs(state.u).max() == 0.0 and np.abs(state.q).max() == 0.0
    assert state.uhat is None and state.n == 0

    # u0 in P^(k+1), constant c: u is the leading d coefficients of its
    # P^(k+1) expansion, and q is exact
    members = constant_members([2.0], [(0, 0)])
    members[0].u0 = lambda x, y: x * y + 0.5 * x ** 2 - y
    spec = ProblemSpec(members, autonomous=True)
    state = initialize(spec, disc)
    s = lag_samples(disc, state)
    X = disc.X_data
    x, y = X[..., 0], X[..., 1]
    Vh, w = disc.V_hi_data, disc.w_data
    hi = np.linalg.solve((Vh * w) @ Vh.T,
                         (((x * y + 0.5 * x ** 2 - y) * w) @ Vh.T).T).T
    assert np.abs(hi @ Vh - (x * y + 0.5 * x ** 2 - y)).max() < 1e-13
    assert state.u.shape == (1, mesh2.n_elements, disc.ndof_u)
    assert np.abs(state.u[0] - hi[:, :disc.ndof_u]).max() < 1e-13
    # q0 = -grad(u0)/c in [P^k]^2 exactly
    assert np.abs(s["q"][0][..., 0] - (-(y + x) / 2.0)).max() < 1e-13
    assert np.abs(s["q"][0][..., 1] - (-(x - 1) / 2.0)).max() < 1e-13


def test_initialize_broadcasts_a_scalar_u0(mesh2):
    members = constant_members([1.0, 2.0], [(0, 0)] * 2)
    members[1].u0 = lambda x, y: 1.0
    disc = Discretization(mesh2, 1)
    state = initialize(ProblemSpec(members, autonomous=True), disc)
    assert np.abs(state_samples(disc, state)["u"][1] - 1.0).max() < 1e-13
    assert np.abs(state.u[0]).max() == 0.0 and np.abs(state.q).max() < 1e-13


def test_non_finite_u0_is_named(mesh2):
    """A u0 that is NaN on part of the domain used to run to the end and
    leave that member's u NaN without a message."""
    members = constant_members([1.0, 2.0], [(0, 0)] * 2)
    members[1].u0 = lambda x, y: np.where(x > 0.5, np.nan, 0.0)
    disc = Discretization(mesh2, 1)
    e = int(np.argmax((disc.X_data[..., 0] > 0.5).any(axis=1)))
    solver = EnsembleSolver(disc, ProblemSpec(members, autonomous=True),
                            dt=0.5)
    with pytest.raises(ValueError, match=f"^member 2: the u0 sample on "
                                         f"element {e} is not finite$"):
        solver.run(1.0)


def test_non_finite_c_at_the_start_is_named(mesh2):
    """c = NaN at t = 0 and 1 or 1.5 afterwards: the run used to march
    every step and return NaN u and q, with the admissibility warning as
    the only sign.  initialize names the member and the element."""
    members = constant_members([1.0, 1.5], [(0, 0)] * 2)
    for m, cj in zip(members, (1.0, 1.5)):
        m.c = lambda x, y, t, cj=cj: np.full_like(x, np.nan if t == 0 else cj)
    solver = EnsembleSolver(Discretization(mesh2, 1),
                            ProblemSpec(members, autonomous=False), dt=0.25)
    with pytest.warns(UserWarning, match="admissibility"), \
            pytest.raises(CoefficientError, match="^member 1: the c sample "
                                                  "on element 0 at t = 0 is "
                                                  "not finite$"):
        solver.run(1.0)
    assert solver.n_steps == 0


def test_initialize_example1_is_zero(mesh2):
    disc = Discretization(mesh2, 0)
    state = initialize(example1(), disc)
    assert np.abs(state.u).max() == 0.0
    assert np.abs(state.q).max() == 0.0


def test_zero_data_fixed_point(mesh2):
    spec = ProblemSpec(constant_members([1.0, 2.0, 3.0],
                                        [(1, 0), (0, 1), (1, 1)]),
                       autonomous=True)
    disc = Discretization(mesh2, 1)
    solver = EnsembleSolver(disc, spec, dt=0.25)
    state = solver.run(1.0)
    assert np.abs(state.u).max() == 0.0
    assert np.abs(state.q).max() == 0.0
    assert np.abs(state.uhat).max() == 0.0


def test_run_zero_steps_returns_initial(mesh2):
    spec = ProblemSpec(constant_members([1.0], [(0, 0)]), autonomous=True)
    disc = Discretization(mesh2, 0)
    solver = EnsembleSolver(disc, spec, dt=0.5)
    state = solver.run(0.0)
    assert state.n == 0 and state.t == 0.0


def test_problem_spec_requires_autonomous():
    """A solver samples autonomous coefficients at t = 0 only, so a
    defaulted autonomous=True would freeze a time-dependent c without a
    word: every spec says which it is."""
    with pytest.raises(TypeError, match="autonomous"):
        ProblemSpec(constant_members([1.0], [(0, 0)]))


def test_run_rejects_non_integral_grid(mesh2):
    spec = ProblemSpec(constant_members([1.0], [(0, 0)]), autonomous=True)
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
                               lambda x, y: u_ex(x, y, 0.0), u_ex, q_ex)],
                       autonomous=True)
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
    """Three steps from a random degree-k start: step 1 builds the RHS
    operators, steps 2 and 3 reuse them."""
    spec = example1()
    disc = Discretization(build_uniform_square_mesh(2), k)
    dt = 0.1
    tau = 2.6797
    state = initialize(spec, disc)
    state.u = rng.normal(size=state.u.shape)
    state.q = rng.normal(size=state.q.shape)

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
    level = solver._coeff_cache
    assert all(w.shape[0] == 1 and not w.any() for w, _ in level["dev"])
    # a mode whose deviation weights are all zero adds nothing: the lag
    # operators hold only the (1/dt) mass
    d = disc.ndof_u
    solver.step(initialize(spec, disc))
    ops = solver._ops
    assert not ops.mass_c.any() and not ops.u_op[..., d:, :].any()
    time_mass = disc.geom.det[:, None, None] / 0.5 * \
        solver._block_tables.lag.mass
    assert np.array_equal(ops.u_op[0, :, :d], time_mass)


def test_factorization_reuse(mesh2):
    spec = example1()
    disc = Discretization(mesh2, 0)
    solver = EnsembleSolver(disc, spec, dt=0.25)
    solver.run(1.0)
    assert solver.n_factorizations == 1
    assert solver.n_steps == 4


def test_factorization_is_kept_while_the_mean_weights_stay(mesh2):
    """Separable c_j with weights 1 and 2, then 1 and the next double
    after 2 from t = 0.5 on: the mean weight of c moves by one ulp at
    step 2, which refactorizes, and stays at step 3, which keeps the LU."""
    def one(x, y):
        return np.ones_like(x)

    def constant(value):
        return SeparableField([lambda t: value], [one])

    after_two = np.nextafter(2.0, 3.0)
    members = constant_members([1.0, 2.0], [(0, 0)] * 2)
    members[0].c = constant(1.0)
    members[1].c = SeparableField(
        [lambda t: 2.0 if t < 0.5 else after_two], [one])
    for m in members:
        m.beta = VectorField(constant(0.5), constant(0.2))
    spec = ProblemSpec(members, autonomous=False)
    disc = Discretization(mesh2, 0)
    solver = EnsembleSolver(disc, spec, dt=0.25, tau=1.0)
    assert solver._c.separable and solver._beta.separable
    # θ̄ of c, then of β
    means = [solver._coefficients(t)["built_from"]
             for t in (0.25, 0.5, 0.75)]
    assert means[1][0] == np.nextafter(means[0][0], 2.0)
    assert np.array_equal(means[1][1:], means[0][1:])
    assert np.array_equal(means[2], means[1])
    state = initialize(spec, disc)
    systems = []
    for _ in range(3):
        state = solver.step(state)
        systems.append(solver.system)
    assert solver.n_factorizations == 2
    assert systems[1] is not systems[0] and systems[2] is systems[1]


def test_wrong_autonomous_flag_is_named(mesh4):
    """The refactor family flagged autonomous: frozen at t = 0 its c would
    factorize once instead of four times and end 1.9% off in u (max
    norm).  Its c weights at t_1 differ from those at t_0, and the run
    names member 1 and c before the first step.  A separable β whose y
    component grows with t is named by its member and component."""
    spec = ProblemSpec(scaled_example1(1).members, autonomous=True)
    solver = EnsembleSolver(Discretization(mesh4, 1), spec, dt=0.25)
    with pytest.raises(ValueError, match="^member 1: the c weights at "
                                         "t = 0.25 differ from those at "
                                         "t = 0, but the spec is "
                                         "autonomous$"):
        solver.run(1.0)
    assert solver.n_steps == 0

    def one(x, y):
        return np.ones_like(x)

    members = constant_members([1.0, 2.0], [(0, 0)] * 2)
    for m, grows in zip(members, (0.0, 1.0)):
        m.c = SeparableField([lambda t: 1.0], [one])
        m.beta = VectorField(
            SeparableField([lambda t: 0.5], [one]),
            SeparableField([lambda t, g=grows: 0.2 * (1 + g * t)], [one]))
    spec = ProblemSpec(members, autonomous=True)
    solver = EnsembleSolver(Discretization(mesh4, 1), spec, dt=0.25)
    with pytest.raises(ValueError, match="^member 2: the beta_y weights "
                                         "at t = 0.25 differ from those "
                                         "at t = 0, but the spec is "
                                         "autonomous$"):
        solver.run(1.0)
    assert solver.n_steps == 0


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
    spec = ProblemSpec(members, autonomous=True)
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

    def spy(rhs):
        seen.append((id(solver.system), rhs.shape[1]))
        return orig(rhs)

    solver.system.solve_multi = spy
    solver.run(1.0)
    assert len(seen) == 4  # one block solve per step
    assert all(cols == spec.J for _, cols in seen)
    assert len({h for h, _ in seen}) == 1


def test_stability_no_blowup_small(mesh2, rng):
    """f = 0, g = 0, random start: the trajectory stays bounded."""
    spec = ProblemSpec(constant_members(list(EXAMPLE1_C),
                                        [(0.5, 0.2)] * 3), autonomous=True)
    disc = Discretization(mesh2, 1)
    state0 = initialize(spec, disc)
    state0.u = rng.normal(size=state0.u.shape)
    solver = EnsembleSolver(disc, spec, dt=0.1)
    state = state0
    norm0 = np.abs(state0.u).max()
    for _ in range(10):
        state = solver.step(state)
        assert np.abs(state.u).max() < 5 * norm0


def assert_steps_match_dense(solver, spec, tau, dt, state, steps):
    """Step the solver and the dense oracle from the same state each
    step, and compare u, q and uhat."""
    for _ in range(steps):
        got = solver.step(state)
        want = dense_step(solver.disc, spec, tau, dt, state)
        for name in ("u", "q", "uhat"):
            a, b = getattr(got, name), getattr(want, name)
            scale = max(1.0, np.abs(b).max())
            assert np.abs(a - b).max() < 1e-10 * scale, (got.n, name)
        state = got


def test_element_velocity_change_refactorizes(single_cell_mesh):
    """beta = 5t b(x, y) (1, -1) with b zero on every edge of the 2-element
    mesh: the face samples of the mean velocity never change, the element
    samples do, and each step needs its own factorization."""
    def bubble(x, y):
        return x * y * (1 - x) * (1 - y) * (x - y) * (x + y - 1)

    member = constant_members([1.0], [(0.0, 0.0)])[0]
    member.beta = lambda x, y, t: 5.0 * t * bubble(x, y)[..., None] * \
        np.array([1.0, -1.0])
    member.f = lambda x, y, t: np.ones_like(x)
    spec = ProblemSpec([member], autonomous=False)
    disc = Discretization(single_cell_mesh, 1)
    dt, tau = 0.25, 2.0
    solver = EnsembleSolver(disc, spec, dt=dt, tau=tau)
    assert_steps_match_dense(solver, spec, tau, dt, initialize(spec, disc),
                             4)
    assert solver.n_factorizations == 4


@pytest.mark.parametrize("k", [0, 1, 2])
def test_changing_mean_matches_dense_steps(mesh2, rng, k):
    """c_j = c0_j (1 + t/2)(1 + x/4) and beta_j = (1 + t)(a_j y, a_j x)
    vary in space and time: every step rebuilds the blocks from the one
    BlockTables of the solver and refactorizes, and matches the dense
    solve of that step."""
    members = constant_members([1.0, 2.0], [(0.0, 0.0)] * 2)
    for m, c0, a in zip(members, (1.0, 2.0), (0.5, -0.3)):
        m.c = lambda x, y, t, c0=c0: c0 * (1 + 0.5 * t) * (1 + 0.25 * x)
        m.beta = lambda x, y, t, a=a: (1 + t) * np.stack([a * y, a * x], -1)
    spec = ProblemSpec(members, autonomous=False)
    disc = Discretization(mesh2, k)
    dt, tau = 0.25, 1.5
    solver = EnsembleSolver(disc, spec, dt=dt, tau=tau)
    state = initialize(spec, disc)
    state.u = rng.normal(size=state.u.shape)
    state.q = rng.normal(size=state.q.shape)
    assert_steps_match_dense(solver, spec, tau, dt, state, 4)
    assert solver.n_factorizations == 4


@pytest.mark.parametrize("k", [0, 1])
def test_steady_ensemble_matches_separate_steady_states(mesh4, k):
    """Mean part and lagged deviation part add up to each member's own
    operator: with non-polynomial c_j and beta_j and steady data, the
    ensemble's fixed point is every member's own steady state, and 80
    steps of dt = 1 reach both to rounding."""
    x, y = sympy.symbols("x y")
    u = sympy.sin(2 * x) * sympy.cos(y) + x * y
    members = [manufactured_member(
        (1 + sympy.sin(3 * x * y) / 2) * (1 + s * sympy.cos(2 * x) / 10),
        (s * y / 10, -s * x / 10 + sympy.Rational(1, 2)), u)
        for s in (1, -1)]
    spec = ProblemSpec(members, autonomous=True)
    disc = Discretization(mesh4, k)
    dt, tau, T = 1.0, 2.0, 80.0
    ens = EnsembleSolver(disc, spec, dt=dt, tau=tau).run(T)
    for j in range(spec.J):
        alone = EnsembleSolver(disc, spec.single_member(j), dt=dt,
                               tau=tau).run(T)
        for name in ("u", "q", "uhat"):
            a, b = getattr(ens, name)[j], getattr(alone, name)[0]
            assert np.abs(a - b).max() < 1e-12 * np.abs(b).max(), (j, name)


def plain(fn):
    return lambda x, y, t: fn(x, y, t)


@pytest.mark.parametrize("plain_data", [False, True],
                         ids=["separable", "plain-callables"])
def test_rhs_from_moments_matches_sampled_rhs(mesh4, rng, plain_data):
    """The RHS from the data moments the solver builds at construction
    against per-element quadrature of f and g sampled at each time.
    Example 1's f has two time factors and its g = u depends on time."""
    from ensemble_hdg.local import BlockTables, assemble_all_rhs
    from ensemble_hdg.solver import EnsembleState

    from oracles import local_rhs
    from samples import sampled_rhs_operators

    spec = example1()
    if plain_data:
        spec = ProblemSpec([Member(m.c, m.beta, plain(m.f), plain(m.g),
                                   m.u0) for m in spec.members],
                           autonomous=True)
    else:
        assert isinstance(spec.members[0].f, SeparableField)
    disc = Discretization(mesh4, 1)
    ne, d = mesh4.n_elements, disc.ndof_u
    nq, nqf = len(disc.w_data), len(disc.w_fdata)
    J, tau, dt = spec.J, 2.0, 0.3
    solver = EnsembleSolver(disc, spec, dt=dt, tau=tau)
    c_dev = rng.normal(size=(J, ne, nq))
    b_dev = rng.normal(size=(J, ne, nq, 2))
    bf_dev = rng.normal(size=(J, ne, 3, nqf, 2))
    ops = sampled_rhs_operators(disc, BlockTables(disc, tau, dt), c_dev,
                                b_dev, bf_dev)
    prev = EnsembleState(1, 0.0, rng.normal(size=(J, ne, d)),
                         rng.normal(size=(J, ne, 2 * d)), None)
    s = lag_samples(disc, prev)
    x, y = disc.x_data_flat, disc.y_data_flat
    xf, yf = disc.xf_fdata_flat, disc.yf_fdata_flat
    for t in (0.3, 0.9):
        b_int, b_tr = assemble_all_rhs(disc, ops, solver._data_rows(t),
                                       prev.u, prev.q)
        for j, m in enumerate(spec.members):
            f_vals = m.f(x, y, t).reshape(ne, nq)
            g_vals = m.g(xf, yf, t).reshape(ne, 3, nqf)
            for ie in range(ne):
                loc = local_rhs(disc, ie, tau, dt, f_vals[ie], g_vals[ie],
                                s["u"][j, ie], s["grad_u"][j, ie],
                                s["q"][j, ie], s["u_face"][j, ie],
                                c_dev[j, ie], b_dev[j, ie], bf_dev[j, ie])
                assert np.abs(b_int[j, ie] - loc[:3 * d]).max() < 1e-12
                assert np.abs(b_tr[j, ie] - loc[3 * d:]).max() < 1e-12


def test_no_step_samples_the_data_or_the_exact_solutions(mesh4,
                                                          monkeypatch):
    """After construction, an autonomous run with an ErrorAccumulator
    evaluates none of the spatial factors of f, g and the exact solutions;
    c and β are sampled per run, not per step, and the state is sampled
    at the final step only."""
    from collections import Counter

    from ensemble_hdg import errors

    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(errors, "state_samples",
                        counted("state", errors.state_samples))

    def run(steps):
        spec = example1()
        disc = Discretization(mesh4, 1)
        dt = 0.125
        solver = EnsembleSolver(disc, spec, dt=dt)
        acc = errors.ErrorAccumulator(disc, spec, dt, final_step=steps)
        calls.clear()
        for m in spec.members:
            for name, field in (("data", m.f), ("data", m.g),
                                ("data", m.exact_u), ("data", m.exact_q.fx),
                                ("data", m.exact_q.fy), ("coefficients", m.c),
                                ("coefficients", m.beta.fx),
                                ("coefficients", m.beta.fy)):
                assert isinstance(field, SeparableField)
                field._s_fns[:] = [counted(name, s) for s in field._s_fns]
        solver.run(steps * dt, observers=[acc])
        assert np.all(acc.results()["Eu"] > 0)
        return dict(calls)

    short, long = run(2), run(4)
    assert "data" not in short and "data" not in long
    assert short["coefficients"] > 0 and short["state"] == 1
    assert long == short


@pytest.mark.parametrize("dt, tau", [(np.nan, 1.0), (np.inf, 1.0),
                                     (0.1, np.nan), (0.1, np.inf)],
                         ids=["nan-dt", "inf-dt", "nan-tau", "inf-tau"])
def test_non_finite_dt_and_tau_are_rejected_by_name(mesh2, dt, tau):
    """NaN passes dt <= 0, and SuperLU would call the matrix singular."""
    from ensemble_hdg.local import BlockTables

    name = "tau" if np.isfinite(dt) else "dt"
    disc = Discretization(mesh2, 0)
    with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                         f"finite"):
        EnsembleSolver(disc, example1(), dt=dt, tau=tau)
    with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                         f"finite"):
        BlockTables(disc, tau, dt)


def scaled_example1(spatial):
    """Example 1's members with c_j = c_j^0 (1 + t/2) times `spatial`;
    with spatial = 1 the benchmark's refactorizing family."""
    x, y, t = sympy.symbols("x y t")
    return ProblemSpec(
        [manufactured_member(cj * (1 + t / 2) * spatial, (aj * y, aj * x),
                             sympy.sin(t) * sympy.sin(x) * sympy.sin(y) / j)
         for j, (cj, aj) in enumerate(zip(EXAMPLE1_C, EXAMPLE1_BETA_SCALE),
                                      1)],
        autonomous=False)


def mode_solver(spec, mesh):
    return EnsembleSolver(Discretization(mesh, 1), spec, dt=0.1, tau=1.0)


@pytest.mark.parametrize("family, counts", [
    ("refactor", (1, 2)), ("example1", (1, 2)),
    # c: 1 (the t of sin x + t), sin x, xy + 1 and e^-x + y; β: y and x
    ("random", (4, 2))])
def test_members_share_their_spatial_factors_as_modes(mesh2, family,
                                                      counts):
    spec = {"refactor": lambda: scaled_example1(1), "example1": example1,
            "random": lambda: ProblemSpec(random_field_members("sympy"),
                                          autonomous=False)}[family]()
    solver = mode_solver(spec, mesh2)
    assert solver._c.separable and solver._beta.separable
    assert (solver._c.n_modes, solver._beta.n_modes) == counts
    # e_x y for the x components of β, e_y x for the y components
    disc = solver.disc
    x, y = (np.concatenate([getattr(disc, f"{coord}_data_flat"),
                            getattr(disc, f"{coord}f_fdata_flat")])
            for coord in "xy")
    zero = np.zeros_like(x)
    want = np.stack([np.stack([y, zero], -1), np.stack([zero, x], -1)])
    assert np.array_equal(solver._beta.modes(0.3)[1][0], want)


@pytest.mark.parametrize("family", ["refactor", "random"])
def test_weights_times_modes_reproduce_the_member_samples(mesh4, family):
    spec = scaled_example1(1) if family == "refactor" else ProblemSpec(
        random_field_members("sympy"), autonomous=False)
    solver = mode_solver(spec, mesh4)
    disc = solver.disc
    x, y = disc.x_data_flat, disc.y_data_flat
    xb = np.concatenate([x, disc.xf_fdata_flat])
    yb = np.concatenate([y, disc.yf_fdata_flat])
    for t in (0.0, 0.3, 0.9):
        Wc, (c, _) = solver._c.modes(t)
        Wb, (b, _) = solver._beta.modes(t)
        for j, m in enumerate(spec.members):
            want_c = m.c(x, y, t)
            want_b = m.beta(xb, yb, t)
            assert np.abs(Wc[j] @ c - want_c).max() <= \
                1e-15 * np.abs(want_c).max()
            assert np.abs(np.tensordot(Wb[j], b, 1) - want_b).max() <= \
                1e-15 * max(1.0, np.abs(want_b).max())


def count_projections(monkeypatch):
    """The calls of `local.c_terms` and `local.beta_terms`, by name."""
    from collections import Counter

    from ensemble_hdg import local

    built = Counter()
    for name in ("c_terms", "beta_terms"):
        def counted(*args, name=name, fn=getattr(local, name)):
            built[name] += 1
            return fn(*args)

        monkeypatch.setattr(local, name, counted)
    return built


def assert_steps_match_dense_oracle(disc, spec, tau, dt, steps, built,
                                    per_level):
    """March `steps` steps from Pi_k u0; each matches the dense
    per-member solve, and after step n the projections have run as
    per_level(n) says."""
    solver = EnsembleSolver(disc, spec, dt=dt, tau=tau)
    state = initialize(spec, disc)
    for n in range(1, steps + 1):
        got = solver.step(state)
        want = dense_step(disc, spec, tau, dt, state)
        for name in ("u", "q", "uhat"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (n, name)
        assert dict(built) == per_level(n), n
        state = got
    return solver


def test_mode_family_steps_like_the_dense_oracle(mesh2, monkeypatch):
    """c_j = c_j^0 (1 + t/2)(1 + x^2/4): one shared c-mode whose weight
    changes every step.  Each step refactorizes and matches the dense
    per-member solve, and the mode terms, shared by the blocks and the
    steps, are built once, however many steps run."""
    built = count_projections(monkeypatch)
    x = sympy.symbols("x")
    spec = scaled_example1(1 + x ** 2 / 4)
    solver = assert_steps_match_dense_oracle(
        Discretization(mesh2, 1), spec, 2.0, 0.125, 4, built,
        lambda n: {"c_terms": 1, "beta_terms": 1})
    assert solver._c.n_modes == 1
    assert solver.n_factorizations == 4


def test_plain_velocity_is_projected_every_level(mesh2, monkeypatch):
    """Separable, time-dependent c_j = c_j^0 (1 + t/2)(1 + x^2/4) and
    plain-callable β_j = (1 + t)(a_j y, a_j x): the c terms are built
    once, the velocity terms of the members' samples at every level, and
    every step matches the dense per-member solve."""
    built = count_projections(monkeypatch)
    x = sympy.symbols("x")
    spec = scaled_example1(1 + x ** 2 / 4)
    for m, a in zip(spec.members, EXAMPLE1_BETA_SCALE):
        m.beta = lambda x, y, t, a=a: (1 + t) * np.stack([a * y, a * x], -1)
    solver = assert_steps_match_dense_oracle(
        Discretization(mesh2, 1), spec, 3.0, 0.125, 4, built,
        lambda n: {"c_terms": 1, "beta_terms": n})
    assert solver._c.separable and not solver._beta.separable
    assert solver.n_factorizations == 4


def test_constant_ensembles_share_one_mode_per_coefficient(mesh2):
    """Example 3 and config-file ensembles: c and f are multiples of the
    one spatial factor 1, β of e_x and e_y, and f's rows are projected
    once."""
    from ensemble_hdg.problems import example3

    solver = mode_solver(example3(), mesh2)
    stacks = (solver._c, solver._beta, solver._f_rows)
    assert all(s.separable for s in stacks)
    assert [s.n_modes for s in stacks] == [1, 2, 1]


@pytest.mark.parametrize("field, value", [("c", np.nan), ("c", np.inf),
                                          ("beta", np.nan)])
def test_non_finite_coefficients_are_named(mesh2, field, value):
    """NaN passes c <= 0 and Python's max in choose_tau skips it: such a
    member used to reach SuperLU, which called the trace matrix exactly
    singular.  The first element with the sample and the member are
    named."""
    members = constant_members([1.0, 2.0], [(0.5, 0.2)] * 2)
    if field == "c":
        members[1].c = lambda x, y, t: np.where(x > 0.5, value, 2.0)
    else:
        members[1].beta = lambda x, y, t: np.stack(
            [np.where(x > 0.5, value, 0.5), np.full_like(x, 0.2)], -1)
    disc = Discretization(mesh2, 1)
    e = int(np.argmax((disc.X_data[..., 0] > 0.5).any(axis=1)))
    name = "c" if field == "c" else "beta_x"
    with pytest.raises(CoefficientError,
                       match=f"^element {e}: the {name} sample of member 2 "
                             f"at t = 0.0 is not finite"):
        EnsembleSolver(disc, ProblemSpec(members, autonomous=True), dt=0.1)


def test_infinite_velocity_is_named(mesh2):
    """An infinite β_y sample makes inf·0 in the velocity terms, which
    are built before the samples are checked: with tau given, so that
    choose_tau does not reject it first, the sample is named and no
    RuntimeWarning is raised."""
    members = constant_members([1.0, 2.0], [(0.5, 0.2)] * 2)
    members[0].beta = lambda x, y, t: np.stack(
        [np.full_like(x, 0.5), np.where(x > 0.5, np.inf, 0.2)], -1)
    disc = Discretization(mesh2, 1)
    e = int(np.argmax((disc.X_data[..., 0] > 0.5).any(axis=1)))
    with pytest.raises(CoefficientError,
                       match=f"^element {e}: the beta_y sample of member 1 "
                             f"at t = 0.0 is not finite$"):
        EnsembleSolver(disc, ProblemSpec(members, autonomous=True), dt=0.1,
                       tau=1.0)


def test_non_finite_weight_names_its_time(mesh2):
    """A separable c whose time factor turns NaN: the modes stay finite,
    and the step at that time names the member and t."""
    def one(x, y):
        return np.ones_like(x)

    members = constant_members([1.0, 2.0], [(0, 0)] * 2)
    members[0].c = SeparableField([lambda t: 1.0], [one])
    members[1].c = SeparableField(
        [lambda t: 2.0 if t < 0.25 else float("nan")], [one])
    spec = ProblemSpec(members, autonomous=False)
    disc = Discretization(mesh2, 0)
    solver = EnsembleSolver(disc, spec, dt=0.125, tau=1.0)
    state = solver.step(initialize(spec, disc))
    with pytest.raises(CoefficientError,
                       match="^member 2: a weight of c or beta is not "
                             "finite at t = 0.25$"):
        solver.step(state)


def test_refactor_family_keeps_the_velocity_lag_operator(mesh2,
                                                        monkeypatch):
    """c_j = c_j^0 (1 + t/2) and autonomous β_j: the c deviation weights
    change at every step, the velocity ones never do.  Over 8 steps u_op
    is built once, and mass_c follows c."""
    from ensemble_hdg import local

    built = []
    build = local.rhs_operators

    def counted(disc, tables, c, beta, kept):
        ops = build(disc, tables, c, beta, kept)
        if kept is None or ops.u_op is not kept.u_op:
            built.append(ops.u_op)
        return ops

    monkeypatch.setattr(local, "rhs_operators", counted)
    spec = scaled_example1(1)
    disc = Discretization(mesh2, 1)
    dt = 0.125
    solver = EnsembleSolver(disc, spec, dt=dt, tau=2.0)
    state = initialize(spec, disc)
    kept = None
    for n in range(1, 9):
        state = solver.step(state)
        ops = solver._ops
        level = solver._coefficients(n * dt)
        fresh = build(disc, solver._block_tables, *level["dev"], None)
        assert np.array_equal(ops.mass_c, fresh.mass_c), n
        assert np.array_equal(ops.u_op, fresh.u_op), n
        assert kept is None or ops.u_op is kept.u_op, n
        assert kept is None or not np.array_equal(ops.mass_c, kept.mass_c)
        kept = ops
    assert len(built) == 1
    assert solver.n_factorizations == 8


def test_time_dependent_velocity_modes_step_like_the_dense_oracle(mesh2):
    """β_j = (1 + t)(a_j y, a_j x): a separable family whose velocity
    deviation weights change at every step while c stays, so a lag
    operator kept on the c weights alone would go stale."""
    x, y, t = sympy.symbols("x y t")
    spec = ProblemSpec(
        [manufactured_member(cj, ((1 + t) * aj * y, (1 + t) * aj * x),
                             sympy.sin(t) * sympy.sin(x) * sympy.sin(y) / j)
         for j, (cj, aj) in enumerate(zip(EXAMPLE1_C, EXAMPLE1_BETA_SCALE),
                                      1)],
        autonomous=False)
    disc = Discretization(mesh2, 1)
    dt, tau = 0.125, 3.0
    solver = EnsembleSolver(disc, spec, dt=dt, tau=tau)
    assert solver._beta.separable
    state = initialize(spec, disc)
    for n in range(1, 5):
        got = solver.step(state)
        want = dense_step(disc, spec, tau, dt, state)
        for name in ("u", "q", "uhat"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (n, name)
        state = got
    assert solver.n_factorizations == 4
