import math
import re

import numpy as np
import pytest
import sympy

from ensemble_hdg.discretization import Discretization
from ensemble_hdg.errors import ErrorAccumulator
from ensemble_hdg.io import (load_config, problem_from_config,
                             read_convergence_csv, snapshot_values,
                             write_convergence_csv, write_snapshot_csv,
                             write_snapshot_vtk)
from ensemble_hdg.mesh import build_uniform_square_mesh
from ensemble_hdg.postprocess import Postprocessor
from ensemble_hdg.problems import (EXAMPLE1_BETA_SCALE, EXAMPLE1_C,
                                   example1, example2, example3,
                                   manufactured_member)
from ensemble_hdg.solver import EnsembleSolver, ProblemSpec
from ensemble_hdg.study import (ConvergenceTable, convergence_study,
                                resolve_dt_rule, run_level, snap_dt)
from oracles import l2_norm_squared


def test_observed_rates_synthetic():
    """E_l = 2^(-p l) must give the rate exactly p, also across a gap in
    the levels or a repeated level, where the rate is taken against the
    last other level."""
    for levels in (range(1, 6), (1, 3, 4), (1, 3, 3, 4)):
        for p in (1.0, 2.0, 3.0):
            table = ConvergenceTable()
            for level in levels:
                err = np.array([2.0 ** (-p * level)])
                table.add_level(level, {"Eq": err, "Eu": err, "Eustar": err},
                                {})
            for key in ("Eq", "Eu", "Eustar"):
                rates = np.array(table.column(1, f"{key}_rate")[1:])
                assert len(rates) == len(levels) - 1
                assert np.abs(rates - p).max() < 1e-13


def test_snap_dt_properties():
    # never increases dt
    for T, dtr in ((1.0, 0.3), (1.0, math.sqrt(2) / 8), (0.1, 0.004),
                   (2.0, 0.5)):
        dt = snap_dt(T, dtr)
        n = T / dt
        assert abs(n - round(n)) < 1e-9
        assert dt <= dtr * (1 + 1e-9)
        assert (dtr - dt) / dtr < 1.0 / round(n) + 1e-12
    # exact divisions stay put
    assert snap_dt(1.0, 0.25) == 0.25
    with pytest.raises(ValueError):
        snap_dt(1.0, 0.0)


def test_resolve_dt_rule():
    h = math.sqrt(2) / 8
    assert resolve_dt_rule("h", h, 1.0) == snap_dt(1.0, h)
    assert resolve_dt_rule("h3", h, 1.0) == snap_dt(1.0, h ** 3)
    assert resolve_dt_rule("fixed=0.02", h, 1.0) == 0.02
    assert resolve_dt_rule(0.25, h, 1.0) == 0.25
    with pytest.raises(ValueError):
        resolve_dt_rule("h2", h, 1.0)


def test_constant_mismatch_norm(mesh2):
    """A constant offset delta on one element contributes
    delta * sqrt(element area)."""
    disc = Discretization(mesh2, 0)
    vals = np.zeros((mesh2.n_elements, len(disc.w_data)))
    vals[3] = 0.5
    got = math.sqrt(l2_norm_squared(disc, vals))
    want = 0.5 * math.sqrt(disc.geom.det[3] / 2)
    assert abs(got - want) < 1e-14


def test_error_accumulator_exact_discrete_solution(mesh2):
    """Polynomial exact solution: all error metrics at rounding level."""
    import numpy as np

    from ensemble_hdg.solver import Member, ProblemSpec

    c = lambda x, y, t: np.full_like(x, 2.0)
    beta = lambda x, y, t: np.stack([np.full_like(x, 0.1),
                                     np.full_like(x, -0.4)], -1)
    u_ex = lambda x, y, t: (1 + 2 * t) * (x - y)
    q_ex = lambda x, y, t: np.stack([np.full_like(x, -(1 + 2 * t) / 2.0),
                                     np.full_like(x, (1 + 2 * t) / 2.0)], -1)
    f = lambda x, y, t: 2 * (x - y) + (1 + 2 * t) * (0.1 - (-0.4))
    spec = ProblemSpec([Member(c, beta, f, u_ex, u_ex, u_ex, q_ex)],
                       autonomous=True)
    disc = Discretization(mesh2, 1)
    dt = 0.25
    solver = EnsembleSolver(disc, spec, dt=dt, tau=1.5)
    acc = ErrorAccumulator(disc, spec, dt, final_step=4)
    solver.run(1.0, observers=[acc])
    res = acc.results()
    assert res["Eu"][0] < 1e-12
    assert res["Eq"][0] < 1e-11
    # u* reproduces the degree <= k+1 exact pair as well
    assert res["Eustar"][0] < 1e-11


def time_dependent_example1():
    """Example 1's members with inverse diffusion c_j (1 + t/2)."""
    import sympy

    from ensemble_hdg.problems import (EXAMPLE1_BETA_SCALE, EXAMPLE1_C,
                                       manufactured_member)
    from ensemble_hdg.solver import ProblemSpec

    x, y, t = sympy.symbols("x y t")
    members = []
    for j, (cj, aj) in enumerate(zip(EXAMPLE1_C, EXAMPLE1_BETA_SCALE), 1):
        u = sympy.sin(t) * sympy.sin(x) * sympy.sin(y) / j
        members.append(manufactured_member(cj * (1 + t / 2), (aj * y, aj * x),
                                           u))
    return ProblemSpec(members, autonomous=False)


def plain_callable_example1():
    """Example 1 with f, g, exact_u and exact_q behind plain lambdas, so
    that no data field is a SeparableField or a VectorField."""
    from ensemble_hdg.solver import Member, ProblemSpec

    def plain(fn):
        return lambda x, y, t: fn(x, y, t)

    return ProblemSpec([Member(m.c, m.beta, plain(m.f), plain(m.g), m.u0,
                               plain(m.exact_u), plain(m.exact_q))
                        for m in example1().members], autonomous=True)


@pytest.mark.parametrize("make_spec", [example1, time_dependent_example1,
                                       plain_callable_example1],
                         ids=["autonomous", "time-dependent",
                              "plain-callables"])
def test_error_accumulator_matches_per_member_loop(mesh4, make_spec):
    """The vectorised observer, with its u* maps weighted by the time
    factors of c, against the per-member quadrature loop, on the same
    trajectory."""
    from oracles import LoopErrorAccumulator

    spec = make_spec()
    disc = Discretization(mesh4, 1)
    dt = 0.125
    acc = ErrorAccumulator(disc, spec, dt, final_step=4)
    ref = LoopErrorAccumulator(disc, spec, dt, final_step=4)
    EnsembleSolver(disc, spec, dt=dt).run(0.5, observers=[acc, ref])
    got, want = acc.results(), ref.results()
    for key in ("Eu", "Eq", "Eustar"):
        assert np.all(want[key] > 0)
        assert np.all(np.abs(got[key] - want[key]) < 1e-12 * want[key])


def example3_against_example1():
    """Example 3, which has no exact solution, measured against example
    1's: the observer's norms hold for any state and any exact field."""
    from ensemble_hdg.solver import Member

    return ProblemSpec([Member(m.c, m.beta, m.f, m.g, m.u0, r.exact_u,
                               r.exact_q)
                        for m, r in zip(example3().members,
                                        example1().members)],
                       autonomous=True)


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("make_spec", [example1, example2,
                                       example3_against_example1,
                                       time_dependent_example1],
                         ids=["example1", "example2", "example3",
                              "refactor"])
def test_eu_from_coefficients_matches_the_point_sample_norm(mesh2, make_spec,
                                                            degree):
    """Eu, taken from the P_(k+1) coefficients of Pi u and of u_h, against
    the loop oracle's quadrature of the point samples of u - u_h."""
    from oracles import LoopErrorAccumulator

    spec = make_spec()
    disc = Discretization(mesh2, degree)
    dt = 0.05
    acc = ErrorAccumulator(disc, spec, dt, final_step=3)
    ref = LoopErrorAccumulator(disc, spec, dt, final_step=3)
    EnsembleSolver(disc, spec, dt=dt).run(3 * dt, observers=[acc, ref])
    got, want = acc.results()["Eu"], ref.results()["Eu"]
    assert np.all(want > 0)
    assert np.all(np.abs(got - want) <= 1e-11 * want)


def test_error_accumulator_requires_exact_solutions(mesh2):
    """A member without an exact solution is named at construction."""
    from ensemble_hdg.solver import ProblemSpec

    disc = Discretization(mesh2, 0)
    with pytest.raises(ValueError, match="member 1 "):
        ErrorAccumulator(disc, example3(), 0.1, final_step=1)
    mixed = ProblemSpec([example1().members[0], example3().members[1]],
                        autonomous=True)
    with pytest.raises(ValueError, match="member 2 "):
        ErrorAccumulator(disc, mixed, 0.1, final_step=1)


@pytest.mark.parametrize("field", ["exact_u", "exact_q"])
def test_error_accumulator_names_a_non_finite_exact_field(mesh2, field):
    """A NaN exact_u, or a NaN y component of exact_q, used to leave that
    member's errors NaN without a message.  The first observation names
    the member, the field with its component, the first such data point
    and t."""
    from ensemble_hdg.local import CoefficientError

    spec = example1()
    member = spec.members[1]
    exact = getattr(member, field)

    def spoiled(x, y, t):
        v = np.array(exact(x, y, t), dtype=float)
        v[(x > 0.5, 1) if field == "exact_q" else x > 0.5] = np.nan
        return v

    setattr(member, field, spoiled)
    disc = Discretization(mesh2, 1)
    x, y = disc.x_data_flat, disc.y_data_flat
    p = int(np.argmax(x > 0.5))
    name = "exact_q_y" if field == "exact_q" else "exact_u"
    acc = ErrorAccumulator(disc, spec, 0.25, final_step=4)
    solver = EnsembleSolver(disc, spec, dt=0.25)
    with pytest.raises(CoefficientError, match="^" + re.escape(
            f"member 2: the {name} sample at ({float(x[p])}, "
            f"{float(y[p])}) at t = 0.25 is not finite") + "$"):
        solver.run(1.0, observers=[acc])
    assert acc.last_step is None


def test_error_accumulator_rejects_a_missing_final_step(mesh2):
    """A run that stops before `final_step` has no final-time Eu: results
    names the step it waited for and the last one it saw."""
    spec = example1()
    disc = Discretization(mesh2, 1)
    acc = ErrorAccumulator(disc, spec, 0.25, final_step=8)
    EnsembleSolver(disc, spec, dt=0.25).run(1.0, observers=[acc])
    with pytest.raises(ValueError, match="final_step 8 .* last step seen "
                       "was 4"):
        acc.results()


def projected_state(disc, spec, t, perturbation=0.0, rng=None):
    """The state whose u and q are the data-rule L2 projections onto P_k
    of each member's exact u and q at time t, plus `perturbation` times
    standard normal coefficients.  The projections come from a solve with
    the data-rule mass matrix, not from the basis being orthonormal."""
    from ensemble_hdg.solver import EnsembleState

    x, y, w, V = disc.x_data_flat, disc.y_data_flat, disc.w_data, disc.V_data
    ne = disc.mesh.n_elements
    mass = (V * w) @ V.T

    def project(vals):
        moments = (vals.reshape(ne, -1) * w) @ V.T
        return np.linalg.solve(mass, moments.T).T

    u = np.stack([project(m.exact_u(x, y, t)) for m in spec.members])
    q = np.stack([np.concatenate([project(m.exact_q(x, y, t)[:, c])
                                  for c in (0, 1)], axis=-1)
                  for m in spec.members])
    if perturbation:
        u = u + perturbation * rng.normal(size=u.shape)
        q = q + perturbation * rng.normal(size=q.shape)
    return EnsembleState(1, t, u, q, None)


def test_error_accumulator_returns_the_projection_residual(mesh4):
    """Fed the projection of a separable exact solution, the observer
    returns the pointwise norms of what the projection loses."""
    from ensemble_hdg.postprocess import Postprocessor
    from ensemble_hdg.problems import SeparableField

    spec = example1()
    assert isinstance(spec.members[0].exact_q.fx, SeparableField)
    disc = Discretization(mesh4, 1)
    t = 0.7
    state = projected_state(disc, spec, t)
    acc = ErrorAccumulator(disc, spec, 1.0, final_step=1)
    acc(1, t, state)
    got = acc.results()
    x, y = disc.x_data_flat, disc.y_data_flat
    ne = disc.mesh.n_elements
    c_vals = np.stack([m.c(x, y, t).reshape(ne, -1) for m in spec.members])
    post = Postprocessor(disc)
    star = post.apply(state.u, state.q, post.operator(c_vals))
    d = disc.ndof_u
    for j, m in enumerate(spec.members):
        ue = m.exact_u(x, y, t).reshape(ne, -1)
        qe = m.exact_q(x, y, t).reshape(ne, -1, 2)
        uh = state.u[j] @ disc.V_data
        qh = np.stack([state.q[j, :, :d] @ disc.V_data,
                       state.q[j, :, d:] @ disc.V_data], axis=-1)
        want = {"Eu": l2_norm_squared(disc, ue - uh),
                "Eq": sum(l2_norm_squared(disc, qe[..., i] - qh[..., i])
                          for i in range(2)),
                "Eustar": l2_norm_squared(disc,
                                          ue - star[j] @ disc.V_hi_data)}
        for key, sq in want.items():
            assert abs(got[key][j] - np.sqrt(sq)) < 1e-12 * np.sqrt(sq)


def test_error_accumulator_keeps_the_digits_of_a_small_error(mesh4, rng):
    """An exact solution in the discrete space leaves no projection
    residual: a 1e-10 perturbation of its projection is the whole error,
    and the observer returns it with its digits (a residual taken as
    ||v||^2 - ||Pi v||^2 would bury it under O(1e-16) of cancellation)."""
    import sympy

    from ensemble_hdg.problems import SeparableField, manufactured_member
    from ensemble_hdg.solver import ProblemSpec

    x, y, t = sympy.symbols("x y t")
    spec = ProblemSpec([manufactured_member(2, (0.1, -0.4), (1 + 2 * t) *
                                            (x - y) * s)
                        for s in (1, 3)], autonomous=True)
    assert isinstance(spec.members[0].exact_q.fx, SeparableField)
    disc = Discretization(mesh4, 1)
    exact = projected_state(disc, spec, 0.7)
    state = projected_state(disc, spec, 0.7, 1e-10, rng)
    acc = ErrorAccumulator(disc, spec, 1.0, final_step=1)
    acc(1, 0.7, state)
    got = acc.results()
    det = disc.geom.det
    # the basis is orthonormal: the norm is the weighted coefficient sum
    want_u = np.sqrt(((state.u - exact.u) ** 2).sum(-1) @ det)
    want_q = np.sqrt(((state.q - exact.q) ** 2).sum(-1) @ det)
    assert np.all(want_u > 1e-11) and np.all(want_q > 1e-11)
    assert np.all(np.abs(got["Eu"] - want_u) < 1e-5 * want_u)
    assert np.all(np.abs(got["Eq"] - want_q) < 1e-5 * want_q)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_error_accumulator_reads_a_discrete_solution_at_rounding(mesh4, k):
    """u = (1 + t)(x^k + 2xy^(k-1) + 1) lies in P_k, so its data-rule
    projection leaves no error.  An observer whose projection takes the
    data-rule mass for the identity read Eu 9.7e-15, 2.1e-14 and 5.6e-14
    here for k = 1, 2, 3, and Eq 1.2e-14 at k = 3."""
    x, y, t = sympy.symbols("x y t")
    spec = ProblemSpec([manufactured_member(
        2, (0.1, -0.4), (1 + t) * (x ** k + 2 * x * y ** (k - 1) + 1))],
        autonomous=True)
    disc = Discretization(mesh4, k)
    acc = ErrorAccumulator(disc, spec, 1.0, final_step=1)
    acc(1, 0.7, projected_state(disc, spec, 0.7))
    got = acc.results()
    assert got["Eu"][0] <= 4e-15 and got["Eq"][0] <= 4e-15


def test_error_norm_quadrature_convergence():
    """The data-rule norm converges fast to an order-raised reference."""
    from ensemble_hdg.basis import triangle_quadrature
    from ensemble_hdg.mesh import BatchedGeometry

    f = lambda x, y: np.sin(3 * x) * np.sin(2 * y)
    rel = []
    for n in (4, 16):
        mesh = build_uniform_square_mesh(n)
        disc = Discretization(mesh, 1)
        X = disc.X_data
        got = math.sqrt(l2_norm_squared(disc, f(X[..., 0], X[..., 1])))
        rule = triangle_quadrature(16)
        g = BatchedGeometry(mesh)
        v = g.corners
        Xr = np.einsum("eji,qj->eqi", v[:, 1:] - v[:, :1], rule.points) + \
            v[:, None, 0, :]
        ref = math.sqrt(np.einsum("e,q,eq->", g.det, rule.weights,
                                  f(Xr[..., 0], Xr[..., 1]) ** 2))
        rel.append(abs(got - ref) / ref)
    assert rel[0] < 1e-6
    assert rel[1] < 1e-10  # order-6 rule converges much faster than O(h^2)


def test_convergence_table_rates_and_csv(tmp_path):
    table = ConvergenceTable()
    table.add_level(1, {"Eq": np.array([0.4]), "Eu": np.array([0.2]),
                        "Eustar": np.array([0.1])}, {})
    table.add_level(2, {"Eq": np.array([0.2]), "Eu": np.array([0.05]),
                        "Eustar": np.array([0.0125])}, {})
    assert table.final_rate(1, "Eq") == pytest.approx(1.0)
    assert table.final_rate(1, "Eu") == pytest.approx(2.0)
    assert table.final_rate(1, "Eustar") == pytest.approx(3.0)
    path = tmp_path / "table.csv"
    write_convergence_csv(table, path)
    rows = read_convergence_csv(path)
    assert rows[0]["Eq_rate"] is None
    assert rows[1]["Eu_rate"] == pytest.approx(2.0)
    assert rows[1]["h_over_sqrt2"] == 0.25


def test_empty_table_round_trip(tmp_path):
    table = ConvergenceTable()
    path = tmp_path / "empty.csv"
    write_convergence_csv(table, path)
    assert path.read_text().strip() == ",".join(ConvergenceTable.COLUMNS)
    assert read_convergence_csv(path) == []
    bad = tmp_path / "bad.csv"
    bad.write_text("level,other\n")
    with pytest.raises(ValueError):
        read_convergence_csv(bad)


def test_convergence_study_small_runs_deterministically(tmp_path):
    problem = example1()
    table1 = convergence_study(problem, 0, [1, 2], "h")
    table2 = convergence_study(problem, 0, [1, 2], "h")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_convergence_csv(table1, p1)
    write_convergence_csv(table2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(table1.rows) == 6
    # errors decrease with refinement for every member
    for j in (1, 2, 3):
        col = table1.column(j, "Eu")
        assert col[1] < col[0]


@pytest.mark.parametrize("k, levels, dt_rule, T", [
    (1, [1, 2, 3, 4], "h3", 0.25),
    (0, [2, 3, 4, 5], "h", 1.0),
], ids=["k1-h3", "k0-h"])
def test_convergence_rates(k, levels, dt_rule, T):
    """The paper's rates on example 1: k+1 for Eu and Eq, and k+2 for the
    postprocessed u* at k >= 1, within 0.25 at the finest level.  At k=1
    Eq reads 2.34-2.66 on these coarse levels, so only its lower side is
    asserted; at k=0 u* is not superconvergent and is not asserted."""
    table = convergence_study(example1(), k, levels, dt_rule, T=T)
    for j in (1, 2, 3):
        assert abs(table.final_rate(j, "Eu") - (k + 1)) < 0.25
        if k == 0:
            assert abs(table.final_rate(j, "Eq") - (k + 1)) < 0.25
        else:
            assert table.final_rate(j, "Eq") > k + 1 - 0.25
            assert abs(table.final_rate(j, "Eustar") - (k + 2)) < 0.25


def nonzero_start():
    """Example 1's c_j and β_j with u_j = cos(t) sin x sin y / j
    + e^(xy) (1 + t) / 4, whose u0 is not zero."""
    x, y, t = sympy.symbols("x y t")
    return ProblemSpec(
        [manufactured_member(cj, (aj * y, aj * x),
                             sympy.cos(t) * sympy.sin(x) * sympy.sin(y) / j
                             + sympy.exp(x * y) * (1 + t) / 4)
         for j, (cj, aj) in enumerate(zip(EXAMPLE1_C, EXAMPLE1_BETA_SCALE),
                                      1)],
        autonomous=True)


def test_convergence_rates_from_a_nonzero_start():
    """The rates of a start from Pi_k u0 at T = 0.25, levels 1..3.  At
    k = 1 with dt ~ h^3, Eu, Eq and u* read 1.98-2.00, 1.99-2.01 and
    3.02-3.15 at level 3."""
    spec, T = nonzero_start(), 0.25
    table = convergence_study(spec, 1, [1, 2, 3], "h3", T=T)
    for j in (1, 2, 3):
        assert abs(table.final_rate(j, "Eu") - 2) < 0.25
        assert abs(table.final_rate(j, "Eq") - 2) < 0.25
        assert abs(table.final_rate(j, "Eustar") - 3) < 0.25


@pytest.mark.slow
def test_convergence_rates_from_a_nonzero_start_k2():
    """As above at k = 2 with dt ~ h^4, so that time stays below space:
    Eu, Eq and u* read 2.94, 3.11-3.43 and 4.06-4.68 at level 3.  Eq and
    u* are still above their rates 3 and 4 on these coarse levels, so
    only their lower side is asserted."""
    spec, T = nonzero_start(), 0.25
    table = ConvergenceTable()
    for level in (1, 2, 3):
        n = 2 ** level
        dt = snap_dt(T, (math.sqrt(2.0) / n) ** 4)
        table.add_level(level, *run_level(spec, n, 2, dt, T, False)[:2])
    for j in (1, 2, 3):
        assert abs(table.final_rate(j, "Eu") - 3) < 0.25
        assert table.final_rate(j, "Eq") > 2.75
        assert table.final_rate(j, "Eustar") > 3.75


def test_convergence_study_requires_exact():
    with pytest.raises(ValueError, match="exact"):
        convergence_study(example3(), 0, [1], "h")


def test_run_level_metadata():
    errors, info, state = run_level(example1(), 2, 0, 0.25, 1.0, False)
    assert info["steps"] == 4
    assert info["factorizations"] == 1
    # n = 2: 3 n^2 - 2 n = 8 interior faces, one DOF each at k = 0
    assert info["trace_dofs"] == 8
    assert state.n == 4


def test_snapshot_outputs(tmp_path, mesh2):
    problem = example1()
    disc = Discretization(mesh2, 1)
    solver = EnsembleSolver(disc, problem, dt=0.5)
    state = solver.run(1.0)
    post = Postprocessor(disc)
    star = post.apply(state.u, state.q, post.operator(np.stack(
        [disc.sample_scalar(m.c, state.t) for m in problem.members])))
    pts, u, ustar = snapshot_values(disc, state, star)
    assert pts.shape == (mesh2.n_elements, 4, 2)
    assert u.shape == ustar.shape == (3, mesh2.n_elements, 4)

    csv_path = tmp_path / "snap.csv"
    write_snapshot_csv(disc, state, csv_path, star)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "member,element,x,y,u,ustar"
    assert len(lines) == 1 + 3 * mesh2.n_elements * 4

    vtk_path = tmp_path / "snap.vtk"
    write_snapshot_vtk(disc, state, vtk_path, star)
    text = vtk_path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    npts = int(text[4].split()[1])
    assert npts == 3 * mesh2.n_elements
    assert any(line.startswith("SCALARS u3") for line in text)
    assert any(line.startswith("SCALARS ustar3") for line in text)


def test_config_round_trip(tmp_path):
    """An example-3-shaped custom problem survives the config format."""
    cfg_text = """
[run]
degree = 1
levels = 1..2
dt_rule = fixed=0.01
T = 0.1
strict_admissibility = false

[custom]
J = 3
c = 60, 120, 180
beta_x = 2, 3, 4
beta_y = 3, 4, 5
f = 2, 5, 8
T = 0.1
"""
    path = tmp_path / "run.ini"
    path.write_text(cfg_text)
    cfg = load_config(path)
    assert cfg["degree"] == 1
    assert cfg["custom"]["c"] == [60.0, 120.0, 180.0]
    problem = problem_from_config(cfg)
    assert problem.J == 3
    x = np.array([0.5])
    got = problem.members[2].beta(x, x, 0.0)
    assert got[0, 0] == 4.0 and got[0, 1] == 5.0
    assert problem.members[1].f(x, x, 0.0)[0] == 5.0


def test_config_custom_section_names_a_missing_key(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[custom]\nc = 1, 2\nbeta_x = 0, 0\nf = 1, 1\n")
    with pytest.raises(ValueError, match=r"\[custom\].*'beta_y'"):
        load_config(path)


def test_a_config_without_a_problem_is_an_error():
    with pytest.raises(ValueError, match=r"^config defines neither an "
                       r"example nor a custom problem$"):
        problem_from_config({})


def test_config_custom_section_names_a_bad_entry(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[custom]\nc = 1, x\nbeta_x = 0, 0\nbeta_y = 0, 0\n"
                    "f = 1, 1\n")
    with pytest.raises(ValueError, match=r"\[custom\], key 'c'.*' x'"):
        load_config(path)


@pytest.mark.parametrize("text, where", [
    ("[run]\nexample = 1.5\n", r"\[run\], key 'example'.*'1\.5'"),
    ("[run]\ndegree = one\n", r"\[run\], key 'degree'.*'one'"),
    ("[run]\nT = soon\n", r"\[run\], key 'T'.*'soon'"),
    ("[custom]\nJ = x\nc = 1\nbeta_x = 0\nbeta_y = 0\nf = 1\n",
     r"\[custom\], key 'J'.*'x'"),
    ("[custom]\nc = 1\nbeta_x = 0\nbeta_y = 0\nf = 1\nT = 1/2\n",
     r"\[custom\], key 'T'.*'1/2'"),
    ("[run]\nT = inf\n", r"\[run\], key 'T': final time T = inf"),
    ("[custom]\nc = 1\nbeta_x = 0\nbeta_y = 0\nf = 1\nT = -1\n",
     r"\[custom\], key 'T': final time T = -1\.0"),
    ("[custom]\nc = 1, nan\nbeta_x = 0, 0\nbeta_y = 0, 0\nf = 1, 1\n",
     r"\[custom\], key 'c': ' nan' is not finite"),
    ("[custom]\nc = 1, 2\nbeta_x = 0, inf\nbeta_y = 0, 0\nf = 1, 1\n",
     r"\[custom\], key 'beta_x': ' inf' is not finite"),
    ("[custom]\nc = 1\nbeta_x = 0\nbeta_y = -inf\nf = 1\n",
     r"\[custom\], key 'beta_y': '-inf' is not finite"),
    ("[custom]\nc = 1\nbeta_x = 0\nbeta_y = 0\nf = nan\n",
     r"\[custom\], key 'f': 'nan' is not finite"),
    ("[custom]\nJ = 3\nc = 1, 2\nbeta_x = 0, 0\nbeta_y = 0, 0\nf = 1, 1\n",
     r"^config section \[custom\]: the member lists disagree with J = 3$"),
], ids=["run-example", "run-degree", "run-T", "custom-J", "custom-T",
        "run-T-inf", "custom-T-negative", "custom-c-nan", "custom-beta_x-inf",
        "custom-beta_y-inf", "custom-f-nan", "custom-J-lists"])
def test_config_names_the_section_and_key_of_a_bad_number(tmp_path, text,
                                                         where):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=where):
        load_config(path)
