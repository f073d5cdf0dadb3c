import re
import tracemalloc
import warnings

import numpy as np
import pytest
import sympy

from ensemble_hdg.discretization import Discretization
from ensemble_hdg.local import CoefficientError
from ensemble_hdg.mesh import build_uniform_square_mesh
from ensemble_hdg.problems import (EXAMPLE1_BETA_SCALE, EXAMPLE1_C,
                                   SeparableField, VectorField, example1,
                                   example2, example3, manufactured_member)
from ensemble_hdg.basis import triangle_quadrature
from ensemble_hdg.mesh import BatchedGeometry, element_points
from ensemble_hdg.solver import (EnsembleSolver, Member, ProblemSpec,
                                 check_admissibility, choose_tau,
                                 initialize, state_samples)

from oracles import dense_run, dense_step, lag_samples, whole_mesh_tau
from test_mesh import jittered_mesh


def constant_members(cs, betas):
    members = []
    for cj, (bx, by) in zip(cs, betas):
        members.append(Member(
            c=lambda x, y, t, cj=cj: np.full_like(x, cj),
            beta=lambda x, y, t, bx=bx, by=by: np.stack(
                [np.full_like(x, bx), np.full_like(x, by)], -1),
            f=lambda x, y, t: np.zeros_like(x),
            g=lambda x, y, t: np.zeros_like(x),
            u0=lambda x, y, t: np.zeros_like(x)))
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


def admissibility(spec, mesh, times):
    """The check of a k = 1 solver on mesh, whose c stack reads the
    order-6 data points."""
    solver = EnsembleSolver(Discretization(mesh, 1), spec, dt=1.0, tau=1.0)
    return check_admissibility(solver, times)


def test_admissibility_example1(mesh2):
    report = admissibility(example1(), mesh2, [0.0])
    assert report.ok
    assert report.c_min > 0.26


def test_admissibility_single_member_trivial(mesh2):
    spec = ProblemSpec(constant_members([7.0], [(0, 0)]), autonomous=True)
    assert admissibility(spec, mesh2, [0.0]).ok


def test_admissibility_detects_violation(mesh2):
    # c = {1, 3, 20}: cbar = 8, |8 - 20| = 12 >= 8 -> fail
    spec = ProblemSpec(constant_members([1.0, 3.0, 20.0],
                                        [(0, 0)] * 3), autonomous=True)
    report = admissibility(spec, mesh2, [0.0])
    assert not report.ok
    members = {v[0] for v in report.violations}
    assert members == {2}
    # c = {1, 100}: |50.5 - 1| = 49.5 < 50.5 -> the mean condition holds
    spec2 = ProblemSpec(constant_members([1.0, 100.0], [(0, 0)] * 2),
                        autonomous=True)
    assert admissibility(spec2, mesh2, [0.0]).ok


def test_admissibility_records_the_levels_it_was_given(mesh2):
    """c = (1, 3, 20) fails at every point.  A single level t_0 is checked
    against itself, and its violations are level 0's; of two levels, the
    second's are level 1's."""
    spec = ProblemSpec(constant_members([1.0, 3.0, 20.0], [(0, 0)] * 3),
                       autonomous=True)
    for times, level in (([0.0], 0), ([0.0, 0.5], 1)):
        report = admissibility(spec, mesh2, times)
        assert report.violations
        assert {n for _, n, *_ in report.violations} == {level}


@pytest.mark.parametrize("k", [0, 2, 3])
def test_admissibility_reads_c_where_the_scheme_reads_it(k):
    """c = (1, 1, c_3) with c_3 = 8 exactly at the degree-k solver's
    data points and 1 elsewhere: the scheme sees c_3 = 8, against a mean
    of 10/3, and member 3 grows by orders of magnitude over 200 steps.
    The check reads the same points, names member 3 at each of them, and
    a strict run stops before its first step."""
    disc = Discretization(build_uniform_square_mesh(4), k)
    x, y = disc.x_data_flat, disc.y_data_flat
    points = set(zip(x.tolist(), y.tolist()))

    def c3(x, y, t):
        return np.reshape([8.0 if p in points else 1.0
                           for p in zip(np.ravel(x).tolist(),
                                        np.ravel(y).tolist())], np.shape(x))

    members = constant_members([1.0] * 3, [(0.5, 0.2)] * 3)
    for m in members:
        m.f = lambda x, y, t: np.ones_like(x)
    members[2].c = c3
    spec = ProblemSpec(members, autonomous=True)
    solver = EnsembleSolver(disc, spec, dt=0.01, tau=2.0,
                            strict_admissibility=True)
    report = check_admissibility(solver, [n * 0.01 for n in range(201)])
    assert report.n_violations == len(x)
    assert {j for j, *_ in report.violations} == {2}
    with pytest.raises(RuntimeError, match="admissibility violated"):
        solver.run(2.0)
    assert solver.n_steps == 0


def test_admissibility_report_counts_every_violation(mesh2):
    """More violations than the report keeps, over several levels, from
    both conditions: the counts and the kept records against a per-point
    loop over the same sample points."""
    members = constant_members([1.0, 3.0, 1.0], [(0, 0)] * 3)
    # member 3 dominates the mean where x is large and is negative near x=0
    members[2].c = lambda x, y, t: 20.0 * x * (1.0 + t) - 1.0
    spec = ProblemSpec(members, autonomous=False)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    report = admissibility(spec, mesh2, times)

    v = BatchedGeometry(mesh2).corners
    X = np.einsum("eji,qj->eqi", v[:, 1:] - v[:, :1],
                  triangle_quadrature(6).points)
    X += v[:, None, 0, :]
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


def counted_factors(fields, fns, calls):
    """Wrap the factors `fns` ("_t_fns" or "_s_fns") of the separable
    fields so that each call appends its first argument to calls."""
    def counted(fn):
        def wrapped(*args):
            calls.append(args[0])
            return fn(*args)
        return wrapped

    for field in fields:
        assert isinstance(field, SeparableField)
        factors = getattr(field, fns)
        factors[:] = [counted(fn) for fn in factors]


def report_fields(report):
    return (report.ok, report.c_min, report.violations, report.n_violations)


@pytest.mark.parametrize("build", ["example1", "violated"])
def test_admissibility_samples_separable_autonomous_c_once(mesh4, build):
    """Example 1, and a constant ensemble with c = (1, 3, 20) that fails
    the condition, over the 129 levels of the march benchmark: the
    spatial factors of c are sampled once, the weights are read at every
    level, and the report is that of levels t_0 and t_1 alone."""
    from ensemble_hdg.problems import constant_ensemble

    spec = example1() if build == "example1" else constant_ensemble(
        (1.0, 3.0, 20.0), [(0.0, 0.0)] * 3, (0.0,) * 3, 1.0, "violated")
    times = [n / 128 for n in range(129)]
    first = admissibility(spec, mesh4, times[:2])
    spatial, weights = [], []
    fields = [m.c for m in spec.members]
    counted_factors(fields, "_s_fns", spatial)
    counted_factors(fields, "_t_fns", weights)
    report = admissibility(spec, mesh4, times)
    assert len(spatial) == sum(len(c._s_fns) for c in fields)
    assert sorted(set(weights)) == times
    assert report_fields(report) == report_fields(first)
    assert report.ok == (build == "example1")


def test_admissibility_reports_moving_weights_at_every_level(mesh2):
    """c_j = c_j^0 (1 - t/4) with c^0 = (1, 3, 20): the weights move at
    every level, member 3 violates the condition at every point of every
    level, and each level is sampled and counted."""
    def one(x, y):
        return np.ones_like(x)

    members = constant_members([1.0, 3.0, 20.0], [(0, 0)] * 3)
    for m, c0 in zip(members, (1.0, 3.0, 20.0)):
        m.c = SeparableField([lambda t, c0=c0: c0 * (1 - t / 4)], [one])
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    weights = []
    counted_factors([m.c for m in members], "_t_fns", weights)
    report = admissibility(ProblemSpec(members, autonomous=False), mesh2,
                           times)
    npts = mesh2.n_elements * len(triangle_quadrature(6).weights)
    assert sorted(set(weights)) == times
    assert report.n_violations == 4 * npts
    assert {j for j, *_ in report.violations} == {2}
    assert report.c_min == 0.75


def test_admissibility_samples_plain_c_at_every_level(mesh2):
    """A plain callable c cannot show that it stays: it is sampled at
    every level.  The constant c = (1, 3, 20) repeats its samples, so its
    report is that of levels t_0 and t_1 alone."""
    read = []
    members = constant_members([1.0, 3.0, 20.0], [(0, 0)] * 3)
    for m, c0 in zip(members, (1.0, 3.0, 20.0)):
        m.c = lambda x, y, t, c0=c0: read.append(t) or np.full_like(x, c0)
    spec = ProblemSpec(members, autonomous=True)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    first = admissibility(spec, mesh2, times[:2])
    read.clear()
    report = admissibility(spec, mesh2, times)
    assert sorted(read) == sorted(times * 3)
    assert not report.ok
    assert report_fields(report) == report_fields(first)


def named(message):
    """The pattern of exactly `message`."""
    return "^" + re.escape(message) + "$"


def first_point(x, y, bad):
    """The coordinates, as messages name them, of the first point where
    bad holds."""
    p = int(np.argmax(bad))
    return f"({float(x[p])}, {float(y[p])})"


def test_admissibility_reports_a_nan_sample(mesh2):
    """A NaN c used to fail every comparison, the passing ones too, and
    was reported as a violation of both members.  The c stack names the
    member, the point and the level before any comparison."""
    X = BatchedGeometry(mesh2).points(triangle_quadrature(6).points)
    x0, y0 = (float(v) for v in X[3, 2])
    members = constant_members([1.0, 2.0], [(0, 0)] * 2)
    members[1].c = lambda x, y, t: np.where((x == x0) & (y == y0), np.nan,
                                            2.0)
    with pytest.raises(CoefficientError, match=named(
            f"member 2: the c sample at ({x0}, {y0}) at t = 0.0 is not "
            f"finite")):
        admissibility(ProblemSpec(members, autonomous=True), mesh2, [0.0])


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


@pytest.fixture(scope="module")
def examples():
    return {1: example1(), 2: example2(), 3: example3()}


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("example", [1, 2, 3])
def test_choose_tau_matches_whole_mesh_sampling(examples, example, n):
    """Sampling in element blocks finds the whole-mesh sup to the bit."""
    spec = examples[example]
    mesh = build_uniform_square_mesh(n)
    assert choose_tau(spec, mesh) == whole_mesh_tau(spec, mesh)


@pytest.mark.parametrize("block", [50, 19, 18, 17])
@pytest.mark.parametrize("kind", ["uniform", "jittered"])
def test_choose_tau_blocks_split_anywhere(examples, monkeypatch, rng, kind,
                                          block):
    """The 18 elements of the n=3 mesh fill a block of 19 partly, one of
    18 exactly, and one of 17 with one element over.  Its refinements
    split at cell rows, of 12 and 24 elements: a block of 50 takes the
    6 x 6 grid four rows at a time, the last block short, and the 12 x 12
    two; one of 17 to 19 takes one row of either, a 24-element row
    overfilling it.  A jittered mesh takes the order-4/8/12 passes."""
    from ensemble_hdg import solver

    mesh = build_uniform_square_mesh(3) if kind == "uniform" else \
        jittered_mesh(3, rng)
    assert (mesh.uniform_n is None) == (kind == "jittered")
    monkeypatch.setattr(solver, "_TAU_BLOCK", block)
    for spec in examples.values():
        assert choose_tau(spec, mesh) == whole_mesh_tau(spec, mesh)


def test_choose_tau_names_an_infinite_velocity(mesh2):
    """An infinite β_y on the run mesh used to make tau infinite, and
    BlockTables then rejected tau without naming the sample.  choose_tau
    names the member, the component and the first order-6 point with the
    sample, in the words of the solver's β stack when tau is given."""
    members = constant_members([1.0, 2.0], [(0.5, 0.2)] * 2)
    members[0].beta = lambda x, y, t: np.stack(
        [np.full_like(x, 0.5), np.where(x > 0.5, np.inf, 0.2)], -1)
    X = BatchedGeometry(mesh2).points(triangle_quadrature(6).points)
    x, y = X[..., 0].ravel(), X[..., 1].ravel()
    with pytest.raises(CoefficientError, match=named(
            f"member 1: the beta_y sample at {first_point(x, y, x > 0.5)} "
            f"at t = 0.0 is not finite")):
        EnsembleSolver(Discretization(mesh2, 1),
                       ProblemSpec(members, autonomous=True), dt=0.1)


def test_choose_tau_names_a_nan_velocity(mesh2):
    """Python's max skipped a NaN β sample, and so would np.nanmax: tau
    came out finite.  choose_tau names the member, the component and the
    first order-6 point with the NaN sample."""
    members = constant_members([1.0, 2.0], [(0.5, 0.2)] * 2)
    members[1].beta = lambda x, y, t: np.stack(
        [np.where(x > 0.5, np.nan, 0.5), np.full_like(x, 0.2)], -1)
    X = BatchedGeometry(mesh2).points(triangle_quadrature(6).points)
    x, y = X[..., 0].ravel(), X[..., 1].ravel()
    with pytest.raises(CoefficientError, match=named(
            f"member 2: the beta_x sample at {first_point(x, y, x > 0.5)} "
            f"at t = 0.0 is not finite")):
        choose_tau(ProblemSpec(members, autonomous=True), mesh2)


def test_choose_tau_names_a_point_of_a_refinement(mesh2):
    """A β_x that is infinite only within 0.01 of x = 0, where no order-6
    point of the run mesh or of its 2n refinement lies, is first met on
    the 4n mesh, and named by its point there."""
    members = constant_members([1.0, 2.0], [(0.5, 0.2)] * 2)
    members[1].beta = lambda x, y, t: np.stack(
        [np.where(x < 0.01, np.inf, 0.5), np.full_like(x, 0.2)], -1)
    ref = triangle_quadrature(6).points
    for n in (2, 4):
        X = BatchedGeometry(build_uniform_square_mesh(n)).points(ref)
        assert X[..., 0].min() >= 0.01
    X = BatchedGeometry(build_uniform_square_mesh(8)).points(ref)
    x, y = X[..., 0].ravel(), X[..., 1].ravel()
    with pytest.raises(CoefficientError, match=named(
            f"member 2: the beta_x sample at {first_point(x, y, x < 0.01)} "
            f"at t = 0.0 is not finite")):
        choose_tau(ProblemSpec(members, autonomous=True), mesh2)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_choose_tau_builds_no_refined_mesh(examples, monkeypatch, n):
    """The 2n and 4n points come from their grid coordinates: with every
    Mesh construction failing, tau on a uniform mesh is still the sup
    over the built refinements."""
    from ensemble_hdg import mesh as mesh_module, solver

    mesh = build_uniform_square_mesh(n)
    want = {k: whole_mesh_tau(spec, mesh) for k, spec in examples.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("choose_tau built a mesh")

    monkeypatch.setattr(mesh_module.Mesh, "__init__", refuse)
    monkeypatch.setattr(solver, "build_uniform_square_mesh", refuse)
    for k, spec in examples.items():
        assert choose_tau(spec, mesh) == want[k]


def test_choose_tau_memory_stays_bounded(examples):
    """Whole-mesh sampling held 45 MiB at n=32: the 4n mesh's geometry and
    its 524,288 points with each member's samples.  Blocks of a built 4n
    mesh still held 15 MiB, mostly the mesh itself; blocks of grid
    points hold 2.2 MiB: one block's points and samples."""
    spec, mesh = examples[1], build_uniform_square_mesh(32)
    tracemalloc.start()
    try:
        choose_tau(spec, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


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
    members[0].u0 = lambda x, y, t: x * y + 0.5 * x ** 2 - y
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
    members[1].u0 = lambda x, y, t: 1.0
    disc = Discretization(mesh2, 1)
    state = initialize(ProblemSpec(members, autonomous=True), disc)
    assert np.abs(state_samples(disc, state)["u"][1] - 1.0).max() < 1e-13
    assert np.abs(state.u[0]).max() == 0.0 and np.abs(state.q).max() < 1e-13


def test_an_empty_ensemble_is_rejected():
    with pytest.raises(ValueError,
                       match="^ensemble needs at least one member$"):
        ProblemSpec([], autonomous=True)


@pytest.mark.parametrize("degree", range(4))
def test_data_points_are_held_once(rng, degree):
    """The element and face point tables of the data rules, their flat x
    and y arrays and the β stack's bound coordinates are views of one
    array, bitwise the values of `element_points` and of each face's
    canonical parametrization."""
    mesh = jittered_mesh(3, rng)
    disc = Discretization(mesh, degree)
    beta = EnsembleSolver(disc, example1(), dt=0.1, tau=1.0)._beta
    x, y = element_points(disc.geom.corners, disc.rule_data.points)
    va, vb = mesh.vertices[mesh.faces[:, 0]], mesh.vertices[mesh.faces[:, 1]]
    sd = disc.rule_face_data.points
    faces = (va[:, None, :] + sd[None, :, None] * (vb - va)[:, None, :])[
        mesh.elem_faces]
    want = {"X_data": np.stack([x, y], axis=-1), "Xf_fdata": faces,
            "x_data_flat": x.ravel(), "y_data_flat": y.ravel(),
            "xf_fdata_flat": faces[..., 0].ravel(),
            "yf_fdata_flat": faces[..., 1].ravel()}
    got = {name: getattr(disc, name) for name in want}
    want["beta x"] = np.concatenate([x.ravel(), faces[..., 0].ravel()])
    want["beta y"] = np.concatenate([y.ravel(), faces[..., 1].ravel()])
    got["beta x"], got["beta y"] = beta._x, beta._y
    for name, arr in got.items():
        assert np.shares_memory(arr, disc.data_points), name
        assert arr.shape == want[name].shape, name
        assert np.ascontiguousarray(arr).tobytes() == \
            np.ascontiguousarray(want[name]).tobytes(), name


@pytest.mark.parametrize("method, value, shape", [
    ("sample_scalar", 2.5, (8, 9)),
    ("sample_scalar_faces", 2.5, (8, 3, 3)),
    ("sample_vector", [2.5, -1.0], (8, 9, 2)),
    ("sample_vector_faces", [2.5, -1.0], (8, 3, 3, 2))])
def test_samples_of_a_constant_broadcast(mesh2, method, value, shape):
    """A field that returns one value, or one vector, has it at every
    point of the sampled table."""
    disc = Discretization(mesh2, 0)
    out = getattr(disc, method)(lambda x, y, t: np.array(value), 0.0)
    assert out.shape == shape
    assert np.all(out == np.array(value))


def test_non_finite_u0_is_named(mesh2):
    """A u0 that is NaN on part of the domain used to run to the end and
    leave that member's u NaN without a message.  The run names the
    member and the first such data point at t = 0, before any step."""
    members = constant_members([1.0, 2.0], [(0, 0)] * 2)
    members[1].u0 = lambda x, y, t: np.where(x > 0.5, np.nan, 0.0)
    disc = Discretization(mesh2, 1)
    x, y = disc.x_data_flat, disc.y_data_flat
    solver = EnsembleSolver(disc, ProblemSpec(members, autonomous=True),
                            dt=0.5)
    with pytest.raises(CoefficientError, match=named(
            f"member 2: the u0 sample at {first_point(x, y, x > 0.5)} at "
            f"t = 0.0 is not finite")):
        solver.run(1.0)
    assert solver.n_steps == 0


def test_non_finite_c_at_the_start_is_named(mesh2):
    """c = NaN at t = 0 and 1 or 1.5 afterwards: the run used to march
    every step and return NaN u and q, with the admissibility warning as
    the only sign.  The run names member 1 and its first admissibility
    point at t = 0 before any step, and initialize its first data
    point."""
    members = constant_members([1.0, 1.5], [(0, 0)] * 2)
    for m, cj in zip(members, (1.0, 1.5)):
        m.c = lambda x, y, t, cj=cj: np.full_like(x, np.nan if t == 0 else cj)
    spec = ProblemSpec(members, autonomous=False)
    disc = Discretization(mesh2, 1)
    solver = EnsembleSolver(disc, spec, dt=0.25)
    X = BatchedGeometry(mesh2).points(triangle_quadrature(6).points)
    with pytest.raises(CoefficientError, match=named(
            f"member 1: the c sample at ({float(X[0, 0, 0])}, "
            f"{float(X[0, 0, 1])}) at t = 0.0 is not finite")):
        solver.run(1.0)
    assert solver.n_steps == 0
    with pytest.raises(CoefficientError, match=named(
            f"member 1: the c sample at ({float(disc.x_data_flat[0])}, "
            f"{float(disc.y_data_flat[0])}) at t = 0.0 is not finite")):
        initialize(spec, disc)


def test_a_zero_c_at_the_start_is_named(mesh2):
    """c_1 = 1 + t and c_2 = t, with u0 = x(1-x)y(1-y): q0 = -grad u0 / c0
    used to divide by zero, and the run marched to a non-finite state
    after the admissibility warning alone.  initialize names member 2
    and its first data point at t = 0, before any step."""
    members = constant_members([1.0, 0.0], [(0, 0)] * 2)
    for m, c0 in zip(members, (1.0, 0.0)):
        m.c = lambda x, y, t, c0=c0: np.full_like(x, c0 + t)
        m.u0 = lambda x, y, t: x * (1 - x) * y * (1 - y)
    spec = ProblemSpec(members, autonomous=False)
    disc = Discretization(mesh2, 1)
    message = named(f"member 2: the c sample at ({float(disc.x_data_flat[0])}"
                    f", {float(disc.y_data_flat[0])}) at t = 0.0 is not "
                    f"positive")
    with pytest.raises(CoefficientError, match=message):
        initialize(spec, disc)
    solver = EnsembleSolver(disc, spec, dt=0.25, tau=1.0)
    with pytest.warns(UserWarning, match="admissibility"), \
            pytest.raises(CoefficientError, match=message):
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


@pytest.mark.parametrize("T", [-1.0, float("nan"), float("inf")])
def test_run_rejects_a_negative_or_non_finite_final_time(mesh2, T):
    """run(-1.0) used to return the initial state, run(nan) and run(inf)
    to fail in the step count's integer conversion; each is now named
    before any step."""
    spec = ProblemSpec(constant_members([1.0], [(0, 0)]), autonomous=True)
    solver = EnsembleSolver(Discretization(mesh2, 0), spec, dt=0.5)
    with pytest.raises(ValueError, match=named(
            f"final time T = {T!r}: give a finite T >= 0")):
        solver.run(T)
    assert solver.n_steps == 0


def test_problem_spec_requires_autonomous():
    """The library ignores the flag: the solver reads c and β at every
    level.  It stays a required argument until it is deleted (ROADMAP
    item 11), because the benchmark passes and reads it; a default would
    add a parameter that selects nothing."""
    with pytest.raises(TypeError, match="autonomous"):
        ProblemSpec(constant_members([1.0], [(0, 0)]))


def test_run_rejects_non_integral_grid(mesh2):
    spec = ProblemSpec(constant_members([1.0], [(0, 0)]), autonomous=True)
    solver = EnsembleSolver(Discretization(mesh2, 0), spec, dt=0.3)
    with pytest.raises(ValueError, match="integral"):
        solver.run(1.0)


def test_check_residuals_names_a_wrong_solve(mesh2, monkeypatch):
    """A factorization whose solve returns twice the solution leaves a
    trace residual of about 1: check_residuals stops the run at the first
    step and names it, where an unchecked run marches on."""
    from ensemble_hdg.trace_system import TraceSystem

    solve = TraceSystem.solve_multi
    monkeypatch.setattr(TraceSystem, "solve_multi",
                        lambda system, rhs: 2 * solve(system, rhs))
    disc = Discretization(mesh2, 1)
    EnsembleSolver(disc, example1(), dt=0.25, tau=2.0).run(0.5)
    solver = EnsembleSolver(disc, example1(), dt=0.25, tau=2.0,
                            check_residuals=True)
    with pytest.raises(RuntimeError, match=r"trace residual 1\.00e\+00 "
                       r"exceeds 1e-10 at step 1$"):
        solver.run(0.5)
    assert solver.n_steps == 0


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
    spec = ProblemSpec([Member(c, beta, f, u_ex, u_ex, u_ex, q_ex)],
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
    level = solver._coefficients(0.5)
    assert all(w.shape[0] == 1 and not w.any() for w, _ in level["dev"])
    # a mode whose deviation weights are all zero adds nothing: the lag
    # operators hold only the (1/dt) mass
    d = disc.ndof_u
    solver.step(initialize(spec, disc))
    ops = solver._ops
    assert not ops.mass_c.any() and not ops.u_op[..., d:, :].any()
    time_mass = disc.geom.det[:, None, None] / 0.5 * \
        solver._block_tables.mass
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


def runs_flagged_both_ways(members, mesh, k, dt, T):
    """The final states and factorization counts of the members run
    flagged autonomous, then flagged not."""
    disc = Discretization(mesh, k)
    out = []
    for autonomous in (True, False):
        solver = EnsembleSolver(
            disc, ProblemSpec(members, autonomous=autonomous), dt=dt)
        out.append((solver.run(T), solver.n_factorizations))
    return out


def assert_states_equal(a, b):
    for name in ("u", "q", "uhat"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_autonomous_flag_does_not_freeze_separable_coefficients(mesh4):
    """The refactor family, whose c weights move at every step, and a
    separable β whose y component grows with t: flagged autonomous, the
    solver used to stop the run before its first step.  The flag is now
    ignored, and either family runs bitwise as it does unflagged, with one
    factorization per step."""
    def one(x, y):
        return np.ones_like(x)

    growing = constant_members([1.0, 2.0], [(0, 0)] * 2)
    for m, grows in zip(growing, (0.0, 1.0)):
        m.c = SeparableField([lambda t: 1.0], [one])
        m.beta = VectorField(
            SeparableField([lambda t: 0.5], [one]),
            SeparableField([lambda t, g=grows: 0.2 * (1 + g * t)], [one]))
    for members in (scaled_example1(1).members, growing):
        (flagged, n_flagged), (plain, n_plain) = runs_flagged_both_ways(
            members, mesh4, 1, 0.25, 1.0)
        assert n_flagged == n_plain == 4
        assert_states_equal(flagged, plain)


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
    solver.step(initialize(spec, disc))
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
    c and β are sampled per run, not per step, and the state is never
    sampled: the observer takes Eu from coefficients, as Eq and Eu*."""
    from collections import Counter

    from ensemble_hdg import errors, solver as solver_module

    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for module in (errors, solver_module):
        monkeypatch.setattr(module, "state_samples",
                            counted("state", module.state_samples))

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
    assert short["coefficients"] > 0 and "state" not in short
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


def test_a_zero_velocity_factor_is_one_mode_in_either_component(mesh2):
    """β_1 = (y, 0) and β_2 = (0, x): the zero factors of β_1's y and β_2's
    x component are one mode, as when modes were keyed by their padded
    samples, so the modes are e_x y, 0 and e_y x, in order of first use."""
    x, y, t = sympy.symbols("x y t")
    u = sympy.sin(t) * sympy.sin(x) * sympy.sin(y)
    spec = ProblemSpec([manufactured_member(1, (y, 0), u),
                        manufactured_member(1.2, (0, x), u)],
                       autonomous=True)
    solver = mode_solver(spec, mesh2)
    disc = solver.disc
    xb, yb = (np.concatenate([getattr(disc, f"{coord}_data_flat"),
                              getattr(disc, f"{coord}f_fdata_flat")])
              for coord in "xy")
    zero = np.zeros_like(xb)
    want = np.stack([np.stack([yb, zero], -1), np.zeros(xb.shape + (2,)),
                     np.stack([zero, xb], -1)])
    assert solver._beta.n_modes == 3
    assert np.array_equal(solver._beta.modes(0.0)[1][0], want)


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


def test_constant_ensemble_projects_its_dirichlet_data_once(mesh2,
                                                            monkeypatch):
    """Example 3's g = 0 is a SeparableField like its c, β and f: its
    boundary rows are built once, at construction, however many steps a
    run takes.  A plain-callable g is projected again at every step."""
    from ensemble_hdg import local

    calls, rows = [], local.boundary_rows

    def counted(*args):
        calls.append(args)
        return rows(*args)

    monkeypatch.setattr(local, "boundary_rows", counted)
    for steps in (2, 4):
        calls.clear()
        EnsembleSolver(Discretization(mesh2, 1), example3(),
                       dt=0.025).run(steps * 0.025)
        assert len(calls) == 1, steps


@pytest.mark.parametrize("field, value", [("c", np.nan), ("c", np.inf),
                                          ("beta", np.nan)])
def test_non_finite_coefficients_are_named(mesh2, field, value):
    """NaN passes c <= 0 and Python's max in choose_tau skips it: such a
    member used to reach SuperLU, which called the trace matrix exactly
    singular.  The member, the component and the first data point with
    the sample are named: c by the admissibility check at t = 0.0, β by
    the first step at t = dt, before any step completes.  tau is given:
    choose_tau's own check of β is pinned by the choose_tau tests."""
    members = constant_members([1.0, 2.0], [(0.5, 0.2)] * 2)
    if field == "c":
        members[1].c = lambda x, y, t: np.where(x > 0.5, value, 2.0)
    else:
        members[1].beta = lambda x, y, t: np.stack(
            [np.where(x > 0.5, value, 0.5), np.full_like(x, 0.2)], -1)
    disc = Discretization(mesh2, 1)
    x, y = disc.x_data_flat, disc.y_data_flat
    name, t = ("c", 0.0) if field == "c" else ("beta_x", 0.1)
    solver = EnsembleSolver(disc, ProblemSpec(members, autonomous=True),
                            dt=0.1, tau=1.0)
    with pytest.raises(CoefficientError, match=named(
            f"member 2: the {name} sample at {first_point(x, y, x > 0.5)} "
            f"at t = {t} is not finite")):
        solver.run(0.1)
    assert solver.n_steps == 0


def test_infinite_velocity_is_named(mesh2):
    """An infinite β_y sample would make inf·0 in the velocity terms: with
    tau given, so that choose_tau does not reject it first, the β stack
    names it in the first step, at t = dt, before the terms are built,
    and no RuntimeWarning is raised."""
    members = constant_members([1.0, 2.0], [(0.5, 0.2)] * 2)
    members[0].beta = lambda x, y, t: np.stack(
        [np.full_like(x, 0.5), np.where(x > 0.5, np.inf, 0.2)], -1)
    disc = Discretization(mesh2, 1)
    x, y = disc.x_data_flat, disc.y_data_flat
    solver = EnsembleSolver(disc, ProblemSpec(members, autonomous=True),
                            dt=0.1, tau=1.0)
    with pytest.raises(CoefficientError, match=named(
            f"member 1: the beta_y sample at {first_point(x, y, x > 0.5)} "
            f"at t = 0.1 is not finite")):
        solver.run(0.1)
    assert solver.n_steps == 0


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
                       match="^member 2: the c weights at t = 0.25 are not "
                             "finite$"):
        solver.step(state)
    assert solver.n_steps == 1


@pytest.mark.parametrize("field", ["f", "g"])
def test_non_finite_data_are_named(mesh2, field):
    """A NaN f or an infinite g used to run to a non-finite state without
    a message.  The first step names the member, the datum, its first
    such point and t."""
    members = constant_members([1.0, 2.0], [(0.5, 0.2)] * 2)
    disc = Discretization(mesh2, 1)
    if field == "f":
        members[1].f = lambda x, y, t: np.where(x > 0.5, np.nan, 1.0)
        x, y = disc.x_data_flat, disc.y_data_flat
        where = first_point(x, y, x > 0.5)
    else:
        members[1].g = lambda x, y, t: np.where(y > 0.5, np.inf, 0.0)
        Xb = disc.Xf_fdata[disc.boundary_face_sides()]
        x, y = Xb[..., 0].ravel(), Xb[..., 1].ravel()
        where = first_point(x, y, y > 0.5)
    solver = EnsembleSolver(disc, ProblemSpec(members, autonomous=True),
                            dt=0.25, tau=1.0)
    with pytest.raises(CoefficientError, match=named(
            f"member 2: the {field} sample at {where} at t = 0.25 is not "
            f"finite")):
        solver.run(1.0)
    assert solver.n_steps == 0


def test_a_non_finite_mode_names_its_first_member(mesh2):
    """Members 2 and 3 share a separable f's spatial factor, NaN where
    x > 0.5: it is one mode, checked once when the solver is built, and
    named by the first member that uses it, with no t, since a spatial
    factor does not depend on it."""
    def one(x, y):
        return np.ones_like(x)

    def spoiled(x, y):
        return np.where(x > 0.5, np.nan, 1.0)

    members = constant_members([1.0, 2.0, 3.0], [(0.5, 0.2)] * 3)
    for m, s in zip(members, (one, spoiled, spoiled)):
        m.f = SeparableField([lambda t: 1.0], [s])
    disc = Discretization(mesh2, 1)
    x, y = disc.x_data_flat, disc.y_data_flat
    with pytest.raises(CoefficientError, match=named(
            f"member 2: the f sample at {first_point(x, y, x > 0.5)} is not "
            f"finite")):
        EnsembleSolver(disc, ProblemSpec(members, autonomous=True), dt=0.25,
                       tau=1.0)


def test_a_plain_c_turning_nan_is_named_at_its_level(mesh2):
    """c_1 is NaN from t_2 = 0.5 on: the run names member 1 at t = 0.5
    from the admissibility samples before any step, and a step to t_2
    from the data points."""
    members = constant_members([1.0, 1.5], [(0, 0)] * 2)
    members[0].c = lambda x, y, t: np.full_like(x, np.nan if t >= 0.5
                                                 else 1.0)
    spec = ProblemSpec(members, autonomous=False)
    disc = Discretization(mesh2, 1)
    solver = EnsembleSolver(disc, spec, dt=0.25, tau=1.0)
    X = BatchedGeometry(mesh2).points(triangle_quadrature(6).points)
    with pytest.raises(CoefficientError, match=named(
            f"member 1: the c sample at ({float(X[0, 0, 0])}, "
            f"{float(X[0, 0, 1])}) at t = 0.5 is not finite")):
        solver.run(1.0)
    assert solver.n_steps == 0
    state = solver.step(initialize(spec, disc))
    with pytest.raises(CoefficientError, match=named(
            f"member 1: the c sample at ({float(disc.x_data_flat[0])}, "
            f"{float(disc.y_data_flat[0])}) at t = 0.5 is not finite")):
        solver.step(state)
    assert solver.n_steps == 1


def test_autonomy_is_read_at_every_level(mesh2):
    """A separable c_2 with the weight 1 + 8t(t - dt)(t - T), which reads
    1, 1, 0.5, 0.25, 1 at t_0..t_4: flagged autonomous, the run used to
    stop at t_2, and before that to stay frozen at t = 0 and factorize
    once.  Its mean moves at every step, and flagged or not the run
    factorizes at every step and ends bitwise the same."""
    def one(x, y):
        return np.ones_like(x)

    dt, T = 0.25, 1.0
    members = constant_members([1.0, 1.0], [(0, 0)] * 2)
    members[0].c = SeparableField([lambda t: 1.0], [one])
    members[1].c = SeparableField(
        [lambda t: 1 + 8 * t * (t - dt) * (t - T)], [one])
    (flagged, n_flagged), (plain, n_plain) = runs_flagged_both_ways(
        members, mesh2, 1, dt, T)
    assert n_flagged == n_plain == 4
    assert_states_equal(flagged, plain)


def test_plain_coefficient_flagged_autonomous_is_read_at_every_level(mesh2):
    """A plain callable c = c_0 + t/2 cannot show that it changes: flagged
    autonomous, it used to be read at t = 0 only and frozen there.  It is
    now read at every level, and the run equals the unflagged one
    bitwise."""
    read = []
    members = constant_members([1.0, 2.0], [(0, 0)] * 2)
    for m, c0 in zip(members, (1.0, 2.0)):
        m.c = lambda x, y, t, c0=c0: read.append(t) or \
            np.full_like(x, c0 + 0.5 * t)
    disc = Discretization(mesh2, 1)
    states = []
    for autonomous in (True, False):
        read.clear()
        solver = EnsembleSolver(
            disc, ProblemSpec(members, autonomous=autonomous), dt=0.25)
        states.append(solver.run(1.0))
        assert sorted(set(read)) == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert solver.n_factorizations == 4
    assert_states_equal(*states)


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
