from types import SimpleNamespace

import numpy as np
import pytest

from ensemble_hdg.discretization import Discretization
from ensemble_hdg.local import (BlockTables, CoefficientError,
                                assemble_all_blocks, assemble_all_rhs,
                                boundary_data_operator, boundary_rows,
                                condense_all, invert_blocks, source_rows)
from ensemble_hdg.mesh import build_uniform_square_mesh
from ensemble_hdg.problems import example1
from ensemble_hdg.solver import EnsembleSolver, EnsembleState

from oracles import lag_samples, local_rhs, monomial_full_local_matrix
from samples import dense_blocks, sampled_blocks, sampled_rhs_operators


def const_samples(disc, cval=1.0, bvec=(0.0, 0.0)):
    nq = len(disc.w_data)
    nqf = len(disc.w_fdata)
    ne = disc.mesh.n_elements
    cbar = np.full((ne, nq), cval)
    bbar = np.broadcast_to(np.asarray(bvec, float), (ne, nq, 2)).copy()
    bbar_f = np.broadcast_to(np.asarray(bvec, float), (ne, 3, nqf, 2)).copy()
    return cbar, bbar, bbar_f


def random_samples(disc, rng):
    ne = disc.mesh.n_elements
    nq, nqf = len(disc.w_data), len(disc.w_fdata)
    return (1.0 + rng.random((ne, nq)), rng.normal(size=(ne, nq, 2)),
            rng.normal(size=(ne, 3, nqf, 2)))


def transpose(a):
    return np.swapaxes(a, -1, -2)


def test_reference_triangle_identities(reference_triangle_mesh):
    """k=0, c=1, beta=0, tau=1, dt=1 on the reference triangle."""
    disc = Discretization(reference_triangle_mesh, 0)
    tables = BlockTables(disc, 1.0, 1.0)
    A_II, A_IT, A_TI, A_TT = dense_blocks(tables, *sampled_blocks(
        disc, tables, *const_samples(disc)))
    # orthonormal reference basis: coefficient-1 mass is the identity
    assert np.abs(A_II[0, :2, :2] - np.eye(2)).max() < 1e-13
    assert np.abs(A_II[0, :2, 2:]).max() < 1e-14  # div r = 0 for constants
    # u-u: the 1/dt mass plus tau <u, v> on the perimeter 2 + sqrt(2) of
    # the constant basis function sqrt(2), and no convection
    assert abs(A_II[0, 2, 2] - (1.0 + 2.0 * (2.0 + np.sqrt(2.0)))) < 1e-13
    # no convective flux: the trace rows' u-block is the coupling's
    # transpose, -tau <u, v_hat>
    assert np.array_equal(A_TI[0, :, 2:], transpose(A_IT[0, 2:, :]))


def test_convection_blocks_vanish_for_zero_velocity(mesh2):
    disc = Discretization(mesh2, 1)
    d = disc.ndof_u
    cbar, bbar, bbar_f = const_samples(disc, cval=2.5)
    tables = BlockTables(disc, 2.0, 0.5)
    A_IT = tables.A_IT
    _, uu, A_TI = sampled_blocks(disc, tables, cbar, bbar, bbar_f)
    # without convection the u-u block is a sum of symmetric mass terms,
    # and the trace rows' u-block is the transpose of the coupling's
    assert np.abs(uu - transpose(uu)).max() < 1e-14 * np.abs(uu).max()
    assert np.array_equal(A_TI[:, :, 2 * d:], transpose(A_IT[:, 2 * d:, :]))
    # a velocity breaks both
    _, uu, A_TI = sampled_blocks(disc, tables, cbar, bbar + 0.3,
                                 bbar_f + 0.3)
    assert np.abs(uu - transpose(uu)).max() > 1e-3
    assert not np.allclose(A_TI[:, :, 2 * d:],
                           transpose(A_IT[:, 2 * d:, :]))


def test_coefficient_violation_names_element(mesh2):
    """A NaN passes a test c <= 0, and would reach the inversions."""
    disc = Discretization(mesh2, 0)
    for field, value in ((0, -1.0), (0, np.nan), (0, np.inf), (1, np.nan)):
        samples = [s.copy() for s in const_samples(disc)]
        samples[field][5, 0] = value
        with pytest.raises(CoefficientError, match="^element 5: mean c not "
                                                   "positive and finite, or "
                                                   "mean beta not finite$"):
            sampled_blocks(disc, BlockTables(disc, 1.0, 1.0), *samples)
    with pytest.raises(ValueError):
        BlockTables(disc, 0.0, 1.0)
    with pytest.raises(ValueError):
        BlockTables(disc, 1.0, 0.0)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_full_local_matrix_against_monomial_oracle(mesh2, rng, k):
    """Entry-wise agreement with brute-force quadrature in a raw monomial
    basis plus change of basis, each element with its own coefficients."""
    disc = Discretization(mesh2, k)
    cbar, bbar, bbar_f = random_samples(disc, rng)
    tau, dt = 2.0, 0.25
    tables = BlockTables(disc, tau, dt)
    A_II, A_IT, A_TI, A_TT = dense_blocks(tables, *sampled_blocks(
        disc, tables, cbar, bbar, bbar_f))
    full = np.block([[A_II, A_IT], [A_TI, A_TT]])
    for ie in (0, 3, 6):
        oracle = monomial_full_local_matrix(disc, ie, cbar[ie], bbar[ie],
                                            bbar_f[ie], tau, dt)
        scale = np.abs(oracle).max()
        assert np.abs(full[ie] - oracle).max() < 1e-12 * scale, ie


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_batched_blocks_match_per_element(mesh4, rng, k):
    """Every element's four batched blocks against that element's monomial
    oracle matrix, split at the interior/trace boundary."""
    disc = Discretization(mesh4, k)
    cbar, bbar, bbar_f = random_samples(disc, rng)
    tau, dt = 1.5, 0.1
    tables = BlockTables(disc, tau, dt)
    blocks = dense_blocks(tables, *sampled_blocks(disc, tables, cbar, bbar,
                                                  bbar_f))
    ni = blocks[0].shape[-1]
    for ie in range(mesh4.n_elements):
        oracle = monomial_full_local_matrix(disc, ie, cbar[ie], bbar[ie],
                                            bbar_f[ie], tau, dt)
        # the monomial Gram matrices grow ill-conditioned with k
        tol = 1e-13 if k <= 1 else 1e-12 * np.abs(oracle).max()
        want = (oracle[:ni, :ni], oracle[:ni, ni:], oracle[ni:, :ni],
                oracle[ni:, ni:])
        for name, got, ref in zip(("A_II", "A_IT", "A_TI", "A_TT"), blocks,
                                  want):
            assert np.abs(got[ie] - ref).max() < tol, (name, ie)


def test_block_tables_are_shared_read_only(mesh2, rng):
    """The coefficient-free blocks are read by reference: they cannot be
    written to, and calls with other coefficients leave the tables as a
    fresh build has them."""
    disc = Discretization(mesh2, 1)
    tables = BlockTables(disc, 2.0, 0.5)
    held = [tables.C, tables.A_uu, tables.A_IT, tables.A_TI, tables.A_TT,
            tables.time_mass, tables.lag.mass_q, tables.lag.conv] + [
                t for pair in tables.lag.face for t in pair]
    assert not any(t.flags.writeable for t in held)
    cbar, bbar, bbar_f = random_samples(disc, rng)
    first = sampled_blocks(disc, tables, cbar, bbar, bbar_f)
    condense_all(tables, *first)
    with pytest.raises(ValueError, match="read-only"):
        tables.A_IT[0, 0, 0] = 1.0
    second = sampled_blocks(disc, tables, 2.0 * cbar, bbar, bbar_f)
    fresh = BlockTables(disc, 2.0, 0.5)
    for got, cval in ((first, cbar), (second, 2.0 * cbar)):
        want = sampled_blocks(disc, fresh, cval, bbar, bbar_f)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [0, 1])
def test_member_blocks_are_mean_blocks_minus_deviation_terms(mesh4, rng, k):
    """For J=3 random members, member j's own blocks equal the mean
    blocks minus the deviation terms of its RHS operators: the q-q mass,
    the u-u convection and the interior-face trace rows."""
    disc = Discretization(mesh4, k)
    d, nfd = disc.ndof_u, disc.ndof_face
    tables = BlockTables(disc, 2.0, 0.5)
    c, b, bf = (np.stack(s) for s in zip(*(random_samples(disc, rng)
                                           for _ in range(3))))
    mean = sampled_blocks(disc, tables, c.mean(0), b.mean(0), bf.mean(0))
    ops = sampled_rhs_operators(disc, tables, c.mean(0) - c,
                                b.mean(0) - b, bf.mean(0) - bf)
    time_term = sampled_rhs_operators(disc, tables, 0 * c[:1],
                                      0 * b[:1], 0 * bf[:1]).u_op[0, :, :d]
    mesh = disc.mesh
    bnd_rows = np.repeat(mesh.boundary[mesh.elem_faces], nfd, axis=1)
    assert not ops.u_op[:, :, d:][:, bnd_rows].any()
    for j in range(3):
        own = sampled_blocks(disc, tables, c[j], b[j], bf[j])
        pairs = (
            (own[0], mean[0] - ops.mass_c[j]),
            (own[1], mean[1] - (ops.u_op[j, :, :d] - time_term)),
            (own[2][:, :, 2 * d:][~bnd_rows], (mean[2][:, :, 2 * d:] -
                                               ops.u_op[j, :, d:])[~bnd_rows]))
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(got).max()


def test_schur_symmetry_without_convection(mesh2):
    disc = Discretization(mesh2, 1)
    tables = BlockTables(disc, 3.0, 0.5)
    cond = condense_all(tables, *sampled_blocks(
        disc, tables, *const_samples(disc, cval=0.7)))
    assert np.abs(cond.schur - transpose(cond.schur)).max() < 1e-12


def test_mass_scaling_in_cbar(mesh2):
    # scale by a power of two so the comparison is exact in floating point
    disc = Discretization(mesh2, 1)
    d = disc.ndof_u
    cbar, bbar, bbar_f = const_samples(disc, cval=1.3)
    tables = BlockTables(disc, 1.0, 1.0)
    m1 = sampled_blocks(disc, tables, cbar, bbar, bbar_f)[0]
    m2 = sampled_blocks(disc, tables, 2.0 * cbar, bbar, bbar_f)[0]
    assert m1.shape[1:] == (d, d)
    assert np.abs(m2 - 2.0 * m1).max() == 0.0


def test_condense_zero_coupling_returns_trace_block(mesh2):
    disc = Discretization(mesh2, 0)
    tables = BlockTables(disc, 1.0, 1.0)
    M, A, A_TI = sampled_blocks(disc, tables, *const_samples(disc))
    uncoupled = SimpleNamespace(C=tables.C, A_IT=np.zeros_like(tables.A_IT),
                                A_TT=tables.A_TT)
    cond = condense_all(uncoupled, M, A, np.zeros_like(A_TI))
    assert np.abs(cond.schur - tables.A_TT).max() == 0.0


def random_saddle_blocks(rng, d, t, batch):
    """Random well-conditioned blocks with the saddle structure of the
    local solver: an SPD M, a coupling C and a u-block A whose symmetric
    part is positive definite; returns (tables, M, A, A_TI)."""
    R = rng.normal(size=(batch, d, d))
    M = R @ transpose(R) + d * np.eye(d)
    A = 4 * np.eye(d) + rng.normal(size=(batch, d, d)) * 0.3
    tables = SimpleNamespace(
        C=rng.normal(size=(batch, 2 * d, d)),
        A_IT=rng.normal(size=(batch, 3 * d, t)) * 0.5,
        A_TT=np.eye(t) * 3 + rng.normal(size=(batch, t, t)) * 0.2)
    return tables, M, A, rng.normal(size=(batch, t, 3 * d)) * 0.5


def test_condense_matches_generic_elimination(rng):
    """A batch of random well-conditioned saddle blocks vs direct
    elimination of their dense form."""
    tables, M, A, A_TI = random_saddle_blocks(rng, 2, 4, 5)
    cond = condense_all(tables, M, A, A_TI)
    A_II, A_IT, A_TI, A_TT = dense_blocks(tables, M, A, A_TI)
    want = A_TT - A_TI @ np.linalg.solve(A_II, A_IT)
    assert np.abs(cond.schur - want).max() < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("tau, beta, dt, cscale", [
    (1.0, 1.0, 0.1, 1.0), (1e-6, 1e3, 1e3, 1e-4), (1e-6, 1e3, 1e-6, 1e4),
    (1.0, 1e3, 1e3, 1e4), (1e-6, 0.0, 1e3, 1e-4)],
    ids=["plain", "weak-tau-large-dt", "small-dt", "large-beta",
         "diffusion-only"])
def test_condensation_matches_dense_inversion(mesh2, rng, k, tau, beta, dt,
                                              cscale):
    """W = A_II^-1 and the Schur complement of the structured elimination
    against LAPACK on the dense blocks, across scales of tau, |β|, dt and
    c, to within rounding times cond(A_II)."""
    disc = Discretization(mesh2, k)
    tables = BlockTables(disc, tau, dt)
    c, b, bf = random_samples(disc, rng)
    blocks = sampled_blocks(disc, tables, cscale * c, beta * b, beta * bf)
    cond = condense_all(tables, *blocks)
    A_II, A_IT, A_TI, A_TT = dense_blocks(tables, *blocks)
    W = np.linalg.inv(A_II)
    schur = A_TT - A_TI @ W @ A_IT
    kappa = np.linalg.cond(A_II)[:, None, None]
    eps = np.finfo(float).eps
    for got, want in ((cond.solve_int, W), (cond.schur, schur)):
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert (np.abs(got - want) <= 4 * eps * kappa * scale).all()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_invert_blocks_pivots(rng, n):
    """Blocks whose leading entry is zero or tiny next to the rest of its
    column: elimination without row swaps meets a zero pivot, or one that
    grows the other rows by 1e14."""
    a = rng.normal(size=(6, n, n)) + 2 * n * np.eye(n)
    a[:, :, 0] = a[:, ::-1, 0]
    a[:2, 0, 0] = 0.0
    a[2:4, 0, 0] = 1e-14
    if n == 1:
        a[:4] = 1.0
    want = np.linalg.inv(a)
    got = invert_blocks(a, "block")
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_condensation_with_an_indefinite_schur_block(mesh2, k):
    """tau = 1e-6 and a velocity β̄ = -100 (x, y) that is not divergence
    free: the symmetric part of S = A + Cᵀ(I₂⊗M)⁻¹C is indefinite on
    every element, so S needs its pivoting.  W and the Schur complement
    still match LAPACK on the dense blocks."""
    disc = Discretization(mesh2, k)
    tables = BlockTables(disc, 1e-6, 1.0)
    c = np.ones(disc.X_data.shape[:2])
    M, A, A_TI = sampled_blocks(disc, tables, c, -100 * disc.X_data,
                                -100 * disc.Xf_fdata)
    d = disc.ndof_u
    S = A + sum(transpose(C) @ np.linalg.solve(M, C)
                for C in (tables.C[:, :d], tables.C[:, d:]))
    assert (np.linalg.eigvalsh(S + transpose(S)).min(axis=1) < 0).all()
    cond = condense_all(tables, M, A, A_TI)
    A_II, A_IT, A_TI, A_TT = dense_blocks(tables, M, A, A_TI)
    W = np.linalg.inv(A_II)
    kappa = np.linalg.cond(A_II)[:, None, None]
    eps = np.finfo(float).eps
    for got, want in ((cond.solve_int, W),
                      (cond.schur, A_TT - A_TI @ W @ A_IT)):
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert (np.abs(got - want) <= 4 * eps * kappa * scale).all()


@pytest.mark.parametrize("k", [1, 2])
def test_interior_inverse_is_componentwise_backward_stable(k):
    """Example 1's mean blocks at h = 1/8 and dt = 1/16, the ratio of the
    march benchmark.  Forming S rounds CᵀM⁻¹C, about 100 times A; without
    its refinement some entries of I - A_II W reach 0.13 of |A_II||W| + I,
    and the march state drifts 30 times further from a long-double one."""
    disc = Discretization(build_uniform_square_mesh(8), k)
    solver = EnsembleSolver(disc, example1(), 1 / 16)
    level, tables = solver._coeff_cache, solver._block_tables
    blocks = assemble_all_blocks(disc, tables, *level["mean"])
    A_II = dense_blocks(tables, *blocks)[0]
    W = condense_all(tables, *blocks).solve_int
    eye = np.eye(A_II.shape[1])
    ld = np.longdouble
    residual = np.abs(eye - A_II.astype(ld) @ W.astype(ld))
    assert (residual <= 16 * np.finfo(float).eps *
            (np.abs(A_II) @ np.abs(W) + eye)).all()


def test_condensation_reconstructs_full_solution(mesh2, rng):
    """Condensed maps + back-substitution satisfy the uncondensed local
    equations of every element, for two right-hand sides each."""
    disc = Discretization(mesh2, 1)
    tables = BlockTables(disc, 2.0, 0.5)
    blocks = sampled_blocks(
        disc, tables, *const_samples(disc, cval=1.3, bvec=(0.4, -0.2)))
    cond = condense_all(tables, *blocks)
    A_II, A_IT, A_TI, A_TT = dense_blocks(tables, *blocks)
    full = np.block([[A_II, A_IT], [A_TI, A_TT]])
    nint = A_II.shape[1]
    rhs = rng.normal(size=(mesh2.n_elements, full.shape[1], 2))
    sol = np.linalg.solve(full, rhs)
    # back-substitute the exact trace part through the condensed maps
    got = cond.solve_int @ rhs[:, :nint] - cond.lift @ sol[:, nint:]
    assert np.abs(got - sol[:, :nint]).max() < 1e-11


def test_recover_interior_zero_and_linearity(mesh2, rng):
    """The recovery solve_int b - lift t of every element maps zero to
    zero and is a superposition in the trace input."""
    disc = Discretization(mesh2, 1)
    tables = BlockTables(disc, 1.0, 1.0)
    cond = condense_all(tables, *sampled_blocks(disc, tables,
                                                *const_samples(disc)))
    ne, nint, ntr = cond.lift.shape

    def recover(t, b):
        return cond.solve_int @ b[..., None] - cond.lift @ t[..., None]

    assert np.abs(recover(np.zeros((ne, ntr)), np.zeros((ne, nint)))).max() \
        == 0.0
    t1, t2 = rng.normal(size=(2, ne, ntr))
    b = rng.normal(size=(ne, nint))
    both = recover(t1 + t2, b)
    apart = recover(t1, b) + recover(t2, np.zeros((ne, nint)))
    assert np.abs(both - apart).max() < 1e-12


def test_condense_all_matches_condense(mesh2, rng):
    """Assembled blocks of every element: Schur complements against direct
    elimination, and the recovered interior against a dense solve of the
    uncondensed local system."""
    disc = Discretization(mesh2, 1)
    tables = BlockTables(disc, 1.0, 1.0)
    blocks = sampled_blocks(disc, tables, *random_samples(disc, rng))
    cond = condense_all(tables, *blocks)
    A_II, A_IT, A_TI, A_TT = dense_blocks(tables, *blocks)
    want = A_TT - A_TI @ np.linalg.solve(A_II, A_IT)
    assert np.abs(cond.schur - want).max() < 5e-12
    # given traces t, the interior solves A_II x = b - A_IT t
    J = 2
    tr = rng.normal(size=(mesh2.n_elements, A_IT.shape[2], J))
    bi = rng.normal(size=(mesh2.n_elements, A_II.shape[1], J))
    got = cond.solve_int @ bi - cond.lift @ tr
    assert np.abs(got - np.linalg.solve(A_II, bi - A_IT @ tr)).max() < 1e-11


def test_condense_all_names_singular_element(mesh2):
    """A zero mass block, and a NaN u-block, whose pivots are NaN."""
    disc = Discretization(mesh2, 1)
    tables = BlockTables(disc, 1.0, 1.0)
    for block, value in ((0, 0.0), (1, np.nan)):
        blocks = list(sampled_blocks(disc, tables, *const_samples(disc)))
        blocks[block][3] = value
        with pytest.raises(RuntimeError, match="element 3$"):
            condense_all(tables, *blocks)


def test_local_rhs_reduces_to_time_term(mesh2, rng):
    """J=1 (zero deviations), f=0, g=0: only (1/dt)(u_prev, v) remains."""
    disc = Discretization(mesh2, 1)
    nq, nqf = len(disc.w_data), len(disc.w_fdata)
    dt = 0.2
    u_prev = rng.normal(size=nq)
    zeros = np.zeros(nq)
    rhs = local_rhs(disc, 0, 1.0, dt, zeros, np.zeros((3, nqf)), u_prev,
                    np.zeros((nq, 2)), np.zeros((nq, 2)),
                    np.zeros((3, nqf)), zeros, np.zeros((nq, 2)),
                    np.zeros((3, nqf, 2)))
    d = disc.ndof_u
    want = disc.geom.det[0] / dt * np.einsum(
        "q,q,iq->i", disc.w_data, u_prev, disc.V_data)
    assert np.abs(rhs[2 * d:3 * d] - want).max() < 1e-14
    assert np.abs(rhs[:2 * d]).max() == 0.0
    assert np.abs(rhs[3 * d:]).max() == 0.0


def test_local_rhs_constant_source_k0(single_cell_mesh):
    """f = 2, k = 0: the u-row equals 2 * area * sqrt(2) (orthonormal
    constant basis has value sqrt(2) on the reference element)."""
    disc = Discretization(single_cell_mesh, 0)
    nq, nqf = len(disc.w_data), len(disc.w_fdata)
    rhs = local_rhs(disc, 0, 1.0, 1.0, np.full(nq, 2.0),
                    np.zeros((3, nqf)), np.zeros(nq), np.zeros((nq, 2)),
                    np.zeros((nq, 2)), np.zeros((3, nqf)), np.zeros(nq),
                    np.zeros((nq, 2)), np.zeros((3, nqf, 2)))
    area = 0.5 * disc.geom.det[0]
    assert abs(rhs[2] - 2.0 * area * np.sqrt(2.0)) < 1e-14


def test_local_rhs_boundary_data_k0(single_cell_mesh):
    """g = 1 with tau = 3: the u-row picks up 3 * (boundary length) per
    boundary face, scaled by the constant-basis value."""
    disc = Discretization(single_cell_mesh, 0)
    nq, nqf = len(disc.w_data), len(disc.w_fdata)
    ie = 0
    rhs = local_rhs(disc, ie, 3.0, 1.0, np.zeros(nq),
                    np.ones((3, nqf)), np.zeros(nq), np.zeros((nq, 2)),
                    np.zeros((nq, 2)), np.zeros((3, nqf)), np.zeros(nq),
                    np.zeros((nq, 2)), np.zeros((3, nqf, 2)))
    on_bnd = disc.mesh.boundary[disc.mesh.elem_faces[ie]]
    blen = disc.geom.edge_lengths[ie][on_bnd].sum()
    assert abs(rhs[2] - 3.0 * blen * np.sqrt(2.0)) < 1e-13
    # and the q-rows carry -<g, r.n>: sum of n * length over boundary faces
    exp = -(disc.geom.normals[ie] * disc.geom.edge_lengths[ie][:, None]
            * on_bnd[:, None]).sum(0) * np.sqrt(2.0)
    assert np.abs(rhs[:2] - exp).max() < 1e-13


@pytest.mark.parametrize("k", [0, 1])
def test_batched_rhs_matches_per_element(mesh4, rng, k):
    """The operator RHS against per-element quadrature."""
    disc = Discretization(mesh4, k)
    ne = mesh4.n_elements
    nq, nqf = len(disc.w_data), len(disc.w_fdata)
    d, nfd = disc.ndof_u, disc.ndof_face
    J = 3
    tau, dt = 2.0, 0.3
    f_vals = rng.normal(size=(J, ne, nq))
    c_dev = rng.normal(size=(J, ne, nq))
    b_dev = rng.normal(size=(J, ne, nq, 2))
    bf_dev = rng.normal(size=(J, ne, 3, nqf, 2))
    be, bl = disc.boundary_face_sides()
    g_vals = rng.normal(size=(J, len(be), nqf))
    # scatter the boundary samples back to (elem, local face) layout
    g_by_elem = np.zeros((J, ne, 3, nqf))
    for idx, (e, lf) in enumerate(zip(be, bl)):
        g_by_elem[:, e, lf] = g_vals[:, idx]

    prev = EnsembleState(0, 0.0, rng.normal(size=(J, ne, d)),
                         rng.normal(size=(J, ne, 2 * d)), None)
    ops = sampled_rhs_operators(disc, BlockTables(disc, tau, dt), c_dev,
                                b_dev, bf_dev)
    rows = boundary_rows(disc, boundary_data_operator(disc, tau),
                         g_vals.reshape(J, -1))
    rows[:, :, 2 * d:] += source_rows(disc, f_vals.reshape(J, -1))
    b_int, b_tr = assemble_all_rhs(disc, ops, rows, prev.u, prev.q)
    s = lag_samples(disc, prev)
    for j in range(J):
        for ie in (0, 5, 17, ne - 1):
            loc = local_rhs(disc, ie, tau, dt, f_vals[j, ie],
                            g_by_elem[j, ie], s["u"][j, ie],
                            s["grad_u"][j, ie], s["q"][j, ie],
                            s["u_face"][j, ie], c_dev[j, ie],
                            b_dev[j, ie], bf_dev[j, ie])
            assert np.abs(b_int[j, ie] - loc[:3 * d]).max() < 1e-12
            assert np.abs(b_tr[j, ie] - loc[3 * d:]).max() < 1e-12
    assert b_tr.shape == (J, ne, 3 * nfd)
