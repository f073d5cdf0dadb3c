import numpy as np
import pytest

from ensemble_hdg.discretization import Discretization
from ensemble_hdg.local import (BlockTables, CoefficientError, RHSTables,
                                assemble_all_rhs, boundary_data_operator,
                                boundary_rows, condense_all, source_rows)
from ensemble_hdg.solver import EnsembleState

from oracles import lag_samples, local_rhs, monomial_full_local_matrix
from samples import sampled_blocks, sampled_rhs_operators


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
    A_II, A_IT, A_TI, A_TT = sampled_blocks(
        disc, BlockTables(disc, 1.0, 1.0), *const_samples(disc))
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
    A_II, A_IT, A_TI, _ = sampled_blocks(disc, tables, cbar, bbar, bbar_f)
    # without convection the u-u block is a sum of symmetric mass terms,
    # and the trace rows' u-block is the transpose of the coupling's
    uu = A_II[:, 2 * d:, 2 * d:]
    assert np.abs(uu - transpose(uu)).max() < 1e-14 * np.abs(uu).max()
    assert np.array_equal(A_TI[:, :, 2 * d:], transpose(A_IT[:, 2 * d:, :]))
    # a velocity breaks both
    A_II, A_IT, A_TI, _ = sampled_blocks(disc, tables, cbar, bbar + 0.3,
                                         bbar_f + 0.3)
    uu = A_II[:, 2 * d:, 2 * d:]
    assert np.abs(uu - transpose(uu)).max() > 1e-3
    assert not np.allclose(A_TI[:, :, 2 * d:],
                           transpose(A_IT[:, 2 * d:, :]))


def test_coefficient_violation_names_element(mesh2):
    disc = Discretization(mesh2, 0)
    cbar, bbar, bbar_f = const_samples(disc)
    bad = cbar.copy()
    bad[5, 0] = -1.0
    with pytest.raises(CoefficientError, match="element 5"):
        sampled_blocks(disc, BlockTables(disc, 1.0, 1.0), bad, bbar,
                       bbar_f)
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
    A_II, A_IT, A_TI, A_TT = sampled_blocks(
        disc, BlockTables(disc, tau, dt), cbar, bbar, bbar_f)
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
    blocks = sampled_blocks(disc, BlockTables(disc, tau, dt), cbar, bbar,
                            bbar_f)
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
    """The coefficient-free blocks are handed out by reference: they
    cannot be written to, and calls with other coefficients leave the
    tables as a fresh build has them."""
    disc = Discretization(mesh2, 1)
    tables = BlockTables(disc, 2.0, 0.5)
    held = [tables.A_II, tables.A_IT, tables.A_TI, tables.A_TT,
            tables.lag.mass_q, tables.lag.conv] + [t for pair in
                                                   tables.lag.face
                                                   for t in pair]
    assert not any(t.flags.writeable for t in held)
    cbar, bbar, bbar_f = random_samples(disc, rng)
    first = sampled_blocks(disc, tables, cbar, bbar, bbar_f)
    with pytest.raises(ValueError, match="read-only"):
        first[1][0, 0, 0] = 1.0
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
    ops = sampled_rhs_operators(disc, tables.lag, 0.5, c.mean(0) - c,
                                b.mean(0) - b, bf.mean(0) - bf)
    time_term = sampled_rhs_operators(disc, tables.lag, 0.5, 0 * c[:1],
                                      0 * b[:1], 0 * bf[:1]).u_op[0, :, :d]
    mesh = disc.mesh
    bnd_rows = np.repeat(mesh.boundary[mesh.elem_faces], nfd, axis=1)
    assert not ops.u_op[:, :, d:][:, bnd_rows].any()
    for j in range(3):
        own = sampled_blocks(disc, tables, c[j], b[j], bf[j])
        pairs = (
            (own[0][:, :d, :d], mean[0][:, :d, :d] - ops.mass_c[j]),
            (own[0][:, 2 * d:, 2 * d:], mean[0][:, 2 * d:, 2 * d:] -
             (ops.u_op[j, :, :d] - time_term)),
            (own[2][:, :, 2 * d:][~bnd_rows], (mean[2][:, :, 2 * d:] -
                                               ops.u_op[j, :, d:])[~bnd_rows]))
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(got).max()


def test_schur_symmetry_without_convection(mesh2):
    disc = Discretization(mesh2, 1)
    cond = condense_all(*sampled_blocks(
        disc, BlockTables(disc, 3.0, 0.5), *const_samples(disc, cval=0.7)))
    assert np.abs(cond.schur - transpose(cond.schur)).max() < 1e-12


def test_mass_scaling_in_cbar(mesh2):
    # scale by a power of two so the comparison is exact in floating point
    disc = Discretization(mesh2, 1)
    d = disc.ndof_u
    cbar, bbar, bbar_f = const_samples(disc, cval=1.3)
    tables = BlockTables(disc, 1.0, 1.0)
    a1 = sampled_blocks(disc, tables, cbar, bbar, bbar_f)[0]
    a2 = sampled_blocks(disc, tables, 2.0 * cbar, bbar, bbar_f)[0]
    assert np.abs(a2[:, :2 * d, :2 * d] - 2.0 * a1[:, :2 * d, :2 * d]).max() \
        == 0.0


def test_condense_zero_coupling_returns_trace_block(mesh2):
    disc = Discretization(mesh2, 0)
    A_II, A_IT, A_TI, A_TT = sampled_blocks(
        disc, BlockTables(disc, 1.0, 1.0), *const_samples(disc))
    cond = condense_all(A_II, np.zeros_like(A_IT), np.zeros_like(A_TI),
                        A_TT)
    assert np.abs(cond.schur - A_TT).max() == 0.0


def test_condense_matches_generic_elimination(rng):
    """A batch of random well-conditioned synthetic blocks vs direct
    elimination."""
    n, t, batch = 6, 4, 5
    A_II = np.eye(n) * 4 + rng.normal(size=(batch, n, n)) * 0.3
    A_IT = rng.normal(size=(batch, n, t)) * 0.5
    A_TI = rng.normal(size=(batch, t, n)) * 0.5
    A_TT = np.eye(t) * 3 + rng.normal(size=(batch, t, t)) * 0.2
    cond = condense_all(A_II, A_IT, A_TI, A_TT)
    want = A_TT - A_TI @ np.linalg.solve(A_II, A_IT)
    assert np.abs(cond.schur - want).max() < 1e-12


def test_condensation_reconstructs_full_solution(mesh2, rng):
    """Condensed maps + back-substitution satisfy the uncondensed local
    equations of every element, for two right-hand sides each."""
    disc = Discretization(mesh2, 1)
    blocks = sampled_blocks(
        disc, BlockTables(disc, 2.0, 0.5),
        *const_samples(disc, cval=1.3, bvec=(0.4, -0.2)))
    cond = condense_all(*blocks)
    A_II, A_IT, A_TI, A_TT = blocks
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
    cond = condense_all(*sampled_blocks(
        disc, BlockTables(disc, 1.0, 1.0), *const_samples(disc)))
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
    A_II, A_IT, A_TI, A_TT = sampled_blocks(
        disc, BlockTables(disc, 1.0, 1.0), *random_samples(disc, rng))
    cond = condense_all(A_II, A_IT, A_TI, A_TT)
    want = A_TT - A_TI @ np.linalg.solve(A_II, A_IT)
    assert np.abs(cond.schur - want).max() < 5e-12
    # given traces t, the interior solves A_II x = b - A_IT t
    J = 2
    tr = rng.normal(size=(mesh2.n_elements, A_IT.shape[2], J))
    bi = rng.normal(size=(mesh2.n_elements, A_II.shape[1], J))
    got = cond.solve_int @ bi - cond.lift @ tr
    assert np.abs(got - np.linalg.solve(A_II, bi - A_IT @ tr)).max() < 1e-11


def test_condense_all_names_singular_element(mesh2):
    disc = Discretization(mesh2, 1)
    A_II, A_IT, A_TI, A_TT = sampled_blocks(
        disc, BlockTables(disc, 1.0, 1.0), *const_samples(disc))
    A_II[3] = 0.0
    with pytest.raises(RuntimeError, match="element 3"):
        condense_all(A_II, A_IT, A_TI, A_TT)


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
    """The operator RHS against per-element quadrature, for a previous u
    of degree k (step states) and k+1 (the initial projection)."""
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

    for degree, din in ((k, d), (k + 1, disc.ndof_u_hi)):
        prev = EnsembleState(0, 0.0, rng.normal(size=(J, ne, din)),
                             rng.normal(size=(J, ne, 2 * d)), None, degree)
        ops = sampled_rhs_operators(disc, RHSTables(disc, degree), dt,
                                    c_dev, b_dev, bf_dev)
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
