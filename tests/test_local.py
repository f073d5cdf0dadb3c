import numpy as np
import pytest

from ensemble_hdg.discretization import Discretization
from ensemble_hdg.local import (CoefficientError, RHSTables,
                                assemble_all_blocks, assemble_all_rhs,
                                assemble_local_blocks, condense, condense_all,
                                recover_all, recover_interior, rhs_operators)
from ensemble_hdg.solver import EnsembleState

from oracles import lag_samples, local_rhs, monomial_full_local_matrix


def const_samples(disc, cval=1.0, bvec=(0.0, 0.0)):
    nq = len(disc.w_elem)
    nqf = len(disc.w_face)
    ne = disc.mesh.n_elements
    cbar = np.full((ne, nq), cval)
    bbar = np.broadcast_to(np.asarray(bvec, float), (ne, nq, 2)).copy()
    bbar_f = np.broadcast_to(np.asarray(bvec, float), (ne, 3, nqf, 2)).copy()
    return cbar, bbar, bbar_f


def test_reference_triangle_identities(reference_triangle_mesh):
    """k=0, c=1, beta=0, tau=1, dt=1 on the reference triangle."""
    disc = Discretization(reference_triangle_mesh, 0)
    cbar, bbar, bbar_f = const_samples(disc)
    blocks = assemble_local_blocks(disc, 0, cbar[0], bbar[0], bbar_f[0],
                                   1.0, 1.0)
    # orthonormal reference basis: coefficient-1 mass is the identity
    assert np.abs(blocks.a_qq - np.eye(2)).max() < 1e-13
    assert np.abs(blocks.b_qu).max() < 1e-14  # div r = 0 for constants
    assert np.abs(blocks.conv_uu).max() == 0.0
    assert np.abs(blocks.conv_hatu).max() == 0.0


def test_convection_blocks_vanish_for_zero_velocity(mesh2):
    disc = Discretization(mesh2, 1)
    cbar, bbar, bbar_f = const_samples(disc, cval=2.5)
    blocks = assemble_local_blocks(disc, 3, cbar[0], bbar[0], bbar_f[0],
                                   2.0, 0.5)
    assert np.abs(blocks.conv_uu).max() == 0.0
    assert np.abs(blocks.conv_hatu).max() == 0.0


def test_coefficient_violation_names_element(mesh2):
    disc = Discretization(mesh2, 0)
    cbar, bbar, bbar_f = const_samples(disc)
    bad = cbar[0].copy()
    bad[0] = -1.0
    with pytest.raises(CoefficientError, match="element 5"):
        assemble_local_blocks(disc, 5, bad, bbar[0], bbar_f[0], 1.0, 1.0)
    with pytest.raises(ValueError):
        assemble_local_blocks(disc, 0, cbar[0], bbar[0], bbar_f[0], 0.0, 1.0)
    with pytest.raises(ValueError):
        assemble_local_blocks(disc, 0, cbar[0], bbar[0], bbar_f[0], 1.0, 0.0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_full_local_matrix_against_monomial_oracle(mesh2, rng, k):
    """Entry-wise agreement with brute-force quadrature in a raw monomial
    basis plus change of basis."""
    disc = Discretization(mesh2, k)
    nq, nqf = len(disc.w_elem), len(disc.w_face)
    tau, dt = 2.0, 0.25
    for ie in (0, 3, 6):
        cbar = 1.0 + 0.5 * rng.random(nq)
        bbar = rng.normal(size=(nq, 2))
        bbar_f = rng.normal(size=(3, nqf, 2))
        blocks = assemble_local_blocks(disc, ie, cbar, bbar, bbar_f, tau, dt)
        oracle = monomial_full_local_matrix(disc, ie, cbar, bbar, bbar_f,
                                            tau, dt)
        scale = np.abs(oracle).max()
        assert np.abs(blocks.full_matrix() - oracle).max() < 1e-12 * scale


@pytest.mark.parametrize("k", [0, 1])
def test_batched_blocks_match_per_element(mesh4, rng, k):
    disc = Discretization(mesh4, k)
    ne = mesh4.n_elements
    nq, nqf = len(disc.w_elem), len(disc.w_face)
    cbar = 1.0 + rng.random((ne, nq))
    bbar = rng.normal(size=(ne, nq, 2))
    bbar_f = rng.normal(size=(ne, 3, nqf, 2))
    tau, dt = 1.5, 0.1
    A_II, A_IT, A_TI, A_TT = assemble_all_blocks(disc, cbar, bbar, bbar_f,
                                                 tau, dt)
    for ie in (0, 7, 20, ne - 1):
        blocks = assemble_local_blocks(disc, ie, cbar[ie], bbar[ie],
                                       bbar_f[ie], tau, dt)
        assert np.abs(A_II[ie] - blocks.interior_matrix).max() < 1e-13
        assert np.abs(A_IT[ie] - blocks.coupling).max() < 1e-13
        assert np.abs(A_TI[ie] - blocks.trace_rows).max() < 1e-13
        assert np.abs(A_TT[ie] - blocks.trace_block).max() < 1e-13


def test_schur_symmetry_without_convection(mesh2):
    disc = Discretization(mesh2, 1)
    cbar, bbar, bbar_f = const_samples(disc, cval=0.7)
    blocks = assemble_local_blocks(disc, 0, cbar[0], bbar[0], bbar_f[0],
                                   3.0, 0.5)
    cond = condense(blocks)
    assert np.abs(cond.schur - cond.schur.T).max() < 1e-12


def test_mass_scaling_in_cbar(mesh2):
    # scale by a power of two so the comparison is exact in floating point
    disc = Discretization(mesh2, 1)
    cbar, bbar, bbar_f = const_samples(disc, cval=1.3)
    b1 = assemble_local_blocks(disc, 0, cbar[0], bbar[0], bbar_f[0], 1.0,
                               1.0)
    b2 = assemble_local_blocks(disc, 0, 2.0 * cbar[0], bbar[0], bbar_f[0],
                               1.0, 1.0)
    assert np.abs(b2.a_qq - 2.0 * b1.a_qq).max() == 0.0


def test_condense_zero_coupling_returns_trace_block(mesh2, rng):
    disc = Discretization(mesh2, 0)
    cbar, bbar, bbar_f = const_samples(disc)
    blocks = assemble_local_blocks(disc, 0, cbar[0], bbar[0], bbar_f[0],
                                   1.0, 1.0)
    blocks.c_qhat[:] = 0.0
    blocks.stab_uhat[:] = 0.0
    blocks.flux_hatq[:] = 0.0
    blocks.conv_hatu[:] = 0.0
    blocks.stab_hatu[:] = 0.0
    cond = condense(blocks)
    assert np.abs(cond.schur - blocks.trace_block).max() == 0.0


def test_condense_matches_generic_elimination(rng):
    """Random well-conditioned synthetic blocks vs direct elimination."""

    class Fake:
        ie = 0

        def __init__(self):
            n, t = 6, 4
            self._a = np.eye(n) * 4 + rng.normal(size=(n, n)) * 0.3
            self._b = rng.normal(size=(n, t)) * 0.5
            self._c = rng.normal(size=(t, n)) * 0.5
            self._d = np.eye(t) * 3 + rng.normal(size=(t, t)) * 0.2

        interior_matrix = property(lambda s: s._a)
        coupling = property(lambda s: s._b)
        trace_rows = property(lambda s: s._c)
        trace_block = property(lambda s: s._d)

    fake = Fake()
    cond = condense(fake)
    want = fake._d - fake._c @ np.linalg.solve(fake._a, fake._b)
    assert np.abs(cond.schur - want).max() < 1e-12


def test_condensation_reconstructs_full_solution(mesh2, rng):
    """Condensed solve + back-substitution satisfies the uncondensed local
    equations."""
    disc = Discretization(mesh2, 1)
    cbar, bbar, bbar_f = const_samples(disc, cval=1.3, bvec=(0.4, -0.2))
    blocks = assemble_local_blocks(disc, 0, cbar[0], bbar[0], bbar_f[0],
                                   2.0, 0.5)
    cond = condense(blocks)
    full = blocks.full_matrix()
    nint = blocks.interior_matrix.shape[0]
    rhs = rng.normal(size=full.shape[0])
    sol = np.linalg.solve(full, rhs)
    # back-substitute the exact trace part through the condensed maps
    q, u = recover_interior(cond, sol[nint:], rhs[:nint])
    assert np.abs(np.concatenate([q, u]) - sol[:nint]).max() < 1e-11


def test_recover_interior_zero_and_linearity(mesh2, rng):
    disc = Discretization(mesh2, 1)
    cbar, bbar, bbar_f = const_samples(disc)
    cond = condense(assemble_local_blocks(disc, 0, cbar[0], bbar[0],
                                          bbar_f[0], 1.0, 1.0))
    ntr = cond.schur.shape[0]
    nint = cond.solve_int.shape[0]
    q, u = recover_interior(cond, np.zeros(ntr), np.zeros(nint))
    assert np.abs(q).max() == 0.0 and np.abs(u).max() == 0.0
    # superposition in the trace input
    t1, t2 = rng.normal(size=ntr), rng.normal(size=ntr)
    b = rng.normal(size=nint)
    q12, u12 = recover_interior(cond, t1 + t2, b)
    qa, ua = recover_interior(cond, t1, b)
    qb, ub = recover_interior(cond, t2, np.zeros(nint))
    assert np.abs(q12 - (qa + qb)).max() < 1e-12
    assert np.abs(u12 - (ua + ub)).max() < 1e-12


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
        ops = rhs_operators(disc, RHSTables(disc, degree), dt, J, c_dev,
                            b_dev, bf_dev)
        b_int, b_tr = assemble_all_rhs(disc, tau, ops, f_vals, g_vals,
                                       prev.u, prev.q)
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


def test_condense_all_matches_condense(mesh2, rng):
    disc = Discretization(mesh2, 1)
    ne = mesh2.n_elements
    nq, nqf = len(disc.w_elem), len(disc.w_face)
    cbar = 1.0 + rng.random((ne, nq))
    bbar = rng.normal(size=(ne, nq, 2))
    bbar_f = rng.normal(size=(ne, 3, nqf, 2))
    batched = assemble_all_blocks(disc, cbar, bbar, bbar_f, 1.0, 1.0)
    cond = condense_all(*batched)
    for ie in range(ne):
        single = condense(assemble_local_blocks(
            disc, ie, cbar[ie], bbar[ie], bbar_f[ie], 1.0, 1.0))
        assert np.abs(cond.schur[ie] - single.schur).max() < 5e-12
    # batched recovery agrees with the per-element one
    J = 2
    tr = rng.normal(size=(J, ne, cond.schur.shape[1]))
    bi = rng.normal(size=(J, ne, cond.solve_int.shape[1]))
    out = recover_all(cond, tr, bi)
    for j in range(J):
        for ie in (0, 3):
            single = condense(assemble_local_blocks(
                disc, ie, cbar[ie], bbar[ie], bbar_f[ie], 1.0, 1.0))
            q, u = recover_interior(single, tr[j, ie], bi[j, ie])
            assert np.abs(out[j, ie] - np.concatenate([q, u])).max() < 1e-11
