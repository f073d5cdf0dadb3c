import numpy as np
import pytest

from ensemble_hdg.discretization import Discretization
from ensemble_hdg.local import BlockTables, assemble_all_blocks, condense_all
from ensemble_hdg.trace_system import (assemble_trace_matrix,
                                       coefficient_fingerprint)


def build_system(mesh, k, rng=None):
    disc = Discretization(mesh, k)
    ne = mesh.n_elements
    nq, nqf = len(disc.w_elem), len(disc.w_face)
    if rng is None:
        cbar = np.ones((ne, nq))
        bbar = np.zeros((ne, nq, 2))
        bbar_f = np.zeros((ne, 3, nqf, 2))
    else:
        cbar = 1.0 + rng.random((ne, nq))
        bbar = rng.normal(size=(ne, nq, 2))
        bbar_f = rng.normal(size=(ne, 3, nqf, 2))
    cond = condense_all(*assemble_all_blocks(
        disc, BlockTables(disc, 2.0, 0.5), cbar, bbar, bbar_f))
    system = assemble_trace_matrix(disc, cond.schur, fingerprint="probe")
    return disc, cond, system


def test_two_element_mesh_is_one_by_one(single_cell_mesh):
    disc, cond, system = build_system(single_cell_mesh, 0)
    assert system.matrix.shape == (1, 1)
    assert system.n_dofs == 1


def test_n2_k0_dimension(mesh2):
    # 3 n^2 - 2 n interior faces at n = 2 -> 8
    disc, cond, system = build_system(mesh2, 0)
    assert system.matrix.shape == (8, 8)


def test_matrix_matches_elementwise_application(mesh4, rng):
    """Random matvec vs scattering the per-element Schur action."""
    disc, cond, system = build_system(mesh4, 1, rng)
    n = system.n_dofs
    x = rng.normal(size=n)
    got = system.matrix @ x
    want = np.zeros(n)
    dof = disc.trace_dof
    for ie in range(mesh4.n_elements):
        idx = dof[ie]
        loc = np.where(idx >= 0, x[np.maximum(idx, 0)], 0.0)
        contrib = cond.schur[ie] @ loc
        for r, g in enumerate(idx):
            if g >= 0:
                want[g] += contrib[r]
    assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


def test_factorize_and_residual(mesh4, rng):
    disc, cond, system = build_system(mesh4, 1, rng)
    system.factorize()
    b = rng.normal(size=(system.n_dofs, 1))
    x = system.solve_multi(b, "probe")
    assert system.residual(x, b).max() < 1e-11


def test_multi_rhs_matches_sequential(mesh4, rng):
    disc, cond, system = build_system(mesh4, 0, rng)
    system.factorize()
    B = rng.normal(size=(system.n_dofs, 3))
    X = system.solve_multi(B, "probe")
    for j in range(3):
        xj = system.solve_multi(B[:, j:j + 1], "probe")[:, 0]
        assert np.abs(X[:, j] - xj).max() < 1e-13
    # zero RHS -> zero solution
    z = system.solve_multi(np.zeros((system.n_dofs, 2)), "probe")
    assert np.abs(z).max() == 0.0


def test_factorization_reuse_is_deterministic(mesh2, rng):
    disc, cond, system = build_system(mesh2, 1, rng)
    system.factorize()
    b = rng.normal(size=(system.n_dofs, 1))
    assert np.array_equal(system.solve_multi(b, "probe"),
                          system.solve_multi(b, "probe"))


def test_fingerprint_mismatch_rejected(mesh2):
    disc, cond, system = build_system(mesh2, 0)
    system.factorize()
    b = np.ones((system.n_dofs, 1))
    system.solve_multi(b, fingerprint="probe")
    with pytest.raises(ValueError, match="fingerprint"):
        system.solve_multi(b, fingerprint="stale")


def test_solve_requires_factorization(mesh2):
    disc, cond, system = build_system(mesh2, 0)
    with pytest.raises(RuntimeError):
        system.solve_multi(np.ones((system.n_dofs, 1)), "probe")
    system.factorize()
    with pytest.raises(ValueError):
        system.solve_multi(np.ones((system.n_dofs + 1, 1)), "probe")


def test_fingerprint_sensitivity():
    def fingerprint(cbar=np.ones(5), bbar=np.ones(4), bbar_face=np.ones(6)):
        return coefficient_fingerprint("token", 1, 0.1, np.array([2.0]),
                                       cbar, bbar, bbar_face)

    a = fingerprint()
    b = fingerprint(cbar=np.ones(5) + 1e-15)
    c = fingerprint()
    assert a != b
    assert a == c
    # the element samples of the mean velocity feed the u-u convection
    # block, the face samples the trace rows: both must change the hash
    assert fingerprint(bbar=np.ones(4) + 1e-15) != a
    assert fingerprint(bbar_face=np.ones(6) + 1e-15) != a


def test_shape_mismatch_rejected(mesh2):
    disc = Discretization(mesh2, 0)
    with pytest.raises(ValueError):
        assemble_trace_matrix(disc, np.zeros((3, 3, 3)), "probe")
