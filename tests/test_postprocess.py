import numpy as np
import pytest

from ensemble_hdg.basis import ElementBasis
from ensemble_hdg.discretization import Discretization
from ensemble_hdg.postprocess import Postprocessor

from oracles import basis_tables, monomial_postprocess, quadrature_postprocess


def test_constant_state_preserved(mesh2):
    """q = 0 and constant u reconstruct to the same constant."""
    disc = Discretization(mesh2, 1)
    post = Postprocessor(disc)
    ne = mesh2.n_elements
    u = np.zeros((1, ne, disc.ndof_u))
    u[..., 0] = 4.2 / np.sqrt(2.0)  # constant basis value sqrt(2)
    q = np.zeros((1, ne, 2 * disc.ndof_u))
    c = np.ones((1, ne, len(disc.w_data)))
    star = post.apply(u, q, post.operator(c))
    vals = star @ disc.V_hi_data
    assert np.abs(vals - 4.2).max() < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_exact_reproduction_of_hi_degree_pairs(mesh2, rng, k):
    """u_h in P^(k+1) with q_h = -grad(u_h)/c, c constant: u* = u_h."""
    disc = Discretization(mesh2, k)
    ne = mesh2.n_elements
    cval = 0.7
    hi_coeffs = rng.normal(size=(1, ne, disc.ndof_u_hi))
    u_vals = hi_coeffs @ disc.V_hi_data
    grad = np.einsum("jel,elqc->jeqc", hi_coeffs,
                     basis_tables(disc, k + 1)[1])

    # project u_h and q_h = -grad/c into the degree-k state layout
    V, w = disc.V_data, disc.w_data
    mass = (V * w) @ V.T
    um = np.einsum("q,jeq,iq->jei", w, u_vals, V)
    u_k = np.linalg.solve(mass[None, None], um[..., None])[..., 0]
    q_k = np.empty((1, ne, 2 * disc.ndof_u))
    for comp in range(2):
        qm = np.einsum("q,jeq,iq->jei", w, -grad[..., comp] / cval, V)
        q_k[:, :, comp * disc.ndof_u:(comp + 1) * disc.ndof_u] = \
            np.linalg.solve(mass[None, None], qm[..., None])[..., 0]

    c = np.full((1, ne, len(w)), cval)
    post = Postprocessor(disc)
    star = post.apply(u_k, q_k, post.operator(c))
    # measure against the original degree-(k+1) field
    diff = star @ disc.V_hi_data - u_vals
    assert np.abs(diff).max() < 1e-10


def test_mean_preservation_random_inputs(mesh4, rng):
    disc = Discretization(mesh4, 1)
    ne = mesh4.n_elements
    J = 3
    u = rng.normal(size=(J, ne, disc.ndof_u))
    q = rng.normal(size=(J, ne, 2 * disc.ndof_u))
    c = 1.0 + rng.random((J, ne, len(disc.w_data)))
    post = Postprocessor(disc)
    star = post.apply(u, q, post.operator(c))
    w, det = disc.w_data, disc.geom.det
    mean_star = np.einsum("e,q,jeq->je", det, w, star @ disc.V_hi_data)
    mean_u = np.einsum("e,q,jeq->je", det, w, u @ disc.V_data)
    scale = np.abs(mean_u).max()
    assert np.abs(mean_star - mean_u).max() < 1e-12 * max(1.0, scale)


def test_locality(mesh4, rng):
    """Perturbing one element leaves all other reconstructions bit-equal."""
    disc = Discretization(mesh4, 1)
    ne = mesh4.n_elements
    u = rng.normal(size=(1, ne, disc.ndof_u))
    q = rng.normal(size=(1, ne, 2 * disc.ndof_u))
    c = 1.0 + rng.random((1, ne, len(disc.w_data)))
    post = Postprocessor(disc)
    op = post.operator(c)
    base = post.apply(u, q, op)
    u2, q2 = u.copy(), q.copy()
    u2[0, 7] += 1.0
    q2[0, 7] -= 2.0
    bumped = post.apply(u2, q2, op)
    mask = np.ones(ne, dtype=bool)
    mask[7] = False
    assert np.array_equal(base[0, mask], bumped[0, mask])
    assert not np.allclose(base[0, 7], bumped[0, 7])


def test_observer_map_follows_a_time_dependent_c(mesh2, rng):
    """For c_j (1 + t/2) the observer's u* at two times equals the
    mean-constrained KKT solve with c sampled at each time."""
    from ensemble_hdg.errors import ErrorAccumulator

    from test_study import time_dependent_example1

    spec = time_dependent_example1()
    disc = Discretization(mesh2, 1)
    ne, J = mesh2.n_elements, spec.J
    u = rng.normal(size=(J, ne, disc.ndof_u))
    q = rng.normal(size=(J, ne, 2 * disc.ndof_u))
    acc = ErrorAccumulator(disc, spec, 1.0, final_step=1)
    x, y = disc.x_data_flat, disc.y_data_flat
    stars = []
    for t in (0.2, 0.9):
        star = acc.post.apply(u, q, acc.ustar_map(t))
        c = np.stack([m.c(x, y, t).reshape(ne, -1) for m in spec.members])
        want = quadrature_postprocess(disc, u, q, c)
        assert np.abs(star - want).max() < 1e-12 * np.abs(want).max()
        stars.append(star)
    assert not np.allclose(stars[0], stars[1])


def test_batched_matches_per_element(mesh2, rng):
    """Random (q, u) of two members at k=0..2: the batched Postprocessor
    against the per-element monomial KKT solve, on every element, in
    orthonormal coefficients."""
    ne = mesh2.n_elements
    for k in (0, 1, 2):
        disc = Discretization(mesh2, k)
        u = rng.normal(size=(2, ne, disc.ndof_u))
        q = rng.normal(size=(2, ne, 2 * disc.ndof_u))
        c = 1.0 + rng.random((2, ne, len(disc.w_data)))
        post = Postprocessor(disc)
        star = post.apply(u, q, post.operator(c))
        # the oracle answers in monomials: convert to the orthonormal basis
        C = ElementBasis(k + 1).coeffs
        for j in range(2):
            for ie in range(ne):
                mono = monomial_postprocess(disc, ie, q[j, ie], u[j, ie],
                                            c[j, ie])
                want = np.linalg.solve(C.T, mono)
                assert np.abs(star[j, ie] - want).max() < 1e-11, (k, j, ie)


def test_against_monomial_kkt_oracle(mesh2, rng):
    """Random (q, u) at k=1 vs a dense constrained solve assembled in the
    raw monomial basis, compared in monomial coefficients."""
    k = 1
    disc = Discretization(mesh2, k)
    ie = 2
    ne = mesh2.n_elements
    u = rng.normal(size=(1, ne, disc.ndof_u))
    q = rng.normal(size=(1, ne, 2 * disc.ndof_u))
    c = 1.0 + rng.random((1, ne, len(disc.w_data)))
    post = Postprocessor(disc)
    got = post.apply(u, q, post.operator(c))[0, ie]
    mono_sol = monomial_postprocess(disc, ie, q[0, ie], u[0, ie], c[0, ie])
    # convert the library's orthonormal-basis answer to monomial form
    C = ElementBasis(k + 1).coeffs
    got_mono = C.T @ got
    assert np.abs(got_mono - mono_sol).max() < 1e-10


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_stiffness_inverse_matches_quadrature_oracle(mesh4, rng, k):
    """The batched Gauss-Jordan inverse of the stiffness blocks: u* of
    random (q, u) against the per-element quadrature solve."""
    ne = mesh4.n_elements
    disc = Discretization(mesh4, k)
    u = rng.normal(size=(2, ne, disc.ndof_u))
    q = rng.normal(size=(2, ne, 2 * disc.ndof_u))
    c = 1.0 + rng.random((2, ne, len(disc.w_data)))
    post = Postprocessor(disc)
    star = post.apply(u, q, post.operator(c))
    want = quadrature_postprocess(disc, u, q, c)
    assert np.abs(star - want).max() <= 1e-12 * np.abs(want).max()
