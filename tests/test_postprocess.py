import numpy as np
import pytest

from ensemble_hdg.basis import ElementBasis, monomial_exponents
from ensemble_hdg.discretization import Discretization
from ensemble_hdg.postprocess import Postprocessor, postprocess_element


def test_constant_state_preserved(mesh2):
    """q = 0 and constant u reconstruct to the same constant."""
    disc = Discretization(mesh2, 1)
    post = Postprocessor(disc)
    ne = mesh2.n_elements
    u = np.zeros((1, ne, disc.ndof_u))
    u[..., 0] = 4.2 / np.sqrt(2.0)  # constant basis value sqrt(2)
    q = np.zeros((1, ne, 2 * disc.ndof_u))
    c = np.ones((1, ne, len(disc.w_data)))
    star = post.apply(u, q, c)
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
    grad = np.matmul(hi_coeffs[:, :, None, :],
                     disc.Gflat_hi_data).reshape(1, ne, -1, 2)

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
    star = Postprocessor(disc).apply(u_k, q_k, c)
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
    star = Postprocessor(disc).apply(u, q, c)
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
    base = post.apply(u, q, c)
    u2, q2 = u.copy(), q.copy()
    u2[0, 7] += 1.0
    q2[0, 7] -= 2.0
    bumped = post.apply(u2, q2, c)
    mask = np.ones(ne, dtype=bool)
    mask[7] = False
    assert np.array_equal(base[0, mask], bumped[0, mask])
    assert not np.allclose(base[0, 7], bumped[0, 7])


def test_cached_map_follows_changed_samples(mesh2, rng):
    """The u* map is rebuilt when the c samples change, also in place."""
    disc = Discretization(mesh2, 1)
    ne = mesh2.n_elements
    u = rng.normal(size=(2, ne, disc.ndof_u))
    q = rng.normal(size=(2, ne, 2 * disc.ndof_u))
    c = 1.0 + rng.random((2, ne, len(disc.w_data)))
    post = Postprocessor(disc)
    first = post.apply(u, q, c)
    assert post.operator(c) is post.operator(c.copy())
    c[1, 3] *= 2.0
    again = post.apply(u, q, c)
    fresh = Postprocessor(disc).apply(u, q, c)
    assert np.array_equal(again, fresh)
    assert np.array_equal(again[0], first[0])
    assert not np.allclose(again[1, 3], first[1, 3])


def test_batched_matches_per_element(mesh2, rng):
    disc = Discretization(mesh2, 1)
    ne = mesh2.n_elements
    u = rng.normal(size=(2, ne, disc.ndof_u))
    q = rng.normal(size=(2, ne, 2 * disc.ndof_u))
    c = 1.0 + rng.random((2, ne, len(disc.w_data)))
    star = Postprocessor(disc).apply(u, q, c)
    for j in range(2):
        for ie in range(ne):
            single = postprocess_element(disc, ie, q[j, ie], u[j, ie],
                                         c[j, ie])
            assert np.abs(star[j, ie] - single).max() < 1e-11


def test_against_monomial_kkt_oracle(mesh2, rng):
    """Random (q, u) at k=1 vs a dense constrained solve assembled in the
    raw monomial basis."""
    k = 1
    disc = Discretization(mesh2, k)
    ie = 2
    u = rng.normal(size=disc.ndof_u)
    q = rng.normal(size=2 * disc.ndof_u)
    c = 1.0 + rng.random(len(disc.w_data))
    got = postprocess_element(disc, ie, q, u, c)

    exps = monomial_exponents(k + 1)
    dh = len(exps)
    pts, w = disc.rule_elem.points, disc.rule_elem.weights
    ptsd, wd = disc.rule_data.points, disc.rule_data.weights
    BinvT = disc.geom.inv_t[ie]
    detJ = disc.geom.det[ie]

    def mono_grads(p):
        Gx = np.array([a * p[:, 0] ** max(a - 1, 0) * p[:, 1] ** b
                       if a else 0 * p[:, 0] for a, b in exps])
        Gy = np.array([b * p[:, 0] ** a * p[:, 1] ** max(b - 1, 0)
                       if b else 0 * p[:, 0] for a, b in exps])
        return BinvT[0, 0] * Gx + BinvT[0, 1] * Gy, \
            BinvT[1, 0] * Gx + BinvT[1, 1] * Gy

    GX, GY = mono_grads(pts)
    M = np.array([pts[:, 0] ** a * pts[:, 1] ** b for a, b in exps])
    K = detJ * (np.einsum("q,iq,jq->ij", w, GX, GX) +
                np.einsum("q,iq,jq->ij", w, GY, GY))
    mvec = detJ * np.einsum("q,iq->i", w, M)
    kkt = np.zeros((dh + 1, dh + 1))
    kkt[:dh, :dh] = K
    kkt[:dh, dh] = mvec
    kkt[dh, :dh] = mvec

    V = disc.V_data
    qx = V.T @ q[:disc.ndof_u]
    qy = V.T @ q[disc.ndof_u:]
    uu = V.T @ u
    GXd, GYd = mono_grads(ptsd)
    rhs = np.zeros(dh + 1)
    rhs[:dh] = -detJ * (np.einsum("q,q,iq->i", wd, c * qx, GXd) +
                        np.einsum("q,q,iq->i", wd, c * qy, GYd))
    rhs[dh] = detJ * np.einsum("q,q->", wd, uu)
    mono_sol = np.linalg.solve(kkt, rhs)[:dh]
    # convert the library's orthonormal-basis answer to monomial form
    C = ElementBasis(k + 1).coeffs
    got_mono = C.T @ got
    assert np.abs(got_mono - mono_sol).max() < 1e-10
