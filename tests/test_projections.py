"""The solver's initial projections: u = Pi_k u0 and
q = Pi_k(-grad Pi_(k+1) u0 / c).

`initialize` projects element by element in the data-rule inner product.
"""

import numpy as np
import pytest

from ensemble_hdg.basis import ElementBasis, triangle_quadrature
from ensemble_hdg.discretization import Discretization
from ensemble_hdg.mesh import BatchedGeometry, build_uniform_square_mesh
from ensemble_hdg.solver import Member, ProblemSpec, initialize


def initial_state(u0, mesh, k, c=1.0):
    """The projected initial state of one member with data u0 and c."""
    zero = lambda x, y, t: np.zeros_like(x)
    member = Member(c=lambda x, y, t: np.full_like(x, c),
                    beta=(zero, zero),
                    f=zero, g=zero, u0=lambda x, y, t: u0(x, y))
    disc = Discretization(mesh, k)
    return disc, initialize(ProblemSpec([member], autonomous=True), disc)


def q_values(state, k, rule):
    d = ElementBasis(k).dim
    return np.stack([values(state.q[0, :, :d], k, rule),
                     values(state.q[0, :, d:], k, rule)], axis=-1)


def element_points(mesh, rule):
    v = BatchedGeometry(mesh).corners
    return np.einsum("eji,qj->eqi", v[:, 1:] - v[:, :1], rule.points) + \
        v[:, None, 0, :]


def values(coeffs, degree, rule):
    """Per-element expansions (..., ne, dim) at the points of rule."""
    return coeffs @ ElementBasis(degree).eval(rule.points)


def l2_norm(mesh, rule, vals):
    g = BatchedGeometry(mesh)
    sq = vals ** 2 if vals.ndim == 2 else (vals ** 2).sum(-1)
    return np.sqrt(np.einsum("e,q,eq->", g.det, rule.weights, sq))


def discrete_field(mesh, degree, coeffs):
    """u0(x, y) evaluating per-element coefficients, located by a search
    over all elements for the one holding each point."""
    g = BatchedGeometry(mesh)
    basis = ElementBasis(degree)

    def u0(x, y):
        pts = np.column_stack([x, y])
        ref = np.einsum("eij,epj->epi", g.inv,
                        pts[None] - g.corners[:, None, 0])
        inside = (ref >= -1e-12).all(-1) & (ref.sum(-1) <= 1 + 1e-12)
        assert inside.any(axis=0).all()
        elem = np.argmax(inside, axis=0)
        ref = ref[elem, np.arange(len(x))]
        return np.einsum("pd,dp->p", coeffs[elem], basis.eval(ref))

    return u0


def test_constant_projection_exact(mesh4):
    _, state = initial_state(lambda x, y: np.full_like(x, 3.0), mesh4, 0)
    rule = triangle_quadrature(4)
    assert np.abs(values(state.u[0], 0, rule) - 3.0).max() < 1e-13
    assert np.abs(q_values(state, 0, rule)).max() < 1e-13


def test_linear_projection_exact(mesh4):
    """u0 = x + 2y lies in P^k for k >= 1, and q = -grad u0 / c = (-1, -2)
    in P^0."""
    f = lambda x, y: x + 2 * y
    rule = triangle_quadrature(4)
    X = element_points(mesh4, rule)
    _, state = initial_state(f, mesh4, 0)
    assert np.abs(q_values(state, 0, rule) - [-1.0, -2.0]).max() < 1e-13
    _, state = initial_state(f, mesh4, 1)
    assert np.abs(values(state.u[0], 1, rule) -
                  f(X[..., 0], X[..., 1])).max() < 1e-13


def test_projection_orthogonality_residual(mesh4):
    """(u0 - Pi u0, v) = 0 for all v in P^k, in the data-rule inner
    product the projection is defined by."""
    f = lambda x, y: np.sin(3 * x) * np.cos(y)
    for k in (0, 1, 2):
        disc, state = initial_state(f, mesh4, k)
        rule = disc.rule_data
        X = element_points(mesh4, rule)
        diff = f(X[..., 0], X[..., 1]) - values(state.u[0], k, rule)
        V = ElementBasis(k).eval(rule.points)
        g = BatchedGeometry(mesh4)
        resid = np.einsum("e,q,eq,dq->ed", g.det, rule.weights, diff, V)
        fnorm = l2_norm(mesh4, rule, f(X[..., 0], X[..., 1]))
        assert np.abs(resid).max() <= 1e-11 * fnorm


@pytest.mark.parametrize("deg", [0, 1, 2])
def test_projection_rates(deg):
    """Refinement rates for sin(x) sin(y), levels n = 4..32: deg+1 for the
    flux and for u, both projected onto P^deg."""
    u = lambda x, y: np.sin(x) * np.sin(y)
    q = lambda x, y: np.stack([-np.cos(x) * np.sin(y),
                               -np.sin(x) * np.cos(y)], -1)
    errs_q, errs_u = [], []
    for n in (4, 8, 16, 32):
        mesh = build_uniform_square_mesh(n)
        _, state = initial_state(u, mesh, deg)
        rule = triangle_quadrature(2 * deg + 6)
        X = element_points(mesh, rule)
        errs_q.append(l2_norm(mesh, rule, q_values(state, deg, rule) -
                              q(X[..., 0], X[..., 1])))
        errs_u.append(l2_norm(mesh, rule, values(state.u[0], deg, rule)
                              - u(X[..., 0], X[..., 1])))
    for errs in (errs_q, errs_u):
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        slope = np.polyfit(np.arange(4), -np.log2(errs), 1)[0]
        assert abs(slope - (deg + 1)) < 0.1
        assert np.all(np.abs(rates - (deg + 1)) < 0.1)


def test_vector_projection(mesh4):
    """The flux -grad u0 / c of a u0 in P^3 lies in [P^2]^2 and is
    projected exactly."""
    u0 = lambda x, y: x ** 2 * y - y ** 3 / 3 + x
    _, state = initial_state(u0, mesh4, 2, c=2.0)
    rule = triangle_quadrature(6)
    X = element_points(mesh4, rule)
    x, y = X[..., 0], X[..., 1]
    want = -np.stack([2 * x * y + 1, x ** 2 - y ** 2], -1) / 2.0
    assert np.abs(q_values(state, 2, rule) - want).max() < 1e-12


def test_projection_idempotent(mesh4):
    """Pi_k is idempotent; from a P^k field u0, whose Pi_(k+1) is u0
    itself, so is the whole initial state, q included."""
    _, first = initial_state(lambda x, y: np.sin(x + y), mesh4, 2)
    again = initial_state(discrete_field(mesh4, 2, first.u[0]), mesh4, 2)[1]
    assert np.abs(again.u - first.u).max() < 1e-13
    third = initial_state(discrete_field(mesh4, 2, again.u[0]), mesh4, 2)[1]
    assert np.abs(third.u - again.u).max() < 1e-13
    assert np.abs(third.q - again.q).max() < 1e-13


def test_projection_linearity(mesh4, rng):
    alpha = rng.normal()
    f = lambda x, y: np.sin(x) + y ** 3
    g = lambda x, y: np.exp(x - y)
    combo = lambda x, y: alpha * f(x, y) + g(x, y)
    both = initial_state(combo, mesh4, 1)[1]
    sf = initial_state(f, mesh4, 1)[1]
    sg = initial_state(g, mesh4, 1)[1]
    assert np.abs(both.u - (alpha * sf.u + sg.u)).max() < 1e-12
    assert np.abs(both.q - (alpha * sf.q + sg.q)).max() < 1e-12
