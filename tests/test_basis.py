import numpy as np
import pytest

from ensemble_hdg.basis import (ElementBasis, FaceBasis, edge_quadrature,
                                monomial_exponents, tri_monomial_integral,
                                triangle_quadrature)


def test_triangle_quadrature_basic_values():
    rule = triangle_quadrature(2)
    assert abs(rule.weights.sum() - 0.5) < 1e-15
    got = (rule.weights * rule.points[:, 0] * rule.points[:, 1]).sum()
    assert abs(got - 1 / 24) < 1e-15

    rule4 = triangle_quadrature(4)
    got = (rule4.weights * rule4.points[:, 0] ** 4).sum()
    assert abs(got - 1 / 30) < 1e-15


@pytest.mark.parametrize("order", [1, 3, 5, 8, 12, 20])
def test_triangle_quadrature_exactness(order):
    rule = triangle_quadrature(order)
    assert np.all(rule.weights > 0)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            got = (rule.weights * rule.points[:, 0] ** a
                   * rule.points[:, 1] ** b).sum()
            want = tri_monomial_integral(a, b)
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_quadrature_rejects_unsupported_orders():
    for bad in (0, -1, 21):
        with pytest.raises(ValueError):
            triangle_quadrature(bad)
        with pytest.raises(ValueError):
            edge_quadrature(bad)


@pytest.mark.parametrize("basis", [ElementBasis, FaceBasis])
def test_bases_name_a_negative_degree(basis):
    with pytest.raises(ValueError, match=r"^degree -1 must be >= 0$"):
        basis(-1)


def test_edge_quadrature_values():
    rule = edge_quadrature(2)
    assert abs(rule.weights.sum() - 1.0) < 1e-15
    assert abs((rule.weights * rule.points ** 2).sum() - 1 / 3) < 1e-15
    rule5 = edge_quadrature(5)
    assert abs((rule5.weights * rule5.points ** 5).sum() - 1 / 6) < 1e-15


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_element_basis_dimensions_and_mass(k):
    basis = ElementBasis(k)
    assert basis.dim == (k + 1) * (k + 2) // 2
    rule = triangle_quadrature(max(2 * k, 1))
    V = basis.eval(rule.points)
    mass = (V * rule.weights) @ V.T
    # orthonormal on the reference triangle, hence SPD
    assert np.abs(mass - np.eye(basis.dim)).max() < 1e-12
    assert np.all(np.linalg.eigvalsh(mass) > 0)


def test_degree_zero_constant_function():
    # the spanned space is the constants: mass of the value-1 function is 1/2
    basis = ElementBasis(0)
    rule = triangle_quadrature(2)
    V = basis.eval(rule.points)
    assert np.ptp(V) < 1e-14  # constant
    one = V[0, 0]
    assert abs((rule.weights * one * one).sum() - one ** 2 / 2) < 1e-15
    # normalized so the reference mass is exactly 1
    assert abs(one - np.sqrt(2.0)) < 1e-14


def test_degree_one_gradients_constant():
    basis = ElementBasis(1)
    pts = np.array([[0.1, 0.2], [0.6, 0.3], [0.2, 0.7]])
    G = basis.eval_grad(pts)
    assert basis.dim == 3
    assert np.abs(G - G[:, :1, :]).max() < 1e-13


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_monomial_reproduction(k, rng):
    """Projection onto the basis reproduces every monomial of degree <= k."""
    basis = ElementBasis(k)
    rule = triangle_quadrature(2 * k + 2 if k else 2)
    V = basis.eval(rule.points)
    mass = (V * rule.weights) @ V.T
    for a, b in monomial_exponents(k):
        vals = rule.points[:, 0] ** a * rule.points[:, 1] ** b
        mom = (V * rule.weights) @ vals
        coeffs = np.linalg.solve(mass, mom)
        recon = coeffs @ V
        assert np.abs(recon - vals).max() < 1e-12


def test_quadratic_projection_reproduces_x2_plus_y2():
    basis = ElementBasis(2)
    assert basis.dim == 6
    rule = triangle_quadrature(6)
    V = basis.eval(rule.points)
    vals = rule.points[:, 0] ** 2 + rule.points[:, 1] ** 2
    mass = (V * rule.weights) @ V.T
    coeffs = np.linalg.solve(mass, (V * rule.weights) @ vals)
    assert np.abs(coeffs @ V - vals).max() < 1e-12


def test_partition_of_unity_residual():
    # best L2 approximation of the constant 1 is exact for every degree
    for k in (0, 1, 2, 3):
        basis = ElementBasis(k)
        rule = triangle_quadrature(2 * k + 2 if k else 2)
        V = basis.eval(rule.points)
        mass = (V * rule.weights) @ V.T
        coeffs = np.linalg.solve(mass, (V * rule.weights) @ np.ones(
            len(rule.weights)))
        assert np.abs(coeffs @ V - 1.0).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_consistency_with_finite_differences(k):
    basis = ElementBasis(k)
    pts = np.array([[0.25, 0.3], [0.4, 0.15], [0.1, 0.55]])
    G = basis.eval_grad(pts)
    eps = 1e-6
    fx = (basis.eval(pts + [eps, 0]) - basis.eval(pts - [eps, 0])) / (2 * eps)
    fy = (basis.eval(pts + [0, eps]) - basis.eval(pts - [0, eps])) / (2 * eps)
    scale = max(1.0, np.abs(G).max())
    assert np.abs(G[..., 0] - fx).max() < 1e-8 * scale
    assert np.abs(G[..., 1] - fy).max() < 1e-8 * scale


@pytest.mark.parametrize("k", [0, 1, 3])
def test_face_basis_spans_pk(k):
    basis = FaceBasis(k)
    assert basis.dim == k + 1
    rule = edge_quadrature(2 * k + 2)
    V = basis.eval(rule.points)
    mass = (V * rule.weights) @ V.T
    assert np.abs(mass - np.eye(k + 1)).max() < 1e-12
    for m in range(k + 1):
        vals = rule.points ** m
        coeffs = np.linalg.solve(mass, (V * rule.weights) @ vals)
        assert np.abs(coeffs @ V - vals).max() < 1e-12


def test_eval_helpers_shapes():
    pts = triangle_quadrature(4).points
    basis = ElementBasis(2)
    V, G = basis.eval(pts), basis.eval_grad(pts)
    assert V.shape == (6, len(pts)) and G.shape == (6, len(pts), 2)
    s = edge_quadrature(4).points
    assert FaceBasis(2).eval(s).shape == (3, len(s))
    with pytest.raises(ValueError):
        ElementBasis(-1)
