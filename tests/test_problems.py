import math
import sys

import numpy as np
import pytest
import sympy

from ensemble_hdg import problems
from ensemble_hdg.problems import (EXAMPLE1_BETA_SCALE, EXAMPLE1_C,
                                   EXAMPLE2_C, EXAMPLE3_C, EXAMPLE3_F,
                                   SeparableField, VectorField,
                                   constant_ensemble, example1, example2,
                                   example3, get_example,
                                   manufactured_member)

from oracles import lambdified_member


@pytest.fixture(scope="module")
def ex1():
    return example1()


@pytest.fixture(scope="module")
def ex2():
    return example2()


def fd_source(member, x, y, t, h=1e-6):
    """Finite-difference evaluation of u_t + div q + beta . grad u."""
    ut = (member.exact_u(x, y, t + h) - member.exact_u(x, y, t - h)) / (2 * h)
    divq = ((member.exact_q(x + h, y, t)[..., 0] -
             member.exact_q(x - h, y, t)[..., 0]) / (2 * h) +
            (member.exact_q(x, y + h, t)[..., 1] -
             member.exact_q(x, y - h, t)[..., 1]) / (2 * h))
    gu = np.stack([
        (member.exact_u(x + h, y, t) - member.exact_u(x - h, y, t)) / (2 * h),
        (member.exact_u(x, y + h, t) - member.exact_u(x, y - h, t)) / (2 * h),
    ], -1)
    return ut + divq + (member.beta(x, y, t) * gu).sum(-1)


def test_example1_configuration(ex1):
    assert ex1.J == 3
    x = np.array([0.3, 0.8])
    y = np.array([0.6, 0.1])
    for j, (m, cj, aj) in enumerate(zip(ex1.members, EXAMPLE1_C,
                                        EXAMPLE1_BETA_SCALE), 1):
        assert np.abs(m.c(x, y, 0.5) - cj).max() == 0.0
        beta = m.beta(x, y, 0.2)
        assert np.abs(beta[..., 0] - aj * y).max() < 1e-15
        assert np.abs(beta[..., 1] - aj * x).max() < 1e-15
        want = np.sin(0.7) * np.sin(x) * np.sin(y) / j
        assert np.abs(m.exact_u(x, y, 0.7) - want).max() < 1e-15
        # starts from rest
        assert np.abs(m.u0(x, y, 0.0)).max() == 0.0


def test_example1_beta_divergence_free(ex1):
    x = np.array([0.4])
    y = np.array([0.9])
    h = 1e-6
    for m in ex1.members:
        div = ((m.beta(x + h, y, 0.0)[..., 0] -
                m.beta(x - h, y, 0.0)[..., 0]) / (2 * h) +
               (m.beta(x, y + h, 0.0)[..., 1] -
                m.beta(x, y - h, 0.0)[..., 1]) / (2 * h))
        assert np.abs(div).max() < 1e-9


def test_example1_induced_source(ex1, rng):
    """f = u_t + div q + beta . grad u against finite differences."""
    pts = rng.random((8, 2)) * 0.8 + 0.1
    x, y = pts[:, 0], pts[:, 1]
    for t in (0.5, 1.0):
        for m in ex1.members:
            fd = fd_source(m, x, y, t)
            assert np.abs(fd - m.f(x, y, t)).max() < 1e-7


def test_example1_flux_consistency(ex1, rng):
    """q = -(1/c) grad u at sampled points, against the hand-derived
    gradient sin(t) (cos x sin y, sin x cos y) / j."""
    pts = rng.random((20, 2))
    x, y = pts[:, 0], pts[:, 1]
    t = 0.8
    for j, m in enumerate(ex1.members, 1):
        grad = np.stack([np.cos(x) * np.sin(y),
                         np.sin(x) * np.cos(y)], -1) * math.sin(t) / j
        q = m.exact_q(x, y, t)
        c = m.c(x, y, t)[..., None]
        assert np.abs(q + grad / c).max() < 1e-10


def test_example2_configuration(ex2):
    assert ex2.J == 3
    assert ex2.default_T == 0.1
    x = np.array([0.25])
    y = np.array([0.5])
    for m, cj in zip(ex2.members, EXAMPLE2_C):
        assert np.abs(m.c(x, y, 0.0) - cj).max() == 0.0


def test_example2_boundary_and_layer_values(ex2):
    m1 = ex2.members[0]
    # vanishes on the boundary: x(1-x)y(1-y) factor
    bx = np.array([0.0, 1.0, 0.37, 0.81])
    by = np.array([0.42, 0.73, 0.0, 1.0])
    assert np.abs(m1.exact_u(bx, by, 0.05)).max() < 1e-15
    # on the layer circle the arctan argument is zero: bracket = 1/2
    r = math.sqrt(1.0 / 12.0)
    x = np.array([1 / 3 + r])
    y = np.array([0.5])
    got = m1.exact_u(x, y, 0.1)
    want = math.sin(0.1) * x * (1 - x) * y * (1 - y) * 0.5
    assert np.abs(got - want).max() < 1e-13


def test_example2_direct_formula_value(ex2):
    """u1(0.5, 0.5, 0.1) against an independent evaluation."""
    x, y, t = 0.5, 0.5, 0.1
    arg = 2 * math.sqrt(EXAMPLE2_C[0]) * (
        1 / 12 - (x - 1 / 3) ** 2 - (y - 1 / 2) ** 2)
    want = math.sin(t) * x * (1 - x) * y * (1 - y) * (
        0.5 + math.atan(arg) / math.pi)
    got = ex2.members[0].exact_u(np.array([x]), np.array([y]), t)
    assert abs(got[0] - want) < 1e-14


def test_example2_flux_consistency(ex2, rng):
    pts = rng.random((10, 2)) * 0.9 + 0.05
    x, y = pts[:, 0], pts[:, 1]
    h = 1e-7
    m = ex2.members[1]
    gy = (m.exact_u(x, y + h, 0.1) - m.exact_u(x, y - h, 0.1)) / (2 * h)
    q = m.exact_q(x, y, 0.1)
    c = m.c(x, y, 0.1)
    # layered solutions have steep gradients; tolerance relative to scale
    scale = max(1.0, np.abs(q[..., 1]).max())
    assert np.abs(q[..., 1] + gy / c).max() < 1e-6 * scale


def test_example3_configuration():
    spec = example3()
    assert spec.J == 3
    assert not spec.has_exact
    x = np.array([0.5])
    y = np.array([0.25])
    for m, cj, fj in zip(spec.members, EXAMPLE3_C, EXAMPLE3_F):
        assert m.c(x, y, 0.0)[0] == cj
        assert m.f(x, y, 7.0)[0] == fj
        assert m.g(x, y, 1.0)[0] == 0.0
        assert m.u0(x, y, 0.0)[0] == 0.0


def test_get_example_lookup():
    assert get_example(3).name == "example3"
    with pytest.raises(ValueError):
        get_example(4)


def test_manufactured_member_rejects_compressible_velocity():
    import sympy

    x, y = sympy.symbols("x y")
    with pytest.raises(ValueError, match="divergence-free"):
        manufactured_member(1.0, (x, y), x * y)


def test_constant_ensemble_validation():
    with pytest.raises(ValueError):
        constant_ensemble([1.0, 2.0], [(0, 0)], [1.0, 2.0], 0.1, "c")
    with pytest.raises(ValueError):
        constant_ensemble([-1.0], [(0, 0)], [1.0], 0.1, "c")
    spec = constant_ensemble([5.0], [(1.0, 2.0)], [3.0], 0.1, "c")
    x = np.array([0.1])
    assert spec.members[0].beta(x, x, 0.0)[0, 1] == 2.0


@pytest.mark.parametrize("c", [-2.0, math.nan, 0.0, math.inf],
                         ids=["negative", "nan", "zero", "inf"])
def test_constant_ensemble_names_a_bad_inverse_diffusion(c):
    """A NaN c is not <= 0, so `c <= 0` alone would let it through."""
    with pytest.raises(ValueError, match=rf"^member 2: inverse diffusion "
                                         rf"c = {c} must be positive and "
                                         rf"finite$"):
        constant_ensemble([1.0, c, 3.0], [(0, 0)] * 3, [1.0] * 3, 0.1, "c")


def _refactor_family():
    """Example 1's members with inverse diffusion c_j (1 + t/2)."""
    x, y, t = sympy.symbols("x y t")
    for j, (cj, aj) in enumerate(zip(EXAMPLE1_C, EXAMPLE1_BETA_SCALE), 1):
        problems.manufactured_member(
            cj * (1 + t / 2), (aj * y, aj * x),
            sympy.sin(t) * sympy.sin(x) * sympy.sin(y) / j)


def _non_separable():
    x, y, t = sympy.symbols("x y t")
    problems.manufactured_member(2 + x, (y, -x), sympy.sin(t + x) * y)


def _scalar_fields(member):
    for name in ("c", "beta", "f", "g", "u0", "exact_u", "exact_q"):
        field = getattr(member, name)
        if isinstance(field, VectorField):
            yield f"{name}_x", field.fx
            yield f"{name}_y", field.fy
        else:
            yield name, field


@pytest.mark.parametrize("build", [example1, example2, _refactor_family,
                                   _non_separable],
                         ids=["example1", "example2", "refactor",
                              "non-separable"])
def test_compiled_fields_equal_per_factor_lambdify_bitwise(monkeypatch, rng,
                                                           build):
    """Every field of every member built by `build` samples bitwise as
    the per-factor lambdify path (`oracles.lambdified_member`) at random
    points and t in {0, 0.37, 1}, and splits into as many factors."""
    built = []

    def recorded(*args):
        built.append((args, manufactured(*args)))
        return built[-1][1]

    manufactured = problems.manufactured_member
    monkeypatch.setattr(problems, "manufactured_member", recorded)
    build()
    assert built
    x, y = rng.random((2, 11))
    kinds = set()
    for args, member in built:
        reference = dict(_scalar_fields(lambdified_member(*args)))
        for name, field in _scalar_fields(member):
            old = reference[name]
            kinds.add(type(field))
            assert type(field) is type(old), name
            if isinstance(field, SeparableField):
                assert len(field._t_fns) == len(old._t_fns), name
            for t in (0.0, 0.37, 1.0):
                assert np.array_equal(field(x, y, t), old(x, y, t)), name
    assert SeparableField in kinds
    if build is _non_separable:  # u = sin(t + x) y does not split
        assert len(kinds) == 2


def test_example1_compiles_without_lambdify(monkeypatch):
    """A member is one generated module: bringing back a per-factor
    `sympy.lambdify` fails here."""
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.lambdify was called")

    monkeypatch.setattr(sympy, "lambdify", refuse)
    monkeypatch.setattr(sys.modules["sympy.utilities.lambdify"], "lambdify",
                        refuse)
    spec = example1()
    x = np.array([0.3])
    assert spec.members[0].exact_u(x, x, 0.5)[0] == pytest.approx(
        math.sin(0.5) * math.sin(0.3) ** 2)


def test_a_field_constant_in_space_broadcasts_to_the_points():
    """u = sin(t) + ... + sin(9t) has nine time factors, one too many to
    split, and no x or y: its compiled function returns one value, which
    comes out as a writable array of the shape of x, as do f's."""
    t = sympy.symbols("t")
    member = problems.manufactured_member(
        1, (0, 0), sum(sympy.sin(i * t) for i in range(1, 10)))
    x = np.linspace(0.0, 1.0, 5)
    for field, want in ((member.exact_u, sum(
            math.sin(0.5 * i) for i in range(1, 10))), (member.f, sum(
            i * math.cos(0.5 * i) for i in range(1, 10)))):
        assert not isinstance(field, SeparableField)
        out = field(x, x, 0.5)
        assert out.shape == x.shape and out.flags.writeable
        assert out == pytest.approx(np.full(5, want), rel=1e-14)


def stack_of_factors(*factors):
    """A FieldStack of one SeparableField per factor, member j weighted
    by j + 1, on 11 points, with the identity as its projection."""
    x = np.linspace(0.0, 1.0, 11)
    fields = [problems.SeparableField([lambda t, j=j: j + 1.0], [s])
              for j, s in enumerate(factors)]
    return problems.FieldStack(fields, x, np.zeros_like(x), lambda s: s,
                               None, "f")


def test_bitwise_equal_factors_share_one_mode_in_order_of_first_use():
    """Each distinct factor is one mode, numbered as the members first
    use it; members that evaluate equal bits share it, whichever
    function object gives them."""
    a = [lambda x, y: np.sin(x) + 1, lambda x, y: np.sin(x) + 1]
    b, c = (lambda x, y: x * x), (lambda x, y: 0 * x + 2.0)
    stack = stack_of_factors(a[0], b, a[1], c, b)
    assert stack.n_modes == 3
    W, images = stack.modes(0.0)
    x = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(images, [np.sin(x) + 1, x * x, np.full(11, 2.0)])
    assert np.array_equal(W, [[1, 0, 0], [0, 2, 0], [3, 0, 0], [0, 0, 4],
                              [0, 5, 0]])


@pytest.mark.parametrize("change", ["one-ulp", "signed-zero"])
def test_factors_differing_in_one_sample_are_two_modes(change):
    """A factor one ulp off, or -0.0 for 0.0, in one sample away from the
    first, middle and last stays its own mode."""
    def base(x, y):
        return np.where(x < 0.5, 0.0, x)

    def other(x, y):
        s = base(x, y)
        s[1] = np.nextafter(s[1], 1.0) if change == "one-ulp" else -0.0
        return s

    stack = stack_of_factors(base, other, base)
    assert stack.n_modes == 2
    W, images = stack.modes(0.0)
    assert np.array_equal(W, [[1, 0], [0, 2], [3, 0]])
    assert np.signbit(images[1, 1]) == (change == "signed-zero")
    assert not np.signbit(images[0, 1])
