"""The member model (`Member`, `ProblemSpec`) and the built-in ensembles:
manufactured smooth/layered problems and custom constant-coefficient
families.

Manufactured members are generated symbolically: given an exact solution
u(x, y, t), a positive inverse-diffusion c(x, y) and a velocity field, the
flux q = -(1/c) grad u, source f = u_t + div q + beta . grad u, boundary
datum g = u and initial value u(., 0) are derived with sympy; β and q
are (x, y) pairs of scalar fields.  A field whose time dependence splits
off, sum_i T_i(t) S_i(x, y), becomes a SeparableField of scalar T_i and
vectorized numpy S_i.  Each distinct factor is printed as
`sympy.lambdify` would print it alone and compiled once per process: the
factors new to a construction go into one generated Python module,
exec'd once, and members that share a factor, as example 1's share
sin x sin y, share its function object.

The library reads every member field through `FieldStack`, a joint
evaluator bound to fixed points and to a linear map of the samples
there: the coefficient terms of c and β, the data moments of f and g,
the start u0, the error observer's projections, the u* maps.  It casts
and broadcasts every sample, samples each distinct spatial factor
function once, maps one mode per (component, function) once, and
samples other fields at every call; it names any non-finite sample or
weight before a map sees it.
"""

import math

import numpy as np
import sympy
from sympy.printing.numpy import NumPyPrinter
from sympy.printing.pycode import PythonCodePrinter

from .local import CoefficientError, mode_sum

_X, _Y, _T = sympy.symbols("x y t")


class SeparableField:
    """A field sum_i T_i(t) S_i(x, y).

    Time loops evaluate data at the same quadrature points every step;
    a `FieldStack` evaluates the spatial factors S_i there once and each
    step only the scalars T_i(t).  Fields that hold the same S_i function,
    as the generated fields of equal factors do, share those samples.  A
    direct call evaluates both and keeps nothing.
    """

    def __init__(self, t_fns, s_fns):
        self._t_fns = t_fns
        self._s_fns = s_fns

    def __call__(self, x, y, t):
        """The sum of T_i(t) S_i(x, y) in factor order, as a new array of
        the shape of x, bitwise the sum onto zeros."""
        out = None
        for tf, s in zip(self._t_fns, self._s_fns):
            term = float(tf(t)) * _sample(s, x, y)
            if out is None:
                out = np.asarray(term)  # a 0-d product is a scalar
            else:
                out += term
        out += 0.0  # a sum onto zeros turns a -0.0 into 0.0
        return out


def _sample(fn, x, y, *t):
    """The samples of fn at (x, y), or at (x, y, t) when t is given, as
    floats of the shape of x (a broadcast view of a constant)."""
    return np.broadcast_to(np.asarray(fn(x, y, *t), dtype=float),
                           np.shape(x))


def _separate_time(expr):
    """Split an expression into {T_i(t): S_i(x, y)}, or None."""
    groups = {}
    for term in sympy.Add.make_args(expr):
        t_part, xy_part = term.as_independent(_X, _Y)
        if xy_part.has(_T):
            return None  # mixed factor such as sin(t + x)
        groups[t_part] = groups.get(t_part, 0) + xy_part
    return groups if len(groups) <= 8 else None


# Every generated factor function of the process, keyed by the
# (arguments, expression) it was printed from and by its source: the one
# memo of the library.  A factor is printed once per distinct expression
# and compiled once per distinct source.
_FACTORS = {}


def _compile(exprs):
    """The fields of the expressions `exprs` in (x, y, t).  A field whose
    time dependence splits off is a SeparableField of one function per
    T_i(t), printed as `lambdify(modules="math")` prints, and per
    S_i(x, y), as "numpy" prints; any other field is f(x, y, t), as
    "numpy" prints, returned as compiled.  Each function comes
    from `_FACTORS`: equal factors, in these fields or in those of any
    earlier call, are one function object.  The factors new to the
    process are compiled in one generated module, exec'd once."""
    settings = {"inline": True, "allow_unknown_functions": True}
    time, space = PythonCodePrinter(settings), NumPyPrinter(settings)
    fields, sources = [], {}
    for e in exprs:
        groups = _separate_time(e)
        defs = [("x, y, t", e)] if groups is None else (
            [("t", tp) for tp in groups] +
            [("x, y", sp) for sp in groups.values()])
        for d in defs:
            if d not in _FACTORS and d not in sources:
                args, expr = d
                printer = time if args == "t" else space
                sources[d] = f"({args}): return {printer.doprint(expr)}\n"
        fields.append((groups, defs))
    new = list(dict.fromkeys(
        src for src in sources.values() if src not in _FACTORS))
    namespace = {"math": math, "numpy": np}
    exec("".join(f"def _{i}{src}" for i, src in enumerate(new)), namespace)
    _FACTORS.update((src, namespace[f"_{i}"]) for i, src in enumerate(new))
    _FACTORS.update((d, _FACTORS[src]) for d, src in sources.items())
    fns = [(g, [_FACTORS[d] for d in defs]) for g, defs in fields]
    return [f[0] if g is None else SeparableField(f[:len(g)], f[len(g):])
            for g, f in fns]


def reject_non_finite(samples, members, name, x, y, t):
    """Raise `local.CoefficientError` at the first non-finite sample, by
    member, component and point, of samples (m, npts[, 2]) at (x, y) of the
    members `members` of the field `name` at t (None: samples of modes)."""
    if np.isfinite(samples).all():
        return
    vector = samples.ndim == 3
    r, i, p = np.argwhere(~np.isfinite(
        np.moveaxis(samples, 2, 1) if vector else samples[:, None]))[0]
    part = "_" + "xy"[i] if vector else ""
    when = "" if t is None else f" at t = {t}"
    raise CoefficientError(
        f"member {members[r] + 1}: the {name}{part} sample at "
        f"({float(x[p])}, {float(y[p])}){when} is not finite")


def _spatial_factors(field):
    """(component, T_i, S_i) of a separable field, component None, or of
    each component 0, 1 of an (x, y) pair of separable fields; None for
    any other field."""
    if isinstance(field, SeparableField):
        return [(None, tf, s) for tf, s in zip(field._t_fns, field._s_fns)]
    if not (isinstance(field, tuple) and
            all(isinstance(f, SeparableField) for f in field)):
        return None
    return [(i, tf, s) for i, f in enumerate(field)
            for _, tf, s in _spatial_factors(f)]


class FieldStack:
    """Joint evaluator of several fields at fixed points, through one
    linear map of their samples, and the one gate of member fields.

    `project` maps samples (m, npts), or (m, npts, 2) of (x, y) pairs of
    scalar fields, at the bound points to images linearly: an array
    (m, ...), or a tuple of them that only `modes` reads.  Every sample is
    cast to floats and broadcast to the points.  When every field is
    separable, the spatial factors S_i of all the fields are sampled at
    the bound points once per distinct function object, and one mode per
    (component, function), e_x S and e_y S for a pair, is checked and
    projected once, here, in order of first use; an all-zero factor is
    the one zero mode in either component.  A call only evaluates the
    weights θ(t) (m, M), the T_i(t) summed per mode, and sums the M =
    `n_modes` mode images with them (`local.mode_sum`).  Any other field
    makes the m fields' samples at every call the modes.

    `residual`, when given, maps samples (m, npts) to what the projection
    loses, scaled so that the squared norm of the loss is the sum of the
    squares: the L2 residual times the square roots of the quadrature
    weights.  `split` then also returns those squared norms.  For
    separable fields they come from the Gram matrix
    G_ml = (S_m - Pi S_m, S_l - Pi S_l) of the modes' residual samples:
    taking them as ||S||^2 - ||Pi S||^2 instead would cancel the digits
    of a small residual.

    Non-finite samples (`reject_non_finite`, a mode's by the first member
    using it) and weights raise `local.CoefficientError` before `project`
    sees them.  The 1-D coordinate arrays are bound and treated as immutable.
    """

    def __init__(self, fields, x, y, project, residual, name):
        self._fields, self._x, self._y = fields, x, y
        self._project, self._residual = project, residual
        self.name = name
        factors = [_spatial_factors(f) for f in fields]
        self.separable = all(f is not None for f in factors)
        self.n_modes = len(fields)
        if not self.separable:
            return
        modes, first, index, self._factors = [], [], {}, []
        sampled = {}  # the samples of each factor function, by the object
        for j, triples in enumerate(factors):
            for i, tf, s in triples:
                if s not in sampled:
                    sampled[s] = _sample(s, x, y)
                sv = sampled[s]
                # the mode of (component, function); None: the zero mode
                key = (i, s) if sv.any() else None
                if key not in index:
                    index[key] = len(modes)
                    modes.append((i, sv))
                    first.append(j)
                self._factors.append((j, index[key], tf))
        self.n_modes = len(modes)
        zero = np.zeros(len(x))
        S = np.stack([sv if i is None else np.stack(
            (sv, zero) if i == 0 else (zero, sv), -1) for i, sv in modes])
        reject_non_finite(S, first, name, x, y, None)
        self._images = project(S)
        if residual is not None:
            R = residual(S)
            self._gram = R @ R.T

    def _samples(self, t):
        x, y = self._x, self._y
        samples = np.stack([
            np.stack([_sample(p, x, y, t) for p in f], -1)
            if isinstance(f, tuple) else _sample(f, x, y, t)
            for f in self._fields])
        reject_non_finite(samples, range(len(samples)), self.name, x, y, t)
        return samples

    def modes(self, t):
        """The weights θ(t) (m, M) and the images (M, ...) of the modes at
        time t; the images of separable fields are the same at every t."""
        if not self.separable:
            return np.eye(len(self._fields)), self._project(self._samples(t))
        W = np.zeros((len(self._fields), self.n_modes))
        for j, m, tf in self._factors:
            w = tf(t)
            if not math.isfinite(w):
                raise CoefficientError(f"member {j + 1}: the {self.name} "
                                       f"weights at t = {t} are not finite")
            W[j, m] += w
        return W, self._images

    def __call__(self, t):
        """The images (m, ...) of the fields at time t."""
        return mode_sum(*self.modes(t))

    def split(self, t):
        """The images at time t and the squared norms (m,) of the
        residuals the projection leaves."""
        if not self.separable:
            samples = self._samples(t)
            return (self._project(samples),
                    (self._residual(samples) ** 2).sum(-1))
        W = self.modes(t)[0]
        return mode_sum(W, self._images), ((W @ self._gram) * W).sum(1)


class Member:
    """One parameterized convection-diffusion problem of the ensemble.

    Scalar fields are vectorized callables fn(x, y, t), whose values
    broadcast to the shape of x: c positive (inverse diffusion), f
    source, g Dirichlet datum, u0 initial condition, read at t = 0.  The
    divergence-free velocity beta is a tuple (beta_x, beta_y) of scalar
    fields.  exact_u and the tuple exact_q = (q_x, q_y) are optional
    references for error studies.
    """

    def __init__(self, c, beta, f, g, u0, exact_u=None, exact_q=None):
        self.c = c
        self.beta = beta
        self.f = f
        self.g = g
        self.u0 = u0
        self.exact_u = exact_u
        self.exact_q = exact_q


class ProblemSpec:
    """A J-member ensemble of convection-diffusion problems.

    autonomous says whether the coefficients c and beta are independent of
    time.  The library ignores it: the solver reads c and β at every level
    and keeps what their weights show to stay.  It has no default and is
    passed on by `single_member`.  Members are named from 1 in messages,
    as in the error tables.
    """

    def __init__(self, members, autonomous, default_T=1.0, name=""):
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = list(members)
        self.autonomous = autonomous
        self.default_T = default_T
        self.name = name

    @property
    def J(self):
        return len(self.members)

    @property
    def has_exact(self):
        return all(m.exact_u is not None and m.exact_q is not None
                   for m in self.members)

    def single_member(self, j):
        """A J=1 spec containing only the member of index j (for separate
        runs), named member j + 1."""
        return ProblemSpec([self.members[j]], autonomous=self.autonomous,
                           default_T=self.default_T,
                           name=f"{self.name}[member {j + 1}]")


def manufactured_member(c_expr, beta_exprs, u_expr):
    """Build a Member from symbolic (c, beta, u) with induced data.

    beta must be divergence-free; this is asserted symbolically.
    """
    c_expr = sympy.sympify(c_expr)
    bx, by = (sympy.sympify(b) for b in beta_exprs)
    u_expr = sympy.sympify(u_expr)
    div_beta = sympy.simplify(sympy.diff(bx, _X) + sympy.diff(by, _Y))
    if div_beta != 0:
        raise ValueError(f"velocity field is not divergence-free: {div_beta}")
    qx = -sympy.diff(u_expr, _X) / c_expr
    qy = -sympy.diff(u_expr, _Y) / c_expr
    f_expr = (sympy.diff(u_expr, _T) + sympy.diff(qx, _X) +
              sympy.diff(qy, _Y) + bx * sympy.diff(u_expr, _X) +
              by * sympy.diff(u_expr, _Y))
    c, beta_x, beta_y, f, u, u0, q_x, q_y = _compile(
        (c_expr, bx, by, f_expr, u_expr, u_expr.subs(_T, 0), qx, qy))
    return Member(c=c, beta=(beta_x, beta_y), f=f, g=u, u0=u0, exact_u=u,
                  exact_q=(q_x, q_y))


EXAMPLE1_C = (0.26959, 0.26633, 0.30525)
EXAMPLE1_BETA_SCALE = (1.6797, 1.6551, 1.1626)
EXAMPLE2_C = (1.0e4, 2.0e4, 3.0e4)
EXAMPLE2_BETA = ((2, 3), (3, 4), (4, 5))
EXAMPLE3_C = (60.0, 120.0, 180.0)
EXAMPLE3_F = (2.0, 5.0, 8.0)


def example1():
    """Diffusion-dominated three-member ensemble with smooth solutions.

    Rotational velocity fields a_j (y, x) and exact solutions
    sin(t) sin(x) sin(y) / j on the unit square; runs to T = 1.
    """
    members = []
    for j, (cj, aj) in enumerate(zip(EXAMPLE1_C, EXAMPLE1_BETA_SCALE), 1):
        u = sympy.sin(_T) * sympy.sin(_X) * sympy.sin(_Y) / j
        members.append(manufactured_member(cj, (aj * _Y, aj * _X), u))
    return ProblemSpec(members, autonomous=True, default_T=1.0,
                       name="example1")


def _layer_solution(c, x0, y0, r2):
    bracket = sympy.Rational(1, 2) + sympy.atan(
        2 * sympy.sqrt(c) * (r2 - (_X - x0) ** 2 - (_Y - y0) ** 2)) / sympy.pi
    return (sympy.sin(_T) * _X * (1 - _X) * _Y * (1 - _Y)) * bracket


def example2():
    """Convection-dominated ensemble whose solutions have interior layers.

    Inverse-diffusion constants of order 1e4 place a steep circular layer
    inside the domain for each member; solutions vanish on the boundary.
    Defaults to T = 0.1.
    """
    geom = ((sympy.Rational(1, 3), sympy.Rational(1, 2),
             sympy.Rational(1, 12)),
            (sympy.Rational(1, 2), sympy.Rational(1, 3),
             sympy.Rational(1, 14)),
            (sympy.Rational(1, 2), sympy.Rational(1, 2),
             sympy.Rational(1, 16)))
    members = []
    for cj, (bx, by), (x0, y0, r2) in zip(EXAMPLE2_C, EXAMPLE2_BETA, geom):
        u = _layer_solution(cj, x0, y0, r2)
        members.append(manufactured_member(cj, (bx, by), u))
    return ProblemSpec(members, autonomous=True, default_T=0.1,
                       name="example2")


def example3():
    """Convection-dominated ensemble with boundary layers and no exact
    solution: constant sources, homogeneous Dirichlet data, zero start."""
    return constant_ensemble(EXAMPLE3_C, EXAMPLE2_BETA, EXAMPLE3_F,
                             default_T=0.1, name="example3")


def _one(x, y):
    """The spatial factor 1 of every constant field."""
    return 1.0


def constant_ensemble(c_values, beta_values, f_values, default_T, name):
    """Ensemble with constant coefficients, g = 0 and u0 = 0.

    c_values, f_values are per-member scalars; beta_values per-member
    (bx, by) pairs.  This is the family expressible in config files.
    Every field, and each β component, is a SeparableField of the one
    spatial factor `_one`, so a `FieldStack` samples it once, the members
    share one mode per field and component, and g is projected once.
    """
    def constant(value):
        return SeparableField([lambda t: value], [_one])

    if not len(c_values) == len(beta_values) == len(f_values):
        raise ValueError("member lists must have equal length")
    members = []
    for j, (cj, (bx, by), fj) in enumerate(
            zip(c_values, beta_values, f_values), 1):
        cj, bx, by, fj = float(cj), float(bx), float(by), float(fj)
        if not 0 < cj < math.inf:
            raise ValueError(f"member {j}: inverse diffusion c = {cj} must "
                             "be positive and finite")
        members.append(Member(
            c=constant(cj),
            beta=(constant(bx), constant(by)),
            f=constant(fj),
            g=constant(0.0),
            u0=constant(0.0),
        ))
    return ProblemSpec(members, autonomous=True, default_T=default_T,
                       name=name)


def get_example(number):
    """Look up a built-in example ensemble by its 1-based number."""
    table = {1: example1, 2: example2, 3: example3}
    if number not in table:
        raise ValueError(f"unknown example {number}; choose 1, 2 or 3")
    return table[number]()
