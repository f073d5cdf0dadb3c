"""Ensemble HDG time stepping with one shared trace factorization per step.

Each implicit backward-Euler step assembles a single trace matrix from the
ensemble-mean coefficients and J right-hand sides carrying the per-member
data and the lagged deviation terms; all members are advanced with the same
factorization.

c and β enter as sums Σ_m θ_jm(t) φ_m(x) of shared spatial modes, scalar
for c and vector for β (e_x ψ, e_y ψ, or a member's own samples), read
through two `problems.FieldStack`s whose images are the modes' terms
(`local.c_terms`, `local.beta_terms`).  No tau or dt enters them: the
solver builds them before tau and the `local.BlockTables`, and
`check_admissibility` reads a `c_stack` without a solver.  The mean
weights θ̄ build the blocks; the factorization is kept while θ̄ stays
bitwise, and for a stack of plain callables, resampled at every level,
while the members' mean samples stay.  The deviation weights θ̄ - θ_j
build the RHS operators, whose c and velocity parts are each kept while
their own images and weights stay.  So coefficients that do not change
in time are factorized once, whatever the spec says about them.  Every
state is of degree k, the initial one Π_k u0 (`local.projection`).  The
sources f enter as interior-row moments and the Dirichlet data g as the
boundary traces P_M g through the coupling A_IT (`local.boundary_rows`),
each through one more FieldStack, so no step samples separable data.
Every sample and weight the solver reads has passed a FieldStack's gate.

States are immutable: step() returns a fresh state, the previous one is
never written to, so observers may safely keep references.
"""

import warnings

import numpy as np

from . import local
from .basis import triangle_quadrature
from .mesh import (build_uniform_square_mesh, element_points,
                   uniform_grid_points, uniform_n)
from .problems import FieldStack, Member, ProblemSpec, reject_non_finite
from .trace_system import assemble_trace_matrix

# build_uniform_square_mesh is imported only for the benchmark's tracer,
# which patches it here by name, and Member and ProblemSpec only for the
# benchmark's workloads, which build specs through this module; nothing
# in this module calls them
__all__ = ["Member", "ProblemSpec", "AdmissibilityReport", "c_stack",
           "check_admissibility", "choose_tau", "EnsembleState", "initialize",
           "state_samples", "EnsembleSolver", "build_uniform_square_mesh"]

# elements per block of choose_tau's sampling: its point and sample arrays
# stay a few hundred kilobytes each, however large the sampled mesh
_TAU_BLOCK = 2048


class AdmissibilityReport:
    """Outcome of the ensemble-mean condition check.

    ok is True when every sampled point satisfies both
    |cbar^n - c_j^n| < min(cbar^n, cbar^(n-1)) and c_j^n >= c0 > 0.
    violations lists up to `max_records` offending (j, n, x, y) tuples,
    with j the 0-based member index (member j + 1 in messages).  Repeated
    levels of a c whose weights and samples stay, such as a separable c
    that does not change in time, are checked and counted once, at the
    first level that compares them.
    """

    def __init__(self):
        self.ok = True
        self.violations = []
        self.n_violations = 0
        self.c_min = np.inf
        self.max_records = 100

    def record(self, n, bad, x, y):
        """Count the violations bad (J, npts) of level n at points (x, y)
        and keep the first ones, ordered by member, then point."""
        count = int(bad.sum())
        if not count:
            return
        self.ok = False
        self.n_violations += count
        room = self.max_records - len(self.violations)
        if room > 0:
            js, ps = np.nonzero(bad)
            self.violations += [(int(j), n, float(x[p]), float(y[p]))
                                for j, p in zip(js[:room], ps[:room])]

    def __repr__(self):
        status = "pass" if self.ok else f"FAIL ({self.n_violations} points)"
        return (f"AdmissibilityReport({status}, min sampled c = "
                f"{self.c_min:.4g})")


def c_stack(disc, spec):
    """The members' c as the blocks read it: a `FieldStack` at the
    data-rule points whose images, `local.c_terms`, need no tau or dt."""
    return FieldStack([m.c for m in spec.members], disc.x_data_flat,
                      disc.y_data_flat, lambda c: local.c_terms(disc, c),
                      None, "c")


def check_admissibility(disc, c, times):
    """Sample the ensemble-mean condition over elements and time levels.

    c is the `c_stack` of disc: c is read as the scheme reads it, at the
    data-rule points where the blocks integrate it.  times are the levels
    t_0..t_N: level 0 is checked for c_j > 0, level n >= 1 also against
    the mean of level n-1, and a single level t_0 against itself.  A
    level n >= 2 whose weights and mode samples (`FieldStack.modes`) are
    bitwise those of levels n-1 and n-2 has level n-1's check, and it is
    skipped: a separable c is compared by its weights before any sample
    is formed, plain callables are sampled at every level.  Returns a
    report instead of raising; callers enforce strictness.
    """
    x, y = disc.x_data_flat, disc.y_data_flat
    report = AdmissibilityReport()
    times = list(times)
    last, prev_cbar = [], None
    for n, t in enumerate(times):
        # the images of the c stack hold the modes' samples first
        W, (samples, _) = c.modes(t)
        repeated = len(last) == 2 and all(
            np.array_equal(W, w) and
            (samples is s or np.array_equal(samples, s)) for w, s in last)
        last = last[-1:] + [(W, samples)]
        if repeated:
            continue
        cvals = local.mode_sum(W, samples)
        cbar = cvals.mean(axis=0)
        report.c_min = min(report.c_min, float(cvals.min()))
        bad = cvals <= 0
        if prev_cbar is not None or len(times) == 1:
            bound = cbar if prev_cbar is None else np.minimum(cbar, prev_cbar)
            bad |= np.abs(cbar[None] - cvals) >= bound[None]
        report.record(n, bad, x, y)
        prev_cbar = cbar
    return report


def choose_tau(spec, mesh):
    """Stabilization constant tau = 1 + max_j sup ||beta_j(., 0)||_inf.

    The sup uses the max-component norm, sampled at t = 0 at element points
    of the run mesh itself and its uniform 2n and 4n refinements
    (quadrature-order escalation on meshes that cannot be refined), in
    the blocks of `_tau_points`.  A non-finite sample raises
    `local.CoefficientError` through `problems.reject_non_finite`, as in
    the solver's β stack.  Each component is read on its own.
    """
    t = 0.0
    sup = 0.0
    for x, y in _tau_points(mesh):
        for j, member in enumerate(spec.members):
            for part, b in zip("xy", member.beta):
                b = np.asarray(b(x, y, t), dtype=float)
                # the largest |b|, without an abs copy; NaN propagates
                peak = max(float(b.max()), -float(b.min()))
                if not np.isfinite(peak):
                    reject_non_finite(np.broadcast_to(b, x.shape)[None], [j],
                                      "beta_" + part, x, y, t)
                sup = max(sup, peak)
    return 1.0 + sup


def _tau_points(mesh):
    """The points of `choose_tau`, as flat x and y of about `_TAU_BLOCK`
    elements each, in element order: the run mesh's order-6 points, then
    those of its uniform 2n and 4n refinements when it is uniform
    (`mesh.uniform_n`), or else its order-4, 8 and 12 points.  The run
    mesh's come from `mesh.element_points` block by block; the
    refinements' from their grid coordinates (`mesh.uniform_grid_points`),
    a block of whole cell rows at a time, so no refined mesh is built."""
    n = uniform_n(mesh)
    for order in [4, 8, 12] if n is None else [6]:
        ref = triangle_quadrature(order).points
        for start in range(0, mesh.n_elements, _TAU_BLOCK):
            corners = mesh.vertices[mesh.elements[start:start + _TAU_BLOCK]]
            yield tuple(a.ravel() for a in element_points(corners, ref))
    if n is None:
        return
    ref = triangle_quadrature(6).points
    for m in (2 * n, 4 * n):
        xs, ys = uniform_grid_points(m, ref)
        rows = max(1, _TAU_BLOCK // (2 * m))
        for start in range(0, m, rows):
            # element 2 (iy m + ix) + l: cell rows outermost
            y = ys[start:start + rows, None]
            shape = (len(y), m, 2, len(ref))
            yield (np.broadcast_to(xs, shape).ravel(),
                   np.broadcast_to(y, shape).ravel())


class EnsembleState:
    """Discrete ensemble state at one time level.

    u is (J, ne, d) and q (J, ne, 2d) as [qx | qy], both of degree k;
    uhat is (J, n_trace_dofs) and None at n=0 (the scheme never reads it).
    """

    def __init__(self, n, t, u, q, uhat):
        self.n = n
        self.t = t
        self.u = u
        self.q = q
        self.uhat = uhat


def initialize(spec, disc):
    """Initial ensemble state: u = Pi_k u0, q = Pi_k(-grad Pi_(k+1) u0 / c).

    The element bases are hierarchical, so u is the leading d coefficients
    of Pi_(k+1) u0; q keeps its gradient, and with it the rate k+1.  u0
    and c are sampled through `problems.FieldStack`s at t = 0; a c sample
    that is not positive raises `local.CoefficientError` naming it.
    """
    J, ne, d = spec.J, disc.mesh.n_elements, disc.ndof_u
    x, y = disc.x_data_flat, disc.y_data_flat
    hi = FieldStack([m.u0 for m in spec.members], x, y,
                    local.projection(disc, disc.V_hi_data)[0], None,
                    "u0")(0.0)
    c0 = FieldStack([m.c for m in spec.members], x, y, lambda s: s, None,
                    "c")(0.0)
    bad = np.argwhere(c0 <= 0)
    if len(bad):
        j, p = bad[0]
        raise local.CoefficientError(
            f"member {j + 1}: the c sample at ({float(x[p])}, "
            f"{float(y[p])}) at t = 0.0 is not positive")
    # grad_x u = B^-T grad_ref u, as rows: grad_ref u^T B^-1
    grad = np.tensordot(hi, disc.Gref_hi_data, 1) @ disc.geom.inv
    q = local.projection(disc, disc.V_data)[0](
        (-grad / c0.reshape(J, ne, -1, 1)).reshape(J, -1, 2))
    return EnsembleState(0, 0.0, np.ascontiguousarray(hi[..., :d]),
                         np.swapaxes(q, 1, 2).reshape(J, ne, 2 * d), None)


def state_samples(disc, state):
    """Field samples of a state at the data-rule points.

    Returns dict with u (J,ne,nq) and q (J,ne,nq,2).
    """
    V, d = disc.V_data, disc.ndof_u
    J, ne = state.u.shape[:2]
    q_vals = np.empty((J, ne, V.shape[1], 2))
    q_vals[..., 0] = state.q[:, :, :d] @ V
    q_vals[..., 1] = state.q[:, :, d:] @ V
    return {"u": state.u @ V, "q": q_vals}


class EnsembleSolver:
    """Time stepper for the ensemble HDG scheme on a fixed discretization.

    Parameters
    ----------
    disc : Discretization
    spec : ProblemSpec
    dt : float
        Time step; `run` rejects a final time T that is not a whole
        number of steps.
    tau : float, optional
        Stabilization constant; chosen via choose_tau when omitted.  It
        enters only the `local.BlockTables`, built for it once after the
        c and β stacks, which need no tau.
    strict_admissibility : bool
        Raise instead of warn when the sampled mean condition fails.
    check_residuals : bool
        Verify the global trace residual (<= 1e-10 relative) after each
        solve; debugging aid, off in production runs.
    """

    def __init__(self, disc, spec, dt, tau=None, strict_admissibility=False,
                 check_residuals=False):
        self.disc = disc
        self.spec = spec
        self.dt = float(dt)
        self.strict_admissibility = strict_admissibility
        self.check_residuals = check_residuals
        self.n_factorizations = 0
        self.n_steps = 0
        self.system = None
        self.cond = None
        self._built_from = None
        self._ops = None
        # c and β enter the blocks as the terms of their modes: separable
        # coefficients are projected here, once, before tau is known
        self._c = c_stack(disc, spec)
        # β at the element data points, then the face data points
        self._beta = FieldStack(
            [m.beta for m in spec.members], *disc.data_points,
            lambda b: local.beta_terms(disc, b), None, "beta")
        self.tau = float(tau) if tau is not None else \
            choose_tau(spec, disc.mesh)
        tables = self._block_tables = local.BlockTables(
            disc, self.tau, self.dt)
        # f and g enter the step as interior rows: separable data
        # are projected here, once, and a step adds T_i(t) times them
        Xb = disc.Xf_fdata[disc.boundary_face_sides()]
        self._f_rows = FieldStack(
            [m.f for m in spec.members], disc.x_data_flat, disc.y_data_flat,
            lambda f_vals: local.source_rows(disc, f_vals), None, "f")
        self._g_rows = FieldStack(
            [m.g for m in spec.members], Xb[..., 0].ravel(),
            Xb[..., 1].ravel(),
            lambda g: local.boundary_rows(disc, tables, g), None, "g")

    # -- coefficient modes -----------------------------------------------

    def _coefficients(self, t):
        """The c and β modes at level t, each as the pairs (θ̄, images)
        under "mean" and (θ̄ - θ_j, images) under "dev", and what the
        mean blocks are built from: θ̄, and the mean samples of resampled
        stacks."""
        mean, dev, built_from = [], [], []
        for stack in (self._c, self._beta):
            W, images = stack.modes(t)
            theta = W.mean(axis=0)
            mean.append((theta, images))
            dev.append((theta[None] - W, images))
            built_from.append(theta)
            if not stack.separable:
                built_from.append(images[0].mean(axis=0).ravel())
        return {"mean": mean, "dev": dev,
                "built_from": np.concatenate(built_from)}

    def _ensure_system(self, coeffs):
        built_from = coeffs["built_from"]
        if self.system is not None and \
                np.array_equal(built_from, self._built_from):
            return
        # the stale factor goes first, so the next one can reuse its memory
        self.system = None
        blocks = local.assemble_all_blocks(
            self.disc, self._block_tables, *coeffs["mean"])
        self.cond = local.condense_all(self._block_tables, *blocks)
        self.system = assemble_trace_matrix(
            self.disc, self.cond.schur).factorize()
        self.n_factorizations += 1
        self._built_from = built_from

    # -- the time step ---------------------------------------------------------

    def _data_rows(self, t):
        """The interior rows (J, ne, 3d) of the members' f and g at t."""
        rows = self._g_rows(t)
        rows[:, :, 2 * self.disc.ndof_u:] += self._f_rows(t)
        return rows

    def step(self, state):
        """Advance all J members from state (level n) to level n+1."""
        disc, spec = self.disc, self.spec
        J = spec.J
        ne = disc.mesh.n_elements
        d, nfd = disc.ndof_u, disc.ndof_face
        t1 = (state.n + 1) * self.dt

        coeffs = self._coefficients(t1)
        self._ensure_system(coeffs)

        # the parts whose images and deviation weights stay are kept
        self._ops = local.rhs_operators(disc, self._block_tables,
                                        *coeffs["dev"], self._ops)
        b_int, b_tr = local.assemble_all_rhs(
            disc, self._ops, self._data_rows(t1), state.u, state.q)

        # element-batched layout (ne, ., J): one small GEMM per element
        # covering all members at once
        b_int_T = np.ascontiguousarray(np.moveaxis(b_int, 0, 2))
        rhs_tr_T = np.matmul(self.cond.reduce_rhs, b_int_T)
        np.subtract(np.moveaxis(b_tr, 0, 2), rhs_tr_T, out=rhs_tr_T)
        # fortran order feeds SuperLU's column sweeps without a copy
        glob = np.asfortranarray(disc.trace_scatter @ rhs_tr_T.reshape(-1, J))

        uhat = self.system.solve_multi(glob)
        if self.check_residuals:
            res = self.system.residual(uhat, glob)
            if np.any(res > 1e-10):
                raise RuntimeError(
                    f"trace residual {res.max():.2e} exceeds 1e-10 "
                    f"at step {state.n + 1}")
        uhat_eT = (disc.trace_gather @ uhat).reshape(ne, 3 * nfd, J)
        # b_int_T is the step's own array, a view of the fresh b_int at J=1
        b_int_T -= np.matmul(self._block_tables.A_IT, uhat_eT)
        x_int = np.ascontiguousarray(np.moveaxis(
            np.matmul(self.cond.solve_int, b_int_T), 2, 0))

        self.n_steps += 1
        # x_int and uhat are freshly allocated: views are safe to hand out
        return EnsembleState(state.n + 1, t1, x_int[:, :, 2 * d:],
                             x_int[:, :, :2 * d], uhat.T)

    def run(self, T, observers=()):
        """March N = round(T / dt) steps, invoking observers after each.

        The run checks the ensemble-mean condition on t_0..t_N
        (`check_admissibility`), starts from `initialize` and returns the
        final state; every step reads c and β at its own level.
        Observers are callables (n, t_n, state) receiving the accepted
        state read-only.  T must be finite and not negative; T = 0
        returns the initial state.
        """
        if not 0 <= T < np.inf:
            raise ValueError(f"final time T = {T!r}: give a finite T >= 0")
        ratio = T / self.dt
        N = int(round(ratio))
        if abs(ratio - N) > 1e-6 * max(1, N):
            raise ValueError(
                f"T/dt = {ratio} is not integral; snap dt first")
        report = check_admissibility(
            self.disc, self._c, [i * self.dt for i in range(N + 1)])
        if not report.ok:
            msg = f"ensemble-mean admissibility violated: {report!r}"
            if self.strict_admissibility:
                raise RuntimeError(msg)
            warnings.warn(msg)
        state = initialize(self.spec, self.disc)
        for _ in range(N):
            state = self.step(state)
            for obs in observers:
                obs(state.n, state.t, state)
        return state
