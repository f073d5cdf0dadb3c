"""Ensemble HDG time stepping with one shared trace factorization per step.

Each implicit backward-Euler step assembles a single trace matrix from the
ensemble-mean coefficients and J right-hand sides carrying the per-member
data and the lagged deviation terms; all members are advanced with the same
factorization.

c and β enter as sums Σ_m θ_jm(t) φ_m(x) of shared spatial modes, scalar
for c and vector for β (e_x ψ, e_y ψ, or a member's own samples), read
through two `problems.FieldStack`s whose images are the modes' terms
(`local.c_terms`, `local.beta_terms`).  The mean weights θ̄ build the
blocks; the factorization is kept while θ̄ stays bitwise, and for a
stack of plain callables, resampled at every level, while the members'
mean samples stay.  The deviation weights θ̄ - θ_j build the RHS
operators, whose c and velocity parts are each kept while their own
images and weights stay.  Autonomous coefficients are evaluated once.
Every state is of degree k, the initial one Π_k u0.  The sources f and
the Dirichlet data g enter as interior-row moments through two more
FieldStacks, so no step samples separable data.

States are immutable: step() returns a fresh state, the previous one is
never written to, so observers may safely keep references.
"""

import numpy as np

from . import local
from .basis import triangle_quadrature
from .mesh import BatchedGeometry, build_uniform_square_mesh
from .trace_system import assemble_trace_matrix


class Member:
    """One parameterized convection-diffusion problem of the ensemble.

    Fields are vectorized callables: c(x, y, t) positive scalar (inverse
    diffusion), beta(x, y, t) -> shape x.shape + (2,) divergence-free
    velocity, f(x, y, t) source, g(x, y, t) Dirichlet datum, u0(x, y)
    initial condition; exact_u / exact_q are optional references for error
    studies (exact_q returns shape x.shape + (2,)).
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
    time.  It has no default: a solver samples autonomous coefficients at
    t = 0 only.  `EnsembleSolver.run` rejects a wrong True on a separable
    c or beta whose weights change; plain callables cannot be checked, and
    a wrong True on them freezes the coefficient at t = 0.  Members are
    named from 1 in messages, as in the error tables.
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


class AdmissibilityReport:
    """Outcome of the ensemble-mean condition check.

    ok is True when every sampled point satisfies both
    |cbar^n - c_j^n| < min(cbar^n, cbar^(n-1)) and c_j^n >= c0 > 0.
    violations lists up to `max_records` offending (j, n, x, y) tuples,
    with j the 0-based member index (member j + 1 in messages).
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


def check_admissibility(spec, mesh, times):
    """Sample the ensemble-mean condition over elements and time levels.

    times are the discrete levels t_0..t_N: level n is checked against
    the mean of level n-1.  Autonomous problems may pass the single level
    t_0, which is then checked against itself.  The members' c are
    sampled through one joint evaluator.  Returns a report instead of
    raising; callers enforce strictness.
    """
    from .problems import FieldStack

    X = BatchedGeometry(mesh).points(triangle_quadrature(6).points)
    x, y = X[..., 0].ravel(), X[..., 1].ravel()
    c_at = FieldStack([m.c for m in spec.members], x, y,
                      lambda samples: samples, None)

    report = AdmissibilityReport()
    times = list(times)
    grid = [times[0]] + times if len(times) == 1 else times
    prev_cbar = None
    for n, t in enumerate(grid):
        cvals = c_at(t)
        cbar = cvals.mean(axis=0)
        # fmin skips NaN, and an all-NaN level leaves c_min as it was
        report.c_min = min(report.c_min, float(np.fmin.reduce(cvals.ravel())))
        if prev_cbar is None:
            prev_cbar = cbar
            continue
        bound = np.minimum(cbar, prev_cbar)
        # negated passing tests: a NaN sample fails them all
        bad = ~((np.abs(cbar[None] - cvals) < bound[None]) & (cvals > 0))
        report.record(n, bad, x, y)
        prev_cbar = cbar
    return report


def choose_tau(spec, mesh):
    """Stabilization constant tau = 1 + max_j sup ||beta_j(., 0)||_inf.

    The sup uses the max-component norm, sampled at t = 0 at element points
    of the run mesh itself and its uniform 2n and 4n refinements
    (quadrature-order escalation on meshes that cannot be refined).
    """
    if mesh.uniform_n is not None:
        meshes = [mesh] + [build_uniform_square_mesh(mesh.uniform_n * s)
                           for s in (2, 4)]
        orders = [6, 6, 6]
    else:
        meshes = [mesh, mesh, mesh]
        orders = [4, 8, 12]
    sup = 0.0
    for m, order in zip(meshes, orders):
        X = BatchedGeometry(m).points(triangle_quadrature(order).points)
        x, y = X[..., 0].ravel(), X[..., 1].ravel()
        for member in spec.members:
            b = np.asarray(member.beta(x, y, 0.0), dtype=float)
            sup = max(sup, float(np.abs(b).max()))
    return 1.0 + sup


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
    of Pi_(k+1) u0; q keeps its gradient, and with it the rate k+1.  A
    non-finite u0 sample raises ValueError, a non-finite c sample at t = 0
    `local.CoefficientError`, naming the member and element.
    """
    J = spec.J
    ne = disc.mesh.n_elements
    d = disc.ndof_u
    w, V, Vh = disc.w_data, disc.V_data, disc.V_hi_data
    x, y = disc.x_data_flat, disc.y_data_flat
    # the bases are orthonormal, but their data-rule mass matrices are the
    # identity only to rounding (5.2e-12 off for P^4): without these solves
    # projecting a k=2 projection again would move its q by 1.2e-13
    mass = (V * w) @ V.T
    mass_hi = (Vh * w) @ Vh.T

    u = np.empty((J, ne, d))
    q = np.empty((J, ne, 2 * d))
    for j, m in enumerate(spec.members):
        uvals = np.broadcast_to(np.asarray(m.u0(x, y), dtype=float),
                                x.shape).reshape(ne, -1)
        bad = ~np.isfinite(uvals).all(axis=1)
        if bad.any():
            raise ValueError(f"member {j + 1}: the u0 sample on element "
                             f"{int(np.argmax(bad))} is not finite")
        mom = np.einsum("q,eq,iq->ei", w, uvals, Vh)
        hi = np.linalg.solve(mass_hi[None], mom[..., None])[..., 0]
        u[j] = hi[:, :d]
        # grad_x u = B^-T grad_ref u, as rows: grad_ref u^T B^-1
        grad = np.matmul(np.einsum("ed,dqr->eqr", hi, disc.Gref_hi_data),
                         disc.geom.inv)
        c0 = np.broadcast_to(np.asarray(m.c(x, y, 0.0), dtype=float),
                             x.shape).reshape(ne, -1)
        bad = ~np.isfinite(c0).all(axis=1)
        if bad.any():
            raise local.CoefficientError(
                f"member {j + 1}: the c sample on element "
                f"{int(np.argmax(bad))} at t = 0 is not finite")
        qvals = -grad / c0[..., None]
        for comp in range(2):
            mom = np.einsum("q,eq,iq->ei", w, qvals[..., comp], V)
            q[j, :, comp * d:(comp + 1) * d] = np.linalg.solve(
                mass[None], mom[..., None])[..., 0]
    return EnsembleState(0, 0.0, u, q, None)


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
        Time step (the caller is responsible for T/dt being integral).
    tau : float, optional
        Stabilization constant; chosen via choose_tau when omitted.  The
        local blocks and the boundary-data operator are built for it once.
    strict_admissibility : bool
        Raise instead of warn when the sampled mean condition fails.
    check_residuals : bool
        Verify the global trace residual (<= 1e-10 relative) after each
        solve; debugging aid, off in production runs.
    """

    def __init__(self, disc, spec, dt, tau=None, strict_admissibility=False,
                 check_residuals=False):
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        if tau is not None and not (np.isfinite(tau) and tau > 0):
            raise ValueError(f"tau must be positive and finite, got {tau}")
        self.disc = disc
        self.spec = spec
        self.dt = float(dt)
        self.tau = float(tau) if tau is not None else \
            choose_tau(spec, disc.mesh)
        self.strict_admissibility = strict_admissibility
        self.check_residuals = check_residuals
        self.n_factorizations = 0
        self.n_steps = 0
        self.system = None
        self.cond = None
        self._built_from = None
        self._ops = None
        self._block_tables = local.BlockTables(disc, self.tau, self.dt)
        # joint evaluators of the member data at fixed points
        from .problems import FieldStack

        x, y = disc.x_data_flat, disc.y_data_flat
        lag = self._block_tables.lag
        # c and β enter the blocks as the terms of their modes: separable
        # coefficients are projected here, once
        self._c = FieldStack([m.c for m in spec.members], x, y,
                             lambda c: local.c_terms(disc, lag, c), None)
        # β at the element data points, then the face data points
        self._beta = FieldStack(
            [m.beta for m in spec.members],
            np.concatenate([x, disc.xf_fdata_flat]),
            np.concatenate([y, disc.yf_fdata_flat]),
            lambda b: local.beta_terms(disc, lag, b), None)
        # f and g enter the step as interior-row moments: separable data
        # are projected here, once, and a step adds T_i(t) times them
        bnd_op = local.boundary_data_operator(disc, self.tau)
        Xb = disc.Xf_fdata[disc.boundary_face_sides()]
        self._f_rows = FieldStack(
            [m.f for m in spec.members], x, y,
            lambda f_vals: local.source_rows(disc, f_vals), None)
        self._g_rows = FieldStack(
            [m.g for m in spec.members], Xb[..., 0].ravel(),
            Xb[..., 1].ravel(),
            lambda g_vals: local.boundary_rows(disc, bnd_op, g_vals), None)
        if spec.autonomous:
            self._coeff_cache = self._coefficients(0.0)
            self._ensure_system(self._coeff_cache)

    # -- coefficient modes -----------------------------------------------

    def _coefficients(self, t):
        """The c and β modes at level t, each as the pairs (θ̄, images)
        under "mean" and (θ̄ - θ_j, images) under "dev", and what the
        mean blocks are built from: θ̄, and the mean samples of resampled
        stacks."""
        levels = [s.modes(t) for s in (self._c, self._beta)]
        w = np.concatenate([W for W, _ in levels], axis=1)
        if not np.isfinite(w).all():
            j = np.argwhere(~np.isfinite(w))[0, 0]
            raise local.CoefficientError(
                f"member {j + 1}: a weight of c or beta is not finite at "
                f"t = {t}")
        ne, nq = self.disc.X_data.shape[:2]
        mean, dev, built_from = [], [], []
        for stack, names, (W, images) in zip(
                (self._c, self._beta), (("c",), ("beta_x", "beta_y")), levels):
            # separable stacks hold the same samples at every level: they
            # are checked before the first factorization only
            if not stack.separable or self._built_from is None:
                s = images[0][:, :ne * nq].reshape(-1, ne, nq, len(names))
                bad = np.argwhere(~np.isfinite(np.moveaxis(s, -1, 0)))
                if len(bad):
                    i, m, e = bad[0, :3]
                    who = f"spatial factor {m}" if stack.separable else \
                        f"member {m + 1} at t = {t}"
                    raise local.CoefficientError(
                        f"element {e}: the {names[i]} sample of {who} is "
                        f"not finite")
            theta = W.mean(axis=0)
            mean.append((theta, images))
            dev.append((theta[None] - W, images))
            built_from.append(theta)
            if not stack.separable:
                built_from.append(images[0].mean(axis=0).ravel())
        return {"mean": mean, "dev": dev,
                "built_from": np.concatenate(built_from)}

    def _check_autonomous(self, times):
        """Reject autonomous=True when a separable c, β_x or β_y of a
        member has other time factors at one of the levels `times` than
        at t = 0."""
        from .problems import SeparableField, vector_components

        for t in times:
            for j, m in enumerate(self.spec.members, 1):
                for name, f in zip(("c", "beta_x", "beta_y"),
                                   (m.c, *vector_components(m.beta))):
                    if isinstance(f, SeparableField) and any(
                            tf(t) != tf(0.0) for tf in f._t_fns):
                        raise ValueError(
                            f"member {j}: the {name} weights at t = {t} "
                            f"differ from those at t = 0, but the spec is "
                            f"autonomous")

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

        coeffs = self._coeff_cache if spec.autonomous \
            else self._coefficients(t1)
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
        x_int_T = np.matmul(self.cond.solve_int, b_int_T)
        x_int_T -= np.matmul(self.cond.lift, uhat_eT)
        x_int = np.ascontiguousarray(np.moveaxis(x_int_T, 2, 0))

        self.n_steps += 1
        # x_int and uhat are freshly allocated: views are safe to hand out
        return EnsembleState(state.n + 1, t1, x_int[:, :, 2 * d:],
                             x_int[:, :, :2 * d], uhat.T)

    def run(self, T, observers=()):
        """March N = round(T / dt) steps, invoking observers after each.

        The run checks the ensemble-mean condition on t_0..t_N (t_0 alone
        for autonomous problems, whose separable coefficients must then
        have the weights of t_0 at t_1 and t_N), starts from `initialize`
        and returns the final state.  Observers are callables
        (n, t_n, state) receiving the accepted state read-only.
        """
        ratio = T / self.dt
        N = int(round(ratio))
        if abs(ratio - N) > 1e-6 * max(1, N):
            raise ValueError(
                f"T/dt = {ratio} is not integral; snap dt first")
        if self.spec.autonomous and N:
            self._check_autonomous([self.dt, N * self.dt])
        report = check_admissibility(
            self.spec, self.disc.mesh,
            [0.0] if self.spec.autonomous else
            [i * self.dt for i in range(N + 1)])
        if not report.ok:
            msg = f"ensemble-mean admissibility violated: {report!r}"
            if self.strict_admissibility:
                raise RuntimeError(msg)
            import warnings

            warnings.warn(msg)
        state = initialize(self.spec, self.disc)
        for _ in range(N):
            state = self.step(state)
            for obs in observers:
                obs(state.n, state.t, state)
        return state
