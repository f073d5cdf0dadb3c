"""Ensemble HDG time stepping with one shared trace factorization per step.

Each implicit backward-Euler step assembles a single trace matrix from the
ensemble-mean coefficients and J right-hand sides carrying the per-member
data and the lagged deviation terms; all members are advanced with the same
factorization.

Everything a step builds from the coefficients is cached with the
coefficient samples it was built from.  The trace factorization is keyed
on the fingerprint of the mean samples, at the element rule and on the
faces.  The solver holds the `local.BlockTables` of its (tau, dt): the
blocks are rebuilt from them by a few GEMMs of the mean samples whenever
the fingerprint changes.  The RHS operators (the per-member,
per-element linear maps from the previous [q | u] coefficients to the RHS,
see `local.rhs_operators`) are built from the deviation samples and live in
the same sample set.  Autonomous coefficients are sampled once, so both are
built once.  Time-dependent coefficients are re-sampled every step: the
operators are rebuilt every step, and the factorization whenever the mean
fingerprint changes.  Step 1 reads the degree-(k+1) initial projection; its
operators are built from their own tables for that step and not kept.

States are immutable: step() returns a fresh state, the previous one is
never written to, so observers may safely keep references.
"""

import numpy as np

from . import local
from .mesh import build_uniform_square_mesh
from .trace_system import assemble_trace_matrix, coefficient_fingerprint


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
    """A J-member ensemble of convection-diffusion problems."""

    def __init__(self, members, autonomous=True, default_T=1.0, name=""):
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
        """A J=1 spec containing only member j (for separate runs)."""
        return ProblemSpec([self.members[j]], autonomous=self.autonomous,
                           default_T=self.default_T,
                           name=f"{self.name}[member {j}]")


class AdmissibilityReport:
    """Outcome of the ensemble-mean condition check.

    ok is True when every sampled point satisfies both
    |cbar^n - c_j^n| < min(cbar^n, cbar^(n-1)) and c_j^n >= c0 > 0.
    violations lists up to `max_records` offending (j, n, x, y) tuples.
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

    times are the discrete levels t_1..t_N (t_0 is prepended for the
    cbar^(n-1) side); autonomous problems may pass a single level.
    Returns a report instead of raising; callers enforce strictness.
    """
    from .basis import triangle_quadrature
    from .mesh import batched_geometry

    rule = triangle_quadrature(6)
    geom = batched_geometry(mesh)
    X = np.einsum("eij,qj->eqi", geom.jacobian, rule.points)
    X += geom.corners[:, None, 0, :]
    x, y = X[..., 0].ravel(), X[..., 1].ravel()

    report = AdmissibilityReport()
    times = list(times)
    grid = [times[0]] + times if len(times) == 1 else times
    prev_cbar = None
    for n, t in enumerate(grid):
        cvals = np.stack([
            np.broadcast_to(np.asarray(m.c(x, y, t), dtype=float), x.shape)
            for m in spec.members
        ])
        cbar = cvals.mean(axis=0)
        report.c_min = min(report.c_min, float(cvals.min()))
        if prev_cbar is None:
            prev_cbar = cbar
            continue
        bound = np.minimum(cbar, prev_cbar)
        bad = (np.abs(cbar[None] - cvals) >= bound[None]) | (cvals <= 0)
        report.record(n, bad, x, y)
        prev_cbar = cbar
    return report


def choose_tau(spec, mesh, times=(0.0,)):
    """Stabilization constant tau = 1 + max_j sup ||beta_j||_inf.

    The sup uses the max-component norm, sampled at element quadrature
    points of the run mesh and two uniform refinements (quadrature-order
    escalation on meshes that cannot be refined uniformly).
    """
    from .basis import triangle_quadrature
    from .mesh import batched_geometry

    if mesh.uniform_n is not None:
        meshes = [build_uniform_square_mesh(mesh.uniform_n * s)
                  for s in (1, 2, 4)]
        orders = [6, 6, 6]
    else:
        meshes = [mesh, mesh, mesh]
        orders = [4, 8, 12]
    sup = 0.0
    for m, order in zip(meshes, orders):
        rule = triangle_quadrature(order)
        geom = batched_geometry(m)
        X = np.einsum("eij,qj->eqi", geom.jacobian, rule.points)
        X += geom.corners[:, None, 0, :]
        x, y = X[..., 0].ravel(), X[..., 1].ravel()
        for t in times:
            for member in spec.members:
                b = np.asarray(member.beta(x, y, t), dtype=float)
                sup = max(sup, float(np.abs(b).max()))
    return 1.0 + sup


class EnsembleState:
    """Discrete ensemble state at one time level.

    u has shape (J, ne, dim) in degree `u_degree` (k+1 at n=0 from the
    initial projection, k afterwards); q is (J, ne, 2*dim_k) as [qx | qy];
    uhat is (J, n_trace_dofs) and None at n=0 (the scheme never reads it).
    """

    def __init__(self, n, t, u, q, uhat, u_degree):
        self.n = n
        self.t = t
        self.u = u
        self.q = q
        self.uhat = uhat
        self.u_degree = u_degree


def initialize(spec, disc):
    """Initial ensemble state: u = Pi_(k+1) u0, q = Pi_k(-grad u / c)."""
    J = spec.J
    ne = disc.mesh.n_elements
    d, dh = disc.ndof_u, disc.ndof_u_hi
    w, V, Vh = disc.w_data, disc.V_data, disc.V_hi_data
    X = disc.X_data
    x, y = X[..., 0].ravel(), X[..., 1].ravel()
    mass = (V * w) @ V.T
    mass_hi = (Vh * w) @ Vh.T

    u = np.empty((J, ne, dh))
    q = np.empty((J, ne, 2 * d))
    for j, m in enumerate(spec.members):
        uvals = np.asarray(m.u0(x, y), dtype=float).reshape(ne, -1)
        mom = np.einsum("q,eq,iq->ei", w, uvals, Vh)
        u[j] = np.linalg.solve(mass_hi[None], mom[..., None])[..., 0]
        grad = np.einsum("ed,edqi->eqi", u[j], disc.G_hi_data)
        c0 = np.broadcast_to(np.asarray(m.c(x, y, 0.0), dtype=float),
                             x.shape).reshape(ne, -1)
        qvals = -grad / c0[..., None]
        for comp in range(2):
            mom = np.einsum("q,eq,iq->ei", w, qvals[..., comp], V)
            q[j, :, comp * d:(comp + 1) * d] = np.linalg.solve(
                mass[None], mom[..., None])[..., 0]
    return EnsembleState(0, 0.0, u, q, None, disc.k + 1)


def state_samples(disc, state):
    """Field samples of a state at the data-rule points.

    Returns dict with u (J,ne,nq) and q (J,ne,nq,2), for both the
    degree-(k+1) initial state and degree-k step states.
    """
    V = disc.V_hi_data if state.u_degree == disc.k + 1 else disc.V_data
    d = disc.ndof_u
    J, ne = state.u.shape[:2]
    q_vals = np.empty((J, ne, V.shape[1], 2))
    q_vals[..., 0] = state.q[:, :, :d] @ disc.V_data
    q_vals[..., 1] = state.q[:, :, d:] @ disc.V_data
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
        if dt <= 0:
            raise ValueError("dt must be positive")
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
        self._fp = None
        self._tables = local.RHSTables(disc, disc.k)
        self._block_tables = local.BlockTables(disc, self.tau, self.dt)

        n = disc.n_trace_dofs
        flat = disc.trace_dof.ravel()
        self._scatter_ids = np.where(flat < 0, n, flat)
        # the trace solution with a zero row for the boundary-face DOFs
        self._padded = np.zeros((n + 1, spec.J))
        # one sparse scatter matrix replaces per-member bincounts
        import scipy.sparse as sp

        keep = flat >= 0
        self._scatter_mat = sp.csr_matrix(
            (np.ones(keep.sum()), (flat[keep], np.nonzero(keep)[0])),
            shape=(n, flat.size))
        self._bnd_op = local.boundary_data_operator(disc, self.tau)
        Xb = disc.Xf_fdata[disc.boundary_face_sides()]
        self._bshape = Xb.shape[:2]
        # joint evaluators of the member data at fixed points
        from .problems import stack_separable_fields

        self._f_vals = stack_separable_fields(
            [m.f for m in spec.members], disc.x_data_flat, disc.y_data_flat)
        self._g_vals = stack_separable_fields(
            [m.g for m in spec.members], Xb[..., 0].ravel(),
            Xb[..., 1].ravel())
        if spec.autonomous:
            self._coeff_cache = self._coefficient_samples(0.0)
            self._ensure_system(self._coeff_cache)

    # -- coefficient sampling ------------------------------------------------

    def _coefficient_samples(self, t):
        disc, spec = self.disc, self.spec
        c_elem = np.stack([disc.sample_scalar(m.c, t, "elem")
                           for m in spec.members])
        b_elem = np.stack([disc.sample_vector(m.beta, t, "elem")
                           for m in spec.members])
        b_face = np.stack([disc.sample_vector_faces(m.beta, t, "face")
                           for m in spec.members])
        cbar, bbar, bbar_f = (c_elem.mean(0), b_elem.mean(0), b_face.mean(0))
        out = {
            "cbar_elem": cbar, "bbar_elem": bbar, "bbar_face": bbar_f,
            "fingerprint": coefficient_fingerprint(
                disc.mesh.content_token(), disc.k, self.dt,
                np.atleast_1d(self.tau), cbar, bbar, bbar_f),
        }
        if spec.J > 1:
            c_data = np.stack([disc.sample_scalar(m.c, t, "data")
                               for m in spec.members])
            b_data = np.stack([disc.sample_vector(m.beta, t, "data")
                               for m in spec.members])
            bf_data = np.stack([disc.sample_vector_faces(m.beta, t, "fdata")
                                for m in spec.members])
            out["c_dev"] = c_data.mean(0)[None] - c_data
            out["b_dev"] = b_data.mean(0)[None] - b_data
            out["b_dev_face"] = bf_data.mean(0)[None] - bf_data
        else:
            out["c_dev"] = out["b_dev"] = out["b_dev_face"] = None
        return out

    def _rhs_operators(self, coeffs, degree):
        """RHS operators for a previous u of the given degree.

        The degree-k ones are built on first use and kept in `coeffs`, the
        sample set they are built from; the degree-(k+1) ones are built
        with their own tables and dropped after use.
        """
        if degree == self.disc.k and "rhs_ops" in coeffs:
            return coeffs["rhs_ops"]
        tables = self._tables if degree == self.disc.k \
            else local.RHSTables(self.disc, degree)
        ops = local.rhs_operators(
            self.disc, tables, self.dt, self.spec.J, coeffs["c_dev"],
            coeffs["b_dev"], coeffs["b_dev_face"])
        if degree == self.disc.k:
            coeffs["rhs_ops"] = ops
        return ops

    def _ensure_system(self, coeffs):
        fp = coeffs["fingerprint"]
        if self.system is not None and fp == self._fp:
            return
        blocks = local.assemble_all_blocks(
            self.disc, self._block_tables, coeffs["cbar_elem"],
            coeffs["bbar_elem"], coeffs["bbar_face"])
        self.cond = local.condense_all(*blocks)
        self.system = assemble_trace_matrix(
            self.disc, self.cond.schur, fp).factorize()
        self.n_factorizations += 1
        self._fp = fp

    # -- the time step ---------------------------------------------------------

    def step(self, state):
        """Advance all J members from state (level n) to level n+1."""
        disc, spec = self.disc, self.spec
        J = spec.J
        ne = disc.mesh.n_elements
        d, nfd = disc.ndof_u, disc.ndof_face
        t1 = (state.n + 1) * self.dt

        coeffs = self._coeff_cache if spec.autonomous \
            else self._coefficient_samples(t1)
        self._ensure_system(coeffs)

        f_vals = self._f_vals(t1).reshape(J, ne, -1)
        g_vals = self._g_vals(t1).reshape((J,) + self._bshape)
        ops = self._rhs_operators(coeffs, state.u_degree)
        b_int, b_tr = local.assemble_all_rhs(
            disc, self._bnd_op, ops, f_vals, g_vals, state.u, state.q)

        # element-batched layout (ne, ., J): one small GEMM per element
        # covering all members at once
        b_int_T = np.ascontiguousarray(np.moveaxis(b_int, 0, 2))
        rhs_tr_T = np.matmul(self.cond.reduce_rhs, b_int_T)
        np.subtract(np.moveaxis(b_tr, 0, 2), rhs_tr_T, out=rhs_tr_T)
        n = disc.n_trace_dofs
        # fortran order feeds SuperLU's column sweeps without a copy
        glob = np.asfortranarray(self._scatter_mat @ rhs_tr_T.reshape(-1, J))

        uhat = self.system.solve_multi(glob, fingerprint=self._fp)
        if self.check_residuals:
            res = self.system.residual(uhat, glob)
            if np.any(res > 1e-10):
                raise RuntimeError(
                    f"trace residual {res.max():.2e} exceeds 1e-10 "
                    f"at step {state.n + 1}")
        self._padded[:n] = uhat
        uhat_eT = self._padded[self._scatter_ids].reshape(ne, 3 * nfd, J)
        x_int_T = np.matmul(self.cond.solve_int, b_int_T)
        x_int_T -= np.matmul(self.cond.lift, uhat_eT)
        x_int = np.ascontiguousarray(np.moveaxis(x_int_T, 2, 0))

        self.n_steps += 1
        # x_int and uhat are freshly allocated: views are safe to hand out
        return EnsembleState(state.n + 1, t1, x_int[:, :, 2 * d:],
                             x_int[:, :, :2 * d], uhat.T, disc.k)

    def run(self, T, observers=(), state=None):
        """March N = round(T / dt) steps, invoking observers after each.

        Observers are callables (n, t_n, state) receiving the accepted
        state read-only.
        """
        ratio = T / self.dt
        N = int(round(ratio))
        if abs(ratio - N) > 1e-6 * max(1, N):
            raise ValueError(
                f"T/dt = {ratio} is not integral; snap dt first")
        if state is None:
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
