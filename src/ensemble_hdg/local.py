"""Element-local blocks of the ensemble HDG bilinear form and condensation.

Local unknown ordering per element: interior DOFs [qx | qy | u] (each a
degree-k block) followed by the three face-trace blocks [f0 | f1 | f2].
The interior saddle system is eliminated per element (static condensation)
leaving a dense Schur complement on the trace DOFs.  Boundary faces carry
no unknowns: the scatter drops their rows and columns, and their trace
P_M g, the projection of the Dirichlet data, enters the RHS through the
boundary-face columns of A_IT (`boundary_rows`).

A_II is inverted through its d×d blocks by pivoted Gauss-Jordan
elimination and one refinement step: `BatchedCondensed` gives the
formulas and `condense_all` the reason for the step.

All kernels work on every element at once, with the element as the
leading array axis, and every coefficient enters as one GEMM of its
samples against a table that holds no coefficient.

Three terms carry a coefficient: the c mass (c q, r), the convection
(β·∇u, v) and the face rows <β·n u, v̂>.  The ensemble scheme splits each
into an implicit mean part (c̄, β̄) and a deviation part (c̄ - c_j,
β̄ - β_j) lagged onto the RHS.  Both are linear in the coefficient, so
the terms of each spatial mode are built once, as the images of the c
and β `problems.FieldStack`s (`c_terms`, `beta_terms`, against the
Discretization's basis-product tables, so with no tau or dt), and
weighted: by the mean weights in `assemble_all_blocks`, by the deviation
weights in `rhs_operators`.  Built from the same tables and data rules,
the two parts add up to each member's own operator.  `BlockTables` holds
the scheme blocks, which tau and dt enter and no coefficient touches;
`source_rows` and `boundary_rows` are the data rows of the RHS, linear
in the data samples as well.

`projector` is the one data-rule L2 projection: P_M g in `boundary_rows`,
Π_(k+1) u and Π_k q (`projection`) in `solver.initialize` and `errors`.
"""

import numpy as np


class CoefficientError(ValueError):
    """A member field is unusable: a sample or weight of c, β, f, g, u0,
    exact_u or exact_q is not finite, or a mean c is not positive."""


class BlockTables:
    """The scheme blocks: the parts of the local blocks that tau and dt
    enter, and no coefficient touches.

    Built once per (discretization, tau, dt) from the Discretization's
    reference tables; every array is read-only, as `assemble_all_blocks`,
    `condense_all` and `boundary_rows` read them by reference:

    C      (ne, 2d, d)       the coupling [C_x; C_y], (∂_x_c v_i, v_j): -C
                             above the u-block of A_II, Cᵀ left of it
    A_uu   (ne, d, d)        the u-u block's (1/dt) mass plus tau face terms
    time_mass (ne, d, d)     that (1/dt) mass alone, the lag of u
    A_IT   (ne, 3d, 3nfd)    all of it; its boundary-face columns carry the
                             Dirichlet data into `boundary_rows`
    A_TI   (ne, 3nfd, 3d)    the tau and normal-component parts
    A_TT   (ne, 3nfd, 3nfd)  all of it
    """

    def __init__(self, disc, tau, dt):
        ne = disc.mesh.n_elements
        if not (np.isfinite(tau) and tau > 0):
            raise ValueError(f"tau must be positive and finite, got {tau}")
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        d, nfd = disc.ndof_u, disc.ndof_face
        w, V = disc.w_data, disc.V_data
        detJ = disc.geom.det[:, None, None]
        lens, nrm = disc.geom.edge_lengths, disc.geom.normals

        A_IT = np.zeros((ne, 3 * d, 3 * nfd))
        A_TI = np.zeros((ne, 3 * nfd, 3 * d))
        A_TT = np.zeros((ne, 3 * nfd, 3 * nfd))
        # (∂_x_c v_i, v_j) = Σ_r B^-T_cr (∂_r v_i, v_j) on the reference
        dref = np.einsum("q,iqr,jq->rij", w, disc.Gref_data, V)
        C = (disc.geom.inv_t.reshape(ne * 2, 2) @ dref.reshape(2, d * d)
             ).reshape(ne, 2 * d, d) * detJ
        self.time_mass = detJ / dt * disc.mass
        A_uu = self.time_mass.copy()

        wf, Psi = disc.w_fdata, disc.Psi_fdata
        psipsi = (Psi * wf) @ Psi.T
        for lf, vals in enumerate(disc.V_fdata):
            cols = slice(lf * nfd, (lf + 1) * nfd)
            aligned = disc.face_aligned[:, lf].astype(int)
            psiphi = np.stack([(Psi * wf) @ v.T for v in vals])[aligned]
            phiphi = np.stack([(v * wf) @ v.T for v in vals])[aligned]
            tl = (tau * lens[:, lf])[:, None, None]
            A_uu += tl * phiphi
            A_TI[:, cols, 2 * d:] = -tl * psiphi
            A_TT[:, cols, cols] = tl * psipsi
            for comp in range(2):
                A_TI[:, cols, comp * d:(comp + 1) * d] = \
                    -(lens[:, lf] * nrm[:, lf, comp])[:, None, None] * psiphi
        # the coupling is the trace rows' negated transpose on the q-blocks
        # and their transpose on the u-block
        A_IT[:, :2 * d] = -np.swapaxes(A_TI[:, :, :2 * d], 1, 2)
        A_IT[:, 2 * d:] = np.swapaxes(A_TI[:, :, 2 * d:], 1, 2)
        self.C, self.A_uu, self.A_IT, self.A_TI, self.A_TT = \
            C, A_uu, A_IT, A_TI, A_TT
        for table in (C, A_uu, A_IT, A_TI, A_TT, self.time_mass):
            table.flags.writeable = False


def assemble_all_blocks(disc, tables, c, beta):
    """The coefficient blocks of all elements: (M, A, A_TI).

    tables are the `BlockTables` of the discretization; c and beta are
    the pairs (θ̄, images) of the c and velocity modes: the mean weights
    (M,) and the `c_terms` and `beta_terms` images against `tables`.
    M is the c̄ mass, each q-q block of A_II, A the u-u block and A_TI
    the trace rows; `condense_all` reads the other blocks from `tables`.
    """
    (wc, (c_samples, mass)), (wb, (_, block)) = c, beta
    d = disc.ndof_u
    cbar = mode_sum(wc, c_samples).reshape(disc.mesh.n_elements, -1)
    lag = mode_sum(wb, block)
    ok = ((cbar > 0) & (cbar < np.inf)).all(axis=1) & np.isfinite(
        lag).all(axis=(1, 2))
    if not ok.all():
        raise CoefficientError(f"element {int(np.argmin(ok))}: mean c not "
                               f"positive and finite, or mean beta not finite")
    A_TI = tables.A_TI.copy()
    A_TI[:, :, 2 * d:] -= lag[:, d:]
    return mode_sum(wc, mass), tables.A_uu + lag[:, :d], A_TI


class BatchedCondensed:
    """Schur complements and interior maps of all condensed elements.

    schur       : (ne, T, T) trace block  A_TT - A_TI A_II^-1 A_IT
    solve_int   : W = A_II^-1
    reduce_rhs  : A_TI W  (interior RHS -> trace RHS correction)

    The interior unknowns of an element are recovered from its traces t
    and interior RHS b as W (b - A_IT t), A_IT that of the `BlockTables`.

    With B = I₂⊗M, BiC = B⁻¹C and Si = (A + Cᵀ BiC)⁻¹, the inverse of
    A_II = [[B, -C], [Cᵀ, A]] is W = [[B⁻¹ - BiC Si BiCᵀ, BiC Si],
    [-Si BiCᵀ, Si]], its u-rows refined once as in `condense_all`.
    """

    def __init__(self, schur, solve_int, reduce_rhs):
        self.schur = schur
        self.solve_int = solve_int
        self.reduce_rhs = reduce_rhs


def invert_blocks(a, name):
    """The inverses of the blocks a (ne, n, n) by Gauss-Jordan elimination
    with partial pivoting, each step one operation over all elements.  A
    pivot not above rounding of its block's largest entry (zero, or NaN
    from a non-finite entry) raises RuntimeError naming the element."""
    ne, n = a.shape[:2]
    w = np.moveaxis(a, 0, -1).copy()
    tiny = np.finfo(float).eps * np.abs(w).max(axis=(0, 1))
    e, swaps = np.arange(ne), []
    for k in range(n):
        p = k + np.argmax(np.abs(w[k:, k]), axis=0)
        if (p != k).any():
            swaps.append((k, p))
            w[k], w[p, :, e] = w[p, :, e].T, w[k].T.copy()
        ok = np.abs(w[k, k]) > tiny
        if not ok.all():
            raise RuntimeError(
                f"singular {name} on element {int(np.argmin(ok))}")
        piv, col = w[k, k].copy(), w[:, k].copy()
        col[k], w[:, k] = 0.0, (np.arange(n) == k)[:, None]
        w[k] /= piv
        w -= col[:, None] * w[k]
    # that inverted P a for the row swaps P: a⁻¹ = (P a)⁻¹ P, the columns
    # swapped back in reverse order
    for k, p in reversed(swaps):
        w[:, k], w[:, p, e] = w[:, p, e], w[:, k].copy()
    return np.ascontiguousarray(np.moveaxis(w, -1, 0))


def condense_all(tables, M, A, A_TI):
    """Eliminate the interior unknowns of every element onto its traces.

    M, A and A_TI are the blocks of `assemble_all_blocks`, C, A_IT and
    A_TT those of tables; A_II is inverted as `BatchedCondensed` says.
    """
    ne, d = M.shape[:2]
    Mi = invert_blocks(M, "interior block")
    BiC = (Mi[:, None] @ tables.C.reshape(ne, 2, d, d)).reshape(ne, -1, d)
    Ct = np.swapaxes(tables.C, 1, 2)
    Si = invert_blocks(A + Ct @ BiC, "interior block")
    # W = diag(B⁻¹, 0) + U Si V with U = [BiC; I] and V = [-BiCᵀ, I]
    eye = np.broadcast_to(np.eye(d), (ne, d, d))
    W = (np.concatenate([BiC, eye], axis=1) @ Si) @ np.concatenate(
        [-np.swapaxes(BiC, 1, 2), eye], axis=2)
    W[:, :d, :d] += Mi
    W[:, d:2 * d, d:2 * d] += Mi
    # The u-rows of A_II W carry the rounding of CᵀB⁻¹C in S, about 100
    # times A at h = 1/64, dt = 1/128: refine W += W (I - A_II W) by them.
    # Without it example 1 there ends 30 times further from a long-double
    # run than with a LAPACK inverse of A_II, with it about as far.  The
    # q-rows stay unrefined: their componentwise residual is within 4 eps
    # of |A_II||W| + I for k <= 2, but about 100 eps at k = 3.
    R = -(Ct @ W[:, :2 * d] + A @ W[:, 2 * d:])
    R[:, :, 2 * d:] += np.eye(d)
    W += W[:, :, 2 * d:] @ R
    G = A_TI @ W
    return BatchedCondensed(tables.A_TT - G @ tables.A_IT, W, G)


def c_terms(disc, samples):
    """The `FieldStack` image of inverse-diffusion samples (m, ne*nq) at
    the data rule: the samples and their c mass (m, ne, d, d), one GEMM
    against the Discretization's `mass_q`."""
    ne, d = disc.mesh.n_elements, disc.ndof_u
    mass = (samples.reshape(-1, disc.mass_q.shape[0]) @
            disc.mass_q).reshape(len(samples), ne, d, d)
    return samples, mass * disc.geom.det[:, None, None]


def beta_terms(disc, samples):
    """The `FieldStack` image of velocity samples (m, ne*nq + 3ne*nqf, 2)
    at the data rule points, then the face data rule points: the samples
    and the block (m, ne, d + 3nfd, d) of the b·∇u terms above the
    <b·n u, v̂> rows of every local face, each one GEMM against the
    Discretization's `conv` and `face`."""
    m, ne = len(samples), disc.mesh.n_elements
    d, nfd, nq = disc.ndof_u, disc.ndof_face, len(disc.w_data)
    geom = disc.geom
    b = samples[:, :ne * nq].reshape(m, ne, nq, 2)
    b_face = samples[:, ne * nq:].reshape(m, ne, 3, -1, 2)
    block = np.empty((m, ne, d + 3 * nfd, d))
    # b·∇u = Σ_r [b B^-T]_r ∂_r u in reference coordinates
    bt = np.matmul(b, geom.inv_t)
    block[:, :, :d] = (bt.reshape(-1, 2 * nq) @ disc.conv).reshape(
        m, ne, d, d) * geom.det[:, None, None]
    nrm = geom.normals
    bn = b_face[..., 0] * nrm[:, :, None, 0] + \
        b_face[..., 1] * nrm[:, :, None, 1]
    for lf in range(3):
        misaligned, aligned = disc.face[lf]
        blk = np.where(disc.face_aligned[:, lf, None],
                       bn[..., lf, :] @ aligned,
                       bn[..., lf, :] @ misaligned)
        block[:, :, d + lf * nfd:d + (lf + 1) * nfd] = (
            blk * geom.edge_lengths[:, lf, None]).reshape(m, ne, nfd, d)
    return samples, block


def mode_sum(weights, modes):
    """Σ_m weights[..., m] modes[m]: a mode whose weights are all zero
    adds nothing and is skipped."""
    live = weights.reshape(-1, len(modes)).any(axis=0)
    flat = modes.reshape(len(modes), -1)
    if not live.all():
        weights, flat = weights[..., live], flat[live]
    # OpenBLAS takes about 5x longer for a product over one mode than two
    out = weights[..., :1] * flat[0] if len(flat) == 1 else weights @ flat
    return out.reshape(weights.shape[:-1] + modes.shape[1:])


class RHSOperators:
    """Per-(member, element) maps from previous coefficients to the RHS.

    mass_c (J, ne, d, d) is the (c̄ - c_j) mass applied to each component
    of q.  u_op (J, ne, d + 3nfd, d) maps the previous u to the u-rows
    ((1/dt) mass plus (β̄ - β_j)·∇) and to the trace rows
    (-<(β̄ - β_j)·n u, v̂> on interior faces, zero on boundary faces).
    c and beta are the (deviation weights, images) pairs they were built
    from.
    """

    def __init__(self, c, beta, mass_c, u_op):
        self.c, self.beta = c, beta
        self.mass_c, self.u_op = mass_c, u_op


def _stays(kept, part):
    """Whether kept (weights, images) has part's images and weights."""
    return kept[1] is part[1] and np.array_equal(kept[0], part[0])


def rhs_operators(disc, tables, c, beta, kept):
    """Build the RHS operators of J members from the pairs c and beta of
    the c and velocity modes, as `assemble_all_blocks` reads them but with
    the deviation weights θ̄ - θ_j (J, M).  tables are the `BlockTables`.
    kept is None or operators built earlier: mass_c is taken from them
    while the c images stay the same object and the c weights stay
    bitwise, u_op while those of the velocity modes stay.
    """
    d = disc.ndof_u
    mass_c = kept.mass_c if kept is not None and _stays(kept.c, c) else \
        mode_sum(c[0], c[1][1])
    if kept is not None and _stays(kept.beta, beta):
        return RHSOperators(c, beta, mass_c, kept.u_op)
    u_op = mode_sum(beta[0], beta[1][1])
    u_op[:, :, :d] += tables.time_mass
    # boundary faces carry no trace unknowns: their rows stay zero
    u_op[:, :, d:] = np.where((disc.trace_dof < 0)[:, :, None], 0.0,
                              -u_op[:, :, d:])
    return RHSOperators(c, beta, mass_c, u_op)


def projector(V, w):
    """The map (nq, dm) of samples at the points of a rule of weights w
    to the coefficients of their L2 projection onto the basis values V
    (dm, nq) in its inner product.  The bases are orthonormal, but their
    data-rule mass is the identity only to 5.2e-12 (P^4): it solves."""
    return np.linalg.solve((V * w) @ V.T, V * w).T


def projection(disc, V):
    """The data-rule L2 projection onto the element basis V (dm, nq) and
    its weighted residual, as the `project` and `residual` maps of a
    `problems.FieldStack` on the flat data-rule points: (m, ne, dm) of
    samples (m, ne*nq), (m, 2, ne, dm) of vector samples (m, ne*nq, 2)."""
    ne = disc.mesh.n_elements
    P = projector(V, disc.w_data)
    root_w = np.sqrt(disc.geom.det)[:, None] * np.sqrt(disc.w_data)

    def by_element(samples):
        s = np.moveaxis(samples, 2, 1) if samples.ndim == 3 else samples
        return s.reshape(s.shape[:-1] + (ne, -1))

    def project(samples):
        return by_element(samples) @ P

    def residual(samples):
        s = by_element(samples)
        return ((s - (s @ P) @ V) * root_w).reshape(len(samples), -1)

    return project, residual


def source_rows(disc, f_vals):
    """The u-rows (f, v) (m, ne, d) of source samples f_vals (m, ne*nq)
    at the data rule."""
    ne = disc.mesh.n_elements
    return (f_vals.reshape(len(f_vals), ne, -1) @ disc.VwT_data) * \
        disc.geom.det[:, None]


def boundary_rows(disc, tables, g_vals):
    """The interior rows (m, ne, 3d) of Dirichlet samples g_vals
    (m, nbf*nqf) at the canonically parametrized face data points of
    `boundary_face_sides`: -A_IT P_M g through the boundary-face columns
    of the `BlockTables` coupling, P_M g the L² projection of g onto the
    face basis (`projector`), that is -<P_M g, r·n> and <tau P_M g, v>,
    summed over both boundary faces of a corner element.  The face rule
    is exact for P_k × P_k, so these are the moments of g itself to
    rounding."""
    be, bl = disc.boundary_face_sides()
    m, nfd = len(g_vals), disc.ndof_face
    # the traces of the elements with a boundary face, zero on the others
    elems, at = np.unique(be, return_inverse=True)
    traces = np.zeros((m, len(elems), 3, nfd))
    traces[:, at, bl] = g_vals.reshape(m, len(be), -1) @ projector(
        disc.Psi_fdata, disc.w_fdata)
    rows = np.zeros((m, disc.mesh.n_elements, 3 * disc.ndof_u))
    rows[:, elems] = -(tables.A_IT[elems] @ traces.reshape(
        m, len(elems), 3 * nfd, 1))[..., 0]
    return rows


def assemble_all_rhs(disc, ops, data_rows, u_prev, q_prev):
    """Batched member RHS: returns (b_int (J,ne,3d), b_tr (J,ne,3nfd)).

    ops holds the RHSOperators of the members, and u_prev (J,ne,d) and
    q_prev (J,ne,2d) as [qx | qy] their previous state.  data_rows
    (J,ne,3d) holds the interior rows of the sources and the Dirichlet
    data, the sum of `source_rows` (in the u-rows) and `boundary_rows`; it
    is not written to.
    """
    J, ne = u_prev.shape[:2]
    d = disc.ndof_u

    lag = np.matmul(ops.u_op, u_prev[..., None])[..., 0]
    b_int = np.empty_like(data_rows)
    np.add(data_rows[:, :, 2 * d:], lag[:, :, :d], out=b_int[:, :, 2 * d:])
    b_tr = np.ascontiguousarray(lag[:, :, d:])
    # the (c̄ - c_j) mass is symmetric: apply it to the rows [qx; qy]
    np.add(data_rows[:, :, :2 * d], np.matmul(
        q_prev.reshape(J, ne, 2, d), ops.mass_c).reshape(J, ne, 2 * d),
        out=b_int[:, :, :2 * d])
    return b_int, b_tr
