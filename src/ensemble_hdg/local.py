"""Element-local blocks of the ensemble HDG bilinear form and condensation.

Local unknown ordering per element: interior DOFs [qx | qy | u] (each a
degree-k block) followed by the three face-trace blocks [f0 | f1 | f2].
The interior saddle system is eliminated per element (static condensation)
leaving a dense Schur complement on the trace DOFs; boundary faces carry no
unknowns and their rows/columns are dropped at scatter time (their trace
values are identically zero, Dirichlet data enters only through the RHS).

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
the terms of each spatial mode are built once, as the images of the
solver's c and β `problems.FieldStack`s (`c_terms`, `beta_terms`), and
weighted: by the mean weights in `assemble_all_blocks`, by the deviation
weights in `rhs_operators`.  Built from the same tables and data rules,
the two parts add up to each member's own operator.  `BlockTables` holds
what no coefficient touches; `source_rows` and `boundary_rows` are the
data rows of the RHS, linear in the data samples as well.
"""

import numpy as np

from .discretization import reference_face_points


class CoefficientError(ValueError):
    """A sampled coefficient violates a positivity requirement."""


class BlockTables:
    """The parts of the local blocks that no coefficient touches.

    Built once per (discretization, tau, dt); every array is read-only, as
    `assemble_all_blocks` and `condense_all` read them by reference.

    C      (ne, 2d, d)       the coupling [C_x; C_y], (∂_x_c v_i, v_j): -C
                             above the u-block of A_II, Cᵀ left of it
    A_uu   (ne, d, d)        the u-u block's (1/dt) mass plus tau face terms
    time_mass (ne, d, d)     that (1/dt) mass alone, the lag of u
    A_IT   (ne, 3d, 3nfd)    all of it
    A_TI   (ne, 3nfd, 3d)    the tau and normal-component parts
    A_TT   (ne, 3nfd, 3nfd)  all of it
    lag    the `RHSTables`, against which the mean coefficient terms and
           the deviations alike are built
    """

    def __init__(self, disc, tau, dt):
        ne = disc.mesh.n_elements
        if not (np.isfinite(tau) and tau > 0):
            raise ValueError(f"tau must be positive and finite, got {tau}")
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        basis = disc.elem_basis
        d, nfd = disc.ndof_u, disc.ndof_face
        w, V = disc.w_data, disc.V_data
        detJ = disc.geom.det[:, None, None]
        lens, nrm = disc.geom.edge_lengths, disc.geom.normals
        self.lag = RHSTables(disc)

        A_IT = np.zeros((ne, 3 * d, 3 * nfd))
        A_TI = np.zeros((ne, 3 * nfd, 3 * d))
        A_TT = np.zeros((ne, 3 * nfd, 3 * nfd))
        # (∂_x_c v_i, v_j) = Σ_r B^-T_cr (∂_r v_i, v_j) on the reference
        dref = np.einsum("q,iqr,jq->rij", w, basis.eval_grad(
            disc.rule_data.points), V)
        C = (disc.geom.inv_t.reshape(ne * 2, 2) @ dref.reshape(2, d * d)
             ).reshape(ne, 2 * d, d) * detJ
        self.time_mass = detJ / dt * self.lag.mass
        A_uu = self.time_mass.copy()

        wf, Psi = disc.w_fdata, disc.Psi_fdata
        psipsi = (Psi * wf) @ Psi.T
        refs = reference_face_points(disc.rule_face_data.points)
        for lf in range(3):
            cols = slice(lf * nfd, (lf + 1) * nfd)
            vals = [basis.eval(refs[lf, a]) for a in (0, 1)]
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
        for table in (C, A_uu, A_IT, A_TI, A_TT, self.time_mass,
                      self.lag.mass_q,
                      self.lag.conv, *(t for p in self.lag.face for t in p)):
            table.flags.writeable = False


def assemble_all_blocks(disc, tables, c, beta):
    """The coefficient blocks of all elements: (M, A, A_TI).

    tables are the `BlockTables` of the discretization; c and beta are
    the pairs (θ̄, images) of the c and velocity modes: the mean weights
    (M,) and the `c_terms` and `beta_terms` images against `tables.lag`.
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
    """Schur complements and lifting maps of all condensed elements.

    schur       : (ne, T, T) trace block  A_TT - A_TI A_II^-1 A_IT
    solve_int   : W = A_II^-1
    lift        : W A_IT  (trace -> interior)
    reduce_rhs  : A_TI W  (interior RHS -> trace RHS correction)

    The interior unknowns of an element are recovered from its traces t
    and interior RHS b as solve_int b - lift t.

    With B = I₂⊗M, BiC = B⁻¹C and Si = (A + Cᵀ BiC)⁻¹, the inverse of
    A_II = [[B, -C], [Cᵀ, A]] is W = [[B⁻¹ - BiC Si BiCᵀ, BiC Si],
    [-Si BiCᵀ, Si]], refined once as in `condense_all`.
    """

    def __init__(self, schur, solve_int, lift, reduce_rhs):
        self.schur = schur
        self.solve_int = solve_int
        self.lift = lift
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
    # The q-rows of A_II W are I to rounding by construction, the u-rows
    # carry the rounding of CᵀB⁻¹C in S, about 100 times A at h = 1/64,
    # dt = 1/128: refine W += W (I - A_II W) by them.  Without it example
    # 1 there ends 30 times further from a long-double run than with a
    # LAPACK inverse of A_II, with it about as far.
    R = -(Ct @ W[:, :2 * d] + A @ W[:, 2 * d:])
    R[:, :, 2 * d:] += np.eye(d)
    W += W[:, :, 2 * d:] @ R
    G = A_TI @ W
    return BatchedCondensed(tables.A_TT - G @ tables.A_IT, W,
                            W @ tables.A_IT, G)


def boundary_data_operator(disc, tau):
    """Linear map from boundary samples g (J, nbf, nqf) to b_int updates.

    tau is the scalar stabilization.  Returns (op (nbf, 3d, nqf), scatter
    (ne, nbf) sparse), the `bnd_op` of `boundary_rows`.
    """
    import scipy.sparse as sp

    ne = disc.mesh.n_elements
    be, bl = disc.boundary_face_sides()
    d = disc.ndof_u
    ln = disc.geom.edge_lengths[be, bl]
    nb = disc.geom.normals[be, bl]
    # a boundary face's canonical orientation is that of its one element:
    # the element basis at the three aligned reference faces, (3, d, nqf)
    s = disc.rule_face_data.points
    Vf = disc.elem_basis.eval(reference_face_points(s)[:, 1].reshape(-1, 2))
    Vf = np.moveaxis(Vf.reshape(d, 3, len(s)), 0, 1)
    # moment operator: g samples -> <g, phi_i> per boundary face
    mom = ln[:, None, None] * Vf[bl] * disc.w_fdata[None, None, :]
    op = np.empty((len(be), 3 * d, mom.shape[2]))
    op[:, :d] = -nb[:, 0, None, None] * mom      # -<g, r.n> x-rows
    op[:, d:2 * d] = -nb[:, 1, None, None] * mom
    op[:, 2 * d:] = tau * mom                     # <tau g, v>
    scatter = sp.csr_matrix(
        (np.ones(len(be)), (be, np.arange(len(be)))),
        shape=(ne, len(be)))
    return op, scatter


class RHSTables:
    """Coefficient-free basis-product tables of the step's lag operators.

    q, u and the test functions are all of degree k.  Each table folds the
    data-rule weights into products of reference basis values, so that an
    operator is one GEMM of coefficient samples against it:

    mass   (d, d)            (v_i, u_l) on the reference element
    mass_q (nq, d*d)         w_q v_i v_l, against (c̄ - c_j) samples
    conv   (2nq, d*d)        w_q v_i ∂_r u_l, against (β̄ - β_j) B^-T
    face   [lf][aligned]     (nqf, nfd*d) w_q ψ_m u_l on local face lf, ψ
                             the face basis, [misaligned, aligned]
    """

    def __init__(self, disc):
        pts, w, V = disc.rule_data.points, disc.w_data, disc.V_data
        nq, d = len(w), len(V)
        self.mass = (V * w) @ V.T
        self.mass_q = np.einsum("q,iq,lq->qil", w, V, V).reshape(nq, d * d)
        self.conv = np.einsum(
            "q,iq,lqr->qril", w, V, disc.elem_basis.eval_grad(pts)).reshape(
                2 * nq, d * d)
        s, wf, Psi = disc.rule_face_data.points, disc.w_fdata, disc.Psi_fdata
        refs = reference_face_points(s)
        self.face = [[np.einsum("q,mq,lq->qml", wf, Psi,
                                disc.elem_basis.eval(refs[lf, a])).reshape(
                                    len(s), len(Psi) * d)
                      for a in (0, 1)] for lf in range(3)]


def c_terms(disc, tables, samples):
    """The `FieldStack` image of inverse-diffusion samples (m, ne*nq) at
    the data rule: the samples and their c mass (m, ne, d, d), one GEMM
    against the `RHSTables` tables."""
    ne, d = disc.mesh.n_elements, disc.ndof_u
    # a non-finite sample makes inf·0; the solver rejects it before use
    with np.errstate(invalid="ignore"):
        mass = (samples.reshape(-1, tables.mass_q.shape[0]) @
                tables.mass_q).reshape(len(samples), ne, d, d)
    return samples, mass * disc.geom.det[:, None, None]


def beta_terms(disc, tables, samples):
    """The `FieldStack` image of velocity samples (m, ne*nq + 3ne*nqf, 2)
    at the data rule points, then the face data rule points: the samples
    and the block (m, ne, d + 3nfd, d) of the b·∇u terms above the
    <b·n u, v̂> rows of every local face, each one GEMM against the
    `RHSTables` tables."""
    m, ne = len(samples), disc.mesh.n_elements
    d, nfd, nq = disc.ndof_u, disc.ndof_face, len(disc.w_data)
    geom = disc.geom
    b = samples[:, :ne * nq].reshape(m, ne, nq, 2)
    b_face = samples[:, ne * nq:].reshape(m, ne, 3, -1, 2)
    block = np.empty((m, ne, d + 3 * nfd, d))
    # as in c_terms, non-finite samples are rejected after the products
    with np.errstate(invalid="ignore"):
        # b·∇u = Σ_r [b B^-T]_r ∂_r u in reference coordinates
        bt = np.matmul(b, geom.inv_t)
        block[:, :, :d] = (bt.reshape(-1, 2 * nq) @ tables.conv).reshape(
            m, ne, d, d) * geom.det[:, None, None]
        nrm = geom.normals
        bn = b_face[..., 0] * nrm[:, :, None, 0] + \
            b_face[..., 1] * nrm[:, :, None, 1]
        for lf in range(3):
            misaligned, aligned = tables.face[lf]
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
    mesh = disc.mesh
    d, nfd = disc.ndof_u, disc.ndof_face
    mass_c = kept.mass_c if kept is not None and _stays(kept.c, c) else \
        mode_sum(c[0], c[1][1])
    if kept is not None and _stays(kept.beta, beta):
        return RHSOperators(c, beta, mass_c, kept.u_op)
    u_op = mode_sum(beta[0], beta[1][1])
    u_op[:, :, :d] += tables.time_mass
    # boundary faces carry no trace unknowns: their rows stay zero
    bnd_rows = np.repeat(mesh.boundary[mesh.elem_faces], nfd, axis=1)
    u_op[:, :, d:] = np.where(bnd_rows[:, :, None], 0.0, -u_op[:, :, d:])
    return RHSOperators(c, beta, mass_c, u_op)


def source_rows(disc, f_vals):
    """The u-rows (f, v) (m, ne, d) of source samples f_vals (m, ne*nq)
    at the data rule."""
    ne = disc.mesh.n_elements
    return (f_vals.reshape(len(f_vals), ne, -1) @ disc.VwT_data) * \
        disc.geom.det[:, None]


def boundary_rows(disc, bnd_op, g_vals):
    """The interior rows (m, ne, 3d) of Dirichlet samples g_vals
    (m, nbf*nqf) on the boundary faces, -<g, r.n> and <tau g, v>, through
    `bnd_op`, the result of `boundary_data_operator`."""
    op, scatter = bnd_op
    m = len(g_vals)
    contrib = np.einsum("bif,jbf->bji", op, g_vals.reshape(m, len(op), -1))
    upd = scatter @ contrib.reshape(len(contrib), -1)
    return np.moveaxis(upd.reshape(-1, m, op.shape[1]), 1, 0)


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
