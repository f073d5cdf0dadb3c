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
into a mean part (c̄, β̄), implicit, and a deviation part (c̄ - c_j,
β̄ - β_j), lagged onto the right-hand side.  The coefficients are sums
Σ_m θ_m φ_m of shared spatial modes, and each term is linear in them, so
one kernel, `_coefficient_terms`, builds the terms of every mode once
(`ModeTerms`): `assemble_all_blocks` weights them with the mean weights
θ̄, `rhs_operators` with the deviation weights θ̄ - θ_j, and a mode whose
weights are all zero adds nothing.  Built from the same tables and data
rules, the two parts add up to each member's own operator.

`BlockTables` holds, once per (discretization, tau, dt), what no
coefficient touches, and the degree-k `RHSTables` as `lag`; a
time-dependent mean costs a weighted sum of the mode terms per step.
`rhs_operators` maps the previous [q | u] of each (member, element) to
the RHS, the (1/dt) mass and the lagged deviations; `assemble_all_rhs`
applies them and adds the data rows.  Those rows are linear in the data:
`source_rows` takes the moments of source samples and `boundary_rows`
those of Dirichlet samples, so the solver applies both to the spatial
factors of separable data once and a step only combines them.
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
    A_IT   (ne, 3d, 3nfd)    all of it
    A_TI   (ne, 3nfd, 3d)    the tau and normal-component parts
    A_TT   (ne, 3nfd, 3nfd)  all of it
    lag    the degree-k `RHSTables`, against which the mean coefficient
           terms and the deviations alike are built
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
        self.lag = RHSTables(disc, disc.k)

        A_IT = np.zeros((ne, 3 * d, 3 * nfd))
        A_TI = np.zeros((ne, 3 * nfd, 3 * d))
        A_TT = np.zeros((ne, 3 * nfd, 3 * nfd))
        # (∂_x_c v_i, v_j) = Σ_r B^-T_cr (∂_r v_i, v_j) on the reference
        dref = np.einsum("q,iqr,jq->rij", w, basis.eval_grad(
            disc.rule_data.points), V)
        C = (disc.geom.inv_t.reshape(ne * 2, 2) @ dref.reshape(2, d * d)
             ).reshape(ne, 2 * d, d) * detJ
        A_uu = detJ / dt * self.lag.mass

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
        for table in (C, A_uu, A_IT, A_TI, A_TT, self.lag.mass_q,
                      self.lag.conv, *(t for p in self.lag.face for t in p)):
            table.flags.writeable = False


def assemble_all_blocks(disc, tables, terms, weights):
    """The coefficient blocks of all elements: (M, A, A_TI).

    tables are the `BlockTables` of the discretization and terms the
    `ModeTerms` of the modes against `tables.lag`; weights (Mc + Mb,) are
    the mean weights of the c-modes, then of the velocity modes.  M is
    the c̄ mass, each q-q block of A_II, A the u-u block and A_TI the
    trace rows; `condense_all` reads the other blocks from `tables`.
    """
    nc = len(terms.c)
    cbar = mode_sum(weights[:nc], terms.c)
    conv = mode_sum(weights[nc:], terms.conv)
    face = mode_sum(weights[nc:], terms.face)
    ok = ((cbar > 0) & (cbar < np.inf)).all(axis=1) & np.isfinite(
        conv).all(axis=(1, 2)) & np.isfinite(face).all(axis=(1, 2))
    if not ok.all():
        raise CoefficientError(f"element {int(np.argmin(ok))}: mean c not "
                               f"positive and finite, or mean beta not finite")
    A_TI = tables.A_TI.copy()
    A_TI[:, :, 2 * disc.ndof_u:] -= face
    return mode_sum(weights[:nc], terms.mass), tables.A_uu + conv, A_TI


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

    Built for one degree of the previous u (k for step states, k+1 for the
    initial projection); q and the test functions are always degree k.
    Each table folds the data-rule weights into products of reference basis
    values, so that an operator is one GEMM of coefficient samples against
    it:

    mass   (d, din)          (v_i, u_l) on the reference element
    mass_q (nq, d*d)         w_q v_i v_l, against (c̄ - c_j) samples
    conv   (2nq, d*din)      w_q v_i ∂_r u_l, against (β̄ - β_j) B^-T
    face   [lf][aligned]     (nqf, nfd*din) w_q ψ_m u_l on local face lf
    """

    def __init__(self, disc, degree):
        if degree not in (disc.k, disc.k + 1):
            raise ValueError(f"no lag tables for degree {degree}")
        basis = disc.elem_basis if degree == disc.k else disc.elem_basis_hi
        self.mass = (disc.V_data * disc.w_data) @ basis.eval(
            disc.rule_data.points).T
        self.mass_q, self.conv, self.face = _product_tables(disc, basis)


def _product_tables(disc, basis):
    """Reference basis products at the element and face data rules.

    Returns (mass, conv, face): w_q v_i v_l (nq, d*d) of the degree-k
    test functions, w_q v_i ∂_r u_l (2nq, d*din) and, per local face and
    [misaligned, aligned], w_q ψ_m u_l (nqf, nfd*din), where u are the
    functions of `basis` and ψ the face basis.
    """
    pts, w, V = disc.rule_data.points, disc.w_data, disc.V_data
    nq, d, din = len(w), V.shape[0], basis.dim
    mass = np.einsum("q,iq,lq->qil", w, V, V).reshape(nq, d * d)
    conv = np.einsum("q,iq,lqr->qril", w, V, basis.eval_grad(pts)).reshape(
        2 * nq, d * din)
    s, wf, Psi = disc.rule_face_data.points, disc.w_fdata, disc.Psi_fdata
    refs = reference_face_points(s)
    face = [[np.einsum("q,mq,lq->qml", wf, Psi,
                       basis.eval(refs[lf, a])).reshape(
                           len(s), Psi.shape[0] * din)
             for a in (0, 1)] for lf in range(3)]
    return mass, conv, face


def _coefficient_terms(disc, tables, c, b, b_face):
    """The coefficient terms of samples c (..., ne, nq), b (..., ne, nq, 2)
    at the data rule and b_face (..., ne, 3, nqf, 2) at the face data rule;
    c and b may have different leading axes.

    Returns the c mass (..., ne, d, d), the b·∇u block (..., ne, d, din)
    and the <b·n u, v̂> rows (..., ne, 3nfd, din) on every local face, each
    one GEMM against `tables` (an `RHSTables` of input degree din).
    """
    nq = c.shape[-1]
    d, nfd = disc.ndof_u, disc.ndof_face
    din = tables.mass.shape[1]
    geom = disc.geom
    detJ = geom.det[:, None, None]
    mass = (c.reshape(-1, nq) @ tables.mass_q).reshape(
        c.shape[:-1] + (d, d)) * detJ
    lead = b.shape[:-2]
    # b·∇u = Σ_r [b B^-T]_r ∂_r u in each element's reference coordinates
    bt = np.matmul(b, geom.inv_t)
    conv = (bt.reshape(-1, 2 * nq) @ tables.conv).reshape(
        lead + (d, din)) * detJ
    nrm = geom.normals
    bn = b_face[..., 0] * nrm[:, :, None, 0] + \
        b_face[..., 1] * nrm[:, :, None, 1]
    face = np.empty(lead + (3 * nfd, din))
    for lf in range(3):
        misaligned, aligned = tables.face[lf]
        blk = np.where(disc.face_aligned[:, lf, None],
                       bn[..., lf, :] @ aligned, bn[..., lf, :] @ misaligned)
        face[..., lf * nfd:(lf + 1) * nfd, :] = (
            blk * geom.edge_lengths[:, lf, None]).reshape(lead + (nfd, din))
    return mass, conv, face


class ModeTerms:
    """The `_coefficient_terms` mass (Mc, ne, d, d), conv (Mb, ne, d, din)
    and face (Mb, ne, 3nfd, din) of the c-modes c (Mc, ne, nq) and the
    velocity modes b (Mb, ne, nq, 2), b_face (Mb, ne, 3, nqf, 2), against
    `tables`, an `RHSTables` of input degree din."""

    def __init__(self, disc, tables, c, b, b_face):
        self.tables = tables
        self.c, self.b, self.b_face = c, b, b_face
        self.mass, self.conv, self.face = _coefficient_terms(
            disc, tables, c, b, b_face)


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
    of q.  u_op (J, ne, d + 3nfd, din) maps the previous u to the u-rows
    ((1/dt) mass plus (β̄ - β_j)·∇) and to the trace rows
    (-<(β̄ - β_j)·n u, v̂> on interior faces, zero on boundary faces).
    terms and dev are the `ModeTerms` and deviation weights they were
    built from.
    """

    def __init__(self, terms, dev, mass_c, u_op):
        self.terms, self.dev = terms, dev
        self.mass_c, self.u_op = mass_c, u_op


def rhs_operators(disc, terms, dt, dev, kept):
    """Build the RHS operators of J members from their deviation weights
    dev (J, Mc + Mb), θ̄ - θ_j over the c-modes, then the velocity modes,
    and the `ModeTerms` of those modes.  The input degree of u is that of
    `terms.tables`.  kept is None or operators built earlier: mass_c is
    taken from them while the c-mode weights and the terms stay, u_op
    while the velocity weights and the terms stay.
    """
    mesh = disc.mesh
    d, nfd = disc.ndof_u, disc.ndof_face
    nc = len(terms.c)

    def stays(cols):
        return kept is not None and kept.terms is terms and \
            np.array_equal(kept.dev[:, cols], dev[:, cols])

    mass_c = kept.mass_c if stays(slice(nc)) else \
        mode_sum(dev[:, :nc], terms.mass)
    if stays(slice(nc, None)):
        return RHSOperators(terms, dev, mass_c, kept.u_op)
    u_op = np.empty((len(dev), mesh.n_elements, d + 3 * nfd,
                     terms.conv.shape[-1]))
    np.add(mode_sum(dev[:, nc:], terms.conv),
           disc.geom.det[:, None, None] / dt * terms.tables.mass,
           out=u_op[:, :, :d])
    # boundary faces carry no trace unknowns: their rows stay zero
    bnd_rows = np.repeat(mesh.boundary[mesh.elem_faces], nfd, axis=1)
    u_op[:, :, d:] = np.where(bnd_rows[:, :, None], 0.0,
                              -mode_sum(dev[:, nc:], terms.face))
    return RHSOperators(terms, dev, mass_c, u_op)


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

    ops holds the RHSOperators of the members for the degree of u_prev
    (J,ne,din); q_prev is (J,ne,2d) as [qx | qy].  data_rows (J,ne,3d)
    holds the interior rows of the sources and the Dirichlet data, the sum
    of `source_rows` (in the u-rows) and `boundary_rows`; it is not
    written to.
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
