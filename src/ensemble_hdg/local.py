"""Element-local blocks of the ensemble HDG bilinear form and condensation.

Local unknown ordering per element: interior DOFs [qx | qy | u] (each a
degree-k block) followed by the three face-trace blocks [f0 | f1 | f2].
The interior saddle system is eliminated per element (static condensation)
leaving a dense Schur complement on the trace DOFs; boundary faces carry no
unknowns and their rows/columns are dropped at scatter time (their trace
values are identically zero, Dirichlet data enters only through the RHS).

All kernels work on every element at once, with the element as the
leading array axis, and every coefficient enters as one GEMM of its
samples against a table that holds no coefficient.

The local blocks are linear in the mean samples c̄ and β̄.  `BlockTables`
holds, once per (discretization, tau, dt), what no coefficient touches:
the div blocks, the (1/dt) mass and tau face terms, the q-trace coupling,
and the trace-trace block; and reference tables for the c̄ mass, the
β̄·∇ convection and the -<β̄·n u, v̂> face terms.  `assemble_all_blocks`
adds the GEMMs of the current means to copies of the constant blocks, so
a time-dependent mean costs a few small GEMMs per step.

The step's right-hand side, its previous-state terms, the (1/dt) mass and
the lagged deviations (c̄ - c_j) q, (β̄ - β_j)·∇u and
-<(β̄ - β_j)·n u, v̂>, is a linear map of the previous [q | u] coefficients
per (member, element).  `rhs_operators` builds those maps from the
deviation samples by GEMMs against the coefficient-free tables of
`RHSTables`; `assemble_all_rhs` applies them and adds the sampled source
and boundary data.
"""

import numpy as np

from .discretization import reference_face_points


class CoefficientError(ValueError):
    """A sampled coefficient violates a positivity requirement."""


class BlockTables:
    """The parts of the local blocks that no coefficient touches.

    Built once per (discretization, tau, dt); every array is read-only, as
    `assemble_all_blocks` hands A_IT and A_TT out by reference.

    A_II   (ne, 3d, 3d)      the div blocks and the u-u block's (1/dt)
                             mass plus tau face terms
    A_IT   (ne, 3d, 3nfd)    all of it
    A_TI   (ne, 3nfd, 3d)    the tau and normal-component parts
    A_TT   (ne, 3nfd, 3nfd)  all of it
    mass   (nq, d*d)         w_q v_i v_j, against c̄ samples
    conv   (2nq, d*d)        w_q v_i ∂_r v_j, against β̄ B^-T samples
    face   [lf][aligned]     (nqf, nfd*d) w_q ψ_m v_j on local face lf

    The reference tables are evaluated at the element and face rules.
    """

    def __init__(self, disc, tau, dt):
        ne = disc.mesh.n_elements
        tau = np.broadcast_to(np.asarray(tau, dtype=float), (ne,))
        if np.any(tau <= 0):
            raise ValueError("tau must be positive on every element")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        basis = disc.elem_basis
        d, nfd = disc.ndof_u, disc.ndof_face
        w, V = disc.w_elem, disc.V_elem
        detJ = disc.geom.det[:, None, None]
        lens, nrm = disc.geom.edge_lengths, disc.geom.normals
        self.mass, self.conv, self.face = _product_tables(
            disc, basis, disc.rule_elem, disc.rule_face, disc.Psi_face)

        A_II = np.zeros((ne, 3 * d, 3 * d))
        A_IT = np.zeros((ne, 3 * d, 3 * nfd))
        A_TI = np.zeros((ne, 3 * nfd, 3 * d))
        A_TT = np.zeros((ne, 3 * nfd, 3 * nfd))
        # (∂_x_c v_i, v_j) = Σ_r B^-T_cr (∂_r v_i, v_j) on the reference
        dref = np.einsum("q,iqr,jq->rij", w, basis.eval_grad(
            disc.rule_elem.points), V)
        div = (disc.geom.inv_t.reshape(ne * 2, 2) @ dref.reshape(2, d * d)
               ).reshape(ne, 2, d, d) * detJ[:, None]
        for comp in range(2):
            A_II[:, comp * d:(comp + 1) * d, 2 * d:] = -div[:, comp]
            A_II[:, 2 * d:, comp * d:(comp + 1) * d] = \
                np.swapaxes(div[:, comp], 1, 2)
        A_II[:, 2 * d:, 2 * d:] = detJ / dt * ((V * w) @ V.T)

        wf, Psi = disc.w_face, disc.Psi_face
        psipsi = (Psi * wf) @ Psi.T
        refs = reference_face_points(disc.rule_face.points)
        for lf in range(3):
            cols = slice(lf * nfd, (lf + 1) * nfd)
            vals = [basis.eval(refs[lf, a]) for a in (0, 1)]
            aligned = disc.face_aligned[:, lf].astype(int)
            psiphi = np.stack([(Psi * wf) @ v.T for v in vals])[aligned]
            phiphi = np.stack([(v * wf) @ v.T for v in vals])[aligned]
            tl = (tau * lens[:, lf])[:, None, None]
            A_II[:, 2 * d:, 2 * d:] += tl * phiphi
            A_TI[:, cols, 2 * d:] = -tl * psiphi
            A_TT[:, cols, cols] = tl * psipsi
            for comp in range(2):
                A_TI[:, cols, comp * d:(comp + 1) * d] = \
                    -(lens[:, lf] * nrm[:, lf, comp])[:, None, None] * psiphi
        # the coupling is the trace rows' negated transpose on the q-blocks
        # and their transpose on the u-block
        A_IT[:, :2 * d] = -np.swapaxes(A_TI[:, :, :2 * d], 1, 2)
        A_IT[:, 2 * d:] = np.swapaxes(A_TI[:, :, 2 * d:], 1, 2)
        self.A_II, self.A_IT, self.A_TI, self.A_TT = A_II, A_IT, A_TI, A_TT
        for table in (A_II, A_IT, A_TI, A_TT, self.mass, self.conv,
                      *(t for pair in self.face for t in pair)):
            table.flags.writeable = False


def assemble_all_blocks(disc, tables, cbar, bbar, bbar_face):
    """Batched local matrices: (A_II, A_IT, A_TI, A_TT) over all elements.

    tables are the `BlockTables` of the discretization; cbar (ne, nq),
    bbar (ne, nq, 2) sample the means at the element rule, bbar_face
    (ne, 3, nqf, 2) at the face rule.  A_IT and A_TT hold no coefficient:
    they are the read-only arrays of `tables`, shared by every call.
    """
    if np.any(cbar <= 0):
        bad = int(np.argmax((cbar <= 0).any(axis=1)))
        raise CoefficientError(
            f"element {bad}: mean inverse-diffusion sample <= 0")
    ne, nq = cbar.shape
    d, nfd = disc.ndof_u, disc.ndof_face
    detJ = disc.geom.det[:, None, None]
    A_II = tables.A_II.copy()
    A_TI = tables.A_TI.copy()
    mass_c = (cbar @ tables.mass).reshape(ne, d, d) * detJ
    A_II[:, :d, :d] += mass_c
    A_II[:, d:2 * d, d:2 * d] += mass_c
    bt = _reference_velocity(disc, bbar)
    A_II[:, 2 * d:, 2 * d:] += (bt.reshape(ne, 2 * nq) @ tables.conv
                                ).reshape(ne, d, d) * detJ
    lens, nrm = disc.geom.edge_lengths, disc.geom.normals
    bn = bbar_face[..., 0] * nrm[:, :, None, 0] + \
        bbar_face[..., 1] * nrm[:, :, None, 1]
    for lf in range(3):
        rows = slice(lf * nfd, (lf + 1) * nfd)
        misaligned, aligned = tables.face[lf]
        blk = np.where(disc.face_aligned[:, lf, None],
                       bn[:, lf] @ aligned, bn[:, lf] @ misaligned)
        A_TI[:, rows, 2 * d:] -= (blk * lens[:, lf, None]).reshape(
            ne, nfd, d)
    return A_II, tables.A_IT, A_TI, tables.A_TT


class BatchedCondensed:
    """Schur complements and lifting maps of all condensed elements.

    schur       : (ne, T, T) trace block  A_TT - A_TI A_II^-1 A_IT
    solve_int   : A_II^-1
    lift        : A_II^-1 A_IT  (trace -> interior)
    reduce_rhs  : A_TI A_II^-1  (interior RHS -> trace RHS correction)

    The interior unknowns of an element are recovered from its traces t
    and interior RHS b as solve_int b - lift t.
    """

    def __init__(self, schur, solve_int, lift, reduce_rhs):
        self.schur = schur
        self.solve_int = solve_int
        self.lift = lift
        self.reduce_rhs = reduce_rhs


def condense_all(A_II, A_IT, A_TI, A_TT):
    """Eliminate the interior unknowns of every element onto its traces."""
    try:
        W = np.linalg.inv(A_II)
    except np.linalg.LinAlgError:
        ranks = np.linalg.matrix_rank(A_II)
        bad = int(np.argmax(ranks < A_II.shape[1]))
        raise RuntimeError(f"singular interior block on element {bad}") \
            from None
    G = A_TI @ W
    return BatchedCondensed(A_TT - G @ A_IT, W, W @ A_IT, G)


def boundary_data_operator(disc, tau):
    """Linear map from boundary samples g (J, nbf, nqf) to b_int updates.

    tau is a scalar or one value per element.  Returns (op (nbf, 3d, nqf),
    scatter (ne, nbf) sparse), the `bnd_op` of `assemble_all_rhs`.
    """
    import scipy.sparse as sp

    ne = disc.mesh.n_elements
    tau = np.broadcast_to(np.asarray(tau, dtype=float), (ne,))
    be, bl = disc.boundary_face_sides()
    d = disc.ndof_u
    ln = disc.geom.edge_lengths[be, bl]
    nb = disc.geom.normals[be, bl]
    # moment operator: g samples -> <g, phi_i> per boundary face
    mom = ln[:, None, None] * disc.Vf_fdata[be, bl] * \
        disc.w_fdata[None, None, :]
    op = np.empty((len(be), 3 * d, mom.shape[2]))
    op[:, :d] = -nb[:, 0, None, None] * mom      # -<g, r.n> x-rows
    op[:, d:2 * d] = -nb[:, 1, None, None] * mom
    op[:, 2 * d:] = tau[be, None, None] * mom    # <tau g, v>
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
        self.mass_q, self.conv, self.face = _product_tables(
            disc, basis, disc.rule_data, disc.rule_face_data,
            disc.Psi_fdata)


def _product_tables(disc, basis, rule, face_rule, Psi):
    """Reference basis products at an element rule and a face rule.

    Returns (mass, conv, face): w_q v_i v_l (nq, d*d) of the degree-k
    test functions, w_q v_i ∂_r u_l (2nq, d*din) and, per local face and
    [misaligned, aligned], w_q ψ_m u_l (nqf, nfd*din), where u are the
    functions of `basis` and ψ are the face-basis values Psi at face_rule.
    """
    pts, w = rule.points, rule.weights
    V = disc.elem_basis.eval(pts)
    nq, d, din = len(w), V.shape[0], basis.dim
    mass = np.einsum("q,iq,lq->qil", w, V, V).reshape(nq, d * d)
    conv = np.einsum("q,iq,lqr->qril", w, V, basis.eval_grad(pts)).reshape(
        2 * nq, d * din)
    s, wf = face_rule.points, face_rule.weights
    refs = reference_face_points(s)
    face = [[np.einsum("q,mq,lq->qml", wf, Psi,
                       basis.eval(refs[lf, a])).reshape(
                           len(s), Psi.shape[0] * din)
             for a in (0, 1)] for lf in range(3)]
    return mass, conv, face


def _reference_velocity(disc, b):
    """Velocity samples b (..., ne, nq, 2) times B^-T: b·∇u = Σ_r
    [b B^-T]_r ∂_r u in the reference coordinates of each element."""
    return np.matmul(b, disc.geom.inv_t)


class RHSOperators:
    """Per-(member, element) maps from previous coefficients to the RHS.

    mass_c (J, ne, d, d) is the (c̄ - c_j) mass applied to each component
    of q, None when there are no deviations (J = 1).  u_op (J, ne,
    d + 3nfd, din) maps the previous u to the u-rows ((1/dt) mass plus
    (β̄ - β_j)·∇) and to the trace rows (-<(β̄ - β_j)·n u, v̂> on interior
    faces, zero on boundary faces).
    """

    def __init__(self, mass_c, u_op):
        self.mass_c = mass_c
        self.u_op = u_op


def rhs_operators(disc, tables, dt, J, c_dev, b_dev, b_dev_face):
    """Build the RHS operators of J members from their deviation samples.

    c_dev (J,ne,nq) and b_dev (J,ne,nq,2) are mean-minus-member samples at
    the data rule, b_dev_face (J,ne,3,nqf,2) at the face data rule; all
    three are None when the deviations vanish.  The input degree of u is
    that of `tables`.
    """
    ne = disc.mesh.n_elements
    d, nfd = disc.ndof_u, disc.ndof_face
    din = tables.mass.shape[1]
    detJ = disc.geom.det[None, :, None, None]
    u_op = np.zeros((J, ne, d + 3 * nfd, din))
    u_op[:, :, :d] = detJ / dt * tables.mass
    if c_dev is None:
        return RHSOperators(None, u_op)
    nq = c_dev.shape[2]
    mass_c = (c_dev.reshape(J * ne, nq) @ tables.mass_q).reshape(
        J, ne, d, d) * detJ
    bt = _reference_velocity(disc, b_dev)
    u_op[:, :, :d] += (bt.reshape(J * ne, 2 * nq) @ tables.conv).reshape(
        J, ne, d, din) * detJ
    mesh = disc.mesh
    scale = np.where(mesh.boundary[mesh.elem_faces], 0.0,
                     -disc.geom.edge_lengths)
    nrm = disc.geom.normals
    bn = b_dev_face[..., 0] * nrm[:, :, None, 0] + \
        b_dev_face[..., 1] * nrm[:, :, None, 1]
    for lf in range(3):
        rows = slice(d + lf * nfd, d + (lf + 1) * nfd)
        misaligned, aligned = tables.face[lf]
        blk = np.where(disc.face_aligned[:, lf, None],
                       bn[:, :, lf] @ aligned, bn[:, :, lf] @ misaligned)
        u_op[:, :, rows] = (blk * scale[:, lf, None]).reshape(
            J, ne, nfd, din)
    return RHSOperators(mass_c, u_op)


def assemble_all_rhs(disc, bnd_op, ops, f_vals, g_face_vals, u_prev,
                     q_prev):
    """Batched member RHS: returns (b_int (J,ne,3d), b_tr (J,ne,3nfd)).

    ops holds the RHSOperators of the members for the degree of u_prev
    (J,ne,din); q_prev is (J,ne,2d) as [qx | qy].  f_vals (J,ne,nq) samples
    the sources at the data rule; g_face_vals (J,nbf,nqf) holds Dirichlet
    data on the boundary faces, which `bnd_op`, the result of
    `boundary_data_operator`, maps into the element rows.
    """
    J, ne = u_prev.shape[:2]
    d = disc.ndof_u
    detJ = disc.geom.det[None, :, None]

    lag = np.matmul(ops.u_op, u_prev[..., None])[..., 0]
    b_int = np.empty((J, ne, 3 * d))
    b_int[:, :, 2 * d:] = (f_vals @ disc.VwT_data) * detJ
    b_int[:, :, 2 * d:] += lag[:, :, :d]
    b_tr = np.ascontiguousarray(lag[:, :, d:])
    if ops.mass_c is None:
        b_int[:, :, :2 * d] = 0.0
    else:
        # the (c̄ - c_j) mass is symmetric: apply it to the rows [qx; qy]
        b_int[:, :, :2 * d] = np.matmul(
            q_prev.reshape(J, ne, 2, d), ops.mass_c).reshape(J, ne, 2 * d)

    # Dirichlet terms on boundary faces: -<g, r.n> and <tau g, v>
    op, scatter = bnd_op
    contrib = np.einsum("bif,jbf->bji", op, g_face_vals)
    upd = scatter @ contrib.reshape(len(contrib), -1)
    b_int += np.moveaxis(upd.reshape(ne, J, 3 * d), 1, 0)
    return b_int, b_tr
