"""Element-local blocks of the ensemble HDG bilinear form and condensation.

Local unknown ordering per element: interior DOFs [qx | qy | u] (each a
degree-k block) followed by the three face-trace blocks [f0 | f1 | f2].
The interior saddle system is eliminated per element (static condensation)
leaving a dense Schur complement on the trace DOFs; boundary faces carry no
unknowns and their rows/columns are dropped at scatter time (their trace
values are identically zero, Dirichlet data enters only through the RHS).

All kernels work on every element at once, with the element as the
leading array axis.  The step's right-hand side, its previous-state terms,
the (1/dt) mass and the lagged deviations (c̄ - c_j) q, (β̄ - β_j)·∇u and
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


def assemble_all_blocks(disc, cbar, bbar, bbar_face, tau, dt):
    """Batched local matrices: (A_II, A_IT, A_TI, A_TT) over all elements.

    cbar (ne, nq), bbar (ne, nq, 2) at the element rule; bbar_face
    (ne, 3, nqf, 2) at the face rule; tau (ne,) positive per element.
    """
    if np.any(np.asarray(tau) <= 0):
        raise ValueError("tau must be positive on every element")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if np.any(cbar <= 0):
        bad = int(np.argmax((cbar <= 0).any(axis=1)))
        raise CoefficientError(
            f"element {bad}: mean inverse-diffusion sample <= 0")
    mesh = disc.mesh
    ne = mesh.n_elements
    d = disc.ndof_u
    nfd = disc.ndof_face
    nint, ntr = 3 * d, 3 * nfd
    w, V, G = disc.w_elem, disc.V_elem, disc.G_elem
    detJ = disc.geom.det
    lens = disc.geom.edge_lengths
    nrm = disc.geom.normals
    Vf, Psi, wf = disc.Vf_face, disc.Psi_face, disc.w_face
    tau = np.broadcast_to(np.asarray(tau, dtype=float), (ne,))

    A_II = np.zeros((ne, nint, nint))
    A_IT = np.zeros((ne, nint, ntr))
    A_TI = np.zeros((ne, ntr, nint))
    A_TT = np.zeros((ne, ntr, ntr))

    mass_c = np.einsum("e,q,eq,iq,jq->eij", detJ, w, cbar, V, V)
    A_II[:, :d, :d] = mass_c
    A_II[:, d:2 * d, d:2 * d] = mass_c
    for comp in range(2):
        div = np.einsum("e,q,eiqc,jq->eij", detJ, w, G[:, :, :, comp:comp + 1],
                        V)
        A_II[:, comp * d:(comp + 1) * d, 2 * d:] = -div
        A_II[:, 2 * d:, comp * d:(comp + 1) * d] = np.swapaxes(div, 1, 2)
    A_II[:, 2 * d:, 2 * d:] = np.einsum(
        "e,q,eqc,ejqc,iq->eij", detJ, w, bbar, G, V)
    A_II[:, 2 * d:, 2 * d:] += np.einsum(
        "e,q,iq,jq->eij", detJ / dt, w, V, V)

    for lf in range(3):
        cols = slice(lf * nfd, (lf + 1) * nfd)
        ln = lens[:, lf]
        phiphi = np.einsum("e,q,eiq,ejq->eij", ln, wf, Vf[:, lf], Vf[:, lf])
        psiphi = np.einsum("e,q,mq,ejq->emj", ln, wf, Psi, Vf[:, lf])
        psipsi = np.einsum("e,q,mq,lq->eml", ln, wf, Psi, Psi)
        A_II[:, 2 * d:, 2 * d:] += tau[:, None, None] * phiphi
        A_IT[:, 2 * d:, cols] = -tau[:, None, None] * \
            np.swapaxes(psiphi, 1, 2)
        A_TI[:, cols, 2 * d:] = -tau[:, None, None] * psiphi
        A_TT[:, cols, cols] = tau[:, None, None] * psipsi
        bn = np.einsum("eqc,ec->eq", bbar_face[:, lf], nrm[:, lf])
        A_TI[:, cols, 2 * d:] += -np.einsum(
            "e,q,eq,mq,ejq->emj", ln, wf, bn, Psi, Vf[:, lf])
        for comp in range(2):
            ccols = slice(comp * d, (comp + 1) * d)
            scaled = ln * nrm[:, lf, comp]
            A_IT[:, ccols, cols] = np.swapaxes(np.einsum(
                "e,q,mq,ejq->emj", scaled, wf, Psi, Vf[:, lf]), 1, 2)
            A_TI[:, cols, ccols] = -np.einsum(
                "e,q,mq,ejq->emj", scaled, wf, Psi, Vf[:, lf])
    return A_II, A_IT, A_TI, A_TT


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


def _boundary_data_operator(disc, tau):
    """Linear map from boundary samples g (J, nbf, nqf) to b_int updates.

    Returns (op (nbf, 3d, nqf), scatter (ne, nbf) sparse); cached on the
    discretization per tau (a scalar or one value per element).
    """
    import scipy.sparse as sp

    tau = np.asarray(tau, dtype=float)
    cache = disc.__dict__.setdefault("_bnd_op_cache", {})
    key = tau.tobytes()
    hit = cache.get(key)
    if hit is not None:
        return hit
    tau = np.broadcast_to(tau, (disc.mesh.n_elements,))
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
        shape=(disc.mesh.n_elements, len(be)))
    if len(cache) > 4:
        cache.clear()
    cache[key] = (op, scatter)
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
        pts, w = disc.rule_data.points, disc.rule_data.weights
        V = disc.V_data
        Vin = basis.eval(pts)
        Gin = basis.eval_grad(pts)
        d, din, nq = V.shape[0], Vin.shape[0], len(w)
        self.mass = (V * w) @ Vin.T
        self.mass_q = np.einsum("q,iq,lq->qil", w, V, V).reshape(nq, d * d)
        self.conv = np.einsum("q,iq,lqr->qril", w, V, Gin).reshape(
            2 * nq, d * din)
        s, wf = disc.rule_face_data.points, disc.rule_face_data.weights
        Psi = disc.Psi_fdata
        refs = reference_face_points(s)
        self.face = [[np.einsum("q,mq,lq->qml", wf, Psi,
                                basis.eval(refs[lf, a])).reshape(
                                    len(s), Psi.shape[0] * din)
                      for a in (0, 1)] for lf in range(3)]


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
    # (β̄ - β_j)·∇u_l = Σ_r [(β̄ - β_j) B^-T]_r ∂_r u_l on the reference
    inv_t = disc.geom.inv_t
    bt = b_dev[..., :1] * inv_t[:, None, 0] + \
        b_dev[..., 1:] * inv_t[:, None, 1]
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


def assemble_all_rhs(disc, tau, ops, f_vals, g_face_vals, u_prev, q_prev):
    """Batched member RHS: returns (b_int (J,ne,3d), b_tr (J,ne,3nfd)).

    ops holds the RHSOperators of the members for the degree of u_prev
    (J,ne,din); q_prev is (J,ne,2d) as [qx | qy].  f_vals (J,ne,nq) samples
    the sources at the data rule; g_face_vals (J,nbf,nqf) holds Dirichlet
    data on boundary faces (None when there are none).
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
    if g_face_vals is not None and g_face_vals.size:
        op, scatter = _boundary_data_operator(disc, tau)
        contrib = np.einsum("bif,jbf->bji", op, g_face_vals)
        upd = scatter @ contrib.reshape(len(contrib), -1)
        b_int += np.moveaxis(upd.reshape(ne, J, 3 * d), 1, 0)
    return b_int, b_tr
