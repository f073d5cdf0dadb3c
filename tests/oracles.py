"""Independent reference implementations used to cross-check the solver.

These deliberately avoid the library's assembly paths: local matrices are
built by brute-force quadrature in a raw monomial basis and mapped over by
explicit change-of-basis, the step RHS is a per-element quadrature sum of
point samples of the previous state, the global stepper assembles the full
uncondensed saddle system densely and solves it with numpy, the u*
reconstruction is a dense constrained solve in a raw monomial basis, the
error observer is the per-member quadrature loop, mesh connectivity
is a loop over element edges into a dict and h_max a loop over them in
Python floats, the nested-dissection codes come from scatter reductions
(`ufunc.at`) of each part's extent, tau samples the velocity at
one whole-mesh point array per sampled mesh, and a manufactured member's
fields come from one `sympy.lambdify` call per time and spatial factor.
"""

import math

import numpy as np
import scipy.sparse as sp
import sympy

from ensemble_hdg.basis import (ElementBasis, monomial_exponents,
                                triangle_quadrature)
from ensemble_hdg.mesh import build_uniform_square_mesh
from ensemble_hdg.problems import SeparableField
from ensemble_hdg.solver import EnsembleState, Member


def monomial_full_local_matrix(disc, ie, cbar, bbar, bbar_face, tau, dt):
    """Brute-force local matrix in the orthonormal basis.

    Every bilinear term is integrated against raw reference monomials
    (element) and raw edge monomials (faces), then converted with the
    orthonormalization matrices.  Row/column order is that of the blocks
    of `local.assemble_all_blocks`: [qx | qy | u | f0 | f1 | f2].
    """
    k = degree_of(disc)
    exps = monomial_exponents(k)
    d = len(exps)
    nfd = k + 1
    pts = disc.rule_data.points
    w = disc.rule_data.weights
    geom = disc.geom
    detJ = geom.det[ie]
    BinvT = geom.inv_t[ie]

    # monomial values/gradients at element quadrature points
    M = np.array([pts[:, 0] ** a * pts[:, 1] ** b for a, b in exps])
    Gx = np.array([
        a * pts[:, 0] ** max(a - 1, 0) * pts[:, 1] ** b if a else 0 * pts[:, 0]
        for a, b in exps])
    Gy = np.array([
        b * pts[:, 0] ** a * pts[:, 1] ** max(b - 1, 0) if b else 0 * pts[:, 0]
        for a, b in exps])
    GX = BinvT[0, 0] * Gx + BinvT[0, 1] * Gy
    GY = BinvT[1, 0] * Gx + BinvT[1, 1] * Gy

    s = disc.rule_face_data.points
    wf = disc.rule_face_data.weights
    Mf = np.array([s ** m for m in range(nfd)])

    # element-basis monomial values at the canonical face points: use the
    # element's aligned reference coordinates
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    Mface = []
    for lf in range(3):
        ra, rb = corners[lf], corners[(lf + 1) % 3]
        if not disc.face_aligned[ie, lf]:
            ra, rb = rb, ra
        ref = ra[None] + s[:, None] * (rb - ra)[None]
        Mface.append(np.array([ref[:, 0] ** a * ref[:, 1] ** b
                               for a, b in exps]))

    nint, ntr = 3 * d, 3 * nfd
    A = np.zeros((nint + ntr, nint + ntr))
    sl_qx, sl_qy = slice(0, d), slice(d, 2 * d)
    sl_u = slice(2 * d, 3 * d)

    def vol(weight, rows, cols):
        return detJ * np.einsum("q,iq,jq->ij", w * weight, rows, cols)

    A[sl_qx, sl_qx] = vol(cbar, M, M)
    A[sl_qy, sl_qy] = vol(cbar, M, M)
    A[sl_qx, sl_u] = -vol(1.0, GX, M)
    A[sl_qy, sl_u] = -vol(1.0, GY, M)
    A[sl_u, sl_qx] = vol(1.0, M, GX)
    A[sl_u, sl_qy] = vol(1.0, M, GY)
    A[sl_u, sl_u] = vol(1.0 / dt, M, M) + \
        vol(bbar[:, 0], M, GX) + vol(bbar[:, 1], M, GY)

    lens = geom.edge_lengths[ie]
    nrm = geom.normals[ie]
    for lf in range(3):
        ln = lens[lf]
        tr = slice(nint + lf * nfd, nint + (lf + 1) * nfd)
        Me = Mface[lf]
        bn = bbar_face[lf] @ nrm[lf]
        A[sl_u, sl_u] += tau * ln * np.einsum("q,iq,jq->ij", wf, Me, Me)
        A[sl_u, tr] = -tau * ln * np.einsum("q,iq,mq->im", wf, Me, Mf)
        A[tr, sl_u] = -tau * ln * np.einsum("q,mq,jq->mj", wf, Mf, Me) \
            - ln * np.einsum("q,q,mq,jq->mj", wf, bn, Mf, Me)
        A[tr, tr] = tau * ln * np.einsum("q,mq,lq->ml", wf, Mf, Mf)
        A[sl_qx, tr] = ln * nrm[lf, 0] * np.einsum("q,iq,mq->im", wf, Me, Mf)
        A[sl_qy, tr] = ln * nrm[lf, 1] * np.einsum("q,iq,mq->im", wf, Me, Mf)
        A[tr, sl_qx] = -ln * nrm[lf, 0] * np.einsum("q,mq,jq->mj", wf, Mf, Me)
        A[tr, sl_qy] = -ln * nrm[lf, 1] * np.einsum("q,mq,jq->mj", wf, Mf, Me)

    C = disc.elem_basis.coeffs
    Cf = disc.face_basis.coeffs
    T = np.zeros_like(A)
    T[sl_qx, sl_qx] = C
    T[sl_qy, sl_qy] = C
    T[sl_u, sl_u] = C
    for lf in range(3):
        tr = slice(nint + lf * nfd, nint + (lf + 1) * nfd)
        T[tr, tr] = Cf
    return T @ A @ T.T


def local_rhs(disc, ie, tau, dt, f_vals, g_vals, u_prev, gu_prev, q_prev,
              u_prev_face, c_dev, b_dev, b_dev_face):
    """One element's RHS vector (q-rows, u-rows, uhat-rows) for one member.

    All field inputs are sample arrays at this element's data-rule points:
    f_vals (nq,), u_prev (nq,), gu_prev (nq, 2), q_prev (nq, 2), c_dev (nq,)
    the mean-minus-member deviation of the inverse diffusion, b_dev (nq, 2)
    the velocity deviation; face samples u_prev_face (3, nqf),
    b_dev_face (3, nqf, 2); g_vals (3, nqf) is the Dirichlet datum on the
    element's boundary faces (rows of interior faces are ignored).
    """
    d = disc.ndof_u
    nfd = disc.ndof_face
    w = disc.w_data
    V = disc.V_data
    detJ = disc.geom.det[ie]
    lens = disc.geom.edge_lengths[ie]
    nrm = disc.geom.normals[ie]
    Vf = basis_tables(disc, degree_of(disc))[2][ie]
    Psi = disc.Psi_fdata
    wf = disc.w_fdata
    on_boundary = disc.mesh.boundary[disc.mesh.elem_faces[ie]]

    rhs = np.zeros(3 * d + 3 * nfd)
    # q-rows: ((cbar - c_j) q_prev, r) - <g, r.n> on boundary faces
    for comp in range(2):
        rows = slice(comp * d, (comp + 1) * d)
        rhs[rows] = detJ * np.einsum(
            "q,q,q,iq->i", w, c_dev, q_prev[:, comp], V)
    # u-rows: (f, v) + (1/dt)(u_prev, v) + ((bdev) . grad u_prev, v)
    lag_conv = np.einsum("qc,qc->q", b_dev, gu_prev)
    rhs[2 * d:3 * d] = detJ * np.einsum(
        "q,q,iq->i", w, f_vals + u_prev / dt + lag_conv, V)
    for lf in range(3):
        ln = lens[lf]
        if on_boundary[lf]:
            # boundary data: -<g, r.n> and <tau g, v>
            gmom = ln * np.einsum("q,q,iq->i", wf, g_vals[lf], Vf[lf])
            for comp in range(2):
                rows = slice(comp * d, (comp + 1) * d)
                rhs[rows] -= nrm[lf, comp] * gmom
            rhs[2 * d:3 * d] += tau * gmom
        else:
            # uhat-rows: -<(bdev . n) u_prev, vhat>
            rows = slice(3 * d + lf * nfd, 3 * d + (lf + 1) * nfd)
            bn = b_dev_face[lf] @ nrm[lf]
            rhs[rows] = -ln * np.einsum(
                "q,q,q,mq->m", wf, bn, u_prev_face[lf], Psi)
    return rhs


def dense_global_matrix(disc, cbar, bbar, bbar_face, tau, dt,
                        assemble_local):
    """Scatter per-element full local matrices into one dense system.

    Unknown order: all interior DOFs element-by-element, then the global
    trace DOFs.  assemble_local(ie) must return the (3d+3nfd) square local
    matrix in the order of `monomial_full_local_matrix`.
    """
    mesh = disc.mesh
    ne = mesh.n_elements
    d = disc.ndof_u
    nfd = disc.ndof_face
    nint = 3 * d
    ntr_loc = 3 * nfd
    n_int_total = ne * nint
    n_total = n_int_total + disc.n_trace_dofs
    A = np.zeros((n_total, n_total))
    for ie in range(ne):
        loc = assemble_local(ie)
        gidx = np.concatenate([
            np.arange(ie * nint, (ie + 1) * nint),
            np.where(disc.trace_dof[ie] >= 0,
                     disc.trace_dof[ie] + n_int_total, -1),
        ])
        keep = gidx >= 0
        A[np.ix_(gidx[keep], gidx[keep])] += loc[np.ix_(keep, keep)]
    return A


def full_trace_matrix(disc, schur):
    """The whole trace matrix (CSC, n_trace_dofs square) of element Schur
    blocks schur (ne, T, T): each block scattered to its element's
    `trace_dof`, rows and columns of boundary faces dropped, duplicates
    summed."""
    dof = disc.trace_dof
    ne, T = dof.shape
    n = disc.n_trace_dofs
    rows = np.broadcast_to(dof[:, :, None], (ne, T, T)).ravel()
    cols = np.broadcast_to(dof[:, None, :], (ne, T, T)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.csc_matrix((schur.reshape(-1)[keep], (rows[keep], cols[keep])),
                         shape=(n, n))


def degree_of(disc):
    """The degree k of disc: its face basis spans P^k on an edge."""
    return disc.ndof_face - 1


def basis_tables(disc, degree):
    """Data-rule tables of the degree-`degree` element basis, built here.

    Returns values (d, nq) and physical gradients (ne, d, nq, 2) at the
    data rule, and values (ne, 3, d, nq) at each element's face data
    points, found by mapping the physical face points back to the
    element's reference coordinates.
    """
    basis = ElementBasis(degree)
    geom = disc.geom
    pts = disc.rule_data.points
    G = np.einsum("eij,dqj->edqi", geom.inv_t, basis.eval_grad(pts))
    ref = np.einsum("eij,efqj->efqi", geom.inv,
                    disc.Xf_fdata - geom.corners[:, None, None, 0])
    Vf = basis.eval(ref.reshape(-1, 2)).reshape((basis.dim,) + ref.shape[:3])
    return basis.eval(pts), G, np.moveaxis(Vf, 0, 2)


def lag_samples(disc, state):
    """Point samples of a state, by direct evaluation of the basis.

    Returns dict with u (J,ne,nq), grad_u (J,ne,nq,2) and q (J,ne,nq,2) at
    the data rule and u_face (J,ne,3,nqf) at the face data rule.
    """
    V, G, Vf = basis_tables(disc, degree_of(disc))
    d = disc.ndof_u
    q = np.stack([state.q[:, :, :d] @ disc.V_data,
                  state.q[:, :, d:] @ disc.V_data], axis=-1)
    return {"u": state.u @ V,
            "grad_u": np.einsum("jel,elqc->jeqc", state.u, G),
            "q": q,
            "u_face": np.einsum("jel,eflq->jefq", state.u, Vf)}


def dense_step(disc, spec, tau, dt, state, lag=True):
    """One monolithic implicit step of the ensemble scheme, solved densely.

    With lag=False all deviation terms are dropped (the lag-free
    single-system reference; for J = 1 they vanish anyway).
    Returns the next EnsembleState.
    """
    mesh = disc.mesh
    ne = mesh.n_elements
    d = disc.ndof_u
    nfd = disc.ndof_face
    nint = 3 * d
    J = spec.J
    t1 = (state.n + 1) * dt

    cbar = np.stack([disc.sample_scalar(m.c, t1)
                     for m in spec.members]).mean(0)
    bbar = np.stack([disc.sample_vector(stacked(m.beta), t1)
                     for m in spec.members]).mean(0)
    bbar_f = np.stack([disc.sample_vector_faces(stacked(m.beta), t1)
                       for m in spec.members]).mean(0)

    def assemble_local(ie):
        return monomial_full_local_matrix(disc, ie, cbar[ie], bbar[ie],
                                          bbar_f[ie], tau, dt)

    A = dense_global_matrix(disc, cbar, bbar, bbar_f, tau, dt,
                            assemble_local)
    n_int_total = ne * nint
    n_total = A.shape[0]

    if lag and J > 1:
        c_data = np.stack([disc.sample_scalar(m.c, t1)
                           for m in spec.members])
        b_data = np.stack([disc.sample_vector(stacked(m.beta), t1)
                           for m in spec.members])
        bf_data = np.stack([disc.sample_vector_faces(stacked(m.beta), t1)
                            for m in spec.members])
        c_dev = c_data.mean(0)[None] - c_data
        b_dev = b_data.mean(0)[None] - b_data
        bf_dev = bf_data.mean(0)[None] - bf_data
    else:
        zc = np.zeros((J,) + disc.X_data.shape[:2])
        c_dev = zc
        b_dev = np.zeros(zc.shape + (2,))
        bf_dev = np.zeros((J, ne, 3, len(disc.w_fdata), 2))

    prev = lag_samples(disc, state)
    X = disc.X_data
    x, y = X[..., 0].ravel(), X[..., 1].ravel()
    Xf = disc.Xf_fdata
    xf, yf = Xf[..., 0].ravel(), Xf[..., 1].ravel()

    rhs = np.zeros((n_total, J))
    for j, m in enumerate(spec.members):
        f_vals = np.asarray(m.f(x, y, t1), dtype=float).reshape(ne, -1)
        g_vals = np.broadcast_to(
            np.asarray(m.g(xf, yf, t1), dtype=float), xf.shape
        ).reshape(Xf.shape[:3])
        for ie in range(ne):
            loc = local_rhs(
                disc, ie, tau, dt, f_vals[ie], g_vals[ie],
                prev["u"][j, ie], prev["grad_u"][j, ie], prev["q"][j, ie],
                prev["u_face"][j, ie], c_dev[j, ie], b_dev[j, ie],
                bf_dev[j, ie])
            rhs[ie * nint:(ie + 1) * nint, j] += loc[:nint]
            for lf in range(3):
                dof = disc.trace_dof[ie, lf * nfd:(lf + 1) * nfd]
                if dof[0] >= 0:
                    rhs[n_int_total + dof, j] += \
                        loc[nint + lf * nfd:nint + (lf + 1) * nfd]

    sol = np.linalg.solve(A, rhs)
    q = np.empty((J, ne, 2 * d))
    u = np.empty((J, ne, d))
    for ie in range(ne):
        block = sol[ie * nint:(ie + 1) * nint]
        q[:, ie, :] = block[:2 * d].T
        u[:, ie, :] = block[2 * d:].T
    uhat = sol[n_int_total:].T.copy()
    return EnsembleState(state.n + 1, t1, u, q, uhat)


def dense_run(disc, spec, tau, dt, steps, state, lag=True):
    for _ in range(steps):
        state = dense_step(disc, spec, tau, dt, state, lag=lag)
    return state


def monomial_postprocess(disc, ie, q_coeffs, u_coeffs, c_vals):
    """One element's u* by a dense constrained solve in raw monomials.

    Solves (grad u*, grad z) = -(c q, grad z) for all z in P^(k+1), with
    the element mean of u* held to that of u_h by a Lagrange multiplier,
    integrating against raw reference monomials mapped to the element.
    q_coeffs (2d,), u_coeffs (d,) are the element's fields; c_vals (nq,)
    samples the member's inverse diffusion at the data rule.  Returns the
    monomial coefficients of u*; the orthonormal coefficients x of the
    library map to them as ElementBasis(k+1).coeffs.T @ x.
    """
    exps = monomial_exponents(degree_of(disc) + 1)
    dh = len(exps)
    d = disc.ndof_u
    pts, w = disc.rule_data.points, disc.rule_data.weights
    ptsd, wd = disc.rule_data.points, disc.rule_data.weights
    BinvT = disc.geom.inv_t[ie]
    detJ = disc.geom.det[ie]

    def mono_grads(p):
        Gx = np.array([a * p[:, 0] ** max(a - 1, 0) * p[:, 1] ** b
                       if a else 0 * p[:, 0] for a, b in exps])
        Gy = np.array([b * p[:, 0] ** a * p[:, 1] ** max(b - 1, 0)
                       if b else 0 * p[:, 0] for a, b in exps])
        return BinvT[0, 0] * Gx + BinvT[0, 1] * Gy, \
            BinvT[1, 0] * Gx + BinvT[1, 1] * Gy

    GX, GY = mono_grads(pts)
    M = np.array([pts[:, 0] ** a * pts[:, 1] ** b for a, b in exps])
    K = detJ * (np.einsum("q,iq,jq->ij", w, GX, GX) +
                np.einsum("q,iq,jq->ij", w, GY, GY))
    mvec = detJ * np.einsum("q,iq->i", w, M)
    kkt = np.zeros((dh + 1, dh + 1))
    kkt[:dh, :dh] = K
    kkt[:dh, dh] = mvec
    kkt[dh, :dh] = mvec

    V = disc.V_data
    qx = V.T @ q_coeffs[:d]
    qy = V.T @ q_coeffs[d:]
    uu = V.T @ u_coeffs
    GXd, GYd = mono_grads(ptsd)
    rhs = np.zeros(dh + 1)
    rhs[:dh] = -detJ * (np.einsum("q,q,iq->i", wd, c_vals * qx, GXd) +
                        np.einsum("q,q,iq->i", wd, c_vals * qy, GYd))
    rhs[dh] = detJ * np.einsum("q,q->", wd, uu)
    return np.linalg.solve(kkt, rhs)[:dh]


def quadrature_postprocess(disc, u_coeffs, q_coeffs, c_vals):
    """u* of all members by the mean-constrained KKT system.

    Assembles, by quadrature at the data rule, the degree-(k+1) stiffness
    and mean weights of each element with its own physical gradients, and
    solves the saddle-point system with one Lagrange multiplier for the
    mean constraint.  c_vals (J, ne, nq) samples each member's inverse
    diffusion.  Returns (J, ne, d_hi).
    """
    d, dh = disc.ndof_u, disc.ndof_u_hi
    J, ne = u_coeffs.shape[:2]
    det, w = disc.geom.det, disc.w_data
    Vh, G, _ = basis_tables(disc, degree_of(disc) + 1)
    kkt = np.zeros((ne, dh + 1, dh + 1))
    kkt[:, :dh, :dh] = np.einsum("e,q,eiqc,ejqc->eij", det, w, G, G)
    kkt[:, :dh, dh] = kkt[:, dh, :dh] = np.einsum("e,q,iq->ei", det, w, Vh)
    wc = w * c_vals
    cq = np.stack([wc * (q_coeffs[:, :, :d] @ disc.V_data),
                   wc * (q_coeffs[:, :, d:] @ disc.V_data)], axis=-1)
    rhs = np.empty((J, ne, dh + 1))
    rhs[..., :dh] = -det[None, :, None] * np.einsum("jeqc,eiqc->jei", cq, G)
    rhs[..., dh] = np.einsum("e,q,jel,lq->je", det, w, u_coeffs,
                             disc.V_data)
    return np.linalg.solve(kkt[None], rhs[..., None])[..., :dh, 0]


def l2_norm_squared(disc, vals):
    """Elementwise quadrature of ||field||^2 from scalar data-rule point
    values (..., ne, nq); leading axes are preserved."""
    return (vals ** 2 @ disc.w_data) @ disc.geom.det


class LoopErrorAccumulator:
    """Per-member reference of ErrorAccumulator: every step samples the
    state, the exact fields and c_j, postprocesses by quadrature and sums
    each member's norms in its own loop iteration."""

    def __init__(self, disc, spec, dt, final_step=None):
        self.disc, self.spec, self.dt = disc, spec, dt
        self.final_step = final_step
        self.eq_sq = np.zeros(spec.J)
        self.eustar_sq = np.zeros(spec.J)
        self.eu_final = np.zeros(spec.J)

    def __call__(self, n, t, state):
        disc = self.disc
        s = lag_samples(disc, state)
        c_vals = np.stack([disc.sample_scalar(m.c, t)
                           for m in self.spec.members])
        star = quadrature_postprocess(disc, state.u, state.q,
                                      c_vals) @ disc.V_hi_data
        for j, m in enumerate(self.spec.members):
            ue = disc.sample_scalar(m.exact_u, t)
            qe = disc.sample_vector(stacked(m.exact_q), t)
            dq = s["q"][j] - qe
            self.eq_sq[j] += self.dt * (l2_norm_squared(disc, dq[..., 0]) +
                                        l2_norm_squared(disc, dq[..., 1]))
            self.eustar_sq[j] += self.dt * l2_norm_squared(
                disc, star[j] - ue)
            if self.final_step is None or n == self.final_step:
                self.eu_final[j] = np.sqrt(
                    l2_norm_squared(disc, s["u"][j] - ue))

    def results(self):
        return {"Eu": self.eu_final.copy(), "Eq": np.sqrt(self.eq_sq),
                "Eustar": np.sqrt(self.eustar_sq)}


def face_connectivity(elements):
    """Faces, face_elements, face_local, elem_faces and boundary of
    elements (ne, 3), by a loop over element edges into a dict.

    Faces are numbered in the order of their sorted vertex pairs and
    stored as traversed by their lower-indexed element; their incident
    elements are listed in increasing order.
    """
    incident = {}
    for e, tri in enumerate(elements.tolist()):
        for lf in range(3):
            a, b = tri[lf], tri[(lf + 1) % 3]
            incident.setdefault((min(a, b), max(a, b)), []).append(
                (e, lf, (a, b)))
    nf = len(incident)
    faces = np.empty((nf, 2), dtype=np.int64)
    face_elements = np.full((nf, 2), -1, dtype=np.int64)
    face_local = np.full((nf, 2), -1, dtype=np.int64)
    elem_faces = np.full((len(elements), 3), -1, dtype=np.int64)
    for f, key in enumerate(sorted(incident)):
        owners = sorted(incident[key])
        faces[f] = owners[0][2]
        for side, (e, lf, _) in enumerate(owners):
            face_elements[f, side] = e
            face_local[f, side] = lf
            elem_faces[e, lf] = f
    return {"faces": faces, "face_elements": face_elements,
            "face_local": face_local, "elem_faces": elem_faces,
            "boundary": face_elements[:, 1] == -1}


def loop_h_max(mesh):
    """The longest element edge of mesh, each length the square root of
    dx * dx + dy * dy in Python floats."""
    xy = mesh.vertices.tolist()
    h = 0.0
    for tri in mesh.elements.tolist():
        for lf in range(3):
            (xa, ya), (xb, yb) = xy[tri[lf]], xy[tri[(lf + 1) % 3]]
            h = max(h, math.sqrt((xb - xa) * (xb - xa) +
                                 (yb - ya) * (yb - ya)))
    return h


def scatter_bisection_positions(mesh, leaf):
    """The position of each interior face in the nested-dissection order of
    `discretization._nested_dissection_positions`, -1 on boundary faces,
    with each level's part extents scattered into per-code arrays by
    `np.minimum.at` and `np.maximum.at`."""
    ne = mesh.n_elements
    cen = mesh.vertices[mesh.elements].mean(axis=1)
    code = np.zeros(ne, dtype=np.int64)
    rows = np.arange(ne)
    while (counts := np.bincount(code)).max() > leaf:
        split = counts > leaf
        lo = np.full((len(counts), 2), np.inf)
        hi = -lo
        np.minimum.at(lo, code, cen)
        np.maximum.at(hi, code, cen)
        axis = np.argmax(hi - lo, axis=1)[code]
        order = np.lexsort((cen[rows, 1 - axis], cen[rows, axis], code))
        rank = np.empty(ne, dtype=np.int64)
        rank[order] = rows - (np.cumsum(counts) - counts)[code[order]]
        code = 2 * code + (split[code] & (rank >= counts[code] // 2))
    interior = np.flatnonzero(~mesh.boundary)
    c0, c1 = code[mesh.face_elements[interior].T]
    s = np.frexp((c0 ^ c1).astype(float))[1]
    pos = np.full(mesh.n_faces, -1)
    pos[interior[np.lexsort((s, ((c0 >> s) + 1) << s))]] = \
        np.arange(len(interior))
    return pos


def nested_dissection_faces(mesh, leaf):
    """The interior faces of mesh in nested-dissection post-order, by
    recursion over parts of the elements.

    A part of at most `leaf` elements lists the faces between two of its
    elements.  A larger one is sorted by its centroids along its longer
    extent (x on a tie), then along the other axis, then by element
    index, and its first half and the rest are dissected in turn; the
    faces between the halves come last.  Each group is in face order.
    """
    cen = mesh.vertices[mesh.elements].mean(axis=1)
    fe = mesh.face_elements
    interior = [f for f in range(mesh.n_faces) if not mesh.boundary[f]]

    def between(a, b):
        return [f for f in interior if (fe[f, 0] in a and fe[f, 1] in b) or
                (fe[f, 0] in b and fe[f, 1] in a)]

    def dissect(part):
        if len(part) <= leaf:
            return between(part, part)
        ext = cen[part].max(axis=0) - cen[part].min(axis=0)
        axis = 0 if ext[0] >= ext[1] else 1
        order = sorted(part, key=lambda e: (cen[e, axis], cen[e, 1 - axis],
                                            e))
        left, right = order[:len(part) // 2], order[len(part) // 2:]
        return dissect(left) + dissect(right) + between(set(left),
                                                        set(right))

    return dissect(list(range(mesh.n_elements)))


def whole_mesh_tau(spec, mesh):
    """tau = 1 + max_j sup ||beta_j(., 0)||_inf, with the sup in the
    max-component norm, as `solver.choose_tau` defines it, sampled at once.

    Order-6 points of the run mesh and of its uniform 2n and 4n
    refinements when its vertices and elements are those of
    `build_uniform_square_mesh(n)`, however it was made; else the order-4,
    8 and 12 points of the run mesh.  Each β component is read on its
    own.  Each mesh's points are one (ne, npts, 2) array from its
    element maps' matrices B: B[:, :, 0] r0, plus B[:, :, 1] r1, plus v0,
    in that order, so that they round as the library's points do.
    """
    n = math.isqrt(mesh.n_elements // 2)
    built = build_uniform_square_mesh(max(n, 1))
    if np.array_equal(mesh.vertices, built.vertices) and \
            np.array_equal(mesh.elements, built.elements):
        meshes = [mesh] + [build_uniform_square_mesh(n * s) for s in (2, 4)]
        orders = [6, 6, 6]
    else:
        meshes = [mesh, mesh, mesh]
        orders = [4, 8, 12]
    sup = 0.0
    for m, order in zip(meshes, orders):
        v = m.vertices[m.elements]
        B = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        ref = triangle_quadrature(order).points
        X = B[:, None, :, 0] * ref[:, 0, None]
        X += B[:, None, :, 1] * ref[:, 1, None]
        X += v[:, None, 0, :]
        x, y = X[..., 0].ravel(), X[..., 1].ravel()
        for member in spec.members:
            for part in member.beta:
                b = np.asarray(part(x, y, 0.0), dtype=float)
                sup = max(sup, float(np.abs(b).max()))
    return 1.0 + sup


_X, _Y, _T = sympy.symbols("x y t")


def _lambdified_field(expr):
    """A SeparableField of one lambdified function per T_i(t) ("math")
    and per S_i(x, y) ("numpy"), the terms grouped by the srepr of their
    time factor; f(x, y, t) broadcast to the shape of x when the terms do
    not split into at most 8 such groups."""
    groups = {}
    for term in sympy.Add.make_args(expr):
        t_part, xy_part = term.as_independent(_X, _Y)
        if xy_part.has(_T):
            groups = None
            break
        key = sympy.srepr(t_part)
        old = groups[key][1] + xy_part if key in groups else xy_part
        groups[key] = (t_part, old)
    if groups is not None and len(groups) <= 8:
        return SeparableField(
            [sympy.lambdify((_T,), tp, modules="math")
             for tp, _ in groups.values()],
            [sympy.lambdify((_X, _Y), sp, modules="numpy")
             for _, sp in groups.values()])
    fn = sympy.lambdify((_X, _Y, _T), expr, modules="numpy")

    def wrapped(x, y, t):
        out = np.asarray(fn(x, y, t), dtype=float)
        if out.shape != np.shape(x):
            out = np.broadcast_to(out, np.shape(x)).copy()
        return out

    return wrapped


def lambdified_member(c_expr, beta_exprs, u_expr):
    """The Member of `problems.manufactured_member(c_expr, beta_exprs,
    u_expr)`, each field lambdified on its own, factor by factor."""
    c_expr = sympy.sympify(c_expr)
    bx, by = (sympy.sympify(b) for b in beta_exprs)
    u_expr = sympy.sympify(u_expr)
    qx = -sympy.diff(u_expr, _X) / c_expr
    qy = -sympy.diff(u_expr, _Y) / c_expr
    f_expr = (sympy.diff(u_expr, _T) + sympy.diff(qx, _X) +
              sympy.diff(qy, _Y) + bx * sympy.diff(u_expr, _X) +
              by * sympy.diff(u_expr, _Y))
    u = _lambdified_field(u_expr)
    return Member(
        c=_lambdified_field(c_expr),
        beta=(_lambdified_field(bx), _lambdified_field(by)),
        f=_lambdified_field(f_expr), g=u,
        u0=_lambdified_field(u_expr.subs(_T, 0)), exact_u=u,
        exact_q=(_lambdified_field(qx), _lambdified_field(qy)))


def stacked(pair):
    """The vector field (x, y, t) -> (..., 2) of an (x, y) pair of scalar
    fields, each component as floats of the shape of x."""
    def field(x, y, t):
        return np.stack([np.broadcast_to(np.asarray(p(x, y, t), dtype=float),
                                         np.shape(x)) for p in pair], -1)

    return field


def separable_sum(field, x, y, t):
    """The SeparableField `field` at (x, y, t) as the sum of its terms
    T_i(t) S_i(x, y), each broadcast to the shape of x, added in factor
    order onto zeros."""
    out = np.zeros(np.shape(x))
    for tf, s in zip(field._t_fns, field._s_fns):
        out += float(tf(t)) * np.broadcast_to(
            np.asarray(s(x, y), dtype=float), np.shape(x))
    return out
