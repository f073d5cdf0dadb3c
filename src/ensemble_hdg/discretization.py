"""Precomputed tables binding a mesh to a polynomial degree.

A Discretization owns every table that depends on the mesh and degree
alone: quadrature rules, basis values at element and face quadrature
points, gradient tables on the reference element only (callers apply
B^-T), batched affine-map geometry, the basis-product tables `mass`,
`mass_q`, `conv` and `face` that make a coefficient term one GEMM of its
samples (`local.c_terms`, `local.beta_terms`), and the global trace DOF
layout.  The layout is decided here alone: from one numbering,
`trace_dof`, come the CSC pattern of the trace matrix, `trace_pattern`,
the sparse scatter `trace_scatter` from element trace rows to global
DOFs and its transpose, `trace_gather`.  Interior faces are numbered by
nested dissection, so the LU needs no ordering.

One family of rules, the "data" rules of order 2k+4 on elements and faces,
serves every integral: the mean-coefficient blocks, the lagged deviations,
source terms, boundary data, postprocessing and error norms.  The ensemble
scheme splits member j's operator into an implicit mean part and a lagged
deviation part; the two add up to member j's own operator, so that a
steady ensemble settles on each member's own steady state, only when both
parts are integrated with the same rule.

Face tables are aligned with each face's canonical orientation, so the two
elements sharing a face see the trace basis with identical parametrization
(and bitwise identical physical quadrature points).
"""

import numpy as np
import scipy.sparse as sp

from .basis import ElementBasis, FaceBasis, edge_quadrature, triangle_quadrature
from .mesh import BatchedGeometry, element_points

# reference-triangle corners, indexed by local vertex
_REF_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# nested dissection stops splitting a part of at most this many elements
_ND_LEAF = 8


def _nested_dissection_positions(mesh):
    """The position of each interior face in a nested-dissection order of
    the trace DOFs (George 1973), -1 on boundary faces.

    Level by level, each part of more than `_ND_LEAF` elements is bisected
    at the median of its centroids along its longer extent; the halves
    an element lands in spell its code, one bit a level (0 in a part not
    split).  A face whose elements part at some level joins that node's
    separator, any other face its leaf.  A node s levels above the leaves
    with code prefix p covers the codes below (p + 1) 2^s: sorting by that
    end, then by s, numbers each separator after both its halves.
    """
    ne = mesh.n_elements
    # centroids from 1-D gathers: (a + b + c) / 3 rounds as .mean(axis=1)
    e0, e1, e2 = mesh.elements.T
    cen = np.column_stack([(v[e0] + v[e1] + v[e2]) / 3
                           for v in mesh.vertices.T])
    code = np.zeros(ne, dtype=np.int64)
    rows = order = np.arange(ne)
    while (counts := np.bincount(code)).max() > _ND_LEAF:
        split = counts > _ND_LEAF
        # `order` groups the elements by code, so a part's extent reduces
        # one run of rows (an unused code's is a row of the next, unread)
        start = np.cumsum(counts) - counts
        part = cen[order]
        lo, hi = (u.reduceat(part, start) for u in (np.minimum, np.maximum))
        axis = np.argmax(hi - lo, axis=1)[code]
        order = np.lexsort((cen[rows, 1 - axis], cen[rows, axis], code))
        rank = np.empty(ne, dtype=np.int64)
        rank[order] = rows - start[code[order]]
        code = 2 * code + (split[code] & (rank >= counts[code] // 2))
    interior = np.flatnonzero(~mesh.boundary)
    c0, c1 = code[mesh.face_elements[interior].T]
    # s is the bit length of the codes' difference, 0 inside a leaf
    s = np.frexp((c0 ^ c1).astype(float))[1]
    pos = np.full(mesh.n_faces, -1)
    pos[interior[np.lexsort((s, ((c0 >> s) + 1) << s))]] = \
        np.arange(len(interior))
    return pos


class Discretization:
    """Tables for degree-k HDG spaces on a triangulation.

    Parameters
    ----------
    mesh : Mesh
    degree : int
        Polynomial degree k of the (q, u, uhat) spaces; 0 <= k <= 3.
        Degree k+1 tables are also built (initial data, postprocessing).
    """

    def __init__(self, mesh, degree):
        if not 0 <= degree <= 3:
            raise ValueError(f"degree {degree}: supported degrees are 0..3")
        self.mesh = mesh
        self.geom = BatchedGeometry(mesh)

        self.elem_basis = ElementBasis(degree)
        self.elem_basis_hi = ElementBasis(degree + 1)
        self.face_basis = FaceBasis(degree)
        self.ndof_u = self.elem_basis.dim
        self.ndof_u_hi = self.elem_basis_hi.dim
        self.ndof_face = self.face_basis.dim

        self.rule_data = triangle_quadrature(2 * degree + 4)
        self.rule_face_data = edge_quadrature(2 * degree + 4)

        self._build_element_tables()
        self._build_face_tables()
        # the basis-product tables are shared by reference: read-only
        for table in (self.mass, self.mass_q, self.conv, self.V_fdata,
                      self.face):
            table.flags.writeable = False
        self._build_points()
        self._build_trace_dofs()

    # -- element interior tables -------------------------------------------

    def _build_element_tables(self):
        basis, basis_hi = self.elem_basis, self.elem_basis_hi
        pd = self.rule_data.points
        self.w_data = self.rule_data.weights
        self.V_data = basis.eval(pd)
        self.V_hi_data = basis_hi.eval(pd)
        self.Gref_hi_data = basis_hi.eval_grad(pd)
        # weighted transposed values: moments are one BLAS matmul
        self.VwT_data = (self.V_data * self.w_data).T.copy()
        self.Gref_data = basis.eval_grad(pd)
        w, V, d = self.w_data, self.V_data, self.ndof_u
        # (v_i, u_l), and its integrands against c and β B^-T samples
        self.mass = (V * w) @ V.T
        self.mass_q = np.einsum("q,iq,lq->qil", w, V, V).reshape(-1, d * d)
        self.conv = np.einsum("q,iq,lqr->qril", w, V,
                              self.Gref_data).reshape(-1, d * d)

    # -- face tables ---------------------------------------------------------

    def _build_face_tables(self):
        mesh = self.mesh
        sd = self.rule_face_data.points
        self.w_fdata = self.rule_face_data.weights
        self.Psi_fdata = Psi = self.face_basis.eval(sd)
        # an element traverses a face against its canonical orientation
        # when its local vertex lf is not the face's first vertex
        self.face_aligned = mesh.elements == mesh.faces[:, 0][mesh.elem_faces]
        # the element basis at the face points (3, 2, nqf, 2) of local
        # face lf, [misaligned, aligned]: an aligned element runs from its
        # local vertex lf to lf+1 as s goes from 0 to 1, a misaligned one
        # the other way; and the integrands w_q ψ_m u_l (nqf, nfd*d) of
        # the <b·n u, v̂> rows against b·n
        ra, rb = _REF_CORNERS, _REF_CORNERS[[1, 2, 0]]
        pa, pb = np.stack([rb, ra], axis=1), np.stack([ra, rb], axis=1)
        refs = pa[:, :, None] + sd[:, None] * (pb - pa)[:, :, None]
        self.V_fdata = np.array([[self.elem_basis.eval(refs[lf, a])
                                  for a in (0, 1)] for lf in range(3)])
        self.face = np.einsum("q,mq,falq->faqml", self.w_fdata, Psi,
                              self.V_fdata).reshape(3, 2, len(sd), -1)

    # -- physical data-rule points -------------------------------------------

    def _build_points(self):
        """The physical points of the data rules, held once: the rows x
        and y of `data_points` hold the ne·nq element points, then the
        3·ne·nqf face points in each face's canonical parametrization.
        The solver's β stack binds the two rows; the flat x and y arrays,
        X_data (ne, nq, 2) and Xf_fdata (ne, 3, nqf, 2) are views."""
        mesh = self.mesh
        ne, nq = mesh.n_elements, len(self.w_data)
        sd = self.rule_face_data.points
        m = ne * nq
        pts = self.data_points = np.empty((2, m + 3 * ne * len(sd)))
        self.x_data_flat, self.y_data_flat = pts[:, :m]
        self.xf_fdata_flat, self.yf_fdata_flat = pts[:, m:]
        self.X_data = np.moveaxis(pts[:, :m].reshape(2, ne, nq), 0, -1)
        self.Xf_fdata = np.moveaxis(
            pts[:, m:].reshape(2, ne, 3, len(sd)), 0, -1)
        a, b = mesh.faces.T
        for c, (X, v) in enumerate(zip(
                element_points(self.geom.corners, self.rule_data.points),
                mesh.vertices.T)):
            self.X_data[..., c] = X
            per_face = v[a][:, None] + sd * (v[b] - v[a])[:, None]
            self.Xf_fdata[..., c] = per_face[mesh.elem_faces]

    # -- global trace DOF layout ----------------------------------------------

    def _build_trace_dofs(self):
        mesh = self.mesh
        ne, nfd = mesh.n_elements, self.ndof_face
        pos = _nested_dissection_positions(mesh)
        n = self.n_trace_dofs = mesh.n_interior_faces * nfd
        fpos = pos[mesh.elem_faces]  # (ne, 3)
        dof = fpos[..., None] * nfd + np.arange(nfd)
        dof[fpos < 0] = -1
        dof = self.trace_dof = dof.reshape(ne, 3 * nfd)
        # CSC pattern: the flat schur entries at `take` couple two
        # interior-face DOFs, and entry i of them adds into nonzero slot[i]
        # of the sorted, duplicate-free CSC arrays
        T = 3 * nfd
        rows = np.broadcast_to(dof[:, :, None], (ne, T, T)).ravel()
        cols = np.broadcast_to(dof[:, None, :], (ne, T, T)).ravel()
        take = np.flatnonzero((rows >= 0) & (cols >= 0))
        keys, slot = np.unique(cols[take].astype(np.int64) * n + rows[take],
                               return_inverse=True)
        # SuperLU takes C-int indices
        indices = (keys % n).astype(np.intc)
        indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        self.trace_pattern = (take, slot, indices, indptr)
        for arr in self.trace_pattern:
            arr.flags.writeable = False
        # element trace rows -> global DOFs, boundary rows dropped; the
        # transpose gathers, built once as building it scans the indices
        flat = dof.ravel()
        keep = flat >= 0
        self.trace_scatter = sp.csr_matrix(
            (np.ones(keep.sum()), (flat[keep], np.nonzero(keep)[0])),
            shape=(n, flat.size))
        self.trace_gather = self.trace_scatter.T
        bf = np.nonzero(mesh.boundary)[0]
        self._bnd_sides = (mesh.face_elements[bf, 0], mesh.face_local[bf, 0])

    # -- sampling helpers -----------------------------------------------------

    def sample_scalar(self, fn, t):
        """Evaluate fn(x, y, t) at element quadrature points -> (ne, nq)."""
        return self._sample(fn, t, False, ())

    def sample_vector(self, fn, t):
        """Evaluate a vector field at element points -> (ne, nq, 2)."""
        return self._sample(fn, t, False, (2,))

    def sample_scalar_faces(self, fn, t):
        """Evaluate fn at per-element face points -> (ne, 3, nq)."""
        return self._sample(fn, t, True, ())

    def sample_vector_faces(self, fn, t):
        """Evaluate a vector field at face points -> (ne, 3, nq, 2)."""
        return self._sample(fn, t, True, (2,))

    def _sample(self, fn, t, faces, tail):
        """fn at the face or the element points, shaped like their table
        with the field's own trailing axes `tail`; a value fn returns in
        another shape is broadcast."""
        x, y, X = (self.xf_fdata_flat, self.yf_fdata_flat, self.Xf_fdata) \
            if faces else (self.x_data_flat, self.y_data_flat, self.X_data)
        out = np.asarray(fn(x, y, t), dtype=float)
        if out.shape != x.shape + tail:
            out = np.broadcast_to(out, x.shape + tail)
        return out.reshape(X.shape[:-1] + tail)

    def boundary_face_sides(self):
        """(element, local face) pairs of the boundary faces."""
        return self._bnd_sides
