"""Precomputed tables binding a mesh to a polynomial degree.

A Discretization owns everything the assembly kernels need: quadrature rules,
basis value/gradient tables at element and face quadrature points, batched
affine-map geometry and the global trace DOF map.  Two families of rules are
kept: "elem"/"face" rules of order 2k+2 for the bilinear-form blocks and
"data" rules of order 2k+4 for source terms, boundary data, lag terms and
error norms.

Face tables are aligned with each face's canonical orientation, so the two
elements sharing a face see the trace basis with identical parametrization
(and bitwise identical physical quadrature points).
"""

import numpy as np

from .basis import ElementBasis, FaceBasis, edge_quadrature, triangle_quadrature
from .mesh import batched_geometry

# reference-triangle corners, indexed by local vertex
_REF_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def reference_face_points(s):
    """Reference-triangle coordinates of edge parameters s on each face.

    Returns shape (3, 2, len(s), 2) indexed [local face, aligned]: an element
    aligned with the face's canonical orientation runs from its local vertex
    lf to lf+1 as s goes from 0 to 1, a misaligned one the other way.
    """
    ra = _REF_CORNERS
    rb = _REF_CORNERS[[1, 2, 0]]
    pa = np.stack([rb, ra], axis=1)
    pb = np.stack([ra, rb], axis=1)
    return pa[:, :, None, :] + s[None, None, :, None] * \
        (pb - pa)[:, :, None, :]


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
            raise ValueError("supported degrees are k in {0, 1, 2, 3}")
        self.mesh = mesh
        self.k = degree
        self.geom = batched_geometry(mesh)

        self.elem_basis = ElementBasis(degree)
        self.elem_basis_hi = ElementBasis(degree + 1)
        self.face_basis = FaceBasis(degree)
        self.ndof_u = self.elem_basis.dim
        self.ndof_u_hi = self.elem_basis_hi.dim
        self.ndof_face = self.face_basis.dim

        self.rule_elem = triangle_quadrature(2 * degree + 2)
        self.rule_data = triangle_quadrature(2 * degree + 4)
        self.rule_face = edge_quadrature(2 * degree + 2)
        self.rule_face_data = edge_quadrature(2 * degree + 4)

        self._build_element_tables()
        self._build_face_tables()
        self._build_trace_dofs()

    # -- element interior tables -------------------------------------------

    def _build_element_tables(self):
        geom = self.geom
        basis, basis_hi = self.elem_basis, self.elem_basis_hi
        pe, pd = self.rule_elem.points, self.rule_data.points
        self.w_elem = self.rule_elem.weights
        self.w_data = self.rule_data.weights
        self.V_elem = basis.eval(pe)
        self.V_data = basis.eval(pd)
        self.V_hi_elem = basis_hi.eval(pe)
        self.V_hi_data = basis_hi.eval(pd)
        self.Gref_hi_data = basis_hi.eval_grad(pd)
        # physical gradients: grad_x phi = B^{-T} grad_ref phi
        self.G_hi_elem = np.einsum("eij,dqj->edqi", geom.inv_t,
                                   basis_hi.eval_grad(pe))
        self.G_hi_data = np.einsum("eij,dqj->edqi", geom.inv_t,
                                   self.Gref_hi_data)
        # weighted transposed values: moments are one BLAS matmul
        self.VwT_data = (self.V_data * self.w_data).T.copy()
        self.X_elem, self.x_elem_flat, self.y_elem_flat = \
            self._element_points(pe)
        self.X_data, self.x_data_flat, self.y_data_flat = \
            self._element_points(pd)

    def _element_points(self, pts):
        """Physical points (ne, nq, 2) and their flat x and y arrays.

        The flat arrays are reused identically every step, so field
        implementations may cache spatial factors by identity.
        """
        geom = self.geom
        X = np.einsum("eij,qj->eqi", geom.jacobian, pts)
        X += geom.corners[:, None, 0, :]
        return (X, np.ascontiguousarray(X[..., 0]).reshape(-1),
                np.ascontiguousarray(X[..., 1]).reshape(-1))

    # -- face tables ---------------------------------------------------------

    def _build_face_tables(self):
        mesh = self.mesh
        ne = mesh.n_elements
        sf, sd = self.rule_face.points, self.rule_face_data.points
        self.w_face = self.rule_face.weights
        self.w_fdata = self.rule_face_data.weights
        self.Psi_face = self.face_basis.eval(sf)
        self.Psi_fdata = self.face_basis.eval(sd)
        self.Xf_face, self.xf_face_flat, self.yf_face_flat = \
            self._face_points(sf)
        self.Xf_fdata, self.xf_fdata_flat, self.yf_fdata_flat = \
            self._face_points(sd)
        # an element traverses a face against its canonical orientation
        # when its local vertex lf is not the face's first vertex
        aligned = mesh.elements[np.arange(ne)[:, None],
                                np.array([0, 1, 2])[None, :]]
        self.face_aligned = aligned == mesh.faces[mesh.elem_faces][:, :, 0]
        self.Vf_fdata = self._face_values(sd)

    def _face_points(self, s):
        """Physical points (ne, 3, nq, 2) of every element's faces, in the
        canonical parametrization, and their flat x and y arrays."""
        mesh = self.mesh
        va = mesh.vertices[mesh.faces[:, 0]]
        vb = mesh.vertices[mesh.faces[:, 1]]
        xf = va[:, None, :] + s[None, :, None] * (vb - va)[:, None, :]
        Xf = xf[mesh.elem_faces]
        return (Xf, np.ascontiguousarray(Xf[..., 0]).reshape(-1),
                np.ascontiguousarray(Xf[..., 1]).reshape(-1))

    def _face_values(self, s):
        """Element-basis values (ne, 3, d, nq) at the canonical face points:
        s maps to the element's reference coordinates, flipped where the
        element traverses the face against its canonical orientation."""
        ne = self.mesh.n_elements
        ref = reference_face_points(s)[np.arange(3)[None, :],
                                       self.face_aligned.astype(int)]
        Vf = self.elem_basis.eval(ref.reshape(-1, 2)).reshape(
            self.ndof_u, ne, 3, len(s))
        return np.moveaxis(Vf, 0, 2).copy()

    # -- global trace DOF map -------------------------------------------------

    def _build_trace_dofs(self):
        mesh = self.mesh
        nfd = self.ndof_face
        pos = np.cumsum(~mesh.boundary) - 1
        pos[mesh.boundary] = -1
        self.n_trace_dofs = mesh.n_interior_faces * nfd
        fpos = pos[mesh.elem_faces]  # (ne, 3)
        dof = fpos[..., None] * nfd + np.arange(nfd)
        dof[fpos < 0] = -1
        self.trace_dof = dof.reshape(mesh.n_elements, 3 * nfd)

    # -- sampling helpers -----------------------------------------------------

    def sample_scalar(self, fn, t, where="data"):
        """Evaluate fn(x, y, t) at element quadrature points -> (ne, nq)."""
        x = getattr(self, f"x_{where}_flat")
        y = getattr(self, f"y_{where}_flat")
        out = np.asarray(fn(x, y, t), dtype=float)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape)
        return out.reshape(getattr(self, f"X_{where}").shape[:2])

    def sample_vector(self, fn, t, where="data"):
        """Evaluate a vector field at element points -> (ne, nq, 2)."""
        x = getattr(self, f"x_{where}_flat")
        y = getattr(self, f"y_{where}_flat")
        out = np.asarray(fn(x, y, t), dtype=float)
        return out.reshape(getattr(self, f"X_{where}").shape[:2] + (2,))

    def sample_scalar_faces(self, fn, t, where="fdata"):
        """Evaluate fn at per-element face points -> (ne, 3, nq)."""
        x = getattr(self, f"xf_{where}_flat")
        y = getattr(self, f"yf_{where}_flat")
        out = np.asarray(fn(x, y, t), dtype=float)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape)
        return out.reshape(getattr(self, f"Xf_{where}").shape[:3])

    def sample_vector_faces(self, fn, t, where="fdata"):
        x = getattr(self, f"xf_{where}_flat")
        y = getattr(self, f"yf_{where}_flat")
        out = np.asarray(fn(x, y, t), dtype=float)
        return out.reshape(getattr(self, f"Xf_{where}").shape[:3] + (2,))

    def boundary_face_sides(self):
        """(element, local face) pairs of the boundary faces."""
        cached = getattr(self, "_bnd_sides", None)
        if cached is None:
            mesh = self.mesh
            bf = np.nonzero(mesh.boundary)[0]
            cached = (mesh.face_elements[bf, 0], mesh.face_local[bf, 0])
            self._bnd_sides = cached
        return cached
