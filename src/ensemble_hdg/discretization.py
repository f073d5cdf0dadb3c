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
        for tag, rule in (("elem", self.rule_elem), ("data", self.rule_data)):
            pts = rule.points
            V = self.elem_basis.eval(pts)
            G = self.elem_basis.eval_grad(pts)
            Vh = self.elem_basis_hi.eval(pts)
            Gh = self.elem_basis_hi.eval_grad(pts)
            setattr(self, f"V_{tag}", V)
            setattr(self, f"V_hi_{tag}", Vh)
            setattr(self, f"Gref_{tag}", G)
            setattr(self, f"Gref_hi_{tag}", Gh)
            # physical gradients: grad_x phi = B^{-T} grad_ref phi
            setattr(self, f"G_{tag}",
                    np.einsum("eij,dqj->edqi", geom.inv_t, G))
            setattr(self, f"G_hi_{tag}",
                    np.einsum("eij,dqj->edqi", geom.inv_t, Gh))
            X = np.einsum("eij,qj->eqi", geom.jacobian, pts)
            X += geom.corners[:, None, 0, :]
            setattr(self, f"X_{tag}", X)
            # stable flat coordinate arrays: reused identically every step so
            # field implementations may cache spatial factors by identity
            setattr(self, f"x_{tag}_flat", np.ascontiguousarray(X[..., 0]).reshape(-1))
            setattr(self, f"y_{tag}_flat", np.ascontiguousarray(X[..., 1]).reshape(-1))
            setattr(self, f"w_{tag}", rule.weights)
            # weighted transposed values: moments are one BLAS matmul
            setattr(self, f"VwT_{tag}", (V * rule.weights).T.copy())
            nq = len(rule.weights)
            setattr(self, f"Gflat_{tag}", np.ascontiguousarray(
                getattr(self, f"G_{tag}").reshape(-1, V.shape[0], 2 * nq)))
            setattr(self, f"Gflat_hi_{tag}", np.ascontiguousarray(
                getattr(self, f"G_hi_{tag}").reshape(-1, Vh.shape[0],
                                                     2 * nq)))

    # -- face tables ---------------------------------------------------------

    def _build_face_tables(self):
        mesh = self.mesh
        ne = mesh.n_elements
        for tag, rule in (("face", self.rule_face),
                          ("fdata", self.rule_face_data)):
            s = rule.points
            nq = len(s)
            setattr(self, f"Psi_{tag}", self.face_basis.eval(s))
            setattr(self, f"w_{tag}", rule.weights)

            # physical quadrature points per face, canonical parametrization
            va = mesh.vertices[mesh.faces[:, 0]]
            vb = mesh.vertices[mesh.faces[:, 1]]
            xf = va[:, None, :] + s[None, :, None] * (vb - va)[:, None, :]
            Xf = xf[mesh.elem_faces]  # (ne, 3, nq, 2)
            setattr(self, f"Xf_{tag}", Xf)
            setattr(self, f"xf_{tag}_flat",
                    np.ascontiguousarray(Xf[..., 0]).reshape(-1))
            setattr(self, f"yf_{tag}_flat",
                    np.ascontiguousarray(Xf[..., 1]).reshape(-1))

            # element-basis values at the canonical face points: map s to the
            # element's reference coordinates, flipping when the element
            # traverses the face against its canonical orientation
            aligned = mesh.elements[np.arange(ne)[:, None],
                                    np.array([0, 1, 2])[None, :]]
            aligned = aligned == mesh.faces[mesh.elem_faces][:, :, 0]
            self.face_aligned = aligned
            ref = reference_face_points(s)[np.arange(3)[None, :],
                                           aligned.astype(int)]
            flat = ref.reshape(-1, 2)
            Vf = self.elem_basis.eval(flat).reshape(self.ndof_u, ne, 3, nq)
            Vfh = self.elem_basis_hi.eval(flat).reshape(
                self.ndof_u_hi, ne, 3, nq)
            setattr(self, f"Vf_{tag}", np.moveaxis(Vf, 0, 2).copy())
            setattr(self, f"Vf_hi_{tag}", np.moveaxis(Vfh, 0, 2).copy())

    # -- global trace DOF map -------------------------------------------------

    def _build_trace_dofs(self):
        mesh = self.mesh
        nfd = self.ndof_face
        pos = np.cumsum(~mesh.boundary) - 1
        pos[mesh.boundary] = -1
        self.interior_face_pos = pos
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
