"""Element-by-element superconvergent reconstruction of the scalar field.

On each element the degree-(k+1) reconstruction u* matches the weak gradient
of the computed flux, (grad u*, grad z) = -(c q_h, grad z) for all zero-mean
z in P^(k+1), and preserves the element mean of u_h.  The orthonormal basis
starts with the constant phi_0, shared by P^k and P^(k+1), and every other
phi_i has zero mean: the mean constraint only says u*_0 = u_0, and the
coefficients u*_1.. solve the stiffness block of phi_1.. alone.  That block
depends only on geometry, so its inverse is built once, from the reference
gradient products and the element metric B^-1 B^-T, and reused for every
member and time level.

For fixed inverse-diffusion samples c_j, u*_1.. is a linear map of the
element's q coefficients, linear in c as well: `operator` builds it from
the samples, `operator_stack` from the members' c through a
`problems.FieldStack`, so for separable c a time level only weights the
maps of the spatial factors, and `apply` applies it.

Purely element-local: changing inputs on one element cannot affect any
other element's output.
"""

import numpy as np

from .local import invert_blocks
from .problems import FieldStack


class Postprocessor:
    """Batched stiffness solves of the mean-preserving gradient recovery."""

    def __init__(self, disc):
        self.disc = disc
        geom, w = disc.geom, disc.w_data
        # phi_0 is constant: only the gradients of phi_1.. enter
        G = disc.Gref_hi_data[1:]
        stiff_ref = np.einsum("q,iqr,jqs->rsij", w, G, G)
        metric = np.matmul(geom.inv, geom.inv_t)
        # both sides of the local problem carry det B, which cancels
        self._stiff_inv = invert_blocks(
            np.einsum("ers,rsij->eij", metric, stiff_ref), "stiffness block")
        # w_q grad_r phi_i(x_q) v_l(x_q) on the reference element
        self._flux_table = np.einsum(
            "q,iqr,lq->qril", w, G, disc.V_data).reshape(len(w), -1)

    def operator(self, c_vals):
        """The linear map (m, ne, d_hi - 1, 2d) from an element's [qx | qy]
        coefficients to u*_1.., for inverse-diffusion samples c_vals
        (m, ne, nq) or (m, ne*nq) at the data-rule points."""
        disc = self.disc
        d, dh = disc.ndof_u, disc.ndof_u_hi
        m, ne = len(c_vals), disc.mesh.n_elements
        A = (c_vals.reshape(-1, len(disc.w_data)) @ self._flux_table
             ).reshape(m, ne, 2, (dh - 1) * d)
        # physical gradients are B^-T times reference ones
        R = np.matmul(disc.geom.inv_t, A).reshape(m, ne, 2, dh - 1, d)
        return -np.matmul(self._stiff_inv,
                          np.concatenate([R[:, :, 0], R[:, :, 1]], axis=-1))

    def operator_stack(self, c_fields):
        """The `operator`s t -> (m, ne, d_hi - 1, 2d) of the inverse
        diffusion fields c_fields at time t, a `problems.FieldStack`."""
        disc = self.disc
        return FieldStack(c_fields, disc.x_data_flat, disc.y_data_flat,
                          self.operator, None)

    def apply(self, u_coeffs, q_coeffs, op):
        """Reconstruct u* for all members and elements.

        u_coeffs (J, ne, d) and q_coeffs (J, ne, 2d) are a state's interior
        fields; op (J, ne, d_hi - 1, 2d) is each member's `operator`.
        Returns (J, ne, d_hi).
        """
        J, ne = u_coeffs.shape[:2]
        star = np.empty((J, ne, self.disc.ndof_u_hi))
        star[..., 0] = u_coeffs[..., 0]
        np.einsum("jeil,jel->jei", op, q_coeffs, out=star[..., 1:])
        return star
