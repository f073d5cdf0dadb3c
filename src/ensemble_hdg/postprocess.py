"""Element-by-element superconvergent reconstruction of the scalar field.

On each element the degree-(k+1) reconstruction u* matches the weak gradient
of the computed flux, (grad u*, grad z) = -(c q_h, grad z) for all zero-mean
z in P^(k+1), and preserves the element mean of u_h.  The constrained local
problem is solved as a saddle/KKT system with one Lagrange multiplier for
the mean constraint; the KKT matrix depends only on geometry, so its inverse
is precomputed once and reused for every member and time level.

For fixed inverse-diffusion samples c_j the reconstruction is a linear map
of the element's [q | u] coefficients.  Postprocessor keeps that map,
(J, ne, d_hi, 3d), for the last samples it was given, and rebuilds it by
GEMMs against a coefficient-free table when the samples change.

Purely element-local: changing inputs on one element cannot affect any
other element's output.
"""

import numpy as np


class Postprocessor:
    """Batched KKT solver for the mean-constrained gradient recovery."""

    def __init__(self, disc):
        self.disc = disc
        dh = disc.ndof_u_hi
        detJ = disc.geom.det
        # stiffness of the degree-(k+1) basis and its element integrals
        K = np.einsum("e,q,eiqc,ejqc->eij", detJ, disc.w_data,
                      disc.G_hi_data, disc.G_hi_data)
        m = np.einsum("e,q,iq->ei", detJ, disc.w_data, disc.V_hi_data)
        kkt = np.zeros((disc.mesh.n_elements, dh + 1, dh + 1))
        kkt[:, :dh, :dh] = K
        kkt[:, :dh, dh] = m
        kkt[:, dh, :dh] = m
        try:
            self.kkt_inv = np.linalg.inv(kkt)
        except np.linalg.LinAlgError:
            ranks = np.linalg.matrix_rank(kkt)
            bad = int(np.argmax(ranks < dh + 1))
            raise RuntimeError(
                f"singular postprocessing system on element {bad} "
                "(degenerate triangle?)") from None
        mean_weights = np.einsum("e,q,iq->ei", detJ, disc.w_data,
                                 disc.V_data)
        # u enters only through the mean constraint: a coefficient-free map
        self._u_map = self.kkt_inv[:, :dh, dh, None] * mean_weights[:, None]
        # w_q grad_r phi_i(x_q) v_l(x_q) on the reference element
        nq = len(disc.w_data)
        self._flux_table = np.einsum(
            "q,iqr,lq->qril", disc.w_data, disc.Gref_hi_data,
            disc.V_data).reshape(nq, 2 * dh * disc.ndof_u)
        self._c_key = None
        self._op = None

    def operator(self, c_vals):
        """The linear map (J, ne, d_hi, 3d) from [q | u] to u*.

        c_vals (J, ne, nq) samples each member's own inverse diffusion at
        the data-rule points.  Cached for the last samples seen.
        """
        key = self._c_key
        if key is not None and key.shape == c_vals.shape and \
                np.array_equal(key, c_vals):
            return self._op
        disc = self.disc
        d, dh = disc.ndof_u, disc.ndof_u_hi
        J, ne, nq = c_vals.shape
        geom = disc.geom
        A = (c_vals.reshape(J * ne, nq) @ self._flux_table).reshape(
            J, ne, 2, dh * d)
        # -(c q, grad z): physical gradients are B^-T times reference ones
        R = np.matmul(geom.inv_t, A)
        R *= -geom.det[None, :, None, None]
        K = self.kkt_inv[None, :, :dh, :dh]
        op = np.empty((J, ne, dh, 3 * d))
        for comp in range(2):
            op[..., comp * d:(comp + 1) * d] = np.matmul(
                K, R[:, :, comp].reshape(J, ne, dh, d))
        op[..., 2 * d:] = self._u_map
        self._c_key = np.array(c_vals, dtype=float)
        self._op = op
        return op

    def apply(self, u_coeffs, q_coeffs, c_vals):
        """Reconstruct u* for all members and elements.

        u_coeffs (J, ne, d) and q_coeffs (J, ne, 2d) are a state's interior
        fields; c_vals (J, ne, nq) samples each member's own inverse
        diffusion at the data-rule points.  Returns (J, ne, d_hi).
        """
        x = np.concatenate([q_coeffs, u_coeffs], axis=-1)
        return np.matmul(self.operator(c_vals), x[..., None])[..., 0]

