"""Error norms and the trajectory-accumulating error observer.

Error metrics follow the convergence-study conventions: the scalar error is
the final-time L2 norm ||u_j(T) - u_jh^N||, while the flux and postprocessed
errors accumulate over the trajectory,

    Eq   = sqrt( dt * sum_n ||q_j^n  - q_jh^n ||^2 )
    Eu*  = sqrt( dt * sum_n ||u_j^n  - u_jh^n*||^2 )

with all norms computed by elementwise quadrature at the data rule
(order 2k+4) of the pointwise differences, for all members at once.  The
postprocessed field comes from the Postprocessor's cached linear map of
[q | u]; it is keyed on the inverse-diffusion samples, which are taken
once for autonomous coefficients and at every step otherwise.
"""

import numpy as np

from .postprocess import Postprocessor
from .problems import stack_separable_fields, vector_components
from .solver import state_samples


def l2_norm_squared(disc, vals):
    """Elementwise quadrature of ||field||^2 from data-rule point values.

    vals may be (..., ne, nq) for scalars or (..., ne, nq, 2) for vectors;
    leading axes are preserved.
    """
    w = disc.w_data
    sq = vals ** 2
    if vals.shape[-1] == 2 and vals.ndim >= 3 and vals.shape[-2] == len(w):
        # components innermost: one product with the repeated weights
        sq = sq.reshape(vals.shape[:-2] + (-1,))
        w = np.repeat(w, 2)
    return (sq @ w) @ disc.geom.det


class ErrorAccumulator:
    """Observer collecting Eu (final time), Eq and Eu* (time-accumulated).

    Postprocessing runs at every accepted step; each member's own inverse
    diffusion weights its flux (re-sampled per step only for
    non-autonomous coefficients).  Eu is taken at step `final_step`.
    """

    def __init__(self, disc, spec, dt, final_step):
        for j, m in enumerate(spec.members, 1):
            if m.exact_u is None or m.exact_q is None:
                raise ValueError(f"member {j} has no exact solution")
        self.disc = disc
        self.spec = spec
        self.dt = dt
        self.final_step = final_step
        self.eq_sq = np.zeros(spec.J)
        self.eustar_sq = np.zeros(spec.J)
        self.eu_final = np.zeros(spec.J)
        self.post = Postprocessor(disc)
        self.V_hi = disc.V_hi_data
        x, y = disc.x_data_flat, disc.y_data_flat
        fields = [m.exact_u for m in spec.members]
        for m in spec.members:
            fields += vector_components(m.exact_q)
        self._exact = stack_separable_fields(fields, x, y)
        self._c = stack_separable_fields([m.c for m in spec.members], x, y)
        self._c_vals = self._sample_c(0.0) if spec.autonomous else None

    def _sample_c(self, t):
        return self._c(t).reshape(self.spec.J, self.disc.mesh.n_elements, -1)

    def __call__(self, n, t, state):
        disc, spec = self.disc, self.spec
        s = state_samples(disc, state)
        X = disc.X_data
        J = spec.J
        ex = self._exact(t)
        ue = ex[:J].reshape(J, *X.shape[:2])
        qe = np.stack([ex[J::2], ex[J + 1::2]],
                      axis=-1).reshape(J, *X.shape[:2], 2)
        self.eq_sq += self.dt * l2_norm_squared(disc, s["q"] - qe)
        c_vals = self._c_vals if spec.autonomous else self._sample_c(t)
        star = self.post.apply(state.u, state.q, c_vals)
        self.eustar_sq += self.dt * l2_norm_squared(
            disc, star @ self.V_hi - ue)
        if n == self.final_step:
            self.eu_final = np.sqrt(l2_norm_squared(disc, s["u"] - ue))

    def results(self):
        return {"Eu": self.eu_final.copy(), "Eq": np.sqrt(self.eq_sq),
                "Eustar": np.sqrt(self.eustar_sq)}
