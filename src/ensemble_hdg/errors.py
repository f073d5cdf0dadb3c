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


def exact_field_values(disc, fn, t, vector=False):
    """Sample an exact field at the data-rule points of every element."""
    X = disc.X_data
    x, y = disc.x_data_flat, disc.y_data_flat
    out = np.asarray(fn(x, y, t), dtype=float)
    if vector:
        return out.reshape(X.shape[:2] + (2,))
    return np.broadcast_to(out, x.shape).reshape(X.shape[:2])


class ErrorAccumulator:
    """Observer collecting Eu (final time), Eq and Eu* (time-accumulated).

    Postprocessing runs at every accepted step; each member's own inverse
    diffusion weights its flux (re-sampled per step only for
    non-autonomous coefficients).
    """

    def __init__(self, disc, spec, dt, postprocess=True, final_step=None):
        self.disc = disc
        self.spec = spec
        self.dt = dt
        self.with_post = postprocess
        self.final_step = final_step
        self.eq_sq = np.zeros(spec.J)
        self.eustar_sq = np.zeros(spec.J)
        self.eu_final = np.zeros(spec.J)
        if postprocess:
            self.post = Postprocessor(disc)
            self._c_vals = self._sample_c(0.0) if spec.autonomous else None
        self.V_hi = disc.V_hi_data
        # joint evaluation of the exact fields when they are separable
        from .problems import VectorField, stack_separable_fields

        fields = [m.exact_u for m in spec.members]
        for m in spec.members:
            if isinstance(m.exact_q, VectorField):
                fields += [m.exact_q.fx, m.exact_q.fy]
        self._exact_stack = None
        if len(fields) == 3 * spec.J:
            self._exact_stack = stack_separable_fields(
                fields, disc.x_data_flat, disc.y_data_flat)

    def _sample_c(self, t):
        return np.stack([self.disc.sample_scalar(m.c, t, "data")
                         for m in self.spec.members])

    def __call__(self, n, t, state):
        disc, spec = self.disc, self.spec
        s = state_samples(disc, state)
        X = disc.X_data
        J = spec.J
        if self._exact_stack is not None:
            ex = self._exact_stack(t)
            ue = ex[:J].reshape(J, *X.shape[:2])
            qe = np.stack([ex[J::2], ex[J + 1::2]],
                          axis=-1).reshape(J, *X.shape[:2], 2)
        else:
            ue = np.stack([exact_field_values(disc, m.exact_u, t)
                           for m in spec.members])
            qe = np.stack([exact_field_values(disc, m.exact_q, t,
                                              vector=True)
                           for m in spec.members])
        self.eq_sq += self.dt * l2_norm_squared(disc, s["q"] - qe)
        if self.with_post:
            c_vals = self._c_vals if spec.autonomous else self._sample_c(t)
            star = self.post.apply(state.u, state.q, c_vals)
            self.eustar_sq += self.dt * l2_norm_squared(
                disc, star @ self.V_hi - ue)
        if self.final_step is None or n == self.final_step:
            self.eu_final = np.sqrt(l2_norm_squared(disc, s["u"] - ue))

    def results(self):
        out = {"Eu": self.eu_final.copy(), "Eq": np.sqrt(self.eq_sq)}
        if self.with_post:
            out["Eustar"] = np.sqrt(self.eustar_sq)
        return out
