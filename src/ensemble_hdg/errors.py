"""Error norms and the trajectory-accumulating error observer.

Error metrics follow the convergence-study conventions: the scalar error is
the final-time L2 norm ||u_j(T) - u_jh^N||, while the flux and postprocessed
errors accumulate over the trajectory,

    Eq   = sqrt( dt * sum_n ||q_j^n  - q_jh^n ||^2 )
    Eu*  = sqrt( dt * sum_n ||u_j^n  - u_jh^n*||^2 )

with all norms the elementwise quadrature at the data rule (order 2k+4),
for all members at once.  The observer works in coefficient space.  The
bases are orthonormal and the data rule is exact for their products, so
with Pi the data-rule L2 projection onto the discrete space of v_h (P_k
for q, P_(k+1) for u*) the norm splits exactly,

    ||v - v_h||^2 = ||v - Pi v||^2 + ||Pi v - v_h||^2,

where the second term is a sum of squared coefficient differences
weighted by the element Jacobians.  The exact fields go through
`problems.FieldStack` evaluators bound to the data rule: for separable
fields Pi of each spatial factor and the Gram matrix of the factors'
residuals are built once, so a step evaluates only the time factors.
The postprocessed field comes from the Postprocessor's linear maps of q,
which are linear in c: `Postprocessor.operator_stack` builds them through
a third FieldStack, so for separable c a step only weights the maps of
the spatial factors, whether c depends on time or not.  Eu is taken
once, at the final step, from the point samples of the state.
"""

import numpy as np

from .postprocess import Postprocessor
from .problems import FieldStack, vector_components
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


def _projection(disc, V):
    """The data-rule L2 projection onto the element basis V (dm, nq) and
    its weighted residual, as the `project` and `residual` maps of a
    `FieldStack` on the flat data-rule points."""
    ne = disc.mesh.n_elements
    VwT = (V * disc.w_data).T
    root_w = np.sqrt(disc.geom.det)[:, None] * np.sqrt(disc.w_data)

    def project(samples):
        return samples.reshape(len(samples), ne, -1) @ VwT

    def residual(samples):
        s = samples.reshape(len(samples), ne, -1)
        return ((s - (s @ VwT) @ V) * root_w).reshape(len(samples), -1)

    return project, residual


class ErrorAccumulator:
    """Observer collecting Eu (final time), Eq and Eu* (time-accumulated).

    Postprocessing runs at every accepted step; each member's own inverse
    diffusion at that step weights its flux, through `ustar_map(t)`.  Eu
    is taken at step `final_step`; `results` fails if that step was never
    observed.
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
        self.eu_final = None
        self.last_step = None
        self.post = Postprocessor(disc)
        x, y = disc.x_data_flat, disc.y_data_flat
        self._u = FieldStack([m.exact_u for m in spec.members], x, y,
                             *_projection(disc, disc.V_hi_data))
        self._q = FieldStack(
            [c for m in spec.members for c in vector_components(m.exact_q)],
            x, y, *_projection(disc, disc.V_data))
        self.ustar_map = self.post.operator_stack(
            [m.c for m in spec.members])

    def __call__(self, n, t, state):
        disc, J = self.disc, self.spec.J
        det = disc.geom.det
        ne, d = disc.mesh.n_elements, disc.ndof_u
        pu, res_u = self._u.split(t)
        pq, res_q = self._q.split(t)
        # the components come member by member, (J, 2, ne, d), and the
        # state holds them as (J, ne, [qx | qy])
        dq = pq.reshape(J, 2, ne, d) - np.swapaxes(
            state.q.reshape(J, ne, 2, d), 1, 2)
        self.eq_sq += self.dt * (res_q[::2] + res_q[1::2] + np.einsum(
            "jcei,jcei,e->j", dq, dq, det))
        du = pu - self.post.apply(state.u, state.q, self.ustar_map(t))
        self.eustar_sq += self.dt * (res_u + np.einsum(
            "jei,jei,e->j", du, du, det))
        if n == self.final_step:
            # u_h lies in P_(k+1) too: the split holds with the same Pi u
            s = state_samples(disc, state)
            self.eu_final = np.sqrt(res_u + l2_norm_squared(
                disc, pu @ disc.V_hi_data - s["u"]))
        self.last_step = n

    def results(self):
        if self.eu_final is None:
            raise ValueError(
                f"final_step {self.final_step} was never observed; the "
                f"last step seen was {self.last_step}")
        return {"Eu": self.eu_final.copy(), "Eq": np.sqrt(self.eq_sq),
                "Eustar": np.sqrt(self.eustar_sq)}
