"""The trajectory-accumulating error observer.

Error metrics follow the convergence-study conventions: the scalar error is
the final-time L2 norm ||u_j(T) - u_jh^N||, while the flux and postprocessed
errors accumulate over the trajectory,

    Eq   = sqrt( dt * sum_n ||q_j^n  - q_jh^n ||^2 )
    Eu*  = sqrt( dt * sum_n ||u_j^n  - u_jh^n*||^2 )

with all norms the elementwise quadrature at the data rule (order 2k+4),
for all members at once.  The observer works in coefficient space.  With
Pi the data-rule L2 projection onto the discrete space of v_h (P_k for
q, P_(k+1) for u* and for u), `local.projection`, which solves with the
mass, the norm splits exactly,

    ||v - v_h||^2 = ||v - Pi v||^2 + ||Pi v - v_h||^2,

where the second term is a sum of squared coefficient differences
weighted by the element Jacobians, the bases being orthonormal.  The
exact fields go through `problems.FieldStack` evaluators bound to the
data rule, q as a stack of vector fields: for separable fields Pi of
each spatial factor (e_x S or e_y S for q) and the Gram matrix of the
factors' residuals are built once, and a step evaluates only T_i(t).
The postprocessed field comes from the Postprocessor's linear maps of q,
which are linear in c: `Postprocessor.operator_stack` builds them through
a third FieldStack, so for separable c a step only weights the maps of
the spatial factors, whether c depends on time or not.  Eu is taken
once, at the final step, with the Pi u of Eu*: u_h lies in P_k, and its
coefficients are the leading ones of P_(k+1)'s hierarchical basis.
"""

import numpy as np

from .local import projection
from .postprocess import Postprocessor
from .problems import FieldStack
from .solver import state_samples

# re-exported only for the benchmark's tracer, which patches it here by name
__all__ = ["ErrorAccumulator", "state_samples"]


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
                             *projection(disc, disc.V_hi_data), "exact_u")
        self._q = FieldStack([m.exact_q for m in spec.members], x, y,
                             *projection(disc, disc.V_data), "exact_q")
        self.ustar_map = self.post.operator_stack(
            [m.c for m in spec.members])

    def __call__(self, n, t, state):
        disc, J = self.disc, self.spec.J
        det = disc.geom.det
        ne, d = disc.mesh.n_elements, disc.ndof_u
        pu, res_u = self._u.split(t)
        pq, res_q = self._q.split(t)
        # the projection is (J, 2, ne, d), the state (J, ne, [qx | qy])
        dq = pq - np.swapaxes(state.q.reshape(J, ne, 2, d), 1, 2)
        self.eq_sq += self.dt * (res_q + np.einsum(
            "jcei,jcei,e->j", dq, dq, det))
        du = pu - self.post.apply(state.u, state.q, self.ustar_map(t))
        self.eustar_sq += self.dt * (res_u + np.einsum(
            "jei,jei,e->j", du, du, det))
        if n == self.final_step:
            du = pu.copy()
            du[..., :d] -= state.u
            self.eu_final = np.sqrt(res_u + np.einsum(
                "jei,jei,e->j", du, du, det))
        self.last_step = n

    def results(self):
        if self.eu_final is None:
            raise ValueError(
                f"final_step {self.final_step} was never observed; the "
                f"last step seen was {self.last_step}")
        return {"Eu": self.eu_final.copy(), "Eq": np.sqrt(self.eq_sq),
                "Eustar": np.sqrt(self.eustar_sq)}
