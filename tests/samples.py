"""The coefficient kernels applied to samples instead of modes.

The library builds its blocks and lag operators from the terms of shared
spatial modes and their weights.  A set of samples is itself a mode set:
one c-mode and one velocity mode of weight 1 for a mean, and for J
members' deviations one mode per member with the identity as weights.
"""

import numpy as np

from ensemble_hdg.local import ModeTerms, assemble_all_blocks, rhs_operators


def sampled_blocks(disc, tables, c, b, b_face):
    """`assemble_all_blocks` of the mean samples c (ne, nq), b (ne, nq, 2)
    and b_face (ne, 3, nqf, 2)."""
    terms = ModeTerms(disc, tables.lag, c[None], b[None], b_face[None])
    return assemble_all_blocks(disc, tables, terms, np.ones(2))


def sampled_rhs_operators(disc, tables, dt, c_dev, b_dev, b_dev_face):
    """`rhs_operators` of J members' deviation samples c_dev (J, ne, nq),
    b_dev (J, ne, nq, 2) and b_dev_face (J, ne, 3, nqf, 2) against the
    `RHSTables` tables."""
    J = len(c_dev)
    terms = ModeTerms(disc, tables, c_dev, b_dev, b_dev_face)
    return rhs_operators(disc, terms, dt, np.hstack([np.eye(J)] * 2))
