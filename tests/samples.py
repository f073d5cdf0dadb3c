"""The coefficient kernels applied to samples instead of modes.

The library builds its blocks and lag operators from the images of shared
spatial modes and their weights.  A set of samples is itself a mode set:
one c-mode and one velocity mode of weight 1 for a mean, and for J
members' deviations one mode per member with the identity as weights.
"""

import numpy as np

from ensemble_hdg.local import (assemble_all_blocks, beta_terms, c_terms,
                                rhs_operators)


def images(disc, tables, c, b, b_face):
    """The `c_terms` and `beta_terms` images of samples c (m, ne, nq),
    b (m, ne, nq, 2) and b_face (m, ne, 3, nqf, 2) against the
    `RHSTables` tables."""
    m = len(c)
    vel = np.concatenate([b.reshape(m, -1, 2), b_face.reshape(m, -1, 2)],
                         axis=1)
    return (c_terms(disc, tables, c.reshape(m, -1)),
            beta_terms(disc, tables, vel))


def sampled_blocks(disc, tables, c, b, b_face):
    """`assemble_all_blocks` of the mean samples c (ne, nq), b (ne, nq, 2)
    and b_face (ne, 3, nqf, 2): the structured blocks (M, A, A_TI)."""
    c_img, b_img = images(disc, tables.lag, c[None], b[None], b_face[None])
    return assemble_all_blocks(disc, tables, (np.ones(1), c_img),
                               (np.ones(1), b_img))


def dense_blocks(tables, M, A, A_TI):
    """The dense local blocks (A_II, A_IT, A_TI, A_TT) of the structured
    blocks of `assemble_all_blocks`: A_II = [[I₂⊗M, -C], [Cᵀ, A]]."""
    ne, d = M.shape[:2]
    A_II = np.zeros((ne, 3 * d, 3 * d))
    for comp in range(2):
        rows = slice(comp * d, (comp + 1) * d)
        A_II[:, rows, rows] = M
        A_II[:, rows, 2 * d:] = -tables.C[:, rows]
        A_II[:, 2 * d:, rows] = np.swapaxes(tables.C[:, rows], 1, 2)
    A_II[:, 2 * d:, 2 * d:] = A
    return A_II, tables.A_IT, A_TI, tables.A_TT


def sampled_rhs_operators(disc, tables, c_dev, b_dev, b_dev_face):
    """`rhs_operators` of J members' deviation samples c_dev (J, ne, nq),
    b_dev (J, ne, nq, 2) and b_dev_face (J, ne, 3, nqf, 2) against the
    `BlockTables` tables."""
    eye = np.eye(len(c_dev))
    c_img, b_img = images(disc, tables.lag, c_dev, b_dev, b_dev_face)
    return rhs_operators(disc, tables, (eye, c_img), (eye, b_img), None)
