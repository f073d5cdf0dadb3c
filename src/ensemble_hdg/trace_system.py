"""Global system on the interior-face trace DOFs, condensed leaf by leaf.

The trace matrix is the sum of per-element Schur complements on the global
trace DOFs (interior faces only, in the Discretization's nested-dissection
order, face-local modes innermost).  It is never assembled whole: each
element's block adds into the dense block K of its nested-dissection
leaf (`discretization.TraceLeaves`), whose rows are the leaf's interior
DOFs I and the separator DOFs B its elements touch.  A factorization
eliminates every leaf's interior at once, the bottom level of the
dissection's LU: one batched LAPACK inverse of the K_II, then
X = K_II⁻¹K_IB and H = K_BI K_II⁻¹, and the separator matrix, the sum of
the leaves' K_BB - K_BI X, is factorized by a sparse direct LU (SuperLU
via scipy) in the separators' trace order.  A solve reduces the RHS onto
the separators, r = b_B - Σ H b_I, solves all J columns at once and
recovers t_I = K_II⁻¹b_I - X t_B.  A factorization is read-only after
construction: concurrent solves against distinct RHS columns are safe.
Which coefficients a system stands for is its owner's record:
`EnsembleSolver` keeps one while the mean weights it was built from stay.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class TraceSystem:
    """The leaf blocks of the trace matrix plus their factorization.

    blocks (L, P, P) holds the leaf blocks K until `factorize` condenses
    them and lets them go; schur holds the element blocks they were summed
    from, which `residual` sums again.
    """

    def __init__(self, disc, schur, blocks):
        self.schur, self.blocks = schur, blocks
        self.leaves = disc.trace_leaves
        self.n_dofs = disc.n_trace_dofs
        # bench/tracing.py reads `backend` and swaps `_solver`, the
        # separators' SuperLU object, after every factorization
        self._solver = None
        self.backend = None

    def factorize(self):
        """Condense every leaf onto the separators and factorize them;
        returns self (the solve handle)."""
        leaves = self.leaves
        self._reduce, self._recover, data = self._condense()
        ns = len(leaves.separators)
        matrix = sp.csc_matrix((data, *leaves.pattern[1:]), shape=(ns, ns))
        # nested-dissection DOFs: the separators need no ordering either
        try:
            self._solver = spla.splu(matrix, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise RuntimeError(
                f"trace matrix factorization failed: {exc}") from exc
        self.backend = "splu"
        return self

    def _condense(self):
        """Eliminate the leaves' interiors, letting the blocks go: [K_II⁻¹;
        H], which takes a leaf's interior RHS to both its parts at once,
        X, and the CSC data of the separator matrix."""
        K, self.blocks = self.blocks, None
        ni = self.leaves.interior.shape[1]
        K_II, K_IB, K_BI = K[:, :ni, :ni], K[:, :ni, ni:], K[:, ni:, :ni]
        try:
            inv = np.linalg.inv(K_II)
        except np.linalg.LinAlgError:
            raise RuntimeError(
                "trace matrix factorization failed: singular leaf block of "
                f"elements {self._singular_leaf(K_II)}") from None
        X = inv @ K_IB
        slot, indices, _ = self.leaves.pattern
        data = np.bincount(slot, weights=(K[:, ni:, ni:] - K_BI @ X).reshape(
            -1), minlength=len(indices) + 1)[:-1]
        return np.concatenate([inv, K_BI @ inv], axis=1), X, data

    def _singular_leaf(self, K_II):
        """The elements of the first leaf whose interior block LAPACK
        cannot invert."""
        for leaf, block in enumerate(K_II):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError:
                return np.flatnonzero(self.leaves.leaf == leaf).tolist()

    def solve_multi(self, rhs):
        """Solve against a block of RHS columns, shape (n_dofs, J).

        Columns are independent.
        """
        if self._solver is None:
            raise RuntimeError("factorize() must be called before solving")
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n_dofs:
            raise ValueError(
                f"rhs has {rhs.shape[0]} rows, system has {self.n_dofs}")
        leaves, J = self.leaves, rhs.shape[1]
        ni = leaves.interior.shape[1]
        parts = self._reduce @ rhs[leaves.interior]
        t_B = self._solver.solve(rhs[leaves.separators] - leaves.scatter @
                                 parts[:, ni:].reshape(-1, J))
        t_I = parts[:, :ni] - self._recover @ t_B[leaves.boundary]
        return self._place(t_I, t_B)

    def _place(self, x_I, x_B):
        """The trace vector (n_dofs, J) of interior rows x_I (L, nI, J) and
        separator values x_B (ns, J)."""
        J = x_B.shape[1]
        return np.concatenate([x_I.reshape(-1, J), x_B])[self.leaves.order]

    def residual(self, x, rhs):
        """Relative residual ||Ax - b|| / ||b|| column-wise of the whole
        trace system, A applied leaf block by leaf block."""
        leaves = self.leaves
        ni = leaves.interior.shape[1]
        Kx = _leaf_blocks(leaves, self.schur) @ np.concatenate(
            [x[leaves.interior], x[leaves.separators][leaves.boundary]],
            axis=1)
        Ax = self._place(Kx[:, :ni], leaves.scatter @ Kx[:, ni:].reshape(
            -1, x.shape[1]))
        num = np.linalg.norm(Ax - rhs, axis=0)
        den = np.linalg.norm(rhs, axis=0)
        return num / np.where(den > 0, den, 1.0)


def _leaf_blocks(leaves, schur):
    """The leaf blocks (L, P, P) of element Schur blocks schur, with a
    unit diagonal on padding."""
    L = len(leaves.interior)
    P = leaves.interior.shape[1] + leaves.boundary.shape[1]
    blocks = np.bincount(leaves.assembly, weights=schur.reshape(-1),
                         minlength=L * P * P + 1)[:-1]
    blocks[leaves.pad] = 1.0
    return blocks.reshape(L, P, P)


def assemble_trace_matrix(disc, schur):
    """Sum batched element Schur blocks into the leaf blocks of the trace
    matrix.

    schur has shape (ne, T, T) with T = 3 * (k+1); rows/columns mapped to
    boundary faces are dropped.  The blocks are (L, P, P) on the
    discretization's `trace_leaves`; the system keeps schur, unchanged,
    for its residual.
    """
    ne, T, T2 = schur.shape
    if ne != disc.mesh.n_elements or T != T2 or \
            T != disc.trace_dof.shape[1]:
        raise ValueError("schur block shape does not match the mesh/degree")
    return TraceSystem(disc, schur, _leaf_blocks(disc.trace_leaves, schur))
