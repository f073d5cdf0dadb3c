"""Global sparse system on the interior-face trace DOFs.

The trace matrix is the scatter of per-element Schur complements onto the
global trace DOFs (interior faces only, in the Discretization's
nested-dissection order, face-local modes innermost).  Its sparsity
pattern is the Discretization's `trace_pattern`, built once with the DOF
numbering; assembly only sums the Schur entries into it.  It is factorized
by a sparse direct LU (SuperLU via scipy) in that order, and one
factorization solves all J right-hand sides at once.  A factorization is
read-only after construction: concurrent solves against distinct RHS
columns are safe.  Which coefficients a system stands for is its owner's
record: `EnsembleSolver` keeps one while the mean weights it was built
from stay.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class TraceSystem:
    """Assembled trace matrix plus its factorization."""

    def __init__(self, disc, matrix):
        self.matrix = matrix
        self.n_dofs = disc.n_trace_dofs
        # bench/tracing.py reads `backend` and swaps `_solver`, the SuperLU
        # object, after every factorization
        self._solver = None
        self.backend = None

    def factorize(self):
        """Factorize the matrix; returns self (the solve handle)."""
        # nested-dissection DOFs: 0.69x the fill of MMD on A^T + A at n=64
        try:
            self._solver = spla.splu(self.matrix.tocsc(),
                                     permc_spec="NATURAL")
        except RuntimeError as exc:
            raise RuntimeError(
                f"trace matrix factorization failed: {exc}") from exc
        self.backend = "splu"
        return self

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
        return self._solver.solve(rhs)

    def residual(self, x, rhs):
        """Relative residual ||Ax - b|| / ||b|| column-wise."""
        num = np.linalg.norm(self.matrix @ x - rhs, axis=0)
        den = np.linalg.norm(rhs, axis=0)
        return num / np.where(den > 0, den, 1.0)


def assemble_trace_matrix(disc, schur):
    """Scatter batched element Schur blocks into the global trace matrix.

    schur has shape (ne, T, T) with T = 3 * (k+1); rows/columns mapped to
    boundary faces are dropped.  The matrix is CSC, the format the LU
    reads, on the discretization's `trace_pattern`.
    """
    ne, T, T2 = schur.shape
    if ne != disc.mesh.n_elements or T != T2 or \
            T != disc.trace_dof.shape[1]:
        raise ValueError("schur block shape does not match the mesh/degree")
    take, slot, indices, indptr = disc.trace_pattern
    data = np.bincount(slot, weights=schur.reshape(-1)[take],
                       minlength=len(indices))
    n = disc.n_trace_dofs
    mat = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    return TraceSystem(disc, mat)
