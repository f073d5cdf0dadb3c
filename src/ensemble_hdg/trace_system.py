"""Global sparse system on the interior-face trace DOFs.

The trace matrix is the scatter of per-element Schur complements onto the
global trace DOFs (interior faces only; canonical face order, face-local
modes innermost).  It is factorized by a sparse direct LU (SuperLU via
scipy, minimum-degree ordering on A^T + A), and one factorization solves
all J right-hand sides at once.  A factorization is read-only after
construction: concurrent solves against distinct RHS columns are safe.
"""

import hashlib

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class TraceSystem:
    """Assembled trace matrix plus its factorization and fingerprint."""

    def __init__(self, disc, matrix, fingerprint):
        self.matrix = matrix
        self.fingerprint = fingerprint
        self.n_dofs = disc.n_trace_dofs
        # bench/tracing.py reads `backend` and swaps `_solver`, the SuperLU
        # object, after every factorization
        self._solver = None
        self.backend = None

    def factorize(self):
        """Factorize the matrix; returns self (the solve handle)."""
        # minimum degree on A^T + A: the trace matrix is structurally
        # symmetric, and this ordering gave less fill and faster
        # factorizations and solves than the default COLAMD
        try:
            self._solver = spla.splu(self.matrix.tocsc(),
                                     permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise RuntimeError(
                f"trace matrix factorization failed: {exc}") from exc
        self.backend = "splu"
        return self

    def solve_multi(self, rhs, fingerprint):
        """Solve against a block of RHS columns, shape (n_dofs, J).

        Columns are independent.  fingerprint is the coefficient
        fingerprint the caller believes current: a solve against a matrix
        built from other coefficients is rejected.
        """
        if self._solver is None:
            raise RuntimeError("factorize() must be called before solving")
        if fingerprint != self.fingerprint:
            raise ValueError(
                "trace-system fingerprint mismatch: the factorization was "
                "built from different coefficients")
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


def _trace_pattern(disc):
    """CSC structure of the trace matrix and the map that fills it.

    Returns (take, slot, indices, indptr): the flat schur entries at
    `take` lie on interior-face DOFs, and entry i of them adds into
    nonzero slot[i] of the sorted, duplicate-free CSC arrays.  Cached on
    the discretization.
    """
    cached = getattr(disc, "_trace_pattern", None)
    if cached is not None:
        return cached
    dof = disc.trace_dof
    ne, T = dof.shape
    n = disc.n_trace_dofs
    rows = np.broadcast_to(dof[:, :, None], (ne, T, T)).ravel()
    cols = np.broadcast_to(dof[:, None, :], (ne, T, T)).ravel()
    take = np.flatnonzero((rows >= 0) & (cols >= 0))
    keys, slot = np.unique(cols[take].astype(np.int64) * n + rows[take],
                           return_inverse=True)
    # SuperLU takes C-int indices
    indices = (keys % n).astype(np.intc)
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    cached = (take, slot, indices, indptr)
    for arr in cached:
        arr.flags.writeable = False
    disc._trace_pattern = cached
    return cached


def assemble_trace_matrix(disc, schur, fingerprint):
    """Scatter batched element Schur blocks into the global trace matrix.

    schur has shape (ne, T, T) with T = 3 * (k+1); rows/columns mapped to
    boundary faces are dropped.  The matrix is CSC, the format the LU
    reads; fingerprint is that of the coefficients schur is built from.
    """
    ne, T, T2 = schur.shape
    if ne != disc.mesh.n_elements or T != T2 or \
            T != disc.trace_dof.shape[1]:
        raise ValueError("schur block shape does not match the mesh/degree")
    take, slot, indices, indptr = _trace_pattern(disc)
    data = np.bincount(slot, weights=schur.reshape(-1)[take],
                       minlength=len(indices))
    n = disc.n_trace_dofs
    mat = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    return TraceSystem(disc, mat, fingerprint)


def coefficient_fingerprint(mesh_token, degree, dt, tau, cbar, bbar,
                            bbar_face):
    """Stable hash of everything the trace matrix is built from: the mean
    samples cbar and bbar at the element rule and bbar_face at the face
    rule, with the mesh, degree, dt and tau."""
    h = hashlib.sha256()
    h.update(mesh_token.encode())
    h.update(np.int64(degree).tobytes())
    h.update(np.float64(dt).tobytes())
    h.update(np.ascontiguousarray(tau, dtype=float).tobytes())
    for samples in (cbar, bbar, bbar_face):
        h.update(np.ascontiguousarray(samples, dtype=float).tobytes())
    return h.hexdigest()
