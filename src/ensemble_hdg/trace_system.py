"""Global sparse system on the interior-face trace DOFs.

The trace matrix is the scatter of per-element Schur complements onto the
global trace DOFs (interior faces only; canonical face order, face-local
modes innermost).  The default backend is a sparse direct LU (SuperLU via
scipy, minimum-degree ordering on A^T + A); a GMRES+ILU fallback is
provided and must reach relative residual 1e-10 to be considered
equivalent.  A factorization handle is read-only after construction:
concurrent solves against distinct RHS columns are safe.
"""

import hashlib

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class TraceSystem:
    """Assembled trace matrix plus its factorization and fingerprint."""

    def __init__(self, disc, matrix, fingerprint=None):
        self.disc = disc
        self.matrix = matrix
        self.fingerprint = fingerprint
        self.dof_map = disc.trace_dof
        self.n_dofs = disc.n_trace_dofs
        self._solver = None
        self.backend = None

    def factorize(self, backend="splu"):
        """Factorize the matrix; returns self (the solve handle)."""
        if backend == "splu":
            # minimum degree on A^T + A: the trace matrix is structurally
            # symmetric, and this ordering gave less fill and faster
            # factorizations and solves than the default COLAMD
            try:
                self._solver = spla.splu(self.matrix.tocsc(),
                                         permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise RuntimeError(
                    f"trace matrix factorization failed: {exc}") from exc
        elif backend == "gmres":
            ilu = spla.spilu(self.matrix.tocsc(), drop_tol=1e-8,
                             fill_factor=20)
            self._solver = ("gmres", ilu)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        return self

    def solve_multi(self, rhs, fingerprint=None):
        """Solve against a block of RHS columns, shape (n_dofs, J).

        Columns are independent; passing the coefficient fingerprint the
        caller believes current rejects solves against a stale matrix.
        """
        if self._solver is None:
            raise RuntimeError("factorize() must be called before solving")
        if fingerprint is not None and self.fingerprint is not None \
                and fingerprint != self.fingerprint:
            raise ValueError(
                "trace-system fingerprint mismatch: the factorization was "
                "built from different coefficients")
        rhs = np.asarray(rhs, dtype=float)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        if rhs.shape[0] != self.n_dofs:
            raise ValueError(
                f"rhs has {rhs.shape[0]} rows, system has {self.n_dofs}")
        if self.backend == "splu":
            out = self._solver.solve(rhs)
        else:
            _, ilu = self._solver
            prec = spla.LinearOperator(self.matrix.shape, ilu.solve)
            cols = []
            for j in range(rhs.shape[1]):
                x, info = spla.gmres(self.matrix, rhs[:, j], rtol=1e-13,
                                     atol=0.0, restart=200, maxiter=50,
                                     M=prec)
                b = rhs[:, j]
                nb = np.linalg.norm(b)
                res = np.linalg.norm(self.matrix @ x - b)
                if nb > 0 and res > 1e-10 * nb:
                    raise RuntimeError(
                        f"gmres fallback did not converge: relative "
                        f"residual {res / nb:.2e}")
                cols.append(x)
            out = np.stack(cols, axis=1)
        return out[:, 0] if squeeze else out

    def solve(self, rhs, fingerprint=None):
        return self.solve_multi(rhs, fingerprint)

    def residual(self, x, rhs):
        """Relative residual ||Ax - b|| / ||b|| column-wise."""
        x = np.atleast_2d(np.asarray(x, dtype=float).T).T
        rhs = np.atleast_2d(np.asarray(rhs, dtype=float).T).T
        num = np.linalg.norm(self.matrix @ x - rhs, axis=0)
        den = np.linalg.norm(rhs, axis=0)
        return num / np.where(den > 0, den, 1.0)

    def dump_matrix_market(self, path):
        """Write the assembled matrix in MatrixMarket coordinate format."""
        from scipy.io import mmwrite

        mmwrite(str(path), self.matrix.tocoo())


def assemble_trace_matrix(disc, schur, fingerprint=None):
    """Scatter batched element Schur blocks into the global trace matrix.

    schur has shape (ne, T, T) with T = 3 * (k+1); rows/columns mapped to
    boundary faces are dropped.
    """
    ne, T, T2 = schur.shape
    if ne != disc.mesh.n_elements or T != T2 or \
            T != disc.trace_dof.shape[1]:
        raise ValueError("schur block shape does not match the mesh/degree")
    dof = disc.trace_dof
    rows = np.broadcast_to(dof[:, :, None], (ne, T, T))
    cols = np.broadcast_to(dof[:, None, :], (ne, T, T))
    keep = (rows >= 0) & (cols >= 0)
    n = disc.n_trace_dofs
    mat = sp.coo_matrix(
        (schur[keep], (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()
    return TraceSystem(disc, mat, fingerprint)


def factorize(system, backend="splu"):
    """Factorize a TraceSystem in place and return the solve handle."""
    return system.factorize(backend)


def solve_multi(handle, rhs, fingerprint=None):
    return handle.solve_multi(rhs, fingerprint)


def coefficient_fingerprint(mesh_token, degree, dt, tau, cbar, bbar_face):
    """Stable hash of everything the trace matrix is built from."""
    h = hashlib.sha256()
    h.update(mesh_token.encode())
    h.update(np.int64(degree).tobytes())
    h.update(np.float64(dt).tobytes())
    h.update(np.ascontiguousarray(tau, dtype=float).tobytes())
    h.update(np.ascontiguousarray(cbar, dtype=float).tobytes())
    h.update(np.ascontiguousarray(bbar_face, dtype=float).tobytes())
    return h.hexdigest()
