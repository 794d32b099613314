"""Sparse linear systems, Krylov solvers and the fast-diagonalization
preconditioner.

Matrices are scipy.sparse CSR (sorted, in-range column indices per row --
exactly the compressed-row contract the rest of the package relies on).
The Krylov loops are written out here rather than taken from
scipy.sparse.linalg so that the stopping rule (true-residual based), the
preconditioning and the reported statistics are fully deterministic and
under our control.

The nutrient, Darcy and Cahn-Hilliard operators are, for constant
coefficients, functions of one Kronecker sum T = Tx (x) I + I (x) Ty of
symmetric tridiagonal 1D factors, and so is each diagonal velocity block
of the Brinkman momentum matrix, up to a diagonal face-volume mass.
``KroneckerOperator`` holds T both as the assembled CSR matrix and as its
eigendecomposition (fast diagonalization, Lynch, Rice & Thomas, Numer.
Math. 6, 1964), which solves a*I + b*T, or a 2x2 block of such operators,
exactly in O(nx*ny*(nx+ny)) with numpy alone.  It preconditions the Krylov
solves with the mean of the variable coefficient, so a constant-coefficient
solve needs no iteration; the Brinkman saddle point is preconditioned by a
block-triangular solve built from it (see ``flow``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class LinearSystem:
    """Assembled sparse operator and right-hand side, plus the
    preconditioner (a callable applying an approximation of A^-1) that the
    assembly builds from the same factors; None means Jacobi."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    precond: Callable[[np.ndarray], np.ndarray] | None = None


class SolverFailure(RuntimeError):
    """Raised when a linear solve does not reach its tolerance."""

    def __init__(self, message: str, stats: SolveStats, stage: str = ""):
        super().__init__(message)
        self.stats = stats
        self.stage = stage


def _as_csr(a) -> sp.csr_matrix:
    a = sp.csr_matrix(a)
    a.sort_indices()
    return a


def jacobi_diagonal(a: sp.csr_matrix) -> np.ndarray:
    """Diagonal preconditioner entries; zero/non-finite diagonals fall back
    to 1 (continuity rows of saddle-point systems have no diagonal)."""
    d = np.asarray(a.diagonal(), dtype=float).copy()
    bad = ~np.isfinite(d) | (d == 0.0)
    d[bad] = 1.0
    return d


class KroneckerOperator:
    """T = Tx (x) My + Mx (x) Ty on flat indices (i*ny + j), from the dense
    symmetric tridiagonal 1D factors tx (nx x nx) and ty (ny x ny) and the
    positive diagonal masses mx and my (vectors; identity when omitted),
    with mass M = Mx (x) My.

    ``matrix`` is T assembled by kron; ``solve`` and ``solve_pair`` invert
    operators built from T and M through the generalized eigenproblem
    T = M Q diag(lam) Q^T M, Q^T M Q = I, Q = Qx (x) Qy, with one eigh per
    factor (of M^-1/2 T M^-1/2) done here.  Both come from the same
    factors, so the preconditioner is exactly the assembled operator.
    Instances are shared through caches: nothing here is written after
    construction.
    """

    def __init__(self, tx: np.ndarray, ty: np.ndarray,
                 mx: np.ndarray | None = None, my: np.ndarray | None = None):
        nx, ny = tx.shape[0], ty.shape[0]
        self._shape = (nx, ny)
        mx = np.ones(nx) if mx is None else np.asarray(mx, dtype=float)
        my = np.ones(ny) if my is None else np.asarray(my, dtype=float)
        self.matrix = _as_csr(sp.kron(tx, sp.diags(my))
                              + sp.kron(sp.diags(mx), ty))
        rows = np.repeat(np.arange(nx * ny), np.diff(self.matrix.indptr))
        self._diagonal = np.flatnonzero(self.matrix.indices == rows)
        rx, ry = 1.0 / np.sqrt(mx), 1.0 / np.sqrt(my)
        lam_x, qx = np.linalg.eigh(rx[:, None] * tx * rx)
        lam_y, qy = np.linalg.eigh(ry[:, None] * ty * ry)
        self._qx, self._qy = rx[:, None] * qx, ry[:, None] * qy
        self._lam_x, self._lam_y = lam_x[:, None], lam_y[None, :]
        self.eigenvalues = self._lam_x + self._lam_y
        for arr in (self.matrix.data, self.matrix.indices,
                    self.matrix.indptr, self._diagonal, self._qx, self._qy,
                    self._lam_x, self._lam_y, self.eigenvalues):
            arr.flags.writeable = False

    def in_pattern(self, data: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix with T's (read-only, shared) index arrays and the
        given data, one value per stored entry of ``matrix``."""
        return sp.csr_matrix((data, self.matrix.indices, self.matrix.indptr),
                             shape=self.matrix.shape)

    def plus_diagonal(self, d, scale: float = 1.0) -> sp.csr_matrix:
        """scale*T + diag(d) in T's pattern."""
        data = scale * self.matrix.data
        data[self._diagonal] += d
        return self.in_pattern(data)

    def _to_modes(self, v):
        return self._qx.T @ v.reshape(self._shape) @ self._qy

    def _from_modes(self, c):
        return (self._qx @ c @ self._qy.T).ravel()

    def solve(self, b, shift: float = 0.0, weights=None) -> np.ndarray:
        """x with (T + shift*M) x = b, or with
        (wx*Tx (x) My + wy*Mx (x) Ty + shift*M) x = b for
        weights = (wx, wy)."""
        lam = self.eigenvalues if weights is None else \
            weights[0] * self._lam_x + weights[1] * self._lam_y
        return self._from_modes(self._to_modes(b) / (lam + shift))

    def solve_pair(self, b, blocks) -> np.ndarray:
        """[x1; x2] with [[A11, A12], [A21, A22]] [x1; x2] = b, where
        blocks[i][j] = (alpha, beta) gives Aij = alpha*M + beta*T; each mode
        is a 2x2 solve by Cramer's rule."""
        n = b.size // 2
        f, g = self._to_modes(b[:n]), self._to_modes(b[n:])
        lam = self.eigenvalues
        (a11, a12), (a21, a22) = [[alpha + beta * lam for alpha, beta in row]
                                  for row in blocks]
        det = a11 * a22 - a12 * a21
        return np.concatenate([self._from_modes((a22 * f - a12 * g) / det),
                               self._from_modes((a11 * g - a21 * f) / det)])


def _preconditioned_start(a, b, tol, bnorm, precond):
    """x0 = M^-1 b and its true residual; the solve is already done when
    that residual meets the tolerance (an exact preconditioner)."""
    x0 = precond(b)
    r0 = b - a @ x0
    res0 = float(np.linalg.norm(r0))
    return x0, r0, res0, res0 <= tol * bnorm


def cg_solve(a, b, tol: float = 1e-10, max_iter: int | None = None,
             precond=None):
    """Preconditioned conjugate gradients.

    ``precond`` applies an SPD approximation of A^-1 to a vector; the
    iteration then starts from x0 = precond(b) and returns it with 0
    iterations when its true residual already meets the tolerance.  Without
    it, Jacobi preconditioning from a zero initial guess.  Returns
    (x, SolveStats); the reported residual is the recomputed true residual
    ||Ax-b||_2.
    """
    a = _as_csr(a)
    b = np.asarray(b, dtype=float).ravel()
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    if tol <= 0:
        raise ValueError("tol must be positive")

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveStats(0, 0.0, True)

    if precond is None:
        dinv = 1.0 / jacobi_diagonal(a)
        precond = lambda v: dinv * v  # noqa: E731
        x = np.zeros(n)
        r = b.copy()
    else:
        x, r, res, done = _preconditioned_start(a, b, tol, bnorm, precond)
        if done:
            return x, SolveStats(0, res, True)
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    it = 0
    while it < max_iter:
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        it += 1
        if np.linalg.norm(r) <= tol * bnorm:
            break
        z = precond(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p

    res = float(np.linalg.norm(b - a @ x))
    return x, SolveStats(it, res, res <= tol * bnorm)


def bicgstab_solve(a, b, tol: float = 1e-10, max_iter: int | None = None,
                   precond=None, ell: int = 1):
    """Right-preconditioned BiCGStab(ell).

    ell = 1 is classical BiCGStab; ell = 2 (Sleijpen-Fokkema) is far more
    robust on indefinite saddle-point systems, and the Brinkman and
    Cahn-Hilliard solves use ell = 4.  Right preconditioning, so the
    stopping rule sees true residuals.  ``precond`` applies an approximation
    of A^-1; the iteration then starts from x0 = precond(b) and returns it
    with 0 iterations when its true residual already meets the tolerance.
    Without it, Jacobi preconditioning from a zero initial guess.
    Deterministic: fixed shadow residual, restart on (near-)breakdown.
    One reported iteration = one BiCG sweep (2*ell matrix-vector products).
    Non-convergence comes back via converged=False, never silently.
    """
    a = _as_csr(a)
    b = np.asarray(b, dtype=float).ravel()
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    if tol <= 0:
        raise ValueError("tol must be positive")
    if ell < 1:
        raise ValueError("ell must be at least 1")

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveStats(0, 0.0, True)

    # iterate y with x = M^-1 y; residuals are the true residuals of A x = b
    if precond is None:
        dinv = 1.0 / jacobi_diagonal(a)
        precond = lambda v: dinv * v  # noqa: E731
        y = np.zeros(n)
        r0 = b.copy()
    else:
        x, r0, res, done = _preconditioned_start(a, b, tol, bnorm, precond)
        if done:
            return x, SolveStats(0, res, True)
        y = b.copy()

    def amul(v):
        return a @ precond(v)

    r = [r0] + [np.zeros(n) for _ in range(ell)]
    u = [np.zeros(n) for _ in range(ell + 1)]
    r_hat = r0.copy()
    rho0, alpha, omega = 1.0, 0.0, 1.0
    it = 0
    restarts = 0
    refinements = 0
    rnorm = float(np.linalg.norm(r0))
    best = rnorm
    since_best = 0
    broke = False

    while it < max_iter:
        if rnorm <= tol * bnorm:
            # recursive residual converged; accept only if the true residual
            # agrees, otherwise restart from the current iterate (iterative
            # refinement against recurrence drift)
            true_r = b - amul(y)
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= tol * bnorm or refinements >= 4:
                break
            refinements += 1
            r[0] = true_r
            r_hat = true_r.copy()
            for i in range(1, ell + 1):
                r[i][:] = 0.0
            for i in range(ell + 1):
                u[i][:] = 0.0
            rho0, alpha, omega = 1.0, 0.0, 1.0
            rnorm = true_norm
            best = true_norm
            since_best = 0
            if rnorm <= tol * bnorm:
                break
        it += 1
        rho0 = -omega * rho0
        for j in range(ell):
            rho1 = float(r_hat @ r[j])
            if rho0 == 0.0 or not np.isfinite(rho1):
                broke = True
                break
            beta = alpha * rho1 / rho0
            rho0 = rho1
            for i in range(j + 1):
                u[i] = r[i] - beta * u[i]
            u[j + 1] = amul(u[j])
            gamma = float(r_hat @ u[j + 1])
            if gamma == 0.0 or not np.isfinite(gamma):
                broke = True
                break
            alpha = rho0 / gamma
            for i in range(j + 1):
                r[i] = r[i] - alpha * u[i + 1]
            r[j + 1] = amul(r[j])
            y += alpha * u[0]
        if not broke:
            # MR part: minimize ||r0 - sum g_i r_i|| over the ell new directions
            rr = np.array([[float(r[i] @ r[k]) for k in range(1, ell + 1)]
                           for i in range(1, ell + 1)])
            rhs = np.array([float(r[0] @ r[k]) for k in range(1, ell + 1)])
            try:
                gam = np.linalg.solve(rr, rhs)
            except np.linalg.LinAlgError:
                broke = True
            if not broke and np.all(np.isfinite(gam)) and gam[-1] != 0.0:
                omega = gam[-1]
                for i in range(ell):
                    y += gam[i] * r[i]
                    r[0] = r[0] - gam[i] * r[i + 1]
                    u[0] = u[0] - gam[i] * u[i + 1]
            else:
                broke = True
        rnorm = float(np.linalg.norm(r[0]))
        if not np.isfinite(rnorm):
            broke = True
        if broke:
            restarts += 1
            if restarts > 100:
                break
            r[0] = b - amul(y)
            r_hat = r[0].copy()
            for i in range(1, ell + 1):
                r[i][:] = 0.0
            for i in range(ell + 1):
                u[i][:] = 0.0
            rho0, alpha, omega = 1.0, 0.0, 1.0
            rnorm = float(np.linalg.norm(r[0]))
            broke = False
            continue
        if rnorm < 0.9999 * best:
            best = rnorm
            since_best = 0
        else:
            since_best += 1
            if since_best > 5000:
                break  # stagnation: give up honestly

    x = precond(y)
    res = float(np.linalg.norm(b - a @ x))
    return x, SolveStats(it, res, res <= tol * bnorm)
