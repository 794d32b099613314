"""Sparse linear systems, Krylov solvers and the fast-diagonalization
preconditioner.

Matrices are scipy.sparse CSR (sorted, in-range column indices per row --
exactly the compressed-row contract the rest of the package relies on).
The Krylov loops are written out here rather than taken from
scipy.sparse.linalg so that the stopping rule (true-residual based), the
preconditioning and the reported statistics are fully deterministic and
under our control.  There is one path per solver: each takes a required
preconditioner M^-1, starts from x0 = M^-1 b (BiCGStab from a given x0
instead, when the caller holds a nearby solution) and accepts only a true
residual.  CG solves the SPD nutrient and Darcy pressure systems;
classical BiCGStab solves the nonsymmetric Cahn-Hilliard pair and the
indefinite Brinkman saddle point.  The Darcy pressure operator is
constant, so its exact preconditioner leaves CG no iteration unless it
misses the tolerance.

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
block-triangular solve built from it, with one block Gauss-Seidel sweep
over the two velocity blocks (see ``flow``).
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
    assembly builds from the same factors."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    precond: Callable[[np.ndarray], np.ndarray]


class SolverFailure(RuntimeError):
    """Raised when a linear solve does not reach its tolerance."""

    def __init__(self, message: str, stats: SolveStats, stage: str = ""):
        super().__init__(message)
        self.stats = stats
        self.stage = stage


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
        self.matrix = sp.csr_matrix(sp.kron(tx, sp.diags(my))
                                    + sp.kron(sp.diags(mx), ty))
        self.matrix.sort_indices()
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

    def plus_diagonal(self, d) -> sp.csr_matrix:
        """T + diag(d) with T's (read-only, shared) index arrays."""
        data = self.matrix.data.copy()
        data[self._diagonal] += d
        return sp.csr_matrix((data, self.matrix.indices, self.matrix.indptr),
                             shape=self.matrix.shape)

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


def _preconditioned_start(a, b, tol, precond, x0=None):
    """The flattened b, the start x0 (M^-1 b when none is given), its true
    residual r0 and ||r0||, and the stopping target tol*||b||; b = 0 gives
    x0 = 0 at once."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float).ravel()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return b, np.zeros(b.size), b, 0.0, 0.0
    x = precond(b) if x0 is None else np.array(x0, dtype=float).ravel()
    r = b - a @ x
    return b, x, r, float(np.linalg.norm(r)), tol * bnorm


def cg_solve(a, b, precond, tol: float = 1e-10, max_iter: int | None = None):
    """Preconditioned conjugate gradients for SPD A.

    ``precond`` applies an SPD approximation M^-1 of A^-1 to a vector; the
    iteration starts from x0 = M^-1 b and returns it with 0 iterations when
    its true residual already meets the tolerance.  One iteration is one
    matrix-vector product.  Returns (x, SolveStats); the reported residual
    is the recomputed true residual ||Ax-b||_2.
    """
    b, x, r, res, target = _preconditioned_start(a, b, tol, precond)
    if res <= target:
        return x, SolveStats(0, res, True)
    if max_iter is None:
        max_iter = 10 * b.size
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
        x = x + alpha * p
        r -= alpha * ap
        it += 1
        if np.linalg.norm(r) <= target:
            break
        z = precond(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p

    res = float(np.linalg.norm(b - a @ x))
    return x, SolveStats(it, res, res <= target)


def bicgstab_solve(a, b, precond, tol: float = 1e-10,
                   max_iter: int | None = None, ell: int = 1, x0=None):
    """Classical right-preconditioned BiCGStab (van der Vorst, SIAM J. Sci.
    Stat. Comput. 13, 1992).

    ``precond`` applies an approximation M^-1 of A^-1 to a vector.  The
    iteration runs on A M^-1 with x = M^-1 y, so its residuals are those of
    A x = b.  It starts from ``x0``, a nearby solution such as the previous
    time level's, or from M^-1 b when none is given, and returns the start
    with 0 iterations when its true residual already meets the tolerance;
    b = 0 returns zeros whatever the start.  When the recursive
    residual meets the tolerance the true residual is recomputed; if that
    misses, or the method breaks down, the iteration restarts from the true
    residual, which is also the new shadow residual.  Every iteration,
    including one that breaks down, counts against ``max_iter``, so the
    solve always ends.  It ends unconverged when a cycle leaves the true
    residual above half its value at the start of that cycle: the solve
    has stagnated (at the attainable accuracy, or in a breakdown before x
    moves, which a restart from the same x would repeat).  One iteration
    is two matrix-vector products (one when it converges half-way).
    ``ell``, the BiCG steps per iteration, must be 1.  Returns
    (x, SolveStats) with the true residual; non-convergence comes back as
    converged=False, never silently.
    """
    if ell != 1:
        raise ValueError("ell must be 1: this is classical BiCGStab")
    b, x, r, res, target = _preconditioned_start(a, b, tol, precond, x0)
    if res <= target:
        return x, SolveStats(0, res, True)
    if max_iter is None:
        max_iter = 10 * b.size
    it = 0
    while it < max_iter:
        res_start = res
        r_hat = r.copy()
        rho = alpha = omega = 1.0
        p = v = np.zeros(b.size)
        while it < max_iter:
            it += 1
            rho_new = float(r_hat @ r)
            p = r + (rho_new / rho) * (alpha / omega) * (p - omega * v)
            rho = rho_new
            p_hat = precond(p)
            v = a @ p_hat
            gamma = float(r_hat @ v)
            if rho == 0.0 or gamma == 0.0 or not np.isfinite(gamma):
                break  # breakdown
            alpha = rho / gamma
            x = x + alpha * p_hat
            r = r - alpha * v
            if np.linalg.norm(r) <= target:
                break
            s_hat = precond(r)
            t = a @ s_hat
            tt = float(t @ t)
            omega = float(t @ r) / tt if tt > 0.0 else 0.0
            if omega == 0.0 or not np.isfinite(omega):
                break  # breakdown
            x = x + omega * s_hat
            r = r - omega * t
            if np.linalg.norm(r) <= target:
                break
        r = b - a @ x
        res = float(np.linalg.norm(r))
        if res <= target:
            return x, SolveStats(it, res, True)
        if res > 0.5 * res_start:
            break
    return x, SolveStats(it, res, False)
