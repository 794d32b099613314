"""Sparse linear systems, the Krylov solver and the fast-diagonalization
preconditioner.

Matrices are scipy.sparse CSR (sorted, in-range column indices per row --
exactly the compressed-row contract the rest of the package relies on).
The Krylov loop is written out here rather than taken from
scipy.sparse.linalg so that the stopping rule (true-residual based), the
preconditioning and the reported statistics are fully deterministic and
under our control.  One solver serves every system: classical
right-preconditioned BiCGStab, which takes a required preconditioner M^-1,
starts from x0 = M^-1 b (or from a given x0, when the caller holds nearby
solutions: ``projected_start`` makes it the best combination of them) and
accepts only a true residual.  It solves the SPD nutrient and Darcy
pressure systems, the nonsymmetric Cahn-Hilliard pair and the indefinite
Brinkman saddle point.  The Darcy pressure operator is constant, so its
exact preconditioner leaves the solve no iteration unless the start misses
the tolerance.

The nutrient, Darcy and Cahn-Hilliard operators are, for constant
coefficients, functions of one Kronecker sum T = Tx (x) I + I (x) Ty of
symmetric tridiagonal 1D factors, and so is each diagonal velocity block
of the Brinkman momentum matrix, up to a diagonal face-volume mass.
``KroneckerOperator`` holds T as its eigendecomposition (fast
diagonalization, Lynch, Rice & Thomas, Numer. Math. 6, 1964), and as the
assembled CSR matrix once something reads it.  The eigendecomposition
solves a*I + b*T, or a 2x2 block of such operators, exactly in
O(nx*ny*(nx+ny)) with numpy alone.  It preconditions the Krylov
solves with the mean of the variable coefficient, so a constant-coefficient
solve needs no iteration; the Brinkman saddle point is preconditioned by a
block-triangular solve built from it, with one block Gauss-Seidel sweep
over the two velocity blocks (see ``flow``).

An assembly whose weights repeat those of its previous call returns the
operator it built then (``KeptOperator``): a time step with constant
coefficients rebuilds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def require_converged(stats: SolveStats, what: str, stage: str):
    """Raise SolverFailure for ``stage`` unless the solve of ``what``
    converged."""
    if not stats.converged:
        raise SolverFailure(
            f"{what} did not converge (residual {stats.residual:.3e} after "
            f"{stats.iterations} iterations)", stats, stage)


class KroneckerOperator:
    """T = Tx (x) My + Mx (x) Ty on flat indices (i*ny + j), from the dense
    symmetric tridiagonal 1D factors tx (nx x nx) and ty (ny x ny) and the
    positive diagonal masses mx and my (vectors; identity when omitted),
    with mass M = Mx (x) My.

    ``matrix`` is T assembled by kron, built on its first read: the
    solves need only the factors.  ``solve`` and ``solve_pair`` invert
    operators built from T and M through the generalized eigenproblem
    T = M Q diag(lam) Q^T M, Q^T M Q = I, Q = Qx (x) Qy, with one eigh per
    factor (of M^-1/2 T M^-1/2) done here.  Both come from the same
    factors, so the preconditioner is exactly the assembled operator.
    Instances are shared through caches: nothing here is written after
    construction, except the read-only matrix when it is first read.
    """

    def __init__(self, tx: np.ndarray, ty: np.ndarray,
                 mx: np.ndarray | None = None, my: np.ndarray | None = None):
        nx, ny = tx.shape[0], ty.shape[0]
        self._shape = (nx, ny)
        mx = np.ones(nx) if mx is None else np.asarray(mx, dtype=float)
        my = np.ones(ny) if my is None else np.asarray(my, dtype=float)
        # the factors of matrix; tx and ty are tridiagonal, so kept sparse
        self._factors = sp.csr_matrix(tx), sp.csr_matrix(ty), mx, my
        rx, ry = 1.0 / np.sqrt(mx), 1.0 / np.sqrt(my)
        lam_x, qx = np.linalg.eigh(rx[:, None] * tx * rx)
        lam_y, qy = np.linalg.eigh(ry[:, None] * ty * ry)
        self._qx, self._qy = rx[:, None] * qx, ry[:, None] * qy
        self._lam_x, self._lam_y = lam_x[:, None], lam_y[None, :]
        self.eigenvalues = self._lam_x + self._lam_y
        for arr in (self._qx, self._qy, self._lam_x, self._lam_y,
                    self.eigenvalues):
            arr.flags.writeable = False

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        tx, ty, mx, my = self._factors
        a = sp.csr_matrix(sp.kron(tx, sp.diags(my))
                          + sp.kron(sp.diags(mx), ty))
        a.sort_indices()
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        # the slots of the diagonal in a.data, for plus_diagonal
        self._diagonal = np.flatnonzero(a.indices == rows)
        for arr in (a.data, a.indices, a.indptr, self._diagonal):
            arr.flags.writeable = False
        return a

    def plus_diagonal(self, d) -> sp.csr_matrix:
        """T + diag(d) with T's (read-only, shared) index arrays."""
        a = self.matrix
        data = a.data.copy()
        data[self._diagonal] += d
        return sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)

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


class KeptOperator:
    """The last operator one assembly built, with the grid, the scalars and
    the weights w it was built from: ``get`` returns it again while they
    are equal, so it is bit-identical to a rebuild.  One entry only; it is
    dropped before a miss rebuilds, so an old and a new operator are never
    held together.  What it keeps must be read-only."""

    def __init__(self):
        self._key = self._w = self._value = None

    def get(self, key, w: np.ndarray, build: Callable[[], object]):
        """build() for (key, w), or the value kept from an equal call."""
        if self._key == key and np.array_equal(self._w, w):
            return self._value
        self._key = self._w = self._value = None
        value = build()
        w.flags.writeable = False
        self._key, self._w, self._value = key, w, value
        return value


def projected_start(a, b, xs):
    """The start x0 = X c in the span of the vectors ``xs`` (X; for
    instance the last few time levels' solutions, newest last) that
    minimises ||b - A X c|| (Fischer, Comput. Methods Appl. Mech. Engrg.
    163, 1998); None when no vector is left.

    The least-squares problem is solved by a thin QR of A X, not by the
    normal equations: successive solutions are nearly parallel, and
    squaring cond(A X) would lose the digits the start needs.  The QR is
    modified Gram-Schmidt on [A X, b], which solves the least-squares
    problem as stably as Householder QR (Bjorck, BIT 7, 1967) and costs a
    few vector operations where LAPACK's thin QR of a tall n x 4 matrix
    costs more than the products.  The vectors enter newest first, and one
    whose |R_jj| is at most 1e-12 of max|R| (nearly in the span of the
    newer ones, or zero) is dropped, so the start is never worse than the
    newest vector alone, nor than x0 = 0.  One product with A per
    vector."""
    kept, ortho, columns = [], [], []
    r_max = 0.0
    for x in reversed(xs):
        v = a @ x
        column = []
        for q in ortho:
            column.append(float(q @ v))
            v -= column[-1] * q
        column.append(float(np.linalg.norm(v)))
        r_max = max(r_max, *map(abs, column))
        if column[-1] <= 1e-12 * r_max:
            continue
        kept.append(x)
        ortho.append(v / column[-1])
        columns.append(column)
    if not kept:
        return None
    r = np.zeros((len(kept), len(kept)))
    z = np.empty(len(kept))
    residual = np.array(b, dtype=float)
    for j, (column, q) in enumerate(zip(columns, ortho)):
        r[:j + 1, j] = column
        z[j] = q @ residual
        residual -= z[j] * q
    c = np.linalg.solve(r, z)
    x0 = c[0] * kept[0]
    for cj, xj in zip(c[1:], kept[1:]):
        x0 += cj * xj
    return x0


def bicgstab_solve(a, b, precond, tol: float = 1e-10,
                   max_iter: int | None = None, ell: int = 1, x0=None):
    """Classical right-preconditioned BiCGStab (van der Vorst, SIAM J. Sci.
    Stat. Comput. 13, 1992).

    ``precond`` applies an approximation M^-1 of A^-1 to a vector.  The
    iteration runs on A M^-1 with x = M^-1 y, so its residuals are those of
    A x = b.  It starts from ``x0``, a nearby solution such as
    ``projected_start`` makes from the last time levels, or from M^-1 b
    when none is given, and returns the start
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
    ``ell``, the BiCG steps per iteration, must be 1, and ``tol``
    positive.  Returns (x, SolveStats) with the true residual;
    non-convergence comes back as converged=False, never silently.
    """
    if ell != 1:
        raise ValueError("ell must be 1: this is classical BiCGStab")
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float).ravel()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(b.size), SolveStats(0, 0.0, True)
    target = tol * bnorm
    x = precond(b) if x0 is None else np.array(x0, dtype=float).ravel()
    r = b - a @ x
    res = float(np.linalg.norm(r))
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
