"""Sparse linear systems, the Krylov solver and the fast-diagonalization
preconditioner.

Matrices are scipy.sparse CSR (sorted, in-range column indices per row --
exactly the compressed-row contract the rest of the package relies on).
The Krylov loop is written out here rather than taken from
scipy.sparse.linalg so that the stopping rule (true-residual based), the
preconditioning and the reported statistics are fully deterministic and
under our control.  One solver serves every system: classical
right-preconditioned BiCGStab, which takes a required preconditioner M^-1,
starts from x0 = M^-1 b (or from a given x0, when the caller holds
nearby solutions) and accepts only a true residual.  It
solves the SPD nutrient and Darcy pressure systems, the nonsymmetric
Cahn-Hilliard pair and the indefinite Brinkman saddle point.  The Darcy
pressure operator is constant, so its exact preconditioner leaves the
solve no iteration unless the start misses the tolerance.

The nutrient, Darcy and Cahn-Hilliard operators are, for constant
coefficients, functions of one Kronecker sum T = Tx (x) I + I (x) Ty of
symmetric tridiagonal 1D factors, and so is each diagonal velocity block
of the Brinkman momentum matrix, up to a diagonal face-volume mass.
``KroneckerOperator`` holds T as its eigendecomposition (fast
diagonalization, Lynch, Rice & Thomas, Numer. Math. 6, 1964), and as the
assembled CSR matrix once something reads it.  The eigendecomposition
solves a*I + b*T, or a 2x2 block of such operators, exactly in
O(nx*ny*(nx+ny)) with numpy alone: one ``apply`` transforms to modes,
divides by a per-mode divisor and transforms back into the caller's
array.  The divisor (``divisor``, ``pair_divisor``) is computed once by
whoever keeps the operator, not per solve.  It preconditions the Krylov
solves with the mean of the variable coefficient, so a constant-coefficient
solve needs no iteration; the Brinkman saddle point is preconditioned by a
block-triangular solve built from it, with one block Gauss-Seidel sweep
over the two velocity blocks (see ``flow``).

An assembly handed a ``KeptOperator`` returns the operator it built last
while its weights repeat those of that call: a time step with constant
coefficients rebuilds nothing.  Each trajectory owns its entries
(``KeptOperators``), so what one trajectory keeps never depends on what
else the process steps.  While an operator is kept, the solutions of
earlier steps keep their products with it in a ``ProjectionBasis``
(Fischer's projection, kept across steps): a solve starts from their
combination with the least residual, and its own solution enters the
basis through its final residual at no product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    solves need only the factors.  ``apply`` inverts operators built from
    T and M, by the divisors ``divisor`` and ``pair_divisor`` make,
    through the generalized eigenproblem
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

    def divisor(self, shift: float = 0.0, weights=None) -> np.ndarray:
        """The per-mode divisor of T + shift*M, or of
        wx*Tx (x) My + wy*Mx (x) Ty + shift*M for weights = (wx, wy):
        the weighted eigenvalue sum plus the shift, for ``apply``.
        Read-only; whoever keeps the operator computes it once."""
        lam = self.eigenvalues if weights is None else \
            weights[0] * self._lam_x + weights[1] * self._lam_y
        d = lam + shift
        d.flags.writeable = False
        return d

    def pair_divisor(self, blocks) -> np.ndarray:
        """The per-mode Cramer coefficients of the 2x2 block operator
        [[A11, A12], [A21, A22]] with blocks[i][j] = (alpha, beta) giving
        Aij = alpha*M + beta*T, for ``apply``: the stacked a11, a12, a21,
        a22 and det = a11*a22 - a12*a21 of each mode.  Read-only."""
        lam = self.eigenvalues
        (a11, a12), (a21, a22) = [[alpha + beta * lam for alpha, beta in row]
                                  for row in blocks]
        d = np.stack([a11, a12, a21, a22, a11 * a22 - a12 * a21])
        d.flags.writeable = False
        return d

    def _to_modes(self, v):
        return self._qx.T @ v.reshape(self._shape) @ self._qy

    def _from_modes(self, c, out):
        np.matmul(self._qx @ c, self._qy.T, out=out.reshape(self._shape))

    def apply(self, b, divisor, out=None) -> np.ndarray:
        """The exact solve for one ``divisor``: b to modes, divided by it,
        back into ``out`` (a new array when None; else contiguous, such
        as a slice of a flat array).  With a ``pair_divisor`` b and out
        hold [x1; x2], and each mode is a 2x2 solve by Cramer's rule.
        Returns out."""
        if out is None:
            out = np.empty(b.size)
        if divisor.ndim == 2:
            c = self._to_modes(b)
            c /= divisor
            self._from_modes(c, out)
            return out
        n = b.size // 2
        f, g = self._to_modes(b[:n]), self._to_modes(b[n:])
        a11, a12, a21, a22, det = divisor
        self._from_modes((a22 * f - a12 * g) / det, out[:n])
        self._from_modes((a11 * g - a21 * f) / det, out[n:])
        return out


class KeptOperator:
    """The last operator one assembly built, with the grid, the scalars and
    the weights w it was built from: ``get`` returns it again while they
    are equal, so it is bit-identical to a rebuild.  One entry only; it is
    dropped before a miss rebuilds, so an old and a new operator are never
    held together.  What it keeps must be read-only.  ``token`` is a new
    object at each build, None before the first: what was computed with an
    operator (a ``ProjectionBasis``) is current while the token is the
    same."""

    def __init__(self):
        self._key = self._w = self._value = self.token = None

    def get(self, key, w: np.ndarray, build: Callable[[], object]):
        """build() for (key, w), or the value kept from an equal call."""
        if self._key == key and np.array_equal(self._w, w):
            return self._value
        self._key = self._w = self._value = self.token = None
        value = build()
        w.flags.writeable = False
        self._key, self._w, self._value = key, w, value
        self.token = object()
        return value


@dataclass(frozen=True)
class KeptOperators:
    """The kept operators of one trajectory: the entries of its nutrient,
    Cahn-Hilliard and Brinkman assemblies."""

    nutrient: KeptOperator = field(default_factory=KeptOperator)
    ch: KeptOperator = field(default_factory=KeptOperator)
    brinkman: KeptOperator = field(default_factory=KeptOperator)


# columns of a ProjectionBasis: each keeps two n-vectors, and a longer basis
# gives a better start but costs more per step in its products with W and V
BASIS_COLUMNS = 16

# a column whose part outside the span of W is at most this share of
# ||A x|| is (nearly) dependent, or zero, and is dropped
_DEPENDENT = 1e-12


class _Columns:
    """The n x BASIS_COLUMNS buffers V and W (Fortran order, so a column is
    contiguous) that the bases of successive levels share, and how many of
    their leading columns are written, the first ``size`` copied from
    ``prefix``.  Each column is written once."""

    def __init__(self, n: int, prefix: "_Columns | None" = None,
                 size: int = 0):
        self.v = np.empty((n, BASIS_COLUMNS), order="F")
        self.w = np.empty((n, BASIS_COLUMNS), order="F")
        self.written = size
        if size:
            self.v[:, :size] = prefix.v[:, :size]
            self.w[:, :size] = prefix.w[:, :size]


class ProjectionBasis:
    """Fischer's projection basis for successive right-hand sides (Comput.
    Methods Appl. Mech. Engrg. 163, 1998), kept from one solve to the next
    while the operator stays the same: ``size`` pairs (v_j, w_j = A v_j)
    with the w_j orthonormal, for the operator whose ``KeptOperator`` build
    ``token`` names.

    ``start(b)`` is then the x0 = V c minimising ||b - A V c|| at the cost
    of two products, with W and V.  A vector x enters by a classical
    Gram-Schmidt pass done twice (CGS2, Giraud, Langou, Rozloznik & van
    den Eshof, Numer. Math. 101, 2005) against W, on the pair (x, A x),
    where a solve gives A x = b - r from its final residual r.  No product
    with A is made here, except for the vectors ``with_products``
    enters.

    A basis is immutable: a new column gives a new basis, which shares the
    column buffers of the one it extends (``_Columns``) and writes its
    column once there.  When another basis has already written that
    column -- an earlier level stepped again -- the new one copies the
    prefix it shares into buffers of its own, so a basis always reads the
    columns it was made with.  It holds at most ``BASIS_COLUMNS`` pairs
    (``full``); the caller then starts a new basis, after the solve that
    reads the full one, so that the two are never held together.
    """

    __slots__ = ("token", "size", "_columns")

    def __init__(self, n: int, token, columns: _Columns | None = None,
                 size: int = 0):
        self.token = token
        self.size = size
        self._columns = _Columns(n) if columns is None else columns

    @property
    def full(self) -> bool:
        return self.size == BASIS_COLUMNS

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(V, W): views of this basis's n x size columns."""
        c = self._columns
        return c.v[:, :self.size], c.w[:, :self.size]

    def start(self, b) -> np.ndarray:
        """x0 = V c with c = W^T b, which minimises ||b - A V c|| since
        W = A V is orthonormal.  Never worse than x0 = 0, nor than any
        vector entered alone."""
        v, w = self.vectors()
        return v @ (w.T @ b)

    def with_column(self, x, ax) -> "ProjectionBasis":
        """This basis with x entered, where ax = A x, by two classical
        Gram-Schmidt passes against W; itself when it is full, or when
        what is left of A x is at most ``_DEPENDENT`` of it (x nearly in
        the span, or zero)."""
        if self.full:
            return self
        v, w = self.vectors()
        norm = float(np.linalg.norm(ax))
        for _ in range(2):
            c = w.T @ ax
            x, ax = x - v @ c, ax - w @ c
        kept = float(np.linalg.norm(ax))
        if not kept > _DEPENDENT * norm:
            return self
        k, columns = self.size, self._columns
        if columns.written != k:
            columns = _Columns(x.size, columns, k)
        np.divide(x, kept, out=columns.v[:, k])
        np.divide(ax, kept, out=columns.w[:, k])
        columns.written = k + 1
        return ProjectionBasis(x.size, self.token, columns, k + 1)

    def with_products(self, a, xs) -> "ProjectionBasis":
        """This basis with each vector of ``xs`` entered in turn, one
        product with A each."""
        basis = self
        for x in xs:
            basis = basis.with_column(x, a @ x)
        return basis


def bicgstab_solve(a, b, precond, tol: float = 1e-10,
                   max_iter: int | None = None, ell: int = 1, x0=None,
                   r_out=None):
    """Classical right-preconditioned BiCGStab (van der Vorst, SIAM J. Sci.
    Stat. Comput. 13, 1992).

    ``precond`` applies an approximation M^-1 of A^-1 to a vector.  The
    iteration runs on A M^-1 with x = M^-1 y, so its residuals are those of
    A x = b.  It starts from ``x0``, a nearby solution such as a
    ``ProjectionBasis`` makes from the last time levels, or from M^-1 b
    when none is given; its residual is b - A x0, one product.  The start
    comes back with 0 iterations when that residual meets the tolerance;
    b = 0 returns zeros whatever the start.  When
    the recursive residual meets the tolerance the true residual is
    recomputed; if that misses, or the method breaks down, the iteration
    restarts from the true residual, which is also the new shadow residual.
    Every iteration, including one that breaks down, counts against
    ``max_iter``, so the solve always ends.  It ends unconverged when a
    cycle leaves the true residual above half its value at the start of
    that cycle: the solve has stagnated (at the attainable accuracy, or in
    a breakdown before x moves, which a restart from the same x would
    repeat).  One iteration is two matrix-vector products (one when it
    converges half-way) and two preconditioner applications.  x, r and p
    are updated in place through one scratch vector, by the operations of
    the out-of-place recurrences in their order, so the iterates are the
    same to the bit; the solve copies its start and never writes into b,
    x0 or an array ``precond`` returns (an identity preconditioner
    returns its argument).  ``ell``, the BiCG steps per iteration, must be
    1, and ``tol`` positive.  Returns (x, SolveStats) with the true residual;
    non-convergence comes back as converged=False, never silently.  The
    final true residual b - A x is written into ``r_out`` when it is given
    (an array of b's size), so a caller can form A x = b - r without a
    product.
    """
    if ell != 1:
        raise ValueError("ell must be 1: this is classical BiCGStab")
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float).ravel()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        if r_out is not None:
            r_out[...] = 0.0
        return np.zeros(b.size), SolveStats(0, 0.0, True)
    target = tol * bnorm
    # x and r are copies: they are updated in place
    x = np.array(precond(b) if x0 is None else x0, dtype=float).ravel()
    r = b - a @ x
    res = float(np.linalg.norm(r))
    stats = SolveStats(0, res, res <= target)
    if max_iter is None:
        max_iter = 10 * b.size
    p, w = np.empty(b.size), np.empty(b.size)
    it = 0
    while not stats.converged and it < max_iter:
        res_start = res
        r_hat = r.copy()
        rho = alpha = omega = 1.0
        p.fill(0.0)
        v = np.zeros(b.size)
        while it < max_iter:
            it += 1
            rho_new = float(r_hat @ r)
            # p = r + (rho_new/rho)*(alpha/omega)*(p - omega*v)
            p -= np.multiply(omega, v, out=w)
            p *= (rho_new / rho) * (alpha / omega)
            p += r
            rho = rho_new
            p_hat = precond(p)
            v = a @ p_hat
            gamma = float(r_hat @ v)
            if rho == 0.0 or gamma == 0.0 or not np.isfinite(gamma):
                break  # breakdown
            alpha = rho / gamma
            x += np.multiply(alpha, p_hat, out=w)
            r -= np.multiply(alpha, v, out=w)
            if np.linalg.norm(r) <= target:
                break
            s_hat = precond(r)
            t = a @ s_hat
            tt = float(t @ t)
            omega = float(t @ r) / tt if tt > 0.0 else 0.0
            if omega == 0.0 or not np.isfinite(omega):
                break  # breakdown
            x += np.multiply(omega, s_hat, out=w)
            r -= np.multiply(omega, t, out=w)
            if np.linalg.norm(r) <= target:
                break
        r = b - a @ x
        res = float(np.linalg.norm(r))
        stats = SolveStats(it, res, res <= target)
        if res > 0.5 * res_start:
            break
    if r_out is not None:
        r_out[...] = r
    return x, stats
