"""Uniform rectangular 2D MAC mesh and its discrete operators.

Layout conventions used everywhere in this package:

* cell fields   -- arrays of shape (nx, ny), value at cell center
                   ((i+1/2)*dx, (j+1/2)*dy)
* face fields   -- x-components on the (nx+1, ny) vertical faces at
                   (i*dx, (j+1/2)*dy), y-components on the (nx, ny+1)
                   horizontal faces at ((i+1/2)*dx, j*dy)
* flat cells    -- a cell field flattened C-order, index i*ny + j
* stacked faces -- one array of face values: the x faces, then the y
                   faces, each flattened C-order (``stacked`` and
                   ``unstacked`` convert)
* boundary fields -- one value per boundary face, ordered
                   (bottom, right, top, left), each side traversed in
                   increasing coordinate; total length 2*(nx+ny)

All operators are pure functions of their inputs.  Geometry-only
operators are cached per (Grid2D, boundary term); Grid2D is frozen and
hashable, and the cached objects are read-only.

The divergence, the zero-flux gradient and the face mean exist once, as
the matrices of ``mac_operators`` between flat cells and stacked faces;
the flow and Cahn-Hilliard solves, the Korteweg force, the advection and
the diagnostics all read them.

A matrix whose coefficients vary with the solution is a weighted form
L^T diag(w) R + C of fixed sparse rows L and R: ``form_pattern`` is the
one builder of its sparsity pattern and of the scatter that turns the
weights w into the pattern's data, so each assembly is one sparse product.
It holds the Brinkman saddle point and the y-by-x velocity coupling of its
preconditioner (``flow``) and the Cahn-Hilliard matrix (``stepper``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .linalg import KroneckerOperator

CellField = np.ndarray
BoundaryField = np.ndarray


@dataclass(frozen=True)
class Grid2D:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid needs nx, ny >= 3, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("domain lengths must be positive")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_centers(self):
        """Meshgrid (X, Y) of cell centers, each of shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def xface_centers(self):
        x = np.arange(self.nx + 1) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def yface_centers(self):
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = np.arange(self.ny + 1) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def n_boundary_faces(self) -> int:
        return 2 * (self.nx + self.ny)


@dataclass
class FaceField:
    """Staggered vector field: x on (nx+1, ny) faces, y on (nx, ny+1) faces."""

    x: np.ndarray
    y: np.ndarray

    def __add__(self, other: "FaceField") -> "FaceField":
        return FaceField(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "FaceField") -> "FaceField":
        return FaceField(self.x - other.x, self.y - other.y)

    def norm_l2(self, g: Grid2D) -> float:
        """Discrete L2 norm with half cell volumes on boundary faces."""
        wx, wy = face_volumes(g)
        return float(np.sqrt(np.sum(wx * self.x**2) + np.sum(wy * self.y**2)))


def face_zeros(g: Grid2D) -> FaceField:
    return FaceField(np.zeros((g.nx + 1, g.ny)), np.zeros((g.nx, g.ny + 1)))


def face_volumes(g: Grid2D):
    """Control volumes attached to faces (half cells on the boundary)."""
    wx = np.full((g.nx + 1, g.ny), g.cell_volume)
    wx[0, :] *= 0.5
    wx[-1, :] *= 0.5
    wy = np.full((g.nx, g.ny + 1), g.cell_volume)
    wy[:, 0] *= 0.5
    wy[:, -1] *= 0.5
    return wx, wy


def stacked(vel: FaceField) -> np.ndarray:
    """Face values in stacked order: x faces, then y faces, each flattened
    C-order."""
    return np.concatenate([vel.x.ravel(), vel.y.ravel()])


def unstacked(g: Grid2D, v: np.ndarray) -> FaceField:
    """The FaceField of stacked face values v (the inverse of ``stacked``)."""
    nvx = (g.nx + 1) * g.ny
    return FaceField(v[:nvx].reshape(g.nx + 1, g.ny),
                     v[nvx:].reshape(g.nx, g.ny + 1))


def integrate_cells(g: Grid2D, f: CellField) -> float:
    return float(np.sum(f) * g.cell_volume)


def norm_l2_cells(g: Grid2D, f: CellField) -> float:
    return float(np.sqrt(np.sum(f**2) * g.cell_volume))


def advect_upwind(g: Grid2D, phi: CellField, vel: FaceField) -> CellField:
    """Conservative first-order upwind discretization of div(phi*v): the
    face flux v*phi takes phi from the cell on the upwind side (the
    adjacent cell on a boundary face)."""
    ops = mac_operators(g)
    v = stacked(vel)
    flux = v * np.take(phi, np.where(v > 0, ops.below, ops.above))
    return (ops.div @ flux).reshape(g.nx, g.ny)


def boundary_flux_integral(g: Grid2D, phi: CellField, vel: FaceField) -> float:
    """Discrete boundary integral of phi*(v.n), same upwinding convention as
    advect_upwind so that integrate_cells(advect_upwind(..)) telescopes to it."""
    out = 0.0
    out += float(np.sum(vel.x[-1, :] * phi[-1, :])) * g.dy   # right,  n=+x
    out -= float(np.sum(vel.x[0, :] * phi[0, :])) * g.dy     # left,   n=-x
    out += float(np.sum(vel.y[:, -1] * phi[:, -1])) * g.dx   # top,    n=+y
    out -= float(np.sum(vel.y[:, 0] * phi[:, 0])) * g.dx     # bottom, n=-y
    return out


# boundary face bookkeeping -------------------------------------------------

def as_boundary(g: Grid2D, value) -> BoundaryField:
    """value in packed boundary order: a scalar is broadcast to every
    boundary face, an array must hold one value per face."""
    arr = np.asarray(value, dtype=float)
    n = g.n_boundary_faces()
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(
            f"boundary data must be scalar or length {n} (one value per "
            f"boundary face), got shape {arr.shape}")
    return arr


def boundary_face_centers(g: Grid2D):
    """(x, y) coordinates of boundary face centers in packed order."""
    xc = (np.arange(g.nx) + 0.5) * g.dx
    yc = (np.arange(g.ny) + 0.5) * g.dy
    xs = np.concatenate([xc, np.full(g.ny, g.lx), xc, np.zeros(g.ny)])
    ys = np.concatenate([np.zeros(g.nx), yc, np.full(g.nx, g.ly), yc])
    return xs, ys


def boundary_face_lengths(g: Grid2D) -> np.ndarray:
    return np.concatenate([
        np.full(g.nx, g.dx), np.full(g.ny, g.dy),
        np.full(g.nx, g.dx), np.full(g.ny, g.dy),
    ])


def boundary_adjacent_cells(g: Grid2D):
    """Flat cell indices (C-order, idx = i*ny + j) adjacent to each boundary
    face, packed order."""
    nx, ny = g.nx, g.ny
    i = np.arange(nx)
    j = np.arange(ny)
    bottom = i * ny + 0
    right = (nx - 1) * ny + j
    top = i * ny + (ny - 1)
    left = 0 * ny + j
    return np.concatenate([bottom, right, top, left])


def boundary_normal_spacing(g: Grid2D) -> np.ndarray:
    """Mesh spacing normal to each boundary face, packed order."""
    return np.concatenate([
        np.full(g.nx, g.dy), np.full(g.ny, g.dx),
        np.full(g.nx, g.dy), np.full(g.ny, g.dx),
    ])


# cell-centered Laplacian ---------------------------------------------------

def boundary_transfer(K: float, delta):
    """Effective transfer coefficient of a boundary face whose ghost value
    is eliminated from the Robin condition d_n u = K*(u_inf - u) at the face
    centre: the face flux becomes K_eff*(u_inf - u_c) with
    K_eff = K/(1 + K*delta/2); K = inf gives the Dirichlet ghost 2/delta and
    K = 0 the zero-flux face."""
    if np.isinf(K):
        return 2.0 / np.asarray(delta, dtype=float)
    return K / (1.0 + K * np.asarray(delta, dtype=float) / 2.0)


def _second_difference(n: int, h: float, end: float) -> np.ndarray:
    """Minus the 3-point second difference on n cells of width h with
    zero-flux ends, plus ``end`` on the first and last diagonal entries."""
    t = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
    t[0, 0] = t[-1, -1] = 1.0 / h**2 + end
    return t


@lru_cache(maxsize=32)
def minus_laplacian(g: Grid2D, K: float = 0.0) -> KroneckerOperator:
    """Minus the 5-point Laplacian on flat cell indices (i*ny + j) with every
    boundary face closed by ``boundary_transfer(K, delta)``: K = 0 zero flux
    (the Cahn-Hilliard operator), K > 0 Robin (the nutrient), K = inf the
    Dirichlet ghost (the Dirichlet nutrient and the Darcy pressure)."""
    end_x = float(boundary_transfer(K, g.dx)) / g.dx
    end_y = float(boundary_transfer(K, g.dy)) / g.dy
    return KroneckerOperator(_second_difference(g.nx, g.dx, end_x),
                             _second_difference(g.ny, g.dy, end_y))


def difference(n: int, h: float) -> sp.csr_matrix:
    """(n x n+1): the difference of n+1 values h apart across each of the n
    intervals between them, over h."""
    return sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n, n + 1),
                    format="csr")


def read_only(m) -> sp.csr_matrix:
    """m as sorted CSR without stored zeros (kron of small factors stores
    some), with read-only arrays."""
    m = sp.csr_matrix(m)
    m.eliminate_zeros()
    m.sort_indices()
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return m


# the MAC operators ---------------------------------------------------------

@dataclass(frozen=True)
class MacOperators:
    """The MAC operators of one grid, read-only, between flat cells
    (i*ny + j) and stacked faces (``stacked``).

    ``div`` (cells x faces) is the cell divergence of face values.
    ``grad`` (faces x cells) is the zero-flux gradient: -div^T on interior
    faces, no entries on boundary faces, so grad^T grad is
    ``minus_laplacian(g)``.  ``mean`` (faces x cells) is the two-cell mean,
    the adjacent cell on a boundary face; ``below`` and ``above`` are the
    cells it reads, in increasing index (the adjacent cell twice on a
    boundary face).  ``vol_f`` holds the face volumes (half cells on the
    boundary) and ``grad_dirichlet`` the gradient with the p = 0 ghost on
    boundary faces, -diag(vol/vol_f) div^T, so div diag(vol/vol_f) div^T
    is ``minus_laplacian(g, inf)``."""

    div: sp.csr_matrix
    grad: sp.csr_matrix
    mean: sp.csr_matrix
    below: np.ndarray
    above: np.ndarray
    vol_f: np.ndarray
    grad_dirichlet: sp.csr_matrix


def _axis_operators(n: int, h: float):
    """(div, grad, mean) along one axis of n cells of width h: the
    difference of the n+1 face values across each cell (n x n+1), the
    difference of the cell values across each interior face with empty end
    rows (n+1 x n) and the mean of the cells each face touches (n+1 x n)."""
    empty = sp.csr_matrix((1, n))
    touch = sp.eye(n + 1, n) + sp.eye(n + 1, n, k=-1)
    return (difference(n, h),
            sp.vstack([empty, difference(n - 1, h), empty]),
            sp.diags(np.r_[1.0, np.full(n - 1, 0.5), 1.0]) @ touch)


@lru_cache(maxsize=32)
def mac_operators(g: Grid2D) -> MacOperators:
    """The MAC operators of g as Kronecker products of 1D pieces, built
    once per grid; the solves, the force, the advection and the
    diagnostics all read them."""
    (div_x, grad_x, mean_x), (div_y, grad_y, mean_y) = (
        _axis_operators(g.nx, g.dx), _axis_operators(g.ny, g.dy))
    ex, ey = sp.identity(g.nx), sp.identity(g.ny)
    div = read_only(sp.hstack([sp.kron(div_x, ey), sp.kron(ex, div_y)]))
    grad, mean = (read_only(sp.vstack([sp.kron(x, ey), sp.kron(ex, y)]))
                  for x, y in ((grad_x, grad_y), (mean_x, mean_y)))
    vol_f = stacked(FaceField(*face_volumes(g)))
    below = mean.indices[mean.indptr[:-1]]
    above = mean.indices[mean.indptr[1:] - 1]
    for arr in (vol_f, below, above):
        arr.flags.writeable = False
    return MacOperators(div, grad, mean, below, above, vol_f,
                        read_only(sp.diags(g.cell_volume / vol_f)
                                  @ -div.T))


def _entry_keys(n: int, rows, cols) -> np.ndarray:
    """The keys row*n + col of entries of a matrix with n columns.  They
    are int64: at 128^2 the Brinkman system has n = 49,408 columns, and
    row*n overflows int32."""
    keys = np.multiply(rows, np.int64(n), dtype=np.int64)
    keys += cols
    return keys


def _pattern_keys(pattern: sp.csr_matrix) -> np.ndarray:
    """The sorted keys of the stored entries of the sorted CSR pattern."""
    return _entry_keys(pattern.shape[1],
                       np.repeat(np.arange(pattern.shape[0]),
                                 np.diff(pattern.indptr)), pattern.indices)


def csr_slots(pattern: sp.csr_matrix, rows, cols) -> np.ndarray:
    """Position in ``pattern.data`` of each stored entry (rows[k], cols[k])
    of the sorted CSR ``pattern``, found by bisection in the sorted entry
    keys row*n + col."""
    return np.searchsorted(_pattern_keys(pattern),
                           _entry_keys(pattern.shape[1], rows, cols))


def _widened(m: sp.csr_matrix, n: int) -> sp.csr_matrix:
    """m with n columns, the extra ones empty."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=(m.shape[0], n))


def _meeting_entries(left: sp.csr_matrix, right: sp.csr_matrix,
                     r0: int, r1: int):
    """(k_left, k_right): the entries of L and R that meet in rows r0:r1.
    The pairs of row r are consecutive: each entry of L's row r in turn
    meets the n_right[r] entries of R's row r."""
    n_left = np.diff(left.indptr[r0:r1 + 1])
    meets = np.repeat(np.diff(right.indptr[r0:r1 + 1]), n_left)
    k_left = np.repeat(np.arange(left.indptr[r0], left.indptr[r1],
                                 dtype=np.int32), meets)
    k_right = np.arange(k_left.size, dtype=np.int32)
    k_right -= np.repeat(np.cumsum(meets, dtype=np.int32) - meets
                         - np.repeat(right.indptr[r0:r1], n_left), meets)
    return k_left, k_right


# pairs that ``form_pattern`` places at once, in whole rows: their
# temporaries take about 1 MB
_PAIR_BLOCK = 2**14


def form_pattern(left: sp.csr_matrix, right: sp.csr_matrix | None = None,
                 const: sp.csr_matrix | None = None):
    """The pattern of L^T diag(w) R + C for every weight vector w, as
    read-only arrays built once.  L (``left``) and R (``right``, L when
    omitted) are CSR with one row per weight and act on the leading rows
    and columns of C (``const``; when omitted, empty with L's columns by
    R's).

    Returns (pattern, scatter, diagonal): ``pattern`` is the sorted CSR
    pattern holding C's data (0 elsewhere), ``scatter`` maps w to the data
    of L^T diag(w) R in it (each entry (r, i) of L meets each entry (r, j)
    of R and puts L[r,i]*R[r,j] at the slot of (i, j) in column r) and
    ``diagonal`` holds the slots of the diagonal.  The pairs are placed a
    block of rows of L and R at a time, so that no index array of all of
    them is held at once."""
    right = left if right is None else right
    if const is None:
        const = sp.csr_matrix((left.shape[1], right.shape[1]))
    left = _widened(left, const.shape[0])
    right = _widened(right, const.shape[1])
    full = sp.csr_matrix(abs(left).T @ abs(right) + abs(const))
    full.sort_indices()
    const = sp.coo_matrix(const)
    full.data[:] = 0.0
    full.data[csr_slots(full, const.row, const.col)] = const.data
    keys = _pattern_keys(full)
    offsets = np.concatenate([[0], np.cumsum(np.diff(left.indptr)
                                             * np.diff(right.indptr))])
    slots = np.empty(offsets[-1], dtype=np.int32)
    data = np.empty(offsets[-1])
    bounds = np.unique(np.r_[0, np.searchsorted(
        offsets, np.arange(_PAIR_BLOCK, offsets[-1], _PAIR_BLOCK)),
        left.shape[0]])
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        k_left, k_right = _meeting_entries(left, right, r0, r1)
        block = slice(offsets[r0], offsets[r1])
        slots[block] = np.searchsorted(keys, _entry_keys(
            full.shape[1], left.indices[k_left], right.indices[k_right]))
        data[block] = left.data[k_left] * right.data[k_right]
    del keys
    scatter = sp.csc_matrix((data, slots, offsets),
                            shape=(full.nnz, left.shape[0]))
    rows = np.repeat(np.arange(full.shape[0], dtype=np.int32),
                     np.diff(full.indptr))
    diagonal = np.flatnonzero(full.indices == rows).astype(np.int32)
    for arr in (full.data, full.indices, full.indptr, scatter.data,
                scatter.indices, scatter.indptr, diagonal):
        arr.flags.writeable = False
    return full, scatter, diagonal


def form_matrix(pattern: sp.csr_matrix, scatter: sp.csc_matrix,
                w: np.ndarray) -> sp.csr_matrix:
    """L^T diag(w) R + C from its ``form_pattern`` (pattern, scatter), with
    the pattern's (read-only, shared) index arrays and new data."""
    data = scatter @ w
    data += pattern.data
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=pattern.shape)
