"""Uniform rectangular 2D MAC mesh and its discrete operators.

Layout conventions used everywhere in this package:

* cell fields   -- arrays of shape (nx, ny), value at cell center
                   ((i+1/2)*dx, (j+1/2)*dy)
* face fields   -- x-components on the (nx+1, ny) vertical faces at
                   (i*dx, (j+1/2)*dy), y-components on the (nx, ny+1)
                   horizontal faces at ((i+1/2)*dx, j*dy)
* boundary fields -- one value per boundary face, ordered
                   (bottom, right, top, left), each side traversed in
                   increasing coordinate; total length 2*(nx+ny)

All operators are pure functions of their inputs.  Geometry-only
operators are cached per (Grid2D, boundary term); Grid2D is frozen and
hashable, and the cached objects are read-only.

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


def gradient_to_faces(g: Grid2D, f: CellField) -> FaceField:
    """Two-point differences on interior faces, zero on boundary faces
    (homogeneous Neumann default)."""
    gx = np.zeros((g.nx + 1, g.ny))
    gy = np.zeros((g.nx, g.ny + 1))
    gx[1:-1, :] = (f[1:, :] - f[:-1, :]) / g.dx
    gy[:, 1:-1] = (f[:, 1:] - f[:, :-1]) / g.dy
    return FaceField(gx, gy)


def divergence_of_faces(g: Grid2D, w: FaceField) -> CellField:
    return (w.x[1:, :] - w.x[:-1, :]) / g.dx + (w.y[:, 1:] - w.y[:, :-1]) / g.dy


def laplacian_neumann(g: Grid2D, f: CellField) -> CellField:
    """5-point Laplacian with zero-flux closure; annihilates constants."""
    return divergence_of_faces(g, gradient_to_faces(g, f))


def integrate_cells(g: Grid2D, f: CellField) -> float:
    return float(np.sum(f) * g.cell_volume)


def norm_l2_cells(g: Grid2D, f: CellField) -> float:
    return float(np.sqrt(np.sum(f**2) * g.cell_volume))


def _upwind_flux(g: Grid2D, phi: CellField, vel: FaceField):
    """Face fluxes v*phi_upwind; boundary faces use the interior cell value."""
    fx = np.empty((g.nx + 1, g.ny))
    vx_in = vel.x[1:-1, :]
    fx[1:-1, :] = vx_in * np.where(vx_in > 0, phi[:-1, :], phi[1:, :])
    fx[0, :] = vel.x[0, :] * phi[0, :]
    fx[-1, :] = vel.x[-1, :] * phi[-1, :]

    fy = np.empty((g.nx, g.ny + 1))
    vy_in = vel.y[:, 1:-1]
    fy[:, 1:-1] = vy_in * np.where(vy_in > 0, phi[:, :-1], phi[:, 1:])
    fy[:, 0] = vel.y[:, 0] * phi[:, 0]
    fy[:, -1] = vel.y[:, -1] * phi[:, -1]
    return FaceField(fx, fy)


def advect_upwind(g: Grid2D, phi: CellField, vel: FaceField) -> CellField:
    """Conservative first-order upwind discretization of div(phi*v)."""
    return divergence_of_faces(g, _upwind_flux(g, phi, vel))


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


def csr_slots(pattern: sp.csr_matrix, rows, cols) -> np.ndarray:
    """Position in ``pattern.data`` of each stored entry (rows[k], cols[k])
    of the sorted CSR ``pattern``, found by bisection in the sorted entry
    keys row*n + col.  The keys are int64: at 128^2 the Brinkman system has
    n = 49,408 columns, and row*n overflows int32."""
    n = np.int64(pattern.shape[1])
    keys = np.repeat(np.arange(pattern.shape[0], dtype=np.int64),
                     np.diff(pattern.indptr))
    keys *= n
    keys += pattern.indices
    wanted = np.multiply(rows, n, dtype=np.int64)
    wanted += cols
    return np.searchsorted(keys, wanted)


def _widened(m: sp.csr_matrix, n: int) -> sp.csr_matrix:
    """m with n columns, the extra ones empty."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=(m.shape[0], n))


def form_pattern(left: sp.csr_matrix, right: sp.csr_matrix | None = None,
                 const: sp.csr_matrix | None = None):
    """The pattern of L^T diag(w) R + C for every weight vector w, as
    read-only arrays built once.  L (``left``) and R (``right``, L when
    omitted) are CSR with one row per weight and act on the leading rows
    and columns of C (``const``; when omitted, empty with L's columns by
    R's).

    Returns (pattern, scatter, rows, diagonal): ``pattern`` is the sorted
    CSR pattern holding C's data (0 elsewhere), ``scatter`` maps w to the
    data of L^T diag(w) R in it (each entry (r, i) of L meets each entry
    (r, j) of R and puts L[r,i]*R[r,j] at the slot of (i, j) in column r),
    ``rows`` is the row of each stored entry and ``diagonal`` the slots of
    the diagonal."""
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
    # the pairs of row r are consecutive: each entry of L's row r in turn
    # meets the n_right[r] entries of R's row r
    n_left, n_right = np.diff(left.indptr), np.diff(right.indptr)
    meets = np.repeat(n_right, n_left)
    k_left = np.repeat(np.arange(left.nnz, dtype=np.int32), meets)
    k_right = np.arange(k_left.size, dtype=np.int32)
    k_right -= np.repeat(np.cumsum(meets, dtype=np.int32) - meets
                         - np.repeat(right.indptr[:-1], n_left), meets)
    slots = csr_slots(full, left.indices[k_left],
                      right.indices[k_right]).astype(np.int32)
    scatter = sp.csc_matrix(
        (left.data[k_left] * right.data[k_right], slots,
         np.concatenate([[0], np.cumsum(n_left * n_right)])),
        shape=(full.nnz, left.shape[0]))
    rows = np.repeat(np.arange(full.shape[0], dtype=np.int32),
                     np.diff(full.indptr))
    diagonal = np.flatnonzero(full.indices == rows).astype(np.int32)
    for arr in (full.data, full.indices, full.indptr, scatter.data,
                scatter.indices, scatter.indptr, rows, diagonal):
        arr.flags.writeable = False
    return full, scatter, rows, diagonal


def form_matrix(pattern: sp.csr_matrix, scatter: sp.csc_matrix,
                w: np.ndarray) -> sp.csr_matrix:
    """L^T diag(w) R + C from its ``form_pattern`` (pattern, scatter), with
    the pattern's (read-only, shared) index arrays and new data."""
    data = scatter @ w
    data += pattern.data
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=pattern.shape)
