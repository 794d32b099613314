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

    def copy(self) -> "FaceField":
        return FaceField(self.x.copy(), self.y.copy())

    def __add__(self, other: "FaceField") -> "FaceField":
        return FaceField(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "FaceField") -> "FaceField":
        return FaceField(self.x - other.x, self.y - other.y)

    def __mul__(self, a: float) -> "FaceField":
        return FaceField(self.x * a, self.y * a)

    __rmul__ = __mul__

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

def boundary_pack(g: Grid2D, bottom, right, top, left) -> BoundaryField:
    bottom = np.broadcast_to(np.asarray(bottom, dtype=float), (g.nx,))
    top = np.broadcast_to(np.asarray(top, dtype=float), (g.nx,))
    right = np.broadcast_to(np.asarray(right, dtype=float), (g.ny,))
    left = np.broadcast_to(np.asarray(left, dtype=float), (g.ny,))
    return np.concatenate([bottom, right, top, left])


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


def _read_only(m) -> sp.csr_matrix:
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
                     np.diff(pattern.indptr)) * n + pattern.indices
    wanted = np.multiply(rows, n, dtype=np.int64)
    wanted += cols
    return np.searchsorted(keys, wanted)


@lru_cache(maxsize=32)
def _div_grad_scatter(g: Grid2D):
    """Sparse map from interior-face weights (x faces, then y faces, each
    flattened) to the data of div(w grad .) stored in the pattern of
    ``minus_laplacian(g).matrix``."""
    pattern = minus_laplacian(g).matrix
    cell = np.arange(g.n_cells).reshape(g.nx, g.ny)
    lo = np.concatenate([cell[:-1, :].ravel(), cell[:, :-1].ravel()])
    hi = np.concatenate([cell[1:, :].ravel(), cell[:, 1:].ravel()])
    sign = np.repeat([-1.0, 1.0, -1.0, 1.0], lo.size)
    # duplicate slots (the diagonal) are summed
    slot = csr_slots(pattern, np.concatenate([lo, lo, hi, hi]),
                     np.concatenate([lo, hi, hi, lo]))
    return _read_only(sp.csr_matrix(
        (sign, (slot, np.tile(np.arange(lo.size), 4))),
        shape=(pattern.nnz, lo.size)))


def div_m_grad(g: Grid2D, m_face: FaceField) -> sp.csr_matrix:
    """div(m grad .) with zero-flux boundary faces on flat cell indices,
    in the pattern of ``minus_laplacian(g).matrix``; symmetric NSD."""
    w = np.concatenate([(m_face.x[1:-1, :] / g.dx**2).ravel(),
                        (m_face.y[:, 1:-1] / g.dy**2).ravel()])
    return minus_laplacian(g).in_pattern(_div_grad_scatter(g) @ w)


# staggered strain geometry -------------------------------------------------

def _cell_difference(n: int, h: float) -> sp.csr_matrix:
    """(n x n+1): difference across each of n cells of width h."""
    return sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n, n + 1),
                    format="csr")


@dataclass(frozen=True)
class StrainOperators:
    """The staggered strain geometry of one grid, read-only, on the stacked
    face unknowns (x faces, then y faces, each flattened C-order).

    ``shear`` maps stacked v to dvx/dx and dvy/dy at cells, then
    (dvx/dy + dvy/dx)/2 at nodes (one-sided at boundary nodes); ``div``
    maps it to div v at cells; ``node_sum`` maps a flattened cell field to
    the sum of the cell values around each node.
    """

    shear: sp.csr_matrix
    div: sp.csr_matrix
    node_sum: sp.csr_matrix


def _strain_pieces(n: int, h: float):
    """The 1D strain pieces along one axis of n cells of width h: the cell
    difference (n x n+1), the one-sided node difference (n+1 x n; an end
    node takes the difference of its neighbour) and the node touch
    (n+1 x n; the cells around each node)."""
    return (_cell_difference(n, h),
            _cell_difference(n - 1, h)[np.r_[0, 0:n - 1, n - 2]],
            sp.eye(n + 1, n) + sp.eye(n + 1, n, k=-1))


@lru_cache(maxsize=32)
def strain_operators(g: Grid2D) -> StrainOperators:
    """The strain geometry of g as Kronecker products of 1D pieces, built
    once per grid; the Brinkman matrix and the viscous dissipation are both
    evaluated from it."""
    (cell_x, node_x, touch_x), (cell_y, node_y, touch_y) = (
        _strain_pieces(g.nx, g.dx), _strain_pieces(g.ny, g.dy))
    nx, ny = g.nx, g.ny
    d_xx = sp.kron(cell_x, sp.identity(ny))
    d_yy = sp.kron(sp.identity(nx), cell_y)
    d_xy = 0.5 * sp.hstack([sp.kron(sp.identity(nx + 1), node_y),
                            sp.kron(node_x, sp.identity(ny + 1))])
    return StrainOperators(
        shear=_read_only(sp.vstack([sp.block_diag([d_xx, d_yy]), d_xy])),
        div=_read_only(sp.hstack([d_xx, d_yy])),
        node_sum=_read_only(sp.kron(touch_x, touch_y)))


@dataclass(frozen=True)
class SaddlePattern:
    """The Brinkman saddle-point matrix [[A, G], [G^T, 0]] of one grid as a
    read-only pattern.  ``scatter`` maps the weights w of the energy form
    v^T A v = sum_r w_r (E v)_r^2, E = [shear; div; I], to the data of A in
    the pattern of ``const``, whose data holds G = -div^T*vol (``grad``) and
    G^T; ``rows`` is the row of each stored entry, ``diagonal`` the slots
    of A's diagonal."""

    const: sp.csr_matrix
    scatter: sp.csc_matrix
    grad: sp.csr_matrix
    rows: np.ndarray
    diagonal: np.ndarray


@lru_cache(maxsize=32)
def saddle_pattern(g: Grid2D) -> SaddlePattern:
    """The pattern of g, from the rows E of ``strain_operators`` once per
    grid: each pair of entries (r, i), (r, j) of E puts E[r,i]*E[r,j] at
    the slot of (i, j) in scatter column r."""
    ops = strain_operators(g)
    nv = ops.div.shape[1]
    energy = sp.vstack([ops.shear, ops.div, sp.identity(nv)], format="csr")
    grad = _read_only(-(ops.div.T) * g.cell_volume)
    full = sp.bmat([[abs(energy).T @ abs(energy), grad], [grad.T, None]],
                   format="csr")
    full.sort_indices()
    rows = np.repeat(np.arange(full.shape[0], dtype=np.int32),
                     np.diff(full.indptr))
    full.data[(rows < nv) & (full.indices < nv)] = 0.0
    # row r of E has count[r] entries and count[r]**2 consecutive pairs:
    # each of its entries (left) meets every entry of the row (right)
    count = np.diff(energy.indptr)
    repeat = np.repeat(count, count)
    first = np.cumsum(repeat, dtype=np.int32) - repeat  # first pair of left
    left = np.repeat(np.arange(energy.nnz, dtype=np.int32), repeat)
    right = np.arange(left.size, dtype=np.int32)
    right -= np.repeat(first - np.repeat(energy.indptr[:-1], count), repeat)
    slots = csr_slots(full, energy.indices[left],
                      energy.indices[right]).astype(np.int32)
    scatter = sp.csc_matrix(
        (energy.data[left] * energy.data[right], slots,
         np.concatenate([[0], np.cumsum(count**2)])),
        shape=(full.nnz, energy.shape[0]))
    diagonal = np.flatnonzero(full.indices == rows).astype(np.int32)
    for arr in (full.data, full.indices, full.indptr, scatter.data,
                scatter.indices, scatter.indptr, rows, diagonal):
        arr.flags.writeable = False
    return SaddlePattern(full, scatter, grad, rows, diagonal)


@lru_cache(maxsize=32)
def velocity_blocks(g: Grid2D) -> tuple[KroneckerOperator, KroneckerOperator]:
    """(x-face block, y-face block): the diagonal blocks of the Brinkman
    momentum matrix for constant viscosities, over the cell volume, as
    ``KroneckerOperator`` on the flat face indices.  On x faces

        T = Cx^T Cx (x) I  +  Hx (x) Ny^T diag(ty) Ny / 2,   M = Hx (x) I,

    with C the cell difference, N the one-sided node difference, t the node
    touch counts (1, 2, ..., 2, 1) and H = diag(1/2, 1, ..., 1, 1/2) the
    face volume weights: the block is then vol times T solved with weights
    (2*eta + lam, eta) and shift nu.  The y faces mirror it, with weights
    (eta, 2*eta + lam)."""
    normal, tangent, mass = [], [], []
    for n, h in ((g.nx, g.dx), (g.ny, g.dy)):
        cell, node, touch = _strain_pieces(n, h)
        t = touch @ np.ones(n)
        normal.append((cell.T @ cell).toarray())
        tangent.append(0.5 * (node.T @ sp.diags(t) @ node).toarray())
        mass.append(0.5 * t)  # H: the faces sit at the nodes of this axis
    return (KroneckerOperator(normal[0], tangent[1], mx=mass[0]),
            KroneckerOperator(tangent[0], normal[1], my=mass[1]))
