"""Quasi-static nutrient solves: -lap(sigma) + h(phi)*sigma = extra_rhs with
Robin flux d_n sigma = K*(sigma_inf - sigma), plus the Dirichlet mode used as
the large-K reference.

Robin ghost closure (second order, keeps the matrix SPD): eliminating the
ghost value from
    (sigma_ghost - sigma_c)/delta = K*(sigma_inf - (sigma_ghost+sigma_c)/2)
turns the boundary-face flux into K_eff*(sigma_inf - sigma_c) with
K_eff = K/(1 + K*delta/2); K -> inf recovers the Dirichlet ghost 2/delta.
"""

from __future__ import annotations

import numpy as np

from .grid import (CellField, Grid2D, as_boundary, boundary_adjacent_cells,
                   boundary_face_lengths, boundary_normal_spacing,
                   boundary_transfer, minus_laplacian)
from .linalg import LinearSystem, SolverFailure, cg_solve


def assemble_nutrient_system(g: Grid2D, phi: CellField, spec, sigma_inf,
                             mode: str = "robin",
                             extra_rhs: CellField | None = None) -> LinearSystem:
    """-lap + h(phi) with the Robin (or Dirichlet) ghost closure; the
    preconditioner is the exact solve with h replaced by its mean."""
    if not np.all(np.isfinite(phi)):
        raise ValueError("non-finite phi passed to nutrient solve")
    sig_inf = as_boundary(g, sigma_inf)
    if not np.all(np.isfinite(sig_inf)):
        raise ValueError("non-finite sigma_inf passed to nutrient solve")

    h = np.asarray(spec.sources.h(phi), dtype=float)
    if np.any(h < 0):
        raise ValueError("(A4): h(phi) must be non-negative")
    if mode == "robin":
        K = spec.params.K
        if K <= 0:
            raise ValueError("(A1): boundary permeability K must be positive")
    elif mode == "dirichlet":
        K = np.inf
    else:
        raise ValueError(f"unknown nutrient mode {mode!r}")
    op = minus_laplacian(g, K)
    a = op.plus_diagonal(h.ravel())

    delta = boundary_normal_spacing(g)
    b = np.zeros(g.n_cells)
    np.add.at(b, boundary_adjacent_cells(g),
              boundary_transfer(K, delta) * sig_inf / delta)
    if extra_rhs is not None:
        b += np.asarray(extra_rhs, dtype=float).ravel()
    h_mean = float(np.mean(h))
    return LinearSystem(a, b, lambda v: op.solve(v, shift=h_mean))


def _solve(g, phi, spec, sigma_inf, mode, extra_rhs, tol):
    system = assemble_nutrient_system(g, phi, spec, sigma_inf, mode, extra_rhs)
    x, stats = cg_solve(system.matrix, system.rhs, system.precond, tol=tol)
    if not stats.converged:
        raise SolverFailure(
            f"nutrient {mode} solve did not converge "
            f"(residual {stats.residual:.3e} after {stats.iterations} iterations)",
            stats, stage="nutrient")
    return x.reshape(g.nx, g.ny), stats


def solve_nutrient_robin(g: Grid2D, phi: CellField, spec, sigma_inf,
                         extra_rhs: CellField | None = None,
                         tol: float = 1e-10):
    """Robin nutrient solve; returns (sigma, SolveStats)."""
    return _solve(g, phi, spec, sigma_inf, "robin", extra_rhs, tol)


def solve_nutrient_dirichlet(g: Grid2D, phi: CellField, spec, sigma_inf,
                             extra_rhs: CellField | None = None,
                             tol: float = 1e-10):
    """Dirichlet (K -> infinity) nutrient solve; returns (sigma, SolveStats)."""
    return _solve(g, phi, spec, sigma_inf, "dirichlet", extra_rhs, tol)


def boundary_trace(g: Grid2D, sigma: CellField, sigma_inf, K: float):
    """Per-face trace gap sigma_face - sigma_inf and its L2(boundary) norm.

    sigma_face is reconstructed with the same Robin interpolant the solver
    eliminates: sigma_face = (sigma_c + (K*delta/2)*sigma_inf)/(1+K*delta/2),
    so the gap is (sigma_c - sigma_inf)/(1 + K*delta/2).  K = inf gives a
    zero gap (Dirichlet trace).
    """
    sig_inf = as_boundary(g, sigma_inf)
    cells = boundary_adjacent_cells(g)
    delta = boundary_normal_spacing(g)
    sig_c = sigma.ravel()[cells]
    with np.errstate(invalid="ignore"):
        denom = 1.0 + K * delta / 2.0
    if np.isinf(K):
        gap = np.zeros_like(sig_c)
    else:
        gap = (sig_c - sig_inf) / denom
    norm = float(np.sqrt(np.sum(gap**2 * boundary_face_lengths(g))))
    return gap, norm
