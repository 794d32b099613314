"""Quasi-static nutrient solves: -lap(sigma) + h(phi)*sigma = extra_rhs with
Robin flux d_n sigma = K*(sigma_inf - sigma), plus the Dirichlet mode used as
the large-K reference.

Robin ghost closure (second order, keeps the matrix SPD): eliminating the
ghost value from
    (sigma_ghost - sigma_c)/delta = K*(sigma_inf - (sigma_ghost+sigma_c)/2)
turns the boundary-face flux into K_eff*(sigma_inf - sigma_c) with
K_eff = K/(1 + K*delta/2); K -> inf recovers the Dirichlet ghost 2/delta.

Both modes are solved by ``linalg.bicgstab_solve``, preconditioned by the
exact fast-diagonalization solve with h(phi) replaced by its mean: a
constant h takes no iteration.  Handed a ``linalg.KeptOperator``, the
assembly keeps its matrix and that solve's per-mode divisor in it under
(grid, K) and the weights h, so a step with an unchanged h rebuilds
neither; a solve may start from a nearby solution, such as the last
level's sigma.
"""

from __future__ import annotations

import numpy as np

from .grid import (CellField, Grid2D, as_boundary, boundary_faces,
                   boundary_transfer, minus_laplacian)
from .linalg import (KeptOperator, LinearSystem, bicgstab_solve,
                     require_converged)


def assemble_nutrient_system(g: Grid2D, phi: CellField, spec, sigma_inf,
                             mode: str = "robin",
                             extra_rhs: CellField | None = None,
                             kept: KeptOperator | None = None) -> LinearSystem:
    """-lap + h(phi) with the Robin (or Dirichlet) ghost closure; the
    preconditioner is the exact solve with h replaced by its mean.  The
    matrix and preconditioner come from ``kept`` while (grid, K) and h
    repeat its last build; without it they are built and kept nowhere."""
    if not np.all(np.isfinite(phi)):
        raise ValueError("non-finite phi passed to nutrient solve")
    sig_inf = as_boundary(g, sigma_inf)
    if not np.all(np.isfinite(sig_inf)):
        raise ValueError("non-finite sigma_inf passed to nutrient solve")

    h = np.array(spec.sources.h(phi), dtype=float)
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

    def build():
        divisor = op.divisor(shift=float(np.mean(h)))
        return op.plus_diagonal(h.ravel()), lambda v: op.apply(v, divisor)

    a, precond = build() if kept is None else kept.get((g, K), h.ravel(),
                                                         build)

    faces = boundary_faces(g)
    b = np.zeros(g.n_cells)
    np.add.at(b, faces.cell,
              boundary_transfer(K, faces.spacing) * sig_inf / faces.spacing)
    if extra_rhs is not None:
        b += np.asarray(extra_rhs, dtype=float).ravel()
    return LinearSystem(a, b, precond)


def _solve(g, phi, spec, sigma_inf, mode, extra_rhs, tol, x0=None, kept=None):
    system = assemble_nutrient_system(g, phi, spec, sigma_inf, mode, extra_rhs,
                                      kept)
    x, stats = bicgstab_solve(system.matrix, system.rhs, system.precond,
                              tol=tol, x0=x0)
    require_converged(stats, f"nutrient {mode} solve", "nutrient")
    return x.reshape(g.nx, g.ny), stats


def solve_nutrient_robin(g: Grid2D, phi: CellField, spec, sigma_inf,
                         extra_rhs: CellField | None = None,
                         tol: float = 1e-10, x0: CellField | None = None,
                         kept: KeptOperator | None = None):
    """Robin nutrient solve; returns (sigma, SolveStats).  The Krylov solve
    starts from ``x0`` when given (a nearby sigma, such as the last
    level's), else from the preconditioned right-hand side; ``kept`` goes
    to ``assemble_nutrient_system``."""
    return _solve(g, phi, spec, sigma_inf, "robin", extra_rhs, tol, x0, kept)


def solve_nutrient_dirichlet(g: Grid2D, phi: CellField, spec, sigma_inf,
                             extra_rhs: CellField | None = None):
    """Dirichlet (K -> infinity) nutrient solve at tol 1e-10; returns
    (sigma, SolveStats)."""
    return _solve(g, phi, spec, sigma_inf, "dirichlet", extra_rhs, 1e-10)


def boundary_trace(g: Grid2D, sigma: CellField, sigma_inf, K: float):
    """Per-face trace gap sigma_face - sigma_inf and its L2(boundary) norm.

    sigma_face is reconstructed with the same Robin interpolant the solver
    eliminates: sigma_face = (sigma_c + (K*delta/2)*sigma_inf)/(1+K*delta/2),
    so the gap is (sigma_c - sigma_inf)/(1 + K*delta/2).  K = inf gives a
    zero gap (Dirichlet trace).
    """
    sig_inf = as_boundary(g, sigma_inf)
    faces = boundary_faces(g)
    sig_c = sigma.ravel()[faces.cell]
    with np.errstate(invalid="ignore"):
        denom = 1.0 + K * faces.spacing / 2.0
    if np.isinf(K):
        gap = np.zeros_like(sig_c)
    else:
        gap = (sig_c - sig_inf) / denom
    norm = float(np.sqrt(np.sum(gap**2 * faces.length)))
    return gap, norm
