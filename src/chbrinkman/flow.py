"""Brinkman and Darcy flow solves on the MAC staggering.

Brinkman: -div(2*eta(phi)*Dv + lam(phi)*div(v)*I - p*I) + nu*v = F,
div(v) = Gamma_v, traction-free boundary T(v,p)n = 0.

The momentum operator is assembled from the discrete energy form
    a(v,v) = sum_cells 2*eta*(Dxx^2 + Dyy^2)*vol + lam*(div v)^2*vol
           + sum_nodes 4*eta_n*Dxy^2*w_n + nu*sum_faces v^2*vol_f
(one-sided tangential differences at boundary nodes).  The traction-free
condition is then the natural boundary condition and comes out identical to
the half-cell flux closure with boundary traction set to zero; the velocity
block is symmetric positive semidefinite by construction.  The strain
samples come from the cached ``grid.strain_operators`` and the dissipation
diagnostics evaluate this same form, so they equal v^T A v.  Continuity rows
enforce div(v) = Gamma_v exactly at every cell (solved, not penalized).
The saddle-point pattern depends on the grid alone: ``grid.saddle_pattern``
builds it once from those rows, and each assembly only fills in the
quadrature weights of phi.

The saddle point is solved by classical BiCGStab with a block
upper-triangular preconditioner built from the mean viscosities (Elman,
Silvester & Wathen, Finite Elements and Fast Iterative Solvers, ch. 8): the
diagonal velocity blocks are inverted exactly for constant viscosity by
fast diagonalization (``grid.velocity_blocks``), and the inverse pressure
Schur complement by minus the Cahouet-Chabard approximation
((2*eta + lam)*I + nu*L_D^-1)/vol, with L_D the Darcy pressure operator --
at eta = lam = 0 the exact Darcy solve, so the Brinkman->Darcy limit
carries into the preconditioner.  If the Krylov tolerance lands unevenly on
the continuity rows and div(v) misses Gamma_v, up to two correction passes
solve A*dx = b - A*x, each to one more digit.

Darcy (vanishing-viscosity reference): -lap(p) = nu*Gamma_v - div(F) with
p = 0 ghost closure on boundary faces, then v = (F - grad p)/nu where the
gradient uses the same p = 0 ghost on boundary faces so that
div(v) = Gamma_v holds up to the pressure residual.  The pressure operator
is constant, so its fast-diagonalization solve is exact and no Krylov loop
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import (CellField, FaceField, Grid2D, divergence_of_faces,
                   face_volumes, gradient_to_faces, minus_laplacian,
                   norm_l2_cells, saddle_pattern, strain_operators,
                   velocity_blocks)
from .linalg import LinearSystem, SolveStats, SolverFailure, bicgstab_solve
from .model import eval_source_gamma_v


@dataclass
class FlowSolution:
    vel: FaceField
    p: CellField
    stats: SolveStats
    div_residual: float


def face_average(g: Grid2D, f: CellField) -> FaceField:
    """Arithmetic two-cell average onto faces; boundary faces copy the
    adjacent cell."""
    ax = np.empty((g.nx + 1, g.ny))
    ax[1:-1, :] = 0.5 * (f[1:, :] + f[:-1, :])
    ax[0, :] = f[0, :]
    ax[-1, :] = f[-1, :]
    ay = np.empty((g.nx, g.ny + 1))
    ay[:, 1:-1] = 0.5 * (f[:, 1:] + f[:, :-1])
    ay[:, 0] = f[:, 0]
    ay[:, -1] = f[:, -1]
    return FaceField(ax, ay)


def _stacked(vel: FaceField) -> np.ndarray:
    """Face values in the order of the Brinkman unknowns: x faces, then y
    faces, each flattened C-order."""
    return np.concatenate([vel.x.ravel(), vel.y.ravel()])


def _cell_values(f, phi: CellField) -> np.ndarray:
    """A coefficient of phi as a flat cell array."""
    return np.asarray(f(phi), dtype=float).ravel()


def _shear_weights(g: Grid2D, eta: np.ndarray) -> np.ndarray:
    """Quadrature weights of the shear terms at the rows of
    ``strain_operators(g).shear`` for the flat cell viscosity eta:
    2*eta*vol at cells (for dvx/dx, then for dvy/dy) and 4*eta_n*w_n at
    nodes.  With eta_n the mean of the k cells around a node and
    w_n = k*vol/4 its patch area, 4*eta_n*w_n is vol times the sum of eta
    over those cells."""
    vol = g.cell_volume
    two_eta = 2.0 * vol * eta
    return np.concatenate([two_eta, two_eta,
                           vol * (strain_operators(g).node_sum @ eta)])


def _brinkman_preconditioner(g: Grid2D, grad, eta: float, lam: float,
                             nu: float, scale: np.ndarray):
    """Block upper-triangular approximation of the inverse of the scaled
    Brinkman system with pressure-gradient block ``grad`` (G), for the mean
    viscosities eta and lam: with r = v/scale,
    p = -((2*eta + lam)*r_p + nu*L_D^-1 r_p)/vol, then
    u = A^-1 (r_u - G p) block by block, and [u; p]/scale."""
    block_x, block_y = velocity_blocks(g)
    darcy = minus_laplacian(g, np.inf)
    vol = g.cell_volume
    strain = 2.0 * eta + lam
    nvx = (g.nx + 1) * g.ny
    nv = grad.shape[0]

    def apply(v):
        r = v / scale
        p = -(strain * r[nv:] + nu * darcy.solve(r[nv:])) / vol
        r_u = r[:nv] - grad @ p
        u_x = block_x.solve(r_u[:nvx], nu, (strain, eta))
        u_y = block_y.solve(r_u[nvx:], nu, (eta, strain))
        return np.concatenate([u_x / vol, u_y / vol, p]) / scale

    return apply


def assemble_brinkman_system(g: Grid2D, phi: CellField, spec,
                             gamma_v: CellField, force: FaceField):
    """Monolithic staggered system in (vx, vy, p).

    The symmetric energy form (momentum rows volume-weighted, continuity
    rows scaled by -vol_c so the pressure blocks are mutual transposes) is
    filled into the cached ``grid.saddle_pattern``: the quadrature weights
    of phi go through its scatter, and the result is symmetrically
    Jacobi-scaled in place, sharing the pattern's index arrays.  Returns
    (LinearSystem, unknown_scale): physical unknowns are
    unknown_scale * solution_of(LinearSystem).  The system carries the
    block-triangular preconditioner of the scaled matrix.
    """
    nu = spec.params.nu
    eta = _cell_values(spec.viscosity.eta, phi)
    w_shear = _shear_weights(g, eta)
    if nu <= 0 and np.max(w_shear) <= 0:
        raise ValueError("singular Brinkman assembly: nu <= 0 with eta <= 0")

    pattern = saddle_pattern(g)
    lam = _cell_values(spec.viscosity.lam, phi)
    vol_c = g.cell_volume
    wx, wy = face_volumes(g)
    vol_f = np.concatenate([wx.ravel(), wy.ravel()])
    data = pattern.scatter @ np.concatenate([w_shear, lam * vol_c,
                                             nu * vol_f])
    data += pattern.const.data
    rhs = np.concatenate([vol_f * _stacked(force),
                          -vol_c * np.asarray(gamma_v, dtype=float).ravel()])

    # symmetric rescale: pressure columns and continuity rows by 1/dx so the
    # Krylov tolerance lands on the continuity block at the Gamma_v scale,
    # then Jacobi-symmetric scaling of the whole system (the continuity rows
    # have no diagonal)
    d = np.abs(data[pattern.diagonal])
    d[d == 0.0] = 1.0
    scale = np.concatenate([1.0 / np.sqrt(d),
                            np.full(g.n_cells, 1.0 / min(g.dx, g.dy))])
    data *= scale[pattern.rows]
    data *= scale[pattern.const.indices]
    a_scaled = sp.csr_matrix((data, pattern.const.indices,
                              pattern.const.indptr), shape=pattern.const.shape)
    precond = _brinkman_preconditioner(g, pattern.grad, float(np.mean(eta)),
                                       float(np.mean(lam)), nu, scale)
    return LinearSystem(a_scaled, rhs * scale, precond), scale


def brinkman_force(g: Grid2D, phi, mu, sigma, spec,
                   extra_force: FaceField | None) -> FaceField:
    """(mu + chi*sigma)*grad(phi) interpolated to faces, plus extra_force."""
    coeff = face_average(g, mu + spec.params.chi * sigma)
    gphi = gradient_to_faces(g, phi)
    f = FaceField(coeff.x * gphi.x, coeff.y * gphi.y)
    if extra_force is not None:
        f = f + extra_force
    return f


def solve_brinkman(g: Grid2D, phi: CellField, mu: CellField, sigma: CellField,
                   spec, extra_force: FaceField | None = None,
                   tol: float = 1e-9) -> FlowSolution:
    gamma_v = eval_source_gamma_v(spec.sources, phi, sigma)
    force = brinkman_force(g, phi, mu, sigma, spec, extra_force)
    system, scale = assemble_brinkman_system(g, phi, spec, gamma_v, force)
    gnorm = norm_l2_cells(g, np.asarray(gamma_v, dtype=float)
                          + np.zeros((g.nx, g.ny)))

    nvx = (g.nx + 1) * g.ny
    nvy = g.nx * (g.ny + 1)
    bnorm = np.linalg.norm(system.rhs)
    x_scaled = np.zeros(system.rhs.size)
    residual, solve_tol, iterations = system.rhs, tol, 0
    for _ in range(3):
        # the correction A*dx = residual, to solve_tol relative to the rhs
        rnorm = np.linalg.norm(residual)
        dx, stats = bicgstab_solve(
            system.matrix, residual, system.precond,
            tol=solve_tol * (bnorm / rnorm if rnorm > 0.0 else 1.0))
        iterations += stats.iterations
        if not stats.converged:
            raise SolverFailure(
                f"Brinkman solve did not converge (residual "
                f"{stats.residual:.3e} after {iterations} iterations)",
                SolveStats(iterations, stats.residual, False), stage="flow")
        x_scaled = x_scaled + dx
        x = scale * x_scaled
        vel = FaceField(x[:nvx].reshape(g.nx + 1, g.ny),
                        x[nvx:nvx + nvy].reshape(g.nx, g.ny + 1))
        p = x[nvx + nvy:].reshape(g.nx, g.ny)
        div_res = norm_l2_cells(g, divergence_of_faces(g, vel) - gamma_v)
        if gnorm == 0.0 or div_res <= 5.0 * tol * gnorm:
            break
        residual = system.rhs - system.matrix @ x_scaled
        solve_tol *= 0.1
    stats = SolveStats(iterations, stats.residual, True)
    return FlowSolution(vel, p, stats, div_res)


def _gradient_dirichlet_ghost(g: Grid2D, p: CellField) -> FaceField:
    """Pressure gradient with p = 0 ghost values on boundary faces."""
    grad = gradient_to_faces(g, p)
    grad.x[0, :] = p[0, :] / (0.5 * g.dx)
    grad.x[-1, :] = -p[-1, :] / (0.5 * g.dx)
    grad.y[:, 0] = p[:, 0] / (0.5 * g.dy)
    grad.y[:, -1] = -p[:, -1] / (0.5 * g.dy)
    return grad


def assemble_darcy_pressure_system(g: Grid2D, gamma_v: CellField, nu: float,
                                   force: FaceField) -> LinearSystem:
    """-lap(p) = nu*Gamma_v - div(F), homogeneous Dirichlet ghost closure;
    the operator is constant, so its preconditioner is the exact solve."""
    op = minus_laplacian(g, np.inf)
    b = nu * np.asarray(gamma_v, dtype=float) - divergence_of_faces(g, force)
    return LinearSystem(op.matrix, b.ravel(), op.solve)


def solve_darcy(g: Grid2D, phi: CellField, mu: CellField, sigma: CellField,
                spec, extra_force: FaceField | None = None,
                tol: float = 1e-10) -> FlowSolution:
    """Darcy pressure and velocity; div(v) - Gamma_v = -r/nu for the
    pressure residual r."""
    nu = spec.params.nu
    if nu <= 0:
        raise ValueError("(A1): Darcy solve needs nu > 0")
    gamma_v = eval_source_gamma_v(spec.sources, phi, sigma)
    force = brinkman_force(g, phi, mu, sigma, spec, extra_force)
    system = assemble_darcy_pressure_system(g, gamma_v, nu, force)
    x = system.precond(system.rhs)
    res = float(np.linalg.norm(system.rhs - system.matrix @ x))
    stats = SolveStats(0, res, res <= tol * np.linalg.norm(system.rhs))
    if not stats.converged:
        raise SolverFailure(
            f"Darcy pressure solve missed its tolerance (residual "
            f"{res:.3e})", stats, stage="flow")
    p = x.reshape(g.nx, g.ny)
    grad_p = _gradient_dirichlet_ghost(g, p)
    vel = FaceField((force.x - grad_p.x) / nu, (force.y - grad_p.y) / nu)
    div_res = norm_l2_cells(g, divergence_of_faces(g, vel) - gamma_v)
    return FlowSolution(vel, p, stats, div_res)


# dissipation diagnostics ---------------------------------------------------

def shear_dissipation(g: Grid2D, vel: FaceField, phi: CellField, spec) -> float:
    """int 2*eta(phi)*|Dv|^2 alone (the part of the viscous energy that
    dies out in the Darcy limit): the shear terms of the Brinkman energy
    form, diagonal strain at cells and off-diagonal at nodes."""
    strain = strain_operators(g).shear @ _stacked(vel)
    w_shear = _shear_weights(g, _cell_values(spec.viscosity.eta, phi))
    return float(w_shear @ strain**2)


def viscous_dissipation(g: Grid2D, vel: FaceField, phi: CellField, spec) -> float:
    """Discrete int 2*eta(phi)|Dv|^2 + lam(phi)(div v)^2 + nu|v|^2: the
    energy form v^T A v of the assembled Brinkman momentum block, from the
    same strain operators and quadrature weights."""
    lam = _cell_values(spec.viscosity.lam, phi)
    div_v = strain_operators(g).div @ _stacked(vel)
    wx, wy = face_volumes(g)
    return (shear_dissipation(g, vel, phi, spec)
            + g.cell_volume * float(lam @ div_v**2)
            + spec.params.nu * float(np.sum(wx * vel.x**2)
                                     + np.sum(wy * vel.y**2)))
