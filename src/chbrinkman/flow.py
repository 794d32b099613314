"""Brinkman and Darcy flow solves on the MAC staggering.

Brinkman: -div(2*eta(phi)*Dv + lam(phi)*div(v)*I - p*I) + nu*v = F,
div(v) = Gamma_v, traction-free boundary T(v,p)n = 0.

The momentum operator is assembled from the discrete energy form
    a(v,v) = sum_cells 2*eta*(Dxx^2 + Dyy^2)*vol + lam*(div v)^2*vol
           + sum_nodes 4*eta_n*Dxy^2*w_n + nu*sum_faces v^2*vol_f
(one-sided tangential differences at boundary nodes).  The traction-free
condition is then the natural boundary condition and comes out identical to
the half-cell flux closure with boundary traction set to zero; the velocity
block is symmetric positive semidefinite by construction.  Continuity rows
enforce div(v) = Gamma_v exactly at every cell (solved, not penalized).

Darcy (vanishing-viscosity reference): -lap(p) = nu*Gamma_v - div(F) with
p = 0 ghost closure on boundary faces, then v = (F - grad p)/nu where the
gradient uses the same p = 0 ghost on boundary faces so that
div(v) = Gamma_v holds up to the CG residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import (CellField, FaceField, Grid2D, divergence_of_faces,
                   face_volumes, gradient_to_faces, minus_laplacian,
                   norm_l2_cells)
from .linalg import (LinearSystem, SolveStats, SolverFailure, bicgstab_solve,
                     cg_solve)
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


def _node_weights_and_eta(g: Grid2D, eta_c: CellField):
    """Node quadrature weight (patch area) and node viscosity (mean of the
    adjacent cells) for the off-diagonal strain term."""
    nx, ny = g.nx, g.ny
    count = np.zeros((nx + 1, ny + 1))
    eta_sum = np.zeros((nx + 1, ny + 1))
    for di in (0, 1):
        for dj in (0, 1):
            count[di:nx + di, dj:ny + dj] += 1.0
            eta_sum[di:nx + di, dj:ny + dj] += eta_c
    eta_n = eta_sum / count
    w_n = count / 4.0 * g.cell_volume
    return w_n, eta_n


def _strain_operators(g: Grid2D):
    """Sparse operators from stacked (vx, vy) unknowns to strain samples.

    Returns (d_cell_x, d_cell_y, dxy) where d_cell_x: cells x nvx gives
    dvx/dx at cells, d_cell_y: cells x nvy gives dvy/dy at cells, and
    dxy: nodes x (nvx+nvy) gives (dvx/dy + dvy/dx)/2 at nodes with one-sided
    differences on boundary nodes.
    """
    nx, ny = g.nx, g.ny
    nvx = (nx + 1) * ny
    nvy = nx * (ny + 1)
    nc = nx * ny
    nn = (nx + 1) * (ny + 1)

    def vx_idx(i, j):
        return i * ny + j

    def vy_idx(i, j):
        return i * (ny + 1) + j

    def c_idx(i, j):
        return i * ny + j

    def n_idx(i, j):
        return i * (ny + 1) + j

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    rows = c_idx(ii, jj).ravel()
    # dvx/dx at cells
    data = np.concatenate([np.full(nc, 1.0 / g.dx), np.full(nc, -1.0 / g.dx)])
    cols = np.concatenate([vx_idx(ii + 1, jj).ravel(), vx_idx(ii, jj).ravel()])
    d_cell_x = sp.csr_matrix((data, (np.tile(rows, 2), cols)), shape=(nc, nvx))
    # dvy/dy at cells
    data = np.concatenate([np.full(nc, 1.0 / g.dy), np.full(nc, -1.0 / g.dy)])
    cols = np.concatenate([vy_idx(ii, jj + 1).ravel(), vy_idx(ii, jj).ravel()])
    d_cell_y = sp.csr_matrix((data, (np.tile(rows, 2), cols)), shape=(nc, nvy))

    # dvx/dy at nodes (i = 0..nx, j = 0..ny); one-sided at j = 0 and j = ny
    r, cplus, cminus = [], [], []
    for jn in range(ny + 1):
        jp, jm = jn, jn - 1
        if jn == 0:
            jp, jm = 1, 0
        elif jn == ny:
            jp, jm = ny - 1, ny - 2
        i_all = np.arange(nx + 1)
        r.append(n_idx(i_all, jn))
        cplus.append(vx_idx(i_all, jp))
        cminus.append(vx_idx(i_all, jm))
    r = np.concatenate(r)
    data = np.concatenate([np.full(r.size, 0.5 / g.dy),
                           np.full(r.size, -0.5 / g.dy)])
    cols = np.concatenate([np.concatenate(cplus), np.concatenate(cminus)])
    dxy_x = sp.csr_matrix((data, (np.tile(r, 2), cols)), shape=(nn, nvx))

    # dvy/dx at nodes; one-sided at i = 0 and i = nx
    r, cplus, cminus = [], [], []
    for i in range(nx + 1):
        ip, im = i, i - 1
        if i == 0:
            ip, im = 1, 0
        elif i == nx:
            ip, im = nx - 1, nx - 2
        j_all = np.arange(ny + 1)
        r.append(n_idx(np.full(ny + 1, i), j_all))
        cplus.append(vy_idx(np.full(ny + 1, ip), j_all))
        cminus.append(vy_idx(np.full(ny + 1, im), j_all))
    r = np.concatenate(r)
    data = np.concatenate([np.full(r.size, 0.5 / g.dx),
                           np.full(r.size, -0.5 / g.dx)])
    cols = np.concatenate([np.concatenate(cplus), np.concatenate(cminus)])
    dxy_y = sp.csr_matrix((data, (np.tile(r, 2), cols)), shape=(nn, nvy))

    dxy = sp.hstack([dxy_x, dxy_y]).tocsr()
    return d_cell_x, d_cell_y, dxy


def assemble_brinkman_system(g: Grid2D, phi: CellField, spec,
                             gamma_v: CellField, force: FaceField):
    """Monolithic staggered system in (vx, vy, p).

    Assembled in the symmetric energy form (momentum rows volume-weighted,
    continuity rows scaled by -vol_c so the pressure blocks are mutual
    transposes), then symmetrically Jacobi-scaled.  Returns
    (LinearSystem, unknown_scale): physical unknowns are
    unknown_scale * solution_of(LinearSystem).
    """
    nu = spec.params.nu
    eta_c = np.asarray(spec.viscosity.eta(phi), dtype=float)
    lam_c = np.asarray(spec.viscosity.lam(phi), dtype=float)
    if nu <= 0 and np.max(eta_c) <= 0:
        raise ValueError("singular Brinkman assembly: nu <= 0 with eta <= 0")

    nc = g.n_cells
    vol_c = g.cell_volume

    d_cell_x, d_cell_y, dxy = _strain_operators(g)
    div_op = sp.hstack([d_cell_x, d_cell_y]).tocsr()

    w_n, eta_n = _node_weights_and_eta(g, eta_c)
    two_eta = sp.diags(2.0 * eta_c.ravel() * vol_c)
    a_visc = sp.bmat([
        [d_cell_x.T @ two_eta @ d_cell_x, None],
        [None, d_cell_y.T @ two_eta @ d_cell_y],
    ]) + div_op.T @ sp.diags(lam_c.ravel() * vol_c) @ div_op \
        + dxy.T @ sp.diags(4.0 * (eta_n * w_n).ravel()) @ dxy

    wx, wy = face_volumes(g)
    vol_f = np.concatenate([wx.ravel(), wy.ravel()])
    a_mom = a_visc + sp.diags(nu * vol_f)

    g_block = -(div_op.T) * vol_c
    a_full = sp.bmat([[a_mom, g_block],
                      [g_block.T, None]], format="csr")
    rhs = np.concatenate([vol_f * np.concatenate([force.x.ravel(),
                                                  force.y.ravel()]),
                          -vol_c * np.asarray(gamma_v, dtype=float).ravel()])

    # symmetric rescale: pressure columns and continuity rows by 1/dx so the
    # Krylov tolerance lands on the continuity block at the Gamma_v scale,
    # then Jacobi-symmetric scaling of the whole system
    alpha = 1.0 / min(g.dx, g.dy)
    scale = np.ones(a_full.shape[0])
    scale[a_mom.shape[0]:] = alpha
    d = np.abs(a_full.diagonal()) * scale**2
    d[d == 0.0] = 1.0
    scale /= np.sqrt(d)
    a_scaled = (sp.diags(scale) @ a_full @ sp.diags(scale)).tocsr()
    a_scaled.sort_indices()
    return LinearSystem(a_scaled, rhs * scale), scale


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
    solve_tol = tol
    for _ in range(3):
        x_scaled, stats = bicgstab_solve(system.matrix, system.rhs,
                                         tol=solve_tol, ell=4)
        if not stats.converged:
            raise SolverFailure(
                f"Brinkman solve did not converge (residual "
                f"{stats.residual:.3e} after {stats.iterations} iterations)",
                stats, stage="flow")
        x = scale * x_scaled
        vel = FaceField(x[:nvx].reshape(g.nx + 1, g.ny),
                        x[nvx:nvx + nvy].reshape(g.nx, g.ny + 1))
        p = x[nvx + nvy:].reshape(g.nx, g.ny)
        div_res = norm_l2_cells(g, divergence_of_faces(g, vel) - gamma_v)
        # the continuity rows are solved, not penalized: retighten if the
        # Krylov tolerance landed unevenly on them
        if gnorm == 0.0 or div_res <= 5.0 * tol * gnorm:
            break
        solve_tol *= 0.1
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
    x, stats = cg_solve(system.matrix, system.rhs, tol=tol,
                        precond=system.precond)
    if not stats.converged:
        raise SolverFailure(
            f"Darcy pressure solve did not converge (residual "
            f"{stats.residual:.3e} after {stats.iterations} iterations)",
            stats, stage="flow")
    p = x.reshape(g.nx, g.ny)
    grad_p = _gradient_dirichlet_ghost(g, p)
    vel = FaceField((force.x - grad_p.x) / nu, (force.y - grad_p.y) / nu)
    div_res = norm_l2_cells(g, divergence_of_faces(g, vel) - gamma_v)
    return FlowSolution(vel, p, stats, div_res)


# strain diagnostics ----------------------------------------------------------

def _strain_samples(g: Grid2D, vel: FaceField):
    """(dxx, dyy) at cells and the off-diagonal component at nodes averaged
    to cells (one-sided boundary-node differences)."""
    dxx = (vel.x[1:, :] - vel.x[:-1, :]) / g.dx
    dyy = (vel.y[:, 1:] - vel.y[:, :-1]) / g.dy

    nx, ny = g.nx, g.ny
    dvx_dy = np.empty((nx + 1, ny + 1))
    dvx_dy[:, 1:-1] = (vel.x[:, 1:] - vel.x[:, :-1]) / g.dy
    dvx_dy[:, 0] = dvx_dy[:, 1]
    dvx_dy[:, -1] = dvx_dy[:, -2]
    dvy_dx = np.empty((nx + 1, ny + 1))
    dvy_dx[1:-1, :] = (vel.y[1:, :] - vel.y[:-1, :]) / g.dx
    dvy_dx[0, :] = dvy_dx[1, :]
    dvy_dx[-1, :] = dvy_dx[-2, :]
    dxy_nodes = 0.5 * (dvx_dy + dvy_dx)
    dxy_cells = 0.25 * (dxy_nodes[:-1, :-1] + dxy_nodes[1:, :-1] +
                        dxy_nodes[:-1, 1:] + dxy_nodes[1:, 1:])
    return dxx, dyy, dxy_cells


def shear_dissipation(g: Grid2D, vel: FaceField, phi: CellField, spec) -> float:
    """int 2*eta(phi)*|Dv|^2 alone (the part of the viscous energy that
    dies out in the Darcy limit)."""
    eta_c = np.asarray(spec.viscosity.eta(phi), dtype=float)
    dxx, dyy, dxy = _strain_samples(g, vel)
    return float(np.sum(2.0 * eta_c * (dxx**2 + dyy**2 + 2.0 * dxy**2))
                 * g.cell_volume)


def viscous_dissipation(g: Grid2D, vel: FaceField, phi: CellField, spec) -> float:
    """Discrete int 2*eta(phi)|Dv|^2 + lam(phi)(div v)^2 + nu|v|^2 with the
    diagonal strain at cells, the off-diagonal at nodes averaged to cells,
    and face quadrature for the friction term."""
    lam_c = np.asarray(spec.viscosity.lam(phi), dtype=float)
    div_v = divergence_of_faces(g, vel)
    out = shear_dissipation(g, vel, phi, spec)
    out += float(np.sum(lam_c * div_v**2) * g.cell_volume)
    wx, wy = face_volumes(g)
    out += spec.params.nu * float(np.sum(wx * vel.x**2) + np.sum(wy * vel.y**2))
    return out
