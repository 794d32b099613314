"""Brinkman and Darcy flow solves on the MAC staggering.

Brinkman: -div(2*eta(phi)*Dv + lam(phi)*div(v)*I - p*I) + nu*v = F,
div(v) = Gamma_v, traction-free boundary T(v,p)n = 0.

The momentum operator is assembled from the discrete energy form
    a(v,v) = sum_cells 2*eta*(Dxx^2 + Dyy^2)*vol + lam*(div v)^2*vol
           + sum_nodes 4*eta_n*Dxy^2*w_n + nu*sum_faces v^2*vol_f
(one-sided tangential differences at boundary nodes).  The traction-free
condition is then the natural boundary condition and comes out identical to
the half-cell flux closure with boundary traction set to zero; the velocity
block is symmetric positive semidefinite by construction.  The form is
defined once, in ``brinkman_form``: its rows E = [shear; div; I] are built
once per grid together with the saddle-point pattern (``grid.form_pattern``),
and ``_form_weights`` gives the quadrature weights w of phi in E's row
order, so a(v,v) = sum_r w_r (E v)_r^2.  Each assembly only scatters w
into the pattern, and the dissipation diagnostics evaluate the same sum,
so they equal v^T A v.  Continuity rows enforce div(v) = Gamma_v exactly
at every cell (solved, not penalized).

The saddle point is solved by classical BiCGStab with a block
upper-triangular preconditioner built from the mean viscosities (Elman,
Silvester & Wathen, Finite Elements and Fast Iterative Solvers, ch. 8): the
diagonal velocity blocks are inverted exactly for constant viscosity by
fast diagonalization (``velocity_blocks``) in one block Gauss-Seidel sweep
over the two velocity components (Benzi, Golub & Liesen, Acta Numerica 14,
2005), whose y-by-x coupling eta*C_eta + lam*C_lam is exact for constant
viscosity (``velocity_coupling``, a ``form_pattern`` of the rows of E that
see both components), and the inverse pressure Schur
complement by minus the Cahouet-Chabard approximation
((2*eta + lam)*I + nu*L_D^-1)/vol, with L_D the Darcy pressure operator --
at eta = lam = 0 the exact Darcy solve, so the Brinkman->Darcy limit
carries into the preconditioner.  One Krylov solve runs per call: its
tolerance is worked out from the inputs so that the continuity block of
the residual also meets the divergence target (see ``solve_brinkman``),
and it starts from a given nearby flow (a time step passes the previous
level's) or else from the preconditioned right-hand side.

Darcy (vanishing-viscosity reference): -lap(p) = nu*Gamma_v - div(F) with
p = 0 ghost closure on boundary faces, then v = (F - G_D p)/nu with
G_D = -diag(vol/vol_f) div^T, the gradient with the same p = 0 ghost on
boundary faces (``grid.mac_operators``): div G_D is the pressure operator,
so div(v) = Gamma_v holds up to the pressure residual.  The pressure operator
is constant, so CG preconditioned by its exact fast-diagonalization solve
accepts that solve at once, and refines it only where it misses the
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .grid import (CellField, FaceField, Grid2D, difference, form_matrix,
                   form_pattern, mac_operators, minus_laplacian,
                   norm_l2_cells, read_only, stacked, unstacked)
from .linalg import (KroneckerOperator, LinearSystem, SolveStats,
                     SolverFailure, bicgstab_solve, cg_solve)
from .model import eval_source_gamma_v


@dataclass
class FlowSolution:
    vel: FaceField
    p: CellField
    stats: SolveStats
    div_residual: float


def _cell_values(f, phi: CellField) -> np.ndarray:
    """A coefficient of phi as a flat cell array."""
    return np.asarray(f(phi), dtype=float).ravel()


# the Brinkman energy form --------------------------------------------------

def _strain_pieces(n: int, h: float):
    """The 1D strain pieces along one axis of n cells of width h: the cell
    difference (n x n+1), the one-sided node difference (n+1 x n; an end
    node takes the difference of its neighbour) and the node touch
    (n+1 x n; the cells around each node)."""
    return (difference(n, h), difference(n - 1, h)[np.r_[0, 0:n - 1, n - 2]],
            sp.eye(n + 1, n) + sp.eye(n + 1, n, k=-1))


@dataclass(frozen=True)
class BrinkmanForm:
    """The Brinkman energy form v^T A v = sum_r w_r (E v)_r^2 of one grid,
    read-only, on the stacked face unknowns (``grid.stacked``).

    The rows of ``energy`` E are dvx/dx and dvy/dy at cells, then
    (dvx/dy + dvy/dx)/2 at nodes (one-sided at boundary nodes) -- the
    first ``n_shear`` rows -- then div v at cells, then v itself; the
    cell rows are those of ``grid.mac_operators(g).div``.
    ``node_sum`` maps a flattened cell field to the sum of the cell values
    around each node; ``grad`` is G = -div^T*vol.  ``pattern`` is the
    saddle-point matrix [[A, G], [G^T, 0]] with G's data, ``scatter`` maps
    the weights w to the data of A in it, ``rows`` is the row of each
    stored entry and ``diagonal`` the slots of A's diagonal."""

    energy: sp.csr_matrix
    n_shear: int
    node_sum: sp.csr_matrix
    grad: sp.csr_matrix
    pattern: sp.csr_matrix
    scatter: sp.csc_matrix
    rows: np.ndarray
    diagonal: np.ndarray


@lru_cache(maxsize=32)
def brinkman_form(g: Grid2D) -> BrinkmanForm:
    """The energy form of g as Kronecker products of 1D pieces, built once
    per grid; the Brinkman matrix and the viscous dissipation are both
    evaluated from it."""
    (_, node_x, touch_x), (_, node_y, touch_y) = (
        _strain_pieces(g.nx, g.dx), _strain_pieces(g.ny, g.dy))
    nx, ny = g.nx, g.ny
    nvx = (nx + 1) * ny
    div = mac_operators(g).div
    d_xy = 0.5 * sp.hstack([sp.kron(sp.identity(nx + 1), node_y),
                            sp.kron(node_x, sp.identity(ny + 1))])
    energy = read_only(sp.vstack([
        sp.block_diag([div[:, :nvx], div[:, nvx:]]), d_xy, div,
        sp.identity(div.shape[1])]))
    grad = read_only(-(div.T) * g.cell_volume)
    pattern = form_pattern(energy, const=sp.bmat([[None, grad],
                                                   [grad.T, None]],
                                                  format="csr"))
    return BrinkmanForm(energy, 2 * g.n_cells + (nx + 1) * (ny + 1),
                        read_only(sp.kron(touch_x, touch_y)), grad, *pattern)


def _form_weights(g: Grid2D, phi: CellField, spec):
    """(w, eta, lam): the quadrature weights w of the energy form in the
    row order of ``brinkman_form(g).energy`` -- 2*eta*vol at cells (for
    dvx/dx, then for dvy/dy), 4*eta_n*w_n at nodes, lam*vol at cells and
    nu*vol_f at faces -- and the flat cell viscosities they come from.
    With eta_n the mean of the k cells around a node and w_n = k*vol/4 its
    patch area, 4*eta_n*w_n is vol times the sum of eta over those
    cells."""
    eta = _cell_values(spec.viscosity.eta, phi)
    lam = _cell_values(spec.viscosity.lam, phi)
    vol = g.cell_volume
    two_eta = 2.0 * vol * eta
    w = np.concatenate([two_eta, two_eta,
                        vol * (brinkman_form(g).node_sum @ eta), lam * vol,
                        spec.params.nu * mac_operators(g).vol_f])
    return w, eta, lam


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


@lru_cache(maxsize=32)
def velocity_coupling(g: Grid2D) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(C_eta, C_lam): the y-face-by-x-face block of the Brinkman momentum
    matrix is eta*C_eta + lam*C_lam for constant viscosities.  Both fill
    one ``form_pattern`` of the rows of ``brinkman_form(g).energy`` that
    see both velocity components, with their y-face columns on the left and
    their x-face columns on the right: C_eta with the node shear rows
    weighted by vol times the number of cells around the node, C_lam with
    the divergence rows weighted by vol.  A weighted sum of the two is a
    sum of their data.  Read-only, built once per grid."""
    form = brinkman_form(g)
    nc = g.n_cells
    nvx = (g.nx + 1) * g.ny
    rows = form.energy[2 * nc:form.n_shear + nc]
    pattern, scatter, _, _ = form_pattern(rows[:, nvx:], rows[:, :nvx])
    touch = form.node_sum @ np.ones(nc)
    c_eta, c_lam = (form_matrix(pattern, scatter, g.cell_volume * w)
                    for w in (np.concatenate([touch, np.zeros(nc)]),
                              np.concatenate([np.zeros(touch.size),
                                              np.ones(nc)])))
    c_eta.data.flags.writeable = c_lam.data.flags.writeable = False
    return c_eta, c_lam


def _brinkman_preconditioner(g: Grid2D, grad, eta: float, lam: float,
                             nu: float, scale: np.ndarray):
    """Block upper-triangular approximation of the inverse of the scaled
    Brinkman system with pressure-gradient block ``grad`` (G), for the mean
    viscosities eta and lam: with r = v/scale,
    p = -((2*eta + lam)*r_p + nu*L_D^-1 r_p)/vol, then u solves
    A u = r_u - G p by one block Gauss-Seidel sweep over the velocity
    components -- u_x from the x-face block, then u_y from the y-face block
    with the coupling eta*C_eta + lam*C_lam times u_x taken to the right
    (``velocity_coupling``) -- and [u; p]/scale."""
    block_x, block_y = velocity_blocks(g)
    c_eta, c_lam = velocity_coupling(g)
    coupling = sp.csr_matrix((eta * c_eta.data + lam * c_lam.data,
                              c_eta.indices, c_eta.indptr), shape=c_eta.shape)
    darcy = minus_laplacian(g, np.inf)
    vol = g.cell_volume
    strain = 2.0 * eta + lam
    nvx = (g.nx + 1) * g.ny
    nv = grad.shape[0]

    def apply(v):
        r = v / scale
        p = -(strain * r[nv:] + nu * darcy.solve(r[nv:])) / vol
        r_u = r[:nv] - grad @ p
        u_x = block_x.solve(r_u[:nvx], nu, (strain, eta)) / vol
        u_y = block_y.solve(r_u[nvx:] - coupling @ u_x, nu,
                            (eta, strain)) / vol
        return np.concatenate([u_x, u_y, p]) / scale

    return apply


def assemble_brinkman_system(g: Grid2D, phi: CellField, spec,
                             gamma_v: CellField, force: FaceField):
    """Monolithic staggered system in (vx, vy, p).

    The symmetric energy form (momentum rows volume-weighted, continuity
    rows scaled by -vol_c so the pressure blocks are mutual transposes) is
    filled into the cached ``brinkman_form`` pattern: the weights of
    ``_form_weights`` go through its scatter, and the result is
    symmetrically Jacobi-scaled in place, sharing the pattern's index
    arrays.  Returns (LinearSystem, unknown_scale): physical unknowns are
    unknown_scale * solution_of(LinearSystem).  The system carries the
    block-triangular preconditioner of the scaled matrix.
    """
    nu = spec.params.nu
    if nu <= 0:
        # the rigid motions lie in the kernel of the strain, so the friction
        # nu*|v|^2 alone holds them: at nu = 0 the system is singular
        raise ValueError("(A1): singular Brinkman assembly: needs nu > 0")
    form = brinkman_form(g)
    w, eta, lam = _form_weights(g, phi, spec)
    a = form_matrix(form.pattern, form.scatter, w)
    rhs = np.concatenate([mac_operators(g).vol_f * stacked(force),
                          -g.cell_volume
                          * np.asarray(gamma_v, dtype=float).ravel()])

    # symmetric rescale: pressure columns and continuity rows by 1/dx so the
    # Krylov tolerance lands on the continuity block at the Gamma_v scale,
    # then Jacobi-symmetric scaling of the whole system (the continuity rows
    # have no diagonal)
    d = np.abs(a.data[form.diagonal])
    d[d == 0.0] = 1.0
    scale = np.concatenate([1.0 / np.sqrt(d),
                            np.full(g.n_cells, 1.0 / min(g.dx, g.dy))])
    a.data *= scale[form.rows]
    a.data *= scale[form.pattern.indices]
    precond = _brinkman_preconditioner(g, form.grad, float(np.mean(eta)),
                                       float(np.mean(lam)), nu, scale)
    return LinearSystem(a, rhs * scale, precond), scale


def brinkman_force(g: Grid2D, phi, mu, sigma, spec,
                   extra_force: FaceField | None) -> FaceField:
    """The Korteweg force mean(mu + chi*sigma)*grad(phi) on faces, with
    the face mean and the zero-flux gradient of ``grid.mac_operators``,
    plus extra_force."""
    ops = mac_operators(g)
    coeff = ops.mean @ np.ravel(mu + spec.params.chi * sigma)
    f = unstacked(g, coeff * (ops.grad @ np.ravel(phi)))
    if extra_force is not None:
        f = f + extra_force
    return f


def solve_brinkman(g: Grid2D, phi: CellField, mu: CellField, sigma: CellField,
                   spec, extra_force: FaceField | None = None,
                   tol: float = 1e-9,
                   start: tuple[FaceField, CellField] | None = None
                   ) -> FlowSolution:
    """One Krylov solve of the Brinkman system, to a relative residual that
    also meets the divergence target ||div v - Gamma_v|| <= 5*tol*||Gamma_v||.

    Continuity row i of the scaled residual is s_p*vol*(div v - Gamma_v)_i
    with s_p = 1/min(dx, dy), so a scaled residual of at most
    5*tol*||Gamma_v||*s_p*sqrt(vol) meets the target.  The relative
    tolerance is that bound over the scaled rhs norm, at most tol and at
    least 0.01*tol; with Gamma_v = 0 it is tol.  ``start`` = (vel, p), a
    nearby flow such as the previous time level's, is the Krylov start;
    without it the solve starts from the preconditioned rhs."""
    gamma_v = eval_source_gamma_v(spec.sources, phi, sigma)
    force = brinkman_force(g, phi, mu, sigma, spec, extra_force)
    system, scale = assemble_brinkman_system(g, phi, spec, gamma_v, force)
    gnorm = norm_l2_cells(g, np.asarray(gamma_v, dtype=float)
                          + np.zeros((g.nx, g.ny)))
    solve_tol = tol
    if gnorm > 0.0:
        target = (5.0 * tol * gnorm * np.sqrt(g.cell_volume)
                  / (min(g.dx, g.dy) * np.linalg.norm(system.rhs)))
        solve_tol = min(tol, max(target, 0.01 * tol))
    x0 = None
    if start is not None:
        vel0, p0 = start
        x0 = np.concatenate([stacked(vel0), np.ravel(p0)]) / scale
    x, stats = bicgstab_solve(system.matrix, system.rhs, system.precond,
                              tol=solve_tol, x0=x0)
    if not stats.converged:
        raise SolverFailure(
            f"Brinkman solve did not converge (residual {stats.residual:.3e} "
            f"after {stats.iterations} iterations)", stats, stage="flow")
    x = scale * x
    v = x[:x.size - g.n_cells]
    return FlowSolution(unstacked(g, v), x[v.size:].reshape(g.nx, g.ny),
                        stats, _div_residual(g, v, gamma_v))


def _div_residual(g: Grid2D, v: np.ndarray, gamma_v) -> float:
    """||div v - Gamma_v|| of the stacked face velocity v."""
    div_v = (mac_operators(g).div @ v).reshape(g.nx, g.ny)
    return norm_l2_cells(g, div_v - gamma_v)


def assemble_darcy_pressure_system(g: Grid2D, gamma_v: CellField, nu: float,
                                   force: FaceField) -> LinearSystem:
    """-lap(p) = nu*Gamma_v - div(F), homogeneous Dirichlet ghost closure;
    the operator is constant, so its preconditioner is the exact solve."""
    op = minus_laplacian(g, np.inf)
    b = nu * np.ravel(gamma_v) - mac_operators(g).div @ stacked(force)
    return LinearSystem(op.matrix, b, op.solve)


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
    x, stats = cg_solve(system.matrix, system.rhs, system.precond, tol)
    if not stats.converged:
        raise SolverFailure(
            f"Darcy pressure solve did not converge (residual "
            f"{stats.residual:.3e} after {stats.iterations} iterations)",
            stats, stage="flow")
    v = (stacked(force) - mac_operators(g).grad_dirichlet @ x) / nu
    return FlowSolution(unstacked(g, v), x.reshape(g.nx, g.ny), stats,
                        _div_residual(g, v, gamma_v))


# dissipation diagnostics ---------------------------------------------------

def shear_dissipation(g: Grid2D, vel: FaceField, phi: CellField, spec) -> float:
    """int 2*eta(phi)*|Dv|^2 alone (the part of the viscous energy that
    dies out in the Darcy limit): the energy form over its shear rows,
    diagonal strain at cells and off-diagonal at nodes."""
    form = brinkman_form(g)
    w, _, _ = _form_weights(g, phi, spec)
    strain = (form.energy @ stacked(vel))[:form.n_shear]
    return float(w[:form.n_shear] @ strain**2)


def viscous_dissipation(g: Grid2D, vel: FaceField, phi: CellField, spec) -> float:
    """Discrete int 2*eta(phi)|Dv|^2 + lam(phi)(div v)^2 + nu|v|^2: the
    energy form v^T A v of the assembled Brinkman momentum block,
    sum_r w_r (E v)_r^2 with the weights of the assembly."""
    w, _, _ = _form_weights(g, phi, spec)
    return float(w @ (brinkman_form(g).energy @ stacked(vel))**2)
