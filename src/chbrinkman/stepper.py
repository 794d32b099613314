"""Time stepping for the coupled system: quasi-static nutrient solve, then a
semi-implicit stabilized Cahn-Hilliard update, then the flow solve.

The CH scheme treats psi' explicitly with a stabilization S*(phi^{n+1}-phi^n),
the -eps*lap(phi) and mobility flux implicitly, and the convection with the
lagged velocity:

    (phi^{n+1}-phi^n)/dt + div_up(phi^n v^n)
        = div(m(phi^n) grad mu^{n+1}) + Gamma_phi(phi^n, sigma^n)
    mu^{n+1} = (psi'(phi^n) + S*(phi^{n+1}-phi^n))/eps
        - eps*lap(phi^{n+1}) - chi*sigma^n

One linear solve per step; energy non-increasing for S >= max |psi''| over
the iterate range when sources vanish, chi = 0 and v = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .elliptic import solve_nutrient_robin
from .flow import (FlowSolution, face_average, solve_brinkman, solve_darcy,
                   viscous_dissipation)
from .grid import (CellField, FaceField, Grid2D, advect_upwind, as_boundary,
                   boundary_flux_integral, div_m_grad, face_zeros,
                   gradient_to_faces, integrate_cells, laplacian_neumann,
                   minus_laplacian)
from .linalg import LinearSystem, SolveStats, SolverFailure, bicgstab_solve
from .model import (ModelSpec, RandomPerturbation, eval_source_gamma_phi,
                    eval_source_gamma_v)


@dataclass(frozen=True)
class State:
    """(t, phi, mu, sigma, v, p) at one time level, with the viscous
    dissipation of v.

    sigma is the quasi-static nutrient that produced this state's (phi, mu);
    vel/p solve the flow problem for (phi, mu, sigma), so the state is
    internally consistent.  dissipation is that flow model's own viscous
    form at (vel, phi): v^T A v of the assembled Brinkman momentum block,
    nu*sum vol_f*v^2 for Darcy, 0 without flow.
    """

    t: float
    phi: CellField
    mu: CellField
    sigma: CellField
    vel: FaceField
    p: CellField
    dissipation: float


@dataclass(frozen=True)
class StepConfig:
    dt: float
    stabilization: float = 2.0
    flow_mode: str = "brinkman"   # brinkman | darcy | none
    tol_ch: float = 1e-9
    tol_nutrient: float = 1e-10
    tol_flow: float = 1e-9
    strict_cfl: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.stabilization < 0:
            raise ValueError("stabilization must be non-negative")
        if self.flow_mode not in ("brinkman", "darcy", "none"):
            raise ValueError(f"unknown flow_mode {self.flow_mode!r}")


@dataclass(frozen=True)
class Diagnostics:
    energy: float
    mass: float
    dissipation: float
    boundary_flux: float
    source_mass: float
    div_residual: float
    energy_residual: float
    mass_residual: float
    cfl_dt: float
    cfl_violated: bool
    nutrient_stats: SolveStats
    ch_stats: SolveStats
    flow_stats: SolveStats


class CflViolation(RuntimeError):
    def __init__(self, dt, bound):
        super().__init__(
            f"dt = {dt:g} violates the advective CFL suggestion "
            f"dt <= {bound:g} (0.5*min(dx,dy)/max|v|) and strict_cfl is set")
        self.bound = bound


def sample_sigma_inf(sigma_inf, g: Grid2D, t: float) -> np.ndarray:
    """Boundary datum at time t: callables get t, and the value goes
    through ``grid.as_boundary``."""
    if callable(sigma_inf):
        sigma_inf = sigma_inf(t)
    return as_boundary(g, sigma_inf)


def build_phi0(phi0, g: Grid2D) -> CellField:
    if isinstance(phi0, RandomPerturbation):
        rng = np.random.default_rng(phi0.seed)
        x, y = g.cell_centers()
        field = np.zeros((g.nx, g.ny))
        for kx in range(phi0.modes + 1):
            for ky in range(phi0.modes + 1):
                if kx == 0 and ky == 0:
                    continue
                coeff = rng.uniform(-1.0, 1.0)
                field += coeff * np.cos(kx * np.pi * x / g.lx) \
                    * np.cos(ky * np.pi * y / g.ly)
        peak = np.max(np.abs(field))
        if peak > 0:
            field *= phi0.amplitude / peak
        return phi0.base + field
    if callable(phi0):
        x, y = g.cell_centers()
        return np.asarray(phi0(x, y), dtype=float)
    arr = np.asarray(phi0, dtype=float)
    if arr.ndim == 0:
        return np.full((g.nx, g.ny), float(arr))
    if arr.shape != (g.nx, g.ny):
        raise ValueError(f"phi0 array must have shape {(g.nx, g.ny)}")
    return arr.copy()


def chemical_potential(g: Grid2D, phi: CellField, sigma: CellField,
                       spec: ModelSpec) -> CellField:
    eps = spec.params.epsilon
    return (spec.potential.dpsi(phi) / eps - eps * laplacian_neumann(g, phi)
            - spec.params.chi * sigma)


@lru_cache(maxsize=8)
def _ch_pattern(g: Grid2D):
    """CSR index arrays of the CH matrix [[I, P], [P, I]], P the 5-point
    pattern of ``minus_laplacian(g)``, and the gather that places the
    concatenated block data (I, block 12, block 21, I) into its slots.
    Found once by assembling the blocks with their entry numbers as data."""
    p = minus_laplacian(g).matrix
    nc = g.n_cells
    eye = sp.identity(nc, format="csr")
    first = np.cumsum([0, nc, p.nnz, p.nnz])

    def numbered(m, start):
        return sp.csr_matrix((np.arange(start, start + m.nnz, dtype=float),
                              m.indices, m.indptr), shape=m.shape)

    a = sp.bmat([[numbered(eye, first[0]), numbered(p, first[1])],
                 [numbered(p, first[2]), numbered(eye, first[3])]],
                format="csr")
    a.sort_indices()
    gather = a.data.astype(np.intp)
    for arr in (a.indptr, a.indices, gather):
        arr.flags.writeable = False
    return a.indptr, a.indices, gather


def assemble_ch_system(g: Grid2D, state: State, spec: ModelSpec,
                       cfg: StepConfig):
    """The coupled linear system of one CH step, unknowns [phi, mu/c] with
    c = sqrt(eps/dt); returns (LinearSystem, unknown_scale).

    The dt-scaled phi rows keep that block's rhs O(|phi|) so the Krylov
    residual does not pollute the discrete mass identity; the symmetric
    mu scaling balances the off-diagonal blocks at sqrt(dt*eps)*|lap|,
    which keeps the attainable BiCGStab accuracy well below tolerance.
    The preconditioner is the exact solve of the same system with the
    mobility replaced by its mean, so a constant-mobility step takes no
    BiCGStab iteration.
    """
    phi_n = state.phi
    if not np.all(np.isfinite(phi_n)):
        raise ValueError("non-finite phi entering the CH update")
    eps = spec.params.epsilon
    s_stab = cfg.stabilization
    nc = g.n_cells
    c = np.sqrt(eps / cfg.dt)

    dpsi_n = np.asarray(spec.potential.dpsi(phi_n), dtype=float)
    if not np.all(np.isfinite(dpsi_n)):
        raise ValueError("psi'(phi) returned a non-finite value")

    m_cells = np.asarray(spec.mobility.m(phi_n), dtype=float)
    lap = minus_laplacian(g)
    # [[I, -dt*c*div(m grad)], [(eps/c)*lap - S/(eps*c)*I, I]]
    ones = np.ones(nc)
    data = np.concatenate([
        ones, -(cfg.dt * c) * div_m_grad(g, face_average(g, m_cells)).data,
        lap.plus_diagonal(-s_stab / (eps * c), scale=-eps / c).data, ones])
    indptr, indices, gather = _ch_pattern(g)
    a = sp.csr_matrix((data[gather], indices, indptr), shape=(2 * nc, 2 * nc))
    # the same blocks as alpha*I + beta*T with T = -lap
    blocks = (((1.0, 0.0), (0.0, cfg.dt * c * float(np.mean(m_cells)))),
              ((-s_stab / (eps * c), -eps / c), (1.0, 0.0)))

    gamma_phi = eval_source_gamma_phi(spec.sources, phi_n, state.sigma)
    rhs1 = phi_n - cfg.dt * advect_upwind(g, phi_n, state.vel) \
        + cfg.dt * gamma_phi
    rhs2 = ((dpsi_n - s_stab * phi_n) / eps
            - spec.params.chi * state.sigma) / c
    scale = np.concatenate([np.ones(nc), np.full(nc, c)])
    system = LinearSystem(a, np.concatenate([rhs1.ravel(), rhs2.ravel()]),
                          lambda v: lap.solve_pair(v, blocks))
    return system, scale


def ch_update(g: Grid2D, state: State, spec: ModelSpec, cfg: StepConfig):
    """One semi-implicit CH step; returns (phi_new, mu_new, SolveStats).

    Uses state.sigma and state.vel as the lagged nutrient/velocity; the
    caller is responsible for refreshing sigma first (step() does).
    """
    system, scale = assemble_ch_system(g, state, spec, cfg)
    x, stats = bicgstab_solve(system.matrix, system.rhs, system.precond,
                              tol=cfg.tol_ch)
    if not stats.converged:
        raise SolverFailure(
            f"Cahn-Hilliard solve did not converge (residual "
            f"{stats.residual:.3e} after {stats.iterations} iterations)",
            stats, stage="cahn-hilliard")
    x = scale * x
    nc = g.n_cells
    return x[:nc].reshape(g.nx, g.ny), x[nc:].reshape(g.nx, g.ny), stats


def _solve_flow(g, phi, mu, sigma, spec, cfg) -> tuple[FlowSolution, float]:
    """The flow solve of cfg.flow_mode and the viscous dissipation of its
    velocity in that model's own form; returns (FlowSolution, dissipation)."""
    if cfg.flow_mode == "brinkman":
        sol = solve_brinkman(g, phi, mu, sigma, spec, tol=cfg.tol_flow)
        return sol, viscous_dissipation(g, sol.vel, phi, spec)
    if cfg.flow_mode == "darcy":
        sol = solve_darcy(g, phi, mu, sigma, spec, tol=cfg.tol_flow)
        return sol, spec.params.nu * sol.vel.norm_l2(g) ** 2
    return FlowSolution(face_zeros(g), np.zeros((g.nx, g.ny)),
                        SolveStats(0, 0.0, True), 0.0), 0.0


def initialize_state(g: Grid2D, spec: ModelSpec, cfg: StepConfig) -> State:
    """phi0 from the descriptor, sigma0 from the Robin solve, mu0 from the
    chemical-potential relation, v0 from one flow solve."""
    phi0 = build_phi0(spec.phi0, g)
    sig_inf = sample_sigma_inf(spec.sigma_inf, g, 0.0)
    sigma0, _ = solve_nutrient_robin(g, phi0, spec, sig_inf,
                                     tol=cfg.tol_nutrient)
    mu0 = chemical_potential(g, phi0, sigma0, spec)
    flow0, diss0 = _solve_flow(g, phi0, mu0, sigma0, spec, cfg)
    return State(0.0, phi0, mu0, sigma0, flow0.vel, flow0.p, diss0)


def suggest_cfl_dt(g: Grid2D, vel: FaceField) -> float:
    vmax = max(float(np.max(np.abs(vel.x))), float(np.max(np.abs(vel.y))))
    if vmax == 0.0:
        return np.inf
    return 0.5 * min(g.dx, g.dy) / vmax


def energy(g: Grid2D, phi: CellField, spec: ModelSpec) -> float:
    """int psi(phi)/eps + eps/2*|grad phi|^2 (face quadrature for the
    gradient, consistent with the stabilized scheme's discrete identity)."""
    eps = spec.params.epsilon
    grad = gradient_to_faces(g, phi)
    grad_sq = float(np.sum(grad.x**2) + np.sum(grad.y**2)) * g.cell_volume
    psi_vals = np.asarray(spec.potential.psi(phi), dtype=float)
    return integrate_cells(g, psi_vals) / eps + 0.5 * eps * grad_sq


def _mobility_flux_integrals(g, phi_coeff, mu, sigma, spec):
    """(int m|grad mu|^2, int m grad mu . grad sigma), face-averaged m."""
    m_face = face_average(g, np.asarray(spec.mobility.m(phi_coeff), dtype=float))
    gm = gradient_to_faces(g, mu)
    gs = gradient_to_faces(g, sigma)
    diss = float(np.sum(m_face.x * gm.x**2) + np.sum(m_face.y * gm.y**2))
    cross = float(np.sum(m_face.x * gm.x * gs.x) + np.sum(m_face.y * gm.y * gs.y))
    return diss * g.cell_volume, cross * g.cell_volume


def energy_residual(g: Grid2D, prev: State, next_: State, spec: ModelSpec,
                    dt: float) -> float:
    """Defect of the discrete energy balance over one step:
    |dE/dt + int m|grad mu|^2 + prev.dissipation - rhs| with

    rhs = -chi int m grad mu . grad sigma
          + int (Gamma_phi - phi*Gamma_v)(mu + chi*sigma)
          + int p*Gamma_v

    (the pressure work stands in for the divergence-lifting terms the
    analysis removes; the simulator tests the momentum balance with v
    itself).  prev.dissipation is the viscous form of the flow model that
    produced prev.vel, so no flow form is evaluated here.  Evaluated with
    the same lagged fields the scheme used, so the defect measures
    time-splitting error: O(dt) on a fixed grid.
    """
    chi = spec.params.chi
    de = (energy(g, next_.phi, spec) - energy(g, prev.phi, spec)) / dt
    diss_ch, cross = _mobility_flux_integrals(g, prev.phi, next_.mu,
                                              next_.sigma, spec)

    gamma_phi = eval_source_gamma_phi(spec.sources, prev.phi, next_.sigma)
    gamma_v = eval_source_gamma_v(spec.sources, prev.phi, next_.sigma)
    source_work = integrate_cells(
        g, (gamma_phi - prev.phi * gamma_v) * (next_.mu + chi * next_.sigma))
    gamma_v_prev = eval_source_gamma_v(spec.sources, prev.phi, prev.sigma)
    pressure_work = integrate_cells(g, prev.p * gamma_v_prev)

    rhs = -chi * cross + source_work + pressure_work
    return abs(de + diss_ch + prev.dissipation - rhs)


def mass_balance_residual(g: Grid2D, prev: State, next_: State,
                          spec: ModelSpec, dt: float) -> float:
    """|(int phi^{n+1} - int phi^n)/dt + boundary flux - int Gamma_phi|,
    an exact identity of the flux-form scheme up to the Krylov residual."""
    gamma_phi = eval_source_gamma_phi(spec.sources, prev.phi, next_.sigma)
    return abs((integrate_cells(g, next_.phi) - integrate_cells(g, prev.phi)) / dt
               + boundary_flux_integral(g, prev.phi, prev.vel)
               - integrate_cells(g, gamma_phi))


def step(g: Grid2D, state: State, spec: ModelSpec, cfg: StepConfig):
    """Advance one time level; returns (new_state, Diagnostics).

    Stage order: (1) Robin nutrient solve at t^n, (2) CH update with the
    lagged velocity, (3) flow solve on the new (phi, mu).  Sub-solver
    failures carry their stage name.
    """
    sig_inf = sample_sigma_inf(spec.sigma_inf, g, state.t)
    sigma, n_stats = solve_nutrient_robin(g, state.phi, spec, sig_inf,
                                          tol=cfg.tol_nutrient)
    work = replace(state, sigma=sigma)

    cfl = suggest_cfl_dt(g, state.vel)
    violated = bool(cfg.dt > cfl)
    if violated and cfg.strict_cfl:
        raise CflViolation(cfg.dt, cfl)

    phi1, mu1, ch_stats = ch_update(g, work, spec, cfg)
    flow_sol, diss_flow = _solve_flow(g, phi1, mu1, sigma, spec, cfg)

    new_state = State(state.t + cfg.dt, phi1, mu1, sigma,
                      flow_sol.vel, flow_sol.p, diss_flow)

    diss_ch, _ = _mobility_flux_integrals(g, phi1, mu1, sigma, spec)
    gamma_phi1 = eval_source_gamma_phi(spec.sources, phi1, sigma)
    gamma_v1 = eval_source_gamma_v(spec.sources, phi1, sigma)
    diag = Diagnostics(
        energy=energy(g, phi1, spec),
        mass=integrate_cells(g, phi1),
        dissipation=diss_ch + diss_flow,
        boundary_flux=boundary_flux_integral(g, phi1, flow_sol.vel),
        source_mass=integrate_cells(g, gamma_phi1 - phi1 * gamma_v1),
        div_residual=flow_sol.div_residual,
        energy_residual=energy_residual(g, state, new_state, spec, cfg.dt),
        mass_residual=mass_balance_residual(g, state, new_state, spec, cfg.dt),
        cfl_dt=cfl,
        cfl_violated=violated,
        nutrient_stats=n_stats,
        ch_stats=ch_stats,
        flow_stats=flow_sol.stats,
    )
    return new_state, diag
