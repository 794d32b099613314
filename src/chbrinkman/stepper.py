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

The CH matrix is one form, defined once per grid in ``ch_form``: the
zero-flux gradient D of ``grid.mac_operators``, weighted by the face mean
of the mobility, by eps and by the stabilization.  The energy diagnostics
evaluate the same D with the same face mobilities (``_mobility_weights``),
so the gradient energy and the CH dissipation are the forms the solver
uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .elliptic import solve_nutrient_robin
from .flow import (FlowSolution, solve_brinkman, solve_darcy,
                   viscous_dissipation)
from .grid import (CellField, FaceField, Grid2D, advect_upwind, as_boundary,
                   boundary_flux_integral, face_zeros, form_matrix,
                   form_pattern, integrate_cells, mac_operators,
                   minus_laplacian)
from .linalg import LinearSystem, SolveStats, SolverFailure, bicgstab_solve
from .model import (ModelSpec, RandomPerturbation, eval_source_gamma_phi,
                    eval_source_gamma_v)


@dataclass(frozen=True)
class State:
    """(t, phi, mu, sigma, v, p) at one time level, with the viscous
    dissipation and the divergence residual of v.

    sigma is the quasi-static nutrient that produced this state's (phi, mu);
    vel/p solve the flow problem for (phi, mu, sigma), so the state is
    internally consistent.  dissipation is that flow model's own viscous
    form at (vel, phi): v^T A v of the assembled Brinkman momentum block,
    nu*sum vol_f*v^2 for Darcy, 0 without flow.  div_residual is the flow
    solve's ||div v - Gamma_v|| (0 without flow).
    """

    t: float
    phi: CellField
    mu: CellField
    sigma: CellField
    vel: FaceField
    p: CellField
    dissipation: float
    div_residual: float


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
    """psi'(phi)/eps - eps*lap(phi) - chi*sigma, with -lap = grad^T grad
    of ``grid.mac_operators``."""
    eps = spec.params.epsilon
    grad = mac_operators(g).grad
    minus_lap = (grad.T @ (grad @ np.ravel(phi))).reshape(g.nx, g.ny)
    return (spec.potential.dpsi(phi) / eps + eps * minus_lap
            - spec.params.chi * sigma)


@dataclass(frozen=True)
class CHForm:
    """The Cahn-Hilliard form of one grid, read-only, on flat cell indices.

    D is the zero-flux gradient ``grad`` of ``grid.mac_operators``: D^T D
    is minus the zero-flux Laplacian and D^T diag(m_f) D is -div(m grad).
    ``pattern`` and ``scatter`` are the ``form_pattern`` of the CH matrix
    L^T diag(w) R + I on [phi, mu/c] with L = [[D, 0], [0, D], [0, I]] and
    R = [[0, D], [D, 0], [I, 0]]: the weights
    [dt*c*m_f, -eps/c, -S/(eps*c)] give the blocks
    [[I, -dt*c*div(m grad)], [(eps/c)*lap - S/(eps*c)*I, I]]."""

    pattern: sp.csr_matrix
    scatter: sp.csc_matrix


@lru_cache(maxsize=32)
def ch_form(g: Grid2D) -> CHForm:
    """The CH form of g, built once per grid; the energy diagnostics read
    its gradient D from ``grid.mac_operators`` too."""
    grad = mac_operators(g).grad
    eye = sp.identity(g.n_cells)
    left = sp.bmat([[grad, None], [None, grad], [None, eye]], format="csr")
    right = sp.bmat([[None, grad], [grad, None], [eye, None]], format="csr")
    pattern, scatter, _, _ = form_pattern(
        left, right, sp.identity(2 * g.n_cells, format="csr"))
    return CHForm(pattern, scatter)


def _mobility_weights(g: Grid2D, phi: CellField, spec: ModelSpec):
    """(m_f, m): the face mean of the mobility, on the stacked faces of
    ``grid.mac_operators``, and the flat cell mobilities m(phi) it comes
    from."""
    m = np.ravel(np.asarray(spec.mobility.m(phi), dtype=float))
    return mac_operators(g).mean @ m, m


def assemble_ch_system(g: Grid2D, state: State, spec: ModelSpec,
                       cfg: StepConfig):
    """The coupled linear system of one CH step, unknowns [phi, mu/c] with
    c = sqrt(eps/dt); returns (LinearSystem, unknown_scale).

    The matrix fills the cached ``ch_form`` pattern: its weights
    [dt*c*m_f, -eps/c, -S/(eps*c)] go through the scatter.  The dt-scaled
    phi rows keep that block's rhs O(|phi|) so the Krylov residual does not
    pollute the discrete mass identity; the symmetric mu scaling balances
    the off-diagonal blocks at sqrt(dt*eps)*|lap|, which keeps the
    attainable BiCGStab accuracy well below tolerance.  The preconditioner
    is the exact solve of the same system with the mobility replaced by its
    mean, so a constant-mobility step takes no BiCGStab iteration.
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

    form = ch_form(g)
    m_f, m_cells = _mobility_weights(g, phi_n, spec)
    a = form_matrix(form.pattern, form.scatter, np.concatenate([
        (cfg.dt * c) * m_f, np.full(m_f.size, -eps / c),
        np.full(nc, -s_stab / (eps * c))]))
    # the same blocks as alpha*I + beta*T with T = -lap
    blocks = (((1.0, 0.0), (0.0, cfg.dt * c * float(np.mean(m_cells)))),
              ((-s_stab / (eps * c), -eps / c), (1.0, 0.0)))

    gamma_phi = eval_source_gamma_phi(spec.sources, phi_n, state.sigma)
    rhs1 = phi_n - cfg.dt * advect_upwind(g, phi_n, state.vel) \
        + cfg.dt * gamma_phi
    rhs2 = ((dpsi_n - s_stab * phi_n) / eps
            - spec.params.chi * state.sigma) / c
    scale = np.concatenate([np.ones(nc), np.full(nc, c)])
    lap = minus_laplacian(g)
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


def _solve_flow(g, phi, mu, sigma, spec, cfg,
                start=None) -> tuple[FlowSolution, float]:
    """The flow solve of cfg.flow_mode and the viscous dissipation of its
    velocity in that model's own form; returns (FlowSolution, dissipation).
    ``start`` = (vel, p) of the previous level starts the Brinkman Krylov
    solve; the Darcy solve is direct and needs none."""
    if cfg.flow_mode == "brinkman":
        sol = solve_brinkman(g, phi, mu, sigma, spec, tol=cfg.tol_flow,
                             start=start)
        return sol, viscous_dissipation(g, sol.vel, phi, spec)
    if cfg.flow_mode == "darcy":
        sol = solve_darcy(g, phi, mu, sigma, spec, tol=cfg.tol_flow)
        return sol, spec.params.nu * sol.vel.norm_l2(g) ** 2
    return FlowSolution(face_zeros(g), np.zeros((g.nx, g.ny)),
                        SolveStats(0, 0.0, True), 0.0), 0.0


def initialize_state(g: Grid2D, spec: ModelSpec, cfg: StepConfig) -> State:
    """phi0 from the descriptor, sigma0 from the Robin solve, mu0 from the
    chemical-potential relation, v0 from one flow solve.  The grid's CH
    form is built here, so that its construction does not add to the peak
    memory of the first step."""
    ch_form(g)
    phi0 = build_phi0(spec.phi0, g)
    sig_inf = sample_sigma_inf(spec.sigma_inf, g, 0.0)
    sigma0, _ = solve_nutrient_robin(g, phi0, spec, sig_inf,
                                     tol=cfg.tol_nutrient)
    mu0 = chemical_potential(g, phi0, sigma0, spec)
    flow0, diss0 = _solve_flow(g, phi0, mu0, sigma0, spec, cfg)
    return State(0.0, phi0, mu0, sigma0, flow0.vel, flow0.p, diss0,
                 flow0.div_residual)


def suggest_cfl_dt(g: Grid2D, vel: FaceField) -> float:
    vmax = max(float(np.max(np.abs(vel.x))), float(np.max(np.abs(vel.y))))
    if vmax == 0.0:
        return np.inf
    return 0.5 * min(g.dx, g.dy) / vmax


def energy(g: Grid2D, phi: CellField, spec: ModelSpec) -> float:
    """int psi(phi)/eps + eps/2*|grad phi|^2, the gradient term
    vol*|D phi|^2 with D the gradient of the CH form (the face quadrature
    of the scheme's discrete identity)."""
    eps = spec.params.epsilon
    grad = mac_operators(g).grad @ np.ravel(phi)
    psi_vals = np.asarray(spec.potential.psi(phi), dtype=float)
    return (integrate_cells(g, psi_vals) / eps
            + 0.5 * eps * g.cell_volume * float(grad @ grad))


def _mobility_flux_integrals(g, phi_coeff, mu, sigma, spec):
    """(int m|grad mu|^2, int m grad mu . grad sigma) as
    vol*sum m_f (D mu)^2 and vol*sum m_f (D mu)(D sigma), with D the
    gradient of the CH form and the mobility weights m_f of phi_coeff that
    the CH matrix uses: the first is vol*mu^T B mu/(dt*c) for the (phi, mu)
    block B of that matrix."""
    grad = mac_operators(g).grad
    m_f, _ = _mobility_weights(g, phi_coeff, spec)
    d_mu = grad @ np.ravel(mu)
    flux = m_f * d_mu
    vol = g.cell_volume
    return (vol * float(flux @ d_mu),
            vol * float(flux @ (grad @ np.ravel(sigma))))


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


def level_diagnostics(g: Grid2D, state: State, spec: ModelSpec):
    """(energy, mass, dissipation, boundary_flux, source_mass,
    div_residual) of one time level, in the order of ``Diagnostics``:
    dissipation is int m|grad mu|^2 plus the state's viscous dissipation,
    boundary_flux the convective outflow of phi, source_mass
    int Gamma_phi - phi*Gamma_v.  ``step`` reports them for each new level,
    and the same values describe the initial one."""
    diss_ch, _ = _mobility_flux_integrals(g, state.phi, state.mu,
                                          state.sigma, spec)
    gamma_phi = eval_source_gamma_phi(spec.sources, state.phi, state.sigma)
    gamma_v = eval_source_gamma_v(spec.sources, state.phi, state.sigma)
    return (energy(g, state.phi, spec), integrate_cells(g, state.phi),
            diss_ch + state.dissipation,
            boundary_flux_integral(g, state.phi, state.vel),
            integrate_cells(g, gamma_phi - state.phi * gamma_v),
            state.div_residual)


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
    flow_sol, diss_flow = _solve_flow(g, phi1, mu1, sigma, spec, cfg,
                                      start=(state.vel, state.p))

    new_state = State(state.t + cfg.dt, phi1, mu1, sigma, flow_sol.vel,
                      flow_sol.p, diss_flow, flow_sol.div_residual)
    diag = Diagnostics(
        *level_diagnostics(g, new_state, spec),
        energy_residual=energy_residual(g, state, new_state, spec, cfg.dt),
        mass_residual=mass_balance_residual(g, state, new_state, spec, cfg.dt),
        cfl_dt=cfl,
        cfl_violated=violated,
        nutrient_stats=n_stats,
        ch_stats=ch_stats,
        flow_stats=flow_sol.stats,
    )
    return new_state, diag
