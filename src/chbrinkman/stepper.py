"""Time stepping for the coupled system: quasi-static nutrient solve, then a
semi-implicit stabilized Cahn-Hilliard update, then the flow solve.

The CH scheme treats psi' explicitly with a stabilization S*(phi^{n+1}-phi^n),
the -eps*lap(phi) and mobility flux implicitly, and the convection with the
lagged velocity:

    (phi^{n+1}-phi^n)/dt + div_up(phi^n v^n)
        = div(m(phi^n) grad mu^{n+1}) + Gamma_phi(phi^n, sigma^{n+1})
    mu^{n+1} = (psi'(phi^n) + S*(phi^{n+1}-phi^n))/eps
        - eps*lap(phi^{n+1}) - chi*sigma^{n+1}

where sigma^{n+1} is the quasi-static nutrient the step first solves on
phi^n.

One linear solve per step; energy non-increasing for S >= max |psi''| over
the iterate range when sources vanish, chi = 0 and v = 0.

The CH matrix is one form, defined once per grid in ``ch_form``: the
zero-flux gradient D of ``grid.mac_operators``, weighted by the face mean
of the mobility, by eps and by the stabilization.  The energy diagnostics
evaluate the same D with the same face mobilities (``_mobility_weights``),
so the gradient energy and the CH dissipation are the forms the solver
uses.  With a constant mobility its weights repeat from step to step, and
the assembly returns the matrix it built last, with its preconditioner's
per-mode Cramer coefficients; the face mobilities of phi^n and their cell
mean ``m_mean``, which sets the preconditioner, come from the level's
record, so the mobility is evaluated once per level.

A trajectory owns the operators its assemblies keep: ``initialize_state``
makes one ``linalg.KeptOperators``, every level carries it on,
``step`` hands its nutrient and Brinkman entries to those assemblies, and
the CH assembly reads its entry from the State it is given.
Nothing is kept at module level, so a trajectory's levels do not depend
on what else the process steps.

Each level is measured once, when it is made: its ``LevelRecord`` holds
the level's ``diagnostics.csv`` columns and what the next step's energy
and mass residuals read of it again, so a residual is a function of the
two levels' records and of one source evaluation Gamma_phi(phi^n,
sigma^{n+1}) that the two share with the CH right-hand side.

With Brinkman flow each level carries the projection basis its Brinkman
solve returned (pairs of flows and their products with the kept operator,
``linalg.ProjectionBasis``) and the flows of the last ``FLOW_HISTORY``
levels.  The next level's Brinkman solve starts from the least-squares
best combination of the basis, enters its own flow and passes the basis
on; the flows make a new basis when the operator changes or the basis is
full (``flow.solve_brinkman``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .elliptic import solve_nutrient_robin
from .flow import (FlowSolution, solve_brinkman, solve_darcy,
                   viscous_dissipation)
from .grid import (CellField, FaceField, Grid2D, advect_upwind, as_boundary,
                   boundary_flux_integral, face_zeros, form_matrix,
                   form_pattern, gradient, integrate_cells, mac_operators,
                   minus_laplacian)
from .linalg import (KeptOperators, LinearSystem, ProjectionBasis,
                     SolveStats, bicgstab_solve, require_converged)
from .model import (ModelSpec, RandomPerturbation, eval_source_gamma_phi,
                    eval_source_gamma_v, sampled_evaluators)


@dataclass(frozen=True)
class LevelRecord:
    """What one time level reports, computed once when the level is made.

    The first six fields are the level's ``diagnostics.csv`` columns: the
    energy, int phi, the dissipation int m|grad mu|^2 plus ``viscous``,
    the convective outflow of phi through the boundary, the source mass
    int Gamma_phi - phi*Gamma_v and the flow solve's ||div v - Gamma_v||
    (0 without flow).  The rest is what the energy residual of the step
    into the level (``d_mu``) or out of it reads again: the face gradient
    D mu, the face mobilities m_f of phi, the viscous dissipation of v in
    the form of the flow model that produced it (v^T A v of the assembled
    Brinkman momentum block, nu*sum vol_f*v^2 for Darcy, 0 without flow)
    and the pressure work int p*Gamma_v; and ``m_mean``, the mean of the
    cell mobilities m(phi), which the CH step out of the level reads for
    its preconditioner.
    """

    energy: float
    mass: float
    dissipation: float
    boundary_flux: float
    source_mass: float
    div_residual: float
    d_mu: np.ndarray
    m_f: np.ndarray
    viscous: float
    pressure_work: float
    m_mean: float


@dataclass(frozen=True)
class State:
    """(t, phi, mu, sigma, v, p) at one time level, with its record.

    sigma is the quasi-static nutrient that produced this state's (phi, mu);
    vel/p solve the flow problem for (phi, mu, sigma), so the state is
    internally consistent.  record is the level's ``LevelRecord``, built by
    ``initialize_state`` and ``step``.  With Brinkman flow, flows holds the
    (vel, p) of the last ``FLOW_HISTORY`` levels, this one last, as
    references to those levels' arrays, and basis the projection basis
    (``linalg.ProjectionBasis``) that this level's Brinkman solve returned
    with its flow entered.  The next step's Brinkman solve starts from the
    basis; it makes a new one from the flows when the operator has
    changed, or when the basis is None: at the initial level, and after a
    full basis.  Both are empty in the other flow modes.  kept holds the
    operators the trajectory's assemblies keep (``linalg.KeptOperators``),
    one object shared by all its levels; a State made by hand gets its
    own.
    """

    t: float
    phi: CellField
    mu: CellField
    sigma: CellField
    vel: FaceField
    p: CellField
    record: LevelRecord
    flows: tuple[tuple[FaceField, CellField], ...] = ()
    basis: ProjectionBasis | None = None
    kept: KeptOperators = field(default_factory=KeptOperators)


# levels whose flows make a new Brinkman start basis, after an operator
# change or when the basis is full: each costs one product with the matrix
FLOW_HISTORY = 4


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
        for name in ("dt", "tol_ch", "tol_nutrient", "tol_flow"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.stabilization < 0:
            raise ValueError("stabilization must be non-negative")
        if self.flow_mode not in ("brinkman", "darcy", "none"):
            raise ValueError(f"unknown flow_mode {self.flow_mode!r}")


@dataclass(frozen=True)
class Diagnostics(LevelRecord):
    """The record of the level a step made, with the step's energy and mass
    residuals, its CFL state and the SolveStats of its three solves."""

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
    minus_lap = (mac_operators(g).grad.T
                 @ gradient(g, phi)).reshape(g.nx, g.ny)
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
    pattern, scatter, _ = form_pattern(
        left, right, sp.identity(2 * g.n_cells, format="csr"))
    return CHForm(pattern, scatter)


def _mobility_weights(g: Grid2D, phi: CellField, spec: ModelSpec):
    """(m_f, m_mean): the face mean of the mobility m(phi), on the stacked
    faces of ``grid.mac_operators``, and the mean of its cell values."""
    m = np.ravel(np.asarray(spec.mobility.m(phi), dtype=float))
    return mac_operators(g).mean @ m, float(np.mean(m))


def assemble_ch_system(g: Grid2D, state: State, spec: ModelSpec,
                       cfg: StepConfig, gamma_phi: CellField | None = None):
    """The coupled linear system of one CH step, unknowns [phi, mu/c] with
    c = sqrt(eps/dt); returns (LinearSystem, unknown_scale).

    The matrix fills the cached ``ch_form`` pattern: its weights
    [dt*c*m_f, -eps/c, -S/(eps*c)] go through the scatter.  The dt-scaled
    phi rows keep that block's rhs O(|phi|) so the Krylov residual does not
    pollute the discrete mass identity; the symmetric mu scaling balances
    the off-diagonal blocks at sqrt(dt*eps)*|lap|, which keeps the
    attainable BiCGStab accuracy well below tolerance.  The preconditioner
    is the exact solve of the same system with the mobility replaced by its
    mean, so a constant-mobility step takes no BiCGStab iteration.  While
    the weights, the mean mobility, dt, eps and S equal those of the last
    build kept in the trajectory's entry ``state.kept.ch``, the same
    read-only matrix, preconditioner (with its per-mode Cramer
    coefficients) and scale come back.

    The face mobilities m_f of phi^n and their cell mean m_mean are read
    from ``state.record``;
    ``gamma_phi``, when given, is the source Gamma_phi(phi^n, state.sigma)
    of the rhs, which ``step`` computes once for the step.
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

    m_f, m_mean = state.record.m_f, state.record.m_mean
    w = np.concatenate([(cfg.dt * c) * m_f, np.full(m_f.size, -eps / c),
                        np.full(nc, -s_stab / (eps * c))])

    def build():
        form = ch_form(g)
        a = form_matrix(form.pattern, form.scatter, w)
        a.data.flags.writeable = False
        # the same blocks as alpha*I + beta*T with T = -lap
        lap = minus_laplacian(g)
        divisor = lap.pair_divisor(
            (((1.0, 0.0), (0.0, cfg.dt * c * m_mean)),
             ((-s_stab / (eps * c), -eps / c), (1.0, 0.0))))
        scale = np.concatenate([np.ones(nc), np.full(nc, c)])
        scale.flags.writeable = False
        return a, lambda v: lap.apply(v, divisor), scale

    key = (g, m_mean, cfg.dt, eps, s_stab)
    a, precond, scale = state.kept.ch.get(key, w, build)

    if gamma_phi is None:
        gamma_phi = eval_source_gamma_phi(spec.sources, phi_n, state.sigma)
    rhs1 = phi_n - cfg.dt * advect_upwind(g, phi_n, state.vel) \
        + cfg.dt * gamma_phi
    rhs2 = ((dpsi_n - s_stab * phi_n) / eps
            - spec.params.chi * state.sigma) / c
    system = LinearSystem(a, np.concatenate([rhs1.ravel(), rhs2.ravel()]),
                          precond)
    return system, scale


def ch_update(g: Grid2D, state: State, spec: ModelSpec, cfg: StepConfig,
              gamma_phi: CellField | None = None):
    """One semi-implicit CH step; returns (phi_new, mu_new, SolveStats).

    Uses state.sigma and state.vel as the lagged nutrient/velocity; the
    caller is responsible for refreshing sigma first (step() does).
    ``gamma_phi`` is passed on to ``assemble_ch_system``.
    """
    system, scale = assemble_ch_system(g, state, spec, cfg, gamma_phi)
    x, stats = bicgstab_solve(system.matrix, system.rhs, system.precond,
                              tol=cfg.tol_ch)
    require_converged(stats, "Cahn-Hilliard solve", "cahn-hilliard")
    x = scale * x
    nc = g.n_cells
    return x[:nc].reshape(g.nx, g.ny), x[nc:].reshape(g.nx, g.ny), stats


def _level(g: Grid2D, t: float, phi, mu, sigma, spec: ModelSpec,
           cfg: StepConfig, kept: KeptOperators, flows=(),
           basis=None) -> tuple[State, SolveStats]:
    """The State at t of (phi, mu, sigma), carrying the trajectory's
    ``kept``: the flow solve of cfg.flow_mode on it and the level's record;
    returns (State, the flow's SolveStats).  ``flows``, the last levels'
    flows, and ``basis``, the previous level's projection basis, start the
    Brinkman Krylov solve; the Darcy solve is direct and needs none."""
    if cfg.flow_mode == "brinkman":
        flow = solve_brinkman(g, phi, mu, sigma, spec, tol=cfg.tol_flow,
                              start=flows, basis=basis, kept=kept.brinkman)
        viscous = viscous_dissipation(g, flow.vel, phi, spec)
        flows = (*flows, (flow.vel, flow.p))[-FLOW_HISTORY:]
    elif cfg.flow_mode == "darcy":
        flow = solve_darcy(g, phi, mu, sigma, spec, tol=cfg.tol_flow)
        viscous = spec.params.nu * flow.vel.norm_l2(g) ** 2
    else:
        flow = FlowSolution(face_zeros(g), np.zeros((g.nx, g.ny)),
                            SolveStats(0, 0.0, True), 0.0)
        viscous = 0.0
    m_f, m_mean = _mobility_weights(g, phi, spec)
    d_mu = gradient(g, mu)
    gamma_phi = eval_source_gamma_phi(spec.sources, phi, sigma)
    gamma_v = eval_source_gamma_v(spec.sources, phi, sigma)
    record = LevelRecord(
        energy(g, phi, spec), integrate_cells(g, phi),
        g.cell_volume * float((m_f * d_mu) @ d_mu) + viscous,
        boundary_flux_integral(g, phi, flow.vel),
        integrate_cells(g, gamma_phi - phi * gamma_v), flow.div_residual,
        d_mu, m_f, viscous, integrate_cells(g, flow.p * gamma_v), m_mean)
    return State(t, phi, mu, sigma, flow.vel, flow.p, record, flows,
                 flow.basis, kept), flow.stats


def initialize_state(g: Grid2D, spec: ModelSpec, cfg: StepConfig) -> State:
    """phi0 from the descriptor, sigma0 from the Robin solve, mu0 from the
    chemical-potential relation, v0 from one flow solve.  The evaluators
    of spec are first checked against their contract
    (``model.sampled_evaluators``), so that a bad one raises a ValueError
    naming it before any solve.  The trajectory's
    ``linalg.KeptOperators`` is made here.  The grid's CH form is built
    here too, so that its construction does not add to the peak memory of
    the first step."""
    sampled_evaluators(spec)
    ch_form(g)
    kept = KeptOperators()
    phi0 = build_phi0(spec.phi0, g)
    sig_inf = sample_sigma_inf(spec.sigma_inf, g, 0.0)
    sigma0, _ = solve_nutrient_robin(g, phi0, spec, sig_inf,
                                     tol=cfg.tol_nutrient,
                                     kept=kept.nutrient)
    mu0 = chemical_potential(g, phi0, sigma0, spec)
    return _level(g, 0.0, phi0, mu0, sigma0, spec, cfg, kept)[0]


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
    grad = gradient(g, phi)
    psi_vals = np.asarray(spec.potential.psi(phi), dtype=float)
    return (integrate_cells(g, psi_vals) / eps
            + 0.5 * eps * g.cell_volume * float(grad @ grad))


def energy_residual(g: Grid2D, prev: State, next_: State, gamma_phi,
                    spec: ModelSpec, dt: float) -> float:
    """Defect of the discrete energy balance over one step:
    |dE/dt + int m|grad mu|^2 + viscous dissipation - rhs| with

    rhs = -chi int m grad mu . grad sigma
          + int (Gamma_phi - phi*Gamma_v)(mu + chi*sigma)
          + int p*Gamma_v

    (the pressure work stands in for the divergence-lifting terms the
    analysis removes; the simulator tests the momentum balance with v
    itself).  The energies and D mu^{n+1} come from the two levels'
    records; the mobility m_f, the viscous dissipation and the pressure
    work from prev's, which are the forms the scheme used.  gamma_phi is
    Gamma_phi(phi^n, sigma^{n+1}), the source of the CH step.  Evaluated
    with the same lagged fields the scheme used, so the defect measures
    time-splitting error: O(dt) on a fixed grid.
    """
    chi = spec.params.chi
    before = prev.record
    de = (next_.record.energy - before.energy) / dt
    d_mu = next_.record.d_mu
    flux = before.m_f * d_mu
    diss_ch = g.cell_volume * float(flux @ d_mu)
    cross = g.cell_volume * float(flux @ gradient(g, next_.sigma))

    gamma_v = eval_source_gamma_v(spec.sources, prev.phi, next_.sigma)
    source_work = integrate_cells(
        g, (gamma_phi - prev.phi * gamma_v) * (next_.mu + chi * next_.sigma))

    rhs = -chi * cross + source_work + before.pressure_work
    return abs(de + diss_ch + before.viscous - rhs)


def mass_balance_residual(g: Grid2D, prev: State, next_: State, gamma_phi,
                          dt: float) -> float:
    """|(int phi^{n+1} - int phi^n)/dt + boundary flux - int Gamma_phi|
    from the two levels' records, with gamma_phi = Gamma_phi(phi^n,
    sigma^{n+1}): an exact identity of the flux-form scheme up to the
    Krylov residual."""
    return abs((next_.record.mass - prev.record.mass) / dt
               + prev.record.boundary_flux - integrate_cells(g, gamma_phi))


def step(g: Grid2D, state: State, spec: ModelSpec, cfg: StepConfig):
    """Advance one time level; returns (new_state, Diagnostics).

    Stage order: (1) Robin nutrient solve at t^n, started from sigma^n,
    (2) CH update with the lagged velocity, (3) flow solve on the new
    (phi, mu).  Gamma_phi(phi^n, sigma^{n+1}) is evaluated once, for the CH
    rhs and both residuals.  The three assemblies keep their operators in
    the entries of ``state.kept``, which the new state carries on.
    Sub-solver failures carry their stage name.
    """
    kept = state.kept
    sig_inf = sample_sigma_inf(spec.sigma_inf, g, state.t)
    sigma, n_stats = solve_nutrient_robin(g, state.phi, spec, sig_inf,
                                          tol=cfg.tol_nutrient,
                                          x0=state.sigma, kept=kept.nutrient)
    work = replace(state, sigma=sigma)
    gamma_phi = eval_source_gamma_phi(spec.sources, state.phi, sigma)

    cfl = suggest_cfl_dt(g, state.vel)
    violated = bool(cfg.dt > cfl)
    if violated and cfg.strict_cfl:
        raise CflViolation(cfg.dt, cfl)

    phi1, mu1, ch_stats = ch_update(g, work, spec, cfg, gamma_phi)
    new_state, flow_stats = _level(g, state.t + cfg.dt, phi1, mu1, sigma,
                                   spec, cfg, kept, state.flows, state.basis)
    return new_state, Diagnostics(
        **vars(new_state.record),
        energy_residual=energy_residual(g, state, new_state, gamma_phi, spec,
                                        cfg.dt),
        mass_residual=mass_balance_residual(g, state, new_state, gamma_phi,
                                            cfg.dt),
        cfl_dt=cfl, cfl_violated=violated, nutrient_stats=n_stats,
        ch_stats=ch_stats, flow_stats=flow_stats)


def trajectory(g: Grid2D, spec: ModelSpec, cfg: StepConfig, n_steps: int):
    """The time levels 0..n_steps of (spec, cfg) on g, as (k, State,
    Diagnostics) with Diagnostics None at the initial level.

    Each level is made when it is asked for, and only the one in hand is
    held here.  An error in making level k raises out of the generator
    after levels 0..k-1 were yielded.  The levels carry the trajectory's
    own kept operators, so trajectories may be stepped interleaved, and
    each gives bit for bit the levels of a run on its own.
    """
    state = initialize_state(g, spec, cfg)
    yield 0, state, None
    for k in range(1, n_steps + 1):
        state, diag = step(g, state, spec, cfg)
        yield k, state, diag
