"""Desk-scale numerical experiments: manufactured-solution convergence,
the large-boundary-permeability (Robin -> Dirichlet) limit, the
vanishing-viscosity (Brinkman -> Darcy) limit, and continuous dependence on
the initial/boundary data.

Every study is deterministic, returns a SweepResult with all recorded norms,
the fitted log-log slope of its primary norm, and named checks (the study
passes when every boolean one holds); the cli module serializes results to
CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .elliptic import (boundary_trace, solve_nutrient_dirichlet,
                       solve_nutrient_robin)
from .flow import shear_dissipation, solve_brinkman, solve_darcy
from .grid import (CellField, FaceField, Grid2D, boundary_face_centers,
                   mac_operators, norm_l2_cells)
from .model import (ModelParams, ModelSpec, SourceSpec, ViscositySpec,
                    constant_viscosity, zero_sources)
from .stepper import StepConfig, initialize_state, sample_sigma_inf, step


@dataclass
class SweepResult:
    parameter: str
    values: list
    norms: dict
    primary: str
    slope: float
    checks: dict

    @property
    def passed(self) -> bool:
        """Every boolean check holds; the numeric checks only report."""
        return all(v for v in self.checks.values() if isinstance(v, bool))

    def table(self):
        """(header, rows) for CSV serialization."""
        keys = list(self.norms.keys())
        header = [self.parameter] + keys
        rows = [[v] + [self.norms[k][i] for k in keys]
                for i, v in enumerate(self.values)]
        return header, rows


def _loglog_slope(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(ys <= 0) or np.any(xs <= 0) or len(xs) < 2:
        return float("nan")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _strictly_decreasing(vals):
    return all(b < a for a, b in zip(vals, vals[1:]))


def norm_h1(g: Grid2D, f: CellField) -> float:
    """Discrete H1 norm (vol*(|f|^2 + |grad f|^2))^(1/2), with the zero-flux
    face gradient of ``grid.mac_operators``."""
    grad = mac_operators(g).grad @ np.ravel(f)
    return float(np.sqrt(g.cell_volume * (np.sum(f**2) + grad @ grad)))


def _clip_identity(s):
    return np.clip(s, -100.0, 100.0)


def _zeros(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def _ones(s):
    return np.ones_like(np.asarray(s, dtype=float))


def passthrough_sources() -> SourceSpec:
    """Gamma_v = clip(phi): lets MMS drivers prescribe an arbitrary bounded
    mass source by storing it in the phi argument."""
    return SourceSpec(b_v=_zeros, f_v=_clip_identity, b_phi=_zeros,
                      f_phi=_zeros, h=_ones)


# manufactured solutions ------------------------------------------------------

def _nutrient_mms_error(n: int) -> float:
    """sigma* = cos(pi x)cos(pi y), h = 1, Robin data consistent with K."""
    g = Grid2D(n, n)
    spec = ModelSpec(params=ModelParams(K=2.5), sources=zero_sources(1.0))
    xc, yc = g.cell_centers()
    sigma_star = np.cos(np.pi * xc) * np.cos(np.pi * yc)
    extra = (2.0 * np.pi**2 + 1.0) * sigma_star
    xb, yb = boundary_face_centers(g)
    # normal derivative of sigma* vanishes on the unit-square boundary
    sig_inf = np.cos(np.pi * xb) * np.cos(np.pi * yb)
    phi = np.zeros((n, n))
    sigma, _ = solve_nutrient_robin(g, phi, spec, sig_inf, extra_rhs=extra)
    return norm_l2_cells(g, sigma - sigma_star)


def _darcy_mms_errors(n: int):
    """p* = sin(pi x)sin(pi y) (zero trace), F = 0, Gamma_v = -lap(p*)/nu."""
    nu = 1.5
    g = Grid2D(n, n)
    spec = ModelSpec(params=ModelParams(nu=nu),
                     sources=passthrough_sources())
    xc, yc = g.cell_centers()
    p_star = np.sin(np.pi * xc) * np.sin(np.pi * yc)
    gamma = 2.0 * np.pi**2 * p_star / nu
    zero = np.zeros((n, n))
    sol = solve_darcy(g, gamma, zero, zero, spec)
    xfx, yfx = g.xface_centers()
    xfy, yfy = g.yface_centers()
    vx_star = -np.pi * np.cos(np.pi * xfx) * np.sin(np.pi * yfx) / nu
    vy_star = -np.pi * np.sin(np.pi * xfy) * np.cos(np.pi * yfy) / nu
    p_err = norm_l2_cells(g, sol.p - p_star)
    v_err = FaceField(sol.vel.x - vx_star, sol.vel.y - vy_star).norm_l2(g)
    return p_err, v_err


def brinkman_manufactured(eta: float = 0.7, nu: float = 1.0):
    """Polynomial (v*, p*) with T(v,p)n = 0 exactly on the unit square.

    vx = a*x + b*(x^2/2 - x^3/3) + d*Bx with a bi-quartic bubble Bx,
    vy = a*y + c*(y^2/2 - y^3/3), p = 2*eta*a + k*x(1-x)y(1-y), lambda = 0;
    the side conditions Txx = Txy = 0 (x = 0, 1) and Tyy = Txy = 0
    (y = 0, 1) hold identically.  Returns evaluators
    (vx, vy, p, gamma_v, fx, fy).
    """
    a, b, c, d, k = 0.3, 1.1, -0.8, 0.9, 1.3

    def bub(x, y):
        return x**2 * (1 - x)**2 * y**2 * (1 - y)**2

    def bub_x(x, y):
        return 2 * x * (1 - x) * (1 - 2 * x) * y**2 * (1 - y)**2

    def bub_xx(x, y):
        return (2 - 12 * x + 12 * x**2) * y**2 * (1 - y)**2

    def bub_yy(x, y):
        return x**2 * (1 - x)**2 * (2 - 12 * y + 12 * y**2)

    def bub_xy(x, y):
        return (2 * x * (1 - x) * (1 - 2 * x)
                * 2 * y * (1 - y) * (1 - 2 * y))

    def vx(x, y):
        return a * x + b * (x**2 / 2 - x**3 / 3) + d * bub(x, y)

    def vy(x, y):
        return a * y + c * (y**2 / 2 - y**3 / 3)

    def p(x, y):
        return 2 * eta * a + k * x * (1 - x) * y * (1 - y)

    def gamma_v(x, y):
        return 2 * a + b * x * (1 - x) + c * y * (1 - y) + d * bub_x(x, y)

    def fx(x, y):
        vx_xx = b * (1 - 2 * x) + d * bub_xx(x, y)
        vx_yy = d * bub_yy(x, y)
        p_x = k * (1 - 2 * x) * y * (1 - y)
        return -eta * (2 * vx_xx + vx_yy) + nu * vx(x, y) + p_x

    def fy(x, y):
        vy_yy = c * (1 - 2 * y)
        vx_xy = d * bub_xy(x, y)
        p_y = k * x * (1 - x) * (1 - 2 * y)
        return -eta * (2 * vy_yy + vx_xy) + nu * vy(x, y) + p_y

    return vx, vy, p, gamma_v, fx, fy


def _brinkman_mms_errors(n: int):
    eta, nu = 0.7, 1.0
    g = Grid2D(n, n)
    vx_f, vy_f, p_f, gamma_f, fx_f, fy_f = brinkman_manufactured(eta, nu)
    spec = ModelSpec(params=ModelParams(nu=nu),
                     viscosity=constant_viscosity(eta, 0.0),
                     sources=passthrough_sources())
    xc, yc = g.cell_centers()
    xfx, yfx = g.xface_centers()
    xfy, yfy = g.yface_centers()
    zero = np.zeros((n, n))
    extra = FaceField(fx_f(xfx, yfx), fy_f(xfy, yfy))
    sol = solve_brinkman(g, gamma_f(xc, yc), zero, zero, spec,
                         extra_force=extra)
    v_err = FaceField(sol.vel.x - vx_f(xfx, yfx),
                      sol.vel.y - vy_f(xfy, yfy)).norm_l2(g)
    p_err = norm_l2_cells(g, sol.p - p_f(xc, yc))
    return v_err, p_err


_MMS_BASE_N = {"nutrient": 32, "darcy": 32, "brinkman": 16}


def mms_convergence(problem: str, levels: int = 3,
                    base_n: int | None = None) -> SweepResult:
    """Grid-refinement study for one sub-solver; observed order is the slope
    of log(error) against log(dx)."""
    if levels < 3:
        raise ValueError("need at least 3 refinement levels")
    if problem not in _MMS_BASE_N:
        raise ValueError(f"unknown MMS problem {problem!r}")
    n0 = base_n if base_n is not None else _MMS_BASE_N[problem]
    ns = [n0 * 2**k for k in range(levels)]
    dxs = [1.0 / n for n in ns]

    if problem == "nutrient":
        errs = [_nutrient_mms_error(n) for n in ns]
        norms = {"sigma_l2_error": errs}
        primary = "sigma_l2_error"
    elif problem == "darcy":
        pairs = [_darcy_mms_errors(n) for n in ns]
        norms = {"pressure_l2_error": [p for p, _ in pairs],
                 "velocity_l2_error": [v for _, v in pairs]}
        primary = "pressure_l2_error"
    else:
        pairs = [_brinkman_mms_errors(n) for n in ns]
        norms = {"velocity_l2_error": [v for v, _ in pairs],
                 "pressure_l2_error": [p for _, p in pairs]}
        primary = "velocity_l2_error"

    order = _loglog_slope(dxs, norms[primary])
    floor = 1.9 if problem in ("nutrient", "darcy") else 0.9
    return SweepResult(
        parameter="n", values=ns,
        norms={"dx": dxs, **norms},
        primary=primary, slope=order,
        checks={"observed_order": order,
                "order_at_least_required": bool(order >= floor)},
    )


def robin_limit_study(g: Grid2D, phi: CellField, spec: ModelSpec,
                      K_values, sigma_inf=1.0) -> SweepResult:
    """Robin solves across increasing K against the Dirichlet reference."""
    K_values = list(K_values)
    if len(K_values) < 3 or any(b <= a for a, b in zip(K_values, K_values[1:])):
        raise ValueError("K_values must be increasing with at least 3 entries")
    sig_inf = sample_sigma_inf(sigma_inf, g, 0.0)
    sigma_d, _ = solve_nutrient_dirichlet(g, phi, spec, sig_inf)
    gaps, dists, gap_sqrt_k = [], [], []
    for K in K_values:
        spec_k = replace(spec, params=replace(spec.params, K=float(K)))
        sigma_k, _ = solve_nutrient_robin(g, phi, spec_k, sig_inf)
        _, gap_norm = boundary_trace(g, sigma_k, sig_inf, float(K))
        gaps.append(gap_norm)
        dists.append(norm_l2_cells(g, sigma_k - sigma_d))
        gap_sqrt_k.append(gap_norm * np.sqrt(K))
    slope = _loglog_slope(K_values, gaps)
    checks = {
        "gap_strictly_decreasing": _strictly_decreasing(gaps),
        "interior_strictly_decreasing": _strictly_decreasing(dists),
        "gap_slope_at_most_-0.45": bool(slope <= -0.45),
        "sqrtk_gap_bounded": bool(all(v <= 1.1 * gap_sqrt_k[0]
                                      for v in gap_sqrt_k)),
    }
    return SweepResult(
        parameter="K", values=K_values,
        norms={"boundary_gap_l2": gaps, "interior_distance_l2": dists,
               "gap_times_sqrt_k": gap_sqrt_k},
        primary="boundary_gap_l2", slope=slope, checks=checks)


def _scaled_viscosity(base: ViscositySpec, s: float) -> ViscositySpec:
    return ViscositySpec(
        eta=lambda t, f=base.eta: s * np.asarray(f(t), dtype=float),
        lam=lambda t, f=base.lam: s * np.asarray(f(t), dtype=float),
        eta0=s * base.eta0, eta1=s * base.eta1, lam0=s * base.lam0)


def viscosity_limit_study(g: Grid2D, phi: CellField, mu: CellField,
                          sigma: CellField, spec: ModelSpec,
                          scale_values) -> SweepResult:
    """Brinkman solves at viscosities (s*eta, s*lam) against the Darcy
    reference on frozen (phi, mu, sigma); records velocity/pressure gaps and
    the shear part of the viscous energy."""
    scales = list(scale_values)
    if len(scales) < 3 or any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be decreasing with at least 3 entries")

    darcy_sol = solve_darcy(g, phi, mu, sigma, spec)
    v_gaps, p_gaps, energies = [], [], []
    for s in scales:
        spec_s = replace(spec, viscosity=_scaled_viscosity(spec.viscosity, s))
        sol = solve_brinkman(g, phi, mu, sigma, spec_s)
        v_gaps.append((sol.vel - darcy_sol.vel).norm_l2(g))
        p_gaps.append(norm_l2_cells(g, sol.p - darcy_sol.p))
        energies.append(shear_dissipation(g, sol.vel, phi, spec_s))
    slope = _loglog_slope(scales, v_gaps)
    checks = {
        "velocity_gap_decreasing": _strictly_decreasing(v_gaps),
        "pressure_gap_decreasing": _strictly_decreasing(p_gaps),
        "viscous_energy_decreasing": _strictly_decreasing(energies),
        "viscous_energy_vanishes": bool(energies[-1] <= 1e-2 * energies[0]),
    }
    return SweepResult(
        parameter="scale", values=scales,
        norms={"velocity_gap_l2": v_gaps, "pressure_gap_l2": p_gaps,
               "viscous_energy": energies},
        primary="velocity_gap_l2", slope=slope, checks=checks)


def _run_trajectory(g, spec, cfg, n_steps):
    state = initialize_state(g, spec, cfg)
    states = [state]
    for _ in range(n_steps):
        state, _ = step(g, state, spec, cfg)
        states.append(state)
    return states


def continuous_dependence_study(g: Grid2D, spec: ModelSpec, phi0: CellField,
                                deltas, n_steps: int, cfg: StepConfig,
                                perturb: str = "phi0",
                                w: CellField | None = None) -> SweepResult:
    """Paired trajectories under data perturbations of size delta.

    perturb="phi0": r(delta) = sup_n ||phi1 - phi2||_H1 / (delta*||w||_H1)
    perturb="sigma_inf": r(delta) = sup_n ||sigma1 - sigma2||_2
                                    / ||delta||_{L2(boundary)}
    Requires constant mobility.  delta = 0 gives ratio 0 by definition.
    """
    if spec.mobility.m0 != spec.mobility.m1:
        raise ValueError("continuous dependence study requires constant "
                         "mobility (B1)")
    if perturb not in ("phi0", "sigma_inf"):
        raise ValueError(f"unknown perturbation target {perturb!r}")
    deltas = list(deltas)
    if any(b >= a for a, b in zip(deltas, deltas[1:])) or any(d < 0 for d in deltas):
        raise ValueError("deltas must be non-negative and decreasing")

    if w is None:
        xc, yc = g.cell_centers()
        w = np.cos(np.pi * xc) * np.cos(np.pi * yc)
    w_h1 = norm_h1(g, w)
    base_spec = replace(spec, phi0=phi0)
    base = _run_trajectory(g, base_spec, cfg, n_steps)

    perimeter = 2.0 * (g.lx + g.ly)
    ratios = []
    for d in deltas:
        if d == 0.0:
            ratios.append(0.0)
            continue
        if perturb == "phi0":
            pert_spec = replace(base_spec, phi0=phi0 + d * w)
        else:
            base_inf = spec.sigma_inf
            if callable(base_inf):
                shifted = lambda t, f=base_inf, d=d: np.asarray(f(t)) + d
            else:
                shifted = np.asarray(base_inf, dtype=float) + d
            pert_spec = replace(base_spec, sigma_inf=shifted)
        other = _run_trajectory(g, pert_spec, cfg, n_steps)
        if perturb == "phi0":
            sup = max(norm_h1(g, s1.phi - s2.phi)
                      for s1, s2 in zip(base, other))
            ratios.append(sup / (d * w_h1))
        else:
            sup = max(norm_l2_cells(g, s1.sigma - s2.sigma)
                      for s1, s2 in zip(base, other))
            ratios.append(sup / (d * np.sqrt(perimeter)))

    nonzero = [r for r, d in zip(ratios, deltas) if d > 0]
    spread = max(nonzero) / min(nonzero) if nonzero and min(nonzero) > 0 else float("inf")
    checks = {"ratio_spread": spread,
              "ratio_spread_at_most_10": bool(spread <= 10.0)}
    return SweepResult(
        parameter="delta", values=deltas,
        norms={"difference_ratio": ratios},
        primary="difference_ratio",
        slope=_loglog_slope([d for d in deltas if d > 0], nonzero),
        checks=checks)
