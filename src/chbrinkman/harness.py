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
from .grid import (CellField, FaceField, Grid2D, boundary_faces, gradient,
                   norm_l2_cells)
from .model import (ModelParams, ModelSpec, SourceSpec, ViscositySpec,
                    constant, constant_viscosity, zero_sources)
from .stepper import StepConfig, sample_sigma_inf, trajectory


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
    face gradient ``grid.gradient``."""
    grad = gradient(g, f)
    return float(np.sqrt(g.cell_volume * (np.sum(f**2) + grad @ grad)))


def _clip_identity(s):
    return np.clip(s, -100.0, 100.0)


def passthrough_sources() -> SourceSpec:
    """Gamma_v = clip(phi): lets MMS drivers prescribe an arbitrary bounded
    mass source by storing it in the phi argument."""
    zero = constant(0.0)
    return SourceSpec(b_v=zero, f_v=_clip_identity, b_phi=zero, f_phi=zero,
                      h=constant(1.0))


# manufactured solutions ------------------------------------------------------

def _nutrient_mms_error(n: int):
    """sigma* = cos(pi x)cos(pi y), h = 1, Robin data consistent with K;
    returns (sigma error,)."""
    g = Grid2D(n, n)
    spec = ModelSpec(params=ModelParams(K=2.5), sources=zero_sources(1.0))
    xc, yc = g.cell_centers()
    sigma_star = np.cos(np.pi * xc) * np.cos(np.pi * yc)
    extra = (2.0 * np.pi**2 + 1.0) * sigma_star
    faces = boundary_faces(g)
    # normal derivative of sigma* vanishes on the unit-square boundary
    sig_inf = np.cos(np.pi * faces.x) * np.cos(np.pi * faces.y)
    phi = np.zeros((n, n))
    sigma, _ = solve_nutrient_robin(g, phi, spec, sig_inf, extra_rhs=extra)
    return (norm_l2_cells(g, sigma - sigma_star),)


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


# problem -> (base n, its errors on one grid, their norm names with the
# primary first, the order the study requires of the primary)
_MMS = {
    "nutrient": (32, _nutrient_mms_error, ("sigma_l2_error",), 1.9),
    "darcy": (32, _darcy_mms_errors,
              ("pressure_l2_error", "velocity_l2_error"), 1.9),
    "brinkman": (16, _brinkman_mms_errors,
                 ("velocity_l2_error", "pressure_l2_error"), 0.9),
}


def mms_convergence(problem: str, levels: int = 3) -> SweepResult:
    """Grid-refinement study for one sub-solver on the grids n0*2^k,
    k < levels, from the problem's base n0 in ``_MMS``; observed order is
    the slope of log(error) against log(dx)."""
    if levels < 3:
        raise ValueError("need at least 3 refinement levels")
    if problem not in _MMS:
        raise ValueError(f"unknown MMS problem {problem!r}")
    base_n, errors, names, floor = _MMS[problem]
    ns = [base_n * 2**k for k in range(levels)]
    dxs = [1.0 / n for n in ns]
    norms = dict(zip(names, map(list, zip(*map(errors, ns)))))
    primary = names[0]
    order = _loglog_slope(dxs, norms[primary])
    return SweepResult(
        parameter="n", values=ns,
        norms={"dx": dxs, **norms},
        primary=primary, slope=order,
        checks={"order_at_least_required": bool(order >= floor)},
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


def continuous_dependence_study(g: Grid2D, spec: ModelSpec, phi0: CellField,
                                deltas, n_steps: int, cfg: StepConfig,
                                perturb: str = "phi0") -> SweepResult:
    """Paired trajectories under data perturbations of size delta.

    perturb="phi0": phi0 + delta*w with w = cos(pi*x)*cos(pi*y), and
                    r(delta) = sup_n ||phi1 - phi2||_H1 / (delta*||w||_H1)
    perturb="sigma_inf": r(delta) = sup_n ||sigma1 - sigma2||_2
                                    / ||delta||_{L2(boundary)}
    with the sup over the levels n = 1..n_steps (at n = 0 the phi0 ratio
    is 1 by construction).  Requires constant mobility, n_steps >= 1 and
    at least two deltas, positive and strictly decreasing; anything else
    raises ValueError.
    """
    if spec.mobility.m0 != spec.mobility.m1:
        raise ValueError("continuous dependence study requires constant "
                         "mobility (B1)")
    if perturb not in ("phi0", "sigma_inf"):
        raise ValueError(f"unknown perturbation target {perturb!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    deltas = list(deltas)
    if len(deltas) < 2 or deltas[-1] <= 0 or any(
            b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("need two or more deltas, positive and decreasing")

    xc, yc = g.cell_centers()
    w = np.cos(np.pi * xc) * np.cos(np.pi * yc)
    if perturb == "phi0":
        field, norm, scale = "phi", norm_h1, norm_h1(g, w)
    else:
        field, norm = "sigma", norm_l2_cells
        scale = np.sqrt(2.0 * (g.lx + g.ly))   # sqrt of the perimeter
    base_spec = replace(spec, phi0=phi0)

    def perturbed(d):
        if perturb == "phi0":
            return replace(base_spec, phi0=phi0 + d * w)
        base_inf = spec.sigma_inf
        if callable(base_inf):
            return replace(base_spec, sigma_inf=lambda t: np.asarray(
                base_inf(t)) + d)
        return replace(base_spec,
                       sigma_inf=np.asarray(base_inf, dtype=float) + d)

    # the base and the perturbed trajectories step in lockstep, each with
    # its own kept operators; only the levels in hand are held
    runs = zip(*(trajectory(g, s, cfg, n_steps)
                 for s in (base_spec, *map(perturbed, deltas))))
    next(runs)  # level 0, where the phi0 gap is delta*w by construction
    gaps = [[norm(g, getattr(base, field) - getattr(state, field))
             for _, state, _ in others] for (_, base, _), *others in runs]
    ratios = [max(gap) / (d * scale) for gap, d in zip(zip(*gaps), deltas)]

    spread = max(ratios) / min(ratios) if ratios and min(ratios) > 0 else float("inf")
    checks = {"ratio_spread": spread,
              "ratio_spread_at_most_10": bool(spread <= 10.0)}
    return SweepResult(
        parameter="delta", values=deltas,
        norms={"difference_ratio": ratios},
        primary="difference_ratio",
        slope=_loglog_slope(deltas, ratios),
        checks=checks)
