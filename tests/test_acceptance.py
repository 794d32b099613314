"""Acceptance gate: one test per shipped criterion, each printing a
[PASS]/[FAIL] line with its measured numbers and asserting the stated
tolerance and runtime budget.

Shared benchmark configurations live at module scope so the divergence
criterion can audit every flow solve performed by the mass-identity and
viscosity-limit runs.  Criteria 5-7 run the problems and sweep values of
the study subcommands, built by ``chbrinkman.cli``.
"""

import dataclasses
import json
import time

import numpy as np

import chbrinkman as chb
from chbrinkman import (Grid2D, ModelParams, ModelSpec, RandomPerturbation,
                        StepConfig, bicgstab_solve,
                        blended_mobility, blended_viscosity,
                        constant_viscosity,
                        initialize_state, norm_l2_cells, step, validate,
                        zero_sources)
from chbrinkman.cli import (CONTDEP_DELTAS, K_VALUES, VISCOSITY_SCALES,
                            contdep_problem, limit_k_problem,
                            limit_visc_problem)
from chbrinkman.cli import main as cli_main
from chbrinkman.elliptic import assemble_nutrient_system
from chbrinkman.flow import (assemble_brinkman_system,
                             assemble_darcy_pressure_system, brinkman_force)
from chbrinkman.harness import (mms_convergence,
                                continuous_dependence_study,
                                robin_limit_study, viscosity_limit_study)
from chbrinkman.model import SourceSpec, eval_source_gamma_v, smooth_blend
from chbrinkman.stepper import assemble_ch_system
from conftest import dense_solve

# div_residual audits of every flow solve run by criteria 4 and 6
# (criterion 5 performs no flow solves); filled by those tests
FLOW_DIV_AUDITS = []


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1

def broken_specs():
    base = chb.ModelSpec()
    bad_psi2 = dataclasses.replace(
        base, potential=dataclasses.replace(
            base.potential,
            ddpsi2=lambda s: 5.0 * np.ones_like(np.asarray(s, float))))
    bad_h = dataclasses.replace(
        base, sources=dataclasses.replace(
            base.sources, h=lambda s: np.asarray(s, float)))
    bad_eta = dataclasses.replace(
        base, viscosity=dataclasses.replace(
            base.viscosity,
            eta=lambda s: 0.1 * np.ones_like(np.asarray(s, float))))
    return [("(A5)", bad_psi2), ("(A4)", bad_h), ("(A3)", bad_eta)]


def test_criterion_1_assumption_audit():
    t0 = time.monotonic()
    report = validate(chb.ModelSpec())
    ok = report.passed
    named = []
    for expected, spec in broken_specs():
        rep = validate(spec)
        named.append((not rep.passed) and expected in
                     {e.assumption for e in rep.failures()})
    elapsed = time.monotonic() - t0
    _report(1, ok and all(named) and elapsed < 1.0,
            f"default spec passes, 3 broken specs name their assumption, "
            f"{elapsed:.2f}s (< 1s)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_mms_convergence():
    t0 = time.monotonic()
    nut = mms_convergence("nutrient", levels=3)    # 32..128
    dar = mms_convergence("darcy", levels=3)       # 32..128
    bri = mms_convergence("brinkman", levels=4)    # 16..128
    elapsed = time.monotonic() - t0
    ok = nut.slope >= 1.9 and dar.slope >= 1.9 and bri.slope >= 0.9 \
        and elapsed < 120.0
    _report(2, ok,
            f"observed orders: nutrient {nut.slope:.2f} (>=1.9), "
            f"darcy pressure {dar.slope:.2f} (>=1.9), "
            f"brinkman velocity {bri.slope:.2f} (>=0.9), "
            f"{elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------- criterion 3

def spinodal_benchmark_spec():
    """Zero sources, chi = 0, band-limited seeded noise; flow disabled so
    the discrete energy identity is exercised without advective coupling."""
    return ModelSpec(
        params=ModelParams(epsilon=0.15, nu=1.0, K=100.0, chi=0.0),
        sources=zero_sources(1.0), sigma_inf=0.0,
        phi0=RandomPerturbation(seed=42, amplitude=1e-2, modes=1))


SPINODAL_GRID = dict(nx=64, ny=64, lx=2.0, ly=2.0)


def test_criterion_3_energy_identity():
    t0 = time.monotonic()
    g = Grid2D(**SPINODAL_GRID)
    spec = spinodal_benchmark_spec()

    cfg = StepConfig(dt=1e-4, flow_mode="none")
    st = initialize_state(g, spec, cfg)
    energies = [chb.energy(g, st.phi, spec)]
    for _ in range(200):
        st, diag = step(g, st, spec, cfg)
        energies.append(diag.energy)
    monotone = all(b <= a for a, b in zip(energies, energies[1:]))

    worst = {}
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = StepConfig(dt=dt, flow_mode="none")
        st = initialize_state(g, spec, cfg)
        vals = []
        for _ in range(int(round(0.02 / dt))):
            st, diag = step(g, st, spec, cfg)
            vals.append(diag.energy_residual)
        worst[dt] = max(vals)
    dts = sorted(worst, reverse=True)
    order = float(np.polyfit(np.log(dts),
                             np.log([worst[d] for d in dts]), 1)[0])
    elapsed = time.monotonic() - t0
    _report(3, monotone and order >= 0.9 and elapsed < 120.0,
            f"energy non-increasing over 200 steps, residual order "
            f"{order:.2f} (>=0.9) over dt {{4e-4,2e-4,1e-4}}, "
            f"{elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------- criterion 4

def coupled_brinkman_spec():
    return ModelSpec(
        params=ModelParams(epsilon=0.1, nu=1.0, K=10.0, chi=0.5),
        viscosity=constant_viscosity(0.1, 0.05),
        sources=SourceSpec(
            b_v=smooth_blend(0.0, 0.2), f_v=smooth_blend(-0.05, 0.05),
            b_phi=smooth_blend(0.0, 0.1), f_phi=smooth_blend(0.0, 0.0),
            h=smooth_blend(0.5, 1.0)),
        sigma_inf=1.0,
        phi0=lambda x, y: np.tanh((0.25 - np.sqrt((x - 0.5) ** 2
                                                  + (y - 0.5) ** 2)) / 0.1))


def test_criterion_4_mass_identity():
    t0 = time.monotonic()
    g = Grid2D(32, 32)
    spec = coupled_brinkman_spec()
    cfg = StepConfig(dt=1e-3, flow_mode="brinkman", tol_ch=1e-12)
    st = initialize_state(g, spec, cfg)
    worst = 0.0
    for _ in range(100):
        st, diag = step(g, st, spec, cfg)
        worst = max(worst, diag.mass_residual / (1e-9 * (abs(diag.mass) + 1.0)))
        gamma = eval_source_gamma_v(spec.sources, st.phi, st.sigma)
        FLOW_DIV_AUDITS.append(
            ("criterion-4", diag.div_residual,
             10.0 * cfg.tol_flow * norm_l2_cells(g, gamma)))
    elapsed = time.monotonic() - t0
    _report(4, worst < 1.0 and elapsed < 60.0,
            f"mass residual at most {worst:.3f} x its 1e-9*(|mass|+1) bound "
            f"over 100 coupled steps, {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_robin_dirichlet_limit():
    t0 = time.monotonic()
    result = robin_limit_study(*limit_k_problem(), K_VALUES)
    elapsed = time.monotonic() - t0
    ok = (result.checks["gap_strictly_decreasing"]
          and result.checks["gap_slope_at_most_-0.45"]
          and result.checks["sqrtk_gap_bounded"]
          and elapsed < 30.0)
    _report(5, ok,
            f"gap strictly decreasing, log-log slope {result.slope:.2f} "
            f"(<= -0.45), sqrt(K)-weighted gap bounded by 1.1x initial, "
            f"{elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_vanishing_viscosity_limit():
    t0 = time.monotonic()
    g, phi, mu, sigma, spec = limit_visc_problem()
    result = viscosity_limit_study(g, phi, mu, sigma, spec, VISCOSITY_SCALES)
    gamma = eval_source_gamma_v(spec.sources, phi, sigma)
    gnorm = norm_l2_cells(g, gamma)
    for s, vgap in zip(result.values, result.norms["velocity_gap_l2"]):
        spec_s = dataclasses.replace(
            spec, viscosity=constant_viscosity(0.02 * s, 0.01 * s))
        sol = chb.solve_brinkman(g, phi, mu, sigma, spec_s)
        FLOW_DIV_AUDITS.append(("criterion-6-brinkman", sol.div_residual,
                                10.0 * 1e-9 * gnorm))
    darcy = chb.solve_darcy(g, phi, mu, sigma, spec)
    FLOW_DIV_AUDITS.append(("criterion-6-darcy", darcy.div_residual,
                            10.0 * 1e-9 * gnorm))
    energies = result.norms["viscous_energy"]
    elapsed = time.monotonic() - t0
    ok = (result.checks["velocity_gap_decreasing"]
          and result.checks["pressure_gap_decreasing"]
          and energies[-1] <= 1e-2 * energies[0]
          and elapsed < 60.0)
    _report(6, ok,
            f"velocity/pressure gaps strictly decreasing, shear energy ratio "
            f"{energies[-1] / energies[0]:.2e} (<= 1e-2), "
            f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_continuous_dependence():
    t0 = time.monotonic()
    g, spec, phi0, cfg = contdep_problem()
    r_phi = continuous_dependence_study(g, spec, phi0, CONTDEP_DELTAS,
                                        n_steps=50, cfg=cfg, perturb="phi0")
    r_sig = continuous_dependence_study(g, spec, phi0, CONTDEP_DELTAS,
                                        n_steps=50, cfg=cfg,
                                        perturb="sigma_inf")
    elapsed = time.monotonic() - t0
    ok = (r_phi.checks["ratio_spread_at_most_10"]
          and r_sig.checks["ratio_spread_at_most_10"]
          and elapsed < 180.0)
    _report(7, ok,
            f"phi0 ratio spread {r_phi.checks['ratio_spread']:.2f} (<= 10), "
            f"sigma_inf constant spread {r_sig.checks['ratio_spread']:.2f} "
            f"(<= 10), {elapsed:.1f}s (< 180s)")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_divergence_constraint():
    assert FLOW_DIV_AUDITS, "criteria 4 and 6 must run first"
    worst = max(res / bound for _, res, bound in FLOW_DIV_AUDITS)
    _report(8, worst <= 1.0,
            f"div residual at most {worst:.3f} x its 10*tol*|Gamma_v| bound "
            f"across {len(FLOW_DIV_AUDITS)} flow solves of criteria 4-6")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_oracle_equivalence(rng):
    g = Grid2D(8, 8)
    xc, yc = g.cell_centers()
    phi = np.tanh((0.25 - np.sqrt((xc - 0.5) ** 2 + (yc - 0.5) ** 2)) / 0.15)
    results = []

    def replay(name, system):
        """The system through BiCGStab and the fast-diagonalization
        preconditioner of its assembly."""
        x_lu = dense_solve(system.matrix, system.rhs)
        x, stats = bicgstab_solve(system.matrix, system.rhs, system.precond,
                                  tol=1e-10)
        results.append((name + "-fd", stats.converged,
                        np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu)))

    # nutrient solves (Robin and Dirichlet); h varies with phi
    spec = ModelSpec(params=ModelParams(K=2.5), sources=zero_sources(1.0))
    vspec = limit_visc_problem(8)[4]
    for mode in ("robin", "dirichlet"):
        system = assemble_nutrient_system(g, phi, spec, 1.0, mode=mode)
        replay(f"nutrient-{mode}", system)
        system = assemble_nutrient_system(g, phi, vspec, 1.0, mode=mode)
        replay(f"nutrient-{mode}-blend-h", system)

    # Darcy pressure solve
    gamma = eval_source_gamma_v(vspec.sources, phi, 0.5 + 0.0 * phi)
    force = brinkman_force(g, phi, np.sin(np.pi * xc), 0.5 + 0.0 * phi,
                           vspec, None)
    system = assemble_darcy_pressure_system(g, gamma, vspec.params.nu, force)
    replay("darcy", system)

    # Brinkman monolithic solve, constant viscosity and the
    # blend 0.01 to 1 (contrast 6.9 on phi in [-1, 1])
    system, _ = assemble_brinkman_system(g, phi, vspec, gamma, force)
    replay("brinkman", system)
    bvspec = dataclasses.replace(vspec,
                                 viscosity=blended_viscosity(0.01, 1.0, 0.0,
                                                             0.5))
    system, _ = assemble_brinkman_system(g, phi, bvspec, gamma, force)
    replay("brinkman-blend-eta", system)

    # Cahn-Hilliard pair solve, constant and blended mobility
    cspec = coupled_brinkman_spec()
    cfg = StepConfig(dt=1e-3, flow_mode="brinkman")
    for name, spec in (("cahn-hilliard", cspec),
                       ("cahn-hilliard-blend-m", dataclasses.replace(
                           cspec, mobility=blended_mobility(0.1, 1.0)))):
        st = initialize_state(g, dataclasses.replace(spec, phi0=phi), cfg)
        system, _ = assemble_ch_system(g, st, spec, cfg)
        replay(name, system)

    ok = all(conv and err <= 1e-8 for _, conv, err in results)
    detail = ", ".join(f"{name} {err:.1e}" for name, _, err in results)
    _report(9, ok, f"8x8 Krylov replays vs dense LU (rel. error <= 1e-8): "
                   f"{detail}")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_determinism(tmp_path):
    config = {
        "grid": SPINODAL_GRID,
        "model": {
            "params": {"epsilon": 0.15, "nu": 1.0, "K": 100.0, "chi": 0.0},
            "sources": {"variant": "zero", "h": 1.0},
            "sigma_inf": {"variant": "constant", "value": 0.0},
            "phi0": {"variant": "random", "seed": 42, "amplitude": 0.01,
                     "modes": 1},
        },
        "stepping": {"dt": 1e-4, "n_steps": 200, "flow_mode": "none"},
        "output": {"directory": str(tmp_path / "out")},
        "seed": 42,
    }
    cfgpath = tmp_path / "spinodal.json"
    cfgpath.write_text(json.dumps(config))
    payloads = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        code = cli_main(["run", "--config", str(cfgpath), "--out", str(out)])
        assert code == 0
        payloads.append((out / "diagnostics.csv").read_bytes())
    lines = payloads[0].decode().strip().split("\n")
    energies = [float(line.split(",")[2]) for line in lines[1:]]
    monotone = all(b <= a for a, b in zip(energies, energies[1:]))
    _report(10, payloads[0] == payloads[1] and monotone,
            f"re-run of the criterion-3 benchmark produced byte-identical "
            f"diagnostics CSV ({len(payloads[0])} bytes) with a "
            f"non-increasing energy column")
