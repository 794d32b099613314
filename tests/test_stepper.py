import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from chbrinkman import (Grid2D, ModelParams, ModelSpec, RandomPerturbation,
                        SolverFailure, State, StepConfig, blended_mobility,
                        ch_update, constant_viscosity, energy, face_zeros,
                        eval_source_gamma_v, initialize_state,
                        integrate_cells, norm_l2_cells, step,
                        suggest_cfl_dt, zero_sources)
from chbrinkman.flow import brinkman_force
from chbrinkman.grid import face_volumes, minus_laplacian
from chbrinkman.model import SourceSpec, smooth_blend
from chbrinkman.stepper import (CflViolation, _mobility_flux_integrals,
                                assemble_ch_system, build_phi0, ch_form,
                                sample_sigma_inf)


def quiet_spec(**over):
    base = dict(params=ModelParams(epsilon=0.1, nu=1.0, K=100.0, chi=0.0),
                sources=zero_sources(1.0), sigma_inf=0.0, phi0=0.0)
    base.update(over)
    return ModelSpec(**base)


def coupled_spec():
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


def test_coupled_brinkman_steps_at_128():
    # the Brinkman saddle point at 128x128 from a random phase field, where
    # Jacobi BiCGStab(4) stopped at a residual of 7e-8 after 16375
    # iterations: every step's solve converges and meets the divergence
    # bound of acceptance criterion 8
    g = Grid2D(128, 128)
    spec = dataclasses.replace(
        coupled_spec(),
        phi0=RandomPerturbation(seed=3, amplitude=0.3, modes=6))
    cfg = StepConfig(dt=1e-4, flow_mode="brinkman")
    state = initialize_state(g, spec, cfg)
    for _ in range(3):
        state, diag = step(g, state, spec, cfg)
        gamma = eval_source_gamma_v(spec.sources, state.phi, state.sigma)
        assert diag.div_residual <= 10.0 * cfg.tol_flow * norm_l2_cells(g,
                                                                       gamma)


def ch_state(g, rng):
    """A state with random phi, mu and sigma and no flow."""
    cells = [rng.uniform(-1.0, 1.0, (g.nx, g.ny)) for _ in range(3)]
    return State(0.0, *cells, face_zeros(g), np.zeros((g.nx, g.ny)), 0.0,
                 0.0)


@settings(max_examples=30, deadline=None)
@given(st.builds(Grid2D, st.integers(3, 9), st.integers(3, 9),
                 st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       st.integers(0, 2**32 - 1))
def test_ch_matrix_is_the_face_difference_form(g, seed):
    # the CH matrix on [phi, mu/c] against dense blocks built face by face:
    # [[I, -dt*c*div(m grad)], [-(eps/c)*T - S/(eps*c)*I, I]] with T minus
    # the zero-flux Laplacian and m the face average of the mobility, in
    # the pattern [[I, P], [P, I]] of T's 5-point pattern P
    spec = quiet_spec(mobility=blended_mobility(1.0, 10.0))
    cfg = StepConfig(dt=1e-3, stabilization=2.0)
    state = ch_state(g, np.random.default_rng(seed))
    system, _ = assemble_ch_system(g, state, spec, cfg)
    eps, nc = spec.params.epsilon, g.n_cells
    c = np.sqrt(eps / cfg.dt)
    m = spec.mobility.m(state.phi)
    cell = np.arange(nc).reshape(g.nx, g.ny)
    div_m_grad, lap = np.zeros((nc, nc)), np.zeros((nc, nc))
    for i in range(g.nx):
        for j in range(g.ny):
            for di, dj, h in ((1, 0, g.dx), (0, 1, g.dy)):
                if i + di == g.nx or j + dj == g.ny:
                    continue
                a, b = cell[i, j], cell[i + di, j + dj]
                m_f = 0.5 * (m[i, j] + m[i + di, j + dj])
                for out, w in ((div_m_grad, m_f / h**2), (lap, 1.0 / h**2)):
                    out[a, a] -= w
                    out[b, b] -= w
                    out[a, b] += w
                    out[b, a] += w
    eye = np.eye(nc)
    ref = np.block([[eye, -cfg.dt * c * div_m_grad],
                    [(eps / c) * lap - cfg.stabilization / (eps * c) * eye,
                     eye]])
    assert np.all(np.abs(system.matrix.toarray() - ref)
                  <= 4e-15 * np.abs(ref))
    p = minus_laplacian(g).matrix
    pattern = sp.csr_matrix(sp.bmat([[sp.identity(nc), p],
                                     [p, sp.identity(nc)]]))
    pattern.sort_indices()
    assert np.array_equal(system.matrix.indptr, pattern.indptr)
    assert np.array_equal(system.matrix.indices, pattern.indices)


def test_ch_form_is_cached_and_keeps_the_5_point_pattern_at_64():
    form = ch_form(Grid2D(64, 64))
    assert form.pattern.nnz == 48_640
    assert ch_form(Grid2D(64, 64)) is form
    assert not form.scatter.data.flags.writeable


def test_mobility_dissipation_is_the_ch_matrix_form():
    # int m|grad mu|^2 and int m grad mu . grad sigma are the assembled
    # (phi, mu) block B on mu/c: vol*mu^T B mu/(dt*c) and vol*mu^T B sigma
    # /(dt*c), so the energy diagnostics evaluate the form the solver uses
    g = Grid2D(12, 9, 1.5, 1.0)
    spec = quiet_spec(mobility=blended_mobility(1.0, 10.0))
    cfg = StepConfig(dt=1e-3)
    state = ch_state(g, np.random.default_rng(7))
    system, _ = assemble_ch_system(g, state, spec, cfg)
    nc = g.n_cells
    block = system.matrix[:nc, nc:] * (g.cell_volume
                                       / (cfg.dt * np.sqrt(
                                           spec.params.epsilon / cfg.dt)))
    mu, sigma = state.mu.ravel(), state.sigma.ravel()
    diss, cross = _mobility_flux_integrals(g, state.phi, state.mu,
                                           state.sigma, spec)
    assert diss > 0.0
    assert diss == pytest.approx(mu @ (block @ mu), rel=1e-13)
    assert cross == pytest.approx(mu @ (block @ sigma), abs=1e-13 * diss)


def test_uniform_zero_state_is_a_fixed_point():
    g = Grid2D(12, 12)
    spec = quiet_spec()
    cfg = StepConfig(dt=1e-3, flow_mode="brinkman")
    state = initialize_state(g, spec, cfg)
    for _ in range(3):
        state, diag = step(g, state, spec, cfg)
    assert np.max(np.abs(state.phi)) < 1e-9
    assert np.max(np.abs(state.vel.x)) < 1e-9
    assert diag.energy == pytest.approx(energy(g, np.zeros((12, 12)), spec))


def test_ch_update_uniform_state_gives_uniform_potential():
    g = Grid2D(12, 12)
    c = 0.3
    spec = quiet_spec(phi0=c)
    cfg = StepConfig(dt=1e-3, flow_mode="none", tol_ch=1e-12)
    st = initialize_state(g, spec, cfg)
    phi1, mu1, _ = ch_update(g, st, spec, cfg)
    assert np.allclose(phi1, c, atol=1e-10)
    expected_mu = spec.potential.dpsi(c) / spec.params.epsilon
    assert np.allclose(mu1, expected_mu, atol=1e-9)


def test_constant_source_adds_exact_mass():
    g = Grid2D(16, 16)
    gval = 0.35
    src = dataclasses.replace(
        zero_sources(1.0),
        f_phi=lambda s: gval * np.ones_like(np.asarray(s, float)))
    spec = quiet_spec(sources=src, phi0=0.1)
    cfg = StepConfig(dt=1e-3, flow_mode="none", tol_ch=1e-12)
    st = initialize_state(g, spec, cfg)
    phi1, _, _ = ch_update(g, st, spec, cfg)
    gained = integrate_cells(g, phi1) - integrate_cells(g, st.phi)
    expected = cfg.dt * gval * g.lx * g.ly
    assert gained == pytest.approx(expected, rel=1e-10)


def test_stabilized_scheme_dissipates_energy():
    # v = 0, zero sources, chi = 0, S = 2: energy is non-increasing even for
    # rough noise (the stabilization bound holds unconditionally)
    g = Grid2D(16, 16)
    spec = quiet_spec(params=ModelParams(epsilon=0.1, chi=0.0),
                      phi0=RandomPerturbation(seed=7, amplitude=1e-2, modes=4))
    cfg = StepConfig(dt=2e-4, flow_mode="none")
    st = initialize_state(g, spec, cfg)
    e_prev = energy(g, st.phi, spec)
    for _ in range(100):
        st, diag = step(g, st, spec, cfg)
        assert diag.energy <= e_prev + 1e-12
        e_prev = diag.energy


def test_stripe_mass_drift_bounded_by_boundary_flux():
    g = Grid2D(24, 24)
    spec = quiet_spec(
        params=ModelParams(epsilon=0.1, chi=0.0),
        viscosity=constant_viscosity(0.1, 0.0),
        phi0=lambda x, y: np.tanh((0.3 - np.abs(y - 0.5)) / 0.08))
    cfg = StepConfig(dt=2e-4, flow_mode="brinkman", tol_ch=1e-12)
    st = initialize_state(g, spec, cfg)
    for _ in range(5):
        prev = st
        st, diag = step(g, st, spec, cfg)
        drift = integrate_cells(g, st.phi) - integrate_cells(g, prev.phi)
        from chbrinkman import boundary_flux_integral
        bflux = boundary_flux_integral(g, prev.phi, prev.vel)
        assert abs(drift) <= abs(cfg.dt * bflux) + 1e-10


def test_spinodal_run_loses_energy_with_flow():
    g = Grid2D(24, 24)
    spec = ModelSpec(params=ModelParams(epsilon=0.05, nu=1.0, chi=0.0),
                     viscosity=constant_viscosity(0.1, 0.0),
                     sources=zero_sources(1.0), sigma_inf=0.0,
                     phi0=RandomPerturbation(seed=42, amplitude=1e-2, modes=4))
    cfg = StepConfig(dt=2e-4, flow_mode="brinkman")
    st = initialize_state(g, spec, cfg)
    e0 = energy(g, st.phi, spec)
    for _ in range(200):
        st, diag = step(g, st, spec, cfg)
    assert diag.energy < e0


def test_mass_identity_every_step_coupled():
    g = Grid2D(24, 24)
    spec = coupled_spec()
    cfg = StepConfig(dt=1e-3, flow_mode="brinkman", tol_ch=1e-12)
    st = initialize_state(g, spec, cfg)
    for _ in range(20):
        st, diag = step(g, st, spec, cfg)
        assert diag.mass_residual <= 1e-9 * (abs(diag.mass) + 1.0)


def test_energy_residual_vanishes_at_fixed_point():
    g = Grid2D(12, 12)
    spec = quiet_spec()
    cfg = StepConfig(dt=1e-3, flow_mode="none")
    st = initialize_state(g, spec, cfg)
    new, diag = step(g, st, spec, cfg)
    assert diag.energy_residual < 1e-10


@pytest.mark.parametrize("flow_mode", ["brinkman", "darcy", "none"])
def test_state_dissipation_is_its_flow_models_own_form(flow_mode):
    # the velocity of each flow model dissipates the work of its force and
    # of the pressure on the volume source: Brinkman v^T A v, Darcy
    # nu*|v|^2 (not the Brinkman form, although the spec has eta > 0).  A
    # random phase field: at the disc's near-equilibrium the force is almost
    # a gradient, the work is 1/100 of |F||v|, and the Brinkman Krylov
    # tolerance alone then shows at 3e-9 of it
    spec = dataclasses.replace(
        coupled_spec(), phi0=RandomPerturbation(seed=0, amplitude=0.3))
    cfg = StepConfig(dt=1e-4, flow_mode=flow_mode)
    for g in (Grid2D(32, 32, 1.0, 1.25), Grid2D(24, 24, 1.25, 1.0)):
        state = initialize_state(g, spec, cfg)
        if flow_mode == "none":
            assert state.dissipation == 0.0
            continue
        force = brinkman_force(g, state.phi, state.mu, state.sigma, spec, None)
        wx, wy = face_volumes(g)
        gamma_v = eval_source_gamma_v(spec.sources, state.phi, state.sigma)
        work = (np.sum(wx * force.x * state.vel.x)
                + np.sum(wy * force.y * state.vel.y)
                + integrate_cells(g, state.p * gamma_v))
        assert state.dissipation > 0.0
        assert abs(state.dissipation - work) <= 1e-9 * state.dissipation


def test_energy_residual_first_order_without_sources():
    # fixed 32^2 grid, smooth low-mode data: the defect decays like dt
    g = Grid2D(32, 32, 2.0, 2.0)
    spec = quiet_spec(params=ModelParams(epsilon=0.15, chi=0.0),
                      phi0=RandomPerturbation(seed=3, amplitude=1e-2, modes=1))
    worst = {}
    for dt in (8e-4, 4e-4, 2e-4):
        cfg = StepConfig(dt=dt, flow_mode="none")
        st = initialize_state(g, spec, cfg)
        vals = []
        for _ in range(int(round(0.016 / dt))):
            st, diag = step(g, st, spec, cfg)
            vals.append(diag.energy_residual)
        worst[dt] = max(vals)
    dts = sorted(worst, reverse=True)
    order = np.polyfit(np.log(dts), np.log([worst[d] for d in dts]), 1)[0]
    assert order >= 0.9


@pytest.mark.parametrize("flow_mode", ["brinkman", "darcy"])
def test_energy_residual_first_order_with_sources(flow_mode):
    # mass sources on (chi = 0: a chemotaxis-coupled nutrient drives a real
    # boundary layer in mu whose relaxation these dt cannot resolve); the
    # spec's eta > 0, which the Darcy velocity does not dissipate
    g = Grid2D(24, 24, 2.0, 2.0)
    spec = ModelSpec(
        params=ModelParams(epsilon=0.15, nu=50.0, K=10.0, chi=0.0),
        viscosity=constant_viscosity(0.1, 0.0),
        sources=SourceSpec(
            b_v=smooth_blend(0.0, 0.1), f_v=smooth_blend(-0.02, 0.02),
            b_phi=smooth_blend(0.0, 0.1), f_phi=smooth_blend(0.0, 0.0),
            h=smooth_blend(0.5, 1.0)),
        sigma_inf=1.0,
        phi0=RandomPerturbation(seed=3, amplitude=1e-2, modes=1))
    worst = {}
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = StepConfig(dt=dt, flow_mode=flow_mode)
        st = initialize_state(g, spec, cfg)
        vals = []
        for _ in range(int(round(0.016 / dt))):
            st, diag = step(g, st, spec, cfg)
            vals.append(diag.energy_residual)
        worst[dt] = max(vals)
    dts = sorted(worst, reverse=True)
    order = np.polyfit(np.log(dts), np.log([worst[d] for d in dts]), 1)[0]
    assert order >= 0.9


def test_trajectory_determinism():
    g = Grid2D(16, 16)
    spec = coupled_spec()
    cfg = StepConfig(dt=5e-4, flow_mode="brinkman")

    def run():
        st = initialize_state(g, spec, cfg)
        for _ in range(5):
            st, _ = step(g, st, spec, cfg)
        return st

    a, b = run(), run()
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.vel.x, b.vel.x)
    assert np.array_equal(a.p, b.p)


def test_strict_cfl_violation_raises_with_bound():
    g = Grid2D(16, 16)
    spec = coupled_spec()
    cfg = StepConfig(dt=10.0, flow_mode="brinkman", strict_cfl=True)
    st = initialize_state(g, spec, cfg)
    assert suggest_cfl_dt(g, st.vel) < 10.0
    with pytest.raises(CflViolation, match="0.5\\*min"):
        step(g, st, spec, cfg)


def test_nonstrict_cfl_violation_is_recorded():
    g = Grid2D(16, 16)
    spec = coupled_spec()
    cfg = StepConfig(dt=10.0, flow_mode="brinkman", strict_cfl=False)
    st = initialize_state(g, spec, cfg)
    _, diag = step(g, st, spec, cfg)
    assert diag.cfl_violated


def test_solver_failure_carries_stage():
    g = Grid2D(8, 8)
    spec = coupled_spec()
    cfg = StepConfig(dt=1e-3, flow_mode="brinkman", tol_ch=1e-300)
    st = initialize_state(g, spec, cfg)
    with pytest.raises(SolverFailure) as err:
        step(g, st, spec, cfg)
    assert err.value.stage == "cahn-hilliard"


def test_nan_potential_rejected():
    g = Grid2D(8, 8)
    pot = dataclasses.replace(
        ModelSpec().potential,
        dpsi=lambda s: np.full_like(np.asarray(s, float), np.nan))
    spec = quiet_spec(potential=pot, phi0=0.1)
    cfg = StepConfig(dt=1e-3, flow_mode="none")
    with pytest.raises(ValueError, match="psi'"):
        st = State(0.0, np.full((8, 8), 0.1), np.zeros((8, 8)),
                   np.zeros((8, 8)), face_zeros(g), np.zeros((8, 8)), 0.0,
                   0.0)
        ch_update(g, st, spec, cfg)


def test_sigma_inf_time_sampling():
    g = Grid2D(8, 8)
    sampled = sample_sigma_inf(lambda t: 2.0 + t, g, 1.5)
    assert np.allclose(sampled, 3.5)
    assert sampled.shape == (g.n_boundary_faces(),)
    with pytest.raises(ValueError, match=f"length {g.n_boundary_faces()}"):
        sample_sigma_inf(lambda t: np.full(g.n_boundary_faces() - 1, t), g,
                         1.5)


def test_build_phi0_variants():
    g = Grid2D(8, 8)
    assert np.all(build_phi0(0.3, g) == 0.3)
    f = build_phi0(lambda x, y: x + y, g)
    xc, yc = g.cell_centers()
    assert np.allclose(f, xc + yc)
    noise = build_phi0(RandomPerturbation(seed=5, amplitude=0.02), g)
    assert np.max(np.abs(noise)) == pytest.approx(0.02)
    same = build_phi0(RandomPerturbation(seed=5, amplitude=0.02), g)
    assert np.array_equal(noise, same)
    arr = build_phi0(np.full((8, 8), 0.1), g)
    assert np.all(arr == 0.1)
    with pytest.raises(ValueError):
        build_phi0(np.zeros((4, 4)), g)


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepConfig(dt=-1.0)
    with pytest.raises(ValueError):
        StepConfig(dt=1e-3, flow_mode="stokes")
    with pytest.raises(ValueError):
        StepConfig(dt=1e-3, stabilization=-1.0)


NO_SCIPY_SOLVERS = """
import json, sys
from chbrinkman import (Grid2D, ModelSpec, RandomPerturbation, StepConfig,
                        initialize_state, step)
g = Grid2D(8, 8)
spec = ModelSpec(phi0=RandomPerturbation(seed=1, amplitude=0.1),
                 sigma_inf=1.0)
for mode in ("brinkman", "darcy"):
    cfg = StepConfig(dt=1e-4, flow_mode=mode)
    step(g, initialize_state(g, spec, cfg), spec, cfg)
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scipy.sparse.linalg",
                                         "scipy.linalg")))))
"""


def test_steps_never_import_scipy_solvers():
    # every solve is numpy or a Krylov loop of our own: importing
    # scipy.sparse.linalg or scipy.linalg would add about 10 MB of RSS
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SOLVERS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []
