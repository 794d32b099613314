import collections
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
                        SolverFailure, StepConfig, blended_mobility,
                        blended_viscosity, ch_update, constant_mobility,
                        constant_viscosity, energy, eval_source_gamma_v,
                        initialize_state, integrate_cells, norm_l2_cells,
                        solve_brinkman, solve_nutrient_robin, step,
                        suggest_cfl_dt, zero_sources)
from chbrinkman import stepper
from chbrinkman.flow import assemble_brinkman_system, brinkman_force
from chbrinkman.grid import face_volumes, form_matrix, minus_laplacian
from chbrinkman.linalg import BASIS_COLUMNS, KeptOperators
from chbrinkman.model import MobilitySpec, SourceSpec, smooth_blend
from chbrinkman.stepper import (FLOW_HISTORY, CflViolation, _level,
                                assemble_ch_system, build_phi0, ch_form,
                                energy_residual, sample_sigma_inf)


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


def ch_state(g, rng, spec, kept=None):
    """A level of spec with random phi, mu and sigma and no flow, carrying
    ``kept`` (new kept operators when None)."""
    cells = [rng.uniform(-1.0, 1.0, (g.nx, g.ny)) for _ in range(3)]
    return _level(g, 0.0, *cells, spec, StepConfig(dt=1.0, flow_mode="none"),
                  KeptOperators() if kept is None else kept)[0]


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
    state = ch_state(g, np.random.default_rng(seed), spec)
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


def test_constant_mobility_ch_assembly_is_kept_and_read_only():
    # with a constant mobility the CH weights do not depend on phi: a new
    # phi returns the matrix kept in the state's entry, read-only and
    # equal to a fresh fill; a state with other kept operators, and a
    # blended mobility, get a new matrix
    g = Grid2D(12, 9, 1.5, 1.0)
    spec = quiet_spec()
    cfg = StepConfig(dt=1e-3)
    rng = np.random.default_rng(3)
    kept = KeptOperators()
    first, scale = assemble_ch_system(g, ch_state(g, rng, spec, kept), spec,
                                      cfg)
    again, scale_again = assemble_ch_system(g, ch_state(g, rng, spec, kept),
                                            spec, cfg)
    assert again.matrix is first.matrix
    fresh, _ = assemble_ch_system(g, ch_state(g, rng, spec), spec, cfg)
    assert fresh.matrix is not first.matrix
    assert np.array_equal(fresh.matrix.data, first.matrix.data)
    assert not first.matrix.data.flags.writeable
    assert not np.array_equal(again.rhs, first.rhs)
    form, c = ch_form(g), np.sqrt(spec.params.epsilon / cfg.dt)
    nf = form.scatter.shape[1] - g.n_cells
    eps, s_stab = spec.params.epsilon, cfg.stabilization
    w = np.concatenate([np.full(nf // 2, cfg.dt * c), np.full(nf // 2,
                                                              -eps / c),
                        np.full(g.n_cells, -s_stab / (eps * c))])
    fresh = form_matrix(form.pattern, form.scatter, w)
    assert np.array_equal(fresh.data, first.matrix.data)
    # the preconditioner, with its per-mode Cramer coefficients, and the
    # unknown scale come back with the matrix; a new dt or a new mean
    # mobility rebuilds them all
    assert again.precond is first.precond and scale_again is scale
    assert not scale.flags.writeable
    for new_spec, new_cfg in ((spec, StepConfig(dt=2e-3)),
                              (quiet_spec(mobility=constant_mobility(2.0)),
                               cfg)):
        other, _ = assemble_ch_system(g, ch_state(g, rng, new_spec, kept),
                                      new_spec, new_cfg)
        assert other.matrix is not first.matrix
        assert other.precond is not first.precond
        first = other
    blend = quiet_spec(mobility=blended_mobility(1.0, 10.0))
    one, _ = assemble_ch_system(g, ch_state(g, rng, blend, kept), blend, cfg)
    two, _ = assemble_ch_system(g, ch_state(g, rng, blend, kept), blend, cfg)
    assert one.matrix is not first.matrix and two.matrix is not one.matrix


@pytest.mark.parametrize("mobility", [constant_mobility(1.0),
                                      blended_mobility(1.0, 10.0)],
                         ids=["constant", "blended"])
def test_ch_assembly_after_a_step_returns_the_kept_operator(monkeypatch,
                                                             mobility):
    # a CH assembly of the step just taken, as a per-step check makes it,
    # reads the trajectory's kept entry through the State: it returns the
    # very matrix, preconditioner and scale the step solved with, and
    # builds nothing
    g = Grid2D(16, 16)
    spec = dataclasses.replace(coupled_spec(), mobility=mobility)
    cfg = StepConfig(dt=1e-4, flow_mode="brinkman")
    solved = []

    def recording(*args, **kwargs):
        solved.append(assemble_ch_system(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(stepper, "assemble_ch_system", recording)
    prev = initialize_state(g, spec, cfg)
    for _ in range(3):
        new, _ = step(g, prev, spec, cfg)
        token = prev.kept.ch.token
        system, scale = assemble_ch_system(
            g, dataclasses.replace(prev, sigma=new.sigma), spec, cfg)
        assert system.matrix is solved[-1][0].matrix
        assert system.precond is solved[-1][0].precond
        assert scale is solved[-1][1]
        assert np.array_equal(system.rhs, solved[-1][0].rhs)
        assert prev.kept.ch.token is token
        prev = new


@pytest.mark.parametrize("h, constant", [(smooth_blend(1.0, 1.0), True),
                                         (smooth_blend(0.02, 2.0), False)],
                         ids=["constant", "blended"])
def test_nutrient_solve_starts_from_the_last_sigma(h, constant):
    # the tumour demo's model at 48x48: a step starts its Robin solve from
    # sigma^n.  With a constant h the system repeats, so the start is
    # accepted after one product and sigma is bit for bit the cold
    # solve's; with the demo's blended h it is the cold solve's to the
    # tolerance (1.7e-10 apart, relative), in no more iterations (2 each)
    g = Grid2D(48, 48)
    spec = ModelSpec(
        params=ModelParams(epsilon=0.03, nu=1.0, K=50.0, chi=2.0),
        viscosity=constant_viscosity(0.05, 0.0),
        sources=SourceSpec(
            b_v=smooth_blend(0.0, 0.5), f_v=smooth_blend(0.0, -0.1),
            b_phi=smooth_blend(0.0, 0.5), f_phi=smooth_blend(0.0, -0.1),
            h=h),
        sigma_inf=1.0,
        phi0=lambda x, y: np.tanh((0.2 - np.sqrt((x - 0.5) ** 2
                                                 + (y - 0.5) ** 2)) / 0.045))
    cfg = StepConfig(dt=1e-4, flow_mode="brinkman")
    state = initialize_state(g, spec, cfg)
    for _ in range(8):
        new, diag = step(g, state, spec, cfg)
        sig_inf = sample_sigma_inf(spec.sigma_inf, g, state.t)
        started, started_stats = solve_nutrient_robin(
            g, state.phi, spec, sig_inf, tol=cfg.tol_nutrient, x0=state.sigma)
        cold, cold_stats = solve_nutrient_robin(
            g, state.phi, spec, sig_inf, tol=cfg.tol_nutrient)
        warm = diag.nutrient_stats
        assert np.array_equal(new.sigma, started) and warm == started_stats
        assert warm.converged
        assert warm.iterations <= cold_stats.iterations
        if constant:
            assert warm.iterations == 0
            assert np.array_equal(new.sigma, cold)
        else:
            assert (np.linalg.norm(new.sigma - cold)
                    <= 10 * cfg.tol_nutrient * np.linalg.norm(cold))
        state = new


def test_brinkman_start_from_the_last_flows_over_a_trajectory():
    # criterion-4 spec at 32^2, dt 1e-4: each level keeps the last four
    # flows (references to the levels' own arrays) and the projection basis
    # its solve extended, and the start from that basis cuts the Brinkman
    # iterations of steps 5-40 to 3.36 per step (4.94 from the last four
    # flows alone, 8.8 from the previous flow alone); the bound leaves a
    # margin of 0.24
    g = Grid2D(32, 32)
    spec = coupled_spec()
    cfg = StepConfig(dt=1e-4, flow_mode="brinkman")
    state = initialize_state(g, spec, cfg)
    assert len(state.flows) == 1 and state.flows[0][0] is state.vel
    assert state.basis is None
    levels, iterations = [state], []
    for _ in range(40):
        state, diag = step(g, state, spec, cfg)
        levels.append(state)
        iterations.append(diag.flow_stats.iterations)
    assert len(state.flows) == FLOW_HISTORY
    for (vel, p), level in zip(state.flows, levels[-FLOW_HISTORY:]):
        assert vel is level.vel and p is level.p
    # the basis the steps built: W is orthonormal, and A V = W holds to
    # round-off where the start reads it: on the last level's own system,
    # A x0 is W W^T b
    assert 1 <= state.basis.size <= BASIS_COLUMNS
    _, w = state.basis.vectors()
    assert np.abs(w.T @ w - np.eye(w.shape[1])).max() <= 1e-12
    system, _ = assemble_brinkman_system(
        g, state.phi, spec,
        eval_source_gamma_v(spec.sources, state.phi, state.sigma),
        brinkman_force(g, state.phi, state.mu, state.sigma, spec, None))
    a, b = system.matrix, system.rhs
    x0 = state.basis.start(b)
    assert np.linalg.norm(w @ (w.T @ b) - a @ x0) <= 1e-13 * np.linalg.norm(b)
    assert np.mean(iterations[4:]) <= 3.6
    darcy = StepConfig(dt=1e-4, flow_mode="darcy")
    darcy_state = step(g, initialize_state(g, spec, darcy), spec, darcy)[0]
    assert darcy_state.flows == () and darcy_state.basis is None


def assert_same_level(one, two):
    """The two States and their records hold equal values, bit for bit."""
    for name in ("t", "phi", "mu", "sigma", "p"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name
    assert np.array_equal(one.vel.x, two.vel.x)
    assert np.array_equal(one.vel.y, two.vel.y)
    for name, value in vars(one.record).items():
        assert np.array_equal(value, getattr(two.record, name)), name
    for (v1, p1), (v2, p2) in zip(one.flows, two.flows, strict=True):
        assert np.array_equal(v1.x, v2.x) and np.array_equal(p1, p2)
    if one.basis is None:
        assert two.basis is None
        return
    assert one.basis.size == two.basis.size
    assert ((one.basis.token is one.kept.brinkman.token)
            == (two.basis.token is two.kept.brinkman.token))
    for c1, c2 in zip(one.basis.vectors(), two.basis.vectors()):
        assert np.array_equal(c1, c2)


def test_an_earlier_level_steps_again_to_the_same_level():
    # the basis buffers are shared by later levels, and the solve from a
    # full basis passes none on, so that the next one starts a new basis
    # from the last flows: a level stepped again, once later levels have
    # written past its columns and around such a restart, gives the level
    # it gave the first time, with the same Brinkman iterations
    g = Grid2D(16, 16)
    spec = coupled_spec()
    cfg = StepConfig(dt=1e-4, flow_mode="brinkman")
    levels, iterations = [initialize_state(g, spec, cfg)], []
    for _ in range(2 * BASIS_COLUMNS):
        state, diag = step(g, levels[-1], spec, cfg)
        levels.append(state)
        iterations.append(diag.flow_stats.iterations)
    sizes = [0 if level.basis is None else level.basis.size
             for level in levels]
    full = sizes.index(BASIS_COLUMNS)
    assert sizes[full + 1] == 0 and 0 < sizes[full + 2] < BASIS_COLUMNS
    for k in (0, 3, full, full + 1, full + 3):
        again, diag = step(g, levels[k], spec, cfg)
        assert diag.flow_stats.iterations == iterations[k]
        assert_same_level(again, levels[k + 1])


def test_blended_viscosity_starts_a_new_basis_every_step():
    # a blended viscosity changes the Brinkman operator with phi, so every
    # step makes a new basis from the last flows, and each step's flow is
    # the cold solve's to within the tolerance
    g = Grid2D(16, 16)
    spec = dataclasses.replace(coupled_spec(),
                               viscosity=blended_viscosity(0.05, 0.5))
    cfg = StepConfig(dt=1e-4, flow_mode="brinkman")
    state = initialize_state(g, spec, cfg)
    tokens = set()
    for _ in range(6):
        state, diag = step(g, state, spec, cfg)
        assert diag.flow_stats.converged
        tokens.add(state.basis.token)
        cold = solve_brinkman(g, state.phi, state.mu, state.sigma, spec,
                              tol=cfg.tol_flow)
        for new, ref in ((state.vel.x, cold.vel.x), (state.vel.y, cold.vel.y),
                         (state.p, cold.p)):
            assert np.linalg.norm(new - ref) <= 1e-8 * np.linalg.norm(ref)
    assert len(tokens) == 6


def test_mobility_dissipation_is_the_ch_matrix_form():
    # int m|grad mu|^2 and int m grad mu . grad sigma are the assembled
    # (phi, mu) block B on mu/c: vol*mu^T B mu/(dt*c) and vol*mu^T B sigma
    # /(dt*c), so the energy diagnostics evaluate the form the solver uses.
    # The first is the record's dissipation of a level without flow; the
    # second is what chi multiplies in the energy residual, read here from
    # a step of zero length without sources, where the residual is
    # |diss + chi*cross|
    g = Grid2D(12, 9, 1.5, 1.0)
    spec = quiet_spec(mobility=blended_mobility(1.0, 10.0))
    cfg = StepConfig(dt=1e-3, flow_mode="none")
    level = ch_state(g, np.random.default_rng(7), spec)
    system, _ = assemble_ch_system(g, level, spec, cfg)
    nc = g.n_cells
    block = system.matrix[:nc, nc:] * (g.cell_volume
                                       / (cfg.dt * np.sqrt(
                                           spec.params.epsilon / cfg.dt)))
    mu, sigma = level.mu.ravel(), level.sigma.ravel()
    diss = level.record.dissipation
    assert diss > 0.0
    assert diss == pytest.approx(mu @ (block @ mu), rel=1e-13)
    expected = mu @ (block @ sigma)
    chi = 0.5 * diss / abs(expected)
    coupled = dataclasses.replace(
        spec, params=dataclasses.replace(spec.params, chi=chi))
    residual = energy_residual(g, level, level, np.zeros((g.nx, g.ny)),
                               coupled, cfg.dt)
    assert (residual - diss) / chi == pytest.approx(expected,
                                                    abs=1e-13 * diss)


def test_a_step_computes_each_level_quantity_once(monkeypatch):
    # a step measures only its new level: the old level's energy, mass,
    # boundary flux, face mobilities and their mean, viscous dissipation
    # and pressure work come from its record.  Per step: the energy and the
    # boundary flux once (new level); the face mobilities once (new record:
    # the CH matrix reads the old record's), and with them the mobility
    # m itself once (the CH preconditioner reads the record's mean);
    # Gamma_v twice (energy residual, new record); Gamma_phi twice (once
    # for the CH right-hand side and the two residuals together, once for
    # the new record); the face gradient three times, each of another
    # field (phi in the energy, mu in the new record, sigma in the energy
    # residual)
    g = Grid2D(16, 16)
    calls = collections.Counter()
    spec = coupled_spec()

    def mobility(s, _m=spec.mobility.m):
        calls["m"] += 1
        return _m(s)

    spec = dataclasses.replace(spec, mobility=dataclasses.replace(
        spec.mobility, m=mobility))
    cfg = StepConfig(dt=1e-4, flow_mode="brinkman")
    state, _ = step(g, initialize_state(g, spec, cfg), spec, cfg)
    calls.clear()
    differentiated = []
    for name in ("energy", "boundary_flux_integral", "_mobility_weights",
                 "eval_source_gamma_v", "eval_source_gamma_phi",
                 "gradient"):
        def counted(*args, _name=name, _fn=getattr(stepper, name)):
            calls[_name] += 1
            if _name == "gradient":
                differentiated.append(args[1])
            return _fn(*args)
        monkeypatch.setattr(stepper, name, counted)
    steps = 3
    for _ in range(steps):
        state, _ = step(g, state, spec, cfg)
    assert calls["gradient"] == 3 * steps
    assert len({id(f) for f in differentiated}) == len(differentiated)
    assert calls["energy"] == steps
    assert calls["boundary_flux_integral"] == steps
    assert calls["_mobility_weights"] == steps
    assert calls["m"] == steps
    assert calls["eval_source_gamma_v"] <= 2 * steps
    assert calls["eval_source_gamma_phi"] == 2 * steps


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
            assert state.record.viscous == 0.0
            continue
        force = brinkman_force(g, state.phi, state.mu, state.sigma, spec, None)
        wx, wy = face_volumes(g)
        gamma_v = eval_source_gamma_v(spec.sources, state.phi, state.sigma)
        work = (np.sum(wx * force.x * state.vel.x)
                + np.sum(wy * force.y * state.vel.y)
                + integrate_cells(g, state.p * gamma_v))
        assert state.record.viscous > 0.0
        assert abs(state.record.viscous - work) <= 1e-9 * state.record.viscous


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


@pytest.mark.parametrize("flow_mode", ["brinkman", "darcy", "none"])
def test_trajectory_yields_the_levels_of_a_hand_loop(flow_mode):
    # the loop every driver runs gives, level by level, what
    # initialize_state and step give when called by hand
    g = Grid2D(12, 12)
    spec = coupled_spec()
    cfg = StepConfig(dt=1e-3, flow_mode=flow_mode)
    state = initialize_state(g, spec, cfg)
    by_hand = [(state, None)]
    for _ in range(3):
        state, diag = step(g, state, spec, cfg)
        by_hand.append((state, diag))
    levels = list(stepper.trajectory(g, spec, cfg, 3))
    assert [k for k, _, _ in levels] == [0, 1, 2, 3]
    for (k, state, diag), (hand_state, hand_diag) in zip(levels, by_hand):
        assert_same_level(state, hand_state)
        if k == 0:
            assert diag is None
            continue
        for name, value in vars(diag).items():
            assert np.array_equal(value, getattr(hand_diag, name)), name


def test_trajectories_stepped_in_lockstep_give_the_lone_runs_levels():
    # two Brinkman trajectories of different viscosities, stepped as one
    # zip: each keeps its operators on its own states, so neither rebuilds
    # the other's, and each gives the levels of a run on its own, bit for
    # bit (with one kept operator per process, phi moved by 1.3e-13)
    g = Grid2D(16, 16)
    cfg = StepConfig(dt=1e-4, flow_mode="brinkman")
    specs = [dataclasses.replace(coupled_spec(),
                                 viscosity=constant_viscosity(eta, lam))
             for eta, lam in ((0.1, 0.05), (0.01, 0.005))]
    lone = [list(stepper.trajectory(g, spec, cfg, 20)) for spec in specs]
    runs = [stepper.trajectory(g, spec, cfg, 20) for spec in specs]
    for k, levels in enumerate(zip(*runs, strict=True)):
        for (j, state, _), alone in zip(levels, lone):
            assert j == k
            assert_same_level(state, alone[k][1])


def test_spinodal_demo_model_steps_at_a_small_dt():
    # the spinodal demo's model at dt 1.25e-5 over 3200 steps: a warm
    # Brinkman solve whose start was judged on the basis's residual
    # b - W W^T b, not on b - A x0, stagnated at level 3181 (true residual
    # 1.8e-10 after 1 iteration); each solve now starts from its true
    # residual, and every step converges
    g = Grid2D(48, 48)
    spec = ModelSpec(
        params=ModelParams(epsilon=0.05, nu=1.0, K=100.0, chi=0.0),
        viscosity=constant_viscosity(0.1, 0.0), sources=zero_sources(1.0),
        sigma_inf=0.0,
        phi0=RandomPerturbation(seed=42, amplitude=1e-2, modes=6))
    cfg = StepConfig(dt=1.25e-5, flow_mode="brinkman")
    iterations = [diag.flow_stats.iterations
                  for k, _, diag in stepper.trajectory(g, spec, cfg, 3200)
                  if k]
    assert len(iterations) == 3200
    assert np.mean(iterations) <= 3.0


def test_trajectory_of_no_steps_is_the_initial_level():
    g = Grid2D(12, 12)
    spec = coupled_spec()
    cfg = StepConfig(dt=1e-3, flow_mode="none")
    [(k, state, diag)] = stepper.trajectory(g, spec, cfg, 0)
    assert k == 0 and diag is None
    assert_same_level(state, initialize_state(g, spec, cfg))


def test_trajectory_yields_the_levels_before_a_failed_step():
    g = Grid2D(12, 12)
    cfg = StepConfig(dt=1e-3, flow_mode="brinkman", tol_ch=1e-300)
    levels = stepper.trajectory(g, coupled_spec(), cfg, 3)
    k, _, diag = next(levels)
    assert k == 0 and diag is None
    with pytest.raises(SolverFailure) as err:
        next(levels)
    assert err.value.stage == "cahn-hilliard"


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
    st, _ = _level(g, 0.0, np.full((8, 8), 0.1), np.zeros((8, 8)),
                   np.zeros((8, 8)), spec, cfg, KeptOperators())
    with pytest.raises(ValueError, match="psi'"):
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


def test_trajectory_checks_the_evaluator_contract_before_any_solve(
        monkeypatch):
    # a scalar mobility breaks the array contract: the first level raises
    # a ValueError naming it before the nutrient solve, instead of numpy's
    # unnamed matmul error where the mobility is first applied
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the contract check")

    monkeypatch.setattr(stepper, "solve_nutrient_robin", no_solve)
    spec = ModelSpec(mobility=MobilitySpec(m=lambda s: 1.0, m0=1.0, m1=1.0))
    with pytest.raises(ValueError, match="evaluator m "):
        next(stepper.trajectory(Grid2D(8, 8), spec, StepConfig(dt=1e-4), 1))
