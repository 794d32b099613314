import dataclasses

import numpy as np
import pytest

from chbrinkman import (Grid2D, ModelParams, ModelSpec, StepConfig,
                        blended_mobility, constant_viscosity,
                        continuous_dependence_study, initialize_state,
                        mms_convergence, norm_h1, norm_l2_cells,
                        robin_limit_study, solve_brinkman, solve_darcy,
                        solve_nutrient_dirichlet, solve_nutrient_robin, step,
                        viscosity_limit_study, zero_sources)
from chbrinkman import cli
from chbrinkman.harness import SweepResult, passthrough_sources
from chbrinkman.model import SourceSpec, smooth_blend


def test_mms_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mms_convergence("nutrient", levels=2)
    with pytest.raises(ValueError):
        mms_convergence("stokes")


def test_mms_nutrient_small_sweep():
    result = mms_convergence("nutrient", levels=3)
    assert result.slope >= 1.8
    errs = result.norms["sigma_l2_error"]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    header, rows = result.table()
    assert header[0] == "n" and len(rows) == 3


def test_robin_limit_trivial_case():
    # h = 0 with constant data: the solve is exact for every K, gap = 0
    g = Grid2D(16, 16)
    spec = ModelSpec(sources=zero_sources(0.0))
    result = robin_limit_study(g, np.zeros((16, 16)), spec,
                               [10.0, 100.0, 1000.0], sigma_inf=2.0)
    assert all(v < 1e-9 for v in result.norms["boundary_gap_l2"])


def test_robin_limit_requires_increasing_k():
    g = Grid2D(16, 16)
    spec = ModelSpec(sources=zero_sources(1.0))
    with pytest.raises(ValueError):
        robin_limit_study(g, np.zeros((16, 16)), spec, [100.0, 10.0, 1.0])


def test_robin_limit_deterministic():
    g = Grid2D(16, 16)
    spec = ModelSpec(sources=zero_sources(1.0))
    a = robin_limit_study(g, np.zeros((16, 16)), spec, [10.0, 100.0, 1000.0])
    b = robin_limit_study(g, np.zeros((16, 16)), spec, [10.0, 100.0, 1000.0])
    assert a == b


@pytest.mark.parametrize("n", [32, 64, 128])
def test_robin_at_infinite_k_is_the_dirichlet_solve(n):
    # the limit member of the Robin family: K = inf gives the Dirichlet
    # nutrient of the limit-k problem bit for bit, and with h = 1 both
    # solves are the exact preconditioner solve
    g, phi, spec = cli.limit_k_problem(n)
    at_inf = dataclasses.replace(
        spec, params=dataclasses.replace(spec.params, K=np.inf))
    robin, r_stats = solve_nutrient_robin(g, phi, at_inf, 1.0)
    dirichlet, d_stats = solve_nutrient_dirichlet(g, phi, spec, 1.0)
    assert np.array_equal(robin, dirichlet)
    assert r_stats.iterations == 0 and d_stats.iterations == 0


@pytest.mark.parametrize("n", [32, 64, 128])
def test_brinkman_without_viscosity_is_the_darcy_solve(n):
    # the limit member of the Brinkman family: eta = lambda = 0 gives the
    # Darcy flow of the limit-visc problem to round-off (measured 3.3e-15
    # at 32x32 to 3.5e-14 at 128x128 in v)
    g, phi, mu, sigma, spec = cli.limit_visc_problem(n)
    inviscid = dataclasses.replace(spec,
                                   viscosity=constant_viscosity(0.0, 0.0))
    brinkman = solve_brinkman(g, phi, mu, sigma, inviscid)
    darcy = solve_darcy(g, phi, mu, sigma, spec)
    assert brinkman.stats.converged and darcy.stats.converged
    v_gap = (brinkman.vel - darcy.vel).norm_l2(g)
    assert v_gap <= 1e-12 * darcy.vel.norm_l2(g)
    p_gap = norm_l2_cells(g, brinkman.p - darcy.p)
    assert p_gap <= 1e-12 * norm_l2_cells(g, darcy.p)


def test_robin_limit_interior_distance_collapses():
    # the distance to the Dirichlet reference drops by at least 100x
    # between K = 10 and K = 1e4
    g = Grid2D(32, 32)
    spec = ModelSpec(sources=zero_sources(1.0))
    result = robin_limit_study(g, np.zeros((32, 32)), spec,
                               [10.0, 100.0, 1000.0, 10000.0], sigma_inf=1.0)
    dist = result.norms["interior_distance_l2"]
    assert dist[-1] <= 1e-2 * dist[0]


def test_viscosity_limit_zero_forcing():
    g = Grid2D(16, 16)
    spec = ModelSpec(viscosity=constant_viscosity(0.1, 0.0),
                     sources=zero_sources(1.0))
    zero = np.zeros((16, 16))
    result = viscosity_limit_study(g, zero, zero, zero, spec,
                                   [1.0, 0.1, 0.01])
    assert all(v < 1e-12 for v in result.norms["velocity_gap_l2"])
    assert all(v < 1e-12 for v in result.norms["viscous_energy"])


def test_viscosity_limit_requires_decreasing_scales():
    g = Grid2D(16, 16)
    spec = ModelSpec(viscosity=constant_viscosity(0.1, 0.0),
                     sources=zero_sources(1.0))
    zero = np.zeros((16, 16))
    with pytest.raises(ValueError):
        viscosity_limit_study(g, zero, zero, zero, spec, [0.01, 0.1, 1.0])


def coupled_spec():
    return ModelSpec(
        params=ModelParams(epsilon=0.1, nu=1.0, K=10.0, chi=0.2),
        viscosity=constant_viscosity(0.05, 0.0),
        sources=SourceSpec(
            b_v=smooth_blend(0.0, 0.1), f_v=smooth_blend(-0.02, 0.02),
            b_phi=smooth_blend(0.0, 0.1), f_phi=smooth_blend(0.0, 0.0),
            h=smooth_blend(0.5, 1.0)),
        sigma_inf=1.0)


@pytest.mark.parametrize("last", [0.0, -1e-3], ids=["zero", "negative"])
def test_contdep_rejects_a_delta_that_is_not_positive(last):
    g = Grid2D(12, 12)
    cfg = StepConfig(dt=1e-3, flow_mode="none")
    with pytest.raises(ValueError, match="positive"):
        continuous_dependence_study(g, coupled_spec(), np.zeros((12, 12)),
                                    [1e-2, 1e-3, last], n_steps=2, cfg=cfg)


def test_contdep_rejects_variable_mobility():
    g = Grid2D(12, 12)
    spec = dataclasses.replace(coupled_spec(),
                               mobility=blended_mobility(0.5, 1.5))
    with pytest.raises(ValueError, match="B1"):
        continuous_dependence_study(g, spec, np.zeros((12, 12)), [1e-2],
                                    n_steps=1, cfg=StepConfig(dt=1e-3))


def test_contdep_sigma_inf_mode_runs():
    g = Grid2D(12, 12)
    phi0 = np.zeros((12, 12))
    cfg = StepConfig(dt=1e-3, flow_mode="none")
    result = continuous_dependence_study(g, coupled_spec(), phi0,
                                         [1e-2, 1e-3], n_steps=2, cfg=cfg,
                                         perturb="sigma_inf")
    assert all(r > 0 for r in result.norms["difference_ratio"])
    assert result.checks["ratio_spread_at_most_10"]


@pytest.mark.parametrize("perturb", ["phi0", "sigma_inf"])
def test_contdep_pairs_the_levels_of_hand_run_trajectories(perturb):
    # the study's ratio is the sup over levels 1..n of the paired gap,
    # the same (==) as from whole trajectories of initialize_state and step
    g = Grid2D(12, 12)
    xc, yc = g.cell_centers()
    phi0 = np.tanh((0.25 - np.sqrt((xc - 0.5)**2 + (yc - 0.5)**2)) / 0.1)
    w = np.cos(np.pi * xc) * np.cos(np.pi * yc)
    cfg = StepConfig(dt=1e-3, flow_mode="brinkman")
    deltas = [1e-2, 1e-3]
    result = continuous_dependence_study(g, coupled_spec(), phi0, deltas,
                                         n_steps=3, cfg=cfg, perturb=perturb)

    def levels(spec):
        state = initialize_state(g, spec, cfg)
        states = [state]
        for _ in range(3):
            state, _ = step(g, state, spec, cfg)
            states.append(state)
        return states

    base_spec = dataclasses.replace(coupled_spec(), phi0=phi0)
    base = levels(base_spec)
    ratios = []
    for d in deltas:
        if perturb == "phi0":
            other = levels(dataclasses.replace(base_spec, phi0=phi0 + d * w))
            sup = max(norm_h1(g, s1.phi - s2.phi)
                      for s1, s2 in zip(base[1:], other[1:]))
            ratios.append(sup / (d * norm_h1(g, w)))
        else:
            other = levels(dataclasses.replace(base_spec,
                                               sigma_inf=1.0 + d))
            sup = max(norm_l2_cells(g, s1.sigma - s2.sigma)
                      for s1, s2 in zip(base[1:], other[1:]))
            ratios.append(sup / (d * np.sqrt(2.0 * (g.lx + g.ly))))
    assert result.norms["difference_ratio"] == ratios


def test_norm_h1_definition(rng):
    from chbrinkman import mac_operators
    from chbrinkman.grid import unstacked

    g = Grid2D(10, 10)
    f = rng.standard_normal((10, 10))
    grad = unstacked(g, mac_operators(g).grad @ f.ravel())
    expected = np.sqrt(np.sum(f**2) * g.cell_volume
                       + (np.sum(grad.x**2) + np.sum(grad.y**2))
                       * g.cell_volume)
    assert norm_h1(g, f) == pytest.approx(expected)


def test_sweep_result_table_round_trip():
    r = SweepResult(parameter="K", values=[1.0, 2.0],
                    norms={"a": [0.5, 0.25], "b": [3.0, 1.5]},
                    primary="a", slope=-1.0, checks={})
    header, rows = r.table()
    assert header == ["K", "a", "b"]
    assert rows == [[1.0, 0.5, 3.0], [2.0, 0.25, 1.5]]


def test_passthrough_sources_give_identity_gamma():
    from chbrinkman import eval_source_gamma_v

    src = passthrough_sources()
    phi = np.array([-0.5, 0.2, 3.0])
    assert np.allclose(eval_source_gamma_v(src, phi, np.zeros(3)), phi)
