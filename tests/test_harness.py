import numpy as np
import pytest

from chbrinkman import (Grid2D, ModelParams, ModelSpec, StepConfig,
                        blended_mobility, constant_viscosity,
                        continuous_dependence_study, mms_convergence, norm_h1,
                        robin_limit_study, viscosity_limit_study, zero_sources)
from chbrinkman.harness import SweepResult, passthrough_sources
from chbrinkman.model import SourceSpec, smooth_blend


def test_mms_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mms_convergence("nutrient", levels=2)
    with pytest.raises(ValueError):
        mms_convergence("stokes")


def test_mms_nutrient_small_sweep():
    result = mms_convergence("nutrient", levels=3, base_n=16)
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


def test_contdep_zero_delta_gives_zero_ratio():
    g = Grid2D(12, 12)
    phi0 = np.zeros((12, 12))
    cfg = StepConfig(dt=1e-3, flow_mode="none")
    result = continuous_dependence_study(g, coupled_spec(), phi0,
                                         [1e-2, 1e-3, 0.0], n_steps=2,
                                         cfg=cfg)
    assert result.norms["difference_ratio"][-1] == 0.0


def test_contdep_rejects_variable_mobility():
    g = Grid2D(12, 12)
    import dataclasses
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
