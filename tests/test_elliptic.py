import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chbrinkman import (Grid2D, ModelParams, ModelSpec, boundary_trace,
                        solve_nutrient_dirichlet, solve_nutrient_robin,
                        zero_sources)
from chbrinkman.elliptic import assemble_nutrient_system
from chbrinkman.grid import boundary_face_centers


def spec_with(h_value, K=100.0):
    return ModelSpec(params=ModelParams(K=K), sources=zero_sources(h_value))


def test_constant_solution_robin_and_dirichlet():
    g = Grid2D(16, 16)
    phi = np.zeros((16, 16))
    for solver in (solve_nutrient_robin, solve_nutrient_dirichlet):
        sigma, stats = solver(g, phi, spec_with(0.0), 0.7)
        assert stats.converged
        assert np.allclose(sigma, 0.7, atol=1e-9)


def robin_1d_analytic(K):
    """-s'' + s = 0 on (0,1), s'(.n) = K(1-s) at both ends."""
    denom = np.sinh(0.5) + K * np.cosh(0.5)
    return lambda x: K * np.cosh(x - 0.5) / denom


def robin_1d_error(n, K):
    g = Grid2D(n, n)
    ana = robin_1d_analytic(K)
    nx, ny = g.nx, g.ny
    xc = (np.arange(nx) + 0.5) * g.dx
    # sides carry sigma_inf = 1; top/bottom carry the analytic trace so the
    # Robin flux vanishes there and the solution stays y-invariant
    sig_inf = np.concatenate([ana(xc), np.ones(ny), ana(xc), np.ones(ny)])
    sigma, _ = solve_nutrient_robin(g, np.zeros((n, n)), spec_with(1.0, K=K),
                                    sig_inf)
    x2d, _ = g.cell_centers()
    return float(np.max(np.abs(sigma - ana(x2d))))


def test_robin_matches_1d_closed_form_at_second_order():
    K = 3.0
    errs = [robin_1d_error(n, K) for n in (16, 32, 64)]
    assert errs[0] < 3e-4
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 >= 1.9 and order2 >= 1.9


def test_large_k_robin_approaches_dirichlet():
    g = Grid2D(32, 32)
    phi = np.zeros((32, 32))
    spec = spec_with(1.0, K=1e4)
    sigma_k, _ = solve_nutrient_robin(g, phi, spec, 1.0)
    sigma_d, _ = solve_nutrient_dirichlet(g, phi, spec, 1.0)
    assert np.max(np.abs(sigma_k - sigma_d)) <= 1e-3


def test_dirichlet_harmonic_polynomial_second_order():
    errs = []
    for n in (16, 32, 64):
        g = Grid2D(n, n)
        xb, yb = boundary_face_centers(g)
        sigma, _ = solve_nutrient_dirichlet(g, np.zeros((n, n)),
                                            spec_with(0.0), xb**2 - yb**2)
        xc, yc = g.cell_centers()
        errs.append(np.max(np.abs(sigma - (xc**2 - yc**2))))
    assert np.log2(errs[0] / errs[1]) >= 1.8
    assert np.log2(errs[1] / errs[2]) >= 1.8


def test_boundary_trace_zero_gap_for_constant():
    g = Grid2D(16, 16)
    sigma, _ = solve_nutrient_robin(g, np.zeros((16, 16)), spec_with(0.0), 2.0)
    gap, norm = boundary_trace(g, sigma, 2.0, 100.0)
    assert norm < 1e-9 and np.max(np.abs(gap)) < 1e-9


def test_boundary_gap_shrinks_with_k():
    g = Grid2D(32, 32)
    phi = np.zeros((32, 32))
    norms = []
    for K in (10.0, 1000.0):
        sigma, _ = solve_nutrient_robin(g, phi, spec_with(1.0, K=K), 1.0)
        _, n2 = boundary_trace(g, sigma, 1.0, K)
        norms.append(n2)
    assert norms[1] < norms[0]


def test_sqrtk_weighted_gap_bounded():
    # discrete analogue of the sqrt(K)-weighted trace bound: the weighted
    # gap must stay within its K=10 value across four decades
    g = Grid2D(32, 32)
    phi = np.zeros((32, 32))
    weighted = []
    for K in (10.0, 100.0, 1000.0, 10000.0):
        sigma, _ = solve_nutrient_robin(g, phi, spec_with(1.0, K=K), 1.0)
        _, n2 = boundary_trace(g, sigma, 1.0, K)
        weighted.append(np.sqrt(K) * n2)
    assert all(w <= 1.1 * weighted[0] for w in weighted)


def test_discrete_maximum_principle(rng):
    g = Grid2D(24, 24)
    phi = rng.standard_normal((24, 24))
    spec = ModelSpec(params=ModelParams(K=50.0),
                     sources=dataclasses.replace(
                         zero_sources(),
                         h=lambda s: np.abs(np.asarray(s, float))))
    sig_inf = rng.uniform(0.0, 2.0, g.n_boundary_faces())
    sigma, _ = solve_nutrient_robin(g, phi, spec, sig_inf)
    assert np.min(sigma) >= -1e-10
    assert np.max(sigma) <= np.max(sig_inf) + 1e-10


def test_robin_matrix_symmetric_positive_definite(rng):
    g = Grid2D(12, 12)
    system = assemble_nutrient_system(g, np.zeros((12, 12)), spec_with(0.0),
                                      1.0, mode="robin")
    a = system.matrix
    for _ in range(5):
        f = rng.standard_normal(g.n_cells)
        h = rng.standard_normal(g.n_cells)
        assert f @ (a @ h) == pytest.approx(h @ (a @ f), rel=1e-12)
        assert f @ (a @ f) > 0.0


@settings(max_examples=40, deadline=None)
@given(st.builds(Grid2D, st.integers(3, 12), st.integers(3, 12),
                 st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       st.floats(0.01, 1e4), st.integers(0, 2**32 - 1))
def test_nutrient_matrix_symmetric(g, K, seed):
    # random h(phi) >= 0 on the diagonal and the Robin closure keep it so
    assume(g.lx != g.ly)
    phi = np.random.default_rng(seed).uniform(-2, 2, (g.nx, g.ny))
    spec = dataclasses.replace(
        spec_with(0.0, K=K),
        sources=dataclasses.replace(zero_sources(), h=np.abs))
    a = assemble_nutrient_system(g, phi, spec, 1.0, mode="robin").matrix
    assert abs(a - a.T).max() <= 1e-14 * abs(a).max()


def test_rejects_nonfinite_inputs():
    g = Grid2D(8, 8)
    phi = np.zeros((8, 8))
    phi[3, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_nutrient_robin(g, phi, spec_with(1.0), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        solve_nutrient_robin(g, np.zeros((8, 8)), spec_with(1.0), np.inf)


def test_rejects_nonpositive_k():
    g = Grid2D(8, 8)
    spec = ModelSpec(params=ModelParams(K=-1.0), sources=zero_sources(1.0))
    with pytest.raises(ValueError, match=r"\(A1\)"):
        solve_nutrient_robin(g, np.zeros((8, 8)), spec, 1.0)


def test_rejects_negative_h():
    g = Grid2D(8, 8)
    spec = ModelSpec(sources=dataclasses.replace(
        zero_sources(), h=lambda s: -np.ones_like(np.asarray(s, float))))
    with pytest.raises(ValueError, match=r"\(A4\)"):
        solve_nutrient_robin(g, np.zeros((8, 8)), spec, 1.0)


def test_manufactured_solution_second_order():
    # sigma* = cos(pi x)cos(pi y) with h = 1 and consistent Robin data
    errs = []
    for n in (16, 32):
        g = Grid2D(n, n)
        xc, yc = g.cell_centers()
        star = np.cos(np.pi * xc) * np.cos(np.pi * yc)
        xb, yb = boundary_face_centers(g)
        sig_inf = np.cos(np.pi * xb) * np.cos(np.pi * yb)
        extra = (2 * np.pi**2 + 1.0) * star
        sigma, _ = solve_nutrient_robin(g, np.zeros((n, n)),
                                        spec_with(1.0, K=2.5), sig_inf,
                                        extra_rhs=extra)
        errs.append(np.sqrt(np.sum((sigma - star) ** 2) * g.cell_volume))
    assert np.log2(errs[0] / errs[1]) >= 1.9
