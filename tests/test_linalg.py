import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from chbrinkman import (FaceField, Grid2D, ModelParams, ModelSpec, State,
                        StepConfig, bicgstab_solve, blended_mobility, cg_solve,
                        constant_mobility, face_zeros,
                        smooth_blend, solve_darcy, solve_nutrient_robin,
                        zero_sources)
from chbrinkman.elliptic import assemble_nutrient_system
from chbrinkman.flow import assemble_darcy_pressure_system
from chbrinkman.harness import passthrough_sources
from chbrinkman.stepper import assemble_ch_system, ch_update
from conftest import dense_solve


def neumann_laplacian_plus_identity(n, h=1.0):
    """5-point Neumann Laplacian + h*I on an n x n unit grid (flat cells)."""
    main = np.full(n, 2.0)
    main[0] = main[-1] = 1.0
    l1d = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1]) * n**2
    lap = sp.kron(l1d, sp.identity(n)) + sp.kron(sp.identity(n), l1d)
    return (lap + h * sp.identity(n * n)).tocsr()


def identity(v):
    return v


def jacobi(a):
    """Test-side Jacobi preconditioner v -> D^-1 v."""
    d = a.diagonal()
    return lambda v: v / d


def test_cg_identity_zero_iterations(rng):
    # x0 = M^-1 b is exact, so no iteration runs
    b = rng.standard_normal(20)
    x, stats = cg_solve(sp.identity(20, format="csr"), b, identity)
    assert stats.iterations == 0 and stats.converged
    assert np.allclose(x, b, atol=1e-14)


def test_cg_diagonal_system():
    n = 50
    d = np.arange(1.0, n + 1)
    b = np.ones(n)
    x, stats = cg_solve(sp.diags(d).tocsr(), b, identity, tol=1e-12)
    assert stats.converged
    assert np.allclose(x, 1.0 / d, rtol=1e-10)


def test_cg_matches_dense_lu_on_neumann_helmholtz(rng):
    a = neumann_laplacian_plus_identity(8)
    b = rng.standard_normal(64)
    x, stats = cg_solve(a, b, jacobi(a), tol=1e-12)
    assert stats.converged
    assert np.linalg.norm(x - dense_solve(a, b)) < 1e-10


def test_cg_reported_residual_is_true_residual(rng):
    a = neumann_laplacian_plus_identity(8)
    b = rng.standard_normal(64)
    x, stats = cg_solve(a, b, jacobi(a), tol=1e-11)
    recomputed = np.linalg.norm(b - a @ x)
    assert stats.residual == pytest.approx(recomputed, rel=1e-13, abs=1e-300)


def test_cg_error_monotone_in_a_norm(rng):
    # CG minimizes the A-norm of the error over Krylov spaces, so truncated
    # runs (same deterministic sequence) must have non-increasing A-norm error
    a = neumann_laplacian_plus_identity(5)
    b = rng.standard_normal(25)
    x_star = dense_solve(a, b)
    errs = []
    for k in range(1, 15):
        x, _ = cg_solve(a, b, jacobi(a), tol=1e-30, max_iter=k)
        e = x_star - x
        errs.append(float(e @ (a @ e)))
    assert all(b2 <= a2 * (1 + 1e-10) for a2, b2 in zip(errs, errs[1:]))


def test_cg_determinism(rng):
    a = neumann_laplacian_plus_identity(8)
    b = rng.standard_normal(64)
    x1, s1 = cg_solve(a, b, jacobi(a), tol=1e-11)
    x2, s2 = cg_solve(a, b, jacobi(a), tol=1e-11)
    assert np.array_equal(x1, x2) and s1 == s2


def test_cg_zero_rhs():
    a = neumann_laplacian_plus_identity(4)
    x, stats = cg_solve(a, np.zeros(16), jacobi(a))
    assert np.all(x == 0.0) and stats.converged and stats.iterations == 0


def test_cg_rejects_bad_tol():
    with pytest.raises(ValueError):
        cg_solve(sp.identity(4, format="csr"), np.ones(4), identity, tol=0.0)


def test_bicgstab_identity_zero_iterations(rng):
    # x0 = M^-1 b is exact, so no iteration runs
    b = rng.standard_normal(15)
    x, stats = bicgstab_solve(sp.identity(15, format="csr"), b, identity)
    assert stats.converged and stats.iterations == 0
    assert np.allclose(x, b, atol=1e-14)


def test_bicgstab_random_diagonally_dominant(rng):
    n = 40
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    a_sp = sp.csr_matrix(a)
    b = rng.standard_normal(n)
    x, stats = bicgstab_solve(a_sp, b, jacobi(a_sp), tol=1e-12)
    assert stats.converged
    x_lu = np.linalg.solve(a, b)
    assert np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu) < 1e-8


def upwind_advection_diffusion(n, velocity=(1.0, 0.4), diffusion=None):
    """First-order upwind advection-diffusion on an n x n unit grid; the
    default diffusion puts the cell Peclet number near 10."""
    bx, by = velocity
    h = 1.0 / n
    if diffusion is None:
        diffusion = max(abs(bx), abs(by)) * h / 10.0
    rows, cols, vals = [], [], []

    def idx(i, j):
        return i * n + j

    for i in range(n):
        for j in range(n):
            diag = 0.0
            for di, dj, b in ((1, 0, bx), (0, 1, by)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n and 0 <= jj < n:
                    rows.append(idx(i, j)); cols.append(idx(ii, jj))
                    vals.append(-diffusion / h**2 + min(b, 0.0) / h)
                    diag += diffusion / h**2 + max(b, 0.0) / h
                ii, jj = i - di, j - dj
                if 0 <= ii < n and 0 <= jj < n:
                    rows.append(idx(i, j)); cols.append(idx(ii, jj))
                    vals.append(-diffusion / h**2 - max(b, 0.0) / h)
                    diag += diffusion / h**2 - min(b, 0.0) / h
            rows.append(idx(i, j)); cols.append(idx(i, j))
            vals.append(diag + 1.0)  # zeroth-order term keeps it nonsingular
    return sp.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))


def test_bicgstab_advection_diffusion_vs_dense_lu(rng):
    a = upwind_advection_diffusion(16)
    b = rng.standard_normal(16 * 16)
    x, stats = bicgstab_solve(a, b, jacobi(a), tol=1e-11)
    assert stats.converged
    x_lu = dense_solve(a, b)
    assert np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu) <= 1e-8


def test_bicgstab_reports_nonconvergence(rng):
    a = upwind_advection_diffusion(8)
    b = rng.standard_normal(64)
    x, stats = bicgstab_solve(a, b, jacobi(a), tol=1e-12, max_iter=1)
    assert not stats.converged
    assert stats.residual > 0


def test_bicgstab_determinism(rng):
    a = upwind_advection_diffusion(12)
    b = rng.standard_normal(144)
    x1, s1 = bicgstab_solve(a, b, jacobi(a), tol=1e-10)
    x2, s2 = bicgstab_solve(a, b, jacobi(a), tol=1e-10)
    assert np.array_equal(x1, x2) and s1 == s2


def test_bicgstab_on_indefinite_saddle(rng):
    # small symmetric saddle-point block, unpreconditioned
    k = neumann_laplacian_plus_identity(5)
    bmat = sp.random(25, 10, density=0.3, random_state=7)
    a = sp.bmat([[k, bmat], [bmat.T, None]], format="csr")
    b = rng.standard_normal(35)
    x, stats = bicgstab_solve(a, b, identity, tol=1e-10)
    assert stats.converged
    assert np.linalg.norm(x - dense_solve(a, b)) / np.linalg.norm(x) < 1e-7


def test_bicgstab_zero_rhs():
    a = upwind_advection_diffusion(8)
    x, stats = bicgstab_solve(a, np.zeros(64), jacobi(a))
    assert np.all(x == 0.0) and stats.converged


def test_bicgstab_ends_on_repeated_breakdown():
    # r_hat . A r = 0 for every r when A is skew-symmetric, so every
    # iteration breaks down and a restart cannot help; the solve still ends
    # within max_iter (default 10*n = 20) and reports the failure
    a = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    b = np.array([1.0, 0.0])
    x, stats = bicgstab_solve(a, b, identity)
    assert not stats.converged and 1 <= stats.iterations <= 20
    assert stats.residual == pytest.approx(np.linalg.norm(b - a @ x))


# fast-diagonalization preconditioner -------------------------------------

grids = st.builds(Grid2D, st.integers(3, 12), st.integers(3, 12),
                  st.floats(0.5, 2.0), st.floats(0.5, 2.0))


def assert_exact_preconditioner(system):
    """For constant coefficients the preconditioner is the operator's
    inverse: compare it with dense LU of the assembled matrix."""
    x_lu = dense_solve(system.matrix, system.rhs)
    x_fd = system.precond(system.rhs)
    assert np.linalg.norm(x_fd - x_lu) <= 1e-10 * np.linalg.norm(x_lu)


def disc(g, radius=0.25, width=0.1):
    xc, yc = g.cell_centers()
    r = np.sqrt((xc - 0.5 * g.lx) ** 2 + (yc - 0.5 * g.ly) ** 2)
    return np.tanh((radius - r) / width)


@settings(max_examples=40, deadline=None)
@given(grids, st.floats(1e-2, 1e4), st.floats(0.0, 10.0),
       st.sampled_from(["robin", "dirichlet"]), st.integers(0, 2**32 - 1))
def test_fast_solve_matches_dense_lu_nutrient(g, K, h, mode, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(params=ModelParams(K=K), sources=zero_sources(h))
    sigma_inf = rng.uniform(0.0, 2.0, g.n_boundary_faces())
    system = assemble_nutrient_system(
        g, disc(g), spec, sigma_inf, mode=mode,
        extra_rhs=rng.standard_normal((g.nx, g.ny)))
    assert_exact_preconditioner(system)


@settings(max_examples=40, deadline=None)
@given(grids, st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_fast_solve_matches_dense_lu_darcy(g, nu, seed):
    rng = np.random.default_rng(seed)
    force = FaceField(rng.standard_normal((g.nx + 1, g.ny)),
                      rng.standard_normal((g.nx, g.ny + 1)))
    system = assemble_darcy_pressure_system(
        g, rng.standard_normal((g.nx, g.ny)), nu, force)
    assert_exact_preconditioner(system)


@settings(max_examples=40, deadline=None)
@given(grids, st.floats(1e-5, 1e-2), st.floats(0.01, 0.5),
       st.floats(0.0, 4.0), st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_fast_solve_matches_dense_lu_cahn_hilliard(g, dt, eps, s_stab, m,
                                                    seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(params=ModelParams(epsilon=eps),
                     mobility=constant_mobility(m))
    cfg = StepConfig(dt=dt, stabilization=s_stab, flow_mode="none")
    shape = (g.nx, g.ny)
    state = State(0.0, rng.uniform(-1.0, 1.0, shape), np.zeros(shape),
                  rng.uniform(0.0, 1.0, shape), face_zeros(g), np.zeros(shape),
                  0.0)
    system, _ = assemble_ch_system(g, state, spec, cfg)
    assert_exact_preconditioner(system)


def ch_state(g, phi):
    shape = (g.nx, g.ny)
    return State(0.0, phi, np.zeros(shape), np.full(shape, 0.5),
                 face_zeros(g), np.zeros(shape), 0.0)


def test_constant_coefficient_solves_need_no_iteration():
    g = Grid2D(64, 64)
    phi = disc(g)
    xc, yc = g.cell_centers()
    mu = np.sin(np.pi * xc) * np.cos(np.pi * yc)
    _, n_stats = solve_nutrient_robin(g, phi, ModelSpec(
        params=ModelParams(K=100.0), sources=zero_sources(1.0)), 1.0)
    spec = ModelSpec(params=ModelParams(epsilon=0.05),
                     mobility=constant_mobility(1.0))
    _, _, ch_stats = ch_update(g, ch_state(g, phi), spec,
                               StepConfig(dt=2e-4, flow_mode="darcy"))
    darcy = solve_darcy(g, phi, mu, 0.5 + 0.0 * phi,
                        ModelSpec(params=ModelParams(nu=1.0),
                                  sources=passthrough_sources()))
    for stats in (n_stats, ch_stats, darcy.stats):
        assert stats.converged and stats.iterations <= 1


def test_variable_coefficient_solves_converge_in_few_iterations():
    g = Grid2D(64, 64)
    phi = disc(g)
    spec = ModelSpec(params=ModelParams(epsilon=0.05),
                     mobility=blended_mobility(0.1, 1.0))
    _, _, ch_stats = ch_update(g, ch_state(g, phi), spec,
                               StepConfig(dt=2e-4, flow_mode="darcy"))
    sources = dataclasses.replace(zero_sources(), h=smooth_blend(0.5, 1.0))
    _, n_stats = solve_nutrient_robin(g, phi, ModelSpec(sources=sources), 1.0)
    for stats in (ch_stats, n_stats):
        assert stats.converged and 1 <= stats.iterations <= 10
