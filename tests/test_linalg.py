import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from chbrinkman import (FaceField, Grid2D, ModelParams, ModelSpec,
                        StepConfig, bicgstab_solve, blended_mobility,
                        constant_mobility, smooth_blend, solve_darcy,
                        solve_nutrient_robin, zero_sources)
from chbrinkman import linalg
from chbrinkman.elliptic import assemble_nutrient_system
from chbrinkman.flow import assemble_darcy_pressure_system
from chbrinkman.harness import passthrough_sources
from chbrinkman.linalg import (BASIS_COLUMNS, KeptOperator, KeptOperators,
                               ProjectionBasis)
from chbrinkman.stepper import _level, assemble_ch_system, ch_update
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


# The symmetric positive definite systems of the nutrient and Darcy
# solves (once solved by CG) run through bicgstab_solve.

def test_cg_identity_zero_iterations(rng):
    # x0 = M^-1 b is exact, so no iteration runs
    b = rng.standard_normal(20)
    x, stats = bicgstab_solve(sp.identity(20, format="csr"), b, identity)
    assert stats.iterations == 0 and stats.converged
    assert np.allclose(x, b, atol=1e-14)


def test_cg_diagonal_system():
    n = 50
    d = np.arange(1.0, n + 1)
    b = np.ones(n)
    x, stats = bicgstab_solve(sp.diags(d).tocsr(), b, identity, tol=1e-12)
    assert stats.converged
    assert np.allclose(x, 1.0 / d, rtol=1e-10)


def test_cg_matches_dense_lu_on_neumann_helmholtz(rng):
    a = neumann_laplacian_plus_identity(8)
    b = rng.standard_normal(64)
    x, stats = bicgstab_solve(a, b, jacobi(a), tol=1e-12)
    assert stats.converged
    assert np.linalg.norm(x - dense_solve(a, b)) < 1e-10


def test_cg_reported_residual_is_true_residual(rng):
    a = neumann_laplacian_plus_identity(8)
    b = rng.standard_normal(64)
    x, stats = bicgstab_solve(a, b, jacobi(a), tol=1e-11)
    recomputed = np.linalg.norm(b - a @ x)
    assert stats.residual == pytest.approx(recomputed, rel=1e-13, abs=1e-300)


def test_cg_determinism(rng):
    a = neumann_laplacian_plus_identity(8)
    b = rng.standard_normal(64)
    x1, s1 = bicgstab_solve(a, b, jacobi(a), tol=1e-11)
    x2, s2 = bicgstab_solve(a, b, jacobi(a), tol=1e-11)
    assert np.array_equal(x1, x2) and s1 == s2


def test_cg_zero_rhs():
    a = neumann_laplacian_plus_identity(4)
    x, stats = bicgstab_solve(a, np.zeros(16), jacobi(a))
    assert np.all(x == 0.0) and stats.converged and stats.iterations == 0


def test_cg_rejects_bad_tol():
    # a tolerance that is not positive is rejected, b = 0 or not
    for b in (np.zeros(4), np.ones(4)):
        with pytest.raises(ValueError):
            bicgstab_solve(sp.identity(4, format="csr"), b, identity, tol=0.0)


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


def test_bicgstab_warm_start():
    # a start at the solution needs no iteration, a perturbed one converges
    # on the true residual, and b = 0 still gives zeros
    a = upwind_advection_diffusion(8)
    b = a @ np.linspace(-1.0, 1.0, 64)
    exact = dense_solve(a, b)
    x, stats = bicgstab_solve(a, b, jacobi(a), tol=1e-8, x0=exact)
    assert stats.converged and stats.iterations == 0
    assert np.array_equal(x, exact)
    x, stats = bicgstab_solve(a, b, jacobi(a), tol=1e-10,
                              x0=exact + 1e-3 * np.cos(np.arange(64)))
    assert stats.converged and stats.iterations > 0
    assert stats.residual == np.linalg.norm(b - a @ x)
    assert stats.residual <= 1e-10 * np.linalg.norm(b)
    x, stats = bicgstab_solve(a, np.zeros(64), jacobi(a), x0=exact)
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


def test_bicgstab_starts_from_the_true_residual_and_returns_the_final_one():
    # a start is accepted with 0 iterations only when its true residual
    # b - A x0 meets the tolerance: one far off iterates, one at the
    # solution does not.  r_out receives b - A x
    a = upwind_advection_diffusion(8)
    b = a @ np.linspace(-1.0, 1.0, 64)
    x0 = dense_solve(a, b) + 1e-3 * np.cos(np.arange(64))
    r_out = np.empty(64)
    x, stats = bicgstab_solve(a, b, jacobi(a), x0=x0, r_out=r_out)
    assert stats.converged and stats.iterations > 0
    assert np.array_equal(r_out, b - a @ x)
    assert stats.residual == np.linalg.norm(r_out)
    again, again_stats = bicgstab_solve(a, b, jacobi(a), x0=x, r_out=r_out)
    assert again_stats.iterations == 0 and np.array_equal(again, x)
    assert np.array_equal(r_out, b - a @ x)
    x, stats = bicgstab_solve(a, np.zeros(64), jacobi(a), r_out=r_out)
    assert stats.converged and not np.any(r_out)


def test_bicgstab_leaves_its_inputs_alone(rng):
    # x, r and p are updated in place, so the solve copies its start: an
    # identity preconditioner returns its argument (b, then p and r), and
    # a given x0 is the caller's array
    a = upwind_advection_diffusion(8)
    b = rng.standard_normal(64)
    exact = dense_solve(a, b)
    x0 = exact + 1e-3 * np.cos(np.arange(64))
    inputs = (b, x0)
    kept = [v.copy() for v in inputs]
    for start in ({}, {"x0": x0}):
        for precond in (identity, jacobi(a)):
            x, stats = bicgstab_solve(a, b, precond, tol=1e-12, **start)
            assert stats.converged and stats.iterations > 0
            assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)
            assert all(np.array_equal(v, k) for v, k in zip(inputs, kept))
            assert not any(np.shares_memory(x, v) for v in inputs)


def nearby_columns(rng, a, count):
    """(b, the solution x of a x = b, count vectors within 1e-3 of x)."""
    b = rng.standard_normal(a.shape[0])
    x = dense_solve(a, b)
    return b, x, [x + 1e-3 * rng.standard_normal(x.size)
                  for _ in range(count)]


def test_projection_basis_is_orthonormal_and_spans_the_products(rng):
    # W is orthonormal and A V = W to round-off, for nearby (nearly
    # parallel) columns up to a full basis; a full basis takes no column
    a = upwind_advection_diffusion(8)
    _, _, near = nearby_columns(rng, a, BASIS_COLUMNS + 1)
    basis = ProjectionBasis(64, None).with_products(a, near)
    assert basis.full and basis.size == BASIS_COLUMNS
    v, w = basis.vectors()
    assert np.abs(w.T @ w - np.eye(BASIS_COLUMNS)).max() <= 1e-12
    assert np.linalg.norm(a @ v - w) <= 1e-12 * np.linalg.norm(a @ v)
    assert basis.with_column(near[0], a @ near[0]) is basis


def test_projection_basis_drops_dependent_and_zero_columns(rng):
    # x0 minimises ||b - A X c|| over the kept columns: a copy of the newest
    # column and a zero column are dropped, the start is no worse than the
    # newest column, and an all-zero basis keeps none (the caller's cold
    # start)
    a = upwind_advection_diffusion(8)
    b, x, near = nearby_columns(rng, a, 3)
    basis = ProjectionBasis(64, None).with_products(
        a, [near[-1], near[-1].copy(), *near[-2::-1], np.zeros(64)])
    assert basis.size == 3
    x0 = basis.start(b)
    best, *_ = np.linalg.lstsq((a @ np.column_stack(near)), b, rcond=None)
    assert (np.linalg.norm(x0 - np.column_stack(near) @ best)
            <= 1e-12 * np.linalg.norm(x0))
    assert np.linalg.norm(b - a @ x0) <= np.linalg.norm(b - a @ near[-1])
    zeros = ProjectionBasis(64, None).with_products(a, [np.zeros(64)] * 3)
    assert zeros.size == 0
    x0 = ProjectionBasis(64, None).with_products(a, [x]).start(b)
    assert np.allclose(x0, x, rtol=1e-12, atol=0.0)


def test_projection_basis_reads_the_columns_it_was_made_with(rng):
    # two extensions of one basis: the first writes its column into the
    # shared buffers, the second copies the prefix into buffers of its own,
    # so both read their own columns, and a third from the first shares
    # its buffers again
    a = upwind_advection_diffusion(8)
    _, _, near = nearby_columns(rng, a, 4)
    base = ProjectionBasis(64, None).with_products(a, near[:2])
    first = base.with_column(near[2], a @ near[2])
    kept = [c.copy() for c in first.vectors()]
    second = base.with_column(near[3], a @ near[3])
    assert first.size == second.size == 3
    assert all(np.array_equal(c, k) for c, k in zip(first.vectors(), kept))
    for c, other in zip(second.vectors(), first.vectors()):
        assert np.array_equal(c[:, :2], other[:, :2])
        assert not np.array_equal(c[:, 2], other[:, 2])
    third = first.with_column(near[3], a @ near[3])
    assert np.shares_memory(third.vectors()[0], first.vectors()[0])


def test_the_package_loads_no_scipy_linalg():
    # importing chbrinkman and taking one Brinkman step loads neither
    # scipy.linalg nor scipy.sparse.linalg: each alone adds 7-10 MB of
    # resident memory
    code = (
        "import sys\n"
        "from chbrinkman import (Grid2D, ModelSpec, RandomPerturbation,\n"
        "                        StepConfig, initialize_state, step)\n"
        "g = Grid2D(8, 8)\n"
        "spec = ModelSpec(phi0=RandomPerturbation(seed=1, amplitude=0.1),\n"
        "                 sigma_inf=1.0)\n"
        "cfg = StepConfig(dt=1e-4, flow_mode='brinkman')\n"
        "step(g, initialize_state(g, spec, cfg), spec, cfg)\n"
        "print(sorted(m for m in sys.modules if m.startswith(\n"
        "    ('scipy.linalg', 'scipy.sparse.linalg'))))")
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_kept_operator_rebuilds_only_on_new_weights():
    # one entry: equal key and weights return the kept value, anything else
    # drops it and builds again; the token names the build, so it holds
    # on a hit and is new after each build, in any KeptOperator
    kept, builds = KeptOperator(), []

    def build():
        builds.append(object())
        return builds[-1]

    w = np.arange(3.0)
    first = kept.get("g", w, build)
    token = kept.token
    assert kept.get("g", np.arange(3.0), build) is first
    assert kept.token == token
    assert not w.flags.writeable
    assert kept.get("h", np.arange(3.0), build) is not first
    assert kept.token != token
    other = KeptOperator()
    other.get("g", np.arange(3.0), build)
    assert other.token not in (token, kept.token)
    assert kept.get("h", np.arange(4.0), build) is builds[-1]
    assert len(builds) == 4


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
    state = ch_state(g, rng.uniform(-1.0, 1.0, shape), spec,
                     rng.uniform(0.0, 1.0, shape))
    system, _ = assemble_ch_system(g, state, spec, cfg)
    assert_exact_preconditioner(system)


def ch_state(g, phi, spec, sigma=None):
    """The level of spec at phi, with mu = 0, sigma (0.5 when None) and no
    flow."""
    shape = (g.nx, g.ny)
    sigma = np.full(shape, 0.5) if sigma is None else sigma
    return _level(g, 0.0, phi, np.zeros(shape), sigma, spec,
                  StepConfig(dt=1.0, flow_mode="none"), KeptOperators())[0]


def test_constant_coefficient_solves_need_no_iteration():
    g = Grid2D(64, 64)
    phi = disc(g)
    xc, yc = g.cell_centers()
    mu = np.sin(np.pi * xc) * np.cos(np.pi * yc)
    _, n_stats = solve_nutrient_robin(g, phi, ModelSpec(
        params=ModelParams(K=100.0), sources=zero_sources(1.0)), 1.0)
    spec = ModelSpec(params=ModelParams(epsilon=0.05),
                     mobility=constant_mobility(1.0))
    _, _, ch_stats = ch_update(g, ch_state(g, phi, spec), spec,
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
    _, _, ch_stats = ch_update(g, ch_state(g, phi, spec), spec,
                               StepConfig(dt=2e-4, flow_mode="darcy"))
    sources = dataclasses.replace(zero_sources(), h=smooth_blend(0.5, 1.0))
    _, n_stats = solve_nutrient_robin(g, phi, ModelSpec(sources=sources), 1.0)
    for stats in (ch_stats, n_stats):
        assert stats.converged and 1 <= stats.iterations <= 10
