import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from chbrinkman import (FaceField, Grid2D, ModelParams, ModelSpec,
                        bicgstab_solve, blended_viscosity, constant_viscosity,
                        eval_source_gamma_v, face_zeros, integrate_cells,
                        mac_operators, norm_l2_cells, solve_brinkman,
                        solve_darcy, viscous_dissipation, zero_sources)
from chbrinkman.cli import limit_visc_problem
from chbrinkman.flow import (assemble_brinkman_system, brinkman_force,
                             brinkman_form, shear_dissipation,
                             velocity_blocks, velocity_coupling)
from chbrinkman.grid import face_volumes, stacked
from chbrinkman.harness import brinkman_manufactured, passthrough_sources
from conftest import (dense_solve, numpy_dirichlet_gradient,
                      numpy_divergence, numpy_face_mean, numpy_gradient)


def flow_spec(eta=0.5, lam=0.0, nu=1.0, sources=None):
    return ModelSpec(params=ModelParams(nu=nu),
                     viscosity=constant_viscosity(eta, lam),
                     sources=sources if sources is not None
                     else zero_sources(1.0))


def test_brinkman_zero_data_gives_zero_flow():
    g = Grid2D(12, 12)
    zero = np.zeros((12, 12))
    sol = solve_brinkman(g, zero, zero, zero, flow_spec())
    assert np.max(np.abs(sol.vel.x)) < 1e-12
    assert np.max(np.abs(sol.vel.y)) < 1e-12
    assert np.max(np.abs(sol.p)) < 1e-12
    assert sol.div_residual < 1e-12


def brinkman_mms_errors(n, eta=0.7, nu=1.0):
    g = Grid2D(n, n)
    vx_f, vy_f, p_f, gamma_f, fx_f, fy_f = brinkman_manufactured(eta, nu)
    spec = flow_spec(eta=eta, nu=nu, sources=passthrough_sources())
    xc, yc = g.cell_centers()
    xfx, yfx = g.xface_centers()
    xfy, yfy = g.yface_centers()
    zero = np.zeros((n, n))
    extra = FaceField(fx_f(xfx, yfx), fy_f(xfy, yfy))
    sol = solve_brinkman(g, gamma_f(xc, yc), zero, zero, spec,
                         extra_force=extra)
    v_err = FaceField(sol.vel.x - vx_f(xfx, yfx),
                      sol.vel.y - vy_f(xfy, yfy)).norm_l2(g)
    return v_err, sol


def test_brinkman_manufactured_velocity_order():
    e16, _ = brinkman_mms_errors(16)
    e32, _ = brinkman_mms_errors(32)
    assert np.log2(e16 / e32) >= 0.9


def test_brinkman_divergence_constraint():
    g = Grid2D(16, 16)
    _, sol = brinkman_mms_errors(16)
    vx_f, vy_f, p_f, gamma_f, fx_f, fy_f = brinkman_manufactured(0.7, 1.0)
    xc, yc = g.cell_centers()
    gnorm = norm_l2_cells(g, gamma_f(xc, yc))
    assert sol.div_residual <= 10.0 * 1e-9 * gnorm


def test_brinkman_system_symmetric(rng):
    g = Grid2D(8, 8)
    phi = rng.uniform(-1, 1, (8, 8))
    system, _ = assemble_brinkman_system(g, phi, flow_spec(0.3, 0.1),
                                         np.zeros((8, 8)), face_zeros(g))
    asym = abs(system.matrix - system.matrix.T).max()
    assert asym < 1e-12


def test_brinkman_velocity_block_positive_semidefinite(rng):
    g = Grid2D(8, 8)
    phi = rng.uniform(-1, 1, (8, 8))
    system, _ = assemble_brinkman_system(g, phi, flow_spec(0.3, 0.1),
                                         np.zeros((8, 8)), face_zeros(g))
    nv = (g.nx + 1) * g.ny + g.nx * (g.ny + 1)
    a_vv = system.matrix[:nv, :nv]
    for _ in range(5):
        v = rng.standard_normal(nv)
        assert v @ (a_vv @ v) >= -1e-10


def test_brinkman_rejects_fully_singular_assembly():
    g = Grid2D(8, 8)
    zero = np.zeros((8, 8))
    spec0 = ModelSpec(params=ModelParams(nu=0.0),
                      viscosity=constant_viscosity(0.0),
                      sources=zero_sources())
    with pytest.raises(ValueError, match="singular"):
        solve_brinkman(g, zero, zero, zero, spec0)


def test_brinkman_rejects_zero_friction_before_any_iteration(monkeypatch):
    # at nu = 0 the rigid motions lie in the kernel even with eta > 0
    import dataclasses

    import chbrinkman.flow as flow

    def no_krylov(*args, **kwargs):
        raise AssertionError("Krylov solve started")

    monkeypatch.setattr(flow, "bicgstab_solve", no_krylov)
    g, phi, mu, sigma, spec = limit_visc_problem(64)
    spec = dataclasses.replace(spec, params=dataclasses.replace(spec.params,
                                                                nu=0.0))
    with pytest.raises(ValueError, match=r"\(A1\).*singular"):
        solve_brinkman(g, phi, mu, sigma, spec)


def strain_rows(g):
    """The shear rows and the divergence rows of the cached energy form."""
    form = brinkman_form(g)
    return (form.energy[:form.n_shear],
            form.energy[form.n_shear:form.n_shear + g.n_cells])


def saddle_reference(g, eta, lam, nu):
    """The scaled Brinkman matrix and scale by sparse triple products:
    S^T diag(w) S + D^T diag(lam*vol) D + nu*diag(vol_f), G = -D^T*vol,
    with the shear weights w = (2*eta*vol, 2*eta*vol, vol*node_sum(eta))."""
    form, vol = brinkman_form(g), g.cell_volume
    shear, div = strain_rows(g)
    vol_f = np.concatenate([w.ravel() for w in face_volumes(g)])
    two_eta = 2.0 * vol * eta
    w = np.concatenate([two_eta, two_eta, vol * (form.node_sum @ eta)])
    a = (shear.T @ sp.diags(w) @ shear
         + div.T @ sp.diags(lam * vol) @ div + sp.diags(nu * vol_f))
    full = sp.bmat([[a, -div.T * vol], [-div * vol, None]], "csr")
    scale = np.concatenate([np.ones(vol_f.size),
                            np.full(g.n_cells, 1.0 / min(g.dx, g.dy))])
    d = np.abs(full.diagonal()) * scale**2
    scale /= np.sqrt(np.where(d == 0.0, 1.0, d))
    out = (sp.diags(scale) @ full @ sp.diags(scale)).tocsr()
    out.sort_indices()
    return out, scale


def assemble_zero_data(g, phi, spec):
    zero = np.zeros((g.nx, g.ny))
    return assemble_brinkman_system(g, phi, spec, zero, face_zeros(g))


@settings(max_examples=40, deadline=None)
@given(st.builds(Grid2D, st.integers(3, 12), st.integers(3, 12),
                 st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
       st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
       st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.01, 2.0),
       st.integers(0, 2**32 - 1))
def test_brinkman_matrix_fills_the_energy_form(g, eta_a, eta_b, lam_a, lam_b,
                                               nu, seed):
    # the pattern fill equals the triple products to round-off, keeps the
    # pattern of a generic positive viscosity (where no entry cancels) for
    # every phi and stays symmetric
    assume(g.lx != g.ly)
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-2, 2, (g.nx, g.ny))
    viscosity = blended_viscosity(eta_a, eta_b, lam_a, lam_b)
    system, scale = assemble_zero_data(
        g, phi, ModelSpec(params=ModelParams(nu=nu), viscosity=viscosity,
                          sources=zero_sources(1.0)))
    ref, ref_scale = saddle_reference(g, viscosity.eta(phi).ravel(),
                                      viscosity.lam(phi).ravel(), nu)
    a = system.matrix
    assert abs(a - ref).max() <= 1e-14 * abs(ref).max()
    assert np.allclose(scale, ref_scale, rtol=1e-14, atol=0.0)
    full, _ = saddle_reference(g, rng.uniform(1, 2, g.n_cells),
                               rng.uniform(1, 2, g.n_cells), nu)
    assert a.nnz == full.nnz
    assert abs(a - a.T).max() <= 1e-15 * abs(a).max()


@pytest.mark.parametrize("n", [16, 48])
def test_brinkman_matrix_exact_for_constant_viscosity(n):
    # the viscosity of the tumour runs: the fill rounds like the triple
    # products here, so such runs reproduce bit for bit
    g = Grid2D(n, n)
    spec = flow_spec(eta=0.05, lam=0.0, nu=1.0)
    system, scale = assemble_zero_data(g, np.zeros((n, n)), spec)
    ref, ref_scale = saddle_reference(g, np.full(g.n_cells, 0.05),
                                      np.zeros(g.n_cells), 1.0)
    a = system.matrix
    assert np.array_equal(a.indptr, ref.indptr)
    assert np.array_equal(a.indices, ref.indices)
    assert np.array_equal(a.data, ref.data)
    assert np.array_equal(scale, ref_scale)


def test_brinkman_assembly_fills_one_cached_pattern():
    # every assembly on a grid shares the cached read-only index arrays, so
    # no step rebuilds them; 428,292 entries is the 128^2 saddle point
    g = Grid2D(128, 128)
    xc, _ = g.cell_centers()
    spec = ModelSpec(params=ModelParams(nu=1.0),
                     viscosity=blended_viscosity(0.01, 1.0, 0.0, 0.1),
                     sources=zero_sources(1.0))
    first, _ = assemble_zero_data(g, np.tanh(xc - 0.5), spec)
    second, _ = assemble_zero_data(g, -np.tanh(xc - 0.5), spec)
    assert not np.array_equal(first.matrix.data, second.matrix.data)
    for name in ("indices", "indptr"):
        one, two = (getattr(s.matrix, name) for s in (first, second))
        assert np.shares_memory(one, two)
        assert not one.flags.writeable
    form = brinkman_form(g)
    for arr in (form.scatter.data, form.scatter.indices,
                form.pattern.data, form.rows, form.diagonal,
                form.grad.data):
        assert not arr.flags.writeable
    assert first.matrix.nnz == 428_292


def test_darcy_zero_data():
    g = Grid2D(12, 12)
    zero = np.zeros((12, 12))
    sol = solve_darcy(g, zero, zero, zero, flow_spec())
    assert np.max(np.abs(sol.p)) < 1e-12
    assert np.max(np.abs(sol.vel.x)) < 1e-12


def torsion_series(x, y, terms=199):
    total = 0.0
    for k in range(1, terms, 2):
        total += (4.0 / (np.pi**3 * k**3)
                  * (1 - np.cosh(k * np.pi * (y - 0.5)) / np.cosh(k * np.pi / 2))
                  * np.sin(k * np.pi * x))
    return total


def test_darcy_torsion_center_value():
    # Gamma_v = 1, F = 0, nu = 1: p is the unit-square torsion solution
    g = Grid2D(64, 64)
    spec = flow_spec(sources=passthrough_sources())
    gamma = np.ones((64, 64))
    zero = np.zeros((64, 64))
    sol = solve_darcy(g, gamma, zero, zero, spec)
    center = 0.25 * (sol.p[31, 31] + sol.p[32, 31] + sol.p[31, 32]
                     + sol.p[32, 32])
    assert center == pytest.approx(torsion_series(0.5, 0.5), abs=2e-3)
    assert sol.div_residual < 1e-8


def test_darcy_matches_dense_lu_oracle(rng):
    from chbrinkman.flow import assemble_darcy_pressure_system

    g = Grid2D(8, 8)
    gamma = rng.standard_normal((8, 8))
    force = FaceField(rng.standard_normal((9, 8)), rng.standard_normal((8, 9)))
    system = assemble_darcy_pressure_system(g, gamma, 1.3, force)
    from chbrinkman import cg_solve
    x, stats = cg_solve(system.matrix, system.rhs, system.precond, tol=1e-12)
    assert stats.converged
    x_lu = dense_solve(system.matrix, system.rhs)
    assert np.linalg.norm(x - x_lu) <= 1e-9 * np.linalg.norm(x_lu)


def test_darcy_limit_visc_reference_converges():
    # the vanishing-viscosity study's Darcy reference at 64x64 with a disc of
    # radius 0.26: Jacobi CG stalled at a residual of 3.6e-10 here
    g, _, mu, sigma, spec = limit_visc_problem(64)
    xc, yc = g.cell_centers()
    phi = np.tanh((0.26 - np.sqrt((xc - 0.5) ** 2 + (yc - 0.5) ** 2)) / 0.1)
    sol = solve_darcy(g, phi, mu, sigma, spec)
    assert sol.stats.converged
    assert sol.div_residual <= 1e-10


def test_darcy_gradient_identity_on_interior_faces(rng):
    # F = grad(q) makes v = (grad(q) - grad(p))/nu on interior faces exactly
    g = Grid2D(16, 16)
    nu = 2.0
    xc, yc = g.cell_centers()
    q = np.sin(2 * np.pi * xc) * yc**2
    force = FaceField(*numpy_gradient(g, q))
    spec = ModelSpec(params=ModelParams(nu=nu), sources=zero_sources(1.0))
    zero = np.zeros((16, 16))
    sol = solve_darcy(g, zero, zero, zero, spec, extra_force=force)
    ex, ey = numpy_gradient(g, q - sol.p)
    assert np.allclose(sol.vel.x[1:-1, :], ex[1:-1, :] / nu, atol=1e-9)
    assert np.allclose(sol.vel.y[:, 1:-1], ey[:, 1:-1] / nu, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.builds(Grid2D, st.integers(3, 12), st.integers(3, 12),
                 st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
def test_force_and_darcy_velocity_match_the_numpy_formulas(g, chi, seed):
    # the Korteweg force mean(mu + chi*sigma)*grad(phi) and the Darcy
    # velocity (F - grad p)/nu with the p = 0 ghost on boundary faces,
    # against the face-by-face numpy slices
    rng = np.random.default_rng(seed)
    phi, mu, sigma = (rng.standard_normal((g.nx, g.ny)) for _ in range(3))
    extra = FaceField(rng.standard_normal((g.nx + 1, g.ny)),
                      rng.standard_normal((g.nx, g.ny + 1)))
    spec = ModelSpec(params=ModelParams(nu=1.5, chi=chi),
                     sources=passthrough_sources())
    force = brinkman_force(g, phi, mu, sigma, spec, extra)
    cx, cy = numpy_face_mean(g, mu + chi * sigma)
    gx, gy = numpy_gradient(g, phi)
    for out, ref in ((force.x, cx * gx + extra.x),
                     (force.y, cy * gy + extra.y)):
        assert np.allclose(out, ref, rtol=1e-13, atol=1e-13)
    sol = solve_darcy(g, phi, mu, sigma, spec, extra_force=extra, tol=1e-12)
    force = brinkman_force(g, phi, mu, sigma, spec, extra)
    px, py = numpy_dirichlet_gradient(g, sol.p)
    size = np.max(np.abs(stacked(force))) + np.max(np.abs(sol.p)) / min(
        g.dx, g.dy)
    for out, f, gp in ((sol.vel.x, force.x, px), (sol.vel.y, force.y, py)):
        assert np.max(np.abs(out - (f - gp) / 1.5)) <= 1e-14 * size


@pytest.mark.parametrize("g", [Grid2D(32, 32), Grid2D(13, 7, 1.0, 0.6)])
def test_korteweg_force_is_the_adjoint_of_the_centred_flux(g, rng):
    # vol*mu^T div(mean(phi)*v) = sum vol_f*F*v + vol*(mu*phi)^T div(v) for
    # F = brinkman_force at chi = 0 and any face v: by the discrete
    # product rule grad(mu*phi) = mean(mu)*grad(phi) + mean(phi)*grad(mu),
    # and the boundary terms cancel since the face gradient is 0 there
    ops = mac_operators(g)
    phi, mu = rng.standard_normal((2, g.nx, g.ny))
    v = rng.standard_normal(ops.div.shape[1])
    spec = ModelSpec(params=ModelParams(chi=0.0))
    force = brinkman_force(g, phi, mu, np.zeros_like(mu), spec, None)
    vol = g.cell_volume
    lhs = vol * mu.ravel() @ (ops.div @ ((ops.mean @ phi.ravel()) * v))
    rhs = (ops.vol_f * stacked(force)) @ v \
        + vol * (mu * phi).ravel() @ (ops.div @ v)
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_viscous_dissipation_zero_velocity():
    g = Grid2D(8, 8)
    assert viscous_dissipation(g, face_zeros(g), np.zeros((8, 8)),
                               flow_spec()) == 0.0


def test_viscous_dissipation_rigid_translation():
    g = Grid2D(16, 16)
    vel = face_zeros(g)
    vel.x[:, :] = 1.0
    spec = flow_spec(eta=0.7, lam=0.3, nu=1.0)
    assert viscous_dissipation(g, vel, np.zeros((16, 16)), spec) == \
        pytest.approx(1.0, abs=1e-12)


def test_viscous_dissipation_pure_shear():
    # vx = y, vy = 0: Dv = [[0, 1/2], [1/2, 0]], 2*eta*|Dv|^2 = 1 pointwise
    g = Grid2D(32, 32)
    vel = face_zeros(g)
    _, yfx = g.xface_centers()
    vel.x[:, :] = yfx
    import dataclasses
    spec = dataclasses.replace(flow_spec(eta=1.0, lam=0.0),
                               params=dataclasses.replace(ModelParams(),
                                                          nu=0.0))
    total = viscous_dissipation(g, vel, np.zeros((32, 32)), spec)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_brinkman_darcy_degeneracy_direction():
    # lowering (eta, lam) monotonically closes the gap to the Darcy solve
    import dataclasses
    g, phi, mu, sigma, spec = limit_visc_problem(32)
    darcy = solve_darcy(g, phi, mu, sigma, spec)
    gaps = []
    for s in (1.0, 0.1, 0.01, 0.001):
        spec_s = dataclasses.replace(
            spec, viscosity=constant_viscosity(0.02 * s, 0.01 * s))
        sol = solve_brinkman(g, phi, mu, sigma, spec_s)
        gaps.append((sol.vel - darcy.vel).norm_l2(g))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_shear_dissipation_nonnegative(rng):
    g = Grid2D(10, 10)
    vel = FaceField(rng.standard_normal((11, 10)),
                    rng.standard_normal((10, 11)))
    assert shear_dissipation(g, vel, np.zeros((10, 10)), flow_spec()) >= 0.0


@settings(max_examples=40, deadline=None)
@given(st.builds(Grid2D, st.integers(3, 12), st.integers(3, 12),
                 st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.floats(0.01, 1.0),
       st.floats(0.0, 2.0, exclude_min=True), st.integers(0, 2**32 - 1))
def test_dissipation_is_the_assembled_energy_form(g, eta_a, eta_b, lam_b, nu,
                                                  seed):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-2, 2, (g.nx, g.ny))
    spec = ModelSpec(params=ModelParams(nu=nu),
                     viscosity=blended_viscosity(eta_a, eta_b, 0.0, lam_b),
                     sources=zero_sources(1.0))
    vel = FaceField(rng.standard_normal((g.nx + 1, g.ny)),
                    rng.standard_normal((g.nx, g.ny + 1)))
    system, scale = assemble_brinkman_system(g, phi, spec,
                                             np.zeros((g.nx, g.ny)),
                                             face_zeros(g))
    a = system.matrix
    assert abs(a - a.T).max() <= 1e-13 * abs(a).max()
    nv = vel.x.size + vel.y.size
    a_mom = a[:nv, :nv].toarray() / np.outer(scale[:nv], scale[:nv])
    v = np.concatenate([vel.x.ravel(), vel.y.ravel()])
    total = viscous_dissipation(g, vel, phi, spec)
    assert total == pytest.approx(v @ a_mom @ v, rel=1e-12)
    assert 0.0 <= shear_dissipation(g, vel, phi, spec) <= total


@pytest.mark.parametrize("viscosity", [
    constant_viscosity(0.02, 0.01),
    blended_viscosity(0.005, 0.05, 0.002, 0.02)])
def test_dissipation_balances_force_and_pressure_work(viscosity):
    # v^T A v = int F.v + int p div(v) for the solved v; the reported
    # dissipation is that energy form to round-off, not a re-quadrature
    import dataclasses

    g, phi, mu, sigma, spec = limit_visc_problem(32)
    spec = dataclasses.replace(spec, viscosity=viscosity)
    sol = solve_brinkman(g, phi, mu, sigma, spec)
    force = brinkman_force(g, phi, mu, sigma, spec, None)
    wx, wy = face_volumes(g)
    work = (np.sum(wx * force.x * sol.vel.x) + np.sum(wy * force.y * sol.vel.y)
            + integrate_cells(g, sol.p * eval_source_gamma_v(spec.sources,
                                                             phi, sigma)))
    total = viscous_dissipation(g, sol.vel, phi, spec)
    assert abs(total - work) <= 1e-9 * total


@settings(max_examples=40, deadline=None)
@given(st.builds(Grid2D, st.integers(3, 12), st.integers(3, 12),
                 st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       st.one_of(st.just(0.0), st.floats(0.01, 2.0)), st.floats(0.01, 2.0),
       st.floats(0.01, 2.0), st.integers(0, 2**32 - 1))
def test_velocity_blocks_invert_the_momentum_blocks(g, eta, lam, nu, seed):
    # for constant viscosity the cached fast solve is the exact inverse of
    # each diagonal velocity block of the unscaled momentum matrix, and the
    # cached coupling is its y-by-x block
    assume(g.lx != g.ly)
    rng = np.random.default_rng(seed)
    spec = ModelSpec(params=ModelParams(nu=nu),
                     viscosity=constant_viscosity(eta, lam),
                     sources=zero_sources(1.0))
    system, scale = assemble_brinkman_system(
        g, rng.uniform(-1, 1, (g.nx, g.ny)), spec, np.zeros((g.nx, g.ny)),
        face_zeros(g))
    a = system.matrix.toarray() / np.outer(scale, scale)
    nvx = (g.nx + 1) * g.ny
    nv = nvx + g.nx * (g.ny + 1)
    block_x, block_y = velocity_blocks(g)
    strain = 2 * eta + lam
    for rows, block, weights in ((slice(0, nvx), block_x, (strain, eta)),
                                 (slice(nvx, nv), block_y, (eta, strain))):
        b = rng.standard_normal(rows.stop - rows.start)
        x_lu = np.linalg.solve(a[rows, rows], b)
        x_fd = block.solve(b, nu, weights) / g.cell_volume
        assert np.linalg.norm(x_fd - x_lu) <= 1e-10 * np.linalg.norm(x_lu)
    c_eta, c_lam = velocity_coupling(g)
    coupling = (eta * c_eta + lam * c_lam).toarray()
    assert np.allclose(coupling, a[nvx:nv, :nvx], rtol=0.0,
                       atol=1e-12 * np.abs(a[:nv, :nv]).max())
    assert velocity_coupling(g) is velocity_coupling(g)
    assert not c_eta.data.flags.writeable


@pytest.mark.parametrize("viscosity, max_iterations", [
    (constant_viscosity(0.02, 0.01), 12),
    (constant_viscosity(2e-5, 1e-5), 9),
    (blended_viscosity(0.01, 1.0), 42)])
def test_brinkman_solve_iterations_at_64(viscosity, max_iterations):
    # the block-triangular preconditioner with its Gauss-Seidel velocity
    # sweep: few classical BiCGStab iterations (2 products each) for
    # constant viscosity, near the Darcy limit too, and for the blend 0.01
    # to 1 (contrast 6.9 on phi in [-1, 1])
    import dataclasses

    g, phi, mu, sigma, spec = limit_visc_problem(64)
    spec = dataclasses.replace(spec, viscosity=viscosity)
    sol = solve_brinkman(g, phi, mu, sigma, spec)
    gnorm = norm_l2_cells(g, eval_source_gamma_v(spec.sources, phi, sigma))
    assert sol.stats.converged and sol.stats.iterations <= max_iterations
    assert sol.div_residual <= 10.0 * 1e-9 * gnorm


def test_stagnated_brinkman_solve_fails_fast():
    # at nu = 1e-4 with a 100x viscosity contrast the true residual
    # stalls near 2e-10 above its target: the solve stops when a restart
    # cycle no longer halves it, instead of running 10*n iterations
    import dataclasses

    from chbrinkman import SolverFailure

    g, phi, mu, sigma, spec = limit_visc_problem(64)
    spec = dataclasses.replace(
        spec, viscosity=blended_viscosity(0.01, 1.0),
        params=dataclasses.replace(spec.params, nu=1e-4))
    with pytest.raises(SolverFailure) as failure:
        solve_brinkman(g, phi, mu, sigma, spec)
    assert failure.value.stage == "flow"
    assert not failure.value.stats.converged
    assert failure.value.stats.iterations <= 200


def test_brinkman_warm_start_matches_the_cold_solve():
    # started from the flow of data 0.1% away, as one time step leaves it,
    # the solve reaches the cold solve's answer to within its tolerance in
    # fewer iterations
    g, phi, mu, sigma, spec = limit_visc_problem(32)
    near = solve_brinkman(g, phi, 0.999 * mu, sigma, spec)
    cold = solve_brinkman(g, phi, mu, sigma, spec)
    warm = solve_brinkman(g, phi, mu, sigma, spec, start=(near.vel, near.p))
    assert warm.stats.converged
    assert warm.stats.iterations < cold.stats.iterations
    for a, b in ((warm.vel.x, cold.vel.x), (warm.vel.y, cold.vel.y),
                 (warm.p, cold.p)):
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


def counted_krylov(monkeypatch):
    """The tolerances of the Krylov solves that ``flow`` starts."""
    from chbrinkman import flow

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["tol"])
        return bicgstab_solve(*args, **kwargs)

    monkeypatch.setattr(flow, "bicgstab_solve", counted)
    return calls


def test_brinkman_single_solve_meets_the_divergence_target(monkeypatch):
    # at this viscosity a solve to the Krylov tolerance 1e-9 alone misses
    # the divergence target; the tolerance worked out from the inputs meets
    # it in one solve
    import dataclasses

    calls = counted_krylov(monkeypatch)
    g, phi, mu, sigma, spec = limit_visc_problem(16)
    spec = dataclasses.replace(spec,
                               viscosity=constant_viscosity(0.002, 0.001))
    sol = solve_brinkman(g, phi, mu, sigma, spec)
    gnorm = norm_l2_cells(g, eval_source_gamma_v(spec.sources, phi, sigma))
    assert len(calls) == 1 and calls[0] < 1e-9
    assert sol.stats.converged
    assert sol.div_residual <= 5.0 * 1e-9 * gnorm


def test_brinkman_tolerance_floor_returns_without_failure(monkeypatch):
    # with Gamma_v scaled by 1e-12 the divergence target is out of reach:
    # the one solve runs at the floor 0.01*tol and returns
    import dataclasses

    from chbrinkman.model import SourceSpec

    calls = counted_krylov(monkeypatch)
    g, phi, mu, sigma, spec = limit_visc_problem(16)
    src = spec.sources

    def tiny(f):
        return lambda s: 1e-12 * f(s)

    spec = dataclasses.replace(spec, sources=SourceSpec(
        b_v=tiny(src.b_v), f_v=tiny(src.f_v), b_phi=src.b_phi,
        f_phi=src.f_phi, h=src.h))
    sol = solve_brinkman(g, phi, mu, sigma, spec)
    assert calls == [pytest.approx(1e-11, rel=1e-12)]
    assert sol.stats.converged


def test_brinkman_form_samples_linear_fields_exactly():
    g = Grid2D(5, 7, 1.3, 0.7)
    form = brinkman_form(g)
    shear, div = strain_rows(g)
    nc, nn = g.n_cells, (g.nx + 1) * (g.ny + 1)

    def strain(vel):
        s = shear @ np.concatenate([vel.x.ravel(), vel.y.ravel()])
        return (s[:nc], s[nc:2 * nc],
                s[2 * nc:].reshape(g.nx + 1, g.ny + 1))

    xfx, yfx = g.xface_centers()
    xfy, yfy = g.yface_centers()
    vel = FaceField(0.3 * xfx + 1.1 * yfx, -0.7 * xfy + 0.4 * yfy)
    dxx, dyy, dxy = strain(vel)
    assert form.n_shear == 2 * nc + nn
    assert np.allclose(dxx, 0.3, atol=1e-12)
    assert np.allclose(dyy, 0.4, atol=1e-12)
    assert np.allclose(dxy, 0.5 * (1.1 - 0.7), atol=1e-12)
    v = np.concatenate([vel.x.ravel(), vel.y.ravel()])
    assert np.allclose(div @ v, numpy_divergence(g, vel.x, vel.y).ravel(),
                       atol=1e-12)
    # boundary nodes take their neighbour's (one-sided) difference
    _, _, dxy = strain(FaceField(yfx**2, np.zeros_like(xfy)))
    assert np.array_equal(dxy[:, 0], dxy[:, 1])
    assert np.array_equal(dxy[:, -1], dxy[:, -2])
    # four cells around an interior node, two on an edge, one at a corner
    xc, yc = g.cell_centers()
    xn, yn = np.meshgrid(np.arange(g.nx + 1) * g.dx,
                         np.arange(g.ny + 1) * g.dy, indexing="ij")
    nodes = (form.node_sum @ (2.0 * xc + 3.0 * yc).ravel()).reshape(xn.shape)
    assert np.allclose(nodes[1:-1, 1:-1],
                       4.0 * (2.0 * xn + 3.0 * yn)[1:-1, 1:-1], atol=1e-12)
    count = (form.node_sum @ np.ones(nc)).reshape(xn.shape)
    assert count[0, 0] == 1.0 and count[0, 1] == 2.0 and count[1, 1] == 4.0
    assert count.sum() * g.cell_volume / 4.0 == pytest.approx(g.lx * g.ly)
    assert brinkman_form(g) is form and not form.energy.data.flags.writeable
