import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from chbrinkman import (FaceField, Grid2D, advect_upwind,
                        boundary_flux_integral, divergence_of_faces,
                        face_zeros, gradient_to_faces, integrate_cells,
                        laplacian_neumann)
from chbrinkman.grid import (boundary_face_lengths, csr_slots, face_volumes,
                            form_matrix, form_pattern, minus_laplacian)

grids = st.builds(Grid2D, st.integers(3, 12), st.integers(3, 12),
                  st.floats(0.5, 2.0), st.floats(0.5, 2.0))


def random_cell(g, rng):
    return rng.standard_normal((g.nx, g.ny))


def random_face(g, rng):
    return FaceField(rng.standard_normal((g.nx + 1, g.ny)),
                     rng.standard_normal((g.nx, g.ny + 1)))


def test_grid_rejects_tiny_meshes():
    with pytest.raises(ValueError):
        Grid2D(2, 8)
    with pytest.raises(ValueError):
        Grid2D(8, 8, lx=-1.0)


def test_gradient_of_constant_is_zero():
    g = Grid2D(8, 6, 2.0, 1.0)
    grad = gradient_to_faces(g, np.full((8, 6), 3.7))
    assert np.all(grad.x == 0.0) and np.all(grad.y == 0.0)


def test_gradient_linear_exact():
    g = Grid2D(12, 9, 1.5, 1.0)
    x, _ = g.cell_centers()
    grad = gradient_to_faces(g, x)
    assert np.allclose(grad.x[1:-1, :], 1.0, atol=1e-13)
    assert np.allclose(grad.y, 0.0, atol=1e-13)


def test_gradient_second_order_on_sine():
    errs = []
    for n in (16, 32, 64):
        g = Grid2D(n, n)
        x, _ = g.cell_centers()
        f = np.sin(2 * np.pi * x / g.lx)
        xf, _ = g.xface_centers()
        exact = 2 * np.pi / g.lx * np.cos(2 * np.pi * xf / g.lx)
        grad = gradient_to_faces(g, f)
        errs.append(np.max(np.abs(grad.x[1:-1, :] - exact[1:-1, :])))
    # halving dx quarters the error
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_divergence_of_constant_field():
    g = Grid2D(7, 5)
    w = FaceField(np.full((8, 5), 2.0), np.full((7, 6), -1.0))
    assert np.allclose(divergence_of_faces(g, w), 0.0, atol=1e-13)


def test_div_grad_equals_laplacian():
    g = Grid2D(9, 11, 1.0, 2.0)
    x, y = g.cell_centers()
    f = x**2 + 0.5 * x * y - y**2
    composed = divergence_of_faces(g, gradient_to_faces(g, f))
    assert np.allclose(composed, laplacian_neumann(g, f), atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(grids, st.integers(0, 2**32 - 1))
def test_summation_by_parts(g, seed):
    # <div w, f> + <w, grad f> is the boundary flux of f*w, so div is the
    # volume-weighted adjoint of -grad on face fields with w.n = 0
    assume(g.lx != g.ly)
    rng = np.random.default_rng(seed)
    f = random_cell(g, rng)
    grad = gradient_to_faces(g, f)
    wx, wy = face_volumes(g)

    def pairing(w):
        terms = np.concatenate([
            (divergence_of_faces(g, w) * f).ravel() * g.cell_volume,
            (wx * w.x * grad.x).ravel(), (wy * w.y * grad.y).ravel()])
        return terms.sum(), np.abs(terms).sum()

    w = random_face(g, rng)
    total, size = pairing(w)
    boundary = (np.sum(w.x[-1, :] * f[-1, :]) - np.sum(w.x[0, :] * f[0, :])) * g.dy
    boundary += (np.sum(w.y[:, -1] * f[:, -1]) - np.sum(w.y[:, 0] * f[:, 0])) * g.dx
    assert total == pytest.approx(boundary, abs=1e-14 * size)
    w.x[[0, -1], :] = 0.0
    w.y[:, [0, -1]] = 0.0
    total, size = pairing(w)
    assert abs(total) <= 1e-14 * size


def test_laplacian_annihilates_constants():
    g = Grid2D(6, 6)
    assert np.allclose(laplacian_neumann(g, np.full((6, 6), 4.2)), 0.0)


def test_laplacian_spike_stencil():
    # 3x3 grid with dx = dy = 1: unit spike gives -4 center, +1 neighbors
    g = Grid2D(3, 3, 3.0, 3.0)
    f = np.zeros((3, 3))
    f[1, 1] = 1.0
    lap = laplacian_neumann(g, f)
    assert lap[1, 1] == pytest.approx(-4.0)
    assert lap[0, 1] == lap[2, 1] == lap[1, 0] == lap[1, 2] == pytest.approx(1.0)


def test_laplacian_second_order_on_cosine():
    errs = []
    for n in (16, 32, 64):
        g = Grid2D(n, n)
        x, _ = g.cell_centers()
        f = np.cos(np.pi * x / g.lx)
        lap = laplacian_neumann(g, f)
        exact = -((np.pi / g.lx) ** 2) * f
        errs.append(np.max(np.abs(lap[2:-2, :] - exact[2:-2, :])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_laplacian_symmetric_negative_semidefinite_mean_free(rng):
    g = Grid2D(9, 7, 1.1, 0.9)
    f = random_cell(g, rng)
    h = random_cell(g, rng)
    lf = laplacian_neumann(g, f)
    lh = laplacian_neumann(g, h)
    a = np.sum(lf * h)
    b = np.sum(f * lh)
    assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
    assert np.sum(lf * f) <= 1e-12
    assert abs(integrate_cells(g, lf)) <= 1e-12 * np.linalg.norm(f)


def test_integrate_constants():
    g = Grid2D(16, 16)
    assert integrate_cells(g, np.ones((16, 16))) == pytest.approx(1.0)
    g2 = Grid2D(10, 20, 2.0, 3.0)
    assert integrate_cells(g2, np.full((10, 20), 0.7)) == pytest.approx(0.7 * 6.0)


def test_integrate_sine_symmetry():
    g = Grid2D(32, 32)
    x, y = g.cell_centers()
    f = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    assert abs(integrate_cells(g, f)) < 1e-12


def test_boundary_flux_zero_velocity():
    g = Grid2D(8, 8)
    assert boundary_flux_integral(g, np.ones((8, 8)), face_zeros(g)) == 0.0


def test_boundary_flux_unit_outward_normal():
    g = Grid2D(8, 8)
    vel = face_zeros(g)
    vel.x[0, :] = -1.0   # outward on the left is -x
    vel.x[-1, :] = 1.0
    vel.y[:, 0] = -1.0
    vel.y[:, -1] = 1.0
    flux = boundary_flux_integral(g, np.ones((8, 8)), vel)
    assert flux == pytest.approx(4.0)


@settings(max_examples=40, deadline=None)
@given(grids, st.integers(0, 2**32 - 1))
def test_boundary_flux_matches_advect_integral(g, seed):
    # the mass identity: the upwind advection telescopes to the boundary flux
    assume(g.lx != g.ly)
    rng = np.random.default_rng(seed)
    phi = random_cell(g, rng)
    vel = random_face(g, rng)
    lhs = integrate_cells(g, advect_upwind(g, phi, vel))
    rhs = boundary_flux_integral(g, phi, vel)
    size = np.max(np.abs(phi)) * (np.sum(np.abs(vel.x)) * g.dy
                                  + np.sum(np.abs(vel.y)) * g.dx)
    assert abs(lhs - rhs) <= 1e-14 * size


def test_advect_zero_velocity():
    g = Grid2D(8, 8)
    phi = np.arange(64, dtype=float).reshape(8, 8)
    assert np.all(advect_upwind(g, phi, face_zeros(g)) == 0.0)


def test_advect_constant_preserved_by_divfree_velocity(rng):
    # div-free interior velocity with zero boundary normal velocity from a
    # node streamfunction vanishing on the boundary
    g = Grid2D(12, 10)
    psi = np.zeros((g.nx + 1, g.ny + 1))
    psi[1:-1, 1:-1] = rng.standard_normal((g.nx - 1, g.ny - 1))
    vel = FaceField((psi[:, 1:] - psi[:, :-1]) / g.dy,
                    -(psi[1:, :] - psi[:-1, :]) / g.dx)
    assert np.allclose(divergence_of_faces(g, vel), 0.0, atol=1e-12)
    out = advect_upwind(g, np.full((g.nx, g.ny), 2.5), vel)
    assert np.max(np.abs(out)) < 1e-12


def test_advect_step_profile_conserves_mass():
    g = Grid2D(16, 8)
    vel = face_zeros(g)
    vel.x[:, :] = 1.0
    x, _ = g.cell_centers()
    phi = np.where(x < 0.5, 1.0, 0.0)
    lhs = integrate_cells(g, advect_upwind(g, phi, vel))
    assert lhs == pytest.approx(boundary_flux_integral(g, phi, vel), abs=1e-13)


def test_operators_linear(rng):
    g = Grid2D(9, 8)
    f1, f2 = random_cell(g, rng), random_cell(g, rng)
    a, b = 1.7, -0.4
    for op in (lambda f: gradient_to_faces(g, f).x,
               lambda f: laplacian_neumann(g, f)):
        assert np.allclose(op(a * f1 + b * f2), a * op(f1) + b * op(f2),
                           atol=1e-12)
    w1, w2 = random_face(g, rng), random_face(g, rng)
    combo = FaceField(a * w1.x + b * w2.x, a * w1.y + b * w2.y)
    assert np.allclose(divergence_of_faces(g, combo),
                       a * divergence_of_faces(g, w1)
                       + b * divergence_of_faces(g, w2), atol=1e-12)


def test_boundary_face_lengths_sum_to_perimeter():
    g = Grid2D(3, 4)
    lengths = boundary_face_lengths(g)
    assert lengths.sum() == pytest.approx(2 * (g.lx + g.ly))


def test_csr_slots_do_not_overflow_int32():
    # n = 50,000 makes row*n pass 2^31 from row 42,950 on
    n = 50_000
    pattern = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n),
                       format="csr")
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(pattern.indptr))
    pick = np.arange(pattern.nnz - 1, -1, -7)
    slots = csr_slots(pattern, rows[pick], pattern.indices[pick])
    assert pattern.indices.dtype == np.int32
    assert np.array_equal(slots, pick)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_form_pattern_fills_left_diag_right_plus_const(m, n_left, n_right,
                                                       rows_over, cols_over,
                                                       seed):
    # the matrix filled from the pattern is L^T diag(w) R + C, with L
    # and R acting on the leading rows and columns of C; R defaults to L
    # and C to the empty matrix of their columns
    rng = np.random.default_rng(seed)

    def random(shape, density):
        return sp.random(*shape, density=density, format="csr",
                         random_state=rng, data_rvs=rng.standard_normal)

    left = random((m, n_left), 0.5)
    right = random((m, n_right), 0.5)
    const = random((n_left + rows_over, n_right + cols_over), 0.3)
    w = rng.standard_normal(m)
    for args, ref in (
            ((left, right, const), None),
            ((left,), left.T.toarray() @ np.diag(w) @ left.toarray())):
        pattern, scatter, rows, diagonal = form_pattern(*args)
        if ref is None:
            ref = const.toarray()
            ref[:n_left, :n_right] += (left.T.toarray() @ np.diag(w)
                                       @ right.toarray())
        out = form_matrix(pattern, scatter, w).toarray()
        assert out.shape == ref.shape
        assert np.allclose(out, ref, rtol=1e-13, atol=1e-13)
        assert pattern.has_sorted_indices
        assert np.array_equal(rows, np.repeat(np.arange(pattern.shape[0]),
                                              np.diff(pattern.indptr)))
        assert np.array_equal(diagonal,
                              np.flatnonzero(pattern.indices == rows))
        assert not scatter.data.flags.writeable