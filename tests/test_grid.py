import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from chbrinkman import (FaceField, Grid2D, advect_upwind,
                        boundary_flux_integral, face_zeros, integrate_cells,
                        mac_operators)
from chbrinkman.grid import (boundary_faces, csr_slots, face_volumes,
                            form_matrix, form_pattern, minus_laplacian,
                            stacked, unstacked)
from conftest import (numpy_dirichlet_gradient, numpy_divergence,
                      numpy_face_mean, numpy_gradient,
                      numpy_upwind_advection)

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


def gradient(g, f):
    return unstacked(g, mac_operators(g).grad @ f.ravel())


def divergence(g, w):
    return (mac_operators(g).div @ stacked(w)).reshape(g.nx, g.ny)


def laplacian(g, f):
    """The zero-flux Laplacian -grad^T grad that the chemical potential
    applies."""
    grad = mac_operators(g).grad
    return -(grad.T @ (grad @ f.ravel())).reshape(g.nx, g.ny)


def test_gradient_of_constant_is_zero():
    g = Grid2D(8, 6, 2.0, 1.0)
    grad = gradient(g, np.full((8, 6), 3.7))
    assert np.all(grad.x == 0.0) and np.all(grad.y == 0.0)


def test_gradient_linear_exact():
    g = Grid2D(12, 9, 1.5, 1.0)
    x, _ = g.cell_centers()
    grad = gradient(g, x)
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
        grad = gradient(g, f)
        errs.append(np.max(np.abs(grad.x[1:-1, :] - exact[1:-1, :])))
    # halving dx quarters the error
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_divergence_of_constant_field():
    g = Grid2D(7, 5)
    w = FaceField(np.full((8, 5), 2.0), np.full((7, 6), -1.0))
    assert np.allclose(divergence(g, w), 0.0, atol=1e-13)


def test_div_grad_equals_laplacian():
    g = Grid2D(9, 11, 1.0, 2.0)
    x, y = g.cell_centers()
    f = x**2 + 0.5 * x * y - y**2
    composed = divergence(g, gradient(g, f))
    assert np.allclose(composed, laplacian(g, f), atol=1e-13)
    assert np.allclose(composed.ravel(),
                       -(minus_laplacian(g).matrix @ f.ravel()), rtol=0.0,
                       atol=1e-14 * np.max(np.abs(composed)))


@settings(max_examples=40, deadline=None)
@given(grids, st.integers(0, 2**32 - 1))
def test_summation_by_parts(g, seed):
    # <div w, f> + <w, grad f> is the boundary flux of f*w, so div is the
    # volume-weighted adjoint of -grad on face fields with w.n = 0
    assume(g.lx != g.ly)
    rng = np.random.default_rng(seed)
    f = random_cell(g, rng)
    grad = gradient(g, f)
    wx, wy = face_volumes(g)

    def pairing(w):
        terms = np.concatenate([
            (divergence(g, w) * f).ravel() * g.cell_volume,
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
    assert np.allclose(laplacian(g, np.full((6, 6), 4.2)), 0.0)


def test_laplacian_spike_stencil():
    # 3x3 grid with dx = dy = 1: unit spike gives -4 center, +1 neighbors
    g = Grid2D(3, 3, 3.0, 3.0)
    f = np.zeros((3, 3))
    f[1, 1] = 1.0
    lap = laplacian(g, f)
    assert lap[1, 1] == pytest.approx(-4.0)
    assert lap[0, 1] == lap[2, 1] == lap[1, 0] == lap[1, 2] == pytest.approx(1.0)


def test_laplacian_second_order_on_cosine():
    errs = []
    for n in (16, 32, 64):
        g = Grid2D(n, n)
        x, _ = g.cell_centers()
        f = np.cos(np.pi * x / g.lx)
        lap = laplacian(g, f)
        exact = -((np.pi / g.lx) ** 2) * f
        errs.append(np.max(np.abs(lap[2:-2, :] - exact[2:-2, :])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_laplacian_symmetric_negative_semidefinite_mean_free(rng):
    g = Grid2D(9, 7, 1.1, 0.9)
    f = random_cell(g, rng)
    h = random_cell(g, rng)
    lf = laplacian(g, f)
    lh = laplacian(g, h)
    a = np.sum(lf * h)
    b = np.sum(f * lh)
    assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
    assert np.sum(lf * f) <= 1e-12
    assert abs(integrate_cells(g, lf)) <= 1e-12 * np.linalg.norm(f)


@settings(max_examples=40, deadline=None)
@given(grids)
def test_mac_operators_compose_the_cell_laplacians(g):
    # grad^T grad is the zero-flux Laplacian of the CH form, and
    # div diag(vol/vol_f) div^T = -div G_D the Darcy pressure operator:
    # the Darcy velocity gradient and its pressure operator are one form
    assume(g.dx != g.dy)
    ops = mac_operators(g)
    for matrix, ref in (
            (ops.grad.T @ ops.grad, minus_laplacian(g).matrix),
            (ops.div @ sp.diags(g.cell_volume / ops.vol_f) @ ops.div.T,
             minus_laplacian(g, np.inf).matrix),
            (-(ops.div @ ops.grad_dirichlet),
             minus_laplacian(g, np.inf).matrix)):
        ref = ref.toarray()
        assert np.max(np.abs(matrix.toarray() - ref)) \
            <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(grids, st.integers(0, 2**32 - 1))
def test_mac_operators_are_the_numpy_slices(g, seed):
    # each matrix against its face-by-face numpy formula; the gradient is
    # -div^T on interior faces and empty on boundary faces
    rng = np.random.default_rng(seed)
    ops = mac_operators(g)
    f = random_cell(g, rng)
    w = random_face(g, rng)
    for matrix, ref in (
            (ops.grad @ f.ravel(), numpy_gradient(g, f)),
            (ops.mean @ f.ravel(), numpy_face_mean(g, f)),
            (ops.grad_dirichlet @ f.ravel(), numpy_dirichlet_gradient(g, f))):
        assert np.allclose(matrix, np.concatenate([r.ravel() for r in ref]),
                           rtol=1e-13, atol=1e-13 * np.max(np.abs(matrix)))
    assert np.allclose(ops.div @ stacked(w),
                       numpy_divergence(g, w.x, w.y).ravel(), rtol=1e-13,
                       atol=1e-12)
    interior = np.concatenate([
        np.pad(np.ones((g.nx - 1, g.ny)), ((1, 1), (0, 0))).ravel(),
        np.pad(np.ones((g.nx, g.ny - 1)), ((0, 0), (1, 1))).ravel()])
    assert np.array_equal(np.diff(ops.grad.indptr) > 0, interior > 0)
    neg_div_t = (-ops.div.T).tocsr()[interior > 0]
    assert abs(neg_div_t - ops.grad[interior > 0]).max() == 0.0
    assert np.array_equal(ops.vol_f, stacked(FaceField(*face_volumes(g))))


def test_mac_operators_are_cached_and_read_only():
    g = Grid2D(7, 5, 1.0, 0.5)
    ops = mac_operators(g)
    assert mac_operators(Grid2D(7, 5, 1.0, 0.5)) is ops
    nf = (g.nx + 1) * g.ny + g.nx * (g.ny + 1)
    assert ops.div.shape == (g.n_cells, nf)
    for m in (ops.grad, ops.mean, ops.grad_dirichlet):
        assert m.shape == (nf, g.n_cells)
        assert not m.data.flags.writeable
    for arr in (ops.div.data, ops.below, ops.above, ops.vol_f):
        assert not arr.flags.writeable
    with pytest.raises(AttributeError):
        ops.div = None
    w = random_face(g, np.random.default_rng(3))
    back = unstacked(g, stacked(w))
    assert np.array_equal(back.x, w.x) and np.array_equal(back.y, w.y)


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
    assert np.allclose(divergence(g, vel), 0.0, atol=1e-12)
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


@settings(max_examples=40, deadline=None)
@given(grids, st.integers(0, 2**32 - 1))
def test_advect_upwind_matches_the_numpy_upwind_flux(g, seed):
    rng = np.random.default_rng(seed)
    phi = random_cell(g, rng)
    vel = random_face(g, rng)
    vel.x[rng.random(vel.x.shape) < 0.1] = 0.0
    ref = numpy_upwind_advection(g, phi, vel.x, vel.y)
    size = np.max(np.abs(phi)) * (np.max(np.abs(vel.x)) / g.dx
                                  + np.max(np.abs(vel.y)) / g.dy)
    assert np.max(np.abs(advect_upwind(g, phi, vel) - ref)) <= 1e-14 * size


def test_operators_linear(rng):
    g = Grid2D(9, 8)
    f1, f2 = random_cell(g, rng), random_cell(g, rng)
    a, b = 1.7, -0.4
    for op in (lambda f: gradient(g, f).x,
               lambda f: laplacian(g, f)):
        assert np.allclose(op(a * f1 + b * f2), a * op(f1) + b * op(f2),
                           atol=1e-12)
    w1, w2 = random_face(g, rng), random_face(g, rng)
    combo = FaceField(a * w1.x + b * w2.x, a * w1.y + b * w2.y)
    assert np.allclose(divergence(g, combo),
                       a * divergence(g, w1)
                       + b * divergence(g, w2), atol=1e-12)


def test_boundary_face_lengths_sum_to_perimeter():
    g = Grid2D(3, 4)
    lengths = boundary_faces(g).length
    assert lengths.sum() == pytest.approx(2 * (g.lx + g.ly))


@pytest.mark.parametrize("g", [Grid2D(5, 5), Grid2D(13, 7, 1.0, 0.6),
                               Grid2D(5, 3, 1.3, 0.7)],
                         ids=["5x5", "13x7", "5x3"])
def test_zero_flux_laplacian_is_the_gradients_normal_product(g):
    # the fast-diagonalization factors are the 1D gradients' normal
    # products, so the CH preconditioner's operator is the CH form's
    # grad^T grad bit for bit, not only to round-off
    grad = mac_operators(g).grad
    assert np.array_equal(minus_laplacian(g).matrix.toarray(),
                          (grad.T @ grad).toarray())


@settings(max_examples=40, deadline=None)
@given(grids)
def test_boundary_faces_close_their_cells(g):
    # each boundary face lies on the boundary, half its normal spacing from
    # the centre of the cell it closes, and spans that cell's side
    faces = boundary_faces(g)
    assert boundary_faces(Grid2D(g.nx, g.ny, g.lx, g.ly)) is faces
    n = g.n_boundary_faces()
    xc, yc = (c.ravel()[faces.cell] for c in g.cell_centers())
    on_x = np.isin(faces.x, (0.0, g.lx))
    assert faces.cell.shape == faces.x.shape == (n,)
    assert np.all(on_x | np.isin(faces.y, (0.0, g.ly)))
    assert np.allclose(np.where(on_x, abs(faces.x - xc), abs(faces.y - yc)),
                       faces.spacing / 2, rtol=1e-12)
    assert np.array_equal(np.where(on_x, faces.y, faces.x),
                          np.where(on_x, yc, xc))
    assert np.array_equal(faces.spacing, np.where(on_x, g.dx, g.dy))
    assert np.array_equal(faces.length, np.where(on_x, g.dy, g.dx))
    for arr in vars(faces).values():
        assert not arr.flags.writeable


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
        pattern, scatter, diagonal = form_pattern(*args)
        if ref is None:
            ref = const.toarray()
            ref[:n_left, :n_right] += (left.T.toarray() @ np.diag(w)
                                       @ right.toarray())
        out = form_matrix(pattern, scatter, w).toarray()
        assert out.shape == ref.shape
        assert np.allclose(out, ref, rtol=1e-13, atol=1e-13)
        assert pattern.has_sorted_indices
        rows = np.repeat(np.arange(pattern.shape[0]),
                         np.diff(pattern.indptr))
        assert np.array_equal(diagonal,
                              np.flatnonzero(pattern.indices == rows))
        assert not scatter.data.flags.writeable