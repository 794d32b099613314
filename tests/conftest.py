import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def dense_solve(a, b):
    """Dense LU oracle for small systems."""
    return np.linalg.solve(np.asarray(a.todense()), np.asarray(b))


# The MAC operators written out as numpy slices: references for the cached
# sparse matrices of ``grid.mac_operators`` and the code that reads them.

def numpy_gradient(g, f):
    """(gx, gy): (f[i] - f[i-1])/h across interior faces, 0 on boundary
    faces."""
    gx = np.zeros((g.nx + 1, g.ny))
    gy = np.zeros((g.nx, g.ny + 1))
    gx[1:-1, :] = (f[1:, :] - f[:-1, :]) / g.dx
    gy[:, 1:-1] = (f[:, 1:] - f[:, :-1]) / g.dy
    return gx, gy


def numpy_divergence(g, wx, wy):
    return (wx[1:, :] - wx[:-1, :]) / g.dx + (wy[:, 1:] - wy[:, :-1]) / g.dy


def numpy_face_mean(g, f):
    """(ax, ay): the two-cell mean, the adjacent cell on boundary faces."""
    ax = np.empty((g.nx + 1, g.ny))
    ax[1:-1, :] = 0.5 * (f[1:, :] + f[:-1, :])
    ax[0, :], ax[-1, :] = f[0, :], f[-1, :]
    ay = np.empty((g.nx, g.ny + 1))
    ay[:, 1:-1] = 0.5 * (f[:, 1:] + f[:, :-1])
    ay[:, 0], ay[:, -1] = f[:, 0], f[:, -1]
    return ax, ay


def numpy_dirichlet_gradient(g, p):
    """The gradient with p = 0 ghost values on boundary faces."""
    gx, gy = numpy_gradient(g, p)
    gx[0, :], gx[-1, :] = p[0, :] / (0.5 * g.dx), -p[-1, :] / (0.5 * g.dx)
    gy[:, 0], gy[:, -1] = p[:, 0] / (0.5 * g.dy), -p[:, -1] / (0.5 * g.dy)
    return gx, gy


def numpy_upwind_advection(g, phi, vx, vy):
    """div(v*phi) with phi from the upwind cell of each interior face and
    from the adjacent cell on boundary faces."""
    fx = np.empty((g.nx + 1, g.ny))
    fx[1:-1, :] = vx[1:-1, :] * np.where(vx[1:-1, :] > 0, phi[:-1, :],
                                         phi[1:, :])
    fx[0, :], fx[-1, :] = vx[0, :] * phi[0, :], vx[-1, :] * phi[-1, :]
    fy = np.empty((g.nx, g.ny + 1))
    fy[:, 1:-1] = vy[:, 1:-1] * np.where(vy[:, 1:-1] > 0, phi[:, :-1],
                                         phi[:, 1:])
    fy[:, 0], fy[:, -1] = vy[:, 0] * phi[:, 0], vy[:, -1] * phi[:, -1]
    return numpy_divergence(g, fx, fy)
