"""The x-only embedding of the interval oracles.

An oracle with a closed form on an interval runs on a thin rectangle whose
y-axis carries nothing: the interval's nodes along x and a few along y, a
velocity (v(x), 0) with exact derivatives, and data constant in y. The
closed form then holds for the x-component unchanged, and the y-component
stays zero.
"""

import numpy as np

from nsmove.fields import Field, Grid
from nsmove.motion import MotionField


def thin_grid(n, lo=0.0, hi=1.0, ny=5):
    """n nodes on [lo, hi] along x and ny on [0, 1] along y."""
    return Grid((n, ny), (lo, 0.0), (hi, 1.0))


def x_points(x, y=0.5):
    """The points (x, y) for each entry of the 1-D array x: (len(x), 2)."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([x, np.full(len(x), y)])


def x_field(grid, f, t=0.0, vector=False):
    """f(x) at the nodes, constant in y; with ``vector`` the velocity
    (f(x), 0)."""
    if vector:
        return Field.from_function(
            grid, lambda p: np.column_stack([f(p[:, 0]), np.zeros(len(p))]), t=t, ncomp=2)
    return Field.from_function(grid, lambda p: f(p[:, 0]), t=t)


def x_motion(v, dv, d2v):
    """The steady velocity V = (v(x), 0) with its exact first and second
    gradients (dv = v', d2v = v'')."""
    def velocity(t, p):
        out = np.zeros_like(p)
        out[..., 0] = v(p[..., 0])
        return out

    def gradient(t, p):
        g = np.zeros(p.shape + (2,))
        g[..., 0, 0] = dv(p[..., 0])
        return g

    def gradient2(t, p):
        g = np.zeros(p.shape + (2, 2))
        g[..., 0, 0, 0] = d2v(p[..., 0])
        return g

    return MotionField.expression(velocity, 2, dt_fn=lambda t, p: np.zeros_like(p),
                                  grad_fn=gradient, grad2_fn=gradient2)


def x_dilation(alpha):
    """V = (alpha x, 0): X(t, z) = (z_x e^{alpha t}, z_y), div V = alpha."""
    return x_motion(lambda x: alpha * x, lambda x: np.full_like(x, alpha), np.zeros_like)
