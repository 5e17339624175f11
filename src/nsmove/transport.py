"""Linear continuity equation on the moving domain by characteristics.

The density along the trajectory launched from a reference node z is

    rho(t, X(t, z)) = rho0(z) * exp(-int_0^t div v(s, X(s, z)) ds),

with the line integral accumulated inside the same RK4 stages that advance
the feet, so positivity and the exponential/Jacobian mass cancellation hold
at the discrete level.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, PositivityViolationError
from .fields import (
    Field,
    blend_levels,
    gradient_values,
    interp_matrix,
    interp_values,
    level_bracket,
)
from .motion import FlowMap, _check_steps, _OdeState, physical_gradient, rk4_step


class DiscreteVelocity:
    """Velocity known as per-level reference-sampled fields u(t_m, X(t_m, y)).

    ``flow_map`` is the flow map X of the velocity that moves the domain: the
    level fields hold u at the images X(t_m, y) of the reference nodes y.
    ``None`` means the fields live on a static grid. Physical-point
    evaluation inverts the map, then interpolates; spatial derivatives go
    through the Jacobian transforms. Linear interpolation in time between
    levels.

    The four protocol methods return read-only column slices of one cached
    stage: per (t, points), the bracketing levels blended, then interpolated
    with one sparse matrix.
    """

    def __init__(self, times, fields, flow_map=None):
        self.times = np.asarray(times, dtype=float)
        self.fields = list(fields)
        if len(self.times) != len(self.fields):
            raise InvalidArgumentError("one velocity field per time level required")
        self.flow_map = flow_map
        self.grid = self.fields[0].grid
        self.dim = self.grid.dim
        self._level_cache = {}
        self._stage_cache = None
        self._seed = None

    # -- reference-side per-level derived fields ---------------------------

    def _level_data(self, m):
        """Nodal u | div_x u | grad_x u | grad_x div_x u at level m, stacked
        node-major into (N, d + 1 + d^2 + d), reference-sampled."""
        f = self.fields[m]
        d, N = self.dim, self.grid.num_nodes
        frame = None
        if self.flow_map is not None and not self.flow_map.is_identity:
            frame = self.flow_map.frame(self.times[m])
        gx = physical_gradient(gradient_values(f), frame)  # du_i/dx_k
        div = np.einsum("nii->n", gx)
        divf = Field(self.grid, div.reshape(self.grid.shape), self.times[m])
        gdiv_x = physical_gradient(gradient_values(divf), frame)[:, 0]
        return np.concatenate([f.values.reshape(d, N).T, div[:, None],
                               gx.reshape(N, d * d), gdiv_x], axis=1)

    def _to_ref(self, t, x):
        if self.flow_map is None or self.flow_map.is_identity:
            return np.atleast_2d(np.asarray(x, dtype=float))
        seed = self._seed if (self._seed is not None
                              and self._seed.shape == np.shape(x)) else None
        z = self.flow_map.invert(t, x, seed=seed)
        self._seed = z
        return z

    def _stage(self, t, x):
        """Interpolated stacked level data at (t, x), cached for the last pair."""
        cached = self._stage_cache
        if cached is not None and cached[0] == t and np.array_equal(cached[1], x):
            return cached[2]
        z = self._to_ref(t, x)
        m, w = level_bracket(self.times, t)
        # keep only the bracketing levels
        self._level_cache = {k: self._level_cache[k] if k in self._level_cache
                             else self._level_data(k)
                             for k in ((m,) if w == 0.0 else (m, m + 1))}
        lev = blend_levels(self._level_cache, self.times, t)
        vals = interp_matrix(self.grid, z, out_of_bounds="clamp") @ lev
        vals.setflags(write=False)
        self._stage_cache = (t, np.array(x, dtype=float), vals)
        return vals

    # -- VelocitySource protocol -------------------------------------------

    def velocity(self, t, pts):
        return self._stage(t, pts)[:, :self.dim]

    def gradient(self, t, pts):
        d = self.dim
        return self._stage(t, pts)[:, d + 1:d + 1 + d * d].reshape(-1, d, d)

    def divergence(self, t, pts):
        return self._stage(t, pts)[:, self.dim]

    def grad_divergence(self, t, pts):
        d = self.dim
        return self._stage(t, pts)[:, d + 1 + d * d:]


class DensityTrajectory:
    """Characteristics solution: feet, Jacobians, divergence integrals.

    Stored per level: the feet X(t_m, z) and gradX(t_m, z) as ``flow_map``,
    the forward map of the transporting velocity; the accumulated divergence
    integral I, and its gradient-propagation companion G (both accumulated
    inside the RK4 stages). The per-level density field holds values
    rho(t_m, X(t_m, z)) = rho0(z) exp(-I).
    """

    def __init__(self, rho0, times, X, J, I, G):
        self.rho0 = rho0
        self.grid = rho0.grid
        self.times = np.asarray(times, dtype=float)
        self.flow_map = FlowMap(self.grid, self.times, X, J)
        self.I = I
        self.G = G

    def density_field(self, t):
        vals = self.rho0.values[0].ravel() * np.exp(-blend_levels(self.I, self.times, t))
        return Field(self.grid, vals.reshape(self.grid.shape), t)

    def eval_physical(self, t, x, seed=None):
        """rho(t, x) for physical points x in the current image domain."""
        z = self.flow_map.invert(t, x, seed=seed)
        rho_bar = self.density_field(t)
        vals = interp_values(self.grid, rho_bar.values, z, out_of_bounds="clamp")
        return vals[:, 0], z

    def min_density(self, t):
        return float(np.min(self.density_field(t).values))


def solve_transport(rho0, v, T, dt, *, t0=0.0):
    """Solve the linear continuity equation along characteristics of v.

    ``v`` supplies values, gradient, divergence and grad-divergence along
    the feet (an analytic motion field or a :class:`DiscreteVelocity`).
    Requires rho0 > 0 everywhere; the solution then stays positive by
    construction of the exponential formula.
    """
    if np.any(rho0.values <= 0):
        raise PositivityViolationError("initial density must be positive")
    steps = _check_steps(T, dt)
    grid = rho0.grid
    N, d = grid.num_nodes, grid.dim
    st = _OdeState(
        grid.node_coords(),
        np.broadcast_to(np.eye(d), (N, d, d)).copy(),
        None,
        np.zeros(N),
        np.zeros((N, d)),
    )
    times = t0 + dt * np.arange(steps + 1)
    X, J, I, G = (np.empty((steps + 1,) + a.shape) for a in (st.X, st.J, st.I, st.G))
    X[0], J[0], I[0], G[0] = st.X, st.J, st.I, st.G
    for m in range(steps):
        st = rk4_step(v, times[m], dt, st)
        X[m + 1], J[m + 1], I[m + 1], G[m + 1] = st.X, st.J, st.I, st.G
    return DensityTrajectory(rho0, times, X, J, I, G)


def density_gradient(traj, t):
    """Physical-space gradient grad_x rho at the characteristic feet.

    Differentiating the exponential solution formula in z gives
    grad_x rho . gradX = exp(-I) (grad_z rho0 - rho0 G); the result is the
    inverse-transpose Jacobian applied to that bracket, returned as a
    d-component Field sampled at the feet X(t, z).
    """
    grid = traj.grid
    expI = np.exp(-blend_levels(traj.I, traj.times, t))
    G = blend_levels(traj.G, traj.times, t)
    grad0 = gradient_values(traj.rho0)[:, 0]     # (N, d)
    rho0 = traj.rho0.values[0].ravel()
    bracket = expI[:, None] * (grad0 - rho0[:, None] * G)
    gx = physical_gradient(bracket[:, None], traj.flow_map.frame(t))[:, 0]
    return Field(grid, gx.T.reshape((grid.dim,) + tuple(grid.shape)), t)


def mass_total(traj, t):
    """Mass over the moving domain: reference quadrature of rho detGradX."""
    rho = traj.density_field(t).values[0]
    det = traj.flow_map.frame(t).det.reshape(traj.grid.shape)
    w = traj.grid.quadrature_weights()
    return float(np.sum(w * rho * det))
