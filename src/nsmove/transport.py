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
from .fields import Field, gradient_values, interp_matrix, interp_values
from .motion import FlowMap, _mat_inv, _check_steps, _OdeState, mat_det, rk4_step


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
        gy = np.moveaxis(gradient_values(f), (0, 1), (-2, -1)).reshape(N, d, d)
        if self.flow_map is None or self.flow_map.is_identity:
            Jinv = np.broadcast_to(np.eye(d), (N, d, d))
        else:
            Jinv = _mat_inv(self.flow_map.jacobians(self.times[m]))
        gx = np.einsum("nij,njk->nik", gy, Jinv)  # du_i/dx_k
        div = np.einsum("nii->n", gx)
        divf = Field(self.grid, div.reshape(self.grid.shape), self.times[m])
        gdiv_y = gradient_values(divf)[0].reshape(d, N).T  # d(div)/dy_j
        gdiv_x = np.einsum("nji,nj->ni", Jinv, gdiv_y)
        return np.concatenate([f.values.reshape(d, N).T, div[:, None],
                               gx.reshape(N, d * d), gdiv_x], axis=1)

    def _time_bracket(self, t):
        times = self.times
        t = min(max(t, times[0]), times[-1])
        m = int(np.searchsorted(times, t, side="right") - 1)
        m = min(m, len(times) - 2) if len(times) > 1 else 0
        if len(times) == 1:
            return 0, 0, 0.0
        w = (t - times[m]) / (times[m + 1] - times[m])
        return m, m + 1, w

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
        m0, m1, w = self._time_bracket(t)
        # keep only the bracketing levels
        self._level_cache = {m: self._level_cache[m] if m in self._level_cache
                             else self._level_data(m) for m in (m0, m1)}
        lev = self._level_cache[m0]
        if w != 0.0 and m0 != m1:
            lev = (1 - w) * lev + w * self._level_cache[m1]
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

    Stored per level: X(t_m, z), gradX(t_m, z), the accumulated divergence
    integral I, and its gradient-propagation companion G (both accumulated
    inside the RK4 stages). The per-level density field holds values
    rho(t_m, X(t_m, z)) = rho0(z) exp(-I).
    """

    def __init__(self, rho0, times, X, J, I, G, velocity=None):
        self.rho0 = rho0
        self.grid = rho0.grid
        self.times = np.asarray(times, dtype=float)
        self.X = X
        self.J = J
        self.I = I
        self.G = G
        self.velocity = velocity
        self._map = None

    @property
    def flow_map(self):
        """Forward map of the transporting velocity, for inversion queries."""
        if self._map is None:
            self._map = FlowMap(self.grid, self.times, self.X, self.J, motion=None)
        return self._map

    def _interp(self, arr, t):
        m, w = self.flow_map._bracket(t)
        return arr[m] if w == 0.0 else (1 - w) * arr[m] + w * arr[m + 1]

    def density_field(self, t):
        vals = self.rho0.values[0].ravel() * np.exp(-self._interp(self.I, t))
        return Field(self.grid, vals.reshape(self.grid.shape), t)

    def positions(self, t):
        return self._interp(self.X, t)

    def jacobians(self, t):
        return self._interp(self.J, t)

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
    return DensityTrajectory(rho0, times, X, J, I, G, velocity=v)


def density_gradient(traj, t):
    """Physical-space gradient grad_x rho at the characteristic feet.

    Differentiating the exponential solution formula in z gives
    grad_x rho . gradX = exp(-I) (grad_z rho0 - rho0 G); the result is the
    inverse-transpose Jacobian applied to that bracket, returned as a
    d-component Field sampled at the feet X(t, z).
    """
    grid = traj.grid
    d = grid.dim
    J = traj.jacobians(t)
    JinvT = np.swapaxes(_mat_inv(J), -1, -2)
    expI = np.exp(-traj._interp(traj.I, t))
    G = traj._interp(traj.G, t)
    grad0 = gradient_values(traj.rho0)[0]        # (d,)+shape
    grad0 = grad0.reshape(d, -1).T               # (N, d)
    rho0 = traj.rho0.values[0].ravel()
    bracket = expI[:, None] * (grad0 - rho0[:, None] * G)
    gx = np.einsum("pij,pj->pi", JinvT, bracket)
    return Field(grid, gx.T.reshape((d,) + tuple(grid.shape)), t)


def mass_total(traj, t):
    """Mass over the moving domain: reference quadrature of rho detGradX."""
    rho = traj.density_field(t).values[0]
    det = mat_det(traj.jacobians(t)).reshape(traj.grid.shape)
    w = traj.grid.quadrature_weights()
    return float(np.sum(w * rho * det))


def transport_series(traj):
    """Per-level summary rows (t, mass, min rho, max rho, H1, H2 norms)."""
    from .fields import sobolev_norm

    rows = []
    for m, t in enumerate(traj.times):
        f = traj.density_field(t)
        rows.append((
            float(t),
            mass_total(traj, t),
            float(np.min(f.values)),
            float(np.max(f.values)),
            sobolev_norm(f, 1, 2),
            sobolev_norm(f, 2, 2),
        ))
    return rows
