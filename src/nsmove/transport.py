"""Linear continuity equation on the moving domain by characteristics.

The density along the trajectory launched from a reference node z is

    rho(t, X(t, z)) = rho0(z) * exp(-int_0^t div v(s, X(s, z)) ds),

with the line integral accumulated inside the same RK4 stages that advance
the feet, so positivity and the exponential/Jacobian mass cancellation hold
at the discrete level. A stage asks the velocity for v and grad v in one
``velocity_and_gradient(t, x)`` call; div v is the trace of grad v. The
trajectory stores X, gradX and I only; grad rho is the shared
finite-difference stencil on the density field.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, PositivityViolationError
from .fields import (
    Field,
    blend_levels,
    gradient_values,
    interp_matrix,
    level_bracket,
    level_fields,
    level_times,
)
from .motion import FlowMap, _rk4_levels, physical_gradient


class DiscreteVelocity:
    """Velocity known as per-level fields u(t_m, y) on one static grid.

    The levels are 2-component fields, linearly interpolated in time; a point
    outside the rectangle raises :class:`~nsmove.errors.OutOfDomainError`.
    On a moving domain, transport runs in the reference frame: the levels are
    the ALE relative velocity w = gradY (u~ - V o X) at the nodes and the
    transported density is q = det gradX rho~ (dq/dt + div_y(q w) = 0). The
    physical foot is X(t, Z) and rho~ = q / det gradX(t, Z); (u~ - V).n = 0
    on the boundary gives w.n_ref = 0, which keeps Z in the rectangle.

    :meth:`velocity_and_gradient` is the one call an RK4 stage makes: the
    bracketing levels blended, then interpolated with one sparse matrix. The
    blend of the last stage time is kept, so the two RK4 stages at t + dt/2,
    and a step's last stage and the next step's first, both at (m + 1) dt,
    blend once; at a stored level's time the level is read unblended. A
    level's data are u | grad u | 0, (N, 7): nothing reads the zero column,
    but scipy 1.17's CSR x dense product takes 0.84 ms at 7 columns against
    1.27 ms at 6 (129^2 points, 16 entries per row, one thread of a 2-core
    VM), and the first six keep their bits.
    """

    def __init__(self, times, fields):
        self.times = level_times(times)
        self.fields = level_fields(fields, self.times, 2, "velocity")
        self.grid = self.fields[0].grid
        self._level_cache = {}
        self._blend = None

    def _level_data(self, m):
        """Nodal u | grad u | 0 at level m, node-major (N, 7)."""
        f = self.fields[m]
        out = np.zeros((self.grid.num_nodes, 7))   # the zero column: see the class docstring
        out[:, :2], out[:, 2:6] = f.values.reshape(2, -1).T, gradient_values(f).reshape(4, -1).T
        return out

    def velocity_and_gradient(self, t, pts):
        """u and grad u at (t, pts), (npts, 2) and (npts, 2, 2)."""
        if self._blend is None or self._blend[0] != t:
            # the stale blend is freed before new arrays are built
            self._blend = None
            m, w = level_bracket(self.times, t)
            # keep only the bracketing levels
            self._level_cache = {k: self._level_cache[k] if k in self._level_cache
                                 else self._level_data(k)
                                 for k in ((m,) if w == 0.0 else (m, m + 1))}
            self._blend = (t, blend_levels(self._level_cache, self.times, t))
        vals = interp_matrix(self.grid, pts) @ self._blend[1]
        return vals[:, :2], vals[:, 2:6].reshape(-1, 2, 2)


_FEET_TOL = 1e-10   # max |x - X(t, z)| at which x is read as the feet


class DensityTrajectory:
    """Characteristics solution: feet, Jacobians, divergence integrals.

    Stored per level: the feet X(t_m, z) and gradX(t_m, z) as ``flow_map``,
    the forward map of the transporting velocity, and the divergence
    integral I accumulated inside the RK4 stages. The per-level density
    field holds values rho(t_m, X(t_m, z)) = rho0(z) exp(-I).
    """

    def __init__(self, rho0, times, X, J, I):
        self.rho0 = rho0
        self.grid = rho0.grid
        self.times = np.asarray(times, dtype=float)
        self.flow_map = FlowMap(self.grid, self.times, X, J)
        self.I = I

    def density_field(self, t):
        vals = self.rho0.values[0].ravel() * np.exp(-blend_levels(self.I, self.times, t))
        return Field(self.grid, vals.reshape(self.grid.shape), t)

    def eval_physical(self, t, x):
        """rho(t, x) and Y(t, x) at the feet x = X(t, z), in node order: the
        density field's values and the nodes. Any other x (shape, distance
        from the feet above ``_FEET_TOL``, NaN) raises
        :class:`~nsmove.errors.InvalidArgumentError` naming t."""
        feet, x = self.flow_map.positions(t), np.asarray(x, dtype=float)
        gap = np.max(np.abs(x - feet)) if x.shape == feet.shape else np.nan
        if not gap <= _FEET_TOL:
            raise InvalidArgumentError(
                f"rho is read at its feet only: at t={t}, x of shape {x.shape} is "
                f"{gap:.3e} from X(t, z) of shape {feet.shape}")
        return self.density_field(t).values.ravel(), self.grid.node_coords()

    def min_density(self, t):
        return float(np.min(self.density_field(t).values))


def solve_transport(rho0, v, T, dt):
    """Solve the linear continuity equation along characteristics of v.

    ``v`` (an analytic motion field or a :class:`DiscreteVelocity`) is
    asked once per RK4 stage for ``v.velocity_and_gradient(t, x)`` at the
    feet; div v is the trace of the gradient.
    Requires rho0 > 0 everywhere; the solution then stays positive by
    construction of the exponential formula. Feet that fold (det gradX <= 0)
    raise :class:`~nsmove.errors.DegenerateMapError` at that level's t.
    """
    if rho0.ncomp != 1:
        raise InvalidArgumentError(f"rho0 has {rho0.ncomp} components; expected 1")
    rho, low = rho0.values.ravel(), int(np.argmin(rho0.values))
    if not rho[low] > 0:
        z = rho0.grid.node_coords()[low]
        raise PositivityViolationError(
            f"initial density {rho[low]:.3e} is not positive at t=0, z={z}", t=0.0, z=z)
    times, levels = _rk4_levels(v, rho0.grid, T, dt, "I")
    return DensityTrajectory(rho0, times, levels["X"], levels["J"], levels["I"])


def density_gradient(traj, t):
    """Physical-space gradient grad_x rho at the characteristic feet.

    :func:`~nsmove.motion.physical_gradient` of the density field
    rho(t, X(t, z)), as for grad u; O(h^2). Returned as a d-component
    Field sampled at the feet X(t, z).
    """
    gx = physical_gradient(traj.density_field(t), traj.flow_map.frame(t))[0]
    return Field(traj.grid, gx.reshape(-1, *traj.grid.shape), t)


def mass_total(traj, t):
    """Mass over the moving domain: reference quadrature of rho detGradX."""
    rho = traj.density_field(t).values[0]
    det = traj.flow_map.frame(t).det.reshape(traj.grid.shape)
    w = traj.grid.quadrature_weights()
    return float(np.sum(w * rho * det))
