"""Common container for (rho, u) trajectories sampled on a reference grid."""

from __future__ import annotations

from .fields import level_fields, level_times


class StateTrajectory:
    """Time levels of (rho, u) fields sampled on the reference grid.

    The samples live at the moving nodes X(t_m, y) of ``flow_map``: the
    reference representation of fields on Omega_t. A fixed domain is the
    flow map of V = 0, whose frames are the identity exactly.
    Every level is on the map's grid: rho has 1 component, u has 2.
    """

    def __init__(self, times, rho_fields, u_fields, flow_map):
        self.times = level_times(times)
        self.grid = flow_map.grid
        self.rho = level_fields(rho_fields, self.times, 1, "rho", self.grid)
        self.u = level_fields(u_fields, self.times, 2, "u", self.grid)
        self.flow_map = flow_map

    def __len__(self):
        return len(self.times)

    def positions(self, m):
        return self.frame(m).X

    def frame(self, m):
        """The flow map's :class:`~nsmove.motion.Frame` at level m."""
        return self.flow_map.frame(self.times[m])

    def physical_weights(self, m):
        """Trapezoid weights on the current physical image (w_ref * det)."""
        return self.grid.quadrature_weights() * self.frame(m).det.reshape(self.grid.shape)
