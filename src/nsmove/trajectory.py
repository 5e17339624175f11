"""Common container for (rho, u) trajectories sampled on a reference grid."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .fields import gradient_values
from .motion import physical_gradient


class StateTrajectory:
    """Time levels of (rho, u) fields sampled on the reference grid.

    When a flow map is attached, the samples live at the moving nodes
    X(t_m, y) (reference representation of fields on Omega_t); with
    ``flow_map=None`` the domain is static and samples sit at the nodes.
    """

    def __init__(self, times, rho_fields, u_fields, flow_map=None, meta=None):
        self.times = np.asarray(times, dtype=float)
        self.rho = list(rho_fields)
        self.u = list(u_fields)
        if len(self.rho) != len(self.times) or len(self.u) != len(self.times):
            raise InvalidArgumentError("one rho and one u field per time level")
        self.flow_map = flow_map
        self.grid = self.rho[0].grid
        self.meta = dict(meta or {})

    def __len__(self):
        return len(self.times)

    def positions(self, m):
        if self.flow_map is None:
            return self.grid.node_coords()
        return self.frame(m).X

    def frame(self, m):
        """The flow map's :class:`~nsmove.motion.Frame` at level m; ``None``
        on a static domain."""
        if self.flow_map is None:
            return None
        return self.flow_map.frame(self.times[m])

    def physical_weights(self, m):
        """Trapezoid weights on the current physical image (w_ref * det)."""
        w = self.grid.quadrature_weights()
        if self.flow_map is None:
            return w
        return w * self.frame(m).det.reshape(self.grid.shape)

    def physical_velocity_gradient(self, m):
        """grad_x u as (N, d, d) via the inverse Jacobian transform."""
        return physical_gradient(gradient_values(self.u[m]), self.frame(m))
