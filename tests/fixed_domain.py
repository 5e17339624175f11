"""A fixed domain as the flow map of V = 0.

Every moving-frame layer takes a flow map; a fixed domain is the map of
V = 0, whose positions are the nodes and whose Jacobians and their
inverses are the identity, exactly.
"""

import numpy as np

from nsmove.motion import MotionField, advect_flow_map


def fixed_map(grid, times):
    """The flow map of V = 0 on ``grid``, stored at the uniform level
    ``times`` from 0 (one level for ``times = [0.0]``)."""
    times = np.asarray(times, dtype=float)
    dt = times[1] if len(times) > 1 else 1.0
    return advect_flow_map(MotionField.zero(), grid, times[-1], dt)
