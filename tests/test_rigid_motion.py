"""Rigid motions as exact moving-domain solutions of the linear momentum
equation, for both boundary conditions.

V = alpha (x - c) + omega (x - c)^perp moves the unit square about its
centre c: a rotation (alpha = 0), or a rotation with dilation. u = V,
rho = exp(-2 alpha t) and F = 0 solve rho d_t u - div S(grad u) = F with
u.n = V.n: grad V = alpha I + omega J, so S(grad V) is a multiple of I,
div S = 0, and the tangential stress and the friction kappa (u - V).tau
vanish. On the reference square u~(t, z) = V(X(t, z)) = A e^{At} (z - c),
A = grad V, is linear in z, so the FD stencils are exact on it: the runs
check the frame, the transformed slip and no-slip data and Crank-Nicolson
in time, not the spatial order.

Each step time's remainder and boundary data are evaluated on the exact
u~(t), once per t. T = 0.2 in (n - 1) / 2 steps (dt = 2 h T), map step
dt / 4, mu = 0.3, eta = 0.1, and kappa = 0.5 for slip.
"""

from functools import lru_cache

import numpy as np
import pytest

from nsmove.fields import Field, Grid
from nsmove.lagrangian import lagrangian_remainder, transformed_boundary_data
from nsmove.momentum import (
    FluidParams,
    MomentumBC,
    momentum_energy_residual,
    solve_linear_momentum,
)
from nsmove.motion import MotionField, advect_flow_map

OMEGA, DILATION, T = 1.0, 0.3, 0.2
CENTRE = np.array([0.5, 0.5])


@lru_cache(maxsize=None)
def _run(alpha, n, kind):
    """(max over levels of max |u~_h - u~|, max |imbalance| of
    :func:`momentum_energy_residual`) of one rigid-motion run."""
    A = np.array([[alpha, -OMEGA], [OMEGA, alpha]])
    g = Grid((n, n), (0.0, 0.0), (1.0, 1.0))
    nodes = g.node_coords()
    V = MotionField.expression(
        lambda t, p: (p - CENTRE) @ A.T, 2,
        grad_fn=lambda t, p: np.broadcast_to(A, p.shape + (2,)).copy())
    dt = T / ((n - 1) // 2)
    fm = advect_flow_map(V, g, T, dt / 4)
    params = FluidParams(mu=0.3, eta=0.1, kappa=0.5 if kind == "slip" else 0.0, bc=kind)

    def exact(t, z):
        """u~(t, z) = V(X(t, z)), X(t, z) = c + e^{alpha t} R(omega t) (z - c)."""
        c, s = np.cos(OMEGA * t), np.sin(OMEGA * t)
        return (z - CENTRE) @ (np.exp(alpha * t) * A @ np.array([[c, -s], [s, c]])).T

    def density(t):
        return np.full(g.num_nodes, np.exp(-2.0 * alpha * t))

    def field(t):
        return Field(g, exact(t, nodes).T.reshape((2,) + g.shape), t)

    @lru_cache(maxsize=None)
    def rhs(t):
        rho = Field(g, density(t).reshape(g.shape), t)
        return lagrangian_remainder(rho, field(t), fm, V, t, params).total.values.reshape(2, -1).T

    @lru_cache(maxsize=None)
    def bdata(t):
        return transformed_boundary_data(field(t), V, fm, t, params)

    if kind == "slip":
        bc = MomentumBC.slip(V.velocity, lambda t, face: bdata(t).normal(face),
                             lambda t, face: bdata(t).stress(face))
    else:
        bc = MomentumBC.no_slip(exact)
    levels, _ = solve_linear_momentum(density, rhs, bc, field(0.0), params, dt, T)
    err = max(np.max(np.abs(f.values.reshape(2, -1).T - exact(f.t, nodes))) for f in levels)
    records = momentum_energy_residual(levels, [f.t for f in levels], density, rhs, params, bc)
    return err, max(abs(r["imbalance"]) for r in records)


@pytest.mark.parametrize("kind", ["slip", "no-slip"])
@pytest.mark.parametrize("alpha", [0.0, DILATION], ids=["rotation", "rotation+dilation"])
def test_rigid_motion_second_order(alpha, kind):
    # measured: 3.10e-6 -> 7.75e-7 (rotation, slip), 1.04e-7 -> 2.59e-8
    # (rotation, no-slip), 3.44e-6 -> 8.61e-7 and 1.75e-7 -> 4.38e-8 with
    # the dilation; |u~| is up to 0.6
    coarse, fine = (_run(alpha, n, kind)[0] for n in (33, 65))
    assert np.log2(coarse / fine) >= 1.8


def test_rotation_slip_imbalance_closes():
    # the normal traction's work on the constrained dofs is counted; without
    # it the imbalance is the reaction work, 0.028-0.031, at every n
    # (measured with it: 1.45e-6 / 1.47e-7 / 1.39e-8)
    imbalance = [_run(0.0, n, "slip")[1] for n in (17, 33, 65)]
    assert imbalance[0] >= 4 * imbalance[1] and imbalance[1] >= 4 * imbalance[2]


def test_rotation_no_slip_imbalance_closes():
    # every boundary dof is constrained, so the whole traction works
    # (measured: 6.2e-9 / 9.4e-10 / 4.4e-11)
    assert all(_run(0.0, n, "no-slip")[1] <= 1e-8 for n in (17, 33, 65))
