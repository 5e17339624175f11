"""Boundary-data extension on the reference rectangle, flat-face case.

Given per-face normal data d and tangential-stress data B (plus optional
context fields u, V whose frame gaps generated the data), builds a vector
field on the reference domain whose trace reproduces d exactly at the face
nodes and whose FD tangential-stress trace (``stress_trace_fd``) reproduces
B. With zero context the stress identity holds to round-off at every face
node, given three things: no context fields, data that vanish in the
corner collars, and the first two node layers inside the cutoff plateau
(2h <= eps; with the default eps = 1/8 on the unit square, n = 17 gives
an error of 3.6e-16, while n = 13 gives 1.07 and n = 9 gives 3.4). With
context fields it holds to stencil accuracy; no order beyond that is
proven (the linear-u case measures round-off, <= 5.4e-15 up to n = 129).

Per face, in the local frame (tau along the face, nu = -n inward, distance
q from the face):

  normal component:   frame-gap trace expression + residual datum, constant
                      along the inward ray;
  tangential part 1:  trace choice T_tau(y) plus the three-point sampling
                      2 sum C_ab [u_a(foot + q e_b) - u_a(foot + (q/2) e_b)]
                      whose q-derivative at the face realizes the
                      context-derivative content of B (coefficient table C
                      re-derived by matching the stress identity);
  tangential part 2:  q * P(s), the line integral from the face of the
                      lower-order residual that closes the identity at the
                      face nodes. It is linear in q, so the one-sided FD
                      q-derivative is exact on it while 2h <= eps, and P's
                      tangential derivative of d uses ``fields._diff_axis``,
                      the stencil ``stress_trace_fd`` applies; the
                      zero-context identity is exact to round-off only
                      because both use that one stencil.

Everything is multiplied by a C^2 quintic cutoff (1 for q <= eps, 0 beyond
2 eps) and faces are blended by normalized smoothstep weights near corners.
Corner-overlap traces are exact only for data vanishing there (or
corner-compatible data); the criteria exercise mid-face-supported data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedDimensionError
from .fields import Field, _diff_axis, differentiate, gradient_values, interp_values


def smoothstep(t):
    """Quintic C^2 smoothstep: 0 -> 1 on [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def cutoff_profile(q, eps):
    """1 for q <= eps, quintic decay to 0 at q >= 2 eps."""
    return 1.0 - smoothstep((q - eps) / eps)


@dataclass
class ExtensionField:
    """Extension u^b with its construction parts and the cutoff width."""

    field: Field          # the blended, cut-off extension
    part1: Field          # trace + three-point-sampling contribution
    part2: Field          # line-integral (q * P) contribution
    eps: float
    t: float


class _FaceContext:
    """Per-face frame gaps and the stress-datum coefficient table.

    ``frame`` is None for zero context, else the map's
    :class:`~nsmove.motion.Frame` at t, shared by the four faces.
    """

    def __init__(self, face, nodes, V, frame, t, mu):
        flat = face.flat
        m = len(flat)
        self.flat = flat
        self.n_ref = face.normal
        self.tau_ref = face.tangent
        self.foot = nodes[flat]
        if frame is None:
            self.n_X = np.broadcast_to(self.n_ref, (m, 2)).copy()
            self.tau_X = np.broadcast_to(self.tau_ref, (m, 2)).copy()
            self.dn = np.zeros((m, 2))
            self.dtau = np.zeros((m, 2))
            self.dV = np.zeros((m, 2))
            self.A = np.zeros((m, 2, 2))
            self.gradV_foot = np.zeros((m, 2, 2))
            return
        _, n_X, tau_X = frame.faces[face.name]
        self.n_X, self.tau_X = n_X, tau_X
        self.dn = self.n_ref - n_X
        self.dtau = self.tau_ref - tau_X
        self.dV = V.velocity(t, frame.X[flat]) - V.velocity(t, self.foot)
        self.gradV_foot = V.gradient(t, self.foot)
        Jgap = np.eye(2) - frame.inv[flat]
        # coefficient of dU_a/dy_b in the stress datum B
        self.A = mu * (np.einsum("pbj,pj,pa->pab", Jgap, n_X, tau_X)
                       + np.einsum("pbj,pj,pa->pab", Jgap, tau_X, n_X)
                       + np.einsum("pb,pa->pab", self.dn, tau_X)
                       + np.einsum("pa,pb->pab", self.dn, tau_X)
                       + np.einsum("pb,a->pab", self.dtau,
                                   np.asarray(self.n_ref))
                       + np.einsum("pa,b->pab", self.dtau,
                                   np.asarray(self.n_ref)))


def extend_boundary_data(bdata, grid, *, u_ref=None, V=None, flow_map=None,
                         params=None, eps=None, t=None):
    """Construct the extension of the boundary data (d, B) on the rectangle.

    ``bdata`` is a :class:`~nsmove.lagrangian.BoundaryData`; context fields
    are optional (zero context extends raw data). ``eps`` is the collar
    half-width (default: one eighth of the shortest extent; the support is
    confined to q < 2 eps).
    """
    if grid.dim != 2:
        raise UnsupportedDimensionError("the extension construction needs d = 2")
    mu = params.mu if params is not None else 1.0
    kappa = params.kappa if params is not None else 0.0
    extents = [hi - lo for lo, hi in zip(grid.lo, grid.hi)]
    if eps is None:
        eps = min(extents) / 8.0
    if 2 * eps >= min(extents) / 2.0:
        raise InvalidArgumentError(
            f"collar width 2*eps = {2 * eps} too wide for extents {extents}")
    t = bdata.t if t is None else t

    nodes = grid.node_coords()
    shape = tuple(grid.shape)
    N = grid.num_nodes
    uvals = (np.zeros((N, 2)) if u_ref is None
             else u_ref.values.reshape(2, -1).T)
    G_all = np.zeros((N, 2, 2)) if u_ref is None else gradient_values(u_ref)
    Vy_all = (np.zeros((N, 2)) if V is None
              else V.velocity(t, nodes))

    frame = None
    if flow_map is not None and V is not None:
        frame = flow_map.frame(t)

    total = np.zeros((N, 2))
    tot1 = np.zeros((N, 2))
    tot2 = np.zeros((N, 2))
    weight_sum = np.zeros(N)

    for face in grid.faces().values():
        ctx = _FaceContext(face, nodes, V, frame, t, mu)
        axis = face.axis
        s_axis = 1 - axis
        hs = grid.spacing[s_axis]
        # inward distance from this face, per node
        coord = nodes[:, axis]
        q = (coord - grid.lo[axis]) if face.name.endswith("0") else (grid.hi[axis] - coord)
        s_index = np.unravel_index(np.arange(N), shape)[s_axis]

        d_face = np.asarray(bdata.faces[face.name]["d"], dtype=float)
        B_face = np.asarray(bdata.faces[face.name]["B"], dtype=float)
        tau, nu = ctx.tau_ref, -ctx.n_ref
        sgn_tau = tau[s_axis]  # tau versus increasing s coordinate

        # face-node quantities (arrays over the s index)
        G_face = G_all[ctx.flat]                       # (m, a, c)
        u_foot = uvals[ctx.flat]
        V_foot = Vy_all[ctx.flat]
        g_tau = (np.einsum("pa,pa->p", u_foot - V_foot, ctx.dtau)
                 + np.einsum("pa,pa->p", ctx.dV, ctx.tau_X))
        trace_n_ctx = (np.einsum("pa,pa->p", u_foot - V_foot, ctx.dn)
                       + np.einsum("pa,pa->p", ctx.dV, ctx.n_X))
        d_rest = d_face - trace_n_ctx
        b0 = B_face - np.einsum("pab,pab->p", ctx.A, G_face)

        # coefficient table: C_{a,tau}, C_{a,nu}
        C_tau = -np.einsum("pab,b->pa", ctx.A, tau) / mu
        C_nu = -ctx.dtau - np.einsum("pab,b->pa", ctx.A, nu) / mu

        # directional derivatives at the face nodes
        G_dir_tau = G_face @ tau                       # (m, a)
        G_dir_nu = G_face @ nu
        dnu_Ttau = (np.einsum("pa,pa->p", ctx.dtau, G_dir_nu)
                    - np.einsum("pab,b,pa->p", ctx.gradV_foot, nu, ctx.dtau))
        samp_nu = (np.einsum("pa,pa->p", C_tau, G_dir_tau)
                   + np.einsum("pa,pa->p", C_nu, G_dir_nu))
        dtau_d = sgn_tau * _diff_axis(d_face, hs, 0, 1)
        P = -(B_face - kappa * g_tau) / mu + dtau_d - dnu_Ttau - samp_nu

        # assemble over the whole grid, broadcasting face arrays by s index
        ub_n = (np.einsum("pa,pa->p", uvals - Vy_all, ctx.dn[s_index])
                + (np.einsum("pa,pa->p", ctx.dV, ctx.n_X)[s_index])
                + d_rest[s_index])
        T_tau = (np.einsum("pa,pa->p", uvals - Vy_all, ctx.dtau[s_index])
                 + (np.einsum("pa,pa->p", ctx.dV, ctx.tau_X)[s_index]))
        samp = np.zeros(N)
        if u_ref is not None:
            foot_pts = ctx.foot[s_index]
            for e_vec, C in ((tau, C_tau), (nu, C_nu)):
                p_full = foot_pts + q[:, None] * e_vec
                p_half = foot_pts + 0.5 * q[:, None] * e_vec
                u_full = interp_values(grid, u_ref.values, p_full,
                                       out_of_bounds="clamp")
                u_half = interp_values(grid, u_ref.values, p_half,
                                       out_of_bounds="clamp")
                samp += 2.0 * np.einsum("pa,pa->p", C[s_index],
                                        u_full - u_half)
        ub_tau1 = T_tau + samp
        ub_tau2 = q * P[s_index]

        phi = cutoff_profile(q, eps)
        vec1 = (np.outer(ub_n, ctx.n_ref) + np.outer(ub_tau1, tau)) * phi[:, None]
        vec2 = np.outer(ub_tau2, tau) * phi[:, None]
        zeta = phi
        total += zeta[:, None] * (vec1 + vec2)
        tot1 += zeta[:, None] * vec1
        tot2 += zeta[:, None] * vec2
        weight_sum += zeta

    scale = np.where(weight_sum > 0, 1.0 / np.maximum(weight_sum, 1e-300), 0.0)
    total *= scale[:, None]
    tot1 *= scale[:, None]
    tot2 *= scale[:, None]

    def mk(vals):
        return Field(grid, vals.T.reshape((2,) + shape), t)

    return ExtensionField(mk(total), mk(tot1), mk(tot2), eps, t)


def stress_trace_fd(ext_field, grid, params, face):
    """FD evaluation of mu (d_n u.tau + d_tau u.n) + kappa u.tau on a face."""
    mu = params.mu
    kappa = params.kappa
    f = grid.faces()[face]
    n, tau, flat, axis = f.normal, f.tangent, f.flat, f.axis
    s_axis = 1 - axis
    u = ext_field if isinstance(ext_field, Field) else ext_field.field
    u_tau = Field(u.grid, (u.values.reshape(2, -1).T @ tau).reshape(grid.shape))
    u_n = Field(u.grid, (u.values.reshape(2, -1).T @ n).reshape(grid.shape))
    # d/dn = n_axis-component times the axis derivative (n is +-unit vector)
    dn_utau = differentiate(u_tau, axis, 1).values[0].ravel()[flat] * n[axis]
    dtau_un = differentiate(u_n, s_axis, 1).values[0].ravel()[flat] * tau[s_axis]
    return (mu * (dn_utau + dtau_un)
            + kappa * u_tau.values[0].ravel()[flat])


def extension_norm_report(ext_levels, times, context_norm=0.0):
    """Discrete trajectory norms of the extension and the monitored ratio.

    Components of the fixed-domain trajectory norm: sup-in-time H^2, L^2-in-
    time H^3, sup H^1 and L^2 H^2 of the FD time derivative, L^2 L^2 of the
    second time derivative. The monitor is their sum divided by
    1 + ``context_norm``.
    """
    from .fields import sobolev_norm

    times = np.asarray(times, dtype=float)
    fields = [e.field if isinstance(e, ExtensionField) else e for e in ext_levels]
    h2 = [sobolev_norm(f, 2, 2) for f in fields]
    h3 = [sobolev_norm(f, 3, 2) for f in fields]
    sup_h2 = float(np.max(h2))
    l2_h3 = float(np.sqrt(np.trapezoid(np.array(h3)**2, times)))
    if len(fields) >= 3:
        dts = np.diff(times)
        dt_fields = []
        for m in range(1, len(fields) - 1):
            vals = (fields[m + 1].values - fields[m - 1].values) / (times[m + 1] - times[m - 1])
            dt_fields.append(Field(fields[0].grid, vals, times[m]))
        h1_t = [sobolev_norm(f, 1, 2) for f in dt_fields]
        h2_t = [sobolev_norm(f, 2, 2) for f in dt_fields]
        sup_h1_t = float(np.max(h1_t))
        l2_h2_t = float(np.sqrt(np.trapezoid(np.array(h2_t)**2, times[1:-1])))
        tt = []
        for m in range(1, len(fields) - 1):
            vals = (fields[m + 1].values - 2 * fields[m].values
                    + fields[m - 1].values) / dts[m - 1] / dts[m]
            tt.append(sobolev_norm(Field(fields[0].grid, vals), 0, 2))
        l2_tt = float(np.sqrt(np.trapezoid(np.array(tt)**2, times[1:-1])))
    else:
        sup_h1_t = l2_h2_t = l2_tt = 0.0
    total = sup_h2 + l2_h3 + sup_h1_t + l2_h2_t + l2_tt
    return {
        "sup_H2": sup_h2,
        "L2_H3": l2_h3,
        "sup_H1_dt": sup_h1_t,
        "L2_H2_dt": l2_h2_t,
        "L2_L2_dtt": l2_tt,
        "trajectory_norm": total,
        "monitor": total / (1.0 + context_norm),
    }
