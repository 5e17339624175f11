"""Boundary-data extension on the reference rectangle, flat-face case.

Given per-face normal data d and tangential-stress data B and the context
fields u, V and the flow map of V whose frame gaps generated the data (the
same :class:`~nsmove.lagrangian.FaceGaps` record per face), builds a vector
field on the reference domain whose trace reproduces d exactly at the face
nodes and whose FD tangential-stress trace (``stress_trace_fd``) reproduces
B. With V = 0 and u_ref = 0 the stress identity holds to round-off at every
face node, given three things: that context, data that vanish in the
corner collars, and the first two node layers inside the cutoff plateau
(2h <= eps; with eps = 1/8 on the unit square, n = 17 gives
an error of 3.6e-16, while n = 13 gives 1.07 and n = 9 gives 3.4). With
other context fields it holds to stencil accuracy; no order beyond that is
proven (the linear-u case measures round-off, <= 5.4e-15 up to n = 129).

Per face, in the local frame (tau along the face, nu = -n inward, distance
q from the face):

  normal component:   frame-gap trace expression + residual datum, constant
                      along the inward ray;
  tangential part 1:  trace choice T_tau(y) plus the three-point sampling
                      2 sum C_ab [u_a(foot + q e_b) - u_a(foot + (q/2) e_b)]
                      whose q-derivative at the face realizes the
                      context-derivative content of B (coefficient table C
                      from the record's table A, re-derived by matching the
                      stress identity);
  tangential part 2:  q * P(s), the line integral from the face of the
                      lower-order residual that closes the identity at the
                      face nodes. It is linear in q, so the one-sided FD
                      q-derivative is exact on it while 2h <= eps, and P's
                      tangential derivative of d uses ``fields._diff_axis``,
                      the stencil ``stress_trace_fd`` applies; with V = 0
                      and u_ref = 0 the identity is exact to round-off
                      only because both use that one stencil.

Everything is multiplied by a C^2 quintic cutoff (1 for q <= eps, 0 beyond
2 eps) and faces are blended by normalized smoothstep weights near corners.
Each face is assembled only on its collar, the grid lines parallel to it
where the cutoff is positive: elsewhere its contribution is exactly zero,
so it neither samples u nor touches the sums there.
Corner-overlap traces are exact only for data vanishing there (or
corner-compatible data); the criteria exercise mid-face-supported data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import stress_tensor
from .fields import Field, _diff_axis, _dot, gradient_values, interpolate
from .lagrangian import FaceGaps


def smoothstep(t):
    """Quintic C^2 smoothstep: 0 -> 1 on [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def cutoff_profile(q, eps):
    """1 for q <= eps, quintic decay to 0 at q >= 2 eps."""
    return 1.0 - smoothstep((q - eps) / eps)


@dataclass
class ExtensionField:
    """Extension u^b, the blended and cut-off field, with the cutoff width."""

    field: Field
    eps: float
    t: float


def extend_boundary_data(bdata, grid, *, u_ref, V, flow_map, params):
    """Construct the extension of the boundary data (d, B) on the rectangle
    at the data's time ``bdata.t``.

    ``bdata`` is a :class:`~nsmove.lagrangian.BoundaryData`; raw data on a
    fixed domain extend with V = 0, its flow map and u_ref = 0. The collar
    half-width eps is one eighth of the shortest extent, so the support,
    confined to q < 2 eps, never reaches the opposite face's collar.
    """
    mu, kappa = params.mu, params.kappa
    eps = min(hi - lo for lo, hi in zip(grid.lo, grid.hi)) / 8.0
    t = bdata.t

    nodes = grid.node_coords()
    shape = tuple(grid.shape)
    N = grid.num_nodes
    G_all = gradient_values(u_ref)
    frame = flow_map.frame(t)
    du_all = u_ref.values.reshape(2, -1).T - V.velocity(t, nodes)

    total = np.zeros((N, 2))
    weight_sum = np.zeros(N)

    for face in grid.faces().values():
        gaps = FaceGaps(face, nodes, frame, V, t, mu)
        axis = face.axis
        s_axis = 1 - axis
        hs = grid.spacing[s_axis]
        # inward distance of the grid lines parallel to this face; the face
        # contributes only on its collar, the lines where the cutoff is positive
        coord = grid.axis_coords(axis)
        q_line = (coord - grid.lo[axis]) if face.name.endswith("0") else (grid.hi[axis] - coord)
        phi_line = cutoff_profile(q_line, eps)
        line, s_index = (a.ravel() for a in np.meshgrid(
            np.flatnonzero(phi_line > 0), np.arange(shape[s_axis]), indexing="ij"))
        collar = np.ravel_multi_index((line, s_index) if axis == 0 else (s_index, line), shape)
        q, phi = q_line[line], phi_line[line]

        d_face = np.asarray(bdata.faces[face.name]["d"], dtype=float)
        B_face = np.asarray(bdata.faces[face.name]["B"], dtype=float)
        tau, nu = face.tangent, -face.normal
        sgn_tau = tau[s_axis]  # tau versus increasing s coordinate

        # face-node quantities (arrays over the s index)
        G_face = G_all[..., gaps.flat].transpose(2, 0, 1)   # (m, a, c)
        du_face = du_all[gaps.flat]
        g_tau = gaps.tangent(du_face)
        d_rest = d_face - gaps.normal(du_face)

        # coefficient table: C_{a,tau}, C_{a,nu}
        C_tau = -np.einsum("pab,b->pa", gaps.A, tau) / mu
        C_nu = -gaps.dtau - np.einsum("pab,b->pa", gaps.A, nu) / mu

        # directional derivatives at the face nodes
        G_dir_tau = G_face @ tau                       # (m, a)
        G_dir_nu = G_face @ nu
        dnu_Ttau = np.einsum("pa,pa->p", gaps.dtau, G_dir_nu)
        dnu_Ttau -= np.einsum("pa,pa->p", V.gradient(t, gaps.y) @ nu, gaps.dtau)
        samp_nu = (np.einsum("pa,pa->p", C_tau, G_dir_tau)
                   + np.einsum("pa,pa->p", C_nu, G_dir_nu))
        dtau_d = sgn_tau * _diff_axis(d_face, hs, 0, 1)
        P = -(B_face - kappa * g_tau) / mu + dtau_d - dnu_Ttau - samp_nu

        # assemble on the collar: its lines parallel to the face, each
        # taking the face arrays by s index
        du = du_all[collar].reshape(-1, len(gaps.flat), 2)
        ub_n = gaps.normal(du).ravel() + d_rest[s_index]
        T_tau = gaps.tangent(du).ravel()
        samp = np.zeros(len(collar))
        # u at foot + q e and foot + (q/2) e for e = tau, nu: one call
        foot_pts = gaps.y[s_index]
        pts = np.concatenate([foot_pts + f * q[:, None] * e_vec
                              for e_vec in (tau, nu) for f in (1.0, 0.5)])
        u_pts = interpolate(u_ref, pts, out_of_bounds="clamp")
        for C, (u_full, u_half) in zip((C_tau, C_nu),
                                       u_pts.reshape(2, 2, len(collar), 2)):
            samp += 2.0 * np.einsum("pa,pa->p", C[s_index], u_full - u_half)
        ub_tau1 = T_tau + samp
        ub_tau2 = q * P[s_index]

        vec = ((np.outer(ub_n, face.normal) + np.outer(ub_tau1, tau)) * phi[:, None]
               + np.outer(ub_tau2, tau) * phi[:, None])
        total[collar] += phi[:, None] * vec
        weight_sum[collar] += phi

    scale = np.where(weight_sum > 0, 1.0 / np.maximum(weight_sum, 1e-300), 0.0)
    total *= scale[:, None]
    return ExtensionField(Field(grid, total.T.reshape((2,) + shape), t), eps, t)


def stress_trace_fd(ext_field, grid, params, face):
    """tau.S(grad u) n + kappa u.tau = mu (d_n u.tau + d_tau u.n) + kappa u.tau
    on a face: the stress of the shared stencil's gradient at its nodes."""
    f = grid.faces()[face]
    u = ext_field if isinstance(ext_field, Field) else ext_field.field
    S = stress_tensor(gradient_values(u), params.mu, params.eta)[..., f.flat]
    u_tau = f.tangent @ u.values.reshape(2, -1)[:, f.flat]
    return _dot(S, np.outer(f.tangent, f.normal)[..., None]) + params.kappa * u_tau


def extension_norm_report(ext_levels, times):
    """Discrete trajectory norms of the extension.

    Components of the fixed-domain trajectory norm: sup-in-time H^2, L^2-in-
    time H^3, sup H^1 and L^2 H^2 of the FD time derivative, L^2 L^2 of the
    second time derivative; ``trajectory_norm`` is their sum.
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
    return {
        "sup_H2": sup_h2,
        "L2_H3": l2_h3,
        "sup_H1_dt": sup_h1_t,
        "L2_H2_dt": l2_h2_t,
        "L2_L2_dtt": l2_tt,
        "trajectory_norm": sup_h2 + l2_h3 + sup_h1_t + l2_h2_t + l2_tt,
    }
