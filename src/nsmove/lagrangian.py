"""Change of coordinates along the prescribed motion's flow map.

Pulls fields back to the reference domain, assembles the variable-coefficient
remainder produced by rewriting the momentum operator in the moving frame,
and transforms the slip boundary data from one :class:`FaceGaps` record per
face, which the extension of the data reads too. Composing the momentum
equation with X(t, .) and splitting off the fixed-coefficient part gives

    rho~ d_t u~ - mu Lap u~ - (mu/3 + eta) grad div u~
        = F~ = F + rho~ (V o X) . grad_y u~ + R(rho~, u~),

with R collecting the Jacobian-gap and curvature corrections; the exact
signs below are re-derived from the chain rule (the remainder is published
only up to structure) and validated against an FD chain-rule oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field, _contract, _diff_axis, gradient_values


def pull_back_state(rho, u, flow_map, t):
    """(rho~, u~) on the reference grid: composition with X(t, .).

    ``rho`` and ``u`` are callables on physical points (N, d), returning
    the density (N,) and the velocity (N, d).
    """
    grid = flow_map.grid
    d = grid.dim
    pos = flow_map.positions(t)
    rho_vals = np.asarray(rho(pos), dtype=float).reshape(grid.shape)
    u_vals = np.asarray(u(pos), dtype=float).T.reshape((d,) + tuple(grid.shape))
    return Field(grid, rho_vals, t), Field(grid, u_vals, t)


@dataclass
class TransformedRHS:
    """Decomposed right-hand side of the transformed momentum equation."""

    force: Field       # original F pulled back
    transport: Field   # rho~ (V o X) . grad_y u~
    remainder: Field   # R(rho~, u~)
    t: float

    @property
    def total(self):
        return Field(self.force.grid,
                     self.force.values + self.transport.values
                     + self.remainder.values, self.t)


def _hessian_fields(f):
    """d^2 u_i/dy_k dy_l as rows (i, k, l, N), symmetrized in (k, l)."""
    d, h = f.grid.dim, f.grid.spacing
    out = np.empty((f.ncomp, d, d) + tuple(f.grid.shape))
    firsts = [_diff_axis(f.values, h[k], k + 1, 1) for k in range(d)]
    for k in range(d):
        out[:, k, k] = _diff_axis(f.values, h[k], k + 1, 2)
        for l in range(k + 1, d):
            out[:, k, l] = out[:, l, k] = 0.5 * (_diff_axis(firsts[k], h[l], l + 1, 1)
                                                 + _diff_axis(firsts[l], h[k], k + 1, 1))
    return out.reshape(f.ncomp, d, d, -1)


def inverse_map_second_derivatives(flow_map, t):
    """d^2 Y_j / dx_k dx_p at the feet, as rows (j, k, p, N).

    Finite differences, in reference coordinates, of the inverse-map Jacobian
    field gradY(X(t, y)) followed by the chain factor gradY (the image nodes
    form a curvilinear grid, so differentiating in x directly is not
    available); symmetrized in (k, p).
    """
    grid = flow_map.grid
    d, N = grid.dim, grid.num_nodes
    gy = flow_map.frame(t).inv          # gradY_{mq}
    gy_nodes = gy.reshape((d, d) + tuple(grid.shape))
    out = np.empty((d, d, d, N))
    for m, h in enumerate(grid.spacing):
        # out[j, k, q] += d_m (gradY_{jk}) gradY_{mq}
        dgy = _diff_axis(gy_nodes, h, m + 2, 1).reshape(d * d, 1, N)
        _contract(dgy, gy[m][None], out.reshape(d * d, d, N), add=m > 0)
    return 0.5 * (out + out.transpose(0, 2, 1, 3))


def lagrangian_remainder(rho_ref, u_ref, flow_map, V, t, params, force=None):
    """Assemble the transformed right-hand side decomposition at time t.

    ``rho_ref``/``u_ref`` are reference-sampled fields; ``force`` (optional)
    is the pulled-back body force. All Jacobian quantities come from the
    flow map; second x-derivatives of the inverse map from
    :func:`inverse_map_second_derivatives`.
    """
    grid = u_ref.grid
    d = grid.dim
    N = grid.num_nodes
    shape = (d,) + tuple(grid.shape)
    mu = params.mu
    lam = params.mu / 3.0 + params.eta

    # gradY at the feet [j, k], V(t, X(t, y)) as a column, du_i/dy_j,
    # d^2 u_i/dy_k dy_l and d^2 Y_j/dx_k dx_p
    frame = flow_map.frame(t)
    gy = frame.inv
    Vx = V.velocity(t, frame.X).T[:, None]
    rho = rho_ref.values[0].ravel()
    G1 = gradient_values(u_ref)
    G2 = _hessian_fields(u_ref)
    dY2 = inverse_map_second_derivatives(flow_map, t)

    # transport correction: rho~ du_i/dy_j (dY_j/dx_k - delta_jk) V_k
    term1 = rho * _contract(G1, _contract(gy, Vx) - Vx)[:, 0]
    # viscous Jacobian-gap corrections: c = gradY gradY^T - I
    c = _contract(gy, gy.transpose(1, 0, 2))
    for k in range(d):
        c[k, k] -= 1.0
    term2 = mu * _contract(G2.reshape(d, d * d, N), c.reshape(d * d, 1, N))[:, 0]
    # z_l = sum_qk dY_k/dx_q d^2 u_q/dy_k dy_l: d/dy_l of div_x u, gradY frozen
    z = np.empty((1, d, N))
    for q in range(d):
        _contract(gy[:, q][None], G2[q], z, add=q > 0)
    term3 = lam * (_contract(gy.transpose(1, 0, 2), z.reshape(d, 1, N))[:, 0]
                   - sum(G2[q, :, q] for q in range(d)))
    # first-derivative corrections
    lapY = sum(dY2[:, i, i] for i in range(d))[:, None]
    term4 = mu * _contract(G1, lapY)[:, 0]
    # term5_i = lam sum_qk du_q/dy_k d^2 Y_k/dx_i dx_q
    t5 = np.empty((1, d, N))
    for q in range(d):
        _contract(G1[q][None], dY2[:, :, q], t5, add=q > 0)
    term5 = lam * t5[0]

    remainder = (term1 + term2 + term3 + term4 + term5).reshape(shape)
    transport = (rho * _contract(G1, Vx)[:, 0]).reshape(shape)
    fvals = (np.zeros(shape) if force is None
             else np.asarray(force.values, dtype=float))
    return TransformedRHS(Field(grid, fvals, t), Field(grid, transport, t),
                          Field(grid, remainder, t), t)


@dataclass
class BoundaryData:
    """Per-face transformed slip data: normal datum d, tangential datum B."""

    faces: dict
    t: float

    def normal(self, face):
        return self.faces[face]["d"]

    def stress(self, face):
        return self.faces[face]["B"]


def _gap_table(Jgap, x, y):
    """[p, a, b] = y[p, a] (Jgap[p] x[p])_b, summed over j in order."""
    terms = Jgap[:, None] * x[:, None, None] * y[:, :, None, None]
    return terms[..., 0] + terms[..., 1]


class FaceGaps:
    """Frame gaps of one boundary face at t, per face node y.

    ``n_X``, ``tau_X``: the physical unit normal and tangent at X(t, y);
    ``dn`` = n_ref - n_X, ``dtau`` = tau_ref - tau_X; ``Vy`` = V(t, y),
    ``dV`` = V(t, X) - V(t, y); ``A[:, a, b]`` the coefficient of du_a/dy_b
    in the tangential stress datum B, all from ``frame``, the map's
    :class:`~nsmove.motion.Frame` at t. The slip data and their extension
    both read these.
    """

    def __init__(self, face, nodes, frame, V, t, mu):
        flat = self.flat = face.flat
        self.y = nodes[flat]
        _, n_X, tau_X = frame.faces[face.name]
        Jgap = np.eye(2) - frame.inv[..., flat].transpose(2, 0, 1)   # I - gradY
        self.Vy = V.velocity(t, self.y)
        VX = V.velocity(t, frame.X[flat])
        self.n_X, self.tau_X = n_X, tau_X
        self.dn = face.normal - n_X
        self.dtau = face.tangent - tau_X
        self.dV = VX - self.Vy
        # B's grad u part is tau_X.D n_X + tau_X.M dn + dtau.M n_ref, with
        # D = mu (G Jgap + (G Jgap)^T) and M = mu (G + G^T), G = grad_y u
        S = tau_X[:, :, None] * self.dn[:, None] + face.normal[:, None] * self.dtau[:, None]
        self.A = mu * (_gap_table(Jgap, n_X, tau_X) + _gap_table(Jgap, tau_X, n_X)
                       + S + S.transpose(0, 2, 1))

    def normal(self, du):
        """du.dn + dV.n_X for du = u~ - V(t, y): the frame-gap part of d.
        ``du`` is (m, 2) at the face nodes or (k, m, 2) on k grid lines
        parallel to the face."""
        return (np.einsum("...a,...a->...", du, self.dn)
                + np.einsum("pa,pa->p", self.dV, self.n_X))

    def tangent(self, du):
        """du.dtau + dV.tau_X, shaped as :meth:`normal`."""
        return (np.einsum("...a,...a->...", du, self.dtau)
                + np.einsum("pa,pa->p", self.dV, self.tau_X))


def transformed_boundary_data(u_ref, V, flow_map, t, params):
    """Slip data (d, B) of the fixed-domain problem, per boundary face.

    d(y) = (u~ - V)(t, y).(n(y) - n(X)) + (V(t, X) - V(t, y)).n(X);
    B(y) = sum_ab A_ab du_a/dy_b + kappa ((u~ - V)(t, y).(tau(y) - tau(X))
    + (V(t, X) - V(t, y)).tau(X)), with the gaps and A of :class:`FaceGaps`;
    both vanish identically at t = 0 and for V = 0.
    """
    grid = flow_map.grid
    frame = flow_map.frame(t)
    nodes = grid.node_coords()
    faces = {}
    uvals = u_ref.values.reshape(2, -1).T
    G1 = gradient_values(u_ref)
    for face in grid.faces().values():
        gaps = FaceGaps(face, nodes, frame, V, t, params.mu)
        du = uvals[gaps.flat] - gaps.Vy
        B = (np.einsum("pab,abp->p", gaps.A, G1[..., gaps.flat])
             + params.kappa * gaps.tangent(du))
        faces[face.name] = {"d": gaps.normal(du), "B": B}
    return BoundaryData(faces, t)
