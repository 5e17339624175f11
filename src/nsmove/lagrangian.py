"""Change of coordinates along the prescribed motion's flow map.

Pulls fields back to the reference domain, assembles the variable-coefficient
remainder produced by rewriting the momentum operator in the moving frame,
and transforms the slip boundary data. Composing the momentum equation with
X(t, .) and splitting off the fixed-coefficient part gives

    rho~ d_t u~ - mu Lap u~ - (mu/3 + eta) grad div u~
        = F~ = F + rho~ (V o X) . grad_y u~ + R(rho~, u~),

with R collecting the Jacobian-gap and curvature corrections; the exact
signs below are re-derived from the chain rule (the remainder is published
only up to structure) and validated against an FD chain-rule oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDimensionError
from .fields import Field, _diff_axis, gradient_values, interp_values
from .motion import _contract


def _eval_physical(obj, t, x):
    if callable(obj):
        return np.asarray(obj(x), dtype=float)
    if hasattr(obj, "eval_physical"):
        return np.asarray(obj.eval_physical(t, x)[0], dtype=float)
    raise TypeError(f"cannot evaluate {type(obj).__name__} at physical points")


def pull_back_state(rho, u, flow_map, t):
    """(rho~, u~) on the reference grid: composition with X(t, .).

    ``rho`` and ``u`` are callables on physical coordinates or objects whose
    ``eval_physical(t, x)`` returns (values, points), e.g. a density trajectory.
    """
    grid = flow_map.grid
    d = grid.dim
    pos = flow_map.positions(t)
    rho_vals = _eval_physical(rho, t, pos).reshape(grid.shape)
    u_vals = _eval_physical(u, t, pos)
    if u_vals.ndim == 1:
        u_vals = u_vals[:, None]
    u_vals = u_vals.T.reshape((d,) + tuple(grid.shape))
    return Field(grid, rho_vals, t), Field(grid, u_vals, t)


def push_forward_eval(field, flow_map, t, x):
    """Evaluate a reference field at physical points via the inverse map."""
    z = flow_map.invert(t, x)
    vals = interp_values(field.grid, field.values, z, out_of_bounds="clamp")
    return vals[:, 0] if field.ncomp == 1 else vals


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
    """d^2 u_i/dy_k dy_l as (N, i, k, l), symmetrized in (k, l).

    A view of a component-major (i, k, l, N) array, so it is not
    C-contiguous.
    """
    d, h = f.grid.dim, f.grid.spacing
    out = np.empty((f.ncomp, d, d) + tuple(f.grid.shape))
    firsts = [_diff_axis(f.values, h[k], k + 1, 1) for k in range(d)]
    for k in range(d):
        out[:, k, k] = _diff_axis(f.values, h[k], k + 1, 2)
        for l in range(k + 1, d):
            out[:, k, l] = out[:, l, k] = 0.5 * (_diff_axis(firsts[k], h[l], l + 1, 1)
                                                 + _diff_axis(firsts[l], h[k], k + 1, 1))
    return np.moveaxis(out.reshape(f.ncomp, d, d, -1), -1, 0)


def inverse_map_second_derivatives(flow_map, t):
    """d^2 Y_j / dx_k dx_p at the feet, (N, j, k, p).

    Finite differences, in reference coordinates, of the inverse-map Jacobian
    field gradY(X(t, y)) followed by the chain factor gradY (the image nodes
    form a curvilinear grid, so differentiating in x directly is not
    available); symmetrized in (k, p). A view of a component-major
    (j, k, p, N) array, so it is not C-contiguous.
    """
    grid = flow_map.grid
    d, N = grid.dim, grid.num_nodes
    gy = np.moveaxis(flow_map.frame(t).inv, 0, -1)          # gradY_{mq}, rows
    gy_nodes = gy.reshape((d, d) + tuple(grid.shape))
    out = np.empty((d, d, d, N))
    scratch = np.empty(N)
    for m, h in enumerate(grid.spacing):
        # out[j, k, q] += d_m (gradY_{jk}) gradY_{mq}
        dgy = _diff_axis(gy_nodes, h, m + 2, 1).reshape(d * d, 1, N)
        _contract(out.reshape(d * d, d, N), dgy, gy[m][None], scratch, add=m > 0)
    return np.moveaxis(0.5 * (out + out.transpose(0, 2, 1, 3)), -1, 0)


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

    # every tensor as component rows over the nodes: gradY at the feet
    # [j, k], V(t, X(t, y)) as a column, du_i/dy_j, d^2 u_i/dy_k dy_l and
    # d^2 Y_j/dx_k dx_p
    frame = flow_map.frame(t)
    gy = np.moveaxis(frame.inv, 0, -1)
    Vx = V.velocity(t, frame.X).T[:, None]
    rho = rho_ref.values[0].ravel()
    G1 = np.moveaxis(gradient_values(u_ref), 0, -1)
    G2 = np.moveaxis(_hessian_fields(u_ref), 0, -1)
    dY2 = np.moveaxis(inverse_map_second_derivatives(flow_map, t), 0, -1)
    scratch = np.empty(N)

    def contract(A, B):
        out = np.empty((len(A), B.shape[1], N))
        _contract(out, A, B, scratch)
        return out

    # transport correction: rho~ du_i/dy_j (dY_j/dx_k - delta_jk) V_k
    term1 = rho * contract(G1, contract(gy, Vx) - Vx)[:, 0]
    # viscous Jacobian-gap corrections: c = gradY gradY^T - I
    c = contract(gy, gy.transpose(1, 0, 2))
    for k in range(d):
        c[k, k] -= 1.0
    term2 = mu * contract(G2.reshape(d, d * d, N), c.reshape(d * d, 1, N))[:, 0]
    # z_l = sum_qk dY_k/dx_q d^2 u_q/dy_k dy_l: d/dy_l of div_x u, gradY frozen
    z = np.empty((1, d, N))
    for q in range(d):
        _contract(z, gy[:, q][None], G2[q], scratch, add=q > 0)
    term3 = lam * (contract(gy.transpose(1, 0, 2), z.reshape(d, 1, N))[:, 0]
                   - sum(G2[q, :, q] for q in range(d)))
    # first-derivative corrections
    lapY = sum(dY2[:, i, i] for i in range(d))[:, None]
    term4 = mu * contract(G1, lapY)[:, 0]
    # term5_i = lam sum_qk du_q/dy_k d^2 Y_k/dx_i dx_q
    t5 = np.empty((1, d, N))
    for q in range(d):
        _contract(t5, G1[q][None], dY2[:, :, q], scratch, add=q > 0)
    term5 = lam * t5[0]

    remainder = (term1 + term2 + term3 + term4 + term5).reshape(shape)
    transport = (rho * contract(G1, Vx)[:, 0]).reshape(shape)
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
        b = self.faces[face]["B"]
        if b is None:
            raise UnsupportedDimensionError("no tangential datum in 1D")
        return b


def _bilinear(x, M, y):
    """x . M y per node, (m, i) (m, i, j) (m, j) -> (m,).

    Summed over (i, j) in row-major order, each term formed as
    (M_ij y_j) x_i: the order a 3-operand einsum uses, so the slip data
    keep their last bits.
    """
    terms = M * y[:, None, :] * x[:, :, None]
    out = np.zeros(len(M))
    for t_ij in terms.reshape(len(M), -1).T:
        out += t_ij
    return out


def transformed_boundary_data(u_ref, V, flow_map, t, params):
    """Slip data (d, B) of the fixed-domain problem, per boundary face.

    d(y) = (u~ - V)(t, y).(n(y) - n(X)) + (V(t, X) - V(t, y)).n(X);
    B(y) collects the Jacobian-gap stress term, the frame-gap terms and the
    friction terms; both vanish identically at t = 0 and for V = 0.
    """
    grid = flow_map.grid
    d = grid.dim
    mu, kappa = params.mu, params.kappa
    frame = flow_map.frame(t)
    nodes = grid.node_coords()
    uvals = u_ref.values.reshape(d, -1).T
    faces = {}
    if d == 1:
        for face in grid.faces().values():
            Vy = V.velocity(t, nodes[face.flat])
            VX = V.velocity(t, frame.X[face.flat])
            faces[face.name] = {"d": (VX - Vy) @ face.normal, "B": None}
        return BoundaryData(faces, t)

    G1 = gradient_values(u_ref)
    eye = np.eye(2)
    for face in grid.faces().values():
        flat, n_X, tau_X = frame.faces[face.name]
        n_ref = np.broadcast_to(face.normal, n_X.shape)
        tau_ref = face.tangent
        y = nodes[flat]
        Vy = V.velocity(t, y)
        VX = V.velocity(t, frame.X[flat])
        u_b = uvals[flat]
        dn = n_ref - n_X
        dtau = tau_ref - tau_X
        dval = (np.einsum("pi,pi->p", u_b - Vy, dn)
                + np.einsum("pi,pi->p", VX - Vy, n_X))

        G = G1[flat]                       # (m, i, j)
        Jgap = eye - frame.inv[flat]       # I - gradY
        K = mu * np.einsum("pim,pmj->pij", G, Jgap)
        D = K + np.swapaxes(K, 1, 2)
        M = mu * (G + np.swapaxes(G, 1, 2))
        Bval = (_bilinear(tau_X, D, n_X)
                + _bilinear(tau_X, M, dn)
                + _bilinear(dtau, M, n_ref)
                + kappa * np.einsum("pi,pi->p", u_b - Vy, dtau)
                + kappa * np.einsum("pi,pi->p", VX - Vy, tau_X))
        faces[face.name] = {"d": dval, "B": Bval}
    return BoundaryData(faces, t)
