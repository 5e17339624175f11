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
from .fields import Field, _diff_axis, differentiate, gradient_values, interp_values
from .motion import boundary_frame, flow_jacobians


def _eval_physical(obj, t, x):
    if callable(obj):
        return np.asarray(obj(x), dtype=float)
    if hasattr(obj, "eval_physical"):
        out = obj.eval_physical(t, x)
        return np.asarray(out[0] if isinstance(out, tuple) else out, dtype=float)
    raise TypeError(f"cannot evaluate {type(obj).__name__} at physical points")


def pull_back_state(rho, u, flow_map, t):
    """(rho~, u~) on the reference grid: composition with X(t, .).

    ``rho`` and ``u`` are callables on physical coordinates or objects with
    an ``eval_physical(t, x)`` method (e.g. a density trajectory).
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


def push_forward_eval(field, flow_map, t, x, seed=None):
    """Evaluate a reference field at physical points via the inverse map."""
    z = flow_map.invert(t, x, seed=seed)
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
    """d^2 u_i/dy_k dy_l as (N, i, k, l), symmetrized in (k, l)."""
    d = f.grid.dim
    N = f.grid.num_nodes
    out = np.empty((N, f.ncomp, d, d))
    for i in range(f.ncomp):
        fi = f.component(i)
        firsts = [differentiate(fi, k, 1) for k in range(d)]
        for k in range(d):
            for l in range(d):
                if l < k:
                    continue
                if k == l:
                    out[:, i, k, k] = differentiate(fi, k, 2).values[0].ravel()
                else:
                    v = 0.5 * (differentiate(firsts[k], l, 1).values[0]
                               + differentiate(firsts[l], k, 1).values[0])
                    out[:, i, k, l] = out[:, i, l, k] = v.ravel()
    return out


def inverse_map_second_derivatives(flow_map, t):
    """d^2 Y_j / dx_k dx_p at the feet, (N, j, k, p).

    Finite differences, in reference coordinates, of the inverse-map Jacobian
    field gradY(X(t, y)) followed by the chain factor gradY (the image nodes
    form a curvilinear grid, so differentiating in x directly is not
    available); symmetrized in (k, p).
    """
    grid = flow_map.grid
    d = grid.dim
    _, gy, _, _ = flow_jacobians(flow_map, t)
    gy_nodes = gy.reshape(tuple(grid.shape) + (d, d))
    dgy = np.stack([_diff_axis(gy_nodes, h, a, 1) for a, h in enumerate(grid.spacing)],
                   axis=-1).reshape(grid.num_nodes, d, d, d)  # d_m (gradY_{jk})
    out = np.einsum("pjkm,pmq->pjkq", dgy, gy)
    return 0.5 * (out + np.swapaxes(out, 2, 3))


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
    mu = params.mu
    lam = params.mu / 3.0 + params.eta

    _, gy, _, _ = flow_jacobians(flow_map, t)      # gradY at feet, (N, j, k)
    eye = np.eye(d)
    gap = gy - eye
    pos = flow_map.positions(t)
    Vx = V.velocity(t, pos)                         # V(t, X(t, y))
    rho = rho_ref.values[0].ravel()
    G1 = gradient_values(u_ref)                     # (N, i, j)
    G2 = _hessian_fields(u_ref)                     # (N, i, k, l)
    dY2 = inverse_map_second_derivatives(flow_map, t)  # (N, j, k, p)
    lapY = np.einsum("pjii->pj", dY2)

    # transport correction: rho~ du_i/dy_j V_k (dY_j/dx_k - delta_jk)
    term1 = rho[:, None] * np.einsum("pij,pk,pjk->pi", G1, Vx, gap)
    # viscous Jacobian-gap corrections
    c_kl = np.einsum("plq,pkq->pkl", gy, gy) - eye
    term2 = mu * np.einsum("pikl,pkl->pi", G2, c_kl)
    c_ikl = np.einsum("pli,pkq->pikql", gy, gy)     # dY_l/dx_i dY_k/dx_q
    term3 = lam * (np.einsum("pqkl,pikql->pi", G2, c_ikl)
                   - np.einsum("pqiq->pi", G2))
    # first-derivative corrections
    term4 = mu * np.einsum("pik,pk->pi", G1, lapY)
    term5 = lam * np.einsum("pqk,pkiq->pi", G1, dY2)

    remainder = (term1 + term2 + term3 + term4 + term5).T.reshape(
        (d,) + tuple(grid.shape))
    transport = (rho[:, None] * np.einsum("pj,pij->pi", Vx, G1)).T.reshape(
        (d,) + tuple(grid.shape))
    fvals = (np.zeros((d,) + tuple(grid.shape)) if force is None
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


def transformed_boundary_data(u_ref, V, flow_map, t, params):
    """Slip data (d, B) of the fixed-domain problem, per boundary face.

    d(y) = (u~ - V)(t, y).(n(y) - n(X)) + (V(t, X) - V(t, y)).n(X);
    B(y) collects the Jacobian-gap stress term, the frame-gap terms and the
    friction terms; both vanish identically at t = 0 and for V = 0.
    """
    grid = flow_map.grid
    d = grid.dim
    mu, kappa = params.mu, params.kappa
    pos_all = flow_map.positions(t)
    nodes = grid.node_coords()
    uvals = u_ref.values.reshape(d, -1).T
    faces = {}
    if d == 1:
        for face in grid.faces().values():
            Vy = V.velocity(t, nodes[face.flat])
            VX = V.velocity(t, pos_all[face.flat])
            faces[face.name] = {"d": (VX - Vy) @ face.normal, "B": None}
        return BoundaryData(faces, t)

    frames = boundary_frame(flow_map, t)
    _, gy, _, _ = flow_jacobians(flow_map, t)
    G1 = gradient_values(u_ref)
    eye = np.eye(2)
    for face in grid.faces().values():
        flat, n_X, tau_X = frames[face.name]
        n_ref = np.broadcast_to(face.normal, n_X.shape)
        tau_ref = face.tangent
        y = nodes[flat]
        X = pos_all[flat]
        Vy = V.velocity(t, y)
        VX = V.velocity(t, X)
        u_b = uvals[flat]
        dn = n_ref - n_X
        dtau = tau_ref - tau_X
        dval = (np.einsum("pi,pi->p", u_b - Vy, dn)
                + np.einsum("pi,pi->p", VX - Vy, n_X))

        G = G1[flat]                       # (m, i, j)
        Jgap = eye - gy[flat]              # I - gradY
        K = mu * np.einsum("pim,pmj->pij", G, Jgap)
        D = K + np.swapaxes(K, 1, 2)
        M = mu * (G + np.swapaxes(G, 1, 2))
        Bval = (np.einsum("pij,pj,pi->p", D, n_X, tau_X)
                + np.einsum("pij,pj,pi->p", M, dn, tau_X)
                + np.einsum("pij,pj,pi->p", M, n_ref, dtau)
                + kappa * np.einsum("pi,pi->p", u_b - Vy, dtau)
                + kappa * np.einsum("pi,pi->p", VX - Vy, tau_X))
        faces[face.name] = {"d": dval, "B": Bval}
    return BoundaryData(faces, t)
