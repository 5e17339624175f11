"""Fixed-domain linear momentum solver: variable-coefficient parabolic system
with the Lame operator and slip / no-slip boundary conditions.

The operator is assembled in symmetric energy form (Q1/P1 elements with 2x2
Gauss quadrature, lumped trapezoid mass), so the Crank-Nicolson inner systems
are SPD by construction; the slip tangential stress datum B and the friction
term kappa (u - V).tau enter as natural boundary terms, while the normal
component is enforced strongly. Inner solves are Jacobi-preconditioned CG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energy import dissipation_density
from .errors import (
    InvalidArgumentError,
    LinearSolverFailureError,
    PositivityViolationError,
)
from .fields import Field, gradient_values
from .motion import _check_steps


@dataclass(frozen=True)
class FluidParams:
    """Viscosities, boundary friction and the boundary-condition kind."""

    mu: float
    eta: float = 0.0
    kappa: float = 0.0
    bc: str = "no-slip"

    def __post_init__(self):
        if self.mu <= 0:
            raise InvalidArgumentError("shear viscosity mu must be positive")
        if self.eta < 0 or self.kappa < 0:
            raise InvalidArgumentError("eta and kappa must be nonnegative")
        if self.bc not in ("slip", "no-slip"):
            raise InvalidArgumentError(f"bc must be 'slip' or 'no-slip', got {self.bc!r}")


@dataclass
class MomentumStepReport:
    t: float
    iterations: int
    residual: float
    dissipation: float
    kinetic_change: float
    boundary_work: float


# -- element templates ------------------------------------------------------

_GAUSS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def _templates_1d(h):
    """Per-Gauss-point matrices E[pq][a,b] = w dN_a dN_b for the 2-node element."""
    dN = np.array([-1.0, 1.0]) / h
    tmpl = []
    for _ in _GAUSS:
        tmpl.append({(0, 0): 0.5 * h * np.outer(dN, dN)})
    return tmpl


def _templates_2d(hx, hy):
    """Per-Gauss-point derivative products for the bilinear element.

    Local node order (0,0), (1,0), (0,1), (1,1) in cell coordinates; returns
    a list over the 4 Gauss points of {(p, q): w * dN_p outer dN_q}.
    """
    tmpl = []
    for gx in _GAUSS:
        for gy in _GAUSS:
            dNx = np.array([-(1 - gy), (1 - gy), -gy, gy]) / hx
            dNy = np.array([-(1 - gx), -gx, (1 - gx), gx]) / hy
            w = 0.25 * hx * hy
            tmpl.append({
                (0, 0): w * np.outer(dNx, dNx),
                (0, 1): w * np.outer(dNx, dNy),
                (1, 0): w * np.outer(dNy, dNx),
                (1, 1): w * np.outer(dNy, dNy),
            })
    return tmpl


def _cell_nodes(grid):
    """(ncells, nloc) global node indices per element."""
    if grid.dim == 1:
        i = np.arange(grid.n[0] - 1)
        return np.stack([i, i + 1], axis=1)
    nx, ny = grid.n
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    base = (i * ny + j).ravel()
    return np.stack([base, base + ny, base + 1, base + ny + 1], axis=1)


def _gauss_point_values(grid, nodal, cells):
    """Nodal field sampled at the element Gauss points, (ncells, ngauss)."""
    vals = nodal.ravel()[cells]  # (ncells, nloc)
    if grid.dim == 1:
        shape = np.array([[1 - g, g] for g in _GAUSS])  # (2, 2)
        return vals @ shape.T
    shp = []
    for gx in _GAUSS:
        for gy in _GAUSS:
            shp.append([(1 - gx) * (1 - gy), gx * (1 - gy), (1 - gx) * gy, gx * gy])
    return vals @ np.array(shp).T


def assemble_stress_matrix(grid, params, mu_nodal=None):
    """Symmetric stiffness of a(u, w) = int S(grad u) : grad w.

    ``mu_nodal`` switches on a spatially variable shear viscosity (evaluated
    at the Gauss points through the element shape functions); the bulk part
    uses eta - 2 mu / 3 per the Newtonian stress.
    """
    d = grid.dim
    N = grid.num_nodes
    cells = _cell_nodes(grid)
    ncells, nloc = cells.shape
    tmpl = _templates_1d(grid.spacing[0]) if d == 1 else _templates_2d(*grid.spacing)
    ngauss = len(tmpl)
    if mu_nodal is None:
        mu_g = np.full((ncells, ngauss), params.mu)
    else:
        mu_g = _gauss_point_values(grid, np.asarray(mu_nodal, dtype=float), cells)
    lam_g = params.eta - 2.0 * mu_g / 3.0

    # K[(c1 a),(c2 b)] = mu [delta_{c1 c2} sum_i E^{ii} + E^{(c2 c1)}]
    #                    + (eta - 2 mu/3) E^{(c1 c2)}
    blocks = np.zeros((d, d, ncells, nloc, nloc))
    for g, Eg in enumerate(tmpl):
        lap = sum(Eg[(i, i)] for i in range(d))
        for c1 in range(d):
            for c2 in range(d):
                contrib = np.zeros((nloc, nloc))
                term = np.einsum("c,ab->cab", mu_g[:, g],
                                 (lap if c1 == c2 else 0) + Eg[(c2, c1)])
                term += np.einsum("c,ab->cab", lam_g[:, g], Eg[(c1, c2)])
                blocks[c1, c2] += term

    rows, cols, vals = [], [], []
    for c1 in range(d):
        for c2 in range(d):
            r = (c1 * N + cells)[:, :, None] + np.zeros((1, 1, nloc), dtype=int)
            c = (c2 * N + cells)[:, None, :] + np.zeros((1, nloc, 1), dtype=int)
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(blocks[c1, c2].ravel())
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d * N, d * N)).tocsr()
    A.sum_duplicates()
    return A


def assemble_friction_matrix(grid, kappa):
    """kappa * line integral of (u.tau)(w.tau) over the reference boundary."""
    d = grid.dim
    N = grid.num_nodes
    if d == 1 or kappa == 0.0:
        return sp.csr_matrix((d * N, d * N))
    rows, cols, vals = [], [], []
    for face in grid.faces().values():
        for c1 in range(d):
            for c2 in range(d):
                coef = kappa * face.tangent[c1] * face.tangent[c2]
                if coef == 0.0:
                    continue
                rows.append(c1 * N + face.flat)
                cols.append(c2 * N + face.flat)
                vals.append(coef * face.weights)
    if not rows:
        return sp.csr_matrix((d * N, d * N))
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d * N, d * N)).tocsr()
    return A


# -- boundary conditions -----------------------------------------------------


class MomentumBC:
    """Boundary data supplier for the fixed-domain momentum solve.

    ``velocity(t, pts)`` provides the boundary velocity (V, or V at flow-map
    images for Lagrangian no-slip). For slip runs, ``normal_datum(t, face)``
    and ``stress_datum(t, face)`` return the per-face-node d and B arrays.
    """

    def __init__(self, kind, velocity, normal_datum=None, stress_datum=None):
        if kind not in ("slip", "no-slip"):
            raise InvalidArgumentError(f"unknown bc kind {kind!r}")
        self.kind = kind
        self.velocity = velocity
        self._d = normal_datum
        self._B = stress_datum

    @classmethod
    def no_slip(cls, velocity):
        return cls("no-slip", velocity)

    @classmethod
    def slip(cls, velocity, normal_datum=None, stress_datum=None):
        return cls("slip", velocity, normal_datum, stress_datum)

    def normal_datum(self, t, face, npts):
        if self._d is None:
            return np.zeros(npts)
        return np.asarray(self._d(t, face), dtype=float)

    def stress_datum(self, t, face, npts):
        if self._B is None:
            return np.zeros(npts)
        return np.asarray(self._B(t, face), dtype=float)


def _dirichlet_data(grid, bc, t):
    """(dof indices, values) of the strongly enforced constraints at time t."""
    d = grid.dim
    N = grid.num_nodes
    pts = grid.node_coords()
    idx, vals = [], []
    if bc.kind == "no-slip":
        mask = grid.boundary_mask().ravel()
        flat = np.nonzero(mask)[0]
        vb = np.asarray(bc.velocity(t, pts[flat]), dtype=float).reshape(len(flat), d)
        for c in range(d):
            idx.append(c * N + flat)
            vals.append(vb[:, c])
    else:
        for face in grid.faces().values():
            flat, axis = face.flat, face.axis
            vb = np.asarray(bc.velocity(t, pts[flat]), dtype=float).reshape(len(flat), d)
            dat = bc.normal_datum(t, face.name, len(flat))
            # u.n = V.n + d on an axis-aligned face: u_axis = V_axis + n_axis d
            idx.append(axis * N + flat)
            vals.append(vb[:, axis] + face.normal[axis] * dat)
    idx = np.concatenate(idx)
    vals = np.concatenate(vals)
    # corners may be constrained by two faces; keep the last write
    order = np.argsort(idx, kind="stable")
    idx, vals = idx[order], vals[order]
    keep = np.ones(len(idx), dtype=bool)
    keep[:-1] = idx[1:] != idx[:-1]
    return idx[keep], vals[keep]


def _slip_boundary_load(grid, bc, params, t):
    """Natural-boundary load: line integral of (B + kappa V.tau) (w.tau)."""
    d = grid.dim
    N = grid.num_nodes
    load = np.zeros(d * N)
    if bc.kind != "slip" or d == 1:
        return load
    pts = grid.node_coords()
    for face in grid.faces().values():
        flat, tau = face.flat, face.tangent
        data = bc.stress_datum(t, face.name, len(flat))
        if params.kappa > 0:
            data = data + params.kappa * (bc.velocity(t, pts[flat]) @ tau)
        for c in range(d):
            if tau[c] != 0.0:
                np.add.at(load, c * N + flat, face.weights * data * tau[c])
    return load


class _DirichletSystem:
    """Eliminates constrained dofs from an SPD matrix, keeping symmetry."""

    def __init__(self, A, idx):
        self.idx = np.asarray(idx, dtype=int)
        self.cols = A[:, self.idx].tocsc()
        free = np.ones(A.shape[0])
        free[self.idx] = 0.0
        P = sp.diags(free)
        self.matrix = (P @ A @ P + sp.diags(1.0 - free)).tocsr()

    def rhs(self, b, vals):
        out = b - self.cols @ vals
        out[self.idx] = vals
        return out


def _cg_solve(A, b, x0, tol, maxiter=None):
    diag = A.diagonal()
    M = sp.diags(1.0 / np.where(diag > 0, diag, 1.0))
    count = [0]

    def cb(_):
        count[0] += 1

    x, info = spla.cg(A, b, x0=x0, rtol=tol, atol=0.0, M=M,
                      maxiter=maxiter, callback=cb)
    bnorm = np.linalg.norm(b)
    res = np.linalg.norm(A @ x - b) / (bnorm if bnorm > 0 else 1.0)
    if info != 0 or not np.isfinite(res) or res > 10 * tol:
        raise LinearSolverFailureError(
            f"CG stagnated (info={info}, residual={res:.3e})", residual=res)
    return x, count[0], res


def solve_linear_momentum(rho, rhs, bc, u0, params, dt, T, *,
                          mu_nodal=None, cg_tol=1e-10, rho_min=1e-10,
                          t0=0.0, report_energy=True):
    """Crank-Nicolson time stepping of rho du/dt - div S(grad u) = F.

    ``rho`` and ``rhs`` are callables of time returning nodal values (density
    (N,), force (N, d)); ``bc`` is a :class:`MomentumBC`. The density is
    frozen per step at the midpoint.
    Returns (list of velocity Fields including the initial level, reports).
    """
    grid = u0.grid
    d = grid.dim
    N = grid.num_nodes
    steps = _check_steps(T, dt)
    K = assemble_stress_matrix(grid, params, mu_nodal)
    A_op = K
    if params.bc == "slip" and params.kappa > 0:
        A_op = K + assemble_friction_matrix(grid, params.kappa)
    wq = np.tile(grid.quadrature_weights().ravel(), d)

    u = u0.values.reshape(d, -1).ravel()
    levels = [u0.copy(t=t0)]
    reports = []
    t = t0
    for m in range(steps):
        th = t0 + (m + 0.5) * dt
        tn = t0 + (m + 1) * dt
        rho_h = np.asarray(rho(th), dtype=float).ravel()
        if np.any(rho_h < rho_min):
            raise PositivityViolationError(
                f"density {rho_h.min():.3e} below floor {rho_min:.3e} at t={th}")
        Mdiag = wq * np.tile(rho_h, d)
        lhs = sp.diags(Mdiag / dt) + 0.5 * A_op
        f = np.asarray(rhs(th), dtype=float).reshape(N, d)
        bload = _slip_boundary_load(grid, bc, params, th)
        load = (grid.quadrature_weights().ravel()[:, None] * f).T.ravel() + bload
        b = (sp.diags(Mdiag / dt) - 0.5 * A_op) @ u + load

        idx, vals = _dirichlet_data(grid, bc, tn)
        ds = _DirichletSystem(lhs.tocsr(), idx)
        b2 = ds.rhs(b, vals)
        u_new, iters, res = _cg_solve(ds.matrix, b2, u, cg_tol)

        if report_energy:
            kin = 0.5 * float(np.sum(Mdiag * u_new**2) - np.sum(Mdiag * u**2))
            mid = 0.5 * (u + u_new)
            diss = float(mid @ (K @ mid))
            bwork = float(mid @ bload)
        else:
            kin = diss = bwork = 0.0
        reports.append(MomentumStepReport(tn, iters, res, diss, kin, bwork))
        u = u_new
        t = tn
        levels.append(Field(grid, u.reshape(d, *grid.shape), t))
    return levels, reports


def momentum_energy_residual(u_levels, times, rho, rhs, params, bc=None,
                             grid=None):
    """Discrete energy-identity imbalance per step, by independent quadrature.

    Evaluates d/dt int rho |u|^2/2 + int S(grad u):grad u - int F.u
    - boundary work (slip), with trapezoid quadrature and FD gradients that
    do not reuse the assembled operator; the imbalance is O(dt^2 + h^2) on
    smooth solutions. Testing is against u (V-terms folded into rhs/bc data).
    """
    grid = grid or u_levels[0].grid
    d = grid.dim
    w = grid.quadrature_weights().ravel()
    records = []
    for m in range(len(u_levels) - 1):
        dt = times[m + 1] - times[m]
        th = 0.5 * (times[m] + times[m + 1])
        rho_h = np.asarray(rho(th), dtype=float).ravel()
        u0 = u_levels[m].values.reshape(d, -1).T
        u1 = u_levels[m + 1].values.reshape(d, -1).T
        kin = float(np.sum(w * rho_h * (np.sum(u1**2, 1) - np.sum(u0**2, 1))) / (2 * dt))
        mid = Field(grid, 0.5 * (u_levels[m].values + u_levels[m + 1].values), th)
        gmid = gradient_values(mid)
        diss = float(np.sum(w * dissipation_density(gmid, params.mu, params.eta)))
        f = np.asarray(rhs(th), dtype=float).reshape(-1, d)
        umid = 0.5 * (u0 + u1)
        work = float(np.sum(w * np.sum(f * umid, axis=1)))
        bwork = 0.0
        fric = 0.0
        if bc is not None and bc.kind == "slip" and d == 2:
            pts = grid.node_coords()
            for face in grid.faces().values():
                flat, tau, wline = face.flat, face.tangent, face.weights
                ut = umid[flat] @ tau
                B = bc.stress_datum(th, face.name, len(flat))
                vt = bc.velocity(th, pts[flat]) @ tau
                bwork += float(np.sum(wline * B * ut))
                if params.kappa > 0:
                    fric += float(np.sum(wline * params.kappa * (ut - vt) * ut))
        records.append({
            "t": th,
            "kinetic_rate": kin,
            "dissipation": diss,
            "work": work,
            "boundary_work": bwork,
            "friction": fric,
            "imbalance": kin + diss + fric - work - bwork,
        })
    return records
