"""Fixed-domain linear momentum solver: variable-coefficient parabolic system
with the Lame operator and slip / no-slip boundary conditions.

The operator is assembled in symmetric energy form (Q1/P1 elements, lumped
trapezoid mass), so the Crank-Nicolson inner systems are SPD by
construction. The viscosities are constant, so the stiffness is a sum of
Kronecker products of 1-D P1 stiffness, mass and derivative-value matrices
and stores only its exact nonzeros. The slip tangential stress datum B and
the friction term kappa (u - V).tau enter as natural boundary terms, while
the normal component is enforced strongly. The friction is diagonal: u.tau
is u_y on an x-face and u_x on a y-face. A solve stores one fine-level
matrix, H = A/2 with A = K + friction, made from K in place: the explicit
half step, the dissipation and the reaction use it, and the eliminated
system applies its finest level through it rather than a masked copy. The
constrained dofs are eliminated once per solve, and each step's system is
solved by CG preconditioned with one geometric-multigrid V-cycle (bilinear
prolongation, Galerkin coarse stiffness, damped-Jacobi smoothing, a dense
inverse on the coarsest level of at most 5 nodes per axis), written in
numpy so that a solve loads no ``scipy.sparse.linalg``. Every
level takes each step's mass, the coarse ones restricted from it, so the
iteration count grows neither as h shrinks nor as the density changes. Each
step reports the work of the reaction on the constrained dofs, which closes
the discrete energy identity to solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .energy import stress_tensor
from .errors import (
    InvalidArgumentError,
    LinearSolverFailureError,
    PositivityViolationError,
)
from .fields import Field, _contract, _dot, gradient_values, level_fields, level_times
from .motion import _check_steps


@dataclass(frozen=True)
class FluidParams:
    """Viscosities, boundary friction and the boundary-condition kind."""

    mu: float
    eta: float = 0.0
    kappa: float = 0.0
    bc: str = "no-slip"

    def __post_init__(self):
        # written so that NaN, which fails every comparison, is refused too
        if not 0 < self.mu < np.inf:
            raise InvalidArgumentError(
                f"shear viscosity mu must be positive and finite, got {self.mu}")
        if not (0 <= self.eta < np.inf and 0 <= self.kappa < np.inf):
            raise InvalidArgumentError("eta and kappa must be nonnegative and finite, "
                                       f"got eta={self.eta}, kappa={self.kappa}")
        if self.bc not in ("slip", "no-slip"):
            raise InvalidArgumentError(f"bc must be 'slip' or 'no-slip', got {self.bc!r}")


@dataclass
class MomentumStepReport:
    """Solver health and energy terms of one Crank-Nicolson step.

    ``dissipation`` is ubar . K ubar, computed as ubar . (A ubar) minus
    sum f ubar^2, with A = K + friction and f the friction's diagonal.
    ``reaction_work`` is ubar . r, with r = M (u1 - u0)/dt + A ubar - load
    restricted to the constrained rows: the work of the reaction that
    enforces the strong normal condition. kinetic_change/dt + dissipation +
    ubar . F_fric ubar - ubar . load - reaction_work is zero to CG tolerance.
    """

    t: float
    iterations: int
    residual: float
    dissipation: float
    kinetic_change: float
    boundary_work: float
    reaction_work: float


# -- the Lame stiffness -------------------------------------------------------


def _p1_matrices_1d(n, h):
    """1-D P1 stiffness K, consistent mass M and G[a, b] = int phi_a' phi_b
    on n nodes of spacing h."""
    e = np.ones(n - 1)
    half = np.ones(n)
    half[[0, -1]] = 0.5  # an end node lies in one cell
    g = np.zeros(n)
    g[[0, -1]] = [-0.5, 0.5]
    K = sp.diags([-e, 2.0 * half, -e], [-1, 0, 1]) / h
    M = sp.diags([e, 4.0 * half, e], [-1, 0, 1]) * (h / 6.0)
    G = sp.diags([0.5 * e, g, -0.5 * e], [-1, 0, 1])
    return K, M, G


def assemble_stress_matrix(grid, params):
    """Symmetric stiffness of a(u, w) = int S(grad u) : grad w, Q1/P1 elements.

    With E^{pq}[a, b] = int d_p phi_a d_q phi_b, the block of components
    (c1, c2) is mu (delta_{c1 c2} (E^00 + E^11) + E^{c2 c1}) + lam E^{c1 c2},
    lam = eta - 2 mu / 3 (Newtonian stress). The viscosities are constant, so
    on the tensor grid every E^{pq} is a Kronecker product of the 1-D P1
    matrices of :func:`_p1_matrices_1d`: E^00 = Kx (x) My, E^11 = Mx (x) Ky,
    E^01 = Gx (x) Gy^T = (E^10)^T. Two-point Gauss quadrature per cell
    gives the same matrix to round-off. Only exact nonzeros are stored (13
    per interior row), and K is exactly symmetric. The blocks are joined as
    CSR, never through COO, and each term is freed once it has been used.
    """
    mu = params.mu
    lam = params.eta - 2.0 * mu / 3.0
    (Kx, Mx, Gx), (Ky, My, Gy) = [_p1_matrices_1d(n, h)
                                  for n, h in zip(grid.shape, grid.spacing)]
    Exx = sp.kron(Kx, My, format="csr")
    Eyy = sp.kron(Mx, Ky, format="csr")
    lap = mu * (Exx + Eyy)
    b00, b11 = lap + (mu + lam) * Exx, lap + (mu + lam) * Eyy
    del Exx, Eyy, lap
    Exy = sp.kron(Gx, Gy.T, format="csr")
    Eyx = Exy.T.tocsr()
    b01, b10 = lam * Exy + mu * Eyx, mu * Exy + lam * Eyx
    del Exy, Eyx
    top = sp.hstack([b00, b01], format="csr")
    del b00, b01
    return sp.vstack([top, sp.hstack([b10, b11], format="csr")], format="csr")


# -- boundary conditions -----------------------------------------------------


class MomentumBC:
    """Boundary data supplier for the fixed-domain momentum solve.

    ``velocity(t, pts)`` provides the boundary velocity (V, or V at flow-map
    images for Lagrangian no-slip). For slip runs, ``normal_datum(t, face)``
    and ``stress_datum(t, face)`` return d and B on a face: one value per
    face node, or a scalar for the whole face.
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
        return _face_datum("normal datum", self._d, t, face, npts)

    def stress_datum(self, t, face, npts):
        return _face_datum("stress datum", self._B, t, face, npts)


def _face_datum(name, fn, t, face, npts):
    """fn(t, face) as npts values: a scalar is broadcast over the face, and
    any shape but () or (npts,), or a non-finite value, is rejected."""
    if fn is None:
        return np.zeros(npts)
    vals = np.asarray(fn(t, face), dtype=float)
    if vals.shape not in ((), (npts,)):
        raise InvalidArgumentError(
            f"{name} at t={t} on face {face!r} has shape {vals.shape}; "
            f"expected a scalar or shape ({npts},)")
    if not np.all(np.isfinite(vals)):
        raise InvalidArgumentError(f"{name} at t={t} on face {face!r} is not finite")
    return np.broadcast_to(vals, (npts,))


def _boundary_velocity(bc, t, pts, face):
    """bc.velocity(t, pts) as finite (npts, 2) values, else
    :class:`InvalidArgumentError` naming t and the face (None: all faces)."""
    vals = np.asarray(bc.velocity(t, pts), dtype=float)
    if vals.shape != pts.shape or not np.all(np.isfinite(vals)):
        where = "" if face is None else f" on face {face!r}"
        raise InvalidArgumentError(f"boundary velocity at t={t}{where} has shape {vals.shape} "
                                   f"or a non-finite value; expected finite {pts.shape}")
    return vals


def _check_bc_kind(bc, params):
    if bc.kind != params.bc:
        raise InvalidArgumentError(
            f"boundary data are {bc.kind!r} but params.bc is {params.bc!r}")


def _dirichlet_data(grid, bc, t):
    """(sorted dof indices, values) of the strongly enforced constraints at time t."""
    d = grid.dim
    N = grid.num_nodes
    pts = grid.node_coords()
    idx, vals = [], []
    if bc.kind == "no-slip":
        flat = np.unique(np.concatenate([face.flat for face in grid.faces().values()]))
        vb = _boundary_velocity(bc, t, pts[flat], None)
        for c in range(d):
            idx.append(c * N + flat)
            vals.append(vb[:, c])
    else:
        for face in grid.faces().values():
            flat, axis = face.flat, face.axis
            vb = _boundary_velocity(bc, t, pts[flat], face.name)
            dat = bc.normal_datum(t, face.name, len(flat))
            # u.n = V.n + d on an axis-aligned face: u_axis = V_axis + n_axis d
            idx.append(axis * N + flat)
            vals.append(vb[:, axis] + face.normal[axis] * dat)
    # no dof is constrained twice: slip fixes u_x on the x-faces and u_y on
    # the y-faces; sorted, as the y-faces' nodes interleave
    idx = np.concatenate(idx)
    order = np.argsort(idx)
    return idx[order], np.concatenate(vals)[order]


def _slip_boundary_load(grid, bc, params, t):
    """Natural-boundary load: line integral of (B + kappa V.tau) (w.tau),
    on the tangential dofs (1 - axis) N + flat, which no two faces share."""
    N = grid.num_nodes
    load = np.zeros(grid.dim * N)
    if bc.kind != "slip":
        return load
    pts = grid.node_coords()
    for face in grid.faces().values():
        flat, tau = face.flat, face.tangent
        data = bc.stress_datum(t, face.name, len(flat))
        if params.kappa > 0:
            data = data + params.kappa * (_boundary_velocity(bc, t, pts[flat], face.name) @ tau)
        load[(1 - face.axis) * N + flat] = face.weights * data * tau[1 - face.axis]
    return load


# -- the Crank-Nicolson system and its multigrid hierarchy ---------------------

_COARSEST_NODES = 5  # an axis this short or shorter is not halved again


def _prolongation_1d(nf, nc):
    """Linear interpolation from nc coarse nodes to nf fine ones on the same
    interval; for nf = 2 nc - 1 the weights are 1 and 1/2."""
    s = np.arange(nf) * (nc - 1) / (nf - 1)     # fine nodes in coarse spacings
    j = np.minimum(s.astype(int), nc - 2)
    w = s - j
    rows = np.repeat(np.arange(nf), 2)
    cols = np.stack([j, j + 1], axis=1).ravel()
    vals = np.stack([1.0 - w, w], axis=1).ravel()
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(nf, nc))


def _jacobi_weight(offdiag, diagonal):
    """Damping 1.6 / g, g = max (offdiag + diagonal) / diagonal the Gershgorin
    bound on the spectrum of D^-1 A (offdiag: row sums of |A| off the diagonal).

    Then omega * lambda_max(D^-1 A) <= 1.6 < 2, so the symmetric V-cycle is
    positive definite whatever the mass. On the Crank-Nicolson Lame systems
    lambda_max is about 0.86 g, so omega * lambda_max is about 1.4; the
    Laplacian's usual 4 / (3 g) damps less and costs about one more PCG
    iteration per step.
    """
    return 1.6 / (1.0 + np.max(offdiag / diagonal))


def _diagonal_slots(op):
    """Positions in ``op.data`` of the diagonal entries, one stored per row."""
    rows = np.repeat(np.arange(op.shape[0], dtype=op.indices.dtype), np.diff(op.indptr))
    return np.flatnonzero(rows == op.indices)


class _CrankNicolsonSystem:
    """M/dt + A/2 with the constrained dofs eliminated, and its V-cycle.

    Built once per solve on the solve's H = A/2, A = K + friction. Level 0,
    F H F + (I - F) with F the diagonal of the free-dof mask, is not stored:
    :meth:`apply` computes H (F x) and copies x onto the constrained rows. A
    constrained column adds an exact zero to a row's sum, so each product has a
    masked copy's terms in the same order. The coupling columns are H[:, idx],
    and the coarse levels are Galerkin R H P of the stiffness alone, R the view
    ``P.T``, made CSR only while the product is formed. Prolongation is
    bilinear per component (a Kronecker product of 1-D interpolations) with
    zero rows on the constrained dofs. Each coarser level halves every axis
    that still has more than ``_COARSEST_NODES`` nodes, m nodes to (m + 1) // 2
    on the same interval, and keeps the others, until no axis is longer: the
    coarsest level has at most 5 nodes per axis (at most 50 dofs) on every
    grid. A coarse dof whose fine children are all constrained (a face dof of
    an axis that is kept, not halved) has an empty column in P; it gets an
    identity row, as a constrained dof does on level 0, and is masked in the
    next prolongation. :meth:`set_mass` writes the step's mass m into the
    diagonal of every level: F m into H's on level 0, and P^T m of the level
    above on a coarse one, the lumped Galerkin mass diag(P^T M P 1) as P 1 is
    the mask of the level above. It then inverts the coarsest level densely,
    in numpy. :meth:`solve` runs CG and then restores H's bare diagonal, so
    that between steps H is A/2 for the explicit half step and the midpoint
    product. Each level smooths with one damped-Jacobi sweep
    (:func:`_jacobi_weight`) before and one after the coarse correction, so
    :meth:`precondition`, one cycle, is a symmetric preconditioner for CG.
    Briggs, Henson & McCormick, A Multigrid Tutorial, 2nd ed., SIAM 2000.
    """

    def __init__(self, H, idx, mass, shape):
        n = H.shape[0]
        ncomp = n // int(np.prod(shape))
        self.idx = idx
        self.free = np.ones(n)
        self.free[idx] = 0.0
        self.cols = H[:, idx]
        self.ops = [H]
        self.prolong, self.restrict, masks = [], [], [self.free]
        while any(m > _COARSEST_NODES for m in shape):
            coarse = tuple((m + 1) // 2 if m > _COARSEST_NODES else m for m in shape)
            P = sp.identity(ncomp)
            for nf, nc in zip(shape, coarse):
                P = sp.kron(P, _prolongation_1d(nf, nc))
            shape = coarse
            P = (sp.diags(masks[-1]) @ P).tocsr()
            self.prolong.append(P)
            self.restrict.append(P.T)
            op = P.T.tocsr() @ self.ops[-1] @ P
            masks.append((np.bincount(P.indices, minlength=P.shape[1]) > 0) * 1.0)
            if not masks[-1].all():
                op = op + sp.diags(1.0 - masks[-1])
            self.ops.append(op)
        self._slots, self._base, self._offdiag = [], [], []
        # level 0: row sums over the free columns, identity rows on the constrained dofs
        for op, free in zip(self.ops, masks):
            # canonical order first: scipy sorts a product in place on first use
            op.sort_indices()
            self._slots.append(_diagonal_slots(op))
            diagonal = op.data[self._slots[-1]]
            self._base.append(np.where(free > 0.0, diagonal, 1.0))
            # row sums of |op| by the same CSR product on op's index arrays
            sums = sp.csr_matrix((np.abs(op.data), op.indices, op.indptr),
                                 shape=op.shape, copy=False) @ free
            self._offdiag.append(free * (sums - diagonal))
        self._bare = H.data[self._slots[0]]
        self.smooth = [None] * len(self.ops)
        self.set_mass(mass)

    def set_mass(self, mass):
        m = self.free * mass
        for level, op in enumerate(self.ops):
            if level:
                m = self.restrict[level - 1] @ m
            diagonal = self._base[level] + m
            op.data[self._slots[level]] = diagonal
            self.smooth[level] = _jacobi_weight(self._offdiag[level], diagonal) / diagonal
        # the coarsest level's dense matrix; on level 0 too, as F I = I F
        self.coarsest = np.linalg.inv(self.apply(np.eye(op.shape[0]), level))

    def apply(self, x, level=0):
        """The operator of ``level`` times x; on level 0, H (F x) but x on idx."""
        if level:
            return self.ops[level] @ x
        fx = x.copy()
        fx[self.idx] = 0.0
        y = self.ops[0] @ fx
        y[self.idx] = x[self.idx]
        return y

    def precondition(self, r, level=0):
        """One V-cycle on the residual r, from ``level`` down."""
        if level == len(self.prolong):
            return self.coarsest @ r
        s, R = self.smooth[level], self.restrict[level]
        x = s * r
        x += self.prolong[level] @ self.precondition(R @ (r - self.apply(x, level)), level + 1)
        return x + s * (r - self.apply(x, level))

    def solve(self, b, vals, x0):
        """CG from x0 on the step :meth:`set_mass` set, the constrained dofs at vals."""
        b = b - self.cols @ vals
        b[self.idx] = vals
        try:
            return _cg_solve(self.apply, b, x0, _CG_TOL, self.precondition)
        finally:
            self.ops[0].data[self._slots[0]] = self._bare


def _cg_solve(apply, b, x0, tol, precondition):
    """Preconditioned CG on apply(x) = b from x0, step for step the iteration of
    ``scipy.sparse.linalg.cg`` (scipy 1.17) with rtol=tol, atol=0: r = b -
    apply(x0) (b if x0 = 0), stop once ||r|| < tol ||b||, at most 10 n
    iterations, ``info`` 0 on convergence and the iteration limit otherwise.

    Returns (x, iterations, relative residual ||apply(x) - b|| / ||b||);
    raises :class:`LinearSolverFailureError` as soon as ||r|| is not finite,
    or if CG stopped short of tol or the true residual is not within 10 tol.
    """
    x = np.array(x0, dtype=float)
    bnorm = np.linalg.norm(b)
    iterations = info = 0
    if bnorm == 0:
        x[:] = 0.0
    else:
        r = b - apply(x) if x.any() else b.copy()
        maxiter = 10 * len(b)
        for iterations in range(maxiter):
            rnorm = np.linalg.norm(r)
            if rnorm < tol * bnorm:
                break
            if not np.isfinite(rnorm):
                raise LinearSolverFailureError(
                    f"CG residual norm {rnorm} after {iterations} iterations", residual=rnorm)
            z = precondition(r)
            rho = np.dot(r, z)
            if iterations:
                p *= rho / rho_prev
                p += z
            else:
                p = z.copy()
            q = apply(p)
            alpha = rho / np.dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
        else:
            iterations = info = maxiter
    res = np.linalg.norm(apply(x) - b) / (bnorm if bnorm > 0 else 1.0)
    if info != 0 or not np.isfinite(res) or res > 10 * tol:
        raise LinearSolverFailureError(
            f"CG stagnated (info={info}, residual={res:.3e})", residual=res)
    return x, iterations, res


def _callback_values(rho, rhs, t, N):
    """rho(t) as N finite values and rhs(t) as finite (N, 2); else
    :class:`InvalidArgumentError` naming t."""
    rho_t, f = np.asarray(rho(t), dtype=float), np.asarray(rhs(t), dtype=float)
    if rho_t.size != N or f.shape != (N, 2):
        raise InvalidArgumentError(
            f"at t={t} rho(t) has shape {rho_t.shape} and rhs(t) {f.shape}; "
            f"expected {N} values and ({N}, 2)")
    if not (np.all(np.isfinite(rho_t)) and np.all(np.isfinite(f))):
        raise InvalidArgumentError(f"at t={t} rho(t) or rhs(t) has a non-finite value")
    return rho_t.ravel(), f


_RHO_FLOOR = 1e-10  # smallest admissible midpoint density
_CG_TOL = 1e-10     # relative residual at which each step's CG stops


def solve_linear_momentum(rho, rhs, bc, u0, params, dt, T):
    """Crank-Nicolson time stepping of rho du/dt - div S(grad u) = F on [0, T].

    ``rho`` and ``rhs`` are callables of time returning nodal values (density
    N values, force (N, d)); ``bc`` is a :class:`MomentumBC` whose kind must
    be ``params.bc``. The density is frozen per step at the midpoint. The
    slip friction is kappa ``face.weights`` on each face's tangential dofs.
    ``u0`` must be a 2-component Field. Returns (list of velocity Fields
    including the initial level, reports).
    """
    _check_bc_kind(bc, params)
    if u0.ncomp != 2:
        raise InvalidArgumentError(f"u0 must have 2 components, got {u0.ncomp}")
    grid = u0.grid
    d = grid.dim
    N = grid.num_nodes
    steps = _check_steps(T, dt)
    H = assemble_stress_matrix(grid, params)  # K, then A = K + friction, then H = A/2
    fric = np.zeros(d * N)  # the friction's diagonal; it has no other entries
    if params.bc == "slip" and params.kappa > 0:
        for face in grid.faces().values():
            fric[(1 - face.axis) * N + face.flat] = params.kappa * face.weights
        H.data[_diagonal_slots(H)] += fric
    H.data *= 0.5
    w = grid.quadrature_weights().ravel()
    wq = np.tile(w, d)

    u = u0.values.reshape(d, -1).ravel()
    levels = [u0.copy(t=0.0)]
    reports = []
    system = None
    for m in range(steps):
        th = (m + 0.5) * dt
        tn = (m + 1) * dt
        rho_h, f = _callback_values(rho, rhs, th, N)
        if np.any(rho_h < _RHO_FLOOR):
            raise PositivityViolationError(
                f"density {rho_h.min():.3e} below floor {_RHO_FLOOR:.3e} at t={th}")
        Mdiag = wq * np.tile(rho_h, d)
        mass = Mdiag / dt
        bload = _slip_boundary_load(grid, bc, params, th)
        load = (w[:, None] * f).T.ravel() + bload
        b = mass * u - H @ u + load

        # the constrained dofs are the same at every step; only values move
        idx, vals = _dirichlet_data(grid, bc, tn)
        if system is None:
            system = _CrankNicolsonSystem(H, idx, mass, grid.shape)
        else:
            system.set_mass(mass)
        u_new, iters, res = system.solve(b, vals, u)

        kin = 0.5 * float(np.sum(Mdiag * u_new**2) - np.sum(Mdiag * u**2))
        mid = 0.5 * (u + u_new)
        Amid = 2.0 * (H @ mid)
        diss = float(mid @ Amid) - float(np.sum(fric * mid**2))
        bwork = float(mid @ bload)
        # CN residual on the constrained rows: the reaction's work
        reaction = (mass * (u_new - u) + Amid - load)[idx]
        rwork = float(mid[idx] @ reaction)
        reports.append(MomentumStepReport(tn, iters, res, diss, kin, bwork, rwork))
        u = u_new
        levels.append(Field(grid, u.reshape(d, *grid.shape), tn))
    return levels, reports


def momentum_energy_residual(u_levels, times, rho, rhs, params, bc):
    """Discrete energy-identity imbalance per step, by independent quadrature.

    Evaluates d/dt int rho |u|^2/2 + int S(grad u):grad u + friction - int F.u
    - boundary work, with trapezoid quadrature and FD gradients that do not
    reuse the assembled operator; the imbalance is O(dt^2 + h^2) on smooth
    solutions. The boundary work is that of the traction S n of the
    dissipation's S at the face nodes, on the constrained components (the
    consistent boundary flux of Hughes, Engel, Mazzei & Larson, J. Comput.
    Phys. 163, 2000): int (S n).u ds for no-slip, int (S n.n)(u.n) ds for
    slip, which adds int B u.tau ds and the friction. ``bc`` is the solve's
    :class:`MomentumBC`, of kind ``params.bc``; the levels are 2-component
    fields on one grid, one per increasing time.
    """
    _check_bc_kind(bc, params)
    times = level_times(times)
    u_levels = level_fields(u_levels, times, 2, "u")
    grid = u_levels[0].grid
    d = grid.dim
    w = grid.quadrature_weights().ravel()
    slip = bc.kind == "slip"
    pts, faces = grid.node_coords(), grid.faces().values()
    records = []
    for m in range(len(u_levels) - 1):
        dt = times[m + 1] - times[m]
        th = 0.5 * (times[m] + times[m + 1])
        rho_h, f = _callback_values(rho, rhs, th, grid.num_nodes)
        # component rows (d, N): sums over a node's components stay cheap
        u0 = u_levels[m].values.reshape(d, -1)
        u1 = u_levels[m + 1].values.reshape(d, -1)
        kin = float(np.sum(w * rho_h * (np.sum(u1**2, 0) - np.sum(u0**2, 0))) / (2 * dt))
        mid = Field(grid, 0.5 * (u_levels[m].values + u_levels[m + 1].values), th)
        gmid = gradient_values(mid)
        S = stress_tensor(gmid, params.mu, params.eta)
        diss = float(np.sum(w * _dot(S, gmid)))
        umid = mid.values.reshape(d, -1)
        work = float(np.sum(w * np.sum(f.T * umid, axis=0)))
        bwork = 0.0
        fric = 0.0
        for face in faces:
            flat, n, tau, wline = face.flat, face.normal, face.tangent, face.weights
            um = umid[:, flat]
            # the traction S n works on the constrained components
            Sn = _contract(S[..., flat], n[:, None, None])[:, 0]
            if not slip:
                bwork += float(np.sum(wline * _dot(Sn, um)))
                continue
            ut = tau @ um
            B = bc.stress_datum(th, face.name, len(flat))
            bwork += float(np.sum(wline * ((n @ Sn) * (n @ um) + B * ut)))
            if params.kappa > 0:
                vt = _boundary_velocity(bc, th, pts[flat], face.name) @ tau
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
