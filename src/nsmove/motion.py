"""Prescribed motion fields and the flow map they generate.

The flow map X(t, .) solves dX/dt = V(t, X), X(0, z) = z per reference node,
together with the Jacobian ODE d(gradX)/dt = gradV gradX and, on request, the
second-Jacobian ODE. Everything is classical RK4 with a fixed step; the
inverse map is recovered by Newton iteration on the stored forward map.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateMapError,
    InvalidArgumentError,
    InversionFailureError,
    UnsupportedDimensionError,
)
from .fields import blend_levels, interp_matrix, rotate90


class MotionField:
    """Velocity field V(t, x) with derivative evaluators up to grad^3, d_tt.

    Built-in kinds (zero, translation, dilation, shear) are analytically
    exact. The ``expression`` kind falls back to finite differences for any
    derivative not supplied: first gradients are accurate to ~1e-10, second
    to ~1e-7, third to ~1e-5 on O(1) data; good enough for monitors, not for
    acceptance-grade oracles.
    """

    def __init__(self, kind, dim, fn, *, dt_fn=None, dtt_fn=None, grad_fn=None,
                 grad2_fn=None, grad3_fn=None, params=None):
        self.kind = kind
        self.dim = dim
        self._fn = fn
        self._dt_fn = dt_fn
        self._dtt_fn = dtt_fn
        self._grad_fn = grad_fn
        self._grad2_fn = grad2_fn
        self._grad3_fn = grad3_fn
        self.params = dict(params or {})

    # -- constructors -----------------------------------------------------

    @classmethod
    def _affine(cls, kind, A, c, params=None):
        """V(t, x) = A x + c, with its exact (zero beyond grad) derivatives."""
        A = np.asarray(A, dtype=float)
        c = np.asarray(c, dtype=float)
        dim = len(c)
        z = lambda t, p: np.zeros_like(p)
        return cls(kind, dim, lambda t, p: p @ A.T + c, dt_fn=z, dtt_fn=z,
                   grad_fn=lambda t, p: np.broadcast_to(A, p.shape + (dim,)).copy(),
                   grad2_fn=lambda t, p: np.zeros(p.shape + (dim, dim)),
                   grad3_fn=lambda t, p: np.zeros(p.shape + (dim, dim, dim)),
                   params=params)

    @classmethod
    def zero(cls, dim):
        return cls._affine("zero", np.zeros((dim, dim)), np.zeros(dim))

    @classmethod
    def translation(cls, c):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        return cls._affine("translation", np.zeros((len(c), len(c))), c,
                           {"velocity": c})

    @classmethod
    def dilation(cls, alpha, dim):
        alpha = float(alpha)
        return cls._affine("dilation", alpha * np.eye(dim), np.zeros(dim),
                           {"rate": alpha})

    @classmethod
    def shear(cls, sigma):
        """2D horizontal shear: V = (sigma * x2, 0)."""
        sigma = float(sigma)
        return cls._affine("shear", [[0.0, sigma], [0.0, 0.0]], np.zeros(2),
                           {"rate": sigma})

    @classmethod
    def expression(cls, fn, dim, **kwargs):
        return cls("expression", dim, fn, **kwargs)

    # -- evaluators --------------------------------------------------------

    @property
    def is_identity_flow(self):
        return self.kind == "zero"

    def velocity(self, t, pts):
        return np.asarray(self._fn(t, np.asarray(pts, dtype=float)), dtype=float)

    def dt_velocity(self, t, pts):
        if self._dt_fn is not None:
            return np.asarray(self._dt_fn(t, pts), dtype=float)
        h = 1e-5
        return (self.velocity(t + h, pts) - self.velocity(t - h, pts)) / (2 * h)

    def dtt_velocity(self, t, pts):
        if self._dtt_fn is not None:
            return np.asarray(self._dtt_fn(t, pts), dtype=float)
        h = 1e-4
        return (self.velocity(t + h, pts) - 2 * self.velocity(t, pts)
                + self.velocity(t - h, pts)) / h**2

    def gradient(self, t, pts):
        """grad[..., i, j] = dV_i/dx_j."""
        if self._grad_fn is not None:
            return np.asarray(self._grad_fn(t, pts), dtype=float)
        return self._fd_jacobian(lambda p: self.velocity(t, p), pts, 1e-5)

    def gradient2(self, t, pts):
        """grad2[..., i, j, k] = d^2 V_i / dx_j dx_k."""
        if self._grad2_fn is not None:
            return np.asarray(self._grad2_fn(t, pts), dtype=float)
        return self._fd_jacobian(lambda p: self.gradient(t, p), pts, 2e-4)

    def gradient3(self, t, pts):
        if self._grad3_fn is not None:
            return np.asarray(self._grad3_fn(t, pts), dtype=float)
        return self._fd_jacobian(lambda p: self.gradient2(t, p), pts, 1e-3)

    def divergence(self, t, pts):
        g = self.gradient(t, pts)
        return np.trace(g, axis1=-2, axis2=-1)

    def grad_divergence(self, t, pts):
        """d/dx_j of div V, from the second gradient."""
        g2 = self.gradient2(t, pts)
        return np.einsum("...iij->...j", g2)

    def _fd_jacobian(self, fn, pts, h):
        pts = np.asarray(pts, dtype=float)
        cols = []
        for j in range(self.dim):
            dp = np.zeros_like(pts)
            dp[..., j] = h
            cols.append((fn(pts + dp) - fn(pts - dp)) / (2 * h))
        return np.stack(cols, axis=-1)


def _mat_inv(J):
    """Vectorized inverse of (..., d, d) with d in {1, 2}."""
    d = J.shape[-1]
    if d == 1:
        return 1.0 / J
    a, b = J[..., 0, 0], J[..., 0, 1]
    c, e = J[..., 1, 0], J[..., 1, 1]
    det = a * e - b * c
    out = np.empty_like(J)
    out[..., 0, 0] = e / det
    out[..., 0, 1] = -b / det
    out[..., 1, 0] = -c / det
    out[..., 1, 1] = a / det
    return out


def mat_det(J):
    d = J.shape[-1]
    if d == 1:
        return J[..., 0, 0]
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


class _OdeState:
    """Bundle of per-node quantities integrated along characteristics."""

    __slots__ = ("X", "J", "H", "I", "G")

    def __init__(self, X, J=None, H=None, I=None, G=None):
        self.X = X
        self.J = J
        self.H = H
        self.I = I
        self.G = G

    def axpy(self, a, other):
        return _OdeState(
            self.X + a * other.X,
            None if self.J is None else self.J + a * other.J,
            None if self.H is None else self.H + a * other.H,
            None if self.I is None else self.I + a * other.I,
            None if self.G is None else self.G + a * other.G,
        )


def _accumulate(terms):
    """Sum fresh arrays in place into the first one."""
    terms = iter(terms)
    out = next(terms)
    for term in terms:
        out += term
    return out


def _rhs(source, t, st):
    # The per-node contractions are written out as products of component
    # slices: for d <= 2 that is several times faster than a generic einsum.
    v = source.velocity(t, st.X)
    J = H = I = G = None
    need_grad = st.J is not None or st.H is not None
    g = source.gradient(t, st.X) if need_grad else None
    ix = range(st.X.shape[-1])
    if st.J is not None:
        J = np.empty_like(st.J)
        for i in ix:
            for j in ix:
                J[..., i, j] = _accumulate(g[..., i, p] * st.J[..., p, j] for p in ix)
    if st.H is not None:
        g2 = source.gradient2(t, st.X)
        H = np.empty_like(st.H)
        for i in ix:
            for j in ix:
                for k in ix:
                    H[..., i, j, k] = _accumulate(chain(
                        (g2[..., i, p, q] * st.J[..., p, j] * st.J[..., q, k]
                         for p in ix for q in ix),
                        (g[..., i, p] * st.H[..., p, j, k] for p in ix)))
    if st.I is not None:
        I = source.divergence(t, st.X)
    if st.G is not None:
        gd = source.grad_divergence(t, st.X)
        G = np.empty_like(st.G)
        for j in ix:
            G[..., j] = _accumulate(gd[..., p] * st.J[..., p, j] for p in ix)
    return _OdeState(v, J, H, I, G)


def rk4_step(source, t, dt, st):
    k1 = _rhs(source, t, st)
    k2 = _rhs(source, t + dt / 2, st.axpy(dt / 2, k1))
    k3 = _rhs(source, t + dt / 2, st.axpy(dt / 2, k2))
    k4 = _rhs(source, t + dt, st.axpy(dt, k3))
    combo = k1.axpy(2.0, k2).axpy(2.0, k3).axpy(1.0, k4)
    return st.axpy(dt / 6.0, combo)


def _check_steps(T, dt):
    steps = T / dt
    if dt <= 0:
        raise InvalidArgumentError("time step must be positive")
    if abs(steps - round(steps)) > 1e-12 * max(1.0, steps):
        raise InvalidArgumentError(f"T/dt = {steps} is not integral")
    return int(round(steps))


class FlowMap:
    """Stored forward map levels: times, positions, Jacobians, optional Hessians."""

    def __init__(self, grid, times, X, J, H=None, motion=None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.X = X          # (M+1, N, d)
        self.J = J          # (M+1, N, d, d)
        self.H = H          # (M+1, N, d, d, d) or None
        self.motion = motion
        self._pos_field_cache = {}

    @property
    def dim(self):
        return self.grid.dim

    @property
    def is_identity(self):
        return self.motion is not None and self.motion.is_identity_flow

    def positions(self, t):
        """X(t, z) at every reference node, (N, d)."""
        return blend_levels(self.X, self.times, t)

    def jacobians(self, t):
        return blend_levels(self.J, self.times, t)

    def hessians(self, t):
        if self.H is None:
            raise InvalidArgumentError("flow map was built without the second Jacobian")
        return blend_levels(self.H, self.times, t)

    def _position_fields(self, t):
        """X(t) | gradX(t) at every node, stacked node-major into (N, d + d^2)."""
        key = float(t)
        if key not in self._pos_field_cache:
            if len(self._pos_field_cache) > 8:
                self._pos_field_cache.clear()
            self._pos_field_cache[key] = np.concatenate(
                [self.positions(t), self.jacobians(t).reshape(self.grid.num_nodes, -1)],
                axis=1)
        return self._pos_field_cache[key]

    def _forward_and_jacobian(self, t, z):
        """X(t, z) and gradX(t, z) from one interpolation matrix at z."""
        M = interp_matrix(self.grid, z, out_of_bounds="clamp")
        vals, d = M @ self._position_fields(t), self.dim
        return vals[:, :d], vals[:, d:].reshape(len(vals), d, d)

    def eval_forward(self, t, z):
        """X(t, z) at arbitrary reference points by cubic interpolation."""
        if self.is_identity:
            return np.atleast_2d(np.array(z, dtype=float, copy=True))
        return self._forward_and_jacobian(t, z)[0]

    def invert(self, t, x, seed=None, tol=1e-10, max_iter=50):
        """Y(t, x): Newton iteration on X(t, z) - x = 0, seeded from the
        reference node whose stored position X(t, z) is nearest to x (found
        with a k-d tree), or from a caller-provided seed."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.is_identity:
            return x.copy()
        if seed is None:
            _, nearest = cKDTree(self.positions(t)).query(x)
            z = self.grid.node_coords()[nearest]
        else:
            z = np.array(seed, dtype=float, copy=True)
        lo = np.array(self.grid.lo)
        hi = np.array(self.grid.hi)
        for _ in range(max_iter):
            X, J = self._forward_and_jacobian(t, z)
            res = X - x
            if np.max(np.abs(res)) <= tol:
                return z
            step = np.einsum("pij,pj->pi", _mat_inv(J), res)
            z = np.clip(z - step, lo, hi)
        res = np.max(np.abs(self.eval_forward(t, z) - x))
        raise InversionFailureError(
            f"inverse map Newton stalled at t={t}, residual {res:.3e}")


def advect_flow_map(V, grid, T, dt_map, *, with_hessian=False,
                    t0=0.0, X0=None, J0=None, H0=None):
    """Integrate the flow of V from the grid nodes over [t0, t0+T].

    RK4 per node for the trajectory, the Jacobian ODE, and (on request) the
    second-Jacobian ODE, all with the same fixed step. Aborts with
    :class:`DegenerateMapError` if det gradX <= 0 at any stored level.
    """
    steps = _check_steps(T, dt_map)
    N, d = grid.num_nodes, grid.dim
    X = grid.node_coords() if X0 is None else np.array(X0, dtype=float, copy=True)
    J = (np.broadcast_to(np.eye(d), (N, d, d)).copy() if J0 is None
         else np.array(J0, dtype=float, copy=True))
    H = None
    if with_hessian:
        H = (np.zeros((N, d, d, d)) if H0 is None
             else np.array(H0, dtype=float, copy=True))
    st = _OdeState(X, J, H)

    times = [t0]
    Xs, Js = [st.X.copy()], [st.J.copy()]
    Hs = [st.H.copy()] if with_hessian else None
    t = t0
    for m in range(steps):
        st = rk4_step(V, t, dt_map, st)
        t = t0 + (m + 1) * dt_map
        det = mat_det(st.J)
        if np.any(det <= 0):
            bad = int(np.argmin(det))
            raise DegenerateMapError(
                f"det gradX <= 0 at t={t}", t=t, z=grid.node_coords()[bad])
        times.append(t)
        Xs.append(st.X.copy())
        Js.append(st.J.copy())
        if with_hessian:
            Hs.append(st.H.copy())
    return FlowMap(grid, np.array(times), np.array(Xs), np.array(Js),
                   np.array(Hs) if with_hessian else None, motion=V)


def flow_jacobians(flow_map, t):
    """(gradX, gradY, grad2X or None, gap) at every reference node.

    gradY is the per-node matrix inverse of gradX (the inverse-map Jacobian
    at the characteristic feet); gap is the sup-norm of gradY - I.
    """
    gx = flow_map.jacobians(t)
    det = mat_det(gx)
    if np.any(det <= 0):
        raise DegenerateMapError(f"singular gradX at t={t}", t=t)
    gy = _mat_inv(gx)
    g2 = flow_map.hessians(t) if flow_map.H is not None else None
    eye = np.eye(flow_map.dim)
    gap = float(np.max(np.abs(gy - eye)))
    return gx, gy, g2, gap


def physical_gradient(grad_y, J):
    """grad_x = grad_y gradX^-1 per node, (N, c, d); ``J=None`` is a static
    grid, where grad_x = grad_y."""
    if J is None:
        return grad_y
    return np.einsum("pij,pjk->pik", grad_y, _mat_inv(J))


def boundary_frame(flow_map, t):
    """Physical unit normal/tangent at the image of each boundary face node.

    The normal transforms with the inverse-transpose Jacobian and is
    renormalized; the tangent is the normal rotated by a quarter turn.
    Returns {face: (flat, n, tau)} with n, tau of shape (m, 2).
    """
    if flow_map.dim != 2:
        raise UnsupportedDimensionError("boundary frames require d = 2")
    gy = _mat_inv(flow_map.jacobians(t))
    out = {}
    for face in flow_map.grid.faces().values():
        # inverse-transpose: n_phys ~ gradY^T n_ref
        n = np.einsum("pji,j->pi", gy[face.flat], face.normal)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        out[face.name] = (face.flat, n, rotate90(n))
    return out
