"""Prescribed motion fields and the flow map they generate.

The flow map X(t, .) solves dX/dt = V(t, X), X(0, z) = z per reference node,
together with the Jacobian ODE d(gradX)/dt = gradV gradX and, on request, the
second-Jacobian ODE. Everything is classical RK4 with a fixed step, in one
integrator that transport shares (adding the divergence integral) and that
checks the state is finite and det gradX > 0 at every level. Only the
forward map is stored: the transformed equations read gradY = (gradX)^-1
node by node, never Y at a physical point. ``FlowMap.frame(t)`` derives the
geometry at one time (gradY, det gradX, the physical face normals) once for
every layer that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DegenerateMapError, InvalidArgumentError
from .fields import _contract, blend_levels, gradient_values, rotate90


class MotionField:
    """2-D velocity field V(t, x) with its derivatives up to grad^3, d_tt.

    The motion is prescribed, so each derivative is known data: an
    evaluator returns what its keyword's callable gives, and asking for a
    derivative that was not supplied raises :class:`InvalidArgumentError`
    naming the keyword; nothing is estimated. The affine constructors
    (zero, translation, dilation, shear) supply every derivative exactly.
    """

    def __init__(self, dim, fn, *, dt_fn=None, dtt_fn=None, grad_fn=None,
                 grad2_fn=None, grad3_fn=None):
        if dim != 2:
            raise InvalidArgumentError(f"a motion field is 2-D, got dim = {dim}")
        self._fns = {"fn": fn, "dt_fn": dt_fn, "dtt_fn": dtt_fn, "grad_fn": grad_fn,
                     "grad2_fn": grad2_fn, "grad3_fn": grad3_fn}

    # -- constructors -----------------------------------------------------

    @classmethod
    def _affine(cls, A, c):
        """V(t, x) = A x + c, with its exact (zero beyond grad) derivatives."""
        A = np.asarray(A, dtype=float)
        c = np.asarray(c, dtype=float)
        z = lambda t, p: np.zeros_like(p)
        return cls(len(c), lambda t, p: p @ A.T + c, dt_fn=z, dtt_fn=z,
                   grad_fn=lambda t, p: np.broadcast_to(A, p.shape + (2,)).copy(),
                   grad2_fn=lambda t, p: np.zeros(p.shape + (2, 2)),
                   grad3_fn=lambda t, p: np.zeros(p.shape + (2, 2, 2)))

    @classmethod
    def zero(cls):
        return cls._affine(np.zeros((2, 2)), np.zeros(2))

    @classmethod
    def translation(cls, c):
        return cls._affine(np.zeros((len(c), len(c))), c)

    @classmethod
    def dilation(cls, alpha):
        return cls._affine(float(alpha) * np.eye(2), np.zeros(2))

    @classmethod
    def shear(cls, sigma):
        """2D horizontal shear: V = (sigma * x2, 0)."""
        return cls._affine([[0.0, float(sigma)], [0.0, 0.0]], np.zeros(2))

    @classmethod
    def expression(cls, fn, dim, **kwargs):
        return cls(dim, fn, **kwargs)

    # -- evaluators --------------------------------------------------------

    def _eval(self, key, t, pts):
        """The callable given as ``key`` at (t, pts), as floats."""
        fn = self._fns[key]
        if fn is None:
            raise InvalidArgumentError(
                f"motion field built without {key}: its derivatives are data, not estimated")
        return np.asarray(fn(t, np.asarray(pts, dtype=float)), dtype=float)

    def velocity(self, t, pts):
        return self._eval("fn", t, pts)

    def dt_velocity(self, t, pts):
        return self._eval("dt_fn", t, pts)

    def dtt_velocity(self, t, pts):
        return self._eval("dtt_fn", t, pts)

    def gradient(self, t, pts):
        """grad[..., i, j] = dV_i/dx_j."""
        return self._eval("grad_fn", t, pts)

    def gradient2(self, t, pts):
        """grad2[..., i, j, k] = d^2 V_i / dx_j dx_k."""
        return self._eval("grad2_fn", t, pts)

    def gradient3(self, t, pts):
        return self._eval("grad3_fn", t, pts)

    def velocity_and_gradient(self, t, pts):
        """V (npts, 2) and grad V (npts, 2, 2): one RK4 stage's source call."""
        return self.velocity(t, pts), self.gradient(t, pts)


def _mat_inv(J):
    """Per-node inverse of the rows J (2, 2, N), as rows."""
    (a, b), (c, e) = J
    det = a * e - b * c
    return np.array([[e / det, -b / det], [-c / det, a / det]])


def _pack(parts):
    """Node-major parts {name: (N, ...)}, X first, packed component-major
    into one (C, N) state; returns it with each part's row slice."""
    cols = [a.reshape(len(a), -1) for a in parts.values()]
    stops = np.cumsum([c.shape[1] for c in cols])
    rows = {part: slice(stop - c.shape[1], stop) for part, c, stop in zip(parts, cols, stops)}
    return np.ascontiguousarray(np.concatenate(cols, axis=1).T), rows


def _component_major(a):
    """A node-major (N, ...) array as contiguous rows (..., N)."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _rhs(source, t, y, out, rows, work):
    """out = f(t, y) for the packed (C, N) state y with row slices ``rows``.

    J' = g J, H'[i, j, k] = sum_p W[i, p, k] J[p, j] + sum_p g[i, p] H[p, j, k]
    with W[i, p, k] = sum_q grad2V[i, p, q] J[q, k], and I' = div V = tr g.
    V and g = grad V come from one ``source.velocity_and_gradient`` call.
    ``work`` holds W's d^3 rows.
    """
    N, d = y.shape[1], rows["X"].stop
    x = y[rows["X"]].T
    v, g = source.velocity_and_gradient(t, x)
    out[rows["X"]] = v.T
    J = y[rows["J"]].reshape(d, d, N)
    g = _component_major(g)
    _contract(g, J, out[rows["J"]].reshape(d, d, N))
    if "H" in rows:
        W = work.reshape(d * d, d, N)
        g2 = _component_major(source.gradient2(t, x)).reshape(d * d, d, N)
        _contract(g2, J, W)
        H = out[rows["H"]].reshape(d, d * d, N)
        _contract(g, y[rows["H"]].reshape(d, d * d, N), H)
        for i, Wi in enumerate(W.reshape(d, d, d, N)):
            _contract(J.transpose(1, 0, 2), Wi, H[i].reshape(d, d, N), add=True)
    if "I" in rows:
        out[rows["I"]] = g[0, 0] + g[1, 1]


def _rk4_levels(source, grid, T, dt, extra=None):
    """Classical RK4 along characteristics from the grid's nodes over [0, T],
    for both the flow map and transport.

    Integrates X and J = gradX from the identity and ``extra``, H (second
    Jacobian) or I (divergence integral), from 0. Returns the level times
    dt m and {part: read-only node-major store (M+1, N, ...)}. The state is
    one component-major (C, N) array; the stages run on preallocated
    buffers. Step m times its last stage at (m + 1) dt, as the next step's
    first (m dt + dt can be an ulp off it). Raises, at the first level where
    it happens, :class:`InvalidArgumentError` naming the launch node of a
    non-finite state and :class:`DegenerateMapError` if det gradX <= 0.
    """
    steps = _check_steps(T, dt)
    N, d = grid.num_nodes, grid.dim
    levels = {"X": np.empty((steps + 1, N, d)), "J": np.empty((steps + 1, N, d, d))}
    levels["X"][0], levels["J"][0] = grid.node_coords(), np.eye(d)
    if extra is not None:
        levels[extra] = np.zeros((steps + 1, N) + {"H": (d, d, d), "I": ()}[extra])
    times = dt * np.arange(steps + 1)
    y, rows = _pack({part: store[0] for part, store in levels.items()})
    ys, k, acc = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    work = np.empty((d ** 3 if "H" in rows else 0, N))
    for m in range(steps):
        t = m * dt
        _rhs(source, t, y, acc, rows, work)             # k1
        np.multiply(acc, dt / 2, out=ys)
        for h, h_next in ((dt / 2, dt / 2), (dt / 2, dt)):
            ys += y
            _rhs(source, t + h, ys, k, rows, work)      # k2, k3
            np.multiply(k, h_next, out=ys)
            k *= 2.0
            acc += k
        ys += y
        _rhs(source, (m + 1) * dt, ys, k, rows, work)   # k4
        acc += k
        acc *= dt / 6
        y += acc
        finite = np.all(np.isfinite(y), axis=0)
        if not np.all(finite):
            raise InvalidArgumentError(f"non-finite flow state at t={times[m + 1]} from "
                                       f"node {grid.node_coords()[np.argmin(finite)]}")
        for part, store in levels.items():
            store[m + 1] = y[rows[part]].T.reshape(store.shape[1:])
        _checked_det(y[rows["J"]].reshape(d, d, N), times[m + 1], grid)
    for store in levels.values():
        store.setflags(write=False)
    return times, levels


def _check_steps(T, dt):
    if not (0 <= T < np.inf and 0 < dt < np.inf):
        raise InvalidArgumentError(f"need 0 <= T < inf and 0 < dt < inf, got T = {T}, dt = {dt}")
    steps = T / dt
    if abs(steps - round(steps)) > 1e-12 * max(1.0, steps) or (T > 0 and round(steps) == 0):
        raise InvalidArgumentError(f"need a whole number of steps, got T = {T}, dt = {dt}")
    return int(round(steps))


@dataclass(frozen=True, eq=False)
class Frame:
    """The flow map's geometry at one time t, shared read-only by its users.

    ``X`` is the node images (N, d) and ``J`` the rows (d, d, N) of gradX.
    ``inv`` is gradY at the feet, the rows of the per-node inverse of gradX;
    ``det`` is det gradX > 0. ``faces`` is {name: (flat, n, tau)}: the
    physical unit normal at the image of each face node (gradY^T n_ref,
    renormalized) and its quarter turn.
    """

    t: float
    X: np.ndarray
    J: np.ndarray
    inv: np.ndarray
    det: np.ndarray
    faces: dict


def _checked_det(J, t, grid):
    """det gradX per node of the rows J; raises :class:`DegenerateMapError`
    with the node where it is smallest if it is <= 0 or NaN anywhere."""
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    if not np.all(det > 0):
        bad = int(np.argmin(det))
        raise DegenerateMapError(
            f"det gradX <= 0 at t={t}", t=t, z=grid.node_coords()[bad])
    return det


class FlowMap:
    """Stored forward map levels: times, positions, Jacobians, optional Hessians."""

    def __init__(self, grid, times, X, J, H=None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.X = X          # (M+1, N, d)
        self.J = J          # (M+1, N, d, d)
        self.H = H          # (M+1, N, d, d, d) or None
        self._frame = None

    def positions(self, t):
        """X(t, z) at every reference node, (N, d)."""
        return blend_levels(self.X, self.times, t)

    def jacobians(self, t):
        return blend_levels(self.J, self.times, t)

    def hessians(self, t):
        if self.H is None:
            raise InvalidArgumentError("flow map was built without the second Jacobian")
        return blend_levels(self.H, self.times, t)

    def frame(self, t):
        """The :class:`Frame` at t; the map keeps the last one asked for.

        Raises :class:`DegenerateMapError` if det gradX <= 0 at some node.
        """
        if self._frame is not None and self._frame.t == t:
            return self._frame
        X, J = self.positions(t), _component_major(self.jacobians(t))
        det = _checked_det(J, t, self.grid)
        inv = _mat_inv(J)
        faces = {}
        for face in self.grid.faces().values():
            # inverse-transpose: n_phys ~ gradY^T n_ref
            n = np.einsum("jip,j->pi", inv[..., face.flat], face.normal)
            n /= np.linalg.norm(n, axis=1, keepdims=True)
            faces[face.name] = (face.flat, n, rotate90(n))
        for a in chain((X, J, inv, det), *faces.values()):
            a.setflags(write=False)
        self._frame = Frame(float(t), X, J, inv, det, faces)
        return self._frame


def advect_flow_map(V, grid, T, dt_map, *, with_hessian=False):
    """Integrate the flow of V over [0, T] from X(0) = identity on the grid.

    RK4 per node for the trajectory, the Jacobian ODE, and (on request) the
    second-Jacobian ODE, all with the same fixed step. Aborts with
    :class:`DegenerateMapError` if det gradX <= 0 at any stored level.
    """
    times, levels = _rk4_levels(V, grid, T, dt_map, "H" if with_hessian else None)
    return FlowMap(grid, times, levels["X"], levels["J"], levels.get("H"))


def physical_gradient(f, frame):
    """grad_x f as rows (c, d, N) of a c-component Field sampled at the
    nodes' images: the shared stencil of
    :func:`~nsmove.fields.gradient_values` in y, times gradY from a
    :class:`Frame`."""
    return _contract(gradient_values(f), frame.inv)
