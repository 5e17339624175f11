"""Structured reference grids, discrete fields, stencils, interpolation, norms.

Everything in here lives on the fixed reference domain: a uniform tensor
grid on an axis-aligned rectangle. Curved physical domains only ever arise
downstream through composition with a flow map.

One layout rule holds in every module. Points, and whatever a point
callable returns (V and its derivatives, the pull-back callbacks), are
node-major (npts, ...), as are face-node arrays, a flow map's stored
levels and the two operands of interpolation-matrix products (a
``DiscreteVelocity`` level). Every other per-node tensor computed from a
:class:`Field` or a flow-map frame (gradX, grad u, gradY, second
derivatives, the stress) is contiguous component rows (..., N), N the node
count, so a product over components is a product of whole rows.
The row kernels are :func:`_contract` (the matrix product of two row
tensors), :func:`_dot` (the full contraction) and :func:`_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

from .errors import InvalidArgumentError, OutOfDomainError

FACE_NAMES = ("x0", "x1", "y0", "y1")

#: outward unit normals of the reference faces
FACE_NORMALS = {
    "x0": np.array([-1.0, 0.0]),
    "x1": np.array([1.0, 0.0]),
    "y0": np.array([0.0, -1.0]),
    "y1": np.array([0.0, 1.0]),
}


def rotate90(v):
    """Counter-clockwise quarter turn; maps a normal to its tangent."""
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _read_only(a):
    a.setflags(write=False)
    return a


def _trapezoid_weights(segments):
    """Composite-trapezoid node weights from segment lengths: half of each
    adjacent segment. On a uniform axis 0.5 h + 0.5 h = h exactly, so the
    weights are h inside and h/2 at the ends, bit for bit."""
    w = np.zeros(len(segments) + 1)
    w[:-1] += 0.5 * segments
    w[1:] += 0.5 * segments
    return w


@dataclass(frozen=True)
class Face:
    """One closed face of the reference extent.

    ``flat`` are the flat node indices in order of the coordinate along the
    face, ``axis`` is the normal axis, ``normal`` the outward unit normal,
    ``tangent`` its quarter turn and ``weights`` the trapezoid line weights
    of the nodes.
    """

    name: str
    flat: np.ndarray
    axis: int
    normal: np.ndarray
    tangent: np.ndarray
    weights: np.ndarray


def level_times(times):
    """``times`` as a float array of stored level times; empty or not
    strictly increasing times raise :class:`InvalidArgumentError`."""
    times = np.asarray(times, dtype=float)
    if len(times) == 0 or not np.all(np.diff(times) > 0):
        raise InvalidArgumentError(
            f"level times must be non-empty and increasing, got {times}")
    return times


def level_fields(fields, times, ncomp, name, grid=None):
    """``fields`` as a list, one per level time, each with ``ncomp``
    components on ``grid`` (default: the first field's); anything else
    raises :class:`InvalidArgumentError` naming the level."""
    fields = list(fields)
    if len(fields) != len(times):
        raise InvalidArgumentError(f"one {name} field per time level required")
    grid = grid or fields[0].grid
    for m, f in enumerate(fields):
        if f.grid != grid or f.ncomp != ncomp:
            raise InvalidArgumentError(
                f"{name} level {m} has {f.ncomp} components on {f.grid}; "
                f"expected {ncomp} on {grid}")
    return fields


def level_bracket(times, t):
    """(m, w) with t = (1 - w) times[m] + w times[m + 1].

    Times up to 1e-12 outside ``[times[0], times[-1]]`` are clamped onto
    it; anything further, or NaN, raises :class:`InvalidArgumentError`. A
    single stored level gives (0, 0.0).
    """
    if not times[0] - 1e-12 <= t <= times[-1] + 1e-12:
        raise InvalidArgumentError(
            f"t={t} outside the stored times [{times[0]}, {times[-1]}]")
    if len(times) == 1:
        return 0, 0.0
    t = min(max(t, times[0]), times[-1])
    m = min(int(np.searchsorted(times, t, side="right") - 1), len(times) - 2)
    return m, (t - times[m]) / (times[m + 1] - times[m])


def blend_levels(levels, times, t):
    """Linear interpolation in time between the two levels that bracket t."""
    m, w = level_bracket(times, t)
    if w == 0.0:
        return levels[m]
    if w == 1.0:
        return levels[m + 1]
    return (1 - w) * levels[m] + w * levels[m + 1]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a rectangle: exactly two axes.

    Spacing along axis i is exactly ``extent_i / (n_i - 1)``. Immutable.
    """

    n: tuple
    lo: tuple
    hi: tuple

    def __post_init__(self):
        counts = np.atleast_1d(np.asarray(self.n, dtype=float))
        if not np.all(np.isfinite(counts) & (counts == np.round(counts))):
            raise InvalidArgumentError(f"node counts must be integers, got n={self.n}")
        n = tuple(int(v) for v in counts)
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(n) != 2:
            raise InvalidArgumentError(f"a grid has exactly 2 axes, got {len(n)}")
        if len(lo) != len(n) or len(hi) != len(n):
            raise InvalidArgumentError("n, lo, hi must have matching lengths")
        if any(m < 4 for m in n):
            raise InvalidArgumentError(f"need at least 4 nodes per axis, got {n}")
        # b - a is NaN or infinite if either end is, or if the width overflows
        if not all(0 < b - a < np.inf for a, b in zip(lo, hi)):
            raise InvalidArgumentError("extent must be finite with positive length per "
                                       f"axis, got lo={lo}, hi={hi}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return len(self.n)

    @property
    def shape(self):
        return self.n

    @property
    def num_nodes(self):
        return int(np.prod(self.n))

    @property
    def spacing(self):
        return tuple((b - a) / (m - 1) for a, b, m in zip(self.lo, self.hi, self.n))

    def axis_coords(self, axis):
        return np.linspace(self.lo[axis], self.hi[axis], self.n[axis])

    def node_coords(self):
        """All node coordinates, shape (num_nodes, dim), C-order (last axis
        fastest). One read-only array per grid."""
        return self._node_coords

    @cached_property
    def _node_coords(self):
        axes = [self.axis_coords(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return _read_only(np.stack([m.ravel() for m in mesh], axis=-1))

    def quadrature_weights(self):
        """Composite-trapezoid weights per node, shaped like the grid: the
        outer product of the two axes' weights."""
        return np.outer(*(_trapezoid_weights(np.full(m - 1, h))
                          for m, h in zip(self.n, self.spacing)))

    @property
    def face_names(self):
        return FACE_NAMES

    def face_index(self, face, closed=True):
        """Multi-index arrays of the nodes on a face.

        ``closed=False`` drops corner nodes from the y-faces so the four sets
        partition the boundary (x-faces own the corners).
        """
        nx, ny = self.n
        if face == "x0":
            return np.full(ny, 0), np.arange(ny)
        if face == "x1":
            return np.full(ny, nx - 1), np.arange(ny)
        if face in ("y0", "y1"):
            j = 0 if face == "y0" else ny - 1
            i = np.arange(nx) if closed else np.arange(1, nx - 1)
            return i, np.full(i.shape, j)
        raise InvalidArgumentError(f"unknown face {face!r}")

    def faces(self):
        """{name: :class:`Face`} of the closed faces, in ``face_names`` order.
        The records and their read-only arrays are built once per grid."""
        return dict(self._faces)

    @cached_property
    def _faces(self):
        out = {}
        for face in self.face_names:
            flat = _read_only(np.ravel_multi_index(self.face_index(face, closed=True), self.n))
            axis = 0 if face in ("x0", "x1") else 1
            weights = _trapezoid_weights(np.full(len(flat) - 1, self.spacing[1 - axis]))
            normal = FACE_NORMALS[face].copy()
            out[face] = Face(face, flat, axis, _read_only(normal),
                             _read_only(rotate90(normal)), _read_only(weights))
        return out


class Field:
    """Scalar or vector samples on a :class:`Grid` at a fixed time stamp.

    ``values`` has shape ``(ncomp,) + grid.shape``; it is validated to be
    finite on construction, which every public operation goes through.
    """

    def __init__(self, grid, values, t=0.0):
        values = np.asarray(values, dtype=float)
        if values.shape == grid.shape:
            values = values[np.newaxis]
        if values.shape[1:] != tuple(grid.shape):
            raise InvalidArgumentError(
                f"values shape {values.shape} does not match grid {grid.shape}"
            )
        if values.shape[0] not in (1, grid.dim):
            raise InvalidArgumentError(
                f"component count must be 1 or {grid.dim}, got {values.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("field values must be finite")
        self.grid = grid
        self.values = values
        self.t = float(t)

    @property
    def ncomp(self):
        return self.values.shape[0]

    def copy(self, values=None, t=None):
        return Field(self.grid,
                     self.values.copy() if values is None else values,
                     self.t if t is None else t)

    def component(self, c):
        return Field(self.grid, self.values[c], self.t)

    @classmethod
    def from_function(cls, grid, fn, t=0.0, ncomp=1):
        """Sample ``fn(points) -> (N,) or (N, ncomp)`` at the grid nodes."""
        pts = grid.node_coords()
        vals = np.asarray(fn(pts), dtype=float).reshape(len(pts), -1)
        vals = np.moveaxis(vals, -1, 0).reshape((vals.shape[-1],) + tuple(grid.shape))
        if ncomp is not None and vals.shape[0] != ncomp:
            raise InvalidArgumentError(f"function returned {vals.shape[0]} components")
        return cls(grid, vals, t)

    @classmethod
    def zeros(cls, grid, ncomp=1, t=0.0):
        return cls(grid, np.zeros((ncomp,) + tuple(grid.shape)), t)


def _diff_axis(arr, h, axis, order):
    """Second-order FD along one axis: central inside, one-sided at the ends."""
    a = np.moveaxis(arr, axis, -1)
    out = np.empty_like(a)
    if order == 1:
        out[..., 1:-1] = (a[..., 2:] - a[..., :-2]) / (2 * h)
        out[..., 0] = (-3 * a[..., 0] + 4 * a[..., 1] - a[..., 2]) / (2 * h)
        out[..., -1] = (3 * a[..., -1] - 4 * a[..., -2] + a[..., -3]) / (2 * h)
    elif order == 2:
        out[..., 1:-1] = (a[..., 2:] - 2 * a[..., 1:-1] + a[..., :-2]) / h**2
        out[..., 0] = (2 * a[..., 0] - 5 * a[..., 1] + 4 * a[..., 2] - a[..., 3]) / h**2
        out[..., -1] = (2 * a[..., -1] - 5 * a[..., -2] + 4 * a[..., -3] - a[..., -4]) / h**2
    else:
        raise InvalidArgumentError(f"order must be 1 or 2, got {order}")
    return np.moveaxis(out, -1, axis)


def differentiate(f, axis, order=1):
    """Differentiate a field along one axis (order 1 or 2), same grid.

    Central second-order stencils inside, one-sided second-order at the
    boundary nodes. Linear in ``f``.
    """
    if axis < 0 or axis >= f.grid.dim:
        raise InvalidArgumentError(f"axis {axis} out of range for dim {f.grid.dim}")
    h = f.grid.spacing[axis]
    vals = _diff_axis(f.values, h, axis + 1, order)
    return Field(f.grid, vals, f.t)


def gradient_values(f):
    """Gradient as component rows (ncomp, dim, num_nodes): [i, j] = df_i/dy_j."""
    g = np.empty((f.ncomp, f.grid.dim) + f.values.shape[1:])
    for a, h in enumerate(f.grid.spacing):
        g[:, a] = _diff_axis(f.values, h, a + 1, 1)
    return g.reshape(f.ncomp, f.grid.dim, -1)


def _contract(A, B, out=None, add=False):
    """out[i, j] (+)= sum_p A[i, p] B[p, j], each entry a row over the nodes,
    as products of whole rows (several times faster than einsum for d <= 2);
    ``out`` is allocated when none is given. A matrix a times a vector of
    rows v is ``_contract(a, v[:, None])[:, 0]``."""
    if out is None:
        out = np.empty((len(A), B.shape[1], A.shape[-1]))
    row = np.empty(out.shape[-1])   # the one scratch row
    for i, j in np.ndindex(*out.shape[:2]):
        for p in range(len(B)):
            if p == 0 and not add:
                np.multiply(A[i, 0], B[0, j], out=out[i, j])
            else:
                np.multiply(A[i, p], B[p, j], out=row)
                out[i, j] += row
    return out


def _dot(a, b):
    """Full contraction over the leading axes of two tensors of component
    rows: sum over i (, j) of a[i (, j)] b[i (, j)], one value per node."""
    return sum(a[idx] * b[idx] for idx in np.ndindex(a.shape[:-1]))


def _trace(a):
    """Trace of a (d, d, ...) tensor of component rows: sum of a[i, i]."""
    return sum(a[i, i] for i in range(len(a)))


_INTERP_CHUNK = 4096     # points per component-major block of weights


def _catmull_rom_weights(s):
    """Rows 0.5 (-s^3 + 2 s^2 - s), 0.5 (3 s^3 - 5 s^2 + 2), 0.5 (-3 s^3 +
    4 s^2 + s) and 0.5 (s^3 - s^2), written in place (row 3 is scratch
    until last) by the same operations in the same order; x - a is -a + x
    exactly."""
    s2 = s * s
    s3 = s2 * s
    w0, w1, w2, w3 = w = np.empty((4,) + s.shape)
    np.subtract(np.subtract(np.multiply(s2, 2, out=w0), s3, out=w0), s, out=w0)
    np.subtract(np.multiply(s3, 3, out=w1), np.multiply(s2, 5, out=w3), out=w1)
    np.add(w1, 2, out=w1)
    np.subtract(np.multiply(s2, 4, out=w2), np.multiply(s3, 3, out=w3), out=w2)
    np.add(w2, s, out=w2)
    np.subtract(s3, s2, out=w3)
    return np.multiply(w, 0.5, out=w)


def _lagrange_cubic_weights(u):
    """Cubic Lagrange weights on nodes {0,1,2,3} evaluated at u."""
    w0 = -(u - 1) * (u - 2) * (u - 3) / 6.0
    w1 = u * (u - 2) * (u - 3) / 2.0
    w2 = -u * (u - 1) * (u - 3) / 2.0
    w3 = u * (u - 1) * (u - 2) / 6.0
    return np.stack([w0, w1, w2, w3])


def _axis_stencil(xi, n, itype):
    """Starting indices (``itype``) and 4-point weights on component rows,
    (4, npts), for one axis.

    ``xi`` is the index-space coordinate (0 .. n-1). Interior cells use the
    Catmull-Rom kernel; the first/last cell falls back to the one-sided
    Lagrange cubic on the nearest four nodes. Both reproduce linears exactly.
    """
    cell = np.minimum(xi.astype(itype), n - 2)
    w = _catmull_rom_weights(xi - cell)
    start = cell - 1
    i = np.flatnonzero((cell == 0) | (cell == n - 2))
    start[i] = first = np.where(cell[i] == 0, 0, n - 4)   # both 0 when n = 4
    w[:, i] = _lagrange_cubic_weights(xi[i] - first)
    return start, w


def interp_matrix(grid, points, out_of_bounds="raise"):
    """Interpolation weights at ``points``, a CSR matrix (npts, num_nodes).

    Row p is the tensor product of the per-axis 4-point stencils of point p:
    16 stored entries, summing to 1. ``points`` is (npts, 2), or one point
    (2,); any other shape, or a non-finite point, raises
    :class:`InvalidArgumentError`. Points outside the extent beyond a 1e-12
    relative tolerance raise :class:`OutOfDomainError` unless
    ``out_of_bounds='clamp'``, which moves them onto the nearest face; any
    other ``out_of_bounds`` raises :class:`InvalidArgumentError`.

    The per-axis weights are built on component rows and multiplied in
    blocks of points into the node-major CSR data; the column indices are
    the start indices raveled with the stencil offsets.
    """
    if out_of_bounds not in ("raise", "clamp"):
        raise InvalidArgumentError(
            f"out_of_bounds must be 'raise' or 'clamp', got {out_of_bounds!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1:] != (grid.dim,):
        raise InvalidArgumentError(
            f"points have shape {np.shape(points)}; expected (npts, {grid.dim})")
    for a in range(grid.dim):
        lo, hi = grid.lo[a], grid.hi[a]
        tol = 1e-12 * max(1.0, abs(hi - lo))
        x = pts[:, a]
        # a NaN fails both comparisons, so the masks are built only on a failure
        if x.min(initial=np.inf) >= lo - tol and x.max(initial=-np.inf) <= hi + tol:
            continue
        finite = np.all(np.isfinite(pts), axis=1)
        if not np.all(finite):
            raise InvalidArgumentError(
                f"non-finite point to interpolate: {pts[np.argmin(finite)]}")
        if out_of_bounds == "raise":
            raise OutOfDomainError(f"point outside extent along axis {a}",
                                   point=pts[(x < lo - tol) | (x > hi + tol)][0])

    npts, k = len(pts), 16
    # int32 when it fits, or scipy scans int64 indices to downcast them
    itype = np.int32 if max(npts * k, grid.num_nodes) < 2**31 else np.intp
    starts, weights = zip(*(
        _axis_stencil(np.clip((pts[:, a] - grid.lo[a]) / h, 0.0, grid.n[a] - 1.0),
                      grid.n[a], itype)
        for a, h in enumerate(grid.spacing)))
    offsets = np.arange(4, dtype=itype)
    data = np.empty((npts, k))
    cols = starts[0] * grid.n[1] + starts[1]
    offsets = (offsets[:, None] * grid.n[1] + offsets).ravel()
    for c in range(0, npts, _INTERP_CHUNK):
        rows = slice(c, c + _INTERP_CHUNK)
        data[rows] = (weights[0][:, None, rows] * weights[1][:, rows]).reshape(k, -1).T
    del weights   # freed before the column indices are built
    indptr = np.arange(0, npts * k + 1, k, dtype=itype)
    return csr_matrix((data.ravel(), (cols[:, None] + offsets).ravel(), indptr),
                      shape=(npts, grid.num_nodes))


def interpolate(f, points, out_of_bounds="raise"):
    """Piecewise-cubic (Catmull-Rom style) interpolation at physical points:
    :func:`interp_matrix` times the node-major values (num_nodes, ncomp).

    Returns shape (npts,) for scalar fields, (npts, ncomp) for vector fields.
    Points outside the extent beyond a 1e-12 relative tolerance raise
    :class:`OutOfDomainError` unless ``out_of_bounds='clamp'``.
    """
    out = interp_matrix(f.grid, points, out_of_bounds) @ f.values.reshape(f.ncomp, -1).T
    if f.ncomp == 1:
        out = out[:, 0]
    return out


def _alpha_derivative(f, alpha):
    g = f
    for axis, times in enumerate(alpha):
        for _ in range(times):
            g = differentiate(g, axis, 1)
    return g


def _multi_indices(k):
    return [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]


def sobolev_norm(f, k, p=2):
    """Discrete W^{k,p} norm, p in {2, inf}, k in {0, 1, 2, 3}.

    p=2: trapezoid quadrature of sum_{|alpha|<=k} |d^alpha f|^2, square-rooted.
    p=inf: max over nodes, components and derivatives up to order k.
    Derivatives of order >= 2 compose the first-order stencil (d_xx applies
    it twice); the remainder's ``_hessian_fields`` takes the 3-point second
    difference on the diagonal and the symmetrized composed ones off it.
    Monitored norms, not proven ones.
    """
    if k not in (0, 1, 2, 3):
        raise InvalidArgumentError(f"k must be an integer in 0..3, got {k}")
    k = int(k)
    if k >= 2 and any(m < 5 for m in f.grid.n):
        raise InvalidArgumentError("k >= 2 requires at least 5 nodes per axis")
    derivs = [_alpha_derivative(f, a) for a in _multi_indices(k)]
    if p == 2:
        w = f.grid.quadrature_weights()
        total = 0.0
        for g in derivs:
            total += float(np.sum(w * np.sum(g.values**2, axis=0)))
        return float(np.sqrt(total))
    if p in (np.inf, float("inf"), "inf"):
        return float(max(np.max(np.abs(g.values)) for g in derivs))
    raise InvalidArgumentError(f"p must be 2 or inf, got {p}")


def integrate(f):
    """Trapezoid integral of each component over the reference extent."""
    w = f.grid.quadrature_weights()
    out = np.array([float(np.sum(w * f.values[c])) for c in range(f.ncomp)])
    return out[0] if f.ncomp == 1 else out
