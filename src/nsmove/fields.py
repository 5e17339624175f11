"""Structured reference grids, discrete fields, stencils, interpolation, norms.

Everything in here lives on the fixed reference domain: uniform tensor grids
in 1D (interval) or 2D (axis-aligned rectangle). Curved physical domains only
ever arise downstream through composition with a flow map.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.sparse import csr_matrix

from .errors import InvalidArgumentError, OutOfDomainError

FACE_NAMES_1D = ("x0", "x1")
FACE_NAMES_2D = ("x0", "x1", "y0", "y1")

#: outward unit normals of the reference faces (2D)
FACE_NORMALS = {
    "x0": np.array([-1.0, 0.0]),
    "x1": np.array([1.0, 0.0]),
    "y0": np.array([0.0, -1.0]),
    "y1": np.array([0.0, 1.0]),
}


def rotate90(v):
    """Counter-clockwise quarter turn; maps a 2D normal to its tangent."""
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on an interval (1D) or rectangle (2D).

    Spacing along axis i is exactly ``extent_i / (n_i - 1)``. Immutable.
    """

    n: tuple
    lo: tuple
    hi: tuple

    def __post_init__(self):
        n = tuple(int(v) for v in np.atleast_1d(self.n))
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(n) not in (1, 2):
            raise InvalidArgumentError(f"grid dimension must be 1 or 2, got {len(n)}")
        if len(lo) != len(n) or len(hi) != len(n):
            raise InvalidArgumentError("n, lo, hi must have matching lengths")
        if any(m < 4 for m in n):
            raise InvalidArgumentError(f"need at least 4 nodes per axis, got {n}")
        if any(b <= a for a, b in zip(lo, hi)):
            raise InvalidArgumentError("extent must have positive length per axis")
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
        """All node coordinates, shape (num_nodes, dim), C-order (last axis fastest)."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def quadrature_weights(self):
        """Composite-trapezoid weights per node, shaped like the grid."""
        w = np.ones(self.n[0])
        w[0] = w[-1] = 0.5
        w = w * self.spacing[0]
        if self.dim == 1:
            return w
        w2 = np.ones(self.n[1])
        w2[0] = w2[-1] = 0.5
        w2 = w2 * self.spacing[1]
        return np.outer(w, w2)

    @property
    def face_names(self):
        return FACE_NAMES_1D if self.dim == 1 else FACE_NAMES_2D

    def face_index(self, face, closed=True):
        """Multi-index arrays of the nodes on a face.

        ``closed=False`` drops corner nodes from the y-faces so the four sets
        partition the boundary (x-faces own the corners).
        """
        nx = self.n[0]
        if self.dim == 1:
            if face == "x0":
                return (np.array([0]),)
            if face == "x1":
                return (np.array([nx - 1]),)
            raise InvalidArgumentError(f"unknown face {face!r}")
        ny = self.n[1]
        if face == "x0":
            return np.full(ny, 0), np.arange(ny)
        if face == "x1":
            return np.full(ny, nx - 1), np.arange(ny)
        if face in ("y0", "y1"):
            j = 0 if face == "y0" else ny - 1
            i = np.arange(nx) if closed else np.arange(1, nx - 1)
            return i, np.full(i.shape, j)
        raise InvalidArgumentError(f"unknown face {face!r}")

    def boundary_sets(self):
        """Flat-index partition of the boundary, one entry per face."""
        out = {}
        for face in self.face_names:
            idx = self.face_index(face, closed=False)
            out[face] = np.ravel_multi_index(idx, self.n) if self.dim == 2 else idx[0]
        return out

    def boundary_mask(self):
        mask = np.zeros(self.n, dtype=bool)
        if self.dim == 1:
            mask[0] = mask[-1] = True
        else:
            mask[0, :] = mask[-1, :] = True
            mask[:, 0] = mask[:, -1] = True
        return mask


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
        vals = np.asarray(fn(pts), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, np.newaxis]
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
    """Per-component gradient array, shape (ncomp, dim) + grid.shape."""
    g = np.stack([differentiate(f, a, 1).values for a in range(f.grid.dim)], axis=1)
    return g


def _catmull_rom_weights(s):
    s2 = s * s
    s3 = s2 * s
    return np.stack([
        0.5 * (-s3 + 2 * s2 - s),
        0.5 * (3 * s3 - 5 * s2 + 2),
        0.5 * (-3 * s3 + 4 * s2 + s),
        0.5 * (s3 - s2),
    ], axis=-1)


def _lagrange_cubic_weights(u):
    """Cubic Lagrange weights on nodes {0,1,2,3} evaluated at u."""
    w0 = -(u - 1) * (u - 2) * (u - 3) / 6.0
    w1 = u * (u - 2) * (u - 3) / 2.0
    w2 = -u * (u - 1) * (u - 3) / 2.0
    w3 = u * (u - 1) * (u - 2) / 6.0
    return np.stack([w0, w1, w2, w3], axis=-1)


def _axis_stencil(xi, n):
    """Starting index and 4-point weights for one axis, vectorized.

    ``xi`` is the index-space coordinate (0 .. n-1). Interior cells use the
    Catmull-Rom kernel; the first/last cell falls back to the one-sided
    Lagrange cubic on the nearest four nodes. Both reproduce linears exactly.
    """
    cell = np.clip(np.floor(xi).astype(int), 0, n - 2)
    s = xi - cell
    start = cell - 1
    w = _catmull_rom_weights(s)

    left = cell == 0
    if np.any(left):
        wl = _lagrange_cubic_weights(xi[left])
        w[left] = wl
        start[left] = 0
    right = cell == n - 2
    if np.any(right):
        wr = _lagrange_cubic_weights(xi[right] - (n - 4))
        w[right] = wr
        start[right] = n - 4
    return start, w


def interp_matrix(grid, points, out_of_bounds="raise"):
    """Interpolation weights at ``points``, a CSR matrix (npts, num_nodes).

    Row p is the tensor product of the per-axis 4-point stencils of point p:
    4 stored entries in 1D, 16 in 2D, summing to 1. Points outside the extent
    beyond a 1e-12 relative tolerance raise :class:`OutOfDomainError` unless
    ``out_of_bounds='clamp'``, which moves them onto the nearest face.
    """
    pts = np.asarray(points, dtype=float)
    if grid.dim == 1 and pts.ndim <= 1:
        pts = np.atleast_1d(pts)[:, np.newaxis]
    pts = np.atleast_2d(pts)
    if pts.shape[1] != grid.dim:
        raise InvalidArgumentError(f"points must have {grid.dim} coordinates")

    stencils = []
    for a in range(grid.dim):
        lo, hi = grid.lo[a], grid.hi[a]
        h = grid.spacing[a]
        tol = 1e-12 * max(1.0, abs(hi - lo))
        x = pts[:, a]
        if out_of_bounds == "raise":
            bad = (x < lo - tol) | (x > hi + tol)
            if np.any(bad):
                raise OutOfDomainError(
                    f"point outside extent along axis {a}", point=pts[bad][0]
                )
        stencils.append(_axis_stencil(np.clip((x - lo) / h, 0.0, grid.n[a] - 1.0),
                                      grid.n[a]))

    starts, weights = zip(*stencils)
    w = weights[0]
    for wa in weights[1:]:
        w = np.einsum("pk,pl->pkl", w, wa).reshape(len(pts), 4 * w.shape[1])
    npts, k = w.shape
    # int32 when it fits, or scipy scans int64 indices to downcast them
    itype = np.int32 if max(npts * k, grid.num_nodes) < 2**31 else np.intp
    offsets = np.ravel_multi_index(np.indices((4,) * grid.dim).reshape(grid.dim, k),
                                   grid.n).astype(itype)
    cols = np.ravel_multi_index(starts, grid.n).astype(itype)[:, None] + offsets
    indptr = np.arange(0, npts * k + 1, k, dtype=itype)
    return csr_matrix((w.ravel(), cols.ravel(), indptr), shape=(npts, grid.num_nodes))


def interp_values(grid, vals, points, out_of_bounds="raise"):
    """Interpolate a raw (ncomp,) + grid.shape array; returns (npts, ncomp).

    :func:`interp_matrix` times the node-major data (num_nodes, ncomp), with
    no Field component-count restriction (used for Jacobian-valued data).
    """
    return interp_matrix(grid, points, out_of_bounds) @ vals.reshape(len(vals), -1).T


def interpolate(f, points, out_of_bounds="raise"):
    """Piecewise-cubic (Catmull-Rom style) interpolation at physical points.

    Returns shape (npts,) for scalar fields, (npts, ncomp) for vector fields.
    Points outside the extent beyond a 1e-12 relative tolerance raise
    :class:`OutOfDomainError` unless ``out_of_bounds='clamp'``.
    """
    out = interp_values(f.grid, f.values, points, out_of_bounds)
    if f.ncomp == 1:
        out = out[:, 0]
    return out


def _alpha_derivative(f, alpha):
    g = f
    for axis, times in enumerate(alpha):
        for _ in range(times):
            g = differentiate(g, axis, 1)
    return g


def _multi_indices(dim, k):
    if dim == 1:
        return [(a,) for a in range(k + 1)]
    return [(a, b) for a in range(k + 1) for b in range(k + 1 - a) if a + b <= k]


def sobolev_norm(f, k, p=2):
    """Discrete W^{k,p} norm, p in {2, inf}, k in {0, 1, 2, 3}.

    p=2: trapezoid quadrature of sum_{|alpha|<=k} |d^alpha f|^2, square-rooted.
    p=inf: max over nodes, components and derivatives up to order k.
    Derivatives of order >= 2 are composed first-order stencils, matching the
    solver's own operators (monitored norms, not proven ones).
    """
    if k < 0 or k > 3:
        raise InvalidArgumentError(f"k must be in 0..3, got {k}")
    if k >= 2 and any(m < 5 for m in f.grid.n):
        raise InvalidArgumentError("k >= 2 requires at least 5 nodes per axis")
    derivs = [_alpha_derivative(f, a) for a in _multi_indices(f.grid.dim, k)]
    if p == 2:
        w = f.grid.quadrature_weights()
        total = 0.0
        for g in derivs:
            total += float(np.sum(w * np.sum(g.values**2, axis=0)))
        return float(np.sqrt(total))
    if p in (np.inf, float("inf"), "inf"):
        return float(max(np.max(np.abs(g.values)) for g in derivs))
    raise InvalidArgumentError(f"p must be 2 or inf, got {p}")


def integrate(f, weights=None):
    """Trapezoid integral of each component over the reference extent."""
    w = f.grid.quadrature_weights() if weights is None else weights
    out = np.array([float(np.sum(w * f.values[c])) for c in range(f.ncomp)])
    return out[0] if f.ncomp == 1 else out


def write_field_csv(f, path):
    """Snapshot format: header `# grid d nx [ny] extent...`, one row per node."""
    header = f"# grid {f.grid.dim} " + " ".join(str(m) for m in f.grid.n)
    for a in range(f.grid.dim):
        header += f" {f.grid.lo[a]!r} {f.grid.hi[a]!r}"
    header += f" t {f.t!r}"
    flat = f.values.reshape(f.ncomp, -1).T
    buf = io.StringIO()
    buf.write(header + "\n")
    for row in flat:
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def read_field_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [line.strip() for line in fh if line.strip()]
    tok = header.split()
    if tok[:2] != ["#", "grid"]:
        raise InvalidArgumentError(f"not a field snapshot: {header!r}")
    d = int(tok[2])
    n = tuple(int(v) for v in tok[3:3 + d])
    ext = [float(v) for v in tok[3 + d:3 + d + 2 * d]]
    lo = tuple(ext[0::2])
    hi = tuple(ext[1::2])
    t = float(tok[-1])
    grid = Grid(n, lo, hi)
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    values = data.T.reshape((data.shape[1],) + n)
    return Field(grid, values, t)
