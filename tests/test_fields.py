import re
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from nsmove.errors import InvalidArgumentError, OutOfDomainError
from nsmove.fields import (
    FACE_NORMALS,
    Field,
    Grid,
    blend_levels,
    differentiate,
    gradient_values,
    integrate,
    interp_matrix,
    interpolate,
    level_bracket,
    rotate90,
    sobolev_norm,
)
from nsmove.motion import FlowMap
from xonly import thin_grid, x_field, x_points


def grid2d(n=33):
    return Grid((n, n), (0.0, 0.0), (1.0, 1.0))


class TestFaces:
    def test_records_on_non_square_grid(self):
        g = Grid((9, 11), (0.0, 0.0), (1.0, 2.0))
        faces = g.faces()
        assert list(faces) == list(g.face_names)
        lengths = {"x0": 2.0, "x1": 2.0, "y0": 1.0, "y1": 1.0}
        for name, face in faces.items():
            assert face.name == name
            expect = np.ravel_multi_index(g.face_index(name, closed=True), g.shape)
            assert np.array_equal(face.flat, expect)
            assert face.axis == (0 if name in ("x0", "x1") else 1)
            assert np.array_equal(face.normal, FACE_NORMALS[name])
            assert np.array_equal(face.tangent, rotate90(face.normal))
            assert len(face.weights) == len(face.flat)
            assert np.sum(face.weights) == pytest.approx(lengths[name], abs=1e-14)
            # the face nodes sit on the face, ordered along it
            coords = g.node_coords()[face.flat]
            edge = g.lo[face.axis] if name.endswith("0") else g.hi[face.axis]
            assert np.all(coords[:, face.axis] == edge)
            assert np.all(np.diff(coords[:, 1 - face.axis]) > 0)


class TestLevelBracket:
    times = np.array([0.0, 0.1, 0.3, 0.6])

    def test_stored_levels_have_zero_weight(self):
        for m, t in enumerate(self.times[:-1]):
            assert level_bracket(self.times, t) == (m, 0.0)

    def test_interior_and_last_level(self):
        m, w = level_bracket(self.times, 0.2)
        assert m == 1 and w == pytest.approx(0.5, abs=1e-15)
        assert level_bracket(self.times, 0.6) == (2, 1.0)

    def test_clamp_within_tolerance(self):
        assert level_bracket(self.times, -5e-13) == (0, 0.0)
        assert level_bracket(self.times, 0.6 + 5e-13) == (2, 1.0)
        for t in (-1e-11, 0.6 + 1e-11):
            with pytest.raises(InvalidArgumentError):
                level_bracket(self.times, t)

    def test_single_level(self):
        assert level_bracket(np.array([0.25]), 0.25) == (0, 0.0)
        with pytest.raises(InvalidArgumentError):
            level_bracket(np.array([0.25]), 0.3)

    def test_nan_time_refused(self):
        # NaN fails every comparison: it is refused by name, not blended
        # into all-NaN level data
        levels = np.array([[1.0], [3.0], [7.0], [13.0]])
        for times, lv in ((self.times, levels), (np.array([0.25]), levels[:1])):
            with pytest.raises(InvalidArgumentError, match="t=nan"):
                level_bracket(times, np.nan)
            with pytest.raises(InvalidArgumentError, match="t=nan"):
                blend_levels(lv, times, np.nan)
        g = grid2d(9)
        N = g.num_nodes
        X = np.broadcast_to(g.node_coords(), (2, N, 2))
        J = np.broadcast_to(np.eye(2), (2, N, 2, 2))
        fm = FlowMap(g, [0.0, 0.1], X, J)
        with pytest.raises(InvalidArgumentError, match="t=nan"):
            fm.frame(np.nan)

    def test_blend(self):
        levels = np.array([[1.0], [3.0], [7.0], [13.0]])
        assert np.array_equal(blend_levels(levels, self.times, 0.1), levels[1])
        assert blend_levels(levels, self.times, 0.45)[0] == pytest.approx(10.0)
        assert blend_levels(levels, self.times, 0.6)[0] == 13.0


class TestGrid:
    def test_spacing_exact(self):
        g = Grid((65, 33), (0.0, -1.0), (2.0, 1.0))
        assert g.spacing[0] == 2.0 / 64
        assert g.spacing[1] == 2.0 / 32

    @pytest.mark.parametrize("bad", [5.7, np.nan, np.inf])
    def test_non_integer_count_rejected(self, bad):
        # 5.7 was truncated to 5; NaN and inf died in int() with a bare error
        with pytest.raises(InvalidArgumentError, match=f"integers, got n=\\({bad}, 5\\)"):
            Grid((bad, 5), (0.0, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize("count", [5, 5.0, np.int64(5)])
    def test_integer_valued_counts_accepted(self, count):
        g = Grid((count, 5), (0.0, 0.0), (1.0, 1.0))
        assert g.n == (5, 5) and all(type(m) is int for m in g.n)

    def test_rejects_small_grids(self):
        with pytest.raises(InvalidArgumentError):
            Grid((3, 9), (0.0, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize("axes", [1, 3])
    def test_exactly_two_axes(self, axes):
        with pytest.raises(InvalidArgumentError, match=f"exactly 2 axes, got {axes}"):
            Grid((9,) * axes, (0.0,) * axes, (1.0,) * axes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_non_finite_extent_rejected(self, side, bad):
        # NaN fails every comparison: (0, 0)-(nan, 1) had spacing (nan, 0.25)
        ends = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}
        ends[side][0] = bad
        with pytest.raises(InvalidArgumentError, match=f"{side}=\\({bad}, "):
            Grid((5, 5), ends["lo"], ends["hi"])

    def test_overflowing_width_rejected(self):
        # finite ends whose width overflows gave spacing (inf, 0.25)
        with pytest.raises(InvalidArgumentError, match="finite"):
            Grid((5, 5), (-1e308, 0.0), (1e308, 1.0))

    def test_immutable(self):
        g = grid2d()
        with pytest.raises(Exception):
            g.n = (5, 5)

    @pytest.mark.parametrize("grid", [thin_grid(9), Grid((9, 11), (0.0, 0.0), (1.0, 2.0))])
    def test_nodes_and_faces_built_once(self, grid):
        # one read-only array per grid; the per-call build it replaced is the oracle
        pts = grid.node_coords()
        assert grid.node_coords() is pts
        mesh = np.meshgrid(*[grid.axis_coords(a) for a in range(grid.dim)], indexing="ij")
        assert np.array_equal(pts, np.stack([m.ravel() for m in mesh], axis=-1))
        faces = grid.faces()
        faces.clear()  # the caller's dict, not the grid's
        assert list(grid.faces()) == list(grid.face_names)
        arrays = [pts] + [a for f in grid.faces().values()
                          for a in (f.flat, f.normal, f.tangent, f.weights)]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert grid == Grid(grid.n, grid.lo, grid.hi)
        assert hash(grid) == hash(Grid(grid.n, grid.lo, grid.hi))


class TestDifferentiate:
    def test_constant_derivative_zero(self):
        g = thin_grid(65)
        f = Field(g, np.full(g.shape, 3.7))
        assert np.allclose(differentiate(f, 0, 1).values, 0.0)
        assert np.allclose(differentiate(f, 0, 2).values, 0.0)

    def test_linear_exact_everywhere(self):
        g = thin_grid(65)
        f = x_field(g, lambda x: 2.5 * x)
        d = differentiate(f, 0, 1)
        assert np.allclose(d.values, 2.5, atol=1e-13)

    def test_quadratic_first_derivative(self):
        g = thin_grid(65)
        x = g.axis_coords(0)[:, None]
        f = x_field(g, lambda x: x**2)
        d = differentiate(f, 0, 1).values[0]
        interior_err = np.max(np.abs(d[1:-1] - 2 * x[1:-1]))
        assert interior_err <= 1e-10
        # one-sided stencil is exact on quadratics as well
        assert np.max(np.abs(d[0] - 2 * x[0])) <= 1e-10
        assert np.max(np.abs(d[-1] - 2 * x[-1])) <= 1e-10

    def test_second_derivative_2d(self):
        g = grid2d(41)
        pts = g.node_coords()
        f = Field.from_function(g, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1])
        d = differentiate(f, 0, 2).values[0]
        exact = (-np.pi**2 * np.sin(np.pi * pts[:, 0]) * pts[:, 1]).reshape(g.shape)
        assert np.max(np.abs(d - exact)) < 6e-3

    def test_linearity(self):
        g = thin_grid(33)
        rng = np.random.default_rng(0)
        f = Field(g, rng.standard_normal(g.shape))
        h = Field(g, rng.standard_normal(g.shape))
        a, b = 1.3, -0.7
        lhs = differentiate(Field(g, a * f.values + b * h.values), 0, 1).values
        rhs = a * differentiate(f, 0, 1).values + b * differentiate(h, 0, 1).values
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_axis_out_of_range(self):
        g = grid2d()
        f = Field.zeros(g)
        with pytest.raises(InvalidArgumentError):
            differentiate(f, 2, 1)


class TestInterpolate:
    def test_node_values_exact(self):
        g = thin_grid(17)
        rng = np.random.default_rng(1)
        f = Field(g, rng.standard_normal(g.shape))
        pts = g.node_coords()
        out = interpolate(f, pts)
        assert np.allclose(out, f.values[0].ravel(), atol=1e-13)

    def test_linear_reproduction(self):
        g = grid2d(9)
        f = Field.from_function(g, lambda p: 1.0 + 2.0 * p[:, 0] - 0.5 * p[:, 1])
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(50, 2))
        out = interpolate(f, pts)
        exact = 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1]
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_sin_regression_bound(self):
        # C measured once on this configuration and frozen with headroom.
        g = thin_grid(65)
        f = x_field(g, lambda x: np.sin(2 * np.pi * x))
        rng = np.random.default_rng(3)
        x = rng.uniform(0.05, 0.95, size=(400,))
        out = interpolate(f, np.column_stack([x, rng.uniform(0.0, 1.0, size=400)]))
        err = np.max(np.abs(out - np.sin(2 * np.pi * x)))
        h = g.spacing[0]
        assert err <= 400.0 * h**4

    def test_out_of_domain_raises(self):
        g = thin_grid(65)
        f = Field.zeros(g)
        with pytest.raises(OutOfDomainError) as exc:
            interpolate(f, x_points([1.5]))
        assert exc.value.point is not None

    def test_clamp_mode(self):
        g = thin_grid(65)
        f = x_field(g, lambda x: x)
        out = interpolate(f, x_points([1.2]), out_of_bounds="clamp")
        assert np.allclose(out, 1.0)

    @pytest.mark.parametrize("shape", [(5, 2, 1), (5, 2, 3), (5, 3), (5, 1)])
    def test_point_shape_checked(self, shape):
        # (5, 2, 1) was read as 5 points and (5, 2, 3) died in a numpy
        # broadcast; only (npts, 2) and one point (2,) are points
        g = grid2d(9)
        match = re.escape(f"shape {shape}; expected (npts, 2)")
        with pytest.raises(InvalidArgumentError, match=match):
            interp_matrix(g, np.full(shape, 0.5))
        with pytest.raises(InvalidArgumentError, match=match):
            interpolate(Field.zeros(g), np.full(shape, 0.5))

    def test_unknown_bounds_mode_rejected(self):
        # a misspelt mode must not fall through to clamping x = 1.5 onto the face
        f = Field.zeros(grid2d(9))
        with pytest.raises(InvalidArgumentError, match="rasie"):
            interpolate(f, np.array([[1.5, 0.5]]), out_of_bounds="rasie")


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
    w0 = -(u - 1) * (u - 2) * (u - 3) / 6.0
    w1 = u * (u - 2) * (u - 3) / 2.0
    w2 = -u * (u - 1) * (u - 3) / 2.0
    w3 = u * (u - 1) * (u - 2) / 6.0
    return np.stack([w0, w1, w2, w3], axis=-1)


def _axis_stencil(xi, n):
    """Reference per-axis stencil, node-major: starting index and (npts, 4)
    weights; Catmull-Rom inside, the one-sided Lagrange cubic in the first
    and last cells."""
    cell = np.clip(np.floor(xi).astype(int), 0, n - 2)
    s = xi - cell
    start = cell - 1
    w = _catmull_rom_weights(s)
    left = cell == 0
    if np.any(left):
        w[left] = _lagrange_cubic_weights(xi[left])
        start[left] = 0
    right = cell == n - 2
    if np.any(right):
        w[right] = _lagrange_cubic_weights(xi[right] - (n - 4))
        start[right] = n - 4
    return start, w


def _clamped_index_coords(grid, pts):
    return [np.clip((pts[:, a] - grid.lo[a]) / grid.spacing[a], 0.0, grid.n[a] - 1.0)
            for a in range(grid.dim)]


def _reference_interp_matrix(grid, pts):
    """Reference CSR assembly, clamping like 'clamp': node-major tensor
    product by einsum, columns by ``ravel_multi_index``."""
    starts, weights = zip(*(_axis_stencil(xi, m)
                            for xi, m in zip(_clamped_index_coords(grid, pts), grid.n)))
    w = weights[0]
    for wa in weights[1:]:
        w = np.einsum("pk,pl->pkl", w, wa).reshape(len(pts), 4 * w.shape[1])
    npts, k = w.shape
    itype = np.int32 if max(npts * k, grid.num_nodes) < 2**31 else np.intp
    offsets = np.ravel_multi_index(np.indices((4,) * grid.dim).reshape(grid.dim, k),
                                   grid.n).astype(itype)
    cols = np.ravel_multi_index(starts, grid.n).astype(itype)[:, None] + offsets
    indptr = np.arange(0, npts * k + 1, k, dtype=itype)
    return csr_matrix((w.ravel(), cols.ravel(), indptr), shape=(npts, grid.num_nodes))


def _gather_einsum(grid, vals, pts):
    """Reference kernel: gather the 4 x 4 neighbours and contract them with
    the per-axis stencil weights; clamps like 'clamp'."""
    xis = _clamped_index_coords(grid, pts)
    s0, w0 = _axis_stencil(xis[0], grid.n[0])
    s1, w1 = _axis_stencil(xis[1], grid.n[1])
    i0 = s0[:, None] + np.arange(4)
    i1 = s1[:, None] + np.arange(4)
    gathered = vals[:, i0[:, :, None], i1[:, None, :]]
    return np.einsum("cpkl,pk,pl->pc", gathered, w0, w1)


def _axis_samples(rng, lo, hi, n):
    """Coordinates in the first and last cells (the one-sided Lagrange
    fallback), at nodes, outside the extent (clamped) and in between."""
    h = (hi - lo) / (n - 1)
    return np.concatenate([
        lo + h * rng.uniform(0.0, 1.0, 6),
        hi - h * rng.uniform(0.0, 1.0, 6),
        np.linspace(lo, hi, n),
        [lo - 0.3 * h, lo - 1e-3, hi + 1e-3, hi + 2.5 * h],
        rng.uniform(lo, hi, 20),
    ])


class TestInterpMatrix:
    # 1: a thin grid, whose 5-node y-axis has two one-sided edge cells and
    # two Catmull-Rom cells; 3, 4: 4- and 6-node axes, where a 4-node axis's
    # two one-sided cells both start at node 0
    GRIDS = {1: thin_grid(17, 0.25, 1.25),
             2: Grid((13, 10), (-0.5, 0.0), (0.5, 2.0)),
             3: Grid((4, 6), (0.0, -1.0), (1.5, 1.0)),
             4: Grid((6, 4), (-2.0, 0.5), (0.0, 0.8))}

    def _points(self, key, rng):
        g = self.GRIDS[key]
        axes = [_axis_samples(rng, g.lo[a], g.hi[a], g.n[a]) for a in range(2)]
        # every pairing of the per-axis samples
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)

    @pytest.mark.parametrize("key", [1, 2])
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_matches_gather_einsum_reference(self, key, c):
        g = self.GRIDS[key]
        rng = np.random.default_rng(10 * key + c)
        vals = rng.standard_normal((c,) + g.shape)
        pts = self._points(key, rng)
        ref = _gather_einsum(g, vals, pts)
        got = interp_matrix(g, pts, out_of_bounds="clamp") @ vals.reshape(c, -1).T
        assert got.shape == (len(pts), c)
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("key", [1, 2])
    def test_rows_sum_to_one_with_full_stencils(self, key):
        g = self.GRIDS[key]
        pts = self._points(key, np.random.default_rng(key))
        M = interp_matrix(g, pts, out_of_bounds="clamp")
        assert M.shape == (len(pts), g.num_nodes)
        assert np.all(np.diff(M.indptr) == 16)
        assert M.nnz == 16 * len(pts)
        assert np.max(np.abs(np.asarray(M.sum(axis=1)).ravel() - 1.0)) <= 1e-14

    def test_raise_carries_the_point(self):
        g = self.GRIDS[2]
        pts = np.array([[0.0, 1.0], [0.2, 2.0 + 1e-6], [0.1, 0.5]])
        with pytest.raises(OutOfDomainError) as exc:
            interp_matrix(g, pts)
        assert np.array_equal(exc.value.point, pts[1])

    @staticmethod
    def _jittered_nodes(g, seed):
        h = np.array(g.spacing)
        nodes = g.node_coords()
        jitter = np.random.default_rng(seed).uniform(-0.5, 0.5, nodes.shape) * h
        return np.clip(nodes + jitter, g.lo, g.hi)

    @staticmethod
    def _assert_same_csr(got, ref):
        assert got.shape == ref.shape
        for key in ("data", "indices", "indptr"):
            assert getattr(got, key).dtype == getattr(ref, key).dtype
            assert np.array_equal(getattr(got, key), getattr(ref, key))

    @pytest.mark.parametrize("key", [1, 2, 3, 4])
    def test_csr_arrays_match_reference_on_samples(self, key):
        # weights, columns and row pointers keep their bits, clamped points included
        g = self.GRIDS[key]
        pts = self._points(key, np.random.default_rng(20 + key))
        self._assert_same_csr(interp_matrix(g, pts, out_of_bounds="clamp"),
                              _reference_interp_matrix(g, pts))

    @pytest.mark.parametrize("grid", [Grid((129, 129), (0.0, 0.0), (1.0, 1.0)),
                                      Grid((33, 20), (-0.5, 0.0), (0.5, 2.0))],
                             ids=["129x129", "33x20"])
    def test_csr_arrays_match_reference_on_jittered_nodes(self, grid):
        # more points than one block of the 2-D weights at 129^2
        pts = self._jittered_nodes(grid, 7)
        self._assert_same_csr(interp_matrix(grid, pts), _reference_interp_matrix(grid, pts))

    def test_peak_memory_bounded(self):
        # the weights are multiplied in blocks of points, so no second
        # (npts, 16) array is alive next to the CSR data: 1.20x measured, 1.43x
        # with the node-major einsum
        g = Grid((129, 129), (0.0, 0.0), (1.0, 1.0))
        pts = self._jittered_nodes(g, 8)
        interp_matrix(g, pts)
        tracemalloc.start()
        try:
            M = interp_matrix(g, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.45 * (M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)

    @pytest.mark.parametrize("mode", ["raise", "clamp"])
    @pytest.mark.parametrize("pts", [
        [[0.5, 0.5], [np.nan, 0.5], [np.inf, 0.5]],
        [[0.5, 0.5], [0.2, np.inf], [np.nan, 0.1]],
        [[0.5, 1.5], [np.nan, 0.5]],
    ], ids=["1d", "2d", "2d-outside-first"])
    def test_non_finite_point_refused(self, pts, mode):
        # a NaN once gave a row of NaN weights on an arbitrary cell; the
        # first non-finite point, pts[1], is named before any point outside
        # (1d: non-finite in x only)
        pts = np.array(pts)
        g = grid2d(9)
        with pytest.raises(InvalidArgumentError, match=re.escape(str(pts[1]))):
            interp_matrix(g, pts, out_of_bounds=mode)


class TestSobolevNorm:
    def test_zero_field(self):
        g = grid2d(9)
        f = Field.zeros(g)
        for k in (0, 1, 2):
            for p in (2, np.inf):
                assert sobolev_norm(f, k, p) == 0.0

    def test_constant_l2(self):
        g = thin_grid(65)
        f = Field(g, np.full(g.shape, -2.0))
        assert abs(sobolev_norm(f, 0, 2) - 2.0) < 1e-13

    def test_sin_h1(self):
        g = thin_grid(257)
        f = x_field(g, lambda x: np.sin(2 * np.pi * x))
        val = sobolev_norm(f, 1, 2)
        exact = np.sqrt(0.5 + 2 * np.pi**2)
        assert abs(val - exact) < 1e-3

    def test_monotone_in_k(self):
        g = thin_grid(65)
        f = x_field(g, lambda x: np.exp(x) * np.cos(3 * x))
        norms = [sobolev_norm(f, k, 2) for k in (0, 1, 2)]
        assert norms[0] <= norms[1] <= norms[2]


class TestIntegrate:
    def test_integrate(self):
        g = thin_grid(129)
        f = x_field(g, lambda x: x)
        assert abs(integrate(f) - 0.5) < 1e-12



def _layout_cases():
    """The frame and {name: (tensor, documented shape)} on a 9 x 7 grid
    (N = 63) moved by a shear, so that N is unlike any component count."""
    from nsmove.energy import stress_tensor
    from nsmove.lagrangian import _hessian_fields, inverse_map_second_derivatives
    from nsmove.motion import MotionField, advect_flow_map, physical_gradient
    from nsmove.trajectory import StateTrajectory

    g = Grid((9, 7), (0.0, 0.0), (1.0, 0.8))
    N = g.num_nodes
    fm = advect_flow_map(MotionField.shear(0.4), g, 0.1, 0.05)
    frame = fm.frame(0.1)
    rho = Field.from_function(g, lambda p: 1.0 + p[:, 0] * p[:, 1])
    u = Field.from_function(g, lambda p: np.sin(p), ncomp=2)
    traj = StateTrajectory([0.0, 0.1], [rho, rho], [u, u], fm)
    return frame, {
        "gradient_values": (gradient_values(u), (2, 2, N)),
        "physical_gradient": (physical_gradient(rho, frame), (1, 2, N)),
        "physical_velocity_gradient": (physical_gradient(traj.u[1], traj.frame(1)),
                                       (2, 2, N)),
        "_hessian_fields": (_hessian_fields(u), (2, 2, 2, N)),
        "inverse_map_second_derivatives": (inverse_map_second_derivatives(fm, 0.1),
                                           (2, 2, 2, N)),
        "Frame.J": (frame.J, (2, 2, N)),
        "Frame.inv": (frame.inv, (2, 2, N)),
        "stress_tensor": (stress_tensor(gradient_values(u), 0.3, 0.1), (2, 2, N)),
    }


@pytest.mark.parametrize("name", ["gradient_values", "physical_gradient",
                                  "physical_velocity_gradient", "_hessian_fields",
                                  "inverse_map_second_derivatives", "Frame.J", "Frame.inv",
                                  "stress_tensor"])
def test_per_node_tensors_are_component_rows(name):
    # the layout rule of the fields module: component rows with the nodes
    # last, contiguous save the frame's J, a view of its node-major X | gradX
    frame, cases = _layout_cases()
    a, shape = cases[name]
    assert a.shape == shape
    if name == "Frame.J":
        assert np.shares_memory(a, frame.XJ)
    else:
        assert a.flags.c_contiguous
