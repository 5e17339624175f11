import numpy as np
import pytest

from nsmove.errors import InvalidArgumentError, OutOfDomainError
from nsmove.fields import (
    Field,
    Grid,
    _axis_stencil,
    differentiate,
    integrate,
    interp_matrix,
    interp_values,
    interpolate,
    read_field_csv,
    sobolev_norm,
    write_field_csv,
)


def grid1d(n=65):
    return Grid((n,), (0.0,), (1.0,))


def grid2d(n=33):
    return Grid((n, n), (0.0, 0.0), (1.0, 1.0))


class TestGrid:
    def test_spacing_exact(self):
        g = Grid((65, 33), (0.0, -1.0), (2.0, 1.0))
        assert g.spacing[0] == 2.0 / 64
        assert g.spacing[1] == 2.0 / 32

    def test_rejects_small_grids(self):
        with pytest.raises(InvalidArgumentError):
            Grid((3,), (0.0,), (1.0,))

    def test_boundary_sets_partition(self):
        g = grid2d(9)
        sets = g.boundary_sets()
        all_idx = np.concatenate(list(sets.values()))
        assert len(all_idx) == len(np.unique(all_idx))
        mask = g.boundary_mask()
        assert len(all_idx) == mask.sum()

    def test_immutable(self):
        g = grid1d()
        with pytest.raises(Exception):
            g.n = (5,)


class TestDifferentiate:
    def test_constant_derivative_zero(self):
        g = grid1d()
        f = Field(g, np.full(g.shape, 3.7))
        assert np.allclose(differentiate(f, 0, 1).values, 0.0)
        assert np.allclose(differentiate(f, 0, 2).values, 0.0)

    def test_linear_exact_everywhere(self):
        g = grid1d()
        x = g.axis_coords(0)
        f = Field(g, 2.5 * x)
        d = differentiate(f, 0, 1)
        assert np.allclose(d.values, 2.5, atol=1e-13)

    def test_quadratic_first_derivative(self):
        g = grid1d(65)
        x = g.axis_coords(0)
        f = Field(g, x**2)
        d = differentiate(f, 0, 1).values[0]
        interior_err = np.max(np.abs(d[1:-1] - 2 * x[1:-1]))
        assert interior_err <= 1e-10
        # one-sided stencil is exact on quadratics as well
        assert abs(d[0] - 2 * x[0]) <= 1e-10
        assert abs(d[-1] - 2 * x[-1]) <= 1e-10

    def test_second_derivative_2d(self):
        g = grid2d(41)
        pts = g.node_coords()
        f = Field.from_function(g, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1])
        d = differentiate(f, 0, 2).values[0]
        exact = (-np.pi**2 * np.sin(np.pi * pts[:, 0]) * pts[:, 1]).reshape(g.shape)
        assert np.max(np.abs(d - exact)) < 6e-3

    def test_linearity(self):
        g = grid1d(33)
        rng = np.random.default_rng(0)
        f = Field(g, rng.standard_normal(g.shape))
        h = Field(g, rng.standard_normal(g.shape))
        a, b = 1.3, -0.7
        lhs = differentiate(Field(g, a * f.values + b * h.values), 0, 1).values
        rhs = a * differentiate(f, 0, 1).values + b * differentiate(h, 0, 1).values
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_axis_out_of_range(self):
        g = grid1d()
        f = Field.zeros(g)
        with pytest.raises(InvalidArgumentError):
            differentiate(f, 1, 1)


class TestInterpolate:
    def test_node_values_exact(self):
        g = grid1d(17)
        rng = np.random.default_rng(1)
        f = Field(g, rng.standard_normal(g.shape))
        pts = g.node_coords()
        out = interpolate(f, pts)
        assert np.allclose(out, f.values[0], atol=1e-13)

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
        g = grid1d(65)
        f = Field.from_function(g, lambda p: np.sin(2 * np.pi * p[:, 0]))
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.05, 0.95, size=(400,))
        out = interpolate(f, pts)
        err = np.max(np.abs(out - np.sin(2 * np.pi * pts)))
        h = g.spacing[0]
        assert err <= 400.0 * h**4

    def test_out_of_domain_raises(self):
        g = grid1d()
        f = Field.zeros(g)
        with pytest.raises(OutOfDomainError) as exc:
            interpolate(f, np.array([1.5]))
        assert exc.value.point is not None

    def test_clamp_mode(self):
        g = grid1d()
        x = g.axis_coords(0)
        f = Field(g, x)
        out = interpolate(f, np.array([1.2]), out_of_bounds="clamp")
        assert np.allclose(out, 1.0)


def _gather_einsum(grid, vals, pts):
    """Reference kernel: gather the 4 (1D) or 4 x 4 (2D) neighbours and
    contract them with the per-axis stencil weights; clamps like 'clamp'."""
    xis = [np.clip((pts[:, a] - grid.lo[a]) / grid.spacing[a], 0.0, grid.n[a] - 1.0)
           for a in range(grid.dim)]
    if grid.dim == 1:
        start, w = _axis_stencil(xis[0], grid.n[0])
        gathered = vals[:, start[:, None] + np.arange(4)]
        return np.einsum("cpk,pk->pc", gathered, w)
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
    GRIDS = {1: Grid((17,), (0.25,), (1.25,)),
             2: Grid((13, 10), (-0.5, 0.0), (0.5, 2.0))}

    def _points(self, dim, rng):
        g = self.GRIDS[dim]
        axes = [_axis_samples(rng, g.lo[a], g.hi[a], g.n[a]) for a in range(dim)]
        # every pairing of the per-axis samples
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_matches_gather_einsum_reference(self, dim, c):
        g = self.GRIDS[dim]
        rng = np.random.default_rng(10 * dim + c)
        vals = rng.standard_normal((c,) + g.shape)
        pts = self._points(dim, rng)
        ref = _gather_einsum(g, vals, pts)
        got = interp_values(g, vals, pts, out_of_bounds="clamp")
        assert got.shape == (len(pts), c)
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_sum_to_one_with_full_stencils(self, dim):
        g = self.GRIDS[dim]
        pts = self._points(dim, np.random.default_rng(dim))
        M = interp_matrix(g, pts, out_of_bounds="clamp")
        assert M.shape == (len(pts), g.num_nodes)
        assert np.all(np.diff(M.indptr) == 4**dim)
        assert M.nnz == 4**dim * len(pts)
        assert np.max(np.abs(np.asarray(M.sum(axis=1)).ravel() - 1.0)) <= 1e-14

    def test_raise_carries_the_point(self):
        g = self.GRIDS[2]
        pts = np.array([[0.0, 1.0], [0.2, 2.0 + 1e-6], [0.1, 0.5]])
        with pytest.raises(OutOfDomainError) as exc:
            interp_matrix(g, pts)
        assert np.array_equal(exc.value.point, pts[1])


class TestSobolevNorm:
    def test_zero_field(self):
        g = grid2d(9)
        f = Field.zeros(g)
        for k in (0, 1, 2):
            for p in (2, np.inf):
                assert sobolev_norm(f, k, p) == 0.0

    def test_constant_l2(self):
        g = grid1d()
        f = Field(g, np.full(g.shape, -2.0))
        assert abs(sobolev_norm(f, 0, 2) - 2.0) < 1e-13

    def test_sin_h1(self):
        g = grid1d(257)
        f = Field.from_function(g, lambda p: np.sin(2 * np.pi * p[:, 0]))
        val = sobolev_norm(f, 1, 2)
        exact = np.sqrt(0.5 + 2 * np.pi**2)
        assert abs(val - exact) < 1e-3

    def test_monotone_in_k(self):
        g = grid1d(65)
        f = Field.from_function(g, lambda p: np.exp(p[:, 0]) * np.cos(3 * p[:, 0]))
        norms = [sobolev_norm(f, k, 2) for k in (0, 1, 2)]
        assert norms[0] <= norms[1] <= norms[2]


class TestCsvRoundTrip:
    def test_round_trip_2d(self, tmp_path):
        g = grid2d(9)
        rng = np.random.default_rng(4)
        f = Field(g, rng.standard_normal((2,) + g.shape), t=0.25)
        path = tmp_path / "snap.csv"
        write_field_csv(f, path)
        f2 = read_field_csv(path)
        assert f2.grid == g
        assert f2.t == 0.25
        assert np.array_equal(f2.values, f.values)

    def test_integrate(self):
        g = grid1d(129)
        f = Field.from_function(g, lambda p: p[:, 0])
        assert abs(integrate(f) - 0.5) < 1e-12
