import numpy as np
import pytest

from nsmove.errors import InvalidArgumentError, PositivityViolationError
from nsmove.fields import Field, Grid
from nsmove.momentum import (
    FluidParams,
    MomentumBC,
    _dirichlet_data,
    assemble_stress_matrix,
    momentum_energy_residual,
    solve_linear_momentum,
)


def zero_v(t, pts):
    return np.zeros_like(np.atleast_2d(pts))


def manufactured_1d(n, steps, mu=0.2, eta=0.1, T=0.25):
    g = Grid((n,), (0.0,), (1.0,))
    x = g.axis_coords(0)
    c = 4 * mu / 3 + eta

    def exact(t):
        return np.exp(-t) * np.sin(np.pi * x)

    def rhs(t):
        return ((-1 + c * np.pi**2) * np.exp(-t) * np.sin(np.pi * x))[:, None]

    params = FluidParams(mu=mu, eta=eta, bc="no-slip")
    bc = MomentumBC.no_slip(zero_v)
    u0 = Field(g, exact(0.0))
    levels, reports = solve_linear_momentum(
        lambda t: np.ones(n), rhs, bc, u0, params, T / steps, T)
    err = levels[-1].values[0] - exact(T)
    w = g.quadrature_weights()
    return float(np.sqrt(np.sum(w * err**2))), reports


def manufactured_2d_slip(n, steps, mu=0.3, T=0.1):
    g = Grid((n, n), (0.0, 0.0), (1.0, 1.0))
    pts = g.node_coords()
    sx, cx = np.sin(np.pi * pts[:, 0]), np.cos(np.pi * pts[:, 0])
    sy, cy = np.sin(np.pi * pts[:, 1]), np.cos(np.pi * pts[:, 1])
    base = np.stack([sx * cy, -cx * sy], axis=1)  # div-free, u.n = 0 on faces

    def exact(t):
        return np.exp(-t) * base

    def rhs(t):
        return (-1 + 2 * np.pi**2 * mu) * np.exp(-t) * base

    params = FluidParams(mu=mu, eta=0.0, kappa=0.0, bc="slip")
    bc = MomentumBC.slip(zero_v)
    u0 = Field(g, exact(0.0).T.reshape((2,) + g.shape))
    levels, _ = solve_linear_momentum(
        lambda t: np.ones(g.num_nodes), rhs, bc, u0, params, T / steps, T)
    err = levels[-1].values.reshape(2, -1).T - exact(T)
    w = g.quadrature_weights().ravel()
    return float(np.sqrt(np.sum(w * np.sum(err**2, axis=1))))


class TestBasics:
    def test_zero_everything_stays_zero(self):
        g = Grid((17,), (0.0,), (1.0,))
        params = FluidParams(mu=0.5, bc="no-slip")
        u0 = Field.zeros(g)
        levels, reports = solve_linear_momentum(
            lambda t: np.ones(17), lambda t: np.zeros((17, 1)),
            MomentumBC.no_slip(zero_v), u0, params, 0.01, 0.1)
        assert all(np.max(np.abs(l.values)) == 0.0 for l in levels)
        assert all(r.residual <= 1e-10 for r in reports)

    def test_operator_symmetry(self):
        g = Grid((9, 11), (0.0, 0.0), (1.0, 2.0))
        params = FluidParams(mu=0.7, eta=0.2, bc="slip")
        A = assemble_stress_matrix(g, params)
        gap = abs(A - A.T)
        assert gap.max() if gap.nnz else 0.0 <= 1e-12

    def test_positivity_guard(self):
        g = Grid((9,), (0.0,), (1.0,))
        params = FluidParams(mu=0.5, bc="no-slip")
        with pytest.raises(PositivityViolationError):
            solve_linear_momentum(
                lambda t: np.full(9, -1.0), lambda t: np.zeros((9, 1)),
                MomentumBC.no_slip(zero_v), Field.zeros(g), params, 0.01, 0.02)

    def test_params_validation(self):
        with pytest.raises(InvalidArgumentError):
            FluidParams(mu=-1.0)
        with pytest.raises(InvalidArgumentError):
            FluidParams(mu=1.0, bc="periodic")

    def test_1d_slip_dirichlet_data(self):
        # u.n = V.n + d with n = -1 at x0 and +1 at x1
        g = Grid((9,), (0.0,), (1.0,))
        bc = MomentumBC.slip(lambda t, p: np.full_like(p, 0.7),
                             normal_datum=lambda t, face: np.array(
                                 [0.2 if face == "x0" else 0.5]))
        idx, vals = _dirichlet_data(g, bc, 0.1)
        assert np.array_equal(idx, [0, 8])
        assert np.allclose(vals, [0.7 - 0.2, 0.7 + 0.5], rtol=0.0, atol=1e-15)

    def test_homogeneous_energy_nonincreasing(self):
        g = Grid((33,), (0.0,), (1.0,))
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(g.shape)
        vals[0] = vals[-1] = 0.0
        u0 = Field(g, vals)
        params = FluidParams(mu=0.3, bc="no-slip")
        levels, _ = solve_linear_momentum(
            lambda t: np.ones(33), lambda t: np.zeros((33, 1)),
            MomentumBC.no_slip(zero_v), u0, params, 0.01, 0.2)
        w = g.quadrature_weights()
        energies = [float(np.sum(w * l.values[0] ** 2)) for l in levels]
        assert all(e1 <= e0 + 1e-13 for e0, e1 in zip(energies, energies[1:]))


class TestManufactured:
    def test_1d_no_slip_convergence(self):
        errs = []
        for n, steps in ((33, 16), (65, 32), (129, 64)):
            e, _ = manufactured_1d(n, steps)
            errs.append(e)
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_2d_slip_convergence(self):
        errs = [manufactured_2d_slip(n, steps)
                for n, steps in ((17, 8), (33, 16))]
        assert np.log2(errs[0] / errs[1]) >= 1.8


class TestEnergyResidual:
    def test_zero_solution_all_zero(self):
        g = Grid((17,), (0.0,), (1.0,))
        levels = [Field.zeros(g, t=t) for t in (0.0, 0.1, 0.2)]
        recs = momentum_energy_residual(
            levels, np.array([0.0, 0.1, 0.2]), lambda t: np.ones(17),
            lambda t: np.zeros((17, 1)), FluidParams(mu=0.4))
        assert all(r["imbalance"] == 0.0 for r in recs)

    def test_manufactured_imbalance_refines(self):
        g = {}
        out = {}
        for n, steps in ((33, 16), (65, 32)):
            grid = Grid((n,), (0.0,), (1.0,))
            x = grid.axis_coords(0)
            mu, eta, T = 0.2, 0.1, 0.25
            c = 4 * mu / 3 + eta

            def rhs(t):
                return ((-1 + c * np.pi**2) * np.exp(-t) * np.sin(np.pi * x))[:, None]

            params = FluidParams(mu=mu, eta=eta, bc="no-slip")
            u0 = Field(grid, np.sin(np.pi * x))
            levels, _ = solve_linear_momentum(
                lambda t: np.ones(n), rhs, MomentumBC.no_slip(zero_v),
                u0, params, T / steps, T)
            recs = momentum_energy_residual(
                levels, np.linspace(0, T, steps + 1), lambda t: np.ones(n),
                rhs, params)
            out[n] = max(abs(r["imbalance"]) for r in recs)
        assert out[65] < out[33]
        assert out[65] <= 0.5 * out[33] * 1.2  # ~second order

    def test_friction_term_nonnegative(self):
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
        pts = g.node_coords()
        params = FluidParams(mu=0.3, kappa=2.0, bc="slip")
        bc = MomentumBC.slip(zero_v)

        def rhs(t):
            return np.stack([np.sin(np.pi * pts[:, 1]),
                             np.zeros(len(pts))], axis=1)

        u0 = Field.zeros(g, ncomp=2)
        levels, _ = solve_linear_momentum(
            lambda t: np.ones(g.num_nodes), rhs, bc, u0, params, 0.02, 0.1)
        recs = momentum_energy_residual(
            levels, np.linspace(0, 0.1, 6), lambda t: np.ones(g.num_nodes),
            rhs, params, bc=bc)
        assert any(r["friction"] > 0 for r in recs)
        assert all(r["friction"] >= -1e-12 for r in recs)


class TestSlipNoSlipLimit:
    def test_large_kappa_approaches_no_slip(self):
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
        pts = g.node_coords()

        def rhs(t):
            return np.stack([np.cos(np.pi * pts[:, 1]),
                             np.sin(np.pi * pts[:, 0])], axis=1)

        def run(params, bc):
            u0 = Field.zeros(g, ncomp=2)
            levels, _ = solve_linear_momentum(
                lambda t: np.ones(g.num_nodes), rhs, bc, u0, params, 0.02, 0.1)
            return levels[-1].values

        ns = run(FluidParams(mu=0.3, bc="no-slip"), MomentumBC.no_slip(zero_v))
        gaps = []
        for kappa in (1e2, 1e4, 1e8):
            sl = run(FluidParams(mu=0.3, kappa=kappa, bc="slip"),
                     MomentumBC.slip(zero_v))
            w = g.quadrature_weights().ravel()
            gaps.append(float(np.sqrt(np.sum(
                w * np.sum((sl - ns).reshape(2, -1).T**2, axis=1)))))
        assert gaps[0] > gaps[1] > gaps[2]
