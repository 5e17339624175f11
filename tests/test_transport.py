import numpy as np
import pytest

from nsmove.errors import InvalidArgumentError, PositivityViolationError
from nsmove.fields import (
    Field,
    Grid,
    differentiate,
    interp_values,
    interpolate,
    sobolev_norm,
)
from nsmove.motion import MotionField, advect_flow_map
from nsmove.transport import (
    DiscreteVelocity,
    density_gradient,
    mass_total,
    solve_transport,
)


def rho_init_1d(n=65, lo=0.0, hi=1.0):
    g = Grid((n,), (lo,), (hi,))
    return Field.from_function(g, lambda p: 1.0 + 0.5 * np.sin(2 * np.pi * p[:, 0]))


class TestSolveTransport:
    def test_zero_velocity(self):
        rho0 = rho_init_1d()
        traj = solve_transport(rho0, MotionField.zero(1), 0.5, 0.05)
        assert np.allclose(traj.density_field(0.5).values, rho0.values)
        assert np.allclose(traj.flow_map.positions(0.5)[:, 0], rho0.grid.axis_coords(0))

    def test_constant_velocity_divergence_free(self):
        rho0 = rho_init_1d()
        traj = solve_transport(rho0, MotionField.translation([0.3]), 0.5, 0.01)
        # density constant along characteristics
        assert np.allclose(traj.density_field(0.5).values, rho0.values, atol=1e-13)
        # rho(t, x) = rho0(x - c t) at interior physical points
        x = np.linspace(0.2, 1.1, 9)[:, None]
        vals, _ = traj.eval_physical(0.5, x)
        exact = 1.0 + 0.5 * np.sin(2 * np.pi * (x[:, 0] - 0.15))
        assert np.max(np.abs(vals - exact)) < 1e-5

    def test_dilation_exponential_oracle(self):
        # alpha = 1 in 1D, t = ln 2: rho(t, 2z) = rho0(z) / 2
        rho0 = rho_init_1d(65, 0.5, 1.5)
        t_end = np.log(2.0)
        traj = solve_transport(rho0, MotionField.dilation(1.0, 1), t_end,
                               t_end / 1000)
        rho_bar = traj.density_field(t_end).values
        assert np.max(np.abs(rho_bar - rho0.values / 2)) <= 1e-8
        assert np.max(np.abs(traj.flow_map.positions(t_end)[:, 0]
                             - 2 * rho0.grid.axis_coords(0))) <= 1e-8

    def test_single_level_solution(self):
        # T = 0: the one stored level is rho0 at the nodes
        rho0 = rho_init_1d(17)
        traj = solve_transport(rho0, MotionField.dilation(0.5, 1), 0.0, 0.01)
        assert np.array_equal(traj.density_field(0.0).values, rho0.values)
        assert np.array_equal(traj.flow_map.positions(0.0), rho0.grid.node_coords())

    def test_positive_initial_density_required(self):
        g = Grid((9,), (0.0,), (1.0,))
        bad = Field(g, np.linspace(-0.1, 1.0, 9))
        with pytest.raises(PositivityViolationError):
            solve_transport(bad, MotionField.zero(1), 0.1, 0.01)

    def test_positivity_lower_bound(self):
        # min rho(t) >= min rho0 * exp(-t sup|div v|), slack <= 1e-10
        rho0 = rho_init_1d(65, 0.5, 1.5)
        alpha, T = 0.7, 0.4
        traj = solve_transport(rho0, MotionField.dilation(alpha, 1), T, 1e-3)
        bound = np.min(rho0.values) * np.exp(-T * alpha)  # div = alpha in 1D
        assert traj.min_density(T) >= bound - 1e-10


class TestMass:
    def test_mass_constant_zero_velocity(self):
        rho0 = rho_init_1d()
        traj = solve_transport(rho0, MotionField.zero(1), 0.25, 0.05)
        assert mass_total(traj, 0.25) == pytest.approx(mass_total(traj, 0.0), abs=1e-14)

    @pytest.mark.parametrize("V", [MotionField.translation([0.4]),
                                   MotionField.dilation(0.5, 1)])
    def test_mass_drift_tiny(self, V):
        rho0 = rho_init_1d(129, 0.5, 1.5)
        traj = solve_transport(rho0, V, 0.25, 1e-3)
        m0 = mass_total(traj, 0.0)
        drift = abs(mass_total(traj, 0.25) - m0) / m0
        assert drift <= 1e-6 * 0.25

    def test_mass_2d_dilation(self):
        g = Grid((33, 33), (0.25, 0.25), (1.25, 1.25))
        rho0 = Field.from_function(
            g, lambda p: 1.0 + 0.3 * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]))
        traj = solve_transport(rho0, MotionField.dilation(0.3, 2), 0.2, 2e-3)
        m0 = mass_total(traj, 0.0)
        assert abs(mass_total(traj, 0.2) - m0) / m0 <= 1e-8


class TestDensityGradient:
    def test_constant_density_divfree(self):
        g = Grid((33,), (0.0,), (1.0,))
        rho0 = Field(g, np.full(g.shape, 2.0))
        traj = solve_transport(rho0, MotionField.translation([0.2]), 0.3, 0.01)
        assert np.max(np.abs(density_gradient(traj, 0.3).values)) < 1e-12

    def test_zero_velocity_gives_initial_gradient(self):
        rho0 = rho_init_1d()
        traj = solve_transport(rho0, MotionField.zero(1), 0.3, 0.05)
        g = density_gradient(traj, 0.3).values[0]
        g0 = differentiate(rho0, 0, 1).values[0]
        assert np.max(np.abs(g - g0)) < 1e-12

    def test_dilation_fd_oracle(self):
        # cross-validate the propagated gradient against FD of the solved field
        rho0 = rho_init_1d(129, 0.5, 1.5)
        alpha, T = 0.6, 0.3
        traj = solve_transport(rho0, MotionField.dilation(alpha, 1), T, 1e-3)
        gx = density_gradient(traj, T).values[0]
        # FD oracle: rho_bar(z) solved field, d(rho)/dx = d(rho_bar)/dz / (dX/dz)
        rho_bar = traj.density_field(T)
        fd = differentiate(rho_bar, 0, 1).values[0] / traj.flow_map.jacobians(T)[:, 0, 0]
        h = rho0.grid.spacing[0]
        assert np.max(np.abs(gx - fd)) < 10 * h**2


class TestTimeDerivativeConsistency:
    def test_eq_of_motion(self):
        # d/dt rho at fixed x matches -v.grad rho - rho div v
        rho0 = rho_init_1d(129, 0.5, 1.5)
        alpha, T, dt = 0.5, 0.2, 1e-3
        V = MotionField.dilation(alpha, 1)
        traj = solve_transport(rho0, V, T + dt, dt)
        x = np.linspace(0.7, 1.2, 7)[:, None]
        t = T / 2
        plus, _ = traj.eval_physical(t + dt, x)
        minus, _ = traj.eval_physical(t - dt, x)
        drho_dt = (plus - minus) / (2 * dt)
        vals, z = traj.eval_physical(t, x)
        gx = density_gradient(traj, t)
        gx_at = interpolate(Field(gx.grid, gx.values, t), z, out_of_bounds="clamp")
        rhs = -(alpha * x[:, 0]) * gx_at - vals * alpha
        h = rho0.grid.spacing[0]
        assert np.max(np.abs(drho_dt - rhs)) < 50 * (dt**2 + h**2)


class TestDiscreteVelocity:
    def test_matches_analytic_on_static_grid(self):
        g = Grid((65,), (0.0,), (1.0,))
        times = np.linspace(0.0, 0.5, 11)
        fields = [Field.from_function(g, lambda p: 0.3 * np.sin(np.pi * p[:, 0]), t=t)
                  for t in times]
        dv = DiscreteVelocity(times, fields)
        pts = np.linspace(0.1, 0.9, 5)[:, None]
        v = dv.velocity(0.25, pts)
        assert np.max(np.abs(v[:, 0] - 0.3 * np.sin(np.pi * pts[:, 0]))) < 1e-5
        div = dv.divergence(0.25, pts)
        exact = 0.3 * np.pi * np.cos(np.pi * pts[:, 0])
        assert np.max(np.abs(div - exact)) < 1e-3

    def test_query_past_last_level_raises(self):
        g = Grid((17,), (0.0,), (1.0,))
        times = np.linspace(0.0, 0.2, 3)
        dv = DiscreteVelocity(times, [Field.zeros(g, t=t) for t in times])
        pts = np.array([[0.5]])
        assert dv.velocity(0.2, pts)[0, 0] == 0.0
        with pytest.raises(InvalidArgumentError):
            dv.velocity(0.25, pts)

    @staticmethod
    def _dilation_sampled():
        # u(x) = sin(x) sampled along a dilation flow map
        g = Grid((65,), (0.5,), (1.5,))
        fm = advect_flow_map(MotionField.dilation(0.4, 1), g, 0.3, 1e-2)
        times = fm.times[::10]
        fields = [Field(g, np.sin(fm.positions(t)[:, 0]).reshape(g.shape), t)
                  for t in times]
        return DiscreteVelocity(times, fields, flow_map=fm), fm

    def test_reference_sampled_on_moving_grid(self):
        # fields sampled along a dilation flow map evaluate correctly in x
        dv, _ = self._dilation_sampled()
        x = np.linspace(0.8, 1.4, 5)[:, None]
        v = dv.velocity(0.3, x)
        assert np.max(np.abs(v[:, 0] - np.sin(x[:, 0]))) < 1e-4

    def test_one_inversion_per_stage(self):
        # the four protocol methods share one pull-back per (t, points)
        dv, fm = self._dilation_sampled()
        calls = []
        invert = fm.invert

        def counting_invert(t, x, **kwargs):
            calls.append(t)
            return invert(t, x, **kwargs)

        fm.invert = counting_invert
        x = np.linspace(0.8, 1.4, 5)[:, None]
        for method in (dv.velocity, dv.gradient, dv.divergence, dv.grad_divergence):
            method(0.3, x)
        assert len(calls) == 1
        # 2 RK4 steps of 4 stages: one inversion per stage, not per sample
        sub = Grid((9,), (0.9,), (1.1,))
        solve_transport(Field(sub, np.ones(sub.shape)), dv, 0.02, 0.01)
        assert len(calls) == 1 + 2 * 4

    @staticmethod
    def _static_2d(t_levels):
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))

        def u(t):
            return lambda p: np.stack([
                0.3 * (1 + t) * np.sin(np.pi * p[:, 0]) * np.cos(2 * p[:, 1]),
                0.2 * np.cos(np.pi * p[:, 1] + t) * (1 + p[:, 0] ** 2)], axis=1)

        fields = [Field.from_function(g, u(t), t=t, ncomp=2) for t in t_levels]
        return g, fields

    def test_stage_matches_blended_per_level_interpolation(self):
        times = np.array([0.0, 0.1, 0.2])
        g, fields = self._static_2d(times)
        dv = DiscreteVelocity(times, fields)
        pts = np.random.default_rng(4).uniform(0.0, 1.0, size=(200, 2))
        t = 0.137
        w = (t - times[1]) / (times[2] - times[1])

        def level(f):
            # u, grad u, div u, grad div u, each interpolated on its own
            grads = [differentiate(f, k).values for k in range(2)]   # (2,) + shape
            div = Field(g, grads[0][0] + grads[1][1])
            return (interp_values(g, f.values, pts),
                    np.stack([interp_values(g, grads[k], pts) for k in range(2)],
                             axis=-1),
                    interp_values(g, div.values, pts)[:, 0],
                    np.stack([interp_values(g, differentiate(div, k).values, pts)[:, 0]
                              for k in range(2)], axis=-1))

        refs = [(1 - w) * a + w * b for a, b in zip(level(fields[1]), level(fields[2]))]
        got = [dv.velocity(t, pts), dv.gradient(t, pts), dv.divergence(t, pts),
               dv.grad_divergence(t, pts)]
        for a, b in zip(got, refs):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-14

    def test_stage_cache_follows_the_points(self):
        times = np.array([0.0, 0.1, 0.2])
        g, fields = self._static_2d(times)
        dv = DiscreteVelocity(times, fields)
        rng = np.random.default_rng(5)
        p1, p2 = rng.uniform(0.0, 1.0, size=(2, 50, 2))
        t = 0.05

        def sample(src, p):
            return [src.velocity(t, p), src.gradient(t, p), src.divergence(t, p),
                    src.grad_divergence(t, p)]

        sample(dv, p1)
        for a, b in zip(sample(dv, p2), sample(DiscreteVelocity(times, fields), p2)):
            assert np.array_equal(a, b)
        # the same array moved in place is a new stage too
        p = p1.copy()
        sample(dv, p)
        p += 0.01
        for a, b in zip(sample(dv, p), sample(DiscreteVelocity(times, fields), p)):
            assert np.array_equal(a, b)

    def test_stage_values_are_read_only(self):
        times = np.array([0.0, 0.1])
        g, fields = self._static_2d(times)
        dv = DiscreteVelocity(times, fields)
        pts = np.array([[0.3, 0.4], [0.6, 0.1]])
        for out in (dv.velocity(0.05, pts), dv.gradient(0.05, pts),
                    dv.divergence(0.05, pts), dv.grad_divergence(0.05, pts)):
            with pytest.raises(ValueError):
                out[0] = 1.0

    def test_transport_with_discrete_velocity(self):
        # discrete sampling of the dilation field reproduces the closed form
        g = Grid((129,), (0.5,), (1.5,))
        rho0 = Field.from_function(g, lambda p: 1.0 + 0.2 * np.cos(np.pi * p[:, 0]))
        alpha, T = 0.5, 0.2
        times = np.arange(0.0, T + 1e-12, 1e-2)
        fields = [Field.from_function(g, lambda p: alpha * p[:, 0], t=t) for t in times]
        dv = DiscreteVelocity(times, fields)
        # static-grid sampling valid while the image stays in the extent:
        # e^{0.1} * 1.5 > 1.5, so shrink the launch region via a sub-grid
        sub = Grid((65,), (0.6,), (1.2,))
        rho0s = Field.from_function(sub, lambda p: 1.0 + 0.2 * np.cos(np.pi * p[:, 0]))
        traj = solve_transport(rho0s, dv, T, 2e-3)
        got = traj.density_field(T).values[0]
        exact = rho0s.values[0] * np.exp(-alpha * T)
        assert np.max(np.abs(got - exact)) < 2e-4


class TestNormMonitor:
    def test_h2_trend_under_time_halving(self):
        rho0 = rho_init_1d(65, 0.5, 1.5)
        V = MotionField.dilation(0.5, 1)

        def linf_h2(T):
            traj = solve_transport(rho0, V, T, 1e-3)
            return max(sobolev_norm(traj.density_field(t), 2, 2)
                       for t in traj.times[::20])

        n_full, n_half = linf_h2(0.2), linf_h2(0.1)
        assert n_half <= n_full + 1e-12
