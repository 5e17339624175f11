import re
import tracemalloc
import weakref

import numpy as np
import pytest

from nsmove import transport
from nsmove.errors import InvalidArgumentError, OutOfDomainError, PositivityViolationError
from nsmove.fields import (
    Field,
    Grid,
    blend_levels,
    differentiate,
    gradient_values,
    interp_matrix,
    interpolate,
    sobolev_norm,
)
from nsmove.motion import MotionField, advect_flow_map, physical_gradient
from nsmove.transport import (
    DiscreteVelocity,
    density_gradient,
    mass_total,
    solve_transport,
)
from fixed_domain import fixed_map
from xonly import thin_grid, x_dilation, x_field, x_points


def rho_x(x):
    return 1.0 + 0.5 * np.sin(2 * np.pi * x)


class TestSolveTransport:
    def test_zero_velocity(self):
        rho0 = x_field(thin_grid(65), rho_x)
        traj = solve_transport(rho0, MotionField.zero(), 0.5, 0.05)
        assert np.allclose(traj.density_field(0.5).values, rho0.values)
        assert np.allclose(traj.flow_map.positions(0.5), rho0.grid.node_coords())

    @pytest.mark.parametrize("T, dt", [(0.1, 0.0), (-0.1, 0.01)])
    def test_bad_horizon_or_step_rejected(self, T, dt):
        with pytest.raises(InvalidArgumentError, match=f"T = {T}, dt = {dt}"):
            solve_transport(x_field(thin_grid(17), rho_x), MotionField.zero(), T, dt)

    def test_constant_velocity_divergence_free(self):
        rho0 = x_field(thin_grid(65), rho_x)
        traj = solve_transport(rho0, MotionField.translation([0.3, 0.0]), 0.5, 0.01)
        # density constant along characteristics
        assert np.allclose(traj.density_field(0.5).values, rho0.values, atol=1e-13)
        # rho(t, x) = rho0(x - c t) at interior physical points
        x = x_points(np.linspace(0.2, 1.1, 9))
        vals, _ = traj.eval_physical(0.5, x)
        exact = 1.0 + 0.5 * np.sin(2 * np.pi * (x[:, 0] - 0.15))
        assert np.max(np.abs(vals - exact)) < 1e-5

    def test_dilation_exponential_oracle(self):
        # V = (x, 0), t = ln 2: rho(t, 2z) = rho0(z) / 2
        rho0 = x_field(thin_grid(65, 0.5, 1.5), rho_x)
        t_end = np.log(2.0)
        traj = solve_transport(rho0, x_dilation(1.0), t_end, t_end / 1000)
        rho_bar = traj.density_field(t_end).values
        assert np.max(np.abs(rho_bar - rho0.values / 2)) <= 1e-8
        assert np.max(np.abs(traj.flow_map.positions(t_end)[:, 0]
                             - 2 * rho0.grid.node_coords()[:, 0])) <= 1e-8

    def test_single_level_solution(self):
        # T = 0: the one stored level is rho0 at the nodes
        rho0 = x_field(thin_grid(17), rho_x)
        traj = solve_transport(rho0, x_dilation(0.5), 0.0, 0.01)
        assert np.array_equal(traj.density_field(0.0).values, rho0.values)
        assert np.array_equal(traj.flow_map.positions(0.0), rho0.grid.node_coords())

    def test_positive_initial_density_required(self):
        bad = x_field(thin_grid(9), lambda x: 1.1 * x - 0.1)
        with pytest.raises(PositivityViolationError):
            solve_transport(bad, MotionField.zero(), 0.1, 0.01)

    def test_positivity_lower_bound(self):
        # min rho(t) >= min rho0 * exp(-t sup|div v|), slack <= 1e-10
        rho0 = x_field(thin_grid(65, 0.5, 1.5), rho_x)
        alpha, T = 0.7, 0.4
        traj = solve_transport(rho0, x_dilation(alpha), T, 1e-3)
        bound = np.min(rho0.values) * np.exp(-T * alpha)  # div V = alpha
        assert traj.min_density(T) >= bound - 1e-10


class TestMass:
    def test_mass_constant_zero_velocity(self):
        rho0 = x_field(thin_grid(65), rho_x)
        traj = solve_transport(rho0, MotionField.zero(), 0.25, 0.05)
        assert mass_total(traj, 0.25) == pytest.approx(mass_total(traj, 0.0), abs=1e-14)

    @pytest.mark.parametrize("V", [MotionField.translation([0.4, 0.0]), x_dilation(0.5)])
    def test_mass_drift_tiny(self, V):
        rho0 = x_field(thin_grid(129, 0.5, 1.5), rho_x)
        traj = solve_transport(rho0, V, 0.25, 1e-3)
        m0 = mass_total(traj, 0.0)
        drift = abs(mass_total(traj, 0.25) - m0) / m0
        assert drift <= 1e-6 * 0.25

    def test_mass_2d_dilation(self):
        g = Grid((33, 33), (0.25, 0.25), (1.25, 1.25))
        rho0 = Field.from_function(
            g, lambda p: 1.0 + 0.3 * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]))
        traj = solve_transport(rho0, MotionField.dilation(0.3), 0.2, 2e-3)
        m0 = mass_total(traj, 0.0)
        assert abs(mass_total(traj, 0.2) - m0) / m0 <= 1e-8


class TestDensityGradient:
    def test_constant_density_divfree(self):
        g = thin_grid(33)
        rho0 = Field(g, np.full(g.shape, 2.0))
        traj = solve_transport(rho0, MotionField.translation([0.2, 0.0]), 0.3, 0.01)
        assert np.max(np.abs(density_gradient(traj, 0.3).values)) < 1e-12

    def test_zero_velocity_gives_initial_gradient(self):
        rho0 = x_field(thin_grid(65), rho_x)
        traj = solve_transport(rho0, MotionField.zero(), 0.3, 0.05)
        g = density_gradient(traj, 0.3).values[0]
        g0 = differentiate(rho0, 0, 1).values[0]
        assert np.max(np.abs(g - g0)) < 1e-12

    def test_affine_closed_form_second_order(self):
        # V = A x moves z to X = e^{At} z and rho(t, X) = rho0(z) e^{-tr A t},
        # so at the feet grad_x rho = e^{-tr A t} e^{-A^T t} grad rho0(z):
        # the FD gradient of the density field, carried to x by gradY,
        # converges to it at second order
        A = np.array([[0.3, 0.4], [0.0, 0.3]])
        V = MotionField.expression(
            lambda t, p: p @ A.T, 2,
            grad_fn=lambda t, p: np.broadcast_to(A, p.shape + (2,)).copy())
        T = 0.1
        # e^{-A T} = e^{-0.3 T} (I - 0.4 T E_12)
        exp_minus_AT = np.exp(-0.3 * T) * np.array([[1.0, -0.4 * T], [0.0, 1.0]])
        errs = {}
        for n in (33, 65):
            g = Grid((n, n), (0.0, 0.0), (1.0, 1.0))
            rho0 = Field.from_function(
                g, lambda p: 1.0 + 0.5 * np.exp(-np.sum((p - 0.5) ** 2, axis=1) / 0.02))
            traj = solve_transport(rho0, V, T, 0.01)
            gx = density_gradient(traj, T).values.reshape(2, -1).T
            z = g.node_coords()
            grad0 = -(z - 0.5) / 0.01 * (rho0.values[0].ravel() - 1.0)[:, None]
            exact = np.exp(-0.6 * T) * grad0 @ exp_minus_AT
            errs[n] = np.max(np.abs(gx - exact))
        assert errs[65] <= 3e-2
        assert np.log2(errs[33] / errs[65]) >= 1.8


class TestTimeDerivativeConsistency:
    def test_eq_of_motion(self):
        # d/dt rho at fixed x matches -v.grad rho - rho div v
        rho0 = x_field(thin_grid(129, 0.5, 1.5), rho_x)
        alpha, T, dt = 0.5, 0.2, 1e-3
        V = x_dilation(alpha)
        traj = solve_transport(rho0, V, T + dt, dt)
        x = x_points(np.linspace(0.7, 1.2, 7))
        t = T / 2
        plus, _ = traj.eval_physical(t + dt, x)
        minus, _ = traj.eval_physical(t - dt, x)
        drho_dt = (plus - minus) / (2 * dt)
        vals, z = traj.eval_physical(t, x)
        gx = density_gradient(traj, t)
        gx_at = interpolate(Field(gx.grid, gx.values, t), z, out_of_bounds="clamp")[:, 0]
        rhs = -(alpha * x[:, 0]) * gx_at - vals * alpha
        h = rho0.grid.spacing[0]
        assert np.max(np.abs(drho_dt - rhs)) < 50 * (dt**2 + h**2)


class TestDiscreteVelocity:
    def test_matches_analytic_on_static_grid(self):
        g = thin_grid(65)
        times = np.linspace(0.0, 0.5, 11)
        fields = [x_field(g, lambda x: 0.3 * np.sin(np.pi * x), t=t, vector=True)
                  for t in times]
        dv = DiscreteVelocity(times, fields)
        pts = x_points(np.linspace(0.1, 0.9, 5))
        v, grad = dv.velocity_and_gradient(0.25, pts)
        assert np.max(np.abs(v[:, 0] - 0.3 * np.sin(np.pi * pts[:, 0]))) < 1e-5
        div = np.trace(grad, axis1=1, axis2=2)
        exact = 0.3 * np.pi * np.cos(np.pi * pts[:, 0])
        assert np.max(np.abs(div - exact)) < 1e-3

    def test_query_past_last_level_raises(self):
        g = thin_grid(17)
        times = np.linspace(0.0, 0.2, 3)
        dv = DiscreteVelocity(times, [Field.zeros(g, ncomp=2, t=t) for t in times])
        pts = x_points([0.5])
        assert dv.velocity_and_gradient(0.2, pts)[0][0, 0] == 0.0
        with pytest.raises(InvalidArgumentError):
            dv.velocity_and_gradient(0.25, pts)

    @staticmethod
    def _dilation_sampled():
        # u(x) = sin(x) sampled along a dilation flow map
        g = thin_grid(65, 0.5, 1.5)
        fm = advect_flow_map(x_dilation(0.4), g, 0.3, 1e-2)
        times = fm.times[::10]
        fields = [Field(g, (np.sin(fm.positions(t)) * [1.0, 0.0]).T.reshape((2,) + g.shape), t)
                  for t in times]
        return DiscreteVelocity(times, fields, flow_map=fm), fm

    def test_reference_sampled_on_moving_grid(self):
        # fields sampled along a dilation flow map evaluate correctly in x
        dv, _ = self._dilation_sampled()
        x = x_points(np.linspace(0.8, 1.4, 5))
        v = dv.velocity_and_gradient(0.3, x)[0]
        assert np.max(np.abs(v[:, 0] - np.sin(x[:, 0]))) < 1e-4

    def test_one_inversion_per_stage(self):
        # u and grad u come from one pull-back per (t, points)
        dv, fm = self._dilation_sampled()
        calls = []
        invert = fm.invert

        def counting_invert(t, x, **kwargs):
            calls.append(t)
            return invert(t, x, **kwargs)

        fm.invert = counting_invert
        x = x_points(np.linspace(0.8, 1.4, 5))
        dv.velocity_and_gradient(0.3, x)
        assert len(calls) == 1
        # 2 RK4 steps of 4 stages: one inversion per stage, not per sample
        sub = thin_grid(9, 0.9, 1.1)
        solve_transport(Field(sub, np.ones(sub.shape)), dv, 0.02, 0.01)
        assert len(calls) == 1 + 2 * 4

    @pytest.mark.parametrize("times", [[], [0.0, 0.2, 0.1], [0.0, 0.1, 0.1]],
                             ids=["empty", "unordered", "repeated"])
    def test_level_times_checked(self, times):
        # blended by position, levels 0, 2, 5 at t = 0, 0.2, 0.1 would give
        # u(0.05) = 0.5, not 2.5; no levels at all would be an IndexError
        g = thin_grid(9)
        fields = [Field(g, np.full((2,) + g.shape, v), t) for v, t in zip((0.0, 2.0, 5.0), times)]
        with pytest.raises(InvalidArgumentError, match="non-empty and increasing"):
            DiscreteVelocity(times, fields)

    @pytest.mark.parametrize("grid, ncomp", [
        (Grid((9, 9), (0.0, 0.0), (2.0, 2.0)), 2), (Grid((9, 9), (0.0, 0.0), (1.0, 1.0)), 1)],
        ids=["other-grid", "scalar"])
    def test_level_fields_checked(self, grid, ncomp):
        # a level on another grid would be interpolated on the first one's
        # nodes, and a scalar level has no second component to read
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        fields = [Field.zeros(g, ncomp=2, t=0.0), Field.zeros(grid, ncomp=ncomp, t=0.1)]
        with pytest.raises(InvalidArgumentError, match="velocity level 1 has"):
            DiscreteVelocity([0.0, 0.1], fields)

    @pytest.mark.parametrize("map_grid", [Grid((9, 9), (0.0, 0.0), (2.0, 2.0)),
                                          Grid((17, 17), (0.0, 0.0), (1.0, 1.0))],
                             ids=["other-extent", "other-size"])
    def test_flow_map_on_the_levels_grid(self, map_grid):
        # a map on [0, 2]^2 once gave values with no error, and a 17 x 17 map
        # failed only at the first stage with a bare numpy broadcast error
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        fields = [Field.zeros(g, ncomp=2, t=t) for t in (0.0, 0.1)]
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"level 0 has 2 components on {g}; "
                                           f"expected 2 on {map_grid}")):
            DiscreteVelocity([0.0, 0.1], fields, flow_map=fixed_map(map_grid, [0.0, 0.1]))

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

        M = interp_matrix(g, pts)

        def level(f):
            # u, grad u, div u, each interpolated on its own
            grads = [differentiate(f, k).values for k in range(2)]   # (2,) + shape
            return (M @ f.values.reshape(2, -1).T,
                    np.stack([M @ grads[k].reshape(2, -1).T for k in range(2)], axis=-1),
                    M @ (grads[0][0] + grads[1][1]).ravel())

        refs = [(1 - w) * a + w * b for a, b in zip(level(fields[1]), level(fields[2]))]
        u, grad = dv.velocity_and_gradient(t, pts)
        # div u is the trace of the interpolated gradient
        got = [u, grad, np.trace(grad, axis1=1, axis2=2)]
        for a, b in zip(got, refs):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-14

    @pytest.mark.parametrize("moving", [False, True], ids=["static", "moving-map"])
    def test_stage_bit_identical_to_six_column_product(self, moving):
        # the zero 7th column of the level data changes no bit of u or grad u:
        # a stage equals the product with the 6-column u | grad_x u data
        times = np.array([0.0, 0.1, 0.2])
        g, fields = self._static_2d(times)
        fm = advect_flow_map(MotionField.shear(0.4), g, 0.2, 0.1) if moving else None

        def six_columns(m):
            grad = (physical_gradient(fields[m], fm.frame(times[m])) if moving
                    else gradient_values(fields[m]))
            return np.concatenate([fields[m].values.reshape(2, -1).T, grad.reshape(4, -1).T],
                                  axis=1)

        L6 = [six_columns(m) for m in range(len(times))]
        z = np.random.default_rng(8).uniform(0.1, 0.9, size=(200, 2))
        built = []
        for t in (0.1, 0.137):
            dv = DiscreteVelocity(times, fields, flow_map=fm)
            dv._level_data = lambda m, build=dv._level_data: built.append(build(m)) or built[-1]
            # physical points, pulled back as a stage's first call does
            pts = interp_matrix(g, z, out_of_bounds="clamp") @ fm.positions(t) if moving else z
            ref = fm.invert(t, pts) if moving else pts
            want = interp_matrix(g, ref) @ blend_levels(L6, times, t)
            u, grad = dv.velocity_and_gradient(t, pts)
            assert np.array_equal(u, want[:, :2])
            assert np.array_equal(grad, want[:, 2:].reshape(-1, 2, 2))
        assert len(built) == 3   # level 1 at t = 0.1, levels 1 and 2 at t = 0.137
        for lev in built:
            assert lev.shape == (g.num_nodes, 7)
            assert np.array_equal(lev[:, 6], np.zeros(g.num_nodes))

    def test_one_blend_per_stage_time(self, monkeypatch):
        # RK4 stages 2 and 3 share m dt + dt/2, and a step's last stage is
        # timed at (m + 1) dt, the next step's first stage time and the next
        # level's: S steps blend at the 2 S + 1 distinct stage times, read
        # the stored level itself at every step end and build each level's
        # data once. dt = 0.01 is not dyadic: m dt + dt is an ulp off
        # (m + 1) dt at m = 5, 6 and 9
        S, dt = 10, 0.01
        times = dt * np.arange(S + 1)
        g, fields = self._static_2d(times)
        dv = DiscreteVelocity(times, fields)
        built, blended = [], []
        level_data, blend = dv._level_data, transport.blend_levels

        def recording_blend(levels, ts, t):
            out = blend(levels, ts, t)
            blended.append((t, any(out is a for a in levels.values())))
            return out

        monkeypatch.setattr(dv, "_level_data", lambda m: built.append(m) or level_data(m))
        monkeypatch.setattr(transport, "blend_levels", recording_blend)
        sub = Grid((9, 9), (0.3, 0.3), (0.7, 0.7))
        solve_transport(Field(sub, np.ones(sub.shape)), dv, S * dt, dt)
        assert built == list(range(S + 1))
        assert len(blended) == 2 * S + 1
        assert blended[::2] == [(t, True) for t in times]
        assert blended[1::2] == [(m * dt + dt / 2, False) for m in range(S)]

    def test_stale_stage_and_blend_freed_before_new_arrays(self, monkeypatch):
        # a stage at a new t drops the last stage's blend before it builds
        # level data or an interpolation matrix, so no second (N, 7) blend
        # is alive then; the stage's own values are the caller's
        times = np.array([0.0, 0.1, 0.2])
        g, fields = self._static_2d(times)
        dv = DiscreteVelocity(times, fields)
        p1, p2 = np.random.default_rng(6).uniform(0.0, 1.0, size=(2, 50, 2))
        dv.velocity_and_gradient(0.05, p1)
        blend = weakref.ref(dv._blend[1])
        alive = []
        level_data, build = dv._level_data, transport.interp_matrix
        monkeypatch.setattr(dv, "_level_data", lambda m: alive.append(
            ("level", blend() is not None)) or level_data(m))
        monkeypatch.setattr(transport, "interp_matrix", lambda grid, z: alive.append(
            ("matrix", blend() is not None)) or build(grid, z))
        dv.velocity_and_gradient(0.15, p2)
        assert alive == [("level", False), ("matrix", False)]

    def test_transport_peak_memory_bounded(self):
        # a 65^2 static-grid transport over 10 levels peaks at <= 2.4 times
        # the bytes of the X, J and I levels it returns (2.19 measured):
        # beyond them it holds the packed RK4 buffers, two levels' data,
        # their blend, and one stage's interpolation matrix and values
        g = Grid((65, 65), (0.0, 0.0), (1.0, 1.0))
        times = 0.01 * np.arange(11)

        def u(t):
            # u . n = 0 on every face: the feet stay in the square
            return lambda p: np.stack([
                0.3 * (1 + t) * np.sin(np.pi * p[:, 0]) * np.cos(2 * p[:, 1]),
                0.2 * np.cos(np.pi * p[:, 1] + t) * np.sin(np.pi * p[:, 1])], axis=1)

        fields = [Field.from_function(g, u(t), t=t, ncomp=2) for t in times]
        rho0 = Field.from_function(
            g, lambda p: 1.0 + 0.5 * np.exp(-np.sum((p - 0.5) ** 2, axis=1) / 0.02))
        solve_transport(rho0, DiscreteVelocity(times, fields), 0.1, 0.01)  # warm-up
        tracemalloc.start()
        try:
            traj = solve_transport(rho0, DiscreteVelocity(times, fields), 0.1, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(a.nbytes for a in (traj.flow_map.X, traj.flow_map.J, traj.I))
        assert peak <= 2.4 * stored

    def test_static_feet_leaving_the_grid_raise(self):
        # u = (1, 0) carries the x = 1 nodes out of the square: the first
        # RK4 midpoint stage, at x = 1 + dt / 2, is refused, not clamped
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
        times = np.linspace(0.0, 0.2, 5)
        east = np.stack([np.ones(g.shape), np.zeros(g.shape)])
        dv = DiscreteVelocity(times, [Field(g, east, t) for t in times])
        with pytest.raises(OutOfDomainError) as info:
            solve_transport(Field(g, np.ones(g.shape)), dv, 0.2, 0.05)
        assert np.array_equal(info.value.point, [1.025, 0.0])

    def test_moving_map_feet_match_analytic_transport(self):
        # u~ = V o X sampled per level along the map of an affine V: the
        # pull-back and interpolation are exact on it, so the feet and rho
        # reproduce transport by V itself; launched inside (0.3, 0.7)^2, the
        # RK4 stages stay in the image of the map
        A = np.array([[0.3, 0.4], [0.0, 0.3]])
        V = MotionField.expression(
            lambda t, p: p @ A.T, 2,
            grad_fn=lambda t, p: np.broadcast_to(A, p.shape + (2,)).copy())
        g = Grid((33, 33), (0.0, 0.0), (1.0, 1.0))
        T, dt = 0.1, 0.01
        fm = advect_flow_map(V, g, T, dt)
        fields = [Field(g, V.velocity(t, fm.positions(t)).T.reshape((2,) + g.shape), t)
                  for t in fm.times]
        dv = DiscreteVelocity(fm.times, fields, flow_map=fm)
        sub = Grid((17, 17), (0.3, 0.3), (0.7, 0.7))
        rho0 = Field.from_function(
            sub, lambda p: 1.0 + 0.5 * np.exp(-np.sum((p - 0.5) ** 2, axis=1) / 0.02))
        got = solve_transport(rho0, dv, T, dt)
        ref = solve_transport(rho0, V, T, dt)
        assert np.max(np.abs(got.flow_map.X - ref.flow_map.X)) <= 1e-13
        assert np.max(np.abs(got.density_field(T).values
                             - ref.density_field(T).values)) <= 1e-13
        m0 = mass_total(got, 0.0)
        assert abs(mass_total(got, T) - m0) <= 1e-10 * m0

    def test_transport_with_discrete_velocity(self):
        # discrete sampling of the dilation field reproduces the closed form
        g = thin_grid(129, 0.5, 1.5)
        alpha, T = 0.5, 0.2
        times = np.arange(0.0, T + 1e-12, 1e-2)
        fields = [x_field(g, lambda x: alpha * x, t=t, vector=True) for t in times]
        dv = DiscreteVelocity(times, fields)
        # static-grid sampling valid while the image stays in the extent:
        # e^{0.1} * 1.5 > 1.5, so shrink the launch region via a sub-grid
        sub = thin_grid(65, 0.6, 1.2)
        rho0s = x_field(sub, lambda x: 1.0 + 0.2 * np.cos(np.pi * x))
        traj = solve_transport(rho0s, dv, T, 2e-3)
        got = traj.density_field(T).values
        exact = rho0s.values * np.exp(-alpha * T)
        assert np.max(np.abs(got - exact)) < 2e-4


class TestNormMonitor:
    def test_h2_trend_under_time_halving(self):
        rho0 = x_field(thin_grid(65, 0.5, 1.5), rho_x)
        V = x_dilation(0.5)

        def linf_h2(T):
            traj = solve_transport(rho0, V, T, 1e-3)
            return max(sobolev_norm(traj.density_field(t), 2, 2)
                       for t in traj.times[::20])

        n_full, n_half = linf_h2(0.2), linf_h2(0.1)
        assert n_half <= n_full + 1e-12
