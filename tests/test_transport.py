import tracemalloc
import weakref

import numpy as np
import pytest

from nsmove import motion, transport
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
from nsmove.motion import MotionField, advect_flow_map
from nsmove.transport import (
    DiscreteVelocity,
    density_gradient,
    mass_total,
    solve_transport,
)
from xonly import thin_grid, x_dilation, x_field, x_points


def rho_x(x):
    return 1.0 + 0.5 * np.sin(2 * np.pi * x)


def bump(p):
    return 1.0 + 0.5 * np.exp(-np.sum((p - 0.5) ** 2, axis=1) / 0.02)


def sampled_at_images(u, fm, times=None):
    """Levels of u~(t, y) = u(t, X(t, y)) on the map's grid at ``times``
    (default: the map's)."""
    g = fm.grid
    return [Field(g, u.velocity(t, fm.positions(t)).T.reshape((2,) + g.shape), t)
            for t in (fm.times if times is None else times)]


def relative_velocity(fm, V, u_levels):
    """Levels of the ALE relative velocity w = gradY (u~ - V o X), one per
    level of u~: the static-grid velocity that transports q = det gradX rho~
    on the reference rectangle (dq/dt + div_y(q w) = 0)."""
    w = []
    for f in u_levels:
        frame = fm.frame(f.t)
        du = f.values.reshape(2, -1) - V.velocity(f.t, frame.X).T
        w.append(Field(fm.grid, np.einsum("jkp,kp->jp", frame.inv, du).reshape(2, *fm.grid.shape),
                       f.t))
    return w


def physical_feet_and_density(traj, fm, t):
    """The physical feet X(t, Z) and rho~ = q / det gradX(t, Z) of a
    transport of q by w, whose feet are Z."""
    M = interp_matrix(fm.grid, traj.flow_map.positions(t))
    return M @ fm.positions(t), traj.density_field(t).values.ravel() / (M @ fm.frame(t).det)


def _chain_motion():
    """chain_moving's V = A x, A = [[0.3, 0.4], [0, 0.3]], with its inverse
    map Y(t, x) = e^{-At} x and gradY = e^{-At}."""
    A = np.array([[0.3, 0.4], [0.0, 0.3]])
    V = MotionField.expression(lambda t, p: p @ A.T, 2,
                               grad_fn=lambda t, p: np.broadcast_to(A, p.shape + (2,)).copy())

    def Y(t, x):
        E = np.exp(-0.3 * t) * np.array([[1.0, -0.4 * t], [0.0, 1.0]])
        return x @ E.T, np.broadcast_to(E, x.shape + (2,))

    return V, Y


def _curved_motion():
    """V = (0.3 x1 + 0.8 x2^2, 0.3 x2): X2 = e^{0.3t} z2 and
    X1 = e^{0.3t} (z1 + 8/3 z2^2 (e^{0.3t} - 1)), so Y and gradY are closed
    form."""
    def grad(t, p):
        g = np.zeros(p.shape + (2,))
        g[:, 0, 0] = g[:, 1, 1] = 0.3
        g[:, 0, 1] = 1.6 * p[:, 1]
        return g

    V = MotionField.expression(
        lambda t, p: np.stack([0.3 * p[:, 0] + 0.8 * p[:, 1] ** 2, 0.3 * p[:, 1]], axis=1), 2,
        grad_fn=grad)

    def Y(t, x):
        e = np.exp(-0.3 * t)
        z2 = e * x[:, 1]
        gy = np.zeros(x.shape + (2,))
        gy[:, 0, 0] = gy[:, 1, 1] = e
        gy[:, 0, 1] = -16 / 3 * z2 * (1 - e)
        return np.stack([e * x[:, 0] - 8 / 3 * z2 ** 2 * (1 / e - 1), z2], axis=1), gy

    return V, Y


def _perturbed(V, Y):
    """u = V + env(z) p(z) at z = Y(t, x), with env = sin(pi z1) sin(pi z2)
    and p = (0.05 cos(pi z1 + 0.3), 0.04 cos(pi z2 + 1.1)): u = V on the
    moving boundary, and grad u = grad V + grad_z(env p) gradY."""
    def pert(z):
        s, c = np.sin(np.pi * z), np.cos(np.pi * z)
        env = s[:, 0] * s[:, 1]
        p = np.stack([0.05 * np.cos(np.pi * z[:, 0] + 0.3),
                      0.04 * np.cos(np.pi * z[:, 1] + 1.1)], axis=1)
        denv = np.pi * np.stack([c[:, 0] * s[:, 1], s[:, 0] * c[:, 1]], axis=1)
        dp = np.zeros(z.shape + (2,))
        dp[:, 0, 0] = -0.05 * np.pi * np.sin(np.pi * z[:, 0] + 0.3)
        dp[:, 1, 1] = -0.04 * np.pi * np.sin(np.pi * z[:, 1] + 1.1)
        return env[:, None] * p, p[:, :, None] * denv[:, None] + env[:, None, None] * dp

    def grad(t, x):
        z, gy = Y(t, x)
        return V.gradient(t, x) + pert(z)[1] @ gy

    return MotionField.expression(lambda t, x: V.velocity(t, x) + pert(Y(t, x)[0])[0], 2,
                                  grad_fn=grad)


class TestSolveTransport:
    def test_zero_velocity(self):
        rho0 = x_field(thin_grid(65), rho_x)
        traj = solve_transport(rho0, MotionField.zero(), 0.5, 0.05)
        assert np.allclose(traj.density_field(0.5).values, rho0.values)
        assert np.allclose(traj.flow_map.positions(0.5), rho0.grid.node_coords())

    @pytest.mark.parametrize("T, dt", [(0.1, 0.0), (-0.1, 0.01), (0.1, np.inf), (0.1, 1e12)])
    def test_bad_horizon_or_step_rejected(self, T, dt):
        # dt = inf made times [nan] with only a RuntimeWarning, and dt = 1e12
        # (T / dt = 1e-13 is within the integrality tolerance of 0 steps) a
        # solution at t = 0 alone
        with pytest.raises(InvalidArgumentError, match=f"T = {T}, dt = {dt}"):
            solve_transport(x_field(thin_grid(17), rho_x), MotionField.zero(), T, dt)

    def test_vector_density_rejected(self):
        # component 0 of a 2-component rho0 was transported without complaint
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(InvalidArgumentError, match="rho0 has 2 components"):
            solve_transport(Field(g, np.ones((2, 9, 9))), MotionField.zero(), 0.1, 0.05)

    @pytest.mark.parametrize("t", [0.05, 0.1])
    def test_density_at_the_node_images_is_the_density_field(self, t):
        # chain_moving's V at n = 33: transport by V has the flow map's feet,
        # so the pull-back of rho at the node images X(t, z) is read at the
        # feet and returns the density field and the nodes bit for bit
        V, _ = _chain_motion()
        g = Grid((33, 33), (0.0, 0.0), (1.0, 1.0))
        fm = advect_flow_map(V, g, 0.1, 0.01)
        traj = solve_transport(Field.from_function(g, bump), V, 0.1, 0.01)
        rho, z = traj.eval_physical(t, fm.positions(t))
        assert np.array_equal(rho, traj.density_field(t).values.ravel())
        assert np.array_equal(z, g.node_coords())

    def test_constant_velocity_divergence_free(self):
        rho0 = x_field(thin_grid(65), rho_x)
        c = np.array([0.3, 0.0])
        traj = solve_transport(rho0, MotionField.translation(c), 0.5, 0.01)
        # density constant along characteristics
        assert np.allclose(traj.density_field(0.5).values, rho0.values, atol=1e-13)
        # rho(t, x) = rho0(x - c t) at interior physical points, the density
        # field read at the closed-form inverse Y(t, x) = x - c t
        x = x_points(np.linspace(0.2, 1.1, 9))
        vals = interpolate(traj.density_field(0.5), x - 0.5 * c)
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
        # the error named neither the time nor the node
        bad = x_field(thin_grid(9), lambda x: 1.1 * x - 0.1)
        with pytest.raises(PositivityViolationError, match=r"-1\.000e-01 .* at t=0, z=") as err:
            solve_transport(bad, MotionField.zero(), 0.1, 0.01)
        assert err.value.t == 0.0
        assert np.array_equal(err.value.z, [0.0, 0.0])

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

        def rho_at(s):
            """rho(s, x): the density field at the closed-form inverse
            Y(s, x) = (x e^{-alpha s}, y), and Y(s, x)."""
            z = x * [np.exp(-alpha * s), 1.0]
            return interpolate(traj.density_field(s), z), z

        drho_dt = (rho_at(t + dt)[0] - rho_at(t - dt)[0]) / (2 * dt)
        vals, z = rho_at(t)
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

    def test_stage_bit_identical_to_six_column_product(self):
        # the zero 7th column of the level data changes no bit of u or grad u:
        # a stage equals the product with the 6-column u | grad u data
        times = np.array([0.0, 0.1, 0.2])
        g, fields = self._static_2d(times)
        L6 = [np.concatenate([f.values.reshape(2, -1).T, gradient_values(f).reshape(4, -1).T],
                             axis=1) for f in fields]
        pts = np.random.default_rng(8).uniform(0.1, 0.9, size=(200, 2))
        built = []
        for t in (0.1, 0.137):
            dv = DiscreteVelocity(times, fields)
            dv._level_data = lambda m, build=dv._level_data: built.append(build(m)) or built[-1]
            want = interp_matrix(g, pts) @ blend_levels(L6, times, t)
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
        # u~ = V o X sampled per level along the map of an affine V: w = 0,
        # so the feet Z stay at the nodes, and the physical feet X(t, Z) and
        # rho~ = q / det gradX(t, Z) reproduce transport by V itself from
        # every node, the faces' included
        V, _ = _chain_motion()
        g = Grid((33, 33), (0.0, 0.0), (1.0, 1.0))
        T, dt = 0.1, 0.01
        fm = advect_flow_map(V, g, T, dt)
        rho0 = Field.from_function(g, bump)
        dv = DiscreteVelocity(fm.times, relative_velocity(fm, V, sampled_at_images(V, fm)))
        got = solve_transport(rho0, dv, T, dt)
        ref = solve_transport(rho0, V, T, dt)
        for m, t in enumerate(fm.times):
            x, rho = physical_feet_and_density(got, fm, t)
            assert np.max(np.abs(x - ref.flow_map.X[m])) <= 1e-13
            assert np.max(np.abs(rho - ref.density_field(t).values.ravel())) <= 1e-13
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


class TestReferenceFrameTransport:
    """A velocity on the moving domain is transported as static-grid
    transport of q = det gradX rho~ by the levels of w = gradY (u~ - V o X),
    launched from every node: no inversion, and the feet stay in the
    rectangle because u.n = V.n on the moving boundary."""

    @staticmethod
    def _dilation_at_images(n):
        # ROADMAP item 2's reproducer: u~ = V o X of the dilation 0.3, which
        # DiscreteVelocity(..., flow_map=fm) could not transport: a stage
        # point 2.2e-9 outside the image at t = 0.01 stalled Newton
        V = MotionField.dilation(0.3)
        fm = advect_flow_map(V, Grid((n, n), (0.0, 0.0), (1.0, 1.0)), 0.1, 0.01)
        rho0 = Field.from_function(fm.grid, bump)
        return fm, rho0, DiscreteVelocity(fm.times, relative_velocity(fm, V, sampled_at_images(V, fm)))

    @pytest.mark.parametrize("n", [17, 33])
    def test_velocity_of_the_map_keeps_the_feet_at_the_nodes(self, n):
        # w = 0 exactly: Z is the nodes, I = 0, the physical feet are the
        # node images and rho~ = rho0 / det gradX, bit for bit
        fm, rho0, dv = self._dilation_at_images(n)
        traj = solve_transport(rho0, dv, 0.1, 0.01)
        nodes = fm.grid.node_coords()
        assert all(np.array_equal(X, nodes) for X in traj.flow_map.X)
        assert not np.any(traj.I)
        for t in fm.times:
            x, rho = physical_feet_and_density(traj, fm, t)
            assert np.array_equal(x, fm.positions(t))
            assert np.array_equal(rho, rho0.values.ravel() / fm.frame(t).det)

    def test_no_inversion(self, monkeypatch):
        # w already carries gradY, so the transport of q by w on the static
        # grid inverts nothing: no point, and not gradX node by node
        fm, rho0, dv = self._dilation_at_images(17)
        calls = []
        inverse = motion._mat_inv
        monkeypatch.setattr(motion, "_mat_inv", lambda J: calls.append(J.shape) or inverse(J))
        traj = solve_transport(rho0, dv, 0.1, 0.01)
        traj.density_field(0.1)
        assert calls == []

    @pytest.mark.parametrize("motion, T, map_steps", [(_chain_motion, 0.1, 1),
                                                       (_curved_motion, 0.2, 4)],
                             ids=["chain", "curved"])
    def test_matches_analytic_transport_at_second_order(self, motion, T, map_steps):
        # u = V + env(Y) p(Y) sampled at the node images every dt, against
        # solve_transport of the analytic u from the same nodes. Measured max
        # feet error 3.6e-7 / 8.5e-8 / 2.5e-8 (chain) and 1.3e-6 / 2.7e-7 /
        # 6.3e-8 (curved), rho error at order 1.98-2.00, mass drift <= 1.2e-14
        V, Y = motion()
        u = _perturbed(V, Y)
        dt = 0.01
        times = dt * np.arange(int(round(T / dt)) + 1)
        errs = {}
        for n in (17, 33, 65):
            g = Grid((n, n), (0.0, 0.0), (1.0, 1.0))
            fm = advect_flow_map(V, g, T, dt / map_steps)
            rho0 = Field.from_function(g, bump)
            dv = DiscreteVelocity(times, relative_velocity(fm, V, sampled_at_images(u, fm, times)))
            got = solve_transport(rho0, dv, T, dt)
            ref = solve_transport(rho0, u, T, dt)
            for m, t in enumerate(times):
                x, rho = physical_feet_and_density(got, fm, t)
                assert np.max(np.abs(x - ref.flow_map.X[m])) <= 2e-6
            errs[n] = np.max(np.abs(rho - ref.density_field(T).values.ravel()))
            m0 = mass_total(got, 0.0)
            assert abs(mass_total(got, T) - m0) <= 1e-10 * m0
        assert errs[65] <= 2e-4
        assert np.log2(errs[33] / errs[65]) >= 1.8
