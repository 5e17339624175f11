import tracemalloc

import numpy as np
import pytest

from nsmove import motion, transport
from nsmove.energy import PressureLaw, energy_inequality_residual
from nsmove.errors import DegenerateMapError, InvalidArgumentError
from nsmove.extension import extend_boundary_data
from nsmove.fields import Field, Grid, differentiate, interp_matrix
from nsmove.lagrangian import (
    lagrangian_remainder,
    pull_back_state,
    transformed_boundary_data,
)
from nsmove.momentum import FluidParams
from nsmove.motion import (
    FlowMap,
    MotionField,
    advect_flow_map,
)
from nsmove.trajectory import StateTrajectory
from nsmove.transport import (
    DensityTrajectory,
    DiscreteVelocity,
    mass_total,
    solve_transport,
)
from fixed_domain import fixed_map
from xonly import thin_grid, x_dilation, x_motion


def _packed_rhs(V, t, **parts):
    """``motion._rhs`` on node-major parts, packed as the RK4 integrator packs
    them; returns each part's derivative node-major."""
    N, d = parts["X"].shape
    y, rows = motion._pack(parts)
    out = np.empty_like(y)
    motion._rhs(V, t, y, out, rows, np.empty((d ** 3, N)))
    return {part: out[s].T.reshape(parts[part].shape) for part, s in rows.items()}


def grid2d(n=9):
    return Grid((n, n), (0.0, 0.0), (1.0, 1.0))


def _nonlinear_2d():
    """V = (0.2 sin(pi x)(1 + y), 0.1 y^2 + 0.1 x y) with analytic derivatives."""
    def vel(t, p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([0.2 * np.sin(np.pi * x) * (1 + y),
                         0.1 * y ** 2 + 0.1 * x * y], axis=-1)

    def grad(t, p):
        x, y = p[..., 0], p[..., 1]
        g = np.zeros(p.shape + (2,))
        g[..., 0, 0] = 0.2 * np.pi * np.cos(np.pi * x) * (1 + y)
        g[..., 0, 1] = 0.2 * np.sin(np.pi * x)
        g[..., 1, 0] = 0.1 * y
        g[..., 1, 1] = 0.2 * y + 0.1 * x
        return g

    def grad2(t, p):
        x, y = p[..., 0], p[..., 1]
        g2 = np.zeros(p.shape + (2, 2))
        g2[..., 0, 0, 0] = -0.2 * np.pi ** 2 * np.sin(np.pi * x) * (1 + y)
        g2[..., 0, 0, 1] = g2[..., 0, 1, 0] = 0.2 * np.pi * np.cos(np.pi * x)
        g2[..., 1, 0, 1] = g2[..., 1, 1, 0] = 0.1
        g2[..., 1, 1, 1] = 0.2
        return g2

    return MotionField.expression(vel, 2, grad_fn=grad, grad2_fn=grad2)


class TestAdvect:
    def test_zero_motion(self):
        g = grid2d()
        fm = advect_flow_map(MotionField.zero(), g, 0.5, 0.05, with_hessian=True)
        nodes = g.node_coords()
        assert np.allclose(fm.positions(0.5), nodes)
        assert np.allclose(fm.jacobians(0.5), np.eye(2))
        assert np.allclose(fm.hessians(0.5), 0.0)

    def test_translation_exact(self):
        g = grid2d()
        c = np.array([0.3, -0.1])
        fm = advect_flow_map(MotionField.translation(c), g, 1.0, 0.1)
        nodes = g.node_coords()
        assert np.allclose(fm.positions(1.0), nodes + c, atol=1e-14)
        assert np.allclose(fm.jacobians(1.0), np.eye(2), atol=1e-14)

    def test_dilation_closed_form(self):
        # dX/dt = alpha X has the exponential as its closed-form oracle
        g = thin_grid(5, 0.5, 1.5)
        fm = advect_flow_map(x_dilation(0.5), g, 1.0, 1e-3)
        pos = fm.positions(1.0)[:, 0]
        exact = g.node_coords()[:, 0] * np.exp(0.5)
        assert np.max(np.abs(pos - exact)) <= 1e-8

    def test_initial_identity(self):
        g = grid2d()
        fm = advect_flow_map(MotionField.shear(0.4), g, 0.2, 0.02)
        assert np.array_equal(fm.positions(0.0), g.node_coords())

    def test_single_level_map(self):
        # T = 0 stores one level; querying it must not divide 0 by 0
        g = grid2d()
        fm = advect_flow_map(MotionField.shear(0.4), g, 0.0, 0.02)
        assert np.array_equal(fm.times, [0.0])
        assert np.array_equal(fm.positions(0.0), g.node_coords())
        assert np.array_equal(fm.jacobians(0.0), np.broadcast_to(np.eye(2), (81, 2, 2)))

    def test_nonintegral_steps_rejected(self):
        g = grid2d()
        with pytest.raises(InvalidArgumentError):
            advect_flow_map(MotionField.zero(), g, 1.0, 0.3)

    @pytest.mark.parametrize("T, dt", [(0.1, 0.0), (0.1, -0.01), (-0.1, 0.01),
                                       (np.inf, 0.01), (np.nan, 0.01), (0.1, np.inf),
                                       (0.1, 1e12)])
    def test_bad_horizon_or_step_rejected(self, T, dt):
        # checked before T / dt is taken, which dt = 0 would make a
        # ZeroDivisionError and T = inf an OverflowError in round(); dt = inf
        # made a map at times [nan], and dt = 1e12 (T / dt = 1e-13 is within
        # the integrality tolerance of 0 steps) one at t = 0 alone
        with pytest.raises(InvalidArgumentError, match=f"T = {T}, dt = {dt}"):
            advect_flow_map(MotionField.zero(), grid2d(), T, dt)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_motion_field_is_2d(self, dim):
        # refused where it is made, not as a numpy shape error in the first
        # RK4 stage of a flow map or transport
        with pytest.raises(InvalidArgumentError, match=f"got dim = {dim}"):
            MotionField(dim, lambda t, p: p)
        with pytest.raises(InvalidArgumentError, match=f"got dim = {dim}"):
            MotionField.expression(lambda t, p: p, dim)
        with pytest.raises(InvalidArgumentError, match=f"got dim = {dim}"):
            MotionField.translation(np.ones(dim))

    def test_missing_derivative_is_refused_not_estimated(self):
        # the motion is prescribed, so each derivative a layer reads is data:
        # one that was not supplied names its keyword, never a FD guess
        A = np.array([[0.3, 0.4], [0.0, 0.3]])
        vel = lambda t, p: p @ A.T
        grad = lambda t, p: np.broadcast_to(A, p.shape + (2,)).copy()
        g = grid2d()
        with pytest.raises(InvalidArgumentError, match="without grad_fn"):
            advect_flow_map(MotionField.expression(vel, 2), g, 0.1, 0.05)
        V = MotionField.expression(vel, 2, grad_fn=grad)
        with pytest.raises(InvalidArgumentError, match="without grad2_fn"):
            advect_flow_map(V, g, 0.1, 0.05, with_hessian=True)
        fm = advect_flow_map(V, g, 0.1, 0.05)
        traj = StateTrajectory(
            fm.times, [Field(g, np.ones(g.shape), t) for t in fm.times],
            [Field.from_function(g, lambda x, t=t: vel(t, x), t=t, ncomp=2) for t in fm.times],
            flow_map=fm)
        with pytest.raises(InvalidArgumentError, match="without dt_fn"):
            energy_inequality_residual(traj, V, PressureLaw(gamma=1.4),
                                       FluidParams(mu=0.3, eta=0.1, kappa=0.5, bc="slip"))


def _transported(V, g, T, dt):
    """The transport of rho0 = 1 + x y / 2 by V on g up to T."""
    rho0 = Field.from_function(g, lambda p: 1.0 + 0.5 * p[:, 0] * p[:, 1])
    return solve_transport(rho0, V, T, dt)


class TestInvert:
    """Y(t, .) is kept where the transformed equations read it: at the feet,
    where the pull-back takes x = X(t, z) back to the nodes z, and node by
    node as gradY = (gradX)^-1. Any other x is refused naming t."""

    def test_identity(self):
        g = grid2d()
        traj = _transported(MotionField.zero(), g, 0.5, 0.05)
        nodes = g.node_coords()
        rho, z = traj.eval_physical(0.5, nodes)
        assert np.array_equal(z, nodes)
        assert np.array_equal(rho, traj.rho0.values.ravel())
        assert np.array_equal(traj.flow_map.frame(0.5).inv,
                              np.broadcast_to(np.eye(2)[..., None], (2, 2, g.num_nodes)))

    def test_translation(self):
        g = grid2d(17)
        c = np.array([0.2, 0.1])
        traj = _transported(MotionField.translation(c), g, 0.5, 0.05)
        nodes = g.node_coords()
        # Y(t, x) = x - c t takes the feet to the nodes, and the feet
        # z + c t in closed form are read as the feet
        assert np.max(np.abs(traj.flow_map.positions(0.5) - 0.5 * c - nodes)) < 1e-9
        rho, z = traj.eval_physical(0.5, nodes + 0.5 * c)
        assert np.array_equal(z, nodes)
        assert np.array_equal(rho, traj.density_field(0.5).values.ravel())

    def test_stall_reports_time_and_point(self):
        # (5, 5) lies outside the image of the unit square; in place of the
        # corner z = (1, 1), whose image is (1.1, 1.05), it is 3.95 off
        g = grid2d(17)
        traj = _transported(MotionField.translation([0.2, 0.1]), g, 0.5, 0.05)
        x = traj.flow_map.positions(0.5).copy()
        x[np.argmax(g.node_coords().sum(axis=1))] = 5.0
        with pytest.raises(InvalidArgumentError,
                           match=r"at t=0\.5, x of shape \(289, 2\) is 3\.950e\+00 from"):
            traj.eval_physical(0.5, x)

    def test_dilation_round_trip(self):
        g = thin_grid(33, 0.25, 1.25)
        alpha = 0.4
        traj = _transported(x_dilation(alpha), g, 0.5, 1e-2)
        nodes, shrink = g.node_coords(), np.array([np.exp(-alpha * 0.5), 1.0])
        # Y(t, x) = (x e^{-alpha t}, y) takes the feet to the nodes, and
        # X(t, z) = (z e^{alpha t}, y) of the nodes is read back as them
        assert np.max(np.abs(traj.flow_map.positions(0.5) * shrink - nodes)) < 1e-9
        _, z = traj.eval_physical(0.5, nodes / shrink)
        assert np.array_equal(z, nodes)
        inv = traj.flow_map.frame(0.5).inv
        assert np.max(np.abs(inv - np.diag(shrink)[..., None])) < 1e-9

    def test_round_trip_nonlinear(self):
        # feet moved by less than 1e-10 are read back as the nodes; one
        # coordinate moved by 2e-10 more is not
        g = grid2d(65)
        traj = _transported(_nonlinear_2d(), g, 0.2, 0.01)
        feet = traj.flow_map.positions(0.2)
        x = feet + np.random.default_rng(3).uniform(-0.9e-10, 0.9e-10, feet.shape)
        rho, z = traj.eval_physical(0.2, x)
        assert np.array_equal(z, g.node_coords())
        assert np.array_equal(rho, traj.density_field(0.2).values.ravel())
        x[500, 1] += 2e-10
        with pytest.raises(InvalidArgumentError, match=r"at t=0\.2, x of shape \(4225, 2\)"):
            traj.eval_physical(0.2, x)

    def test_node_images_return_nodes(self):
        # the node images of the map advected on its own are the feet of the
        # transport by the same V, bit for bit
        g = grid2d(65)
        fm = advect_flow_map(_nonlinear_2d(), g, 0.2, 0.01)
        traj = _transported(_nonlinear_2d(), g, 0.2, 0.01)
        rho, z = traj.eval_physical(0.2, fm.positions(0.2))
        assert np.array_equal(z, g.node_coords())
        assert np.array_equal(rho, traj.density_field(0.2).values.ravel())

    def test_invert_peak_allocation(self):
        # reading the feet compares them once, with no per-point work
        g = grid2d(65)
        traj = _transported(_nonlinear_2d(), g, 0.2, 0.01)
        x = traj.flow_map.positions(0.2).copy()
        traj.eval_physical(0.2, x)  # warm-up
        tracemalloc.start()
        try:
            traj.eval_physical(0.2, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_wrong_shape_rejected(self):
        traj = _transported(MotionField.shear(0.4), grid2d(), 0.5, 0.05)
        with pytest.raises(InvalidArgumentError,
                           match=r"t=0\.5, x of shape \(1, 3\) is nan from X\(t, z\) of "
                                 r"shape \(81, 2\)"):
            traj.eval_physical(0.5, np.zeros((1, 3)))

    def test_non_finite_point_rejected(self):
        traj = _transported(MotionField.shear(0.4), grid2d(), 0.5, 0.05)
        x = traj.flow_map.positions(0.5).copy()
        x[7, 1] = np.nan
        with pytest.raises(InvalidArgumentError, match=r"t=0\.5, x of shape \(81, 2\) is nan"):
            traj.eval_physical(0.5, x)

    def test_no_points(self):
        # no points are not the feet: refused as any other shape
        traj = _transported(MotionField.shear(0.4), grid2d(), 0.5, 0.05)
        with pytest.raises(InvalidArgumentError, match=r"t=0\.5, x of shape \(0, 2\) is nan"):
            traj.eval_physical(0.5, np.zeros((0, 2)))


def _chain_motion():
    """The motion of the moving-domain benchmark chain: V = (0.3 x + 0.4 y, 0.3 y)."""
    A = np.array([[0.3, 0.4], [0.0, 0.3]])
    return MotionField.expression(
        lambda t, p: p @ A.T, 2,
        grad_fn=lambda t, p: np.broadcast_to(A, p.shape + (2,)).copy())


_SEED_MAPS = {
    "nonlinear-65": lambda: (_transported(_nonlinear_2d(), grid2d(65), 0.2, 0.01), 0.2),
    "chain-129": lambda: (_transported(_chain_motion(), grid2d(129), 0.1, 0.01), 0.1),
    "dilation-1d": lambda: (_transported(x_dilation(0.4), thin_grid(33, 0.25, 1.25),
                                         0.5, 1e-2), 0.5),
    "shear-33": lambda: (_transported(MotionField.shear(2.0), grid2d(33), 1.0, 0.1), 1.0),
}


class TestNearestNode:
    @pytest.mark.parametrize("name", sorted(_SEED_MAPS))
    def test_matches_kd_tree(self, name):
        # the feet are read in node order: the k-d tree's nearest foot of
        # each foot is its own node, and the next is far beyond the 1e-10
        # within which x is read as the feet, so the nodes returned are the
        # k-d tree's. Feet in another order, an image point between the
        # feet and a point outside the image are refused
        from scipy.spatial import cKDTree

        traj, t = _SEED_MAPS[name]()
        g, feet = traj.grid, traj.flow_map.positions(t)
        tree = cKDTree(feet)
        dist, near = tree.query(feet, k=2)
        assert np.array_equal(near[:, 0], np.arange(g.num_nodes))
        assert np.min(dist[:, 1]) > 1e-6
        _, z = traj.eval_physical(t, feet)
        assert np.array_equal(z, g.node_coords()[near[:, 0]])
        swapped = feet.copy()
        swapped[[0, near[0, 1]]] = feet[[near[0, 1], 0]]
        between = interp_matrix(g, np.random.default_rng(5).uniform(g.lo, g.hi, (1, g.dim))) @ feet
        inside = feet.copy()
        inside[tree.query(between)[1]] = between
        outside = feet.copy()
        outside[0] = 5.0
        for x in (swapped, inside, outside):
            with pytest.raises(InvalidArgumentError, match=f"at t={t}, "):
                traj.eval_physical(t, x)

    def test_node_images_take_no_newton_step(self, monkeypatch):
        # the benchmark's pull-back reads rho at every node image of the
        # chain map: the nodes come back bit for bit, with no interpolation
        # and no inverse of gradX
        traj, t = _SEED_MAPS["chain-129"]()
        fm = advect_flow_map(_chain_motion(), traj.grid, t, 0.01)
        calls = _count_calls(monkeypatch, transport, ("interp_matrix",))
        calls.update(_count_calls(monkeypatch, motion, ("_mat_inv",)))
        rho, z = traj.eval_physical(t, fm.positions(t))
        assert calls == {"interp_matrix": 0, "_mat_inv": 0}
        assert np.array_equal(z, traj.grid.node_coords())
        assert np.array_equal(rho, traj.density_field(t).values.ravel())


class TestJacobians:
    def test_zero_gap(self):
        # the V = 0 map is the fixed domain exactly: the nodes, identity
        # Jacobians and the reference face normals and tangents, so every
        # layer on it reads what a fixed grid would give, bit for bit
        for g in (grid2d(), Grid((33, 21), (0.0, -0.5), (1.5, 0.5))):
            fm = fixed_map(g, 0.05 * np.arange(7))
            for t in fm.times:
                fr = fm.frame(t)
                assert np.array_equal(fr.X, g.node_coords())
                for J in (fr.J, fr.inv):
                    assert np.array_equal(J, np.broadcast_to(np.eye(2)[..., None], J.shape))
                assert np.array_equal(fr.det, np.ones(g.num_nodes))
                for face in g.faces().values():
                    flat, n, tau = fr.faces[face.name]
                    assert np.array_equal(flat, face.flat)
                    assert np.array_equal(n, np.broadcast_to(face.normal, n.shape))
                    assert np.array_equal(tau, np.broadcast_to(face.tangent, tau.shape))

    def test_dilation_1d(self):
        g = thin_grid(17)
        alpha, t = 0.3, 0.5
        fm = advect_flow_map(x_dilation(alpha), g, t, 1e-3)
        fr = fm.frame(t)
        gx, gy, gap = fr.J, fr.inv, np.max(np.abs(fr.inv - np.eye(2)[..., None]))
        assert np.allclose(gx[0, 0], np.exp(alpha * t), atol=1e-9)
        assert np.allclose(gy[0, 0], np.exp(-alpha * t), atol=1e-9)
        assert abs(gap - abs(np.exp(-alpha * t) - 1)) < 1e-9

    def test_linear_motion_zero_hessian(self):
        g = grid2d()
        fm = advect_flow_map(MotionField.shear(0.5), g, 0.4, 0.02, with_hessian=True)
        assert np.max(np.abs(fm.hessians(0.4))) <= 1e-10

    def test_quadratic_1d_closed_form(self):
        # dX/dt = a X^2: X = z / s, gradX = s^-2, grad2X = 2 a T s^-3, s = 1 - a T z
        a, T = 0.5, 0.2
        g = thin_grid(17)
        V = x_motion(lambda x: a * x ** 2, lambda x: 2 * a * x, lambda x: np.full_like(x, 2 * a))
        fm = advect_flow_map(V, g, T, 0.01, with_hessian=True)
        z = g.node_coords()[:, 0]
        s = 1 - a * T * z
        assert np.max(np.abs(fm.positions(T)[:, 0] - z / s)) <= 1e-8
        assert np.max(np.abs(fm.jacobians(T)[:, 0, 0] - s ** -2)) <= 1e-8
        assert np.max(np.abs(fm.hessians(T)[:, 0, 0, 0] - 2 * a * T * s ** -3)) <= 1e-8

    def test_hessian_matches_fd_of_jacobians(self):
        # grad2X from the Hessian ODE vs differentiate() of gradX: O(h^2)
        T = 0.2
        errs = {}
        for n in (33, 65):
            g = grid2d(n)
            fm = advect_flow_map(_nonlinear_2d(), g, T, 0.01, with_hessian=True)
            H = fm.hessians(T)
            jac = fm.jacobians(T).reshape(-1, 4).T.reshape((4,) + tuple(g.shape))
            err = 0.0
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        fd = differentiate(Field(g, jac[2 * i + j]), k, 1)
                        err = max(err, np.max(np.abs(fd.values[0].ravel() - H[:, i, j, k])))
            assert np.max(np.abs(H - H.transpose(0, 1, 3, 2))) <= 1e-14
            errs[n] = err
        assert errs[65] <= 1e-3
        assert errs[33] / errs[65] >= 3.5

    def test_rhs_matches_einsum_reference(self):
        # the written-out contractions against the generic einsum forms;
        # only the summation order differs
        rng = np.random.default_rng(7)
        N, d = 50, 2
        g = rng.standard_normal((N, d, d))
        g2 = rng.standard_normal((N, d, d, d))
        V = MotionField.expression(lambda t, p: p, d, grad_fn=lambda t, p: g,
                                   grad2_fn=lambda t, p: g2)
        J = rng.standard_normal((N, d, d))
        H = rng.standard_normal((N, d, d, d))
        k = _packed_rhs(V, 0.0, X=rng.standard_normal((N, d)), J=J, H=H,
                        I=np.zeros(N))
        assert np.max(np.abs(k["J"] - np.einsum("...ip,...pj->...ij", g, J))) <= 1e-12
        H_ref = (np.einsum("...ipq,...pj,...qk->...ijk", g2, J, J)
                 + np.einsum("...ip,...pjk->...ijk", g, H))
        assert np.max(np.abs(k["H"] - H_ref)) <= 1e-12
        assert np.max(np.abs(k["I"] - np.einsum("...ii->...", g))) <= 1e-12

    def test_jacobian_matches_fd_of_trajectories(self):
        # gradX from the Jacobian ODE vs differentiate() of the node positions
        g = Grid((33, 33), (0.0, 0.0), (1.0, 1.0))

        def grad(t, p):
            out = np.zeros(p.shape + (2,))
            out[:, 0, 0] = 0.2 * np.pi * np.cos(np.pi * p[:, 0])
            out[:, 1, 1] = 0.2 * p[:, 1]
            return out

        V = MotionField.expression(
            lambda t, p: np.stack([0.2 * np.sin(np.pi * p[:, 0]),
                                   0.1 * p[:, 1] ** 2], axis=-1), 2, grad_fn=grad)
        fm = advect_flow_map(V, g, 0.2, 0.01)
        pos = fm.positions(0.2).T.reshape((2,) + tuple(g.shape))
        ode = fm.jacobians(0.2)  # (N, 2, 2)
        err = 0.0
        for i in range(2):
            for j in range(2):
                fd = differentiate(Field(g, pos[i]), j, 1).values[0].ravel()
                err = max(err, np.max(np.abs(fd - ode[:, i, j])))
        assert err < 5e-3  # O(h^2) with h = 1/32

    def test_gap_growth_trend(self):
        g = grid2d(9)
        V = MotionField.shear(0.8)
        gaps = []
        for T in (0.05, 0.1, 0.2):
            fm = advect_flow_map(V, g, T, 0.005)
            gaps.append(np.max(np.abs(fm.frame(T).inv - np.eye(2)[..., None])))
        assert gaps[0] <= gaps[1] <= gaps[2]
        # sup-norm gap bounded by C sqrt(t) ||V|| trend
        assert all(gap <= 2.0 * np.sqrt(T) * 0.8
                   for gap, T in zip(gaps, (0.05, 0.1, 0.2)))


class TestBoundaryFrame:
    def test_identity_frames(self):
        g = grid2d()
        fm = advect_flow_map(MotionField.zero(), g, 0.2, 0.02)
        frames = fm.frame(0.2).faces
        _, n, tau = frames["y0"]
        assert np.allclose(n, [0.0, -1.0])
        assert np.allclose(tau, [1.0, 0.0])
        _, n1, tau1 = frames["x1"]
        assert np.allclose(n1, [1.0, 0.0])
        assert np.allclose(tau1, [0.0, 1.0])

    def test_orthonormal(self):
        g = grid2d()
        fm = advect_flow_map(MotionField.shear(0.6), g, 0.3, 0.01)
        for _, n, tau in fm.frame(0.3).faces.values():
            assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1)) < 1e-12
            assert np.max(np.abs(np.einsum("pi,pi->p", n, tau))) < 1e-12

    def test_dilation_preserves_normals(self):
        g = grid2d()
        fm = advect_flow_map(MotionField.dilation(0.4), g, 0.3, 0.01)
        ref = advect_flow_map(MotionField.zero(), g, 0.3, 0.01).frame(0.3).faces
        cur = fm.frame(0.3).faces
        for face in cur:
            assert np.allclose(cur[face][1], ref[face][1], atol=1e-12)


def _folded_levels(g, k):
    """Two levels at t = 0, 1 with X = z; gradX = I except det gradX(1) = -1
    at node k."""
    N = g.num_nodes
    X = np.stack([g.node_coords()] * 2)
    J = np.broadcast_to(np.eye(2), (2, N, 2, 2)).copy()
    J[1, k] = np.diag([-1.0, 1.0])
    return X, J


class _FoldAtDt:
    """v = 0, with grad v = diag(-100, 0) only at t = DT: the k4 stage of
    step 0 gives det gradX(DT) = 1 - 100 DT / 6 < 0 at every node."""

    DT = 0.1

    def velocity_and_gradient(self, t, pts):
        g = np.zeros((len(pts), 2, 2))
        if t == self.DT:
            g[:, 0, 0] = -100.0
        return np.zeros_like(pts), g


class TestOneIntegrator:
    @pytest.mark.parametrize("with_hessian", [False, True])
    def test_transport_feet_are_the_flow_map(self, with_hessian):
        # one RK4 integrator: the feet and gradX transport stores are the
        # flow map's, bit for bit, whatever else rides in the packed state
        g, V = grid2d(17), _nonlinear_2d()
        fm = advect_flow_map(V, g, 0.2, 0.02, with_hessian=with_hessian)
        traj = solve_transport(Field(g, np.ones(g.shape)), V, 0.2, 0.02)
        assert np.array_equal(fm.times, traj.times)
        assert np.array_equal(fm.X, traj.flow_map.X)
        assert np.array_equal(fm.J, traj.flow_map.J)
        for store in (traj.flow_map.X, traj.flow_map.J, traj.I):
            assert not store.flags.writeable

    @pytest.mark.parametrize("run", ["advect", "transport"])
    def test_folding_feet_abort_at_their_level(self, run):
        # transport checked no det: folded feet surfaced at the first frame,
        # or never (density_field builds none)
        g, dt = grid2d(5), _FoldAtDt.DT
        with pytest.raises(DegenerateMapError) as err:
            if run == "advect":
                advect_flow_map(_FoldAtDt(), g, 2 * dt, dt)
            else:
                solve_transport(Field(g, np.ones(g.shape)), _FoldAtDt(), 2 * dt, dt)
        assert err.value.t == dt
        assert np.any(np.all(g.node_coords() == err.value.z, axis=1))


def _nan_beyond(x0, part):
    """V = 0.1 x, with ``part`` ("velocity" or "gradient") NaN where x > x0."""
    def masked(key, values):
        def fn(t, p):
            v = values(p)
            if key == part:
                v[p[:, 0] > x0] = np.nan
            return v
        return fn

    return MotionField.expression(
        masked("velocity", lambda p: 0.1 * p), 2,
        grad_fn=masked("gradient", lambda p: np.broadcast_to(0.1 * np.eye(2),
                                                              p.shape + (2,)).copy()))


class TestNonFinite:
    """NaN data stop the integrator at the first level they reach, naming
    the launch node, instead of passing into X, gradX or det gradX."""

    @pytest.mark.parametrize("part", ["velocity", "gradient"])
    @pytest.mark.parametrize("run", ["advect", "transport"])
    def test_nan_source_raises(self, part, run):
        g, V = grid2d(), _nan_beyond(0.9, part)
        with pytest.raises(InvalidArgumentError, match=r"t=0\.05 from node \[1\. 0\.\]"):
            if run == "advect":
                advect_flow_map(V, g, 0.1, 0.05)
            else:
                solve_transport(Field(g, np.ones(g.shape)), V, 0.1, 0.05)

    def test_frame_refuses_nan_jacobian(self):
        g, k = grid2d(5), 7
        X, J = _folded_levels(g, k)
        J[1, k] = np.nan
        fm = FlowMap(g, [0.0, 1.0], X, J)
        with pytest.raises(DegenerateMapError) as err:
            fm.frame(1.0)
        assert err.value.t == 1.0
        assert np.array_equal(err.value.z, g.node_coords()[k])


class TestFrame:
    def test_degenerate_map_raises_with_time_and_node(self):
        g, k = grid2d(5), 7
        fm = FlowMap(g, [0.0, 1.0], *_folded_levels(g, k))
        fm.frame(0.0)
        with pytest.raises(DegenerateMapError) as err:
            fm.frame(1.0)
        assert err.value.t == 1.0
        assert np.array_equal(err.value.z, g.node_coords()[k])

    def test_mass_total_rejects_folded_jacobian(self):
        g = grid2d(5)
        N = g.num_nodes
        traj = DensityTrajectory(Field(g, np.ones(g.shape)), [0.0, 1.0],
                                 *_folded_levels(g, 7), np.zeros((2, N)))
        assert mass_total(traj, 0.0) == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(DegenerateMapError):
            mass_total(traj, 1.0)

    def test_arrays_are_read_only(self):
        fm = advect_flow_map(MotionField.shear(0.5), grid2d(), 0.2, 0.02)
        fr = fm.frame(0.2)
        for a in (fr.X, fr.J, fr.inv, fr.det, *fr.faces["y1"]):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_stored_levels_are_read_only(self):
        g = grid2d()
        fm = advect_flow_map(_nonlinear_2d(), g, 0.1, 0.01, with_hessian=True)
        traj = solve_transport(Field(g, np.ones(g.shape)), _nonlinear_2d(), 0.1, 0.01)
        t = fm.times  # queries at a stored level, the last one included, return views
        for a in (fm.positions(t[1]), fm.jacobians(t[5]), fm.hessians(t[0]),
                  fm.positions(t[-1]), fm.jacobians(t[-1]), fm.hessians(t[-1]),
                  traj.I):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_frame_matches_map(self):
        g = grid2d()
        fm = advect_flow_map(_nonlinear_2d(), g, 0.2, 0.02)
        fr = fm.frame(0.15)
        assert fm.frame(0.15) is fr
        # frames compare and hash by identity, not over their arrays
        other = fm.frame(0.1)
        assert fr == fr and fr != other and len({fr, other}) == 2
        assert np.array_equal(fr.X, fm.positions(0.15))
        assert np.array_equal(fr.J, np.moveaxis(fm.jacobians(0.15), 0, -1))
        eye = np.einsum("ijp,jkp->pik", fr.J, fr.inv)
        assert np.max(np.abs(eye - np.eye(2))) < 1e-14
        assert np.allclose(fr.det, np.linalg.det(np.moveaxis(fr.J, -1, 0)), rtol=1e-14, atol=0)


def _count_full_grid_inversions(monkeypatch, num_nodes):
    calls = []
    inverse = motion._mat_inv

    def counted(J):
        if J.shape[-1] == num_nodes:
            calls.append(J.shape)
        return inverse(J)

    monkeypatch.setattr(motion, "_mat_inv", counted)
    return calls


class TestFrameReuse:
    """The map's geometry at one t is inverted once, whichever layers read it."""

    V = MotionField.expression(
        lambda t, p: np.stack([0.3 * p[:, 0] + 0.4 * p[:, 1], 0.3 * p[:, 1]], axis=1), 2,
        grad_fn=lambda t, p: np.broadcast_to(
            np.array([[0.3, 0.4], [0.0, 0.3]]), p.shape + (2,)).copy(),
        dt_fn=lambda t, p: np.zeros_like(p))
    params = FluidParams(mu=0.3, eta=0.1, kappa=0.5, bc="slip")

    def test_remainder_boundary_data_extension(self, monkeypatch):
        g, T = grid2d(17), 0.1
        fm = advect_flow_map(self.V, g, T, 0.01)
        calls = _count_full_grid_inversions(monkeypatch, g.num_nodes)
        rho_ref, u_ref = pull_back_state(lambda x: 1.0 + 0.1 * x[:, 0],
                                         lambda x: self.V.velocity(T, x), fm, T)
        lagrangian_remainder(rho_ref, u_ref, fm, self.V, T, self.params)
        bdata = transformed_boundary_data(u_ref, self.V, fm, T, self.params)
        extend_boundary_data(bdata, g, u_ref=u_ref, V=self.V, flow_map=fm,
                             params=self.params)
        assert len(calls) == 1

    def test_energy_inequality_residual(self, monkeypatch):
        g, T = grid2d(17), 0.1
        fm = advect_flow_map(self.V, g, T, 0.01)
        times = fm.times
        rhos = [Field(g, np.ones(g.shape), t) for t in times]
        us = [Field.from_function(g, lambda x, t=t: self.V.velocity(t, x), t=t, ncomp=2)
              for t in times]
        traj = StateTrajectory(times, rhos, us, flow_map=fm)
        calls = _count_full_grid_inversions(monkeypatch, g.num_nodes)
        energy_inequality_residual(traj, self.V, PressureLaw(gamma=1.4), self.params)
        assert len(times) == 11
        assert len(calls) == 11


def _count_calls(monkeypatch, owner, names):
    """Wrap each named method of ``owner`` so that its calls are counted."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _method=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestRk4Stages:
    """Each derivative the ODEs need is evaluated once per RK4 stage, and
    none that they do not need."""

    @pytest.mark.parametrize("with_hessian", [False, True])
    def test_advect_flow_map(self, monkeypatch, with_hessian):
        calls = _count_calls(monkeypatch, MotionField,
                             ("velocity_and_gradient", "gradient", "gradient2"))
        advect_flow_map(_nonlinear_2d(), grid2d(), 0.1, 0.01, with_hessian=with_hessian)
        assert calls == {"velocity_and_gradient": 4 * 10, "gradient": 4 * 10,
                         "gradient2": 4 * 10 * with_hessian}

    def test_solve_transport(self, monkeypatch):
        # one velocity_and_gradient call per stage gives v, grad v and, as
        # its trace, div v; a static DiscreteVelocity builds one
        # interpolation matrix per stage
        g = grid2d()
        rho0 = Field(g, np.ones(g.shape))
        times = 0.01 * np.arange(11)
        # u . n = 0 on every face: the feet stay in the square
        dv = DiscreteVelocity(times, [Field.from_function(
            grid2d(17), lambda p: 0.1 * p * (1 - p), t=t, ncomp=2) for t in times])
        names = ("velocity_and_gradient", "velocity", "gradient")
        calls = _count_calls(monkeypatch, MotionField, names)
        solve_transport(rho0, _nonlinear_2d(), 0.1, 0.01)
        assert calls == dict.fromkeys(names, 4 * 10)
        calls = _count_calls(monkeypatch, DiscreteVelocity, ("velocity_and_gradient",))
        matrices = _count_calls(monkeypatch, transport, ("interp_matrix",))
        solve_transport(rho0, dv, 0.1, 0.01)
        assert calls == {"velocity_and_gradient": 4 * 10}
        assert matrices == {"interp_matrix": 4 * 10}
