import tracemalloc

import numpy as np
import pytest

from nsmove import motion
from nsmove.energy import PressureLaw, energy_inequality_residual
from nsmove.errors import DegenerateMapError, InvalidArgumentError
from nsmove.extension import extend_boundary_data
from nsmove.fields import Field, Grid, differentiate
from nsmove.lagrangian import (
    lagrangian_remainder,
    pull_back_state,
    transformed_boundary_data,
)
from nsmove.momentum import FluidParams
from nsmove.motion import (
    FlowMap,
    MotionField,
    _OdeState,
    _rhs,
    advect_flow_map,
)
from nsmove.trajectory import StateTrajectory
from nsmove.transport import (
    DensityTrajectory,
    DiscreteVelocity,
    mass_total,
    solve_transport,
)


def grid1d(n=17):
    return Grid((n,), (0.0,), (1.0,))


def grid2d(n=9):
    return Grid((n, n), (0.0, 0.0), (1.0, 1.0))


def _quadratic_1d(a):
    """V = a x^2 in 1D, with analytic first and second gradients."""
    return MotionField.expression(
        lambda t, p: a * p ** 2, 1,
        grad_fn=lambda t, p: (2 * a * p)[..., None],
        grad2_fn=lambda t, p: np.full(p.shape + (1, 1), 2 * a))


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
        fm = advect_flow_map(MotionField.zero(2), g, 0.5, 0.05, with_hessian=True)
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
        g = Grid((5,), (0.5, ), (1.5, ))
        fm = advect_flow_map(MotionField.dilation(0.5, 1), g, 1.0, 1e-3)
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
        g = grid1d()
        with pytest.raises(InvalidArgumentError):
            advect_flow_map(MotionField.zero(1), g, 1.0, 0.3)


class TestInvert:
    def test_identity(self):
        g = grid2d()
        fm = advect_flow_map(MotionField.zero(2), g, 0.5, 0.05)
        x = np.array([[0.3, 0.7], [0.0, 1.0]])
        assert np.allclose(fm.invert(0.5, x), x)

    def test_translation(self):
        g = grid2d(17)
        c = np.array([0.2, 0.1])
        fm = advect_flow_map(MotionField.translation(c), g, 0.5, 0.05)
        x = np.array([[0.6, 0.6], [0.25, 0.35]])
        z = fm.invert(0.5, x)
        assert np.max(np.abs(z - (x - 0.5 * c))) < 1e-9

    def test_dilation_round_trip(self):
        g = Grid((33,), (0.25,), (1.25,))
        alpha = 0.4
        fm = advect_flow_map(MotionField.dilation(alpha, 1), g, 0.5, 1e-2)
        x = np.linspace(0.4, 1.5, 7)[:, None]
        z = fm.invert(0.5, x)
        assert np.max(np.abs(z - np.exp(-alpha * 0.5) * x)) < 1e-9
        back = fm.eval_forward(0.5, z)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_round_trip_nonlinear(self):
        g = grid2d(65)
        fm = advect_flow_map(_nonlinear_2d(), g, 0.2, 0.01)
        z0 = np.random.default_rng(3).uniform(0.05, 0.95, size=(500, 2))
        x = fm.eval_forward(0.2, z0)
        z = fm.invert(0.2, x)
        assert np.max(np.abs(fm.eval_forward(0.2, z) - x)) <= 1e-10

    def test_node_images_return_nodes(self):
        g = grid2d(65)
        fm = advect_flow_map(_nonlinear_2d(), g, 0.2, 0.01)
        z = fm.invert(0.2, fm.positions(0.2))
        assert np.max(np.abs(z - g.node_coords())) <= 1e-12

    def test_invert_peak_allocation(self):
        # the seed search must not build an all-pairs distance array
        g = grid2d(65)
        fm = advect_flow_map(_nonlinear_2d(), g, 0.2, 0.01)
        x = fm.positions(0.2)
        fm.invert(0.2, x)  # warm-up: fills the per-time interpolation cache
        tracemalloc.start()
        try:
            fm.invert(0.2, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestJacobians:
    def test_zero_gap(self):
        g = grid2d()
        fm = advect_flow_map(MotionField.zero(2), g, 0.3, 0.05)
        gap = np.max(np.abs(fm.frame(0.3).inv - np.eye(2)))
        assert gap == 0.0

    def test_dilation_1d(self):
        g = grid1d()
        alpha, t = 0.3, 0.5
        fm = advect_flow_map(MotionField.dilation(alpha, 1), g, t, 1e-3)
        fr = fm.frame(t)
        gx, gy, gap = fr.J, fr.inv, np.max(np.abs(fr.inv - np.eye(1)))
        assert np.allclose(gx[:, 0, 0], np.exp(alpha * t), atol=1e-9)
        assert np.allclose(gy[:, 0, 0], np.exp(-alpha * t), atol=1e-9)
        assert abs(gap - abs(np.exp(-alpha * t) - 1)) < 1e-9

    def test_linear_motion_zero_hessian(self):
        g = grid2d()
        fm = advect_flow_map(MotionField.shear(0.5), g, 0.4, 0.02, with_hessian=True)
        assert np.max(np.abs(fm.hessians(0.4))) <= 1e-10

    def test_quadratic_1d_closed_form(self):
        # dX/dt = a X^2: X = z / s, gradX = s^-2, grad2X = 2 a T s^-3, s = 1 - a T z
        a, T = 0.5, 0.2
        g = grid1d(17)
        fm = advect_flow_map(_quadratic_1d(a), g, T, 0.01, with_hessian=True)
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

    @pytest.mark.parametrize("d", [1, 2])
    def test_rhs_matches_einsum_reference(self, d):
        # the written-out contractions against the generic einsum forms;
        # only the summation order differs
        rng = np.random.default_rng(7)
        N = 50
        g = rng.standard_normal((N, d, d))
        g2 = rng.standard_normal((N, d, d, d))
        V = MotionField.expression(lambda t, p: p, d, grad_fn=lambda t, p: g,
                                   grad2_fn=lambda t, p: g2)
        J = rng.standard_normal((N, d, d))
        H = rng.standard_normal((N, d, d, d))
        st = _OdeState(rng.standard_normal((N, d)), J, H, np.zeros(N), np.zeros((N, d)))
        k = _rhs(V, 0.0, st)
        gd = np.einsum("...iij->...j", g2)
        assert np.max(np.abs(k.J - np.einsum("...ip,...pj->...ij", g, J))) <= 1e-12
        H_ref = (np.einsum("...ipq,...pj,...qk->...ijk", g2, J, J)
                 + np.einsum("...ip,...pjk->...ijk", g, H))
        assert np.max(np.abs(k.H - H_ref)) <= 1e-12
        assert np.max(np.abs(k.G - np.einsum("...p,...pj->...j", gd, J))) <= 1e-12

    def test_jacobian_matches_fd_of_trajectories(self):
        # gradX from the Jacobian ODE vs differentiate() of the node positions
        g = Grid((33, 33), (0.0, 0.0), (1.0, 1.0))
        V = MotionField.expression(
            lambda t, p: np.stack([0.2 * np.sin(np.pi * p[:, 0]),
                                   0.1 * p[:, 1] ** 2], axis=-1), 2)
        fm = advect_flow_map(V, g, 0.2, 0.01)
        pos = fm.positions(0.2).T.reshape((2,) + tuple(g.shape))
        ode = fm.jacobians(0.2)  # (N, 2, 2)
        err = 0.0
        for i in range(2):
            for j in range(2):
                fd = differentiate(Field(g, pos[i]), j, 1).values[0].ravel()
                err = max(err, np.max(np.abs(fd - ode[:, i, j])))
        assert err < 5e-3  # O(h^2) with h = 1/32

    def test_semigroup(self):
        g = grid2d(9)
        V = MotionField.expression(
            lambda t, p: np.stack([0.3 * p[:, 1] * (1 + 0.5 * t),
                                   -0.2 * p[:, 0]], axis=-1), 2)
        whole = advect_flow_map(V, g, 0.4, 0.01)
        half = advect_flow_map(V, g, 0.2, 0.01)
        rest = advect_flow_map(V, g, 0.2, 0.01, t0=0.2,
                               X0=half.X[-1], J0=half.J[-1])
        assert np.max(np.abs(whole.positions(0.4) - rest.positions(0.4))) < 1e-9
        assert np.max(np.abs(whole.jacobians(0.4) - rest.jacobians(0.4))) < 1e-9

    def test_gap_growth_trend(self):
        g = grid2d(9)
        V = MotionField.shear(0.8)
        gaps = []
        for T in (0.05, 0.1, 0.2):
            fm = advect_flow_map(V, g, T, 0.005)
            gaps.append(np.max(np.abs(fm.frame(T).inv - np.eye(2))))
        assert gaps[0] <= gaps[1] <= gaps[2]
        # sup-norm gap bounded by C sqrt(t) ||V|| trend
        assert all(gap <= 2.0 * np.sqrt(T) * 0.8
                   for gap, T in zip(gaps, (0.05, 0.1, 0.2)))


class TestBoundaryFrame:
    def test_identity_frames(self):
        g = grid2d()
        fm = advect_flow_map(MotionField.zero(2), g, 0.2, 0.02)
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
        fm = advect_flow_map(MotionField.dilation(0.4, 2), g, 0.3, 0.01)
        ref = advect_flow_map(MotionField.zero(2), g, 0.3, 0.01).frame(0.3).faces
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
                                 *_folded_levels(g, 7), np.zeros((2, N)),
                                 np.zeros((2, N, 2)))
        assert mass_total(traj, 0.0) == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(DegenerateMapError):
            mass_total(traj, 1.0)

    def test_arrays_are_read_only(self):
        fm = advect_flow_map(MotionField.shear(0.5), grid2d(), 0.2, 0.02)
        fr = fm.frame(0.2)
        for a in (fr.XJ, fr.X, fr.J, fr.inv, fr.det, *fr.faces["y1"]):
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
        assert np.array_equal(fr.J, fm.jacobians(0.15))
        eye = np.einsum("pij,pjk->pik", fr.J, fr.inv)
        assert np.max(np.abs(eye - np.eye(2))) < 1e-14
        assert np.allclose(fr.det, np.linalg.det(fr.J), rtol=1e-14, atol=0)


def _count_full_grid_inversions(monkeypatch, num_nodes):
    calls = []
    inverse = motion._mat_inv

    def counted(J):
        if len(J) == num_nodes:
            calls.append(J.shape)
        return inverse(J)

    monkeypatch.setattr(motion, "_mat_inv", counted)
    return calls


class TestFrameReuse:
    """The map's geometry at one t is inverted once, whichever layers read it."""

    V = MotionField.expression(
        lambda t, p: np.stack([0.3 * p[:, 0] + 0.4 * p[:, 1], 0.3 * p[:, 1]], axis=1), 2,
        grad_fn=lambda t, p: np.broadcast_to(
            np.array([[0.3, 0.4], [0.0, 0.3]]), p.shape + (2,)).copy())
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

    def test_moving_map_transport(self, monkeypatch):
        # Newton inversions at the RK4 stage times read X | gradX only; the
        # levels' physical gradients invert gradX once per level touched
        g = Grid((65,), (0.5,), (1.5,))
        fm = advect_flow_map(MotionField.dilation(0.4, 1), g, 0.3, 1e-2)
        times = fm.times[::10]
        fields = [Field(g, np.sin(fm.positions(t)[:, 0]).reshape(g.shape), t)
                  for t in times]
        dv = DiscreteVelocity(times, fields, flow_map=fm)
        calls = _count_full_grid_inversions(monkeypatch, g.num_nodes)
        sub = Grid((9,), (0.9,), (1.1,))
        solve_transport(Field(sub, np.ones(sub.shape)), dv, 0.2, 0.01)
        assert len(calls) == 3  # levels t = 0, 0.1, 0.2
