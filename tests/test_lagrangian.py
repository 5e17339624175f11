import numpy as np
import pytest

from nsmove.fields import Field, Grid, differentiate, interpolate
from nsmove.lagrangian import (
    lagrangian_remainder,
    pull_back_state,
    transformed_boundary_data,
)
from nsmove.momentum import FluidParams
from nsmove.motion import MotionField, advect_flow_map
from xonly import thin_grid, x_field, x_motion, x_points


def grid2d(n=33, lo=0.0, hi=1.0):
    return Grid((n, n), (lo, lo), (hi, hi))


def smooth_u(pts):
    return np.stack([np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1]),
                     np.cos(np.pi * pts[:, 0]) * np.sin(2 * pts[:, 1])], axis=1)


def smooth_rho(pts):
    return 1.0 + 0.3 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])


class TestPullBack:
    def test_identity_map(self):
        g = grid2d(17)
        fm = advect_flow_map(MotionField.zero(), g, 0.2, 0.02)
        rho, u = pull_back_state(smooth_rho, smooth_u, fm, 0.2)
        pts = g.node_coords()
        assert np.allclose(rho.values[0].ravel(), smooth_rho(pts))
        assert np.allclose(u.values.reshape(2, -1).T, smooth_u(pts))

    def test_translation_affine_field(self):
        g = grid2d(17)
        c = np.array([0.25, -0.1])
        fm = advect_flow_map(MotionField.translation(c), g, 0.4, 0.02)
        _, u = pull_back_state(smooth_rho, lambda x: x, fm, 0.4)
        pts = g.node_coords()
        expect = pts + 0.4 * c
        assert np.max(np.abs(u.values.reshape(2, -1).T - expect)) < 1e-12

    def test_dilation_composition(self):
        g = grid2d(17, 0.25, 1.25)
        alpha, t = 0.3, 0.5
        fm = advect_flow_map(MotionField.dilation(alpha), g, t, 1e-2)
        rho, _ = pull_back_state(smooth_rho, smooth_u, fm, t)
        pts = g.node_coords()
        expect = smooth_rho(np.exp(alpha * t) * pts)
        assert np.max(np.abs(rho.values[0].ravel() - expect)) < 1e-8

    def test_push_pull_round_trip(self):
        g = grid2d(25, 0.0, 1.0)
        fm = advect_flow_map(MotionField.dilation(0.2), g, 0.3, 1e-2)
        ref = Field.from_function(g, lambda p: smooth_rho(p))
        pos = fm.positions(0.3)
        back = interpolate(ref, fm.invert(0.3, pos), out_of_bounds="clamp")
        assert np.max(np.abs(back - ref.values[0].ravel())) < 1e-9


# V = (v(x), 0) on the x-only embedding, each with its closed forms along x:
# (v, v', v'', X(z, t), gradY(z, t), Y(x, t), Y''(x, t))
_CURVED_X_FLOWS = {
    # X = z/(1 - zt): gradY = (1 - zt)^2 is quadratic in z, so the FD
    # stencils on it are exact
    "x2": (lambda x: x**2, lambda x: 2 * x, lambda x: np.full_like(x, 2.0),
           lambda z, t: z / (1 - z * t), lambda z, t: (1 - z * t)**2,
           lambda x, t: x / (1 + x * t), lambda x, t: -2 * t * (1 + x * t)**-3),
    # X = z/sqrt(1 - 2tz^2): gradY = (1 - 2tz^2)^(3/2) is not a polynomial
    "x3": (lambda x: x**3, lambda x: 3 * x**2, lambda x: 6 * x,
           lambda z, t: z / np.sqrt(1 - 2 * t * z**2), lambda z, t: (1 - 2 * t * z**2)**1.5,
           lambda x, t: x / np.sqrt(1 + 2 * t * x**2),
           lambda x, t: -6 * t * x * (1 + 2 * t * x**2)**-2.5),
}


class TestRemainder:
    def test_zero_motion_all_zero(self):
        g = grid2d(17)
        fm = advect_flow_map(MotionField.zero(), g, 0.3, 0.05)
        rho = Field.from_function(g, smooth_rho)
        u = Field.from_function(g, smooth_u, ncomp=2)
        params = FluidParams(mu=0.4, eta=0.1, bc="slip")
        out = lagrangian_remainder(rho, u, fm, MotionField.zero(), 0.3, params)
        assert np.max(np.abs(out.remainder.values)) == 0.0
        assert np.max(np.abs(out.transport.values)) == 0.0

    def test_time_zero_remainder_vanishes(self):
        g = grid2d(17)
        V = MotionField.shear(0.7)
        fm = advect_flow_map(V, g, 0.2, 0.02)
        rho = Field.from_function(g, smooth_rho)
        u = Field.from_function(g, smooth_u, ncomp=2)
        params = FluidParams(mu=0.4, eta=0.1, bc="slip")
        out = lagrangian_remainder(rho, u, fm, V, 0.0, params)
        assert np.max(np.abs(out.remainder.values)) < 1e-12
        # transport term is nonzero even at t = 0 (V itself is not small)
        assert np.max(np.abs(out.transport.values)) > 0.0

    def test_translation_kills_gap_terms(self):
        g = grid2d(17)
        V = MotionField.translation([0.3, 0.2])
        fm = advect_flow_map(V, g, 0.4, 0.02)
        rho = Field.from_function(g, smooth_rho)
        u = Field.from_function(g, smooth_u, ncomp=2)
        params = FluidParams(mu=0.4, eta=0.1, bc="slip")
        out = lagrangian_remainder(rho, u, fm, V, 0.4, params)
        assert np.max(np.abs(out.remainder.values)) < 1e-10
        assert np.max(np.abs(out.transport.values)) > 1e-3

    def test_decomposition_bookkeeping(self):
        g = grid2d(17)
        V = MotionField.dilation(0.3)
        fm = advect_flow_map(V, g, 0.2, 0.02)
        rho = Field.from_function(g, smooth_rho)
        u = Field.from_function(g, smooth_u, ncomp=2)
        params = FluidParams(mu=0.4, bc="slip")
        force = Field.from_function(g, lambda p: np.stack(
            [p[:, 0], p[:, 1] ** 2], axis=1), ncomp=2)
        out = lagrangian_remainder(rho, u, fm, V, 0.2, params, force=force)
        recon = out.force.values + out.transport.values + out.remainder.values
        assert np.array_equal(out.total.values, recon)

    @pytest.mark.parametrize("n", [33, 65])
    def test_fd_chain_rule_oracle_dilation(self, n):
        # transform the operator by brute-force FD in physical coordinates,
        # pull back, subtract the reference-coordinate operator
        alpha, t, mu, eta = 0.4, 0.35, 0.7, 0.2
        lam = mu / 3 + eta
        g = grid2d(n, 0.0, 1.0)
        V = MotionField.dilation(alpha)
        fm = advect_flow_map(V, g, t, t / 100)
        rho = Field.from_function(g, smooth_rho)
        u = Field.from_function(g, smooth_u, ncomp=2)
        params = FluidParams(mu=mu, eta=eta, bc="slip")
        out = lagrangian_remainder(rho, u, fm, V, t, params)

        # closed-form transport correction for the dilation map
        pts = g.node_coords()
        s = np.exp(alpha * t)
        G1 = np.stack([np.stack([differentiate(u.component(i), j).values[0].ravel()
                                 for j in range(2)], axis=-1) for i in range(2)],
                      axis=1)
        y_dot_grad = np.einsum("pij,pj->pi", G1, pts)
        term1 = smooth_rho(pts)[:, None] * alpha * (1 - s) * y_dot_grad
        spatial_mod = out.remainder.values.reshape(2, -1).T - term1

        # oracle: A_x u on the scaled physical grid vs A_y u~ on the reference;
        # grad(div) through composed Hessian stencils, which stay O(h^2)
        # uniformly up to the boundary (differentiating the div field crosses
        # the one-sided/central stencil switch and degrades to O(h) there)
        from nsmove.lagrangian import _hessian_fields

        def lame(field):
            H = _hessian_fields(field)  # (i, k, l, N)
            lap = np.einsum("ikkp->pi", H)
            graddiv = np.einsum("qiqp->pi", H)
            return -mu * lap - lam * graddiv

        phys_grid = Grid(g.n, tuple(s * v for v in g.lo), tuple(s * v for v in g.hi))
        u_phys = Field.from_function(
            phys_grid, lambda p: smooth_u(p / s), ncomp=2)
        Ax = lame(u_phys)   # at physical nodes = images of reference nodes
        Ay = lame(u)
        spatial_oracle = Ay - Ax
        err = np.max(np.abs(spatial_mod - spatial_oracle))
        h = g.spacing[0]
        # C frozen as a regression bound after the first verified run; for
        # the isotropic dilation the two sides share their stencil algebra
        # and the gap is pure flow-map integration error (~1e-13)
        assert err <= 8.0 * h**2

    def test_anisotropic_dilation_pins_index_structure(self):
        # V = (a1 x1, a2 x2) distinguishes the index placement in the
        # grad-div correction; any transposition shifts the result at O(1)
        a1, a2, t, mu, eta = 0.5, -0.3, 0.3, 0.7, 0.2
        lam = mu / 3 + eta
        g = grid2d(33)
        rates = np.array([a1, a2])

        V = MotionField.expression(
            lambda tt, p: p * rates, 2,
            grad_fn=lambda tt, p: np.broadcast_to(np.diag(rates), p.shape + (2,)).copy(),
            grad2_fn=lambda tt, p: np.zeros(p.shape + (2, 2)),
            dt_fn=lambda tt, p: np.zeros_like(p))
        fm = advect_flow_map(V, g, t, t / 100)
        rho = Field.from_function(g, smooth_rho)
        u = Field.from_function(g, smooth_u, ncomp=2)
        params = FluidParams(mu=mu, eta=eta, bc="slip")
        out = lagrangian_remainder(rho, u, fm, V, t, params)

        from nsmove.fields import gradient_values
        from nsmove.lagrangian import _hessian_fields
        b = np.exp(-rates * t)        # gradY = diag(b1, b2)
        G1 = gradient_values(u)
        G2 = _hessian_fields(u)
        pts = g.node_coords()
        Vx = np.exp(rates * t) * rates * pts       # V(t, X(t, y))
        term1 = smooth_rho(pts)[:, None] * np.einsum(
            "ijp,pj,j->pi", G1, Vx, b - 1.0)
        lap_w = np.einsum("ikkp,k->pi", G2, b**2 - 1.0)
        graddiv_w = (np.einsum("qqip,q->pi", G2, b) * b[None, :]
                     - np.einsum("qqip->pi", G2))
        expect = term1 + mu * lap_w + lam * graddiv_w
        got = out.remainder.values.reshape(2, -1).T
        assert np.max(np.abs(got - expect)) < 1e-10

    @pytest.mark.parametrize("flow", sorted(_CURVED_X_FLOWS))
    def test_1d_curved_flow_fd_oracle(self, flow):
        # non-affine flow with closed-form map, on the x-only embedding, so
        # the inverse-map curvature terms are exercised against an oracle
        # assembled by analytic composition on an independent uniform
        # physical grid
        from nsmove.lagrangian import inverse_map_second_derivatives

        v, dv, d2v, X, gradY, Y, Y2 = _CURVED_X_FLOWS[flow]
        mu, eta, t = 0.7, 0.2, 0.3
        lam = mu / 3 + eta
        V = x_motion(v, dv, d2v)
        u_fn = lambda x: np.sin(2 * x) + 0.3 * x**2
        errs, y2_errs = {}, {}
        for n in (65, 129):
            g = thin_grid(n)
            fm = advect_flow_map(V, g, t, t / 300)
            rho = x_field(g, lambda x: 1.0 + 0.2 * x)
            u = x_field(g, u_fn, vector=True)
            params = FluidParams(mu=mu, eta=eta, bc="no-slip")
            out = lagrangian_remainder(rho, u, fm, V, t, params)

            z = g.node_coords()[:, 0]
            pos = X(z, t)
            du = differentiate(u, 0, 1).values[0].ravel()
            term1 = rho.values[0].ravel() * du * v(pos) * (gradY(z, t) - 1.0)
            spatial_mod = out.remainder.values[0].ravel() - term1
            y2 = inverse_map_second_derivatives(fm, t)[0, 0, 0]
            y2_errs[n] = float(np.max(np.abs(y2 - Y2(pos, t))))

            pg = thin_grid(2 * n, 0.0, float(pos[-1]))
            u_phys = x_field(pg, lambda x: u_fn(Y(x, t)))
            Ax = Field(pg, -(mu + lam) * differentiate(u_phys, 0, 2).values[0])
            Ax_at_feet = interpolate(Ax, x_points(pos), out_of_bounds="clamp")
            Ay = -(mu + lam) * differentiate(u, 0, 2).values[0].ravel()
            oracle = Ay - Ax_at_feet
            # the x-ends' three node lines are left out, as on the interval
            errs[n] = float(np.max(np.abs((spatial_mod - oracle).reshape(g.shape)[3:-3])))
        # O(h^2), C frozen after the first verified run (measured 0.73 on
        # x^2, 1.09 on x^3)
        assert errs[65] <= 2.0 * (1 / 64)**2
        assert errs[129] <= 2.0 * (1 / 128)**2
        # the FD d^2 Y: exact on x^2, second order on x^3
        assert y2_errs[65] <= 1.0 * (1 / 64)**2
        assert y2_errs[129] <= 1.0 * (1 / 128)**2


class TestBoundaryData:
    def params(self, kappa=0.5):
        return FluidParams(mu=0.6, eta=0.0, kappa=kappa, bc="slip")

    def test_time_zero(self):
        g = grid2d(17)
        V = MotionField.shear(0.8)
        fm = advect_flow_map(V, g, 0.2, 0.02)
        u = Field.from_function(g, smooth_u, ncomp=2)
        bd = transformed_boundary_data(u, V, fm, 0.0, self.params())
        for face in g.face_names:
            assert np.max(np.abs(bd.normal(face))) < 1e-14
            assert np.max(np.abs(bd.stress(face))) < 1e-14

    def test_zero_motion_all_times(self):
        g = grid2d(17)
        V = MotionField.zero()
        fm = advect_flow_map(V, g, 0.4, 0.02)
        u = Field.from_function(g, smooth_u, ncomp=2)
        bd = transformed_boundary_data(u, V, fm, 0.4, self.params())
        for face in g.face_names:
            assert np.max(np.abs(bd.normal(face))) == 0.0
            assert np.max(np.abs(bd.stress(face))) == 0.0

    def test_shear_affine_hand_expansion(self):
        # affine u~ = A y + b against the hand-expanded data on two faces
        g = grid2d(17)
        sigma, t = 0.8, 0.25
        A = np.array([[0.3, -0.2], [0.5, 0.1]])
        b = np.array([0.05, -0.4])
        V = MotionField.shear(sigma)
        fm = advect_flow_map(V, g, t, t / 50)
        u = Field.from_function(g, lambda p: p @ A.T + b, ncomp=2)
        params = self.params(kappa=0.7)
        bd = transformed_boundary_data(u, V, fm, t, params)
        mu, kappa = params.mu, params.kappa
        nodes = g.node_coords()

        # bottom face: frames unchanged, V(X) = V(y); only the Jacobian gap acts
        assert np.max(np.abs(bd.normal("y0"))) < 1e-12
        expect_B = -mu * A[0, 0] * t * sigma
        assert np.max(np.abs(bd.stress("y0") - expect_B)) < 1e-10

        # left face: n(y) = (-1, 0), n(X) = (-1, t sigma)/sqrt(1 + t^2 s^2)
        flat = np.ravel_multi_index(g.face_index("x0", closed=True), g.shape)
        y = nodes[flat]
        nX = np.array([-1.0, t * sigma]) / np.hypot(1.0, t * sigma)
        dn = np.array([-1.0, 0.0]) - nX
        uy = y @ A.T + b
        Vy = np.stack([sigma * y[:, 1], np.zeros(len(y))], axis=1)
        d_hand = (uy - Vy) @ dn  # V(X) = V(y) kills the second group
        assert np.max(np.abs(bd.normal("x0") - d_hand)) < 1e-10

        tauX = np.array([-nX[1], nX[0]])
        tau_ref = np.array([0.0, -1.0])
        Jgap = np.array([[0.0, t * sigma], [0.0, 0.0]])
        K = mu * A @ Jgap
        D = K + K.T
        M = mu * (A + A.T)
        dtau = tau_ref - tauX
        B_hand = (D @ nX) @ tauX + (M @ dn) @ tauX + (M @ np.array([-1.0, 0.0])) @ dtau \
            + kappa * (uy - Vy) @ dtau + 0.0  # V(X) = V(y)
        assert np.max(np.abs(bd.stress("x0") - B_hand)) < 1e-10

    def test_smallness_rate_in_time(self):
        g = grid2d(17)
        V = MotionField.shear(0.6)
        fm = advect_flow_map(V, g, 0.16, 0.01)
        u = Field.from_function(g, smooth_u, ncomp=2)
        sups = []
        for t in (0.02, 0.04, 0.08):
            bd = transformed_boundary_data(u, V, fm, t, self.params())
            sups.append(max(np.max(np.abs(bd.normal(f))) + np.max(np.abs(bd.stress(f)))
                            for f in g.face_names))
        assert sups[0] < sups[1] < sups[2]
        ratios = [sups[1] / sups[0], sups[2] / sups[1]]
        assert all(1.5 < r < 2.5 for r in ratios)  # O(t) rate


# -- the row-product kernels against the generic einsum forms -------------


def _nm(a):
    """Component rows (..., N) as node-major (N, ...), the einsum forms' layout."""
    return np.moveaxis(a, -1, 0)


def _remainder_terms_reference(rho, G1, G2, gy, dY2, Vx, mu, lam):
    """The five remainder terms and the transport term, as einsums on
    node-major tensors."""
    eye = np.eye(gy.shape[-1])
    gap = gy - eye
    lapY = np.einsum("pjii->pj", dY2)
    c_kl = np.einsum("plq,pkq->pkl", gy, gy) - eye
    c_ikl = np.einsum("pli,pkq->pikql", gy, gy)
    terms = (rho[:, None] * np.einsum("pij,pk,pjk->pi", G1, Vx, gap),
             mu * np.einsum("pikl,pkl->pi", G2, c_kl),
             lam * (np.einsum("pqkl,pikql->pi", G2, c_ikl) - np.einsum("pqiq->pi", G2)),
             mu * np.einsum("pik,pk->pi", G1, lapY),
             lam * np.einsum("pqk,pkiq->pi", G1, dY2))
    return terms, rho[:, None] * np.einsum("pj,pij->pi", Vx, G1)


def _inverse_map_second_derivatives_reference(fm, t):
    from nsmove.fields import _diff_axis
    g, d = fm.grid, fm.grid.dim
    gy = _nm(fm.frame(t).inv)
    gy_nodes = gy.reshape(tuple(g.shape) + (d, d))
    dgy = np.stack([_diff_axis(gy_nodes, h, a, 1) for a, h in enumerate(g.spacing)],
                   axis=-1).reshape(g.num_nodes, d, d, d)
    out = np.einsum("pjkm,pmq->pjkq", dgy, gy)
    return 0.5 * (out + np.swapaxes(out, 2, 3))


def _boundary_data_reference(u_ref, V, fm, t, params):
    from nsmove.fields import gradient_values
    g = fm.grid
    frame = fm.frame(t)
    nodes = g.node_coords()
    uvals = u_ref.values.reshape(2, -1).T
    G1 = _nm(gradient_values(u_ref))
    out = {}
    for face in g.faces().values():
        flat, n_X, tau_X = frame.faces[face.name]
        n_ref = np.broadcast_to(face.normal, n_X.shape)
        y = nodes[flat]
        Vy, VX = V.velocity(t, y), V.velocity(t, frame.X[flat])
        u_b = uvals[flat]
        dn, dtau = n_ref - n_X, face.tangent - tau_X
        dval = (np.einsum("pi,pi->p", u_b - Vy, dn)
                + np.einsum("pi,pi->p", VX - Vy, n_X))
        G = G1[flat]
        K = params.mu * np.einsum("pim,pmj->pij", G, np.eye(2) - _nm(frame.inv)[flat])
        D = K + np.swapaxes(K, 1, 2)
        M = params.mu * (G + np.swapaxes(G, 1, 2))
        Bval = (np.einsum("pij,pj,pi->p", D, n_X, tau_X)
                + np.einsum("pij,pj,pi->p", M, dn, tau_X)
                + np.einsum("pij,pj,pi->p", M, n_ref, dtau)
                + params.kappa * np.einsum("pi,pi->p", u_b - Vy, dtau)
                + params.kappa * np.einsum("pi,pi->p", VX - Vy, tau_X))
        out[face.name] = (dval, Bval)
    return out


def _chain_like(n=33, t=0.1):
    """chain_moving's motion (dilation 0.3 + shear 0.4) with a smooth u and rho."""
    g = grid2d(n)
    A = np.array([[0.3, 0.4], [0.0, 0.3]])
    V = MotionField.expression(
        lambda tt, p: p @ A.T, 2,
        grad_fn=lambda tt, p: np.broadcast_to(A, p.shape + (2,)).copy(),
        grad2_fn=lambda tt, p: np.zeros(p.shape + (2, 2)),
        dt_fn=lambda tt, p: np.zeros_like(p))
    fm = advect_flow_map(V, g, t, t / 10, with_hessian=True)
    rho = Field.from_function(g, smooth_rho)
    u = Field.from_function(g, lambda p: p @ A.T + 0.01 * smooth_u(p), ncomp=2)
    return g, V, fm, rho, u, t


def _curved(n=33, t=0.2):
    """A nonlinear motion, so gradY varies and d^2 Y does not vanish."""
    g = grid2d(n)
    def grad(tt, p):
        x, y = p[:, 0], p[:, 1]
        s, c = np.sin(np.pi * y), np.cos(np.pi * x)
        return 0.3 * np.stack([np.stack([s, np.pi * np.cos(np.pi * y) * x], axis=-1),
                               np.stack([-np.pi * np.sin(np.pi * x) * y, c], axis=-1)],
                              axis=1)

    V = MotionField.expression(
        lambda tt, p: 0.3 * np.stack([np.sin(np.pi * p[:, 1]) * p[:, 0],
                                      np.cos(np.pi * p[:, 0]) * p[:, 1]], axis=1), 2,
        grad_fn=grad)
    return g, V, advect_flow_map(V, g, t, t / 20), t


def _close(got, ref, rtol=1e-12):
    """Agreement to ``rtol`` relative to the largest reference entry."""
    return np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


class TestRowKernelsMatchEinsum:
    """The kernels written as row products agree with the einsum forms they
    replaced to 1e-12 relative, term by term on random inputs and in total
    on chain-like data."""

    @pytest.fixture
    def random_inputs(self, monkeypatch):
        # random gradY, V(X), Hessian and inverse-map curvature, none of them
        # symmetric, fed through stand-ins for the helpers that compute them
        import nsmove.lagrangian as lag
        from types import SimpleNamespace
        from nsmove.fields import gradient_values

        rng = np.random.default_rng(29)
        g = grid2d(17)
        N = g.num_nodes
        u = Field(g, rng.standard_normal((2,) + g.shape))
        gy = rng.standard_normal((N, 2, 2))
        Vx = rng.standard_normal((N, 2))
        G2 = rng.standard_normal((N, 2, 2, 2))
        dY2 = rng.standard_normal((N, 2, 2, 2))
        rho = Field(g, 1.0 + rng.uniform(size=g.shape))
        fm = SimpleNamespace(frame=lambda t: SimpleNamespace(inv=np.moveaxis(gy, 0, -1),
                                                             X=np.zeros((N, 2))))
        V = SimpleNamespace(velocity=lambda t, x: Vx)
        hooks = {"G2": G2, "dY2": dY2}
        monkeypatch.setattr(lag, "_hessian_fields", lambda f: np.moveaxis(hooks["G2"], 0, -1))
        monkeypatch.setattr(lag, "inverse_map_second_derivatives",
                            lambda fm, t: np.moveaxis(hooks["dY2"], 0, -1))
        G1 = _nm(gradient_values(u))
        return g, u, rho, fm, V, hooks, lambda r, mu, lam: _remainder_terms_reference(
            r, G1, hooks["G2"], gy, hooks["dY2"], Vx, mu, lam)

    def test_each_remainder_term_random(self, random_inputs):
        from types import SimpleNamespace
        g, u, rho, fm, V, hooks, reference = random_inputs
        G2, dY2 = hooks["G2"], hooks["dY2"]
        zero_rho = Field(g, np.zeros(g.shape))
        # (term, rho, mu, eta, zeroed input): each case leaves one term alive;
        # eta = -mu/3 makes lam = mu/3 + eta vanish
        cases = [(0, rho, 0.0, 0.0, ("G2", "dY2")),
                 (1, zero_rho, 0.7, -0.7 / 3, ("dY2",)),
                 (2, zero_rho, 0.0, 0.4, ("dY2",)),
                 (3, zero_rho, 0.7, -0.7 / 3, ("G2",)),
                 (4, zero_rho, 0.0, 0.4, ("G2",))]
        for term, r, mu, eta, zeroed in cases:
            hooks["G2"], hooks["dY2"] = G2, dY2
            for name in zeroed:
                hooks[name] = np.zeros_like(hooks[name])
            params = SimpleNamespace(mu=mu, eta=eta)
            out = lagrangian_remainder(r, u, fm, V, 0.1, params)
            terms, transport = reference(r.values[0].ravel(), mu, mu / 3 + eta)
            got = out.remainder.values.reshape(2, -1).T
            assert _close(got, terms[term]), term
            assert _close(got, sum(terms)), term
            if term == 0:
                assert _close(out.transport.values.reshape(2, -1).T, transport)

    def test_remainder_chain_like(self):
        from nsmove.fields import gradient_values
        from nsmove.lagrangian import _hessian_fields, inverse_map_second_derivatives
        g, V, fm, rho, u, t = _chain_like()
        params = FluidParams(mu=0.3, eta=0.1, kappa=0.5, bc="slip")
        out = lagrangian_remainder(rho, u, fm, V, t, params)
        frame = fm.frame(t)
        terms, transport = _remainder_terms_reference(
            rho.values[0].ravel(), _nm(gradient_values(u)), _nm(_hessian_fields(u)),
            _nm(frame.inv), _nm(inverse_map_second_derivatives(fm, t)), V.velocity(t, frame.X),
            params.mu, params.mu / 3 + params.eta)
        scale = max(np.max(np.abs(term)) for term in terms)
        got = out.remainder.values.reshape(2, -1).T
        assert np.max(np.abs(got - sum(terms))) <= 1e-12 * scale
        assert _close(out.transport.values.reshape(2, -1).T, transport)

    def test_inverse_map_second_derivatives(self):
        from types import SimpleNamespace
        from nsmove.lagrangian import inverse_map_second_derivatives
        rng = np.random.default_rng(31)
        g = grid2d(17)
        inv = rng.standard_normal((g.num_nodes, 2, 2))
        fake = SimpleNamespace(grid=g,
                               frame=lambda t: SimpleNamespace(inv=np.moveaxis(inv, 0, -1)))
        maps = [(fake, 0.0), _chain_like()[2:3] + (0.1,), _curved()[2:]]
        for fm, t in maps:
            got = _nm(inverse_map_second_derivatives(fm, t))
            ref = _inverse_map_second_derivatives_reference(fm, t)
            assert got.shape == ref.shape
            assert _close(got, ref)

    def test_boundary_data(self):
        rng = np.random.default_rng(37)
        params = FluidParams(mu=0.3, eta=0.1, kappa=0.5, bc="slip")
        g, V, fm, _, u_chain, t = _chain_like()
        gc, Vc, fmc, tc = _curved()
        u_random = Field(gc, rng.standard_normal((2,) + gc.shape))
        for u, V, fm, t in ((u_chain, V, fm, t), (u_random, Vc, fmc, tc)):
            bd = transformed_boundary_data(u, V, fm, t, params)
            for face, (d_ref, B_ref) in _boundary_data_reference(u, V, fm, t, params).items():
                assert _close(bd.normal(face), d_ref)
                assert _close(bd.stress(face), B_ref)
