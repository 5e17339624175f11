import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nsmove import momentum
from nsmove.errors import (
    InvalidArgumentError,
    LinearSolverFailureError,
    PositivityViolationError,
)
from nsmove.fields import Field, Grid
from nsmove.momentum import (
    FluidParams,
    MomentumBC,
    _CrankNicolsonSystem,
    _dirichlet_data,
    _p1_matrices_1d,
    _slip_boundary_load,
    assemble_stress_matrix,
    momentum_energy_residual,
    solve_linear_momentum,
)
from xonly import thin_grid


def zero_v(t, pts):
    return np.zeros_like(np.atleast_2d(pts))


def manufactured_x_only(n, steps, mu=0.2, eta=0.1, T=0.25):
    """u = e^{-t} (sin(pi x), 0), the interval's no-slip solution, on the
    x-only embedding: slip with kappa = 0 fixes u_x = 0 on the x-faces and
    u_y = 0 on the y-faces and leaves the shear stress free, which (u_x, 0)
    satisfies. Returns (L2 error at T, levels, rhs, params, bc)."""
    g = thin_grid(n)
    base = np.column_stack([np.sin(np.pi * g.node_coords()[:, 0]), np.zeros(g.num_nodes)])
    c = 4 * mu / 3 + eta

    def rhs(t):
        return (-1 + c * np.pi**2) * np.exp(-t) * base

    params = FluidParams(mu=mu, eta=eta, kappa=0.0, bc="slip")
    bc = MomentumBC.slip(zero_v)
    u0 = Field(g, base.T.reshape((2,) + g.shape))
    levels, _ = solve_linear_momentum(
        lambda t: np.ones(g.num_nodes), rhs, bc, u0, params, T / steps, T)
    err = levels[-1].values - np.exp(-T) * u0.values
    w = g.quadrature_weights()
    return float(np.sqrt(np.sum(w * err**2))), levels, rhs, params, bc


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


_GAUSS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def gauss_stiffness_reference(grid, params):
    """Cell-by-cell Q1/P1 stiffness with 2x2 Gauss quadrature, in COO form:
    the assembly the Kronecker form replaced. Per Gauss point the element
    block of components (c1, c2) is mu (delta (E^00 + E^11) + E^{c2 c1})
    + lam E^{c1 c2}, with E^{pq} = w dN_p outer dN_q."""
    d, N = grid.dim, grid.num_nodes
    nx, ny = grid.n
    hx, hy = grid.spacing
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    base = (i * ny + j).ravel()
    cells = np.stack([base, base + ny, base + 1, base + ny + 1], axis=1)
    tmpl = []
    for gx in _GAUSS:
        for gy in _GAUSS:
            dN = [np.array([-(1 - gy), (1 - gy), -gy, gy]) / hx,
                  np.array([-(1 - gx), -gx, (1 - gx), gx]) / hy]
            tmpl.append({(p, q): 0.25 * hx * hy * np.outer(dN[p], dN[q])
                         for p in range(2) for q in range(2)})
    mu, lam = params.mu, params.eta - 2.0 * params.mu / 3.0
    eye = np.eye(d)
    block = sum(np.array([[mu * (eye[c1, c2] * sum(E[(k, k)] for k in range(d)) + E[(c2, c1)])
                           + lam * E[(c1, c2)] for c2 in range(d)] for c1 in range(d)])
                for E in tmpl)  # (d, d, nloc, nloc), shared by every cell
    comp = np.arange(d) * N
    rows, cols = np.broadcast_arrays(
        comp[:, None, None, None, None] + cells[:, :, None],
        comp[None, :, None, None, None] + cells[:, None, :])
    data = np.broadcast_to(block[:, :, None], rows.shape)
    return sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(d * N, d * N)).tocsr()


def face_friction_reference(grid, kappa):
    """Friction assembled face by face, kappa tau_c1 tau_c2 times the line
    weights at each face node, for every pair of components: the general
    form of the diagonal the solver writes on the tangential dofs."""
    d, N = grid.dim, grid.num_nodes
    rows, cols, vals = [], [], []
    for face in grid.faces().values():
        for c1 in range(d):
            for c2 in range(d):
                coef = kappa * face.tangent[c1] * face.tangent[c2]
                if coef != 0.0:
                    rows.append(c1 * N + face.flat)
                    cols.append(c2 * N + face.flat)
                    vals.append(coef * face.weights)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d * N, d * N)).tocsr()


# each case of non-finite or misshapen momentum data, with what its error says
NON_FINITE_DATA = {
    "rho-nan": r"at t=0.005 rho\(t\) or rhs\(t\) has a non-finite value",
    "force-inf": r"at t=0.005 rho\(t\) or rhs\(t\) has a non-finite value",
    "no-slip-velocity-nan": (r"boundary velocity at t=0.01 has shape \(32, 2\) or a "
                             r"non-finite value; expected finite \(32, 2\)"),
    "velocity-3-columns": r"boundary velocity at t=0.01 on face 'x0' has shape \(9, 3\)",
    "normal-datum-nan": r"normal datum at t=0.01 on face 'x0' is not finite",
    "stress-datum-nan": r"stress datum at t=0.005 on face 'x0' is not finite",
}


class TestBasics:
    def test_zero_everything_stays_zero(self):
        g = thin_grid(17)
        N = g.num_nodes
        params = FluidParams(mu=0.5, bc="no-slip")
        u0 = Field.zeros(g, ncomp=2)
        levels, reports = solve_linear_momentum(
            lambda t: np.ones(N), lambda t: np.zeros((N, 2)),
            MomentumBC.no_slip(zero_v), u0, params, 0.01, 0.1)
        assert all(np.max(np.abs(l.values)) == 0.0 for l in levels)
        assert all(r.residual <= 1e-10 for r in reports)

    @pytest.mark.parametrize("T, dt", [(0.1, 0.0), (-0.1, 0.01)])
    def test_bad_horizon_or_step_rejected(self, T, dt):
        # a negative T would make a negative step count, and no step run
        g = thin_grid(17)
        N = g.num_nodes
        with pytest.raises(InvalidArgumentError, match=f"T = {T}, dt = {dt}"):
            solve_linear_momentum(
                lambda t: np.ones(N), lambda t: np.zeros((N, 2)),
                MomentumBC.no_slip(zero_v), Field.zeros(g, ncomp=2),
                FluidParams(mu=0.5, bc="no-slip"), dt, T)

    def test_operator_symmetry(self):
        # exact: mirrored entries are products of the same 1-D factors
        params = FluidParams(mu=0.7, eta=0.2, bc="slip")
        for g in (Grid((9, 11), (0.0, 0.0), (1.0, 2.0)), thin_grid(9)):
            K = assemble_stress_matrix(g, params)
            gap = abs(K - K.T)
            assert (gap.max() if gap.nnz else 0.0) == 0.0

    def test_constant_viscosity_matches_nodal(self):
        # the Kronecker form against the cell-by-cell Gauss assembly it replaced
        params = FluidParams(mu=0.7, eta=0.2, bc="slip")
        for g in (Grid((9, 11), (0.0, 0.0), (1.0, 2.0)), thin_grid(9)):
            K = assemble_stress_matrix(g, params)
            K_ref = gauss_stiffness_reference(g, params)
            assert abs(K - K_ref).max() <= 1e-14 * abs(K_ref).max()
            # only exact nonzeros: 9 in the own component's block, 4 in the other's
            stored = np.diff(K.indptr).reshape(2, *g.shape)
            assert np.all(stored[:, 1:-1, 1:-1] == 13)

    @pytest.mark.parametrize("kind, shape", [
        ("slip", (9, 11)), ("slip", (8, 5)), ("slip", (129, 129)), ("no-slip", (9, 11))])
    def test_dirichlet_dofs_constrained_once(self, kind, shape):
        # slip fixes u_x on the x-faces and u_y on the y-faces: no dof twice
        g = Grid(shape, (0.0, 0.0), (1.0, 1.0))
        bc = MomentumBC(kind, dilation, normal_datum=lambda t, face: 0.1)
        idx, vals = _dirichlet_data(g, bc, 0.1)
        assert np.all(np.diff(idx) > 0)
        boundary = np.ones(shape, dtype=bool)
        boundary[1:-1, 1:-1] = False
        expect = (sum(len(f.flat) for f in g.faces().values()) if kind == "slip"
                  else 2 * int(boundary.sum()))
        assert len(idx) == len(vals) == expect

    @pytest.mark.parametrize("which, t", [("normal_datum", 0.01), ("stress_datum", 0.005)])
    @pytest.mark.parametrize("datum", [np.array([0.1]), np.full(5, 0.1)],
                             ids=["1-value", "5-values"])
    def test_face_datum_shape_checked(self, which, t, datum):
        # one value would broadcast silently over a 17-node face, and five
        # died in numpy; both name t, the face and the two shapes now
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
        bc = MomentumBC.slip(dilation, **{which: lambda t, face: datum})
        shape = re.escape(str(datum.shape))
        with pytest.raises(InvalidArgumentError, match=rf"t={t} on face 'x0' has shape "
                                                       rf"{shape}; expected a scalar or "
                                                       r"shape \(17,\)"):
            solve_linear_momentum(
                lambda t: np.ones(g.num_nodes), lambda t: np.zeros((g.num_nodes, 2)),
                bc, Field.zeros(g, ncomp=2), FluidParams(mu=0.3, bc="slip"), 0.01, 0.02)

    def test_scalar_face_datum_broadcasts(self):
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
        scalar = MomentumBC.slip(dilation, normal_datum=lambda t, face: 0.1,
                                 stress_datum=lambda t, face: 0.2)
        full = MomentumBC.slip(dilation, normal_datum=lambda t, face: np.full(17, 0.1),
                               stress_datum=lambda t, face: np.full(17, 0.2))
        params = FluidParams(mu=0.3, kappa=1.0, bc="slip")
        assert all(np.array_equal(x, y) for x, y in zip(_dirichlet_data(g, scalar, 0.1),
                                                        _dirichlet_data(g, full, 0.1)))
        assert np.array_equal(_slip_boundary_load(g, scalar, params, 0.1),
                              _slip_boundary_load(g, full, params, 0.1))

    def test_slip_load_matches_face_loop(self):
        # each face's (B + kappa V.tau) tau_c times the line weights, summed
        # into every component c: the general form of the tangential-dof load
        g = Grid((9, 11), (0.0, 0.0), (1.0, 2.0))
        faces, pts = g.faces(), g.node_coords()
        B = {name: 0.1 * (k + 1) + np.arange(len(f.flat)) for k, (name, f) in
             enumerate(faces.items())}
        bc = MomentumBC.slip(dilation, stress_datum=lambda t, face: B[face])
        params = FluidParams(mu=0.3, kappa=0.7, bc="slip")
        ref = np.zeros((2, g.num_nodes))
        for face in faces.values():
            data = B[face.name] + 0.7 * (dilation(0.1, pts[face.flat]) @ face.tangent)
            ref[:, face.flat] += np.outer(face.tangent, face.weights * data)
        assert np.array_equal(_slip_boundary_load(g, bc, params, 0.1), ref.ravel())

    def test_positivity_guard(self):
        g = thin_grid(9)
        N = g.num_nodes
        params = FluidParams(mu=0.5, bc="no-slip")
        with pytest.raises(PositivityViolationError):
            solve_linear_momentum(
                lambda t: np.full(N, -1.0), lambda t: np.zeros((N, 2)),
                MomentumBC.no_slip(zero_v), Field.zeros(g, ncomp=2), params, 0.01, 0.02)

    def test_params_validation(self):
        with pytest.raises(InvalidArgumentError):
            FluidParams(mu=-1.0)
        with pytest.raises(InvalidArgumentError):
            FluidParams(mu=1.0, bc="periodic")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["mu", "eta", "kappa"])
    def test_non_finite_params_rejected(self, name, bad):
        # NaN fails every comparison and inf passes the sign checks, so all
        # but a negative infinity were accepted; each now names the value
        match = f"mu must be positive and finite, got {bad}" if name == "mu" else f"{name}={bad}"
        with pytest.raises(InvalidArgumentError, match=match):
            FluidParams(**{"mu": 0.5, name: bad}, bc="slip")

    @pytest.mark.parametrize("rho_size, rhs_shape", [(82, (81, 2)), (81, (81, 3)),
                                                     (81, (2, 81))],
                             ids=["rho-N+1", "rhs-Nx3", "rhs-2xN"])
    def test_callback_shapes_checked(self, rho_size, rhs_shape):
        # a wrong size died in numpy's broadcasting or reshape, and a (2, N)
        # force was read as (N, 2) without complaint
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        rho, rhs = lambda t: np.ones(rho_size), lambda t: np.zeros(rhs_shape)
        params, bc = FluidParams(mu=0.5), MomentumBC.no_slip(zero_v)
        match = re.escape(f"at t=0.005 rho(t) has shape ({rho_size},) and rhs(t) "
                          f"{rhs_shape}; expected 81 values and (81, 2)")
        with pytest.raises(InvalidArgumentError, match=match):
            solve_linear_momentum(rho, rhs, bc, Field.zeros(g, ncomp=2), params, 0.01, 0.02)
        with pytest.raises(InvalidArgumentError, match=match):
            momentum_energy_residual(
                [Field.zeros(g, ncomp=2, t=t) for t in (0.0, 0.01)], np.array([0.0, 0.01]),
                rho, rhs, params, bc)

    @pytest.mark.parametrize("case", list(NON_FINITE_DATA))
    def test_non_finite_data_refused_at_the_call(self, case, monkeypatch):
        # each of these ran the full 10 n CG iterations and ended as "CG
        # stagnated (residual=nan)": NaN fails rho < floor, so a NaN density
        # passed the floor check. A (npts, 3) velocity died in numpy
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        N = g.num_nodes
        rho, force = np.ones(N), np.zeros((N, 2))
        bc = MomentumBC.slip(dilation)
        if case == "rho-nan":
            rho[40] = np.nan
        elif case == "force-inf":
            force[3, 0] = np.inf
        elif case == "no-slip-velocity-nan":
            bc = MomentumBC.no_slip(lambda t, p: np.full(p.shape, np.nan))
        elif case == "velocity-3-columns":
            bc = MomentumBC.slip(lambda t, p: np.zeros((len(p), 3)))
        else:
            which = case.replace("-nan", "").replace("-", "_")
            bc = MomentumBC.slip(dilation, **{which: lambda t, face: np.nan})
        monkeypatch.setattr(momentum, "_cg_solve", None)   # refused before any solve
        with pytest.raises(InvalidArgumentError, match=NON_FINITE_DATA[case]):
            solve_linear_momentum(lambda t: rho, lambda t: force, bc, Field.zeros(g, ncomp=2),
                                  FluidParams(mu=0.5, bc=bc.kind), 0.01, 0.02)

    @pytest.mark.parametrize("case", ["rho-nan", "velocity-nan"])
    def test_energy_residual_refuses_non_finite_data(self, case):
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        N = g.num_nodes
        rho = np.full(N, np.nan if case == "rho-nan" else 1.0)
        velocity = dilation if case == "rho-nan" else (lambda t, p: np.full(p.shape, np.nan))
        match = ("at t=0.005 rho" if case == "rho-nan"
                 else "boundary velocity at t=0.005 on face 'x0'")
        with pytest.raises(InvalidArgumentError, match=match):
            momentum_energy_residual(
                [Field.zeros(g, ncomp=2, t=t) for t in (0.0, 0.01)], np.array([0.0, 0.01]),
                lambda t: rho, lambda t: np.zeros((N, 2)),
                FluidParams(mu=0.5, kappa=1.0, bc="slip"), MomentumBC.slip(velocity))

    def test_cg_stops_once_the_residual_is_not_finite(self):
        # a non-finite residual ran all 10 n iterations before the final check
        calls = []

        def apply(x):
            calls.append(1)
            return np.full_like(x, np.nan)

        with pytest.raises(LinearSolverFailureError, match="CG residual norm nan after 1 "):
            momentum._cg_solve(apply, np.ones(50), np.zeros(50), 1e-10, lambda r: r)
        assert len(calls) == 1

    def test_u0_must_have_two_components(self):
        # a scalar u0 died in numpy's broadcasting: shapes (128,) and (64,)
        g = Grid((8, 8), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(InvalidArgumentError, match="u0 must have 2 components, got 1"):
            solve_linear_momentum(
                lambda t: np.ones(g.num_nodes), lambda t: np.zeros((g.num_nodes, 2)),
                MomentumBC.no_slip(zero_v), Field.zeros(g), FluidParams(mu=0.5), 0.01, 0.02)

    @pytest.mark.parametrize("params_bc, bc", [
        ("slip", MomentumBC.no_slip(zero_v)), ("no-slip", MomentumBC.slip(zero_v))])
    def test_bc_kind_must_match_params(self, params_bc, bc):
        # slip params would add friction to a fully constrained boundary;
        # no-slip params would drop the friction of a slip boundary
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        params = FluidParams(mu=0.5, kappa=1.0, bc=params_bc)
        with pytest.raises(InvalidArgumentError):
            solve_linear_momentum(
                lambda t: np.ones(g.num_nodes), lambda t: np.zeros((g.num_nodes, 2)),
                bc, Field.zeros(g, ncomp=2), params, 0.01, 0.02)
        # the energy balance would drop, or add, the boundary work and friction
        with pytest.raises(InvalidArgumentError, match="params.bc"):
            momentum_energy_residual(
                [Field.zeros(g, ncomp=2, t=t) for t in (0.0, 0.01)], np.array([0.0, 0.01]),
                lambda t: np.ones(g.num_nodes), lambda t: np.zeros((g.num_nodes, 2)),
                params, bc)

    def test_1d_slip_dirichlet_data(self):
        # u.n = V.n + d with n = -1 at x0 and +1 at x1, on the x-only
        # embedding: V = (0.7, 0), and the y-faces fix u_y = 0
        g = thin_grid(9)
        bc = MomentumBC.slip(lambda t, p: np.full_like(p, 0.7) * [1.0, 0.0],
                             normal_datum=lambda t, face: {"x0": 0.2, "x1": 0.5}.get(face, 0.0))
        idx, vals = _dirichlet_data(g, bc, 0.1)
        faces = g.faces()
        ux = idx < g.num_nodes
        assert np.array_equal(idx[ux], np.concatenate([faces["x0"].flat, faces["x1"].flat]))
        assert np.allclose(vals[ux], np.repeat([0.7 - 0.2, 0.7 + 0.5], 5), rtol=0.0, atol=1e-15)
        assert np.array_equal(vals[~ux], np.zeros(2 * 9))

    def test_homogeneous_energy_nonincreasing(self):
        g = thin_grid(33)
        N = g.num_nodes
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((2,) + g.shape)
        vals[:, [0, -1], :] = vals[:, :, [0, -1]] = 0.0
        u0 = Field(g, vals)
        params = FluidParams(mu=0.3, bc="no-slip")
        levels, _ = solve_linear_momentum(
            lambda t: np.ones(N), lambda t: np.zeros((N, 2)),
            MomentumBC.no_slip(zero_v), u0, params, 0.01, 0.2)
        w = g.quadrature_weights()
        energies = [float(np.sum(w * l.values ** 2)) for l in levels]
        assert all(e1 <= e0 + 1e-13 for e0, e1 in zip(energies, energies[1:]))


class TestManufactured:
    def test_1d_no_slip_convergence(self):
        errs = []
        for n, steps in ((33, 16), (65, 32), (129, 64)):
            errs.append(manufactured_x_only(n, steps)[0])
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_2d_slip_convergence(self):
        errs = [manufactured_2d_slip(n, steps)
                for n, steps in ((17, 8), (33, 16))]
        assert np.log2(errs[0] / errs[1]) >= 1.8


class TestEnergyResidual:
    def test_zero_solution_all_zero(self):
        g = thin_grid(17)
        N = g.num_nodes
        levels = [Field.zeros(g, ncomp=2, t=t) for t in (0.0, 0.1, 0.2)]
        recs = momentum_energy_residual(
            levels, np.array([0.0, 0.1, 0.2]), lambda t: np.ones(N),
            lambda t: np.zeros((N, 2)), FluidParams(mu=0.4), MomentumBC.no_slip(zero_v))
        assert all(r["imbalance"] == 0.0 for r in recs)

    @pytest.mark.parametrize("times, other_grid, match", [
        ([0.0, 0.1], False, "one u field per time level"),
        ([0.0, 0.1, 0.2, 0.3], False, "one u field per time level"),
        ([0.0, 0.1, 0.1], False, "non-empty and increasing"),
        ([0.0, 0.1, 0.2], True, "u level 2 has")],
        ids=["short", "long", "repeated", "other-grid"])
    def test_levels_checked(self, times, other_grid, match):
        # unchecked, short times raise a bare IndexError, long ones are cut
        # short silently, a repeated time gives an inf imbalance, and a
        # level on another grid of the same shape is read as if on this one
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        levels = [Field.zeros(g, ncomp=2, t=t) for t in (0.0, 0.1, 0.2)]
        if other_grid:
            levels[2] = Field.zeros(Grid((9, 9), (0.0, 0.0), (2.0, 1.0)), ncomp=2, t=0.2)
        with pytest.raises(InvalidArgumentError, match=match):
            momentum_energy_residual(
                levels, np.array(times), lambda t: np.ones(g.num_nodes),
                lambda t: np.zeros((g.num_nodes, 2)), FluidParams(mu=0.4),
                MomentumBC.no_slip(zero_v))

    def test_manufactured_imbalance_refines(self):
        out = {}
        for n, steps in ((33, 16), (65, 32)):
            _, levels, rhs, params, bc = manufactured_x_only(n, steps)
            N = levels[0].grid.num_nodes
            recs = momentum_energy_residual(
                levels, np.linspace(0, 0.25, steps + 1), lambda t: np.ones(N),
                rhs, params, bc)
            out[n] = max(abs(r["imbalance"]) for r in recs)
        assert out[65] < out[33]
        assert out[65] <= 0.5 * out[33] * 1.2  # ~second order

    def test_independent_imbalance_refines_on_chain_data(self):
        # the traction S n works on the constrained normal dofs; without that
        # term the imbalance is their reaction work and does not refine
        # (7.30e-2 / 7.27e-2 / 7.25e-2; with it 1.50e-3 / 5.23e-4 / 1.61e-4)
        imbalance = {}
        for n in (33, 65, 129):
            prob = chain_like_problem(n, kappa=0.5)
            levels, _ = solve_linear_momentum(dt=0.01, T=0.1, **prob)
            recs = momentum_energy_residual(levels, np.linspace(0.0, 0.1, 11), prob["rho"],
                                            prob["rhs"], prob["params"], prob["bc"])
            imbalance[n] = max(abs(r["imbalance"]) for r in recs)
        assert imbalance[33] >= 1.8 * imbalance[65]
        assert imbalance[65] >= 1.8 * imbalance[129]

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


# -- the multigrid-preconditioned solve ---------------------------------------


def dilation(t, pts):
    return 0.3 * np.asarray(pts, dtype=float)


def chain_like_problem(n, kappa=1.0, hi=(1.0, 1.0)):
    """Slip data as the moving-domain chain makes them: V a dilation (so
    V.n != 0), nonzero normal datum d and stress datum B, a density bump
    that grows in time, and a smooth force. Returns solver arguments.

    n nodes per axis on the unit square, or a shape on [0, hi]."""
    g = Grid((n, n) if np.isscalar(n) else n, (0.0, 0.0), hi)
    pts = g.node_coords()
    bump = np.exp(-np.sum((pts - 0.45) ** 2, axis=1) / 0.02)
    force = np.stack([np.sin(np.pi * pts[:, 1]), np.cos(2 * pts[:, 0])], axis=1)
    faces = g.faces()

    def datum(scale):
        def fn(t, face):
            s = g.node_coords()[faces[face].flat] @ np.abs(faces[face].tangent)
            return scale * (1 + t) * np.sin(np.pi * s) ** 2
        return fn

    bc = MomentumBC.slip(dilation, normal_datum=datum(0.01), stress_datum=datum(0.2))
    params = FluidParams(mu=0.3, eta=0.1, kappa=kappa, bc="slip")
    u0 = Field(g, dilation(0.0, pts).T.reshape((2,) + g.shape))
    return dict(rho=lambda t: 1.0 + 0.5 * (1 + t) * bump, rhs=lambda t: force,
                bc=bc, u0=u0, params=params)


def jacobi_cg_reference(rho, rhs, bc, u0, params, dt, T, cg_tol=1e-10):
    """The Jacobi-preconditioned CG kernel the multigrid solve replaced:
    per step, eliminate the constrained dofs as P A P + (I - P) and solve."""
    grid = u0.grid
    d, N = grid.dim, grid.num_nodes
    A = assemble_stress_matrix(grid, params)
    if params.bc == "slip" and params.kappa > 0:
        A = A + face_friction_reference(grid, params.kappa)
    w = grid.quadrature_weights().ravel()
    u = u0.values.reshape(d, -1).ravel()
    out = [u]
    for m in range(int(round(T / dt))):
        th, tn = (m + 0.5) * dt, (m + 1) * dt
        Mdiag = np.tile(w, d) * np.tile(np.asarray(rho(th)).ravel(), d)
        lhs = (sp.diags(Mdiag / dt) + 0.5 * A).tocsr()
        load = ((w[:, None] * np.asarray(rhs(th)).reshape(N, d)).T.ravel()
                + _slip_boundary_load(grid, bc, params, th))
        b = (sp.diags(Mdiag / dt) - 0.5 * A) @ u + load
        idx, vals = _dirichlet_data(grid, bc, tn)
        free = np.ones(d * N)
        free[idx] = 0.0
        P = sp.diags(free)
        system = (P @ lhs @ P + sp.diags(1.0 - free)).tocsr()
        b = b - lhs[:, idx] @ vals
        b[idx] = vals
        u, info = spla.cg(system, b, x0=u, rtol=cg_tol, atol=0.0,
                          M=sp.diags(1.0 / system.diagonal()))
        assert info == 0
        out.append(u)
    return out


def no_slip_problem(shape, x_only=False):
    """A no-slip problem with a density that grows in time; ``x_only``
    keeps the force, the start and the wall velocity to their x-components."""
    g = Grid(shape, (0.0, 0.0), (1.0, 1.0))
    pts = g.node_coords()
    keep = [1.0, 0.0] if x_only else [1.0, 1.0]
    return dict(rho=lambda t: 1.0 + t + 0.5 * pts[:, 0],
                rhs=lambda t: np.cos(3 * pts) * keep, bc=MomentumBC.no_slip(
                    lambda t, p: 0.1 * np.sin(np.asarray(p)) * keep),
                u0=Field(g, (np.sin(np.pi * pts) * keep).T.reshape((2,) + g.shape)),
                params=FluidParams(mu=0.2, eta=0.05))


def assert_agrees_with_jacobi_cg(prob):
    """The multigrid solve of ``prob`` within 1e-7 of the Jacobi-CG one."""
    levels, _ = solve_linear_momentum(dt=0.02, T=0.1, **prob)
    ref = jacobi_cg_reference(dt=0.02, T=0.1, **prob)
    scale = max(np.max(np.abs(u)) for u in ref)
    gap = max(np.max(np.abs(l.values.ravel() - u)) for l, u in zip(levels, ref))
    assert gap <= 1e-7 * scale


def slip_operator(shape):
    """A = stiffness + friction of a slip problem, its constrained dofs, and
    the lumped mass of dt = 0.01 and unit density."""
    g = Grid(shape, (0.0, 0.0), (1.0, 1.0))
    params = FluidParams(mu=0.3, eta=0.1, kappa=1.0, bc="slip")
    A = assemble_stress_matrix(g, params) + face_friction_reference(g, 1.0)
    idx, _ = _dirichlet_data(g, MomentumBC.slip(dilation), 0.01)
    mass = np.tile(g.quadrature_weights().ravel(), g.dim) / 0.01
    return A, idx, mass


def slip_system(shape):
    """The eliminated CN system of :func:`slip_operator` on H = A/2, and its
    mass."""
    A, idx, mass = slip_operator(shape)
    return _CrankNicolsonSystem(0.5 * A, idx, mass, shape), mass


def level_matrices(system):
    """Copies of every level's operator; level 0 as :meth:`apply` applies
    it, F H F + (I - F) with H = ``system.ops[0]`` and F the free mask."""
    F = sp.diags(system.free)
    level0 = (F @ system.ops[0] @ F + sp.diags(1.0 - system.free)).tocsr()
    return [level0] + [op.copy() for op in system.ops[1:]]


class TestMultigridSolve:
    @pytest.mark.parametrize("n", [17, 33, 65, 129])
    def test_iterations_flat_in_n(self, n):
        prob = chain_like_problem(n, kappa=1.0)
        _, reports = solve_linear_momentum(dt=0.01, T=0.03, **prob)
        iters = [r.iterations for r in reports]
        assert max(iters) <= 9, iters
        assert all(r.residual <= 1e-10 for r in reports)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # no CG iterate reaches a relative residual of 1e-30 in floating point
        monkeypatch.setattr(momentum, "_CG_TOL", 1e-30)
        with pytest.raises(LinearSolverFailureError) as info:
            solve_linear_momentum(dt=0.01, T=0.01, **chain_like_problem(17))
        assert np.isfinite(info.value.residual)
        assert info.value.residual > 1e-29

    @pytest.mark.parametrize("factor, n", [(10.0, 65), (0.1, 65), (10.0, 64), (0.1, 64)],
                             ids=["10.0", "0.1", "10.0-64", "0.1-64"])
    def test_iterations_follow_density_swing(self, factor, n):
        # uniform rho from 1 to factor over ten steps: every level of the
        # V-cycle must take each step's mass, not the first step's; an even
        # axis coarsens too (64 -> 32 -> ... -> 4 nodes)
        prob = chain_like_problem(n, kappa=1.0)
        N = prob["u0"].grid.num_nodes
        force = np.random.default_rng(13).standard_normal((N, 2))
        prob.update(rho=lambda t: np.full(N, 1.0 + (factor - 1.0) * t / 0.1),
                    rhs=lambda t: force)
        _, reports = solve_linear_momentum(dt=0.01, T=0.1, **prob)
        iters = [r.iterations for r in reports]
        assert max(iters) <= 10, iters
        assert all(r.residual <= 1e-10 for r in reports)

    @pytest.mark.parametrize("shape", [(33, 33), (20, 20), (33, 5)])
    def test_vcycle_symmetric_positive(self, shape):
        system, mass = slip_system(shape)
        rng = np.random.default_rng(7)
        for factor in (1.3, 0.1):  # a later step's density, heavier or lighter
            system.set_mass(factor * mass)
            for _ in range(5):
                x, y = rng.standard_normal((2, len(mass)))
                Mx, My = system.precondition(x), system.precondition(y)
                assert abs(x @ My - y @ Mx) <= 1e-12 * abs(x @ My)
                assert x @ Mx > 0.0

    def test_every_level_takes_the_step_mass(self):
        # a mass change dm adds F dm to level 0 and, to each coarse level, the
        # lumped Galerkin mass diag(P^T dM P 1) of the level above; the
        # damping and the coarsest factorization follow
        system, mass = slip_system((33, 33))
        before = level_matrices(system)
        system.set_mass(3.0 * mass)
        assert len(system.ops) == 4
        gain = sp.diags(system.free * 2.0 * mass, format="csr")
        for level, (old, new) in enumerate(zip(before, level_matrices(system))):
            if level:
                P = system.prolong[level - 1]
                gain = sp.diags((P.T @ gain @ P) @ np.ones(P.shape[1]), format="csr")
            assert abs(new - old - gain).max() <= 1e-12 * abs(gain).max()
            # the damping follows the current operator: 1.6 / its Gershgorin bound
            g_now = np.max(abs(new) @ np.ones(new.shape[0]) / new.diagonal())
            assert np.allclose(system.smooth[level] * new.diagonal(), 1.6 / g_now,
                               rtol=1e-12, atol=0.0)
        x = np.random.default_rng(3).standard_normal(system.ops[-1].shape[0])
        assert np.max(np.abs(system.coarsest @ (system.ops[-1] @ x) - x)) <= 1e-10

    @pytest.mark.parametrize("kind", ["slip", "no-slip", "no-slip-1d"])
    def test_agrees_with_jacobi_cg(self, kind):
        # no-slip-1d: the x-only embedding of the interval problem
        if kind == "slip":
            prob = chain_like_problem(33, kappa=0.5)
        elif kind == "no-slip":
            prob = no_slip_problem((17, 17))
        else:
            prob = no_slip_problem((33, 5), x_only=True)
        assert_agrees_with_jacobi_cg(prob)

    @pytest.mark.parametrize("kind", ["slip", "no-slip"])
    @pytest.mark.parametrize("shape", [(17, 5), (5, 17), (17, 4), (33, 5), (129, 5)],
                             ids=["17x5", "5x17", "17x4", "33x5", "129x5"])
    def test_thin_grid_agrees_with_jacobi_cg(self, shape, kind):
        # an axis of 4 or 5 nodes is kept, not halved, so its coarse face
        # dofs have constrained fine children only: empty columns of P,
        # whose rows of R H P take the identity
        prob = chain_like_problem(shape, kappa=0.5) if kind == "slip" else no_slip_problem(shape)
        assert_agrees_with_jacobi_cg(prob)

    @pytest.mark.parametrize("even_axes", [2, 1])
    def test_even_axes_coarsen(self, even_axes):
        # 20 -> 10 -> 5 nodes: the hierarchy halves an even axis too, next
        # to a kept 5-node one
        shape = (20, 20) if even_axes == 2 else (20, 5)
        system, _ = slip_system(shape)
        assert [op.shape[0] for op in system.ops] == [
            2 * m * (m if even_axes == 2 else 5) for m in (20, 10, 5)]
        g = Grid(shape, (0.0, 0.0), (1.0, 1.0))
        pts = g.node_coords()
        params = FluidParams(mu=0.3, eta=0.1, kappa=1.0, bc="slip")
        _, reports = solve_linear_momentum(
            lambda t: 1.0 + pts[:, 0] * (1 + t), lambda t: np.cos(3 * pts),
            MomentumBC.slip(dilation), Field.zeros(g, ncomp=2), params, 0.01, 0.05)
        assert all(r.residual <= 1e-10 for r in reports)

    def test_pcg_matches_scipy_cg(self, monkeypatch):
        # the numpy PCG loop takes scipy's cg steps: with the same V-cycle
        # as a LinearOperator, every step's iterate and count are the same
        real, steps = momentum._cg_solve, []

        def both(apply, b, x0, tol, precondition):
            x, iterations, res = real(apply, b, x0, tol, precondition)
            count = [0]
            A = spla.LinearOperator((len(b), len(b)), matvec=apply, dtype=float)
            M = spla.LinearOperator(A.shape, matvec=precondition, dtype=float)
            ref, info = spla.cg(A, b, x0=x0, rtol=tol, atol=0.0, M=M,
                                callback=lambda _: count.__setitem__(0, count[0] + 1))
            steps.append((np.array_equal(x, ref), iterations, count[0], info))
            return x, iterations, res

        monkeypatch.setattr(momentum, "_cg_solve", both)
        solve_linear_momentum(dt=0.01, T=0.03, **chain_like_problem(33))
        assert len(steps) == 3
        for same, iterations, count, info in steps:
            assert same and iterations == count and info == 0

    @pytest.mark.parametrize("shape, hi, coarsest", [((9, 65), (1.0, 8.0), (5, 5)),
                                                     ((6, 200), (1.0, 40.0), (3, 4))])
    def test_long_axis_keeps_halving(self, shape, hi, coarsest):
        # the short axis stops at 5 nodes or fewer and the long one is
        # halved on until it does too: (9, 65) -> (5, 33) -> ... -> (5, 5),
        # (6, 200) -> (3, 100) -> ... -> (3, 4)
        system, _ = slip_system(shape)
        assert system.ops[-1].shape[0] == 2 * np.prod(coarsest)
        _, reports = solve_linear_momentum(dt=0.01, T=0.05,
                                           **chain_like_problem(shape, hi=hi))
        assert all(r.residual <= 1e-10 for r in reports)


def bmat_stiffness_reference(grid, params):
    """The 2-D stiffness with its four blocks joined by ``sp.bmat`` (through
    COO), as assembled before the CSR stacking."""
    mu, lam = params.mu, params.eta - 2.0 * params.mu / 3.0
    (Kx, Mx, Gx), (Ky, My, Gy) = [_p1_matrices_1d(n, h)
                                  for n, h in zip(grid.shape, grid.spacing)]
    Exx = sp.kron(Kx, My, format="csr")
    Eyy = sp.kron(Mx, Ky, format="csr")
    Exy = sp.kron(Gx, Gy.T, format="csr")
    Eyx = Exy.T.tocsr()
    lap = mu * (Exx + Eyy)
    return sp.bmat([[lap + (mu + lam) * Exx, lam * Exy + mu * Eyx],
                    [mu * Exy + lam * Eyx, lap + (mu + lam) * Eyy]], format="csr")


def same_csr(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("data", "indices", "indptr"))


def traced_peak(fn):
    """Peak bytes that tracemalloc traces while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def csr_bytes(a):
    return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


class TestOneCopyOfA:
    @pytest.mark.parametrize("n", [17, 33, 64, 129])
    def test_built_from_A_as_from_its_products(self, n):
        # the CSR stacking and the halved columns store exactly the arrays of
        # bmat and of (A/2)[:, idx]; level 0 applied from H = A/2 gives
        # exactly the product of F (A/2) F + (I - F) + diag(F m); each coarse
        # level stores exactly the arrays of R (A/2) P of the level above
        # with R = P^T as CSR, taking the restricted mass on its diagonal
        g = Grid((n, n), (0.0, 0.0), (1.0, 1.0))
        params = FluidParams(mu=0.3, eta=0.1, kappa=1.0, bc="slip")
        assert same_csr(assemble_stress_matrix(g, params),
                        bmat_stiffness_reference(g, params))
        A, idx, mass = slip_operator((n, n))
        H = 0.5 * A
        system = _CrankNicolsonSystem(H, idx, mass, (n, n))
        assert system.ops[0] is H
        free = system.free
        F = sp.diags(free)
        ref = (F @ (0.5 * A) @ F + sp.diags(1.0 - free)).tocsr()
        ref.sort_indices()
        coarse = ref.copy()
        ref.setdiag(ref.diagonal() + free * mass)  # the first step's mass
        for x in np.random.default_rng(n).standard_normal((3, len(mass))):
            assert np.array_equal(system.apply(x), ref @ x)
        assert same_csr(system.cols, (0.5 * A)[:, idx])
        m = free * mass
        for P, op in zip(system.prolong, system.ops[1:]):
            # the next product takes this one in scipy's output order
            coarse = (P.T.tocsr() @ coarse @ P).tocsr()
            m = P.T.tocsr() @ m
            stepped = coarse.sorted_indices()
            stepped.setdiag(stepped.diagonal() + m)
            assert same_csr(op, stepped)

    def test_solve_restores_bare_diagonal(self, monkeypatch):
        # the step's mass sits in H's diagonal only while CG runs: after
        # every step of a solve, and after a CG that fails, H is A/2 exactly
        prob = chain_like_problem(33)
        g, params = prob["u0"].grid, prob["params"]
        A = assemble_stress_matrix(g, params) + face_friction_reference(g, params.kappa)
        built = []

        class Recorded(_CrankNicolsonSystem):
            def solve(self, b, vals, x0):
                out = super().solve(b, vals, x0)
                built.append(np.array_equal(self.ops[0].data, 0.5 * A.data))
                return out

        monkeypatch.setattr(momentum, "_CrankNicolsonSystem", Recorded)
        solve_linear_momentum(dt=0.01, T=0.03, **prob)
        assert built == [True] * 3

        A, idx, mass = slip_operator((17, 17))
        system = _CrankNicolsonSystem(0.5 * A, idx, mass, (17, 17))
        assert not np.array_equal(system.ops[0].data, 0.5 * A.data)  # mass set
        monkeypatch.setattr(momentum, "_CG_TOL", 1e-30)
        with pytest.raises(LinearSolverFailureError):
            system.solve(np.ones(len(mass)), np.zeros(len(idx)), np.zeros(len(mass)))
        assert np.array_equal(system.ops[0].data, 0.5 * A.data)
        assert np.array_equal(system.ops[0].indices, A.indices)

    @pytest.mark.parametrize("shape", [(5, 5), (4, 5)])
    def test_level0_coarsest(self, shape):
        # every axis <= 5 nodes: no coarse level, and level 0 itself is
        # inverted densely, so each PCG step converges in one iteration
        system, mass = slip_system(shape)
        assert len(system.ops) == 1 and not system.prolong
        level0 = level_matrices(system)[0]
        x = np.random.default_rng(5).standard_normal(len(mass))
        assert np.max(np.abs(system.coarsest @ (level0 @ x) - x)) <= 1e-12
        prob = chain_like_problem(shape)
        levels, reports = solve_linear_momentum(dt=0.01, T=0.05, **prob)
        assert all(r.iterations == 1 and r.residual <= 1e-10 for r in reports)
        ref = jacobi_cg_reference(dt=0.01, T=0.05, **prob)
        scale = max(np.max(np.abs(u)) for u in ref)
        gap = max(np.max(np.abs(l.values.ravel() - u)) for l, u in zip(levels, ref))
        assert gap <= 1e-7 * scale

    def test_solve_peak_memory_bounded(self):
        # one fine-level matrix per solve, H = A/2 made in place from K, with
        # level 0 applied from it: the traced peak of a solve is at most 3.6x
        # the stiffness's CSR bytes (4.6x with A and a masked level-0 copy,
        # 7.3x with K, A, A/2 and level 0 all held and bmat's COO detour)
        prob = chain_like_problem(65)
        solve_linear_momentum(dt=0.01, T=0.03, **prob)  # imports, first-use caches
        stiffness = csr_bytes(assemble_stress_matrix(prob["u0"].grid, prob["params"]))
        peak = traced_peak(lambda: solve_linear_momentum(dt=0.01, T=0.03, **prob))
        assert peak <= 3.6 * stiffness, peak / stiffness

    def test_assemble_peak_memory_bounded(self):
        # each Kronecker term and block of the stiffness is freed once it has
        # been used: the traced peak is at most 3.3x the CSR bytes of the
        # matrix returned (3.9x with every term alive while the blocks stack)
        g = Grid((65, 65), (0.0, 0.0), (1.0, 1.0))
        params = FluidParams(mu=0.3, eta=0.1, kappa=1.0, bc="slip")
        stiffness = csr_bytes(assemble_stress_matrix(g, params))
        peak = traced_peak(lambda: assemble_stress_matrix(g, params))
        assert peak <= 3.3 * stiffness, peak / stiffness


class TestReactionWork:
    def test_discrete_identity_closes(self):
        # CN dotted with the midpoint u: kin/dt + u.K u + u.F_fric u
        # - u.load = u.r, where r is the CN residual, nonzero only on the
        # constrained rows (the reaction) once CG has converged
        prob = chain_like_problem(33, kappa=0.5)
        dt = 0.01
        levels, reports = solve_linear_momentum(dt=dt, T=0.05, **prob)
        g = prob["u0"].grid
        fric = face_friction_reference(g, prob["params"].kappa)
        w = g.quadrature_weights().ravel()
        for m, rep in enumerate(reports):
            mid = 0.5 * (levels[m].values + levels[m + 1].values).reshape(2, -1)
            th = (m + 0.5) * dt
            force_work = float(np.sum(w[None, :] * prob["rhs"](th).T * mid))
            terms = [rep.kinetic_change / dt, rep.dissipation,
                     float(mid.ravel() @ (fric @ mid.ravel())),
                     -(force_work + rep.boundary_work), -rep.reaction_work]
            assert abs(rep.reaction_work) > 1e-3  # V.n != 0: the reaction works
            assert abs(sum(terms)) <= 1e-8 * max(abs(x) for x in terms)
