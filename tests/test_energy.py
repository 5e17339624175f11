import re

import numpy as np
import pytest

from nsmove.errors import InvalidArgumentError, NotSameDataError
from nsmove.fields import Field, Grid, _dot
from nsmove.energy import (
    PressureLaw,
    _boundary_friction_rate,
    energy_inequality_residual,
    gronwall_weak_strong_check,
    korn_quotient,
    relative_energy,
    relative_energy_remainder,
    relative_energy_values,
    stress_tensor,
)
from nsmove.momentum import FluidParams
from nsmove.motion import MotionField, advect_flow_map, physical_gradient
from nsmove.trajectory import StateTrajectory

from fixed_domain import fixed_map

LAW_G2 = PressureLaw(gamma=2.0, coeff=1.0)
LAW_G1 = PressureLaw(gamma=1.0, coeff=1.0)


class TestPressureLaw:
    def test_potential_at_one_is_zero(self):
        for law in (LAW_G2, LAW_G1, PressureLaw(gamma=1.4, coeff=2.5)):
            assert law.potential(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_law_closed_form(self):
        # p = rho^2 -> H = rho^2 - rho
        assert LAW_G2.potential(2.0) == pytest.approx(2.0, abs=1e-12)
        rho = np.array([0.5, 1.5, 3.0])
        assert np.allclose(LAW_G2.potential(rho), rho**2 - rho)

    def test_linear_law_closed_form(self):
        # p = rho -> H = rho ln rho
        assert LAW_G1.potential(np.e) == pytest.approx(np.e, rel=1e-12)

    @pytest.mark.parametrize("law", [LAW_G2, LAW_G1])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 5.0])
    def test_pressure_potential_identity(self, law, r):
        # p(r) = r H'(r) - H(r)
        gap = law.p(r) - (r * law.dpotential(r) - law.potential(r))
        assert abs(gap) <= 1e-9

    def test_convexity_fd(self):
        for law in (LAW_G2, LAW_G1, PressureLaw(gamma=1.4, coeff=0.7)):
            h = 1e-5
            for r in (0.4, 1.0, 3.0):
                d2H = (law.potential(r + h) - 2 * law.potential(r)
                       + law.potential(r - h)) / h**2
                assert d2H > 0
                assert d2H == pytest.approx(law.dp(r) / r, rel=1e-4)

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
    @pytest.mark.parametrize("r", [0.3, 2.0, 7.0])
    def test_closed_form_matches_adaptive_quadrature(self, gamma, r):
        from scipy.integrate import quad

        law = PressureLaw(gamma=gamma, coeff=1.3)
        val, _ = quad(lambda z: law.p(z) / z**2, 1.0, r, epsrel=1e-13, limit=200)
        assert law.potential(r) == pytest.approx(r * val, rel=1e-10)

    def test_wrong_closed_form_rejected_at_construction(self, monkeypatch):
        # the Gauss-Legendre check catches a closed form that is off by 1e-6
        right = PressureLaw.potential
        monkeypatch.setattr(PressureLaw, "potential",
                            lambda self, rho: right(self, rho) * (1.0 + 1e-6))
        with pytest.raises(InvalidArgumentError, match="failed validation"):
            PressureLaw(gamma=1.4, coeff=1.0)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            PressureLaw(gamma=0.5)
        with pytest.raises(InvalidArgumentError):
            LAW_G2.potential(-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, shown", [("gamma", "gamma"), ("coeff", "a")])
    def test_non_finite_args_rejected(self, name, shown, bad):
        # NaN passed the sign checks and the Gauss-Legendre self-check, as it
        # compares false; each now names the value
        with pytest.raises(InvalidArgumentError, match=f"{shown}={bad}"):
            PressureLaw(**{name: bad})

    @pytest.mark.parametrize("law", [LAW_G2, LAW_G1])
    @pytest.mark.parametrize("rho", [-1.0, 0.0, np.array([1.0, -0.5])])
    def test_dpotential_needs_positive_density(self, law, rho):
        # H' has the domain of H: a finite value (gamma = 2) or NaN
        # (gamma = 1, a log) at rho <= 0 would be silent garbage
        with pytest.raises(InvalidArgumentError, match="rho > 0"):
            law.dpotential(rho)


class TestRelativeEnergy:
    def test_identical_states_zero(self):
        rho = np.array([1.0, 2.0, 0.5])
        u = np.array([[0.1], [0.2], [-0.3]])
        assert relative_energy(LAW_G2, rho, u, rho, u, np.ones(3)) == 0.0

    def test_hand_value(self):
        # rho = 2, r = 1, u = U = 0, unit measure: H(2) - H'(1) - H(1) = 1
        val = relative_energy(LAW_G2, np.array([2.0]), np.zeros((1, 1)),
                              np.array([1.0]), np.zeros((1, 1)), np.array([1.0]))
        assert val == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("law", [LAW_G2, LAW_G1,
                                     PressureLaw(gamma=1.4, coeff=0.3)])
    def test_nonnegativity_randomized(self, law):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = 20
            rho = rng.uniform(0.05, 5.0, m)
            r = rng.uniform(0.05, 5.0, m)
            u = rng.standard_normal((m, 2))
            U = rng.standard_normal((m, 2))
            vals = relative_energy_values(law, rho, u, r, U)
            assert np.min(vals) >= -1e-12

    def test_quadratic_lower_bound_on_bracket(self):
        # on r/2 < rho < 2r the integrand dominates c(r) (rho - r)^2 with
        # the conservative stand-in c(r) = min p' / (4 r)
        rng = np.random.default_rng(12)
        law = LAW_G2
        for _ in range(50):
            r = rng.uniform(0.2, 3.0)
            rho = rng.uniform(0.5 * r, 2.0 * r)
            c = law.dp(0.5 * r) / (4 * r)
            val = relative_energy_values(law, np.array([rho]),
                                         np.zeros((1, 1)), np.array([r]),
                                         np.zeros((1, 1)))[0]
            assert val >= c * (rho - r)**2 - 1e-12

    def test_reference_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            relative_energy(LAW_G2, np.array([1.0]), np.zeros((1, 1)),
                            np.array([-1.0]), np.zeros((1, 1)), np.array([1.0]))


def _static_trajectory(grid, times, rho_fn, u_fn, flow_map=None):
    """rho_fn and u_fn sampled at the nodes at each level; the default map
    is V = 0's, a fixed domain."""
    rhos, us = [], []
    for t in times:
        rhos.append(Field.from_function(grid, lambda p: rho_fn(t, p), t=t))
        us.append(Field.from_function(grid, lambda p: u_fn(t, p),
                                      t=t, ncomp=grid.dim))
    return StateTrajectory(times, rhos, us, flow_map or fixed_map(grid, times))


class TestStateTrajectory:
    @pytest.mark.parametrize("times", [[], [0.0, 0.2, 0.1], [0.0, 0.1, 0.1]],
                             ids=["empty", "unordered", "repeated"])
    def test_level_times_checked(self, times):
        # out-of-order levels would feed the energy rates negative time
        # steps; no levels at all would be an IndexError
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        rhos = [Field(g, np.ones(g.shape), t) for t in times]
        us = [Field.zeros(g, ncomp=2, t=t) for t in times]
        with pytest.raises(InvalidArgumentError, match="non-empty and increasing"):
            StateTrajectory(times, rhos, us, fixed_map(g, [0.0, 0.1]))

    @pytest.mark.parametrize("part, level", [
        ("rho", Field.zeros(Grid((9, 9), (0.0, 0.0), (1.0, 1.0)), ncomp=2, t=0.1)),
        ("u", Field.zeros(Grid((9, 9), (0.0, 0.0), (1.0, 1.0)), ncomp=1, t=0.1)),
        ("u", Field.zeros(Grid((9, 9), (0.0, 0.0), (2.0, 2.0)), ncomp=2, t=0.1))],
        ids=["vector-rho", "scalar-u", "u-other-grid"])
    def test_level_fields_checked(self, part, level):
        # rho has 1 component and u 2, and every level of both is on one grid
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        levels = {"rho": [Field(g, np.ones(g.shape), t) for t in (0.0, 0.1)],
                  "u": [Field.zeros(g, ncomp=2, t=t) for t in (0.0, 0.1)]}
        levels[part][1] = level
        with pytest.raises(InvalidArgumentError, match=f"{part} level 1 has"):
            StateTrajectory([0.0, 0.1], levels["rho"], levels["u"], fixed_map(g, [0.0, 0.1]))

    @pytest.mark.parametrize("map_grid", [Grid((9, 9), (0.0, 0.0), (2.0, 2.0)),
                                          Grid((17, 17), (0.0, 0.0), (1.0, 1.0))],
                             ids=["other-extent", "other-size"])
    def test_flow_map_on_the_levels_grid(self, map_grid):
        # a map on [0, 2]^2 once put the positions up to 2.0 under unit-square
        # quadrature weights, and a 17 x 17 map failed only at
        # physical_weights with a bare numpy reshape error
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        rhos = [Field(g, np.ones(g.shape), t) for t in (0.0, 0.1)]
        us = [Field.zeros(g, ncomp=2, t=t) for t in (0.0, 0.1)]
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"level 0 has 1 components on {g}; "
                                           f"expected 1 on {map_grid}")):
            StateTrajectory([0.0, 0.1], rhos, us, fixed_map(map_grid, [0.0, 0.1]))


class TestEnergyInequality:
    def test_rest_state_zero_residual(self):
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
        times = np.linspace(0.0, 0.2, 5)
        traj = _static_trajectory(
            g, times, lambda t, p: np.full(len(p), 1.5),
            lambda t, p: np.zeros_like(p))
        rep = energy_inequality_residual(traj, MotionField.zero(), LAW_G2,
                                         FluidParams(mu=0.4, bc="slip"))
        assert rep.max_residual <= 1e-13
        assert np.allclose(rep.total_energy, rep.total_energy[0])

    def test_rigid_translation(self):
        # u = V = c, density transported: dissipation 0, residual ~ 0
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
        c = np.array([0.3, -0.2])
        V = MotionField.translation(c)
        times = np.linspace(0.0, 0.2, 5)
        fm = advect_flow_map(V, g, 0.2, 0.05)
        rho0 = lambda p: 1.0 + 0.2 * np.sin(np.pi * p[:, 0])
        traj = _static_trajectory(
            g, times, lambda t, p: rho0(p),  # reference-sampled: constant rows
            lambda t, p: np.broadcast_to(c, p.shape).copy(), flow_map=fm)
        rep = energy_inequality_residual(traj, V, LAW_G2,
                                         FluidParams(mu=0.4, bc="slip"))
        assert rep.max_residual <= 1e-10
        assert float(rep.dissipation[-1]) <= 1e-12

    def test_static_friction_rate(self):
        # u = (y, x), V = 0, kappa = 2 on [0, 1] x [0, 2]: (u.tau)^2 is 0 on
        # x0 and y0, 1 on x1 (length 2) and 4 on y1 (length 1), so the rate
        # is 2 * (2 + 4) = 12; trapezoid quadrature is exact on constants
        g = Grid((9, 11), (0.0, 0.0), (1.0, 2.0))
        traj = _static_trajectory(g, [0.0], lambda t, p: np.ones(len(p)),
                                  lambda t, p: p[:, ::-1].copy())
        params = FluidParams(mu=0.4, kappa=2.0, bc="slip")
        assert _boundary_friction_rate(traj, MotionField.zero(), params, 0) == 12.0


class TestRemainderTerm:
    def test_identical_steady_states_zero(self):
        g = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
        times = np.linspace(0.0, 0.1, 3)
        traj = _static_trajectory(
            g, times, lambda t, p: np.full(len(p), 2.0),
            lambda t, p: np.zeros_like(p))
        val = relative_energy_remainder(traj, traj, LAW_G2,
                                        FluidParams(mu=0.3, bc="slip"), 1, MotionField.zero())
        assert abs(val) <= 1e-13

    def test_boundary_compatibility_enforced(self):
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        times = np.array([0.0, 0.05, 0.1])
        bad = _static_trajectory(
            g, times, lambda t, p: np.ones(len(p)),
            lambda t, p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1))
        with pytest.raises(InvalidArgumentError):
            relative_energy_remainder(bad, bad, LAW_G2,
                                      FluidParams(mu=0.3, bc="slip"), 1, V=MotionField.zero())

    @pytest.mark.parametrize("offset, admissible", [(1e-7, True), (1e-5, False)])
    def test_boundary_compatibility_on_moving_map(self, offset, admissible):
        # V a dilation: U = V o X is admissible, and a constant offset in
        # u_x breaks U.n = V.n on the x-faces by exactly that offset
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        V = MotionField.dilation(0.3)
        fm = advect_flow_map(V, g, 0.1, 0.05)
        times = np.array([0.0, 0.05, 0.1])
        ref = _static_trajectory(
            g, times, lambda t, p: np.ones(len(p)),
            lambda t, p: V.velocity(t, fm.positions(t)) + [offset, 0.0], flow_map=fm)
        params = FluidParams(mu=0.3, bc="slip")
        if admissible:
            assert np.isfinite(relative_energy_remainder(ref, ref, LAW_G2, params, 1, V=V))
        else:
            with pytest.raises(InvalidArgumentError, match="violates U.n = V.n"):
                relative_energy_remainder(ref, ref, LAW_G2, params, 1, V=V)

    @pytest.mark.parametrize("offset, admissible", [(0.0, True), (1e-3, False)])
    def test_admissibility_on_reference_frame(self, offset, admissible):
        # a resting state on the reference's map: U.n = V.n is judged at the
        # reference's own boundary images, where U = V o X holds exactly
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        V = MotionField.dilation(0.3)
        fm = advect_flow_map(V, g, 0.1, 0.05)
        times = np.array([0.0, 0.05, 0.1])
        state = _static_trajectory(g, times, lambda t, p: np.ones(len(p)),
                                   lambda t, p: np.zeros_like(p), flow_map=fm)
        ref = _static_trajectory(
            g, times, lambda t, p: np.ones(len(p)),
            lambda t, p: V.velocity(t, fm.positions(t)) + [offset, 0.0], flow_map=fm)
        params = FluidParams(mu=0.3, bc="slip")
        if admissible:
            assert np.isfinite(relative_energy_remainder(state, ref, LAW_G2, params, 1, V=V))
        else:
            with pytest.raises(InvalidArgumentError, match="violates U.n = V.n"):
                relative_energy_remainder(state, ref, LAW_G2, params, 1, V=V)

    def test_different_flow_maps_refused(self):
        # a state on a V = 0 map and a reference on the dilation's map: at
        # t = 0.05 their domains are up to 4.5e-3 apart, and the remainder
        # once came back finite
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        V = MotionField.dilation(0.3)
        fm = advect_flow_map(V, g, 0.1, 0.05)
        times = np.array([0.0, 0.05, 0.1])
        still = fixed_map(g, times)
        state = _static_trajectory(g, times, lambda t, p: np.ones(len(p)),
                                   lambda t, p: np.zeros_like(p), flow_map=still)
        ref = _static_trajectory(g, times, lambda t, p: np.ones(len(p)),
                                 lambda t, p: V.velocity(t, fm.positions(t)), flow_map=fm)
        gap = np.max(np.abs(fm.positions(0.05) - still.positions(0.05)))
        with pytest.raises(InvalidArgumentError,
                           match=f"differ at t=0.05: node positions up to {gap:.3e}"):
            relative_energy_remainder(state, ref, LAW_G2, FluidParams(mu=0.3, bc="slip"),
                                      1, V=V)

    @pytest.mark.parametrize("case", ["times", "grid", "m-beyond-both", "m-beyond-reference",
                                      "m-negative"])
    def test_pairs_it_cannot_compare_refused(self, case):
        # on V = 0 maps the time mismatch came back as a silent -0.0010 (the
        # state at t = 0.1 against the reference at t = 0.05), a 17 x 17
        # reference died in numpy's broadcasting and m = 3 in an IndexError
        g = Grid((9, 9), (0.0, 0.0), (1.0, 1.0))
        rho = lambda t, p: 1.0 + 0.1 * np.sin(p[:, 0] + t)
        u = lambda t, p: np.stack([np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]) * (1 + t),
                                   np.zeros(len(p))], axis=1)
        state_times, ref_times, ref_grid, m = [0.0, 0.05, 0.1], [0.0, 0.05, 0.1], g, 1
        if case == "times":
            state_times, ref_times = [0.0, 0.1, 0.2], [0.0, 0.05, 0.1]
            match = re.escape("level 1 is at t=0.1 in the state but t=0.05 in the reference")
        elif case == "grid":
            ref_grid = Grid((17, 17), (0.0, 0.0), (1.0, 1.0))
            match = re.escape(f"state on {g} but reference on {ref_grid}")
        else:
            m = -1 if case == "m-negative" else 3
            if case == "m-beyond-reference":
                state_times = [0.0, 0.05, 0.1, 0.15]
            match = re.escape(f"level m={m} is not stored: the state has {len(state_times)} "
                              "levels, the reference 3")
        state = _static_trajectory(g, np.array(state_times), rho, u)
        ref = _static_trajectory(ref_grid, np.array(ref_times), rho, u)
        with pytest.raises(InvalidArgumentError, match=match):
            relative_energy_remainder(state, ref, LAW_G2, FluidParams(mu=0.3, bc="slip"), m,
                                      V=MotionField.zero())


class TestGronwall:
    def test_identical_trajectories_pass(self):
        times = np.linspace(0, 1, 11)
        out = gronwall_weak_strong_check(times, np.zeros(11),
                                         e0_tol=1e-8, tol_ws=1e-4)
        assert out["verdict"] == "PASS"
        assert out["h_max"] == 0.0
        assert out["slack"] == 0.0

    def test_exponential_growth_fits_h(self):
        times = np.linspace(0, 1, 101)
        e = 1e-6 * np.exp(3.0 * times)
        out = gronwall_weak_strong_check(times, e, e0_tol=1e-5, tol_ws=1.0)
        assert out["verdict"] == "PASS"
        assert out["h_max"] == pytest.approx(3.0, rel=1e-3)
        assert out["slack"] <= 1e-12

    def test_not_same_data(self):
        with pytest.raises(NotSameDataError):
            gronwall_weak_strong_check(np.array([0.0, 1.0]),
                                       np.array([1.0, 1.0]),
                                       e0_tol=1e-6, tol_ws=1.0)

    @pytest.mark.parametrize("times, e", [
        ([0.0, 0.5, 1.0], [0.0, 1e-6]),           # returned PASS
        ([0.0, 0.5], [np.nan, 1e-6]),             # NaN passed the same-data check
        ([0.0, 0.5], [0.0, np.inf]),
        ([], []),                                 # died with an IndexError
        ([0.0, 0.5, 0.5], [0.0, 0.0, 0.0]),
    ], ids=["fewer-energies", "nan-start", "inf", "empty", "repeated-time"])
    def test_refuses_inputs_it_cannot_judge(self, times, e):
        with pytest.raises(InvalidArgumentError):
            gronwall_weak_strong_check(times, e, e0_tol=1e-8, tol_ws=1e-4)

    def test_fail_verdict_above_tolerance(self):
        times = np.linspace(0, 1, 5)
        e = np.array([0.0, 1e-3, 2e-3, 5e-3, 1e-2])
        out = gronwall_weak_strong_check(times, e, e0_tol=1e-8, tol_ws=1e-4)
        assert out["verdict"] == "FAIL"


class TestDiagnostics:
    def test_dissipation_nonnegative_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            gu = np.moveaxis(rng.standard_normal((10, 2, 2)), 0, -1)
            vals = _dot(stress_tensor(gu, mu=0.7, eta=0.2), gu)
            assert np.min(vals) >= -1e-13

    def test_stress_and_dissipation_match_einsum(self):
        # the diagonal-slice forms against the einsum forms they replaced, on
        # random gradients and on the physical gradient of a moving map
        def stress_reference(gu, mu, eta):
            div = np.einsum("pii->p", gu)
            eye = np.eye(gu.shape[-1])
            sym = gu + np.swapaxes(gu, -1, -2)
            return (mu * (sym - (2.0 / 3.0) * div[:, None, None] * eye)
                    + eta * div[:, None, None] * eye)

        rng = np.random.default_rng(41)
        g = Grid((33, 33), (0.0, 0.0), (1.0, 1.0))
        A = np.array([[0.3, 0.4], [0.0, 0.3]])
        fm = advect_flow_map(MotionField.expression(
            lambda t, p: p @ A.T, 2,
            grad_fn=lambda t, p: np.broadcast_to(A, p.shape + (2,)).copy()), g, 0.1, 0.01)
        u = Field.from_function(g, lambda p: np.stack(
            [np.sin(np.pi * p[:, 0]) * p[:, 1], np.cos(np.pi * p[:, 1]) * p[:, 0]], axis=1),
            ncomp=2)
        traj = StateTrajectory([0.0, 0.1], [Field(g, np.ones(g.shape))] * 2, [u, u],
                               flow_map=fm)
        grads = [rng.standard_normal((50, d, d)) for d in (1, 2)]
        grads.append(np.moveaxis(physical_gradient(traj.u[1], traj.frame(1)), -1, 0))
        for gu in grads:
            S_ref = stress_reference(gu, 0.7, 0.2)
            S = np.moveaxis(stress_tensor(np.moveaxis(gu, 0, -1), 0.7, 0.2), -1, 0)
            assert np.max(np.abs(S - S_ref)) <= 1e-12 * np.max(np.abs(S_ref))
            D_ref = np.einsum("pij,pij->p", S_ref, gu)
            D = _dot(stress_tensor(np.moveaxis(gu, 0, -1), 0.7, 0.2), np.moveaxis(gu, 0, -1))
            assert np.max(np.abs(D - D_ref)) <= 1e-12 * np.max(np.abs(D_ref))

    def test_korn_quotient_finite(self):
        g = Grid((33, 33), (0.0, 0.0), (1.0, 1.0))
        # zero normal trace: u.n = 0 on all faces
        z = Field.from_function(
            g, lambda p: np.stack(
                [np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
                 -np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])], axis=1),
            ncomp=2)
        q = korn_quotient(z, FluidParams(mu=1.0, bc="slip"))
        assert 0 < q < 10
