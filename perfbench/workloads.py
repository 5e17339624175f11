"""The benchmark's workloads, composed from nsmove's public functions.

Each workload class builds its inputs from a seed in ``__init__`` (the
set-up), computes its reference in ``reference()`` (outside set-up and
outside the timed op), runs one complete solve in ``op(tracer)`` and checks
that solve's outputs in ``check(out, tracer)``. The seed sets only amplitudes and
phases of smooth Fourier perturbations and the position of the density bump,
so the work per op does not depend on it. Spans are recorded around every
call into a layer and around the benchmark's own callbacks.
"""

from __future__ import annotations

import numpy as np

from nsmove.energy import PressureLaw, energy_inequality_residual
from nsmove.extension import extend_boundary_data
from nsmove.fields import FACE_NORMALS, Field, Grid
from nsmove.lagrangian import (
    lagrangian_remainder,
    pull_back_state,
    transformed_boundary_data,
)
from nsmove.momentum import (
    FluidParams,
    MomentumBC,
    momentum_energy_residual,
    solve_linear_momentum,
)
from nsmove.motion import MotionField, advect_flow_map
from nsmove.trajectory import StateTrajectory
from nsmove.transport import DiscreteVelocity, mass_total, solve_transport

CG_TOL = 1e-10          # solve_linear_momentum's default inner tolerance
MASS_DRIFT_TOL = 1e-10  # relative mass change allowed over a transport solve
TRACE_TOL = 1e-12       # extension normal trace against the datum d


def _unit_square(n):
    return Grid((n, n), (0.0, 0.0), (1.0, 1.0))


def _jitter(rng, base, rel=0.1):
    """``base`` scaled by a seeded factor in [1 - rel, 1 + rel]."""
    return base * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _density_bump(rng):
    """rho0(x) = 1 + 0.5 exp(-|x - c|^2 / (2 0.1^2)), seeded centre c."""
    c = rng.uniform(0.4, 0.6, size=2)

    def rho0(p):
        return 1.0 + 0.5 * np.exp(-np.sum((p - c) ** 2, axis=1) / 0.02)

    return rho0


def _mass_drift(traj, T):
    m0 = mass_total(traj, 0.0)
    return abs(mass_total(traj, T) - m0) / m0


def _momentum_checks(reports, tracer):
    residual = max(r.residual for r in reports)
    iters = [r.iterations for r in reports]
    tracer.set("momentum.cg_iters_per_step", float(np.mean(iters)))
    tracer.set("momentum.cg_iters_max", float(max(iters)))
    tracer.set("momentum.residual_max", residual)
    return residual


def _zero(t, p):
    return np.zeros_like(p)


class ChainMoving:
    """Every layer, in coupled-solver order, on a domain moved by V.

    V = dilation 0.3 + shear 0.4 with analytic derivatives. One op: the
    flow map with Hessian, transport of rho0 by V, pull-back (rho through
    Newton inversion on all nodes, u a seeded perturbation of V), remainder
    and boundary data, extension, slip CN steps with friction forced by the
    remainder, and both energy diagnostics.
    """

    T = 0.1
    dt = 0.01

    def __init__(self, seed, n):
        rng = np.random.default_rng(seed)
        self.grid = _unit_square(n)
        self.V = MotionField.expression(
            self._velocity, 2, dt_fn=_zero, dtt_fn=_zero,
            grad_fn=lambda t, p: np.broadcast_to(
                np.array([[0.3, 0.4], [0.0, 0.3]]), p.shape + (2,)).copy(),
            grad2_fn=lambda t, p: np.zeros(p.shape + (2, 2)),
            grad3_fn=lambda t, p: np.zeros(p.shape + (2, 2, 2)))
        self.rho0 = Field.from_function(self.grid, _density_bump(rng))
        amp = [_jitter(rng, 0.005) for _ in range(2)]
        ph = rng.uniform(0.0, 2 * np.pi, size=2)
        # V is linear, so X(T, z) = exp(AT) z and the inverse is closed form
        y_of_x = np.exp(-0.3 * self.T) * np.array([[1.0, -0.4 * self.T], [0.0, 1.0]])

        def u_phys(x):
            """V plus a perturbation that vanishes on the moving boundary."""
            z = x @ y_of_x.T
            env = np.sin(np.pi * z[:, 0]) * np.sin(np.pi * z[:, 1])
            pert = np.stack([amp[0] * np.cos(np.pi * z[:, 0] + ph[0]),
                             amp[1] * np.cos(np.pi * z[:, 1] + ph[1])], axis=1)
            return self.V.velocity(self.T, x) + env[:, None] * pert

        self.u_phys = u_phys
        self.params = FluidParams(mu=0.3, eta=0.1, kappa=0.5, bc="slip")
        self.law = PressureLaw(gamma=1.4, coeff=1.0)

    @staticmethod
    def _velocity(t, p):
        out = 0.3 * p
        out[..., 0] += 0.4 * p[..., 1]
        return out

    def reference(self):
        """The energy-identity imbalance is computed inside the op."""

    def op(self, tr):
        grid, V, T, dt, params = self.grid, self.V, self.T, self.dt, self.params
        N = grid.num_nodes
        steps = int(round(T / dt))
        with tr.span("motion.advect"):
            fm = advect_flow_map(V, grid, T, dt, with_hessian=True)
        tr.add("motion.advect_node_steps", N * steps)
        tr.set("motion.flowmap_mb", (fm.X.nbytes + fm.J.nbytes + fm.H.nbytes) / 2**20)

        with tr.span("transport.solve"):
            traj = solve_transport(self.rho0, V, T, dt)
        tr.add("transport.node_steps", N * steps)

        def rho_phys(x):
            with tr.span("motion.invert"):
                vals, _ = traj.eval_physical(T, x)
            tr.add("motion.invert_points", len(x))
            return vals

        def u_phys(x):
            with tr.span("bench.u_callback"):
                return self.u_phys(x)

        with tr.span("lagrangian.pull_back"):
            rho_ref, u_ref = pull_back_state(rho_phys, u_phys, fm, T)
        with tr.span("lagrangian.remainder"):
            rhs = lagrangian_remainder(rho_ref, u_ref, fm, V, T, params)
        with tr.span("lagrangian.boundary_data"):
            bdata = transformed_boundary_data(u_ref, V, fm, T, params)
        with tr.span("extension.extend"):
            ext = extend_boundary_data(bdata, grid, u_ref=u_ref, V=V,
                                       flow_map=fm, params=params)

        force = rhs.total.values.reshape(2, -1).T
        bc = MomentumBC.slip(V.velocity,
                             normal_datum=lambda t, face: bdata.normal(face),
                             stress_datum=lambda t, face: bdata.stress(face))

        def rho_cb(t):
            with tr.span("bench.rho_callback"):
                return traj.density_field(t).values.ravel()

        def rhs_cb(t):
            with tr.span("bench.rhs_callback"):
                return force

        with tr.span("momentum.solve"):
            levels, reports = solve_linear_momentum(
                rho_cb, rhs_cb, bc, u_ref, params, dt, T)
        times = np.linspace(0.0, T, steps + 1)
        with tr.span("momentum.energy_residual"):
            records = momentum_energy_residual(levels, times, rho_cb, rhs_cb,
                                               params, bc=bc)
        with tr.span("energy.residual"):
            state = StateTrajectory(times, [traj.density_field(t) for t in times],
                                    levels, flow_map=fm)
            energy = energy_inequality_residual(state, V, self.law, params)
        return {"traj": traj, "rho_ref": rho_ref, "bdata": bdata, "ext": ext,
                "reports": reports, "records": records, "energy": energy}

    def check(self, out, tr):
        """(ref_err, {check name: passed})."""
        drift = _mass_drift(out["traj"], self.T)
        tr.set("transport.mass_drift_rel", drift)
        residual = _momentum_checks(out["reports"], tr)
        ref_err = max(abs(r["imbalance"]) for r in out["records"])
        min_rho = min(out["traj"].min_density(self.T),
                      float(np.min(out["rho_ref"].values)))
        return ref_err, {
            "mass_drift": drift <= MASS_DRIFT_TOL,
            "cg_residual": residual <= 10 * CG_TOL,
            "extension_normal_trace": self._trace_gap(out) <= TRACE_TOL,
            "min_rho": min_rho > 0.0,
            "energy_finite": bool(np.all(np.isfinite(out["energy"].residual))),
        }

    def _trace_gap(self, out):
        """Largest |u^b . n - d| over face nodes outside the corner collars.

        The faces' extensions blend where two collars overlap, so the trace
        is exact only at face nodes at least 2 eps from the other faces.
        """
        grid, ext = self.grid, out["ext"]
        vals = ext.field.values.reshape(2, -1).T
        s = grid.axis_coords(0)
        mid = (s >= 2 * ext.eps - 1e-12) & (s <= 1.0 - 2 * ext.eps + 1e-12)
        gap = 0.0
        for face in grid.face_names:
            flat = np.ravel_multi_index(grid.face_index(face, closed=True), grid.shape)
            trace = vals[flat] @ FACE_NORMALS[face]
            d = np.asarray(out["bdata"].normal(face))
            gap = max(gap, float(np.max(np.abs(trace - d)[mid])))
        return gap


class _SeparableVelocity:
    """u(t, x) = A (1 + t) (sin(pi x) F(y), sin(pi y) G(x)).

    F and G are 1 plus seeded cosine series. u . n = 0 on every face, so
    characteristics stay in the square; div u is nonzero. Provides the
    analytic value, gradient and second gradient.
    """

    A = 0.3

    def __init__(self, rng):
        self.kf = np.array([1.0, 2.0])
        self.af = np.array([_jitter(rng, a) for a in (0.05, 0.02)])
        self.pf = rng.uniform(0.0, 2 * np.pi, size=2)
        self.ag = np.array([_jitter(rng, a) for a in (0.05, 0.02)])
        self.pg = rng.uniform(0.0, 2 * np.pi, size=2)

    def _series(self, s, a, ph):
        """1 + sum a_k cos(k pi s + ph_k) and its first two derivatives."""
        arg = np.pi * self.kf * s[..., None] + ph
        kp = np.pi * self.kf
        return (1.0 + np.sum(a * np.cos(arg), axis=-1),
                -np.sum(a * kp * np.sin(arg), axis=-1),
                -np.sum(a * kp**2 * np.cos(arg), axis=-1))

    def _parts(self, t, p):
        x, y = p[..., 0], p[..., 1]
        F = self._series(y, self.af, self.pf)
        G = self._series(x, self.ag, self.pg)
        return self.A * (1.0 + t), x, y, F, G

    def velocity(self, t, p):
        s, x, y, F, G = self._parts(t, p)
        return s * np.stack([np.sin(np.pi * x) * F[0],
                             np.sin(np.pi * y) * G[0]], axis=-1)

    def gradient(self, t, p):
        s, x, y, F, G = self._parts(t, p)
        pi = np.pi
        g = np.empty(p.shape + (2,))
        g[..., 0, 0] = s * pi * np.cos(pi * x) * F[0]
        g[..., 0, 1] = s * np.sin(pi * x) * F[1]
        g[..., 1, 0] = s * np.sin(pi * y) * G[1]
        g[..., 1, 1] = s * pi * np.cos(pi * y) * G[0]
        return g

    def gradient2(self, t, p):
        s, x, y, F, G = self._parts(t, p)
        pi = np.pi
        g = np.empty(p.shape + (2, 2))
        g[..., 0, 0, 0] = -s * pi**2 * np.sin(pi * x) * F[0]
        g[..., 0, 0, 1] = g[..., 0, 1, 0] = s * pi * np.cos(pi * x) * F[1]
        g[..., 0, 1, 1] = s * np.sin(pi * x) * F[2]
        g[..., 1, 0, 0] = s * np.sin(pi * y) * G[2]
        g[..., 1, 0, 1] = g[..., 1, 1, 0] = s * pi * np.cos(pi * y) * G[1]
        g[..., 1, 1, 1] = -s * pi**2 * np.sin(pi * y) * G[0]
        return g

    def motion(self):
        return MotionField.expression(
            self.velocity, 2, grad_fn=self.gradient, grad2_fn=self.gradient2)


class TransportStatic:
    """DiscreteVelocity on a static grid against the analytic field.

    11 velocity levels sampled from a seeded smooth divergent field; one op
    builds the DiscreteVelocity and transports rho0 with 10 RK4 steps. The
    reference transports the same rho0 with the analytic field.
    """

    T = 0.1
    dt = 0.01

    def __init__(self, seed, n):
        rng = np.random.default_rng(seed)
        self.grid = grid = _unit_square(n)
        self.rho0 = Field.from_function(grid, _density_bump(rng))
        self.field = _SeparableVelocity(rng)
        self.times = np.linspace(0.0, self.T, int(round(self.T / self.dt)) + 1)
        self.levels = [Field.from_function(grid, lambda p, t=t: self.field.velocity(t, p),
                                           t=t, ncomp=2) for t in self.times]

    def reference(self):
        ref = solve_transport(self.rho0, self.field.motion(), self.T, self.dt)
        self.exact = ref.density_field(self.T).values

    def op(self, tr):
        with tr.span("transport.solve"):
            dv = DiscreteVelocity(self.times, self.levels)
            traj = solve_transport(self.rho0, dv, self.T, self.dt)
        tr.add("transport.node_steps", self.grid.num_nodes * (len(self.times) - 1))
        return {"traj": traj}

    def check(self, out, tr):
        traj = out["traj"]
        drift = _mass_drift(traj, self.T)
        tr.set("transport.mass_drift_rel", drift)
        rho = traj.density_field(self.T).values
        ref_err = float(np.max(np.abs(rho - self.exact)))
        return ref_err, {
            "mass_drift": drift <= MASS_DRIFT_TOL,
            "min_rho": float(np.min(rho)) > 0.0,
        }


WORKLOADS = {
    "chain_moving": ChainMoving,
    "transport_static": TransportStatic,
}
