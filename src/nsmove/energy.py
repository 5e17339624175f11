"""Isentropic pressure law and potential, energy balance, relative energy,
Gronwall check.

The pressure potential is the convex function with p(r) = r H'(r) - H(r) and
H(1) = 0; the relative energy combines the kinetic difference with the
Bregman divergence of H and vanishes iff the two states coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotSameDataError, PositivityViolationError
from .fields import _contract, _dot, _trace, _trapezoid_weights, gradient_values, level_times
from .motion import physical_gradient


def _potential_gauss_legendre(p, rho):
    """H(rho) = rho * int_1^rho p(z)/z^2 dz by the 32-node Gauss-Legendre rule."""
    x, w = np.polynomial.legendre.leggauss(32)
    z = 1.0 + 0.5 * (rho - 1.0) * (x + 1.0)
    return rho * 0.5 * (rho - 1.0) * np.dot(w, p(z) / z**2)


def _positive(rho):
    """rho as a float array, which must be > 0 where the potential is taken."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise InvalidArgumentError("pressure potential requires rho > 0")
    return rho


class PressureLaw:
    """Isentropic pressure p = a rho^gamma (gamma >= 1, a > 0) with its
    potential H and p', all in closed form.

    The closed-form H is checked at construction against H(2) from a
    32-node Gauss-Legendre rule (rel. tol 1e-8). This is the law for which
    weak solutions on moving slip domains are built (Feireisl, Kreml,
    Necasova, Neustupa & Stebel, J. Differential Equations 254, 2013), the
    solutions that the weak-strong uniqueness result compares against.
    """

    def __init__(self, *, gamma=2.0, coeff=1.0):
        if not (1 <= gamma < np.inf and 0 < coeff < np.inf):   # NaN fails too
            raise InvalidArgumentError("isentropic law needs finite gamma >= 1, a > 0; "
                                       f"got gamma={gamma}, a={coeff}")
        self.gamma = float(gamma)
        self.coeff = float(coeff)
        ref = _potential_gauss_legendre(self.p, 2.0)
        if abs(self.potential(2.0) - ref) > 1e-8 * max(1.0, abs(ref)):
            raise InvalidArgumentError("closed-form potential failed validation")

    def p(self, rho):
        return self.coeff * np.asarray(rho, dtype=float)**self.gamma

    def dp(self, rho):
        return self.coeff * self.gamma * np.asarray(rho, dtype=float)**(self.gamma - 1.0)

    def potential(self, rho):
        """H(rho) = rho * int_1^rho p(z)/z^2 dz."""
        rho, a, g = _positive(rho), self.coeff, self.gamma
        if g == 1.0:
            return a * rho * np.log(rho)
        return a * (rho**g - rho) / (g - 1.0)

    def dpotential(self, rho):
        """H'(rho); satisfies p = rho H' - H."""
        rho, a, g = _positive(rho), self.coeff, self.gamma
        if g == 1.0:
            return a * (np.log(rho) + 1.0)
        return a * (g * rho**(g - 1.0) - 1.0) / (g - 1.0)


def stress_tensor(grad_u, mu, eta=0.0):
    """Newtonian stress rows S[i, j] from the rows grad_u[i, j] = du_i/dx_j.

    S : grad u is mu/2 |grad u + grad^T u - 2/3 div I|^2 + eta div^2 only in
    3D; in 2D the deviator has nonzero trace, so the dissipation is the
    contraction ``_dot(S, grad_u)`` directly. Nonnegative in d <= 3."""
    out = np.add(grad_u, grad_u.transpose(1, 0, 2), out=np.empty(grad_u.shape))
    out *= mu
    bulk = (eta - (2.0 / 3.0) * mu) * _trace(grad_u)
    for i in range(len(grad_u)):
        out[i, i] += bulk
    return out


def relative_energy_values(law, rho, u, r, U):
    """Pointwise integrand 0.5 rho |u-U|^2 + H(rho) - H'(r)(rho-r) - H(r)."""
    rho = np.asarray(rho, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise InvalidArgumentError("reference density must be positive")
    kin = 0.5 * rho * np.sum((np.asarray(u) - np.asarray(U))**2, axis=-1)
    return kin + law.potential(rho) - law.dpotential(r) * (rho - r) - law.potential(r)


def relative_energy(law, rho, u, r, U, weights):
    """Quadrature of the relative-energy integrand over the current domain."""
    vals = relative_energy_values(law, rho, u, r, U)
    return float(np.sum(np.asarray(weights).ravel() * vals))


@dataclass
class EnergyReport:
    times: np.ndarray
    total_energy: np.ndarray
    dissipation: np.ndarray        # cumulative in time
    residual: np.ndarray           # LHS - RHS of the energy inequality

    @property
    def max_residual(self):
        return float(np.max(np.abs(self.residual)))


def energy_inequality_residual(traj, V, law, params):
    """Both sides of the energy balance on the moving domain, per level.

    LHS(tau) = E_tot(tau) + int_0^tau int S(grad u):grad u (+ kappa friction
    for slip runs); RHS(tau) = E_tot(0) + momentum.V endpoint terms + the
    four-term time integral. Residual = LHS - RHS, expected at discretization
    size for trajectories produced by the solvers.
    """
    M = len(traj)
    d = traj.grid.dim
    mu, eta = params.mu, params.eta
    E = np.zeros(M)
    diss_rate = np.zeros(M)
    fric_rate = np.zeros(M)
    pV = np.zeros(M)
    rhs_rate = np.zeros(M)
    for m in range(M):
        # every per-node tensor as component rows over the nodes
        t = traj.times[m]
        w = traj.physical_weights(m).ravel()
        rho = traj.rho[m].values[0].ravel()
        u = traj.u[m].values.reshape(d, -1)
        gu = physical_gradient(traj.u[m], traj.frame(m))
        E[m] = float(np.sum(w * (0.5 * rho * _dot(u, u) + law.potential(rho))))
        S = stress_tensor(gu, mu, eta)
        diss_rate[m] = float(np.sum(w * _dot(S, gu)))
        pos = traj.positions(m)
        Vv = V.velocity(t, pos).T
        dtV = V.dt_velocity(t, pos).T
        gV = np.moveaxis(V.gradient(t, pos), 0, -1)
        rho_u = rho * u
        rhs_rate[m] = float(np.sum(w * (
            _dot(S, gV)
            - _dot(rho_u, dtV)
            - _dot(rho_u, _contract(gV, u[:, None])[:, 0])     # convection
            - law.p(rho) * _trace(gV)
        )))
        pV[m] = float(np.sum(w * _dot(rho_u, Vv)))
        if params.bc == "slip" and params.kappa > 0:
            fric_rate[m] = _boundary_friction_rate(traj, V, params, m)
    diss_cum = _cumtrapz(diss_rate, traj.times)
    fric_cum = _cumtrapz(fric_rate, traj.times)
    rhs_cum = _cumtrapz(rhs_rate, traj.times)
    lhs = E + diss_cum + fric_cum
    rhs = E[0] + pV - pV[0] + rhs_cum
    return EnergyReport(traj.times.copy(), E, diss_cum, lhs - rhs)


def _boundary_friction_rate(traj, V, params, m):
    """kappa times the line integral of ((u - V).tau)^2 over the boundary at
    level m, with trapezoid weights from the node images' arc lengths."""
    t = traj.times[m]
    frame = traj.frame(m)
    uvals = traj.u[m].values.reshape(traj.grid.dim, -1).T
    total = 0.0
    for flat, _, tau in frame.faces.values():
        pos = frame.X[flat]
        wline = _trapezoid_weights(np.linalg.norm(np.diff(pos, axis=0), axis=1))
        ut = np.sum((uvals[flat] - V.velocity(t, pos)) * tau, axis=1)
        total += float(np.sum(wline * params.kappa * ut**2))
    return total


def _cumtrapz(rates, times):
    out = np.zeros_like(rates)
    if len(rates) > 1:
        dt = np.diff(times)
        out[1:] = np.cumsum(0.5 * dt * (rates[1:] + rates[:-1]))
    return out


_ADMISSIBLE_GAP = 1e-6  # largest |U.n - V.n| on the boundary of a reference U


def relative_energy_remainder(state, reference, law, params, m, V):
    """Quadrature of the remainder driving the relative energy inequality.

    Terms: rho (dt U + u.grad U).(U - u) + S(grad U):(grad U - grad u)
    + div U (p(r) - p(rho)) + (r - rho) dt H'(r) + (r U - rho u).grad H'(r),
    over Omega_t at level m. Level m must be stored in both trajectories, at
    one time on one grid, and the two flow maps must place the nodes at the
    same positions there; the reference must satisfy U.n = V.n on its
    frame's boundary within ``_ADMISSIBLE_GAP`` (test-function
    admissibility). Anything else raises :class:`InvalidArgumentError`; a
    state density below 0 raises :class:`PositivityViolationError`. The
    reference's time derivatives are differences over its stored levels:
    central inside, one-sided and first order at the first and last level.
    """
    if not 0 <= m < min(len(state), len(reference)):
        raise InvalidArgumentError(
            f"level m={m} is not stored: the state has {len(state)} levels, "
            f"the reference {len(reference)}")
    if state.grid != reference.grid:
        raise InvalidArgumentError(
            f"state on {state.grid} but reference on {reference.grid}")
    t = reference.times[m]
    if abs(state.times[m] - t) > 1e-12 * max(1.0, abs(t)):
        raise InvalidArgumentError(
            f"level {m} is at t={state.times[m]} in the state but t={t} in the reference")
    d = state.grid.dim
    w = state.physical_weights(m).ravel()
    rho = state.rho[m].values[0].ravel()
    u = state.u[m].values.reshape(d, -1)
    r = reference.rho[m].values[0].ravel()
    U = reference.u[m].values.reshape(d, -1)
    low = int(np.argmin(rho))
    if not rho[low] >= 0:   # vacuum, rho = 0, is admissible on the weak side
        z = state.grid.node_coords()[low]
        raise PositivityViolationError(
            f"state density {rho[low]:.3e} is not >= 0 at t={t}, z={z}", t=t, z=z)
    if np.any(r <= 0):
        raise InvalidArgumentError("reference density must be positive")
    frame = reference.frame(m)
    gap = float(np.max(np.abs(state.positions(m) - frame.X)))
    if gap > 0.0:
        raise InvalidArgumentError(
            f"state and reference domains differ at t={t}: "
            f"node positions up to {gap:.3e} apart")
    worst = 0.0
    for flat, n, _ in frame.faces.values():
        gap = _dot(U[:, flat] - V.velocity(t, frame.X[flat]).T, n.T)
        worst = max(worst, float(np.max(np.abs(gap))))
    if worst > _ADMISSIBLE_GAP:
        raise InvalidArgumentError(
            f"reference velocity violates U.n = V.n by {worst:.3e}")

    gU = physical_gradient(reference.u[m], frame)
    grad_r = physical_gradient(reference.rho[m], frame)[0]
    # FD in time of reference-sampled fields gives the material derivative
    # along the map's velocity; convert to the Eulerian time derivative.
    Vv = V.velocity(t, frame.X).T
    dtU = (_time_derivative_fields(reference.u, reference.times, m)
           - _contract(gU, Vv[:, None])[:, 0])
    dtr = _time_derivative_fields(reference.rho, reference.times, m)[0] - _dot(Vv, grad_r)

    term1 = rho * _dot(dtU + _contract(gU, u[:, None])[:, 0], U - u)
    gu = physical_gradient(state.u[m], state.frame(m))
    term2 = _dot(stress_tensor(gU, params.mu, params.eta), gU - gu)
    term3 = _trace(gU) * (law.p(r) - law.p(rho))
    # dt H'(r) and grad H'(r) via the chain rule, H''(r) = p'(r)/r
    H2 = law.dp(r) / r
    term4 = (r - rho) * H2 * dtr
    term5 = _dot(r * U - rho * u, H2 * grad_r)
    return float(np.sum(w * (term1 + term2 + term3 + term4 + term5)))


def _time_derivative_fields(fields, times, m):
    """d/dt of the level fields at level m, rows (ncomp, N): central inside,
    one-sided at the first and last level, zero for a single level."""
    c = fields[0].ncomp
    if len(fields) == 1:
        return np.zeros((c, fields[0].grid.num_nodes))
    lo, hi = max(m - 1, 0), min(m + 1, len(fields) - 1)
    return ((fields[hi].values - fields[lo].values) / (times[hi] - times[lo])).reshape(c, -1)


def korn_quotient(z_field, params):
    """||z||_{W^{1,2}} / ||S(grad z)||_{L^2} for a zero-normal-trace field on
    the reference grid.

    The printed Korn inequality fails for rigid rotations without side
    conditions; this diagnostic is only meaningful for differences with
    vanishing normal trace, which is how the uniqueness argument uses it.
    """
    d = z_field.grid.dim
    gu = gradient_values(z_field)
    w = z_field.grid.quadrature_weights().ravel()
    S = stress_tensor(gu, params.mu, params.eta)
    s_norm = np.sqrt(np.sum(w * _dot(S, S)))
    z = z_field.values.reshape(d, -1)
    w12 = np.sqrt(np.sum(w * (_dot(z, z) + _dot(gu, gu))))
    return float(w12 / s_norm) if s_norm > 0 else np.inf


def gronwall_weak_strong_check(times, e_rel, *, e0_tol, tol_ws):
    """Fit the minimal pointwise h >= 0 with E(tau) <= E(0) exp(int h) + slack.

    h on each interval is the log-difference quotient clipped at zero;
    verdict PASS iff the slack is within tolerance and E stays below tol_ws.
    The times must increase and E_rel hold one finite value per time, else
    :class:`InvalidArgumentError`; same-initial-data, E(0) <= e0_tol, is
    required too.
    """
    times = level_times(times)
    e = np.asarray(e_rel, dtype=float)
    if e.shape != times.shape or not np.all(np.isfinite(e)):
        raise InvalidArgumentError(
            f"need one finite E_rel per time: {len(times)} times, E_rel = {e}")
    if e[0] > e0_tol:
        raise NotSameDataError(
            f"E_rel(0) = {e[0]:.3e} exceeds the same-data threshold {e0_tol:.3e}")
    tiny = 1e-300
    h = np.zeros(len(e) - 1)
    for i in range(len(h)):
        dt = times[i + 1] - times[i]
        if e[i] > tiny and e[i + 1] > tiny:
            h[i] = max(0.0, np.log(e[i + 1] / e[i]) / dt)
    env = np.empty_like(e)
    env[0] = e[0]
    for i in range(len(h)):
        env[i + 1] = env[i] * np.exp(h[i] * (times[i + 1] - times[i]))
    slack = float(np.max(np.maximum(e - env, 0.0)))
    verdict = "PASS" if (slack <= tol_ws and float(np.max(e)) <= tol_ws) else "FAIL"
    return {
        "h_max": float(np.max(h)) if len(h) else 0.0,
        "slack": slack,
        "max_relative_energy": float(np.max(e)),
        "tolerance": float(tol_ws),
        "verdict": verdict,
    }
