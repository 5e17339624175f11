"""Pressure law and potential, energy balance, relative energy, Gronwall check.

The pressure potential is the convex function with p(r) = r H'(r) - H(r) and
H(1) = 0; the relative energy combines the kinetic difference with the
Bregman divergence of H and vanishes iff the two states coincide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import InvalidArgumentError, NotSameDataError
from .fields import gradient_values
from .motion import physical_gradient


class PressureLaw:
    """Barotropic pressure p(rho) with potential H and p' evaluators.

    Isentropic laws p = a rho^gamma (gamma >= 1, a > 0) use closed forms,
    validated against quadrature once at construction; user laws supply
    callables and fall back to adaptive quadrature for H (rel. tol 1e-10).
    An optional artificial-pressure add-on delta * rho^beta is kept apart
    from the base law: ``p_total`` and ``potential_total`` include it,
    ``p``, ``dp`` and ``potential`` do not.
    """

    def __init__(self, kind="isentropic", *, gamma=2.0, coeff=1.0,
                 p_fn=None, dp_fn=None, delta=0.0, beta=4.0):
        self.kind = kind
        self.delta = float(delta)
        self.beta = float(beta)
        if delta < 0 or (delta > 0 and beta < 2):
            raise InvalidArgumentError("artificial pressure needs delta >= 0, beta >= 2")
        if kind == "isentropic":
            if gamma < 1 or coeff <= 0:
                raise InvalidArgumentError("isentropic law needs gamma >= 1, a > 0")
            self.gamma = float(gamma)
            self.coeff = float(coeff)
            self._p = lambda r: self.coeff * r**self.gamma
            self._dp = lambda r: self.coeff * self.gamma * r**(self.gamma - 1.0)
            ref = self._potential_quadrature(2.0)
            if abs(self.potential(2.0) - ref) > 1e-8 * max(1.0, abs(ref)):
                raise InvalidArgumentError("closed-form potential failed validation")
        elif kind == "user":
            if p_fn is None or dp_fn is None:
                raise InvalidArgumentError("user law requires p and p' callables")
            self.gamma = None
            self.coeff = None
            self._p = p_fn
            self._dp = dp_fn
        else:
            raise InvalidArgumentError(f"unknown pressure-law kind {kind!r}")

    def p(self, rho):
        return self._p(np.asarray(rho, dtype=float))

    def dp(self, rho):
        return self._dp(np.asarray(rho, dtype=float))

    def _potential_quadrature(self, rho):
        val, _ = quad(lambda z: self._p(z) / z**2, 1.0, rho, epsrel=1e-10, limit=200)
        return rho * val

    def potential(self, rho):
        """H(rho) = rho * int_1^rho p(z)/z^2 dz; closed form when isentropic."""
        rho_arr = np.asarray(rho, dtype=float)
        if np.any(rho_arr <= 0):
            raise InvalidArgumentError("pressure potential requires rho > 0")
        if self.kind == "isentropic":
            a, g = self.coeff, self.gamma
            if g == 1.0:
                return a * rho_arr * np.log(rho_arr)
            return a * (rho_arr**g - rho_arr) / (g - 1.0)
        flat = np.atleast_1d(rho_arr).ravel()
        out = np.array([self._potential_quadrature(r) for r in flat])
        return out.reshape(rho_arr.shape) if rho_arr.shape else float(out[0])

    def dpotential(self, rho):
        """H'(rho); satisfies p = rho H' - H."""
        rho_arr = np.asarray(rho, dtype=float)
        if self.kind == "isentropic":
            a, g = self.coeff, self.gamma
            if g == 1.0:
                return a * (np.log(rho_arr) + 1.0)
            return a * (g * rho_arr**(g - 1.0) - 1.0) / (g - 1.0)
        return self.potential(rho_arr) / rho_arr + self.p(rho_arr) / rho_arr

    def p_total(self, rho):
        """Base pressure plus the artificial add-on delta rho^beta."""
        rho_arr = np.asarray(rho, dtype=float)
        out = self.p(rho_arr)
        if self.delta > 0:
            out = out + self.delta * rho_arr**self.beta
        return out

    def potential_total(self, rho):
        rho_arr = np.asarray(rho, dtype=float)
        out = self.potential(rho_arr)
        if self.delta > 0:
            out = out + self.delta * (rho_arr**self.beta - rho_arr) / (self.beta - 1.0)
        return out


def stress_tensor(grad_u, mu, eta=0.0):
    """Newtonian stress from grad u of shape (N, d, d)."""
    div = np.einsum("pii->p", grad_u)
    d = grad_u.shape[-1]
    eye = np.eye(d)
    sym = grad_u + np.swapaxes(grad_u, -1, -2)
    return mu * (sym - (2.0 / 3.0) * div[:, None, None] * eye) \
        + eta * div[:, None, None] * eye


def dissipation_density(grad_u, mu, eta=0.0):
    """S(grad u) : grad u, pointwise.

    Equals mu/2 |grad u + grad^T u - 2/3 div I|^2 + eta div^2 only in 3D; in
    the 1D/2D reductions used here the deviator has nonzero trace, so the
    contraction is evaluated directly. Nonnegative in d <= 3.
    """
    return np.einsum("pij,pij->p", stress_tensor(grad_u, mu, eta), grad_u)


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
    relative_energy: np.ndarray | None = None
    gronwall: dict | None = None

    @property
    def max_residual(self):
        return float(np.max(np.abs(self.residual)))

    def to_json(self):
        series = []
        for i, t in enumerate(self.times):
            series.append([
                float(t),
                float(self.total_energy[i]),
                float(self.dissipation[i]),
                None if self.relative_energy is None else float(self.relative_energy[i]),
                float(self.residual[i]),
            ])
        return json.dumps({"series": series, "gronwall": self.gronwall}, indent=1)


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
        t = traj.times[m]
        w = traj.physical_weights(m).ravel()
        rho = traj.rho[m].values[0].ravel()
        u = traj.u[m].values.reshape(d, -1).T
        gu = traj.physical_velocity_gradient(m)
        E[m] = float(np.sum(w * (0.5 * rho * np.sum(u**2, axis=1)
                                 + law.potential_total(rho))))
        diss_rate[m] = float(np.sum(w * dissipation_density(gu, mu, eta)))
        pos = traj.positions(m)
        Vv = V.velocity(t, pos)
        dtV = V.dt_velocity(t, pos)
        gV = V.gradient(t, pos)
        S = stress_tensor(gu, mu, eta)
        rho_u = rho[:, None] * u
        conv = np.einsum("pi,pj,pij->p", rho_u, u, gV)
        rhs_rate[m] = float(np.sum(w * (
            np.einsum("pij,pij->p", S, gV)
            - np.sum(rho_u * dtV, axis=1)
            - conv
            - law.p_total(rho) * np.einsum("pii->p", gV)
        )))
        pV[m] = float(np.sum(w * np.sum(rho_u * Vv, axis=1)))
        if params.bc == "slip" and params.kappa > 0 and d == 2:
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
    pos_all = traj.positions(m)
    uvals = traj.u[m].values.reshape(traj.grid.dim, -1).T
    total = 0.0
    for face in traj.grid.faces().values():
        pos = pos_all[face.flat]
        tau = face.tangent if frame is None else frame.faces[face.name][2]
        dl = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        wline = np.zeros(len(pos))
        wline[:-1] += 0.5 * dl
        wline[1:] += 0.5 * dl
        ut = np.sum((uvals[face.flat] - V.velocity(t, pos)) * tau, axis=1)
        total += float(np.sum(wline * params.kappa * ut**2))
    return total


def _cumtrapz(rates, times):
    out = np.zeros_like(rates)
    if len(rates) > 1:
        dt = np.diff(times)
        out[1:] = np.cumsum(0.5 * dt * (rates[1:] + rates[:-1]))
    return out


def relative_energy_remainder(state, reference, law, params, m, V=None,
                              bc_tol=1e-6):
    """Quadrature of the remainder driving the relative energy inequality.

    Terms: rho (dt U + u.grad U).(U - u) + S(grad U):(grad U - grad u)
    + div U (p(r) - p(rho)) + (r - rho) dt H'(r) + (r U - rho u).grad H'(r),
    over Omega_t at level m. The reference must satisfy U.n = V.n on the
    boundary within ``bc_tol`` (test-function admissibility); its time
    derivatives come from central differences over the stored levels.
    """
    d = state.grid.dim
    w = state.physical_weights(m).ravel()
    rho = state.rho[m].values[0].ravel()
    u = state.u[m].values.reshape(d, -1).T
    r = reference.rho[m].values[0].ravel()
    U = reference.u[m].values.reshape(d, -1).T
    if np.any(r <= 0):
        raise InvalidArgumentError("reference density must be positive")
    if V is not None and state.flow_map is not None and d == 2:
        t = state.times[m]
        frame = state.frame(m)
        worst = 0.0
        for flat, n, _ in frame.faces.values():
            gap = np.einsum("pi,pi->p", U[flat] - V.velocity(t, frame.X[flat]), n)
            worst = max(worst, float(np.max(np.abs(gap))))
        if worst > bc_tol:
            raise InvalidArgumentError(
                f"reference velocity violates U.n = V.n by {worst:.3e}")

    gU = reference.physical_velocity_gradient(m)
    grad_r = _physical_scalar_gradient(reference, m)
    # FD in time of reference-sampled fields gives the material derivative
    # along the map's velocity; convert to the Eulerian time derivative.
    dtU = _time_derivative_fields(reference.u, reference.times, m)
    dtr = _time_derivative_fields(reference.rho, reference.times, m)[:, 0]
    if reference.flow_map is not None and V is not None:
        pos = reference.positions(m)
        Vv = V.velocity(reference.times[m], pos)
        dtU = dtU - np.einsum("pj,pij->pi", Vv, gU)
        dtr = dtr - np.einsum("pi,pi->p", Vv, grad_r)

    adv = np.einsum("pj,pij->pi", u, gU)
    term1 = rho * np.einsum("pi,pi->p", dtU + adv, U - u)
    gu = state.physical_velocity_gradient(m)
    SU = stress_tensor(gU, params.mu, params.eta)
    term2 = np.einsum("pij,pij->p", SU, gU - gu)
    divU = np.einsum("pii->p", gU)
    term3 = divU * (law.p(r) - law.p(rho))
    # dt H'(r) and grad H'(r) via the chain rule, H''(r) = p'(r)/r
    H2 = law.dp(r) / r
    term4 = (r - rho) * H2 * dtr
    gradHp = H2[:, None] * grad_r
    term5 = np.einsum("pi,pi->p", r[:, None] * U - rho[:, None] * u, gradHp)
    return float(np.sum(w * (term1 + term2 + term3 + term4 + term5)))


def _time_derivative_fields(fields, times, m):
    d = fields[0].values.shape[0]
    if len(fields) == 1:
        return np.zeros((fields[0].grid.num_nodes, d))
    if m == 0:
        lo, hi, dt = 0, 1, times[1] - times[0]
    elif m == len(fields) - 1:
        lo, hi, dt = m - 1, m, times[m] - times[m - 1]
    else:
        lo, hi, dt = m - 1, m + 1, times[m + 1] - times[m - 1]
    diff = (fields[hi].values - fields[lo].values) / dt
    return diff.reshape(d, -1).T


def _physical_scalar_gradient(traj, m):
    return physical_gradient(gradient_values(traj.rho[m]), traj.frame(m))[:, 0]


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
    s_norm = np.sqrt(np.sum(w * np.einsum("pij,pij->p", S, S)))
    z = z_field.values.reshape(d, -1).T
    w12 = np.sqrt(np.sum(w * (np.sum(z**2, axis=1)
                              + np.einsum("pij,pij->p", gu, gu))))
    return float(w12 / s_norm) if s_norm > 0 else np.inf


def gronwall_weak_strong_check(times, e_rel, *, e0_tol, tol_ws, korn=None):
    """Fit the minimal pointwise h >= 0 with E(tau) <= E(0) exp(int h) + slack.

    h on each interval is the log-difference quotient clipped at zero;
    verdict PASS iff the slack is within tolerance and E stays below tol_ws.
    Requires same-initial-data: E(0) <= e0_tol.
    """
    times = np.asarray(times, dtype=float)
    e = np.asarray(e_rel, dtype=float)
    if e[0] > e0_tol:
        raise NotSameDataError(
            f"E_rel(0) = {e[0]:.3e} exceeds the same-data threshold {e0_tol:.3e}")
    tiny = 1e-300
    h = np.zeros(max(len(e) - 1, 0))
    for i in range(len(h)):
        dt = times[i + 1] - times[i]
        if e[i] > tiny and e[i + 1] > tiny:
            h[i] = max(0.0, np.log(e[i + 1] / e[i]) / dt)
    env = np.empty_like(e)
    env[0] = e[0]
    for i in range(len(h)):
        env[i + 1] = env[i] * np.exp(h[i] * (times[i + 1] - times[i]))
    slack = float(np.max(np.maximum(e - env, 0.0))) if len(e) else 0.0
    verdict = "PASS" if (slack <= tol_ws and float(np.max(e)) <= tol_ws) else "FAIL"
    out = {
        "h_max": float(np.max(h)) if len(h) else 0.0,
        "slack": slack,
        "max_relative_energy": float(np.max(e)),
        "tolerance": float(tol_ws),
        "verdict": verdict,
    }
    if korn is not None:
        out["korn_quotient"] = float(korn)
    return out
