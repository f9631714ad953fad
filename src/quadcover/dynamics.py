"""Hamiltonian circle action on cosphere bundles.

The Hamiltonian is H_k(p, q) = k |q| on the bundle over the radius-k sphere
(base block first, fiber block second). Its vector field X solves
omega_std(X, v) = dH(v) for every v tangent to the constraint set
|p|^2 = k^2, p.q = 0. In Lagrange (Dirac) form that is X = J(g + G^T lambda)
with G X = 0, where g is the ambient gradient of H, G holds the constraint
gradient rows (p, 0) and (q, p), and J(a, b) = (b, -a). Because
G J G^T = [[0, |p|^2], [-|p|^2, 0]] exactly, the multipliers lambda are
closed form: no frame and no linear solve. The identity holds at every
ambient (p, q) with p != 0, so the solved field has G X = 0 off the
constraint set too, and RK4 is the standard projection method (Hairer,
Lubich & Wanner, Geometric Numerical Integration, sec. IV.4): its stages
are solved at ambient points and only each step's endpoint is retracted
onto the constraint set. g is still a central difference of the energy of
retracted ambient states, so dH is measured from H and only the
constraint geometry is exact. The retracted energy depends on a state
only through its Gram entries |p|^2, |q|^2 and p.q; by the chain rule its
slopes in |p|^2 and p.q give gradient terms along the constraint rows (p, 0)
and (q, p), which the multipliers cancel exactly. Only the slope in |q|^2
reaches X, so g = (0, 2 (dE/d|q|^2) q) from one central difference: two
energy evaluations per field solve, whatever d.
Vectors of d = n + 1 <= 4 entries are too short for numpy's per-call cost,
so the field solve and the RK4 loop run on 2d Python floats and
build one CotangentPoint at the end. On an "evened" cosphere (|p| = |q| = k)
the flow has the closed form (cos t p + sin t q, cos t q - sin t p), which
equals the scalar action e^{-it} on z = p + iq; on an uneven cosphere over
the unit sphere (|q| = r != 1) the trajectory instead reads
(cos t p + sin t q / r, cos t q - r sin t p) and the two actions diverge,
which is what the evening rescale repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, isfinite, sqrt
from operator import mul

import numpy as np

from .cotangent import CotangentPoint, OffBundleError
from .numerics import DEFAULT_PROFILE, ToleranceProfile, row_norms

__all__ = [
    "HamiltonianSpec",
    "FlowResult",
    "ZeroSectionError",
    "StepLimitError",
    "MAX_STEPS",
    "require_steps",
    "hamiltonian_vector_field",
    "flow_closed_form",
    "flow_uneven_cosphere",
    "scalar_action",
    "rk4_integrate",
]


class ZeroSectionError(ValueError):
    """H(p, q) = k|q| is not differentiable on the zero section."""


MAX_STEPS = 10**6  # the checks' default trajectories take at most 6,283


class StepLimitError(ValueError):
    """A trajectory of more than MAX_STEPS RK4 steps, refused before its first step.

    A step below about ulp(t) no longer advances t, so without a bound such
    a trajectory would never end.
    """


def require_steps(t_final: float, dt: float) -> None:
    """Raise StepLimitError if RK4 steps of dt up to t_final would number more than MAX_STEPS."""
    if t_final / dt > MAX_STEPS:
        raise StepLimitError(
            f"a trajectory to t = {t_final:.6g} in steps of {dt:.3g} needs {t_final / dt:.3g} RK4 steps, "
            f"more than the limit of {MAX_STEPS:,}"
        )


@dataclass(frozen=True)
class HamiltonianSpec:
    """Fiber-norm Hamiltonian H_k(p, q) = k |q| over the radius-k base sphere."""

    base_radius: float = 1.0

    def value(self, m: CotangentPoint) -> float:
        return self.base_radius * float(np.sqrt(m.q @ m.q))


@dataclass(frozen=True)
class FlowResult:
    """Integrator output; drifts are reported, never silently discarded."""

    endpoint: CotangentPoint
    energy_drift: float
    constraint_drift: float
    steps: int


def _restricted_energy(pp: float, qq: float, pq: float, k_ham: float) -> float:
    """H = k|q| at the retraction of an ambient (p, q) with Gram entries |p|^2, |q|^2, p.q.

    Retracting (p, q) leaves q - (p.q / |p|^2) p whatever the base radius, so
    the retracted energy is k sqrt(|q|^2 - (p.q)^2 / |p|^2).
    """
    return k_ham * sqrt(qq - pq * pq / pp)


def _multipliers(pp, p_gp, q_gq, p_gq):
    """Closed-form Lagrange multipliers (lambda_0, lambda_1) that keep X tangent."""
    return (q_gq - p_gp) / pp, -p_gq / pp


def _solve_field(k_ham: float, p: list[float], q: list[float], h: float) -> list[float]:
    """Ambient (u, w) vector of the Hamiltonian field of H = k_ham |q| at (p, q), as 2d floats.

    With g the ambient gradient of the retracted energy and G the constraint
    rows (p, 0) and (q, p), X = J(g + G^T lambda) with G X = 0. G J G^T is
    [[0, |p|^2], [-|p|^2, 0]], so lambda needs no solve and X reads
    (g_q + lambda_1 p, -(g_p + lambda_0 p + lambda_1 q)). The slopes of the
    energy in |p|^2 and p.q only add G^T terms to g, which lambda absorbs, so
    g = (0, s q) with s twice the slope in |q|^2: one central difference at
    the relative step h |q|^2, which keeps it well scaled at any size of q.
    Then q.g_q = s |q|^2 and p.g_q = s p.q need no sums. None of this needs
    (p, q) on the constraint set: called once per RK4 stage, at the stage's
    ambient point.
    """
    pp = hypot(*p) ** 2
    qq = hypot(*q) ** 2
    if not pp > 1e-20 * (pp + qq):
        raise RuntimeError(
            f"numerical rank failure: |p|^2 = {pp:.3e} is at or below 1e-20 |(p, q)|^2, "
            "a degenerate restricted symplectic form"
        )
    pq = sum(map(mul, p, q))
    dqq = h * qq
    slope = (_restricted_energy(pp, qq + dqq, pq, k_ham) - _restricted_energy(pp, qq - dqq, pq, k_ham)) / dqq
    lam0, lam1 = _multipliers(pp, 0.0, slope * qq, slope * pq)
    u = [slope * b + lam1 * a for a, b in zip(p, q)]
    w = [-(lam0 * a + lam1 * b) for a, b in zip(p, q)]
    residual = max(abs(sum(map(mul, p, u))), abs(sum(map(mul, q, u)) + sum(map(mul, p, w))))
    if residual > 1e-8:
        raise RuntimeError(f"vector field solve residual {residual:.3e} exceeds 1e-8")
    return u + w


def hamiltonian_vector_field(
    ham: HamiltonianSpec,
    m: CotangentPoint,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> np.ndarray:
    """Solve omega_std(X, v) = dH(v) for every v tangent to the constraint set.

    X is returned as the ambient (u, w) array, from the closed-form
    multipliers of :func:`_solve_field`; dH is differenced along ambient
    offsets that are retracted onto the constraint set. A base point with
    |p|^2 at or below 1e-20 |(p, q)|^2 makes the constraint rows dependent and
    the restricted symplectic form degenerate, and raises a numerical rank
    failure; a field that leaves |G X| above 1e-8 raises too.
    """
    if np.linalg.norm(m.q) <= 1e-8:
        raise ZeroSectionError("Hamiltonian vector field undefined within 1e-8 of the zero section")
    return np.array(_solve_field(ham.base_radius, m.p.tolist(), m.q.tolist(), profile.fd_step))


def flow_closed_form(m: CotangentPoint, t) -> CotangentPoint:
    """Closed-form cogeodesic flow on an evened cosphere.

    sigma_t(p, q) = (cos t p + sin t q, cos t q - sin t p); exact (and equal
    to the scalar action) only under the evened condition |p| = |q|, so
    uneven input is rejected with a pointer to even_rescale. A 1-D array of
    T times gives p and q of shape (T, n+1), one row per time; a point
    holding (N, n+1) arrays takes one time or N times, one per row, and
    every row must be evened and on the bundle (OffBundleError otherwise).
    """
    fiber = m.validate(1e-10)
    uneven = np.abs(fiber - m.base_radius) > 1e-9 * max(1.0, m.base_radius)
    if uneven.any():
        raise OffBundleError(
            f"closed-form flow needs |q| = |p| (got |q| = {np.extract(uneven, fiber)[0]:.6g}, "
            f"|p| = {m.base_radius:.6g}); apply even_rescale first"
        )
    c, s = _cos_sin(t)
    return CotangentPoint(p=c * m.p + s * m.q, q=c * m.q - s * m.p, base_radius=m.base_radius)


def flow_uneven_cosphere(m: CotangentPoint, t) -> CotangentPoint:
    """Hamiltonian trajectory of H(p, q) = |q| on the radius-r cosphere over S^n(1).

    For |q| = r the orbit is (cos t p + sin t q / r, cos t q - r sin t p);
    it reduces to the evened closed form at r = 1 and is validated against
    the RK4 route in the test suite. A point holding (N, n+1) arrays takes
    one time or N times and flows each row with its own r.
    """
    if abs(m.base_radius - 1.0) > 1e-12:
        raise OffBundleError("uneven cosphere flow is stated over the unit base sphere")
    r = row_norms(m.q)
    if (r <= 1e-12).any():
        raise ZeroSectionError("flow undefined on the zero section")
    r = r[..., None]
    c, s = _cos_sin(t)
    return CotangentPoint(p=c * m.p + (s / r) * m.q, q=c * m.q - r * s * m.p, base_radius=1.0)


def _cos_sin(t) -> tuple:
    """cos t and sin t, with a trailing axis on an array of times so each scales one row."""
    c, s = np.cos(t), np.sin(t)
    if np.ndim(t):
        c, s = c[:, None], s[:, None]
    return c, s


def scalar_action(m: CotangentPoint, t: float) -> CotangentPoint:
    """Scalar circle action e^{-it} on z = p + iq, split back into (p, q).

    Defined for every (p, q); the result satisfies the cotangent constraints
    iff the input is evened, which is exactly the point of the comparison
    checks. A 1-D array of T times gives p and q of shape (T, n+1).
    """
    if np.ndim(t):
        t = np.asarray(t)[:, None]
    z = (m.p + 1j * m.q) * np.exp(-1j * t)
    return CotangentPoint(p=z.real.copy(), q=z.imag.copy(), base_radius=m.base_radius)


def _retract(x: list[float], k: float, d: int) -> tuple[list[float], list[float]]:
    """Scalar retract of an ambient 2d-float state: |p| = k, then q loses its p-component."""
    p, q = x[:d], x[d:]
    norm = hypot(*p)
    if norm <= 1e-12:
        raise ValueError("cannot retract: base point collapsed to the origin")
    scale = k / norm
    p = [scale * a for a in p]
    c = sum(map(mul, p, q)) / (k * k)
    return p, [b - c * a for a, b in zip(p, q)]


def rk4_integrate(
    ham: HamiltonianSpec,
    m: CotangentPoint,
    t_final: float,
    dt: float,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> FlowResult:
    """Classical RK4 for the solved vector field, as the standard projection method.

    The start point is retracted onto the constraint set once. Each step
    solves the field at the ambient stage points x + dt/2 k1, x + dt/2 k2
    and x + dt k3 as they are, which the closed-form multipliers allow: G X = 0
    holds at every (p, q) with p != 0, on the constraint set or off it. Only
    the step's endpoint is retracted, and it starts the next step (Hairer,
    Lubich & Wanner, Geometric Numerical Integration, sec. IV.4). That keeps
    the constraint drift at rounding level over full periods with one
    retraction a step. Energy and constraint drifts are measured along the
    reported trajectory. A step that is not positive, or a final time that
    is not finite, raises ValueError; a trajectory of more than MAX_STEPS
    steps raises StepLimitError before the first step.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not isfinite(t_final):
        raise ValueError("t_final must be finite")
    require_steps(t_final, dt)
    k = m.base_radius
    k_ham = ham.base_radius
    d = m.p.size
    h = profile.fd_step

    def field(x: list[float]) -> list[float]:
        # the field at the ambient stage point as it is
        p, q = x[:d], x[d:]
        if hypot(*q) <= 1e-8:
            raise ZeroSectionError("trajectory reached the zero section")
        return _solve_field(k_ham, p, q, h)

    p, q = _retract(m.p.tolist() + m.q.tolist(), k, d)
    x = p + q
    energy0 = ham.value(m)
    energy_drift = 0.0
    constraint_drift = max(m.residuals())
    steps = 0
    t = 0.0
    while t < t_final - 1e-12:
        step = min(dt, t_final - t)
        half = 0.5 * step
        k1 = field(x)
        k2 = field([a + half * b for a, b in zip(x, k1)])
        k3 = field([a + half * b for a, b in zip(x, k2)])
        k4 = field([a + step * b for a, b in zip(x, k3)])
        sixth = step / 6.0
        x = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ]
        p, q = _retract(x, k, d)
        x = p + q
        energy_drift = max(energy_drift, abs(k_ham * hypot(*q) - energy0))
        constraint_drift = max(constraint_drift, abs(hypot(*p) - k), abs(sum(map(mul, p, q))))
        t += step
        steps += 1
    return FlowResult(
        endpoint=CotangentPoint(p=np.array(p), q=np.array(q), base_radius=k),
        energy_drift=energy_drift,
        constraint_drift=constraint_drift,
        steps=steps,
    )
