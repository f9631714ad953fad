"""Hamiltonian circle action on cosphere bundles.

The Hamiltonian is H_k(p, q) = k |q| on the bundle over the radius-k sphere
(base block first, fiber block second). Its vector field is solved on the
constraint tangent space from the defining equation omega_std(X, v) = dH(v),
with dH taken by projected finite differences so the equation lives entirely
on the constraint set. On an "evened" cosphere (|p| = |q| = k) the flow has
the closed form (cos t p + sin t q, cos t q - sin t p), which equals the
scalar action e^{-it} on z = p + iq; on an uneven cosphere over the unit
sphere (|q| = r != 1) the trajectory instead reads
(cos t p + sin t q / r, cos t q - r sin t p) and the two actions diverge,
which is what the evening rescale repairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cotangent import CotangentPoint, OffBundleError, constraint_frame, retract
from .numerics import DEFAULT_PROFILE, ToleranceProfile

__all__ = [
    "HamiltonianSpec",
    "FlowResult",
    "ZeroSectionError",
    "hamiltonian_vector_field",
    "flow_closed_form",
    "flow_uneven_cosphere",
    "scalar_action",
    "rk4_integrate",
]


class ZeroSectionError(ValueError):
    """H(p, q) = k|q| is not differentiable on the zero section."""


@dataclass(frozen=True)
class HamiltonianSpec:
    """Fiber-norm Hamiltonian H_k(p, q) = k |q| over the radius-k base sphere."""

    base_radius: float = 1.0

    def value(self, m: CotangentPoint) -> float:
        return self.base_radius * float(np.linalg.norm(m.q))


@dataclass(frozen=True)
class FlowResult:
    """Integrator output; drifts are reported, never silently discarded."""

    endpoint: CotangentPoint
    energy_drift: float
    constraint_drift: float
    steps: int


def _restricted_energy(offsets: np.ndarray, k_base: float, k_ham: float, d: int) -> np.ndarray:
    """H = k|q| after retracting a batch of ambient offsets onto the constraint set."""
    p = offsets[:, :d]
    q = offsets[:, d:]
    p_hat = p * (k_base / np.sqrt((p * p).sum(axis=1)))[:, None]
    q_tan = q - (np.einsum("ij,ij->i", p_hat, q) / (k_base * k_base))[:, None] * p_hat
    return k_ham * np.sqrt((q_tan * q_tan).sum(axis=1))


def _solve_field(k_base: float, k_ham: float, p: np.ndarray, q: np.ndarray, h: float) -> np.ndarray:
    """Ambient (u, w) vector of the Hamiltonian field of H = k_ham |q| at (p, q).

    Called once per RK4 stage, so it keeps the numpy call count low: the
    offsets at +h and -h go through one energy evaluation, and Omega comes
    from a single product.
    """
    d = p.size
    mat = constraint_frame(p, q)
    half = mat.shape[0]
    # Omega[i, j] = omega_std(b_i, b_j) = u_i . w_j - w_i . u_j = A - A^T
    a = mat[:, :d] @ mat[:, d:].T
    omega_t = a.T - a
    amb = np.concatenate((p, q))
    step = h * mat
    energy = _restricted_energy(np.concatenate((amb + step, amb - step)), k_base, k_ham, d)
    grad = (energy[:half] - energy[half:]) / (2.0 * h)
    try:
        # omega(X, b_i) = grad_i with X = sum x_j b_j reads Omega^T x = grad
        coeff = np.linalg.solve(omega_t, grad)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("degenerate restricted symplectic form") from exc
    residual = np.abs(omega_t @ coeff - grad).max()
    if residual > 1e-8:
        raise RuntimeError(f"vector field solve residual {residual:.3e} exceeds 1e-8")
    return coeff @ mat


def hamiltonian_vector_field(
    ham: HamiltonianSpec,
    m: CotangentPoint,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> np.ndarray:
    """Solve omega_std(X, b_i) = dH(b_i) on the constraint tangent space.

    X is returned as the ambient (u, w) array. dH is differenced along curves
    that stay on the constraint set (offset and retract); Omega is assembled
    on an orthonormal tangent basis and is never singular on the cotangent
    bundle of a sphere, so a singular solve signals a non-symplectic
    constraint set.
    """
    if np.linalg.norm(m.q) <= 1e-8:
        raise ZeroSectionError("Hamiltonian vector field undefined within 1e-8 of the zero section")
    return _solve_field(m.base_radius, ham.base_radius, m.p, m.q, profile.fd_step)


def flow_closed_form(m: CotangentPoint, t: float) -> CotangentPoint:
    """Closed-form cogeodesic flow on an evened cosphere.

    sigma_t(p, q) = (cos t p + sin t q, cos t q - sin t p); exact (and equal
    to the scalar action) only under the evened condition |p| = |q|, so
    uneven input is rejected with a pointer to even_rescale. A 1-D array of
    T times gives p and q of shape (T, n+1), one row per time.
    """
    fiber = float(np.linalg.norm(m.q))
    if abs(fiber - m.base_radius) > 1e-9 * max(1.0, m.base_radius):
        raise OffBundleError(
            f"closed-form flow needs |q| = |p| (got |q| = {fiber:.6g}, |p| = {m.base_radius:.6g}); "
            "apply even_rescale first"
        )
    c, s = np.cos(t), np.sin(t)
    if np.ndim(t):
        c, s = c[:, None], s[:, None]
    return CotangentPoint(p=c * m.p + s * m.q, q=c * m.q - s * m.p, base_radius=m.base_radius)


def flow_uneven_cosphere(m: CotangentPoint, t: float) -> CotangentPoint:
    """Hamiltonian trajectory of H(p, q) = |q| on the radius-r cosphere over S^n(1).

    For |q| = r the orbit is (cos t p + sin t q / r, cos t q - r sin t p);
    it reduces to the evened closed form at r = 1 and is validated against
    the RK4 route in the test suite.
    """
    if abs(m.base_radius - 1.0) > 1e-12:
        raise ValueError("uneven cosphere flow is stated over the unit base sphere")
    r = float(np.linalg.norm(m.q))
    if r <= 1e-12:
        raise ZeroSectionError("flow undefined on the zero section")
    c, s = np.cos(t), np.sin(t)
    return CotangentPoint(p=c * m.p + (s / r) * m.q, q=c * m.q - r * s * m.p, base_radius=1.0)


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


def rk4_integrate(
    ham: HamiltonianSpec,
    m: CotangentPoint,
    t_final: float,
    dt: float,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> FlowResult:
    """Classical RK4 for the solved vector field, with per-step reprojection.

    Stage points are retracted onto the constraint set before each field
    evaluation; after every step the endpoint is reprojected, which keeps the
    constraint drift at rounding level over full periods. Energy and
    constraint drifts are measured along the reported trajectory.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    k = m.base_radius
    d = m.p.size
    h = profile.fd_step

    def field(x: np.ndarray) -> np.ndarray:
        # retract the stage point, then solve the field there
        p = x[:d]
        q = x[d:]
        p = p * (k / np.sqrt(p @ p))
        q = q - ((p @ q) / (k * k)) * p
        if np.sqrt(q @ q) <= 1e-8:
            raise ZeroSectionError("trajectory reached the zero section")
        return _solve_field(k, ham.base_radius, p, q, h)

    x = np.concatenate([m.p, m.q])
    energy0 = ham.value(m)
    energy_drift = 0.0
    constraint_drift = max(m.residuals())
    steps = 0
    t = 0.0
    while t < t_final - 1e-12:
        step = min(dt, t_final - t)
        k1 = field(x)
        k2 = field(x + 0.5 * step * k1)
        k3 = field(x + 0.5 * step * k2)
        k4 = field(x + step * k3)
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        point = retract(x[:d], x[d:], k)
        x = np.concatenate([point.p, point.q])
        energy_drift = max(energy_drift, abs(ham.value(point) - energy0))
        constraint_drift = max(constraint_drift, *point.residuals())
        t += step
        steps += 1
    endpoint = retract(x[:d], x[d:], k)
    return FlowResult(
        endpoint=endpoint,
        energy_drift=energy_drift,
        constraint_drift=constraint_drift,
        steps=steps,
    )
