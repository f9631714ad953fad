"""Cotangent bundles of round spheres, embedded in R^{n+1} + R^{n+1}.

A point is a pair (p, q) with |p| equal to the base radius and <p, q> = 0;
q is the fiber coordinate. Disc and sphere sub-bundles are sampled with
explicit generator streams, and the antipodal map and the "evening" rescale
are provided as exact formulas. A tangent vector is the ambient (u, w) array
annihilated by the constraint gradient rows (p, 0) and (q, p); the rows of
:func:`constraint_frame` are an orthonormal basis of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CotangentPoint",
    "OffBundleError",
    "sample_disc_bundle",
    "sample_cosphere",
    "constraint_frame",
    "antipode",
    "even_rescale",
    "even_rescale_inverse",
    "retract",
    "sample_tangent",
]


class OffBundleError(ValueError):
    """A point lies off the bundle a map or flow is defined on."""


@dataclass(frozen=True, eq=False)
class CotangentPoint:
    """Pair (p, q) with |p| = base_radius and <p, q> = 0."""

    p: np.ndarray
    q: np.ndarray
    base_radius: float = 1.0

    @property
    def n(self) -> int:
        return self.p.size - 1

    def residuals(self) -> tuple[float, float]:
        """(base-norm defect, orthogonality defect)."""
        return (
            abs(float(np.sqrt(self.p @ self.p)) - self.base_radius),
            abs(float(self.p @ self.q)),
        )

    def validate(self, tol: float = 1e-12) -> "CotangentPoint":
        base_defect, ortho_defect = self.residuals()
        if base_defect > tol or ortho_defect > tol:
            raise ValueError(
                f"constraint violation: |p| off by {base_defect:.3e}, <p,q> = {ortho_defect:.3e}"
            )
        return self


def sample_disc_bundle(
    n: int, base_radius: float, fiber_radius: float, rng: np.random.Generator
) -> CotangentPoint:
    """Volume-uniform sample of the open radius-``fiber_radius`` disc bundle.

    p is uniform on the base sphere (normalized Gaussian); q is a Gaussian
    projected onto the p-orthogonal complement, scaled to |q| =
    fiber_radius * u^(1/n) with u uniform in (0, 1). The u^(1/n) radial law
    makes fiber discs uniform by volume.
    """
    return _sample_bundle(n, base_radius, fiber_radius, rng, disc=True)


def sample_cosphere(
    n: int, base_radius: float, fiber_radius: float, rng: np.random.Generator
) -> CotangentPoint:
    """As :func:`sample_disc_bundle` but with |q| = fiber_radius exactly."""
    return _sample_bundle(n, base_radius, fiber_radius, rng, disc=False)


def _sample_bundle(n, base_radius, fiber_radius, rng, disc) -> CotangentPoint:
    """Body of both samplers: |q| = fiber_radius, times u^(1/n) for the disc."""
    if base_radius <= 0 or fiber_radius <= 0:
        raise ValueError("radii must be positive")
    p = rng.standard_normal(n + 1)
    p *= base_radius / np.linalg.norm(p)
    q = _fiber_direction(p, rng)
    if disc:
        u = rng.uniform()
        fiber_radius *= (u if u != 0.0 else 0.5) ** (1.0 / n)
    return CotangentPoint(p=p, q=q * fiber_radius, base_radius=base_radius).validate()


def _fiber_direction(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit vector orthogonal to p, uniform on the fiber sphere.

    Projects twice: a draw nearly parallel to p leaves a tiny residual whose
    normalization would amplify the first projection's rounding error.
    """
    if p.size < 2:
        raise ValueError("a fiber direction needs p with at least 2 entries (n >= 1)")
    pp = p @ p
    while True:
        g = rng.standard_normal(p.size)
        g -= (p @ g) / pp * p
        norm = np.linalg.norm(g)
        if norm > 1e-6:
            g /= norm
            g -= (p @ g) / pp * p
            return g / np.linalg.norm(g)


def constraint_frame(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Orthonormal rows (ambient inner product) spanning the constraint tangent space at (p, q).

    The two linearized constraints are the rows (p, 0) and (q, p) of a
    2 x 2d matrix; its null space, the last 2d - 2 right singular vectors, has
    dimension exactly 2(d - 1) for every valid point. A second singular value
    at or below 1e-10 of the first signals numerically degenerate input.
    Its one caller is :func:`sample_tangent`, whose draws this frame orders;
    the field solve and the tangent projection use the rows in closed form.
    """
    d = p.size
    rows = np.concatenate((p, np.zeros(d), q, p)).reshape(2, 2 * d)
    _, svals, vh = np.linalg.svd(rows)
    if not svals[1] > 1e-10 * svals[0]:
        rank = int(np.sum(svals > 1e-10 * svals[0]))
        raise RuntimeError(
            f"numerical rank failure: expected tangent dimension {2 * (d - 1)}, got {2 * d - rank}"
        )
    return vh[2:]


def sample_tangent(m: CotangentPoint, rng: np.random.Generator) -> np.ndarray:
    """Random unit constraint-tangent vector at ``m``, as an ambient (u, w) array."""
    frame = constraint_frame(m.p, m.q)
    coeff = rng.standard_normal(len(frame))
    coeff /= np.linalg.norm(coeff)
    return sum(c * row for c, row in zip(coeff, frame))


def antipode(m: CotangentPoint) -> CotangentPoint:
    """(p, q) -> (-p, -q); an involution preserving both constraints."""
    return CotangentPoint(p=-m.p, q=-m.q, base_radius=m.base_radius)


def even_rescale(m: CotangentPoint, r: float) -> CotangentPoint:
    """Even out a radius-r disc bundle over the unit sphere.

    (p, q) -> (sqrt(r) p, q / sqrt(r)) maps the bundle over S^n(1) with fiber
    bound r onto the bundle over S^n(sqrt(r)) with fiber bound sqrt(r); the
    rescale preserves omega_std because the sqrt(r) factors cancel in
    sum dp_k ^ dq_k.
    """
    if r <= 0:
        raise ValueError("rescale parameter r must be positive")
    if abs(m.base_radius - 1.0) > 1e-12:
        raise OffBundleError("even_rescale expects a point over the unit base sphere")
    s = np.sqrt(r)
    return CotangentPoint(p=s * m.p, q=m.q / s, base_radius=s)


def even_rescale_inverse(m: CotangentPoint, r: float) -> CotangentPoint:
    """Explicit inverse of :func:`even_rescale`."""
    if r <= 0:
        raise ValueError("rescale parameter r must be positive")
    s = np.sqrt(r)
    if abs(m.base_radius - s) > 1e-9:
        raise OffBundleError("point is not on the evened bundle for this r")
    return CotangentPoint(p=m.p / s, q=m.q * s, base_radius=1.0)


def retract(p: np.ndarray, q: np.ndarray, base_radius: float) -> CotangentPoint:
    """Project an ambient (p, q) pair back onto the constraint set.

    Normalizes p to the base radius and removes the p-component of q; used
    after finite-difference offsets and integrator steps.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    norm = np.sqrt(p @ p)
    if norm <= 1e-12:
        raise ValueError("cannot retract: base point collapsed to the origin")
    p = p * (base_radius / norm)
    q = q - (p @ q) / (p @ p) * p
    return CotangentPoint(p=p, q=q, base_radius=base_radius)
