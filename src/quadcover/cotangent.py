"""Cotangent bundles of round spheres, embedded in R^{n+1} + R^{n+1}.

A point is a pair (p, q) with |p| equal to the base radius and <p, q> = 0;
q is the fiber coordinate. Disc and sphere sub-bundles are sampled with
explicit generator streams, and the antipodal map and the "evening" rescale
are provided as exact formulas. A tangent vector is the ambient (u, w) array
annihilated by the constraint gradient rows (p, 0) and (q, p); the rows of
:func:`constraint_frame` are an orthonormal basis of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .jets import primal
from .numerics import _null_frame, fill_accepted, row_norms

__all__ = [
    "CotangentPoint",
    "OffBundleError",
    "sample_disc_bundle",
    "sample_cosphere",
    "constraint_frame",
    "antipode",
    "even_rescale",
    "even_rescale_inverse",
    "sample_tangent",
]


class OffBundleError(ValueError):
    """A point lies off the bundle a map or flow is defined on."""


@dataclass(frozen=True, eq=False, slots=True)
class CotangentPoint:
    """Pair (p, q) with |p| = base_radius and <p, q> = 0.

    p and q may also be (N, n+1) arrays of N points, one per row, as a bulk
    draw of the samplers or :func:`flow_closed_form` over T times returns;
    :meth:`residuals` takes a single point.
    """

    p: np.ndarray
    q: np.ndarray
    base_radius: float = 1.0

    @property
    def n(self) -> int:
        return self.p.shape[-1] - 1

    def residuals(self) -> tuple[float, float]:
        """(base-norm defect, orthogonality defect) of a single point."""
        return (
            abs(float(np.sqrt(self.p @ self.p)) - self.base_radius),
            abs(float(self.p @ self.q)),
        )

    def validate(self, tol: float = 1e-12) -> np.ndarray | float:
        """|q| of every row; OffBundleError unless every row lies on the bundle to within ``tol``.

        |p| must be the base radius to within ``tol`` relative to it, and
        <p, q> must vanish to within ``tol`` relative to |p| |q|; a
        non-finite row is off the bundle. Each row is judged on its own. The
        samplers validate their draws, and the maps and flows defined on the
        bundle their input (at 1e-10), checking their fiber bound on the
        returned norms, one per row (a numpy float for a single point). A
        single point or a batch of one row (a witness replay) is checked on
        Python floats, at about a quarter of the cost of the array path. A
        point holding jets is judged by its values.
        """
        p, q, k = primal(self.p), primal(self.q), self.base_radius
        # |q| has the bits of row_norms on both paths, so a fiber bound judges
        # a point alone as it judges the same row in a batch
        fiber = row_norms(q)
        if p.size == p.shape[-1]:
            p, q = p.ravel().tolist(), q.ravel().tolist()
            norm = math.hypot(*p)
            base, ortho = abs(norm - k), abs(sum(map(mul, p, q)))
            on = base <= tol * k and ortho <= tol * norm * fiber
        else:
            norm = row_norms(p)
            base, ortho = np.abs(norm - k), np.abs(np.einsum("ij,ij->i", p, q))
            on = ((base <= tol * k) & (ortho <= tol * norm * fiber)).all()
        if not on:
            raise OffBundleError(
                f"constraint violation: |p| off by {np.max(base):.3e}, <p,q> = {np.max(ortho):.3e}"
            )
        return fiber


def sample_disc_bundle(
    n: int,
    base_radius: float,
    fiber_radius: float,
    rng: np.random.Generator,
    size: int | None = None,
) -> CotangentPoint:
    """Volume-uniform sample of the open radius-``fiber_radius`` disc bundle.

    p is uniform on the base sphere (normalized Gaussian); q is a Gaussian
    projected onto the p-orthogonal complement, scaled to |q| =
    fiber_radius * u^(1/n) with u uniform in (0, 1). The u^(1/n) radial law
    makes fiber discs uniform by volume. ``size=None`` draws one point, with
    p and q of shape (n+1,); ``size=N`` draws N independent points as one
    point holding (N, n+1) arrays, one draw per row.
    """
    return _sample_bundle(n, base_radius, fiber_radius, rng, size, disc=True)


def sample_cosphere(
    n: int,
    base_radius: float,
    fiber_radius: float,
    rng: np.random.Generator,
    size: int | None = None,
) -> CotangentPoint:
    """As :func:`sample_disc_bundle` but with |q| = fiber_radius exactly."""
    return _sample_bundle(n, base_radius, fiber_radius, rng, size, disc=False)


def _sample_bundle(n, base_radius, fiber_radius, rng, size, disc) -> CotangentPoint:
    """Body of both samplers: |q| = fiber_radius, times u^(1/n) for the disc.

    Reads the stream in blocks: all base points, then all fiber directions,
    then all radial draws.
    """
    if base_radius <= 0 or fiber_radius <= 0:
        raise ValueError("radii must be positive")
    rows = 1 if size is None else size
    p = rng.standard_normal((rows, n + 1))
    p *= (base_radius / row_norms(p))[:, None]
    q = fiber_radius * _fiber_direction(p, rng)
    if disc:
        u = rng.uniform(size=rows)
        u[u == 0.0] = 0.5
        q *= (u ** (1.0 / n))[:, None]
    if size is None:
        p, q = p[0], q[0]
    m = CotangentPoint(p=p, q=q, base_radius=base_radius)
    m.validate()
    return m


def _fiber_direction(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit vectors orthogonal to the rows of p, uniform on each fiber sphere.

    A draw whose projection has norm at or below 1e-6 is drawn again. The
    projection is made twice: a draw nearly parallel to p leaves a tiny
    residual whose normalization would amplify the first projection's
    rounding error.
    """
    if p.shape[-1] < 2:
        raise ValueError("a fiber direction needs p with at least 2 entries (n >= 1)")
    pp = np.einsum("ij,ij->i", p, p)

    def orthogonal(g, index):
        return g - (np.einsum("ij,ij->i", p[index], g) / pp[index])[:, None] * p[index]

    def draw(index):
        return (orthogonal(rng.standard_normal((index.size, p.shape[1])), index),)

    (g,) = fill_accepted(len(p), draw, lambda g: row_norms(g) > 1e-6)
    g = orthogonal(g / row_norms(g)[:, None], slice(None))
    return g / row_norms(g)[:, None]


def constraint_frame(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Orthonormal rows (ambient inner product) spanning the constraint tangent space at (p, q).

    The two linearized constraints are the rows (p, 0) and (q, p) of a
    2 x 2d matrix; its null space, the last 2d - 2 right singular vectors, has
    dimension exactly 2(d - 1) for every valid point. A second singular value
    at or below 1e-10 of the first signals numerically degenerate input.
    (N, d) arrays p and q give N stacked frames of shape (N, 2d - 2, 2d).
    Its one caller is :func:`sample_tangent`, whose draws this frame orders;
    the field solve and the tangent projection use the rows in closed form.
    """
    rows = (np.concatenate([p, np.zeros_like(p)], axis=-1), np.concatenate([q, p], axis=-1))
    return _null_frame(np.stack(rows, axis=-2))


def sample_tangent(m: CotangentPoint, rng: np.random.Generator) -> np.ndarray:
    """Random unit constraint-tangent vector at ``m``, as an ambient (u, w) array.

    A point holding (N, d) arrays gives an (N, 2d) array, one vector per row.
    """
    frame = constraint_frame(m.p, m.q)
    coeff = rng.standard_normal(frame.shape[:-1])
    coeff /= row_norms(coeff)[..., None]
    return np.einsum("...k,...kj->...j", coeff, frame)


def antipode(m: CotangentPoint) -> CotangentPoint:
    """(p, q) -> (-p, -q); an involution preserving both constraints."""
    return CotangentPoint(p=-m.p, q=-m.q, base_radius=m.base_radius)


def even_rescale(m: CotangentPoint, r: float) -> CotangentPoint:
    """Even out a radius-r disc bundle over the unit sphere.

    (p, q) -> (sqrt(r) p, q / sqrt(r)) maps the bundle over S^n(1) with fiber
    bound r onto the bundle over S^n(sqrt(r)) with fiber bound sqrt(r); the
    rescale preserves omega_std because the sqrt(r) factors cancel in
    sum dp_k ^ dq_k. A point holding jets maps to one, which gives the
    rescale's exact pushforward.
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
