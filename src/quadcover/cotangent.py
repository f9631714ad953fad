"""Cotangent bundles of round spheres, embedded in R^{n+1} + R^{n+1}.

A point is a pair (p, q) with |p| equal to the base radius and <p, q> = 0;
q is the fiber coordinate. Disc and sphere sub-bundles are sampled with
explicit generator streams, and the antipodal map and the "evening" rescale
are provided as exact formulas. A tangent vector is the ambient (u, w) array
annihilated by the constraint gradient rows (p, 0) and (q, p), which are
orthogonal to each other; :func:`sample_tangent` draws one by projecting a
Gaussian off both rows, with no null-space frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .jets import primal
from .numerics import fill_accepted, row_norms

__all__ = [
    "CotangentPoint",
    "OffBundleError",
    "sample_disc_bundle",
    "sample_cosphere",
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
    draw of the samplers or :func:`flow_closed_form` over T times returns.
    """

    p: np.ndarray
    q: np.ndarray
    base_radius: float = 1.0

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


def sample_tangent(m: CotangentPoint, rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit constraint-tangent vector at ``m``, as an ambient (u, w) array.

    A standard normal (u, w) with its components along g1 = (p, 0) and
    g2 = (q - (p.q / |p|^2) p, p), an orthogonal basis of the constraint rows,
    subtracted in turn, then normalized: an isotropic Gaussian projected onto
    a subspace points uniformly within it. g2 is (q, p) with its g1 part
    removed, so the projection holds whatever the rounding in p.q. A draw
    whose remainder has norm at or below 1e-12 is drawn again. |p|^2 at or
    below 1e-20 |(p, q)|^2 leaves the rows dependent and raises a numerical
    rank failure. A point holding (N, d) arrays gives an (N, 2d) array, one
    vector per row.
    """
    p, q = np.atleast_2d(m.p), np.atleast_2d(m.q)
    pp, qq = np.einsum("ij,ij->i", p, p), np.einsum("ij,ij->i", q, q)
    if not (pp > 1e-20 * (pp + qq)).all():
        raise RuntimeError("numerical rank failure: |p|^2 is at or below 1e-20 |(p, q)|^2")
    g1 = np.concatenate([p, np.zeros_like(p)], axis=-1)
    g2 = np.concatenate([q - (np.einsum("ij,ij->i", p, q) / pp)[:, None] * p, p], axis=-1)
    units = [g / row_norms(g)[:, None] for g in (g1, g2)]

    def draw(index):
        t = rng.standard_normal((index.size, g1.shape[1]))
        for e in units:
            e = e[index]
            t -= np.einsum("ij,ij->i", e, t)[:, None] * e
        return (t,)

    (t,) = fill_accepted(len(p), draw, lambda t: row_norms(t) > 1e-12)
    return (t / row_norms(t)[:, None]).reshape(*m.p.shape[:-1], -1)


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
