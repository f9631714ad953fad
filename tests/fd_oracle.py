"""Central-difference pushforward: the oracle the exact differentials are tested against.

``central_difference(f, x, v, h)`` evaluates the map at the two domain points
x + h v and x - h v (normalized for a projective point, retracted for a
cotangent point), turns a projective output into the representative closest
in phase to the center's (a canonical-phase gauge can jump between nearby
points), and returns (f(x + h v) - f(x - h v)) / 2h, projected onto the
horizontal space for a projective target. One point, one tangent, O(h^2)
truncation.

``retract`` puts an ambient (p, q) pair back on the constraint set of a
cotangent bundle; the oracle's offsets and the tests' reference integrators
use it.
"""

import numpy as np

from quadcover.cotangent import CotangentPoint
from quadcover.forms import BoxSpace, CotangentSpace, ProductSpace, ProjectiveSpace
from quadcover.numerics import complexify, realify, row_norms
from quadcover.projective import horizontal_project, proj_normalize


def retract(p: np.ndarray, q: np.ndarray, base_radius: float) -> CotangentPoint:
    """Project an ambient (p, q) pair back onto the constraint set.

    Normalizes p to the base radius and removes the p-component of q. Acts
    on the last axis with row arithmetic, so (N, d) arrays retract N pairs,
    each as it would alone.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    norm = row_norms(p)[..., None]
    if (norm <= 1e-12).any():
        raise ValueError("cannot retract: base point collapsed to the origin")
    p = p * (base_radius / norm)
    pq = np.einsum("...i,...i->...", p, q)[..., None]
    pp = np.einsum("...i,...i->...", p, p)[..., None]
    q = q - pq / pp * p
    return CotangentPoint(p=p, q=q, base_radius=base_radius)


def _offset(space, x, w):
    """The domain point x moved by the ambient vector w and put back on the domain."""
    if isinstance(space, BoxSpace):
        return np.asarray(x, dtype=float) + w
    if isinstance(space, ProjectiveSpace):
        return proj_normalize(x.rep + complexify(w))
    if isinstance(space, CotangentSpace):
        d = x.p.shape[-1]
        return retract(x.p + w[..., :d], x.q + w[..., d:], x.base_radius)
    k = space.left.ambient
    return (_offset(space.left, x[0], w[..., :k]), _offset(space.right, x[1], w[..., k:]))


def _aligned(space, center, y) -> np.ndarray:
    """The output y as a real ambient array, a projective one in the gauge closest to ``center``."""
    if isinstance(space, BoxSpace):
        return np.asarray(y, dtype=float)
    if isinstance(space, ProjectiveSpace):
        overlap = np.einsum("...i,...i->...", center.rep.conj(), y.rep)
        return realify(y.rep * (overlap.conjugate() / np.abs(overlap))[..., None])
    if isinstance(space, CotangentSpace):
        return np.concatenate([y.p, y.q], axis=-1)
    return np.concatenate([_aligned(space.left, center[0], y[0]), _aligned(space.right, center[1], y[1])], axis=-1)


def _projected(space, center, w) -> np.ndarray:
    """A difference quotient projected as the target's pushforward is: horizontally on CP^n."""
    if isinstance(space, ProjectiveSpace):
        return realify(horizontal_project(center, complexify(w)))
    if isinstance(space, ProductSpace):
        k = space.left.ambient
        return np.concatenate(
            [_projected(space.left, center[0], w[..., :k]), _projected(space.right, center[1], w[..., k:])], axis=-1
        )
    return w


def central_difference(f, x, v, h: float = 1e-5) -> np.ndarray:
    """(f(x + h v) - f(x - h v)) / 2h at one point x along one ambient tangent v."""
    center = f(x)
    plus, minus = (_aligned(f.target, center, f(_offset(f.domain, x, s * h * v))) for s in (1.0, -1.0))
    return _projected(f.target, center, (plus - minus) / (2.0 * h))

