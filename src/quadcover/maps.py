"""The explicit maps of the compactification construction.

Ball embedding into projective space, cotangent bundle into the quadric,
cosphere boundary onto the lower quadric, coordinate-dropping branched double
cover with its deck involution and its fibers, the twisted Segre
identification of the quadric surface with a product of lines, the antipodal
map of the line, and the locus classifier for the conic and the real points
of the plane.

All maps operate on canonical representatives and re-normalize outputs;
identities between them are asserted through the projective equality
predicate, never entrywise. Each map takes one point (1-D arrays) or a batch
of points (one per row) and acts on the last axis, so a row of a batch has
the bits of that point alone and a check can replay one row exactly.
"""

from __future__ import annotations

import numpy as np

from .cotangent import CotangentPoint, OffBundleError
from .forms import BoxSpace, ProductSpace, ProjectiveSpace, SmoothMap
from .jets import Jet, primal
from .numerics import complexify, realify
from .projective import ProjectivePoint, _normalize_point, proj_normalize, quadric_residual

__all__ = [
    "ball_to_projective",
    "ball_embedding",
    "cotangent_to_quadric",
    "quadric_to_cotangent",
    "cosphere_boundary",
    "branched_cover",
    "branched_cover_map",
    "quadric_fiber",
    "deck",
    "segre_unitary",
    "segre_map",
    "antipodal_cp1",
    "real_defect",
    "locus_classify",
]

ROOT2 = float(np.sqrt(2.0))


def ball_to_projective(z: np.ndarray, r: float) -> ProjectivePoint:
    """Embed the open radius-r complex ball: z -> [z : i sqrt(r^2 - |z|^2)].

    The image misses the last coordinate hyperplane; |z| >= r is a domain
    error. An (N, n+1) ``z`` is a batch of N points, mapped row by row with
    the bits of each row alone (a batch of one row takes the 1-D body); the
    domain error is raised if any row is outside the ball. A jet ``z`` takes
    the row body whatever its shape.
    """
    if not isinstance(z, Jet):
        z = np.asarray(z, dtype=complex)
        if z.ndim == 1:
            return ProjectivePoint(rep=_ball_point(z, r))
        if len(z) == 1:
            return ProjectivePoint(rep=_ball_point(z[0], r)[None])
    x = realify(z)
    size2 = np.einsum("...i,...i->...", x, x)
    rad2 = float(r) ** 2 - size2
    outside = rad2 <= 0.0
    if outside.any():
        _outside_ball(np.extract(outside, primal(size2))[0], r)
    return proj_normalize(np.concatenate([z, 1j * np.sqrt(rad2)[..., None]], axis=-1))


def _ball_point(z: np.ndarray, r: float) -> np.ndarray:
    """Representative of :func:`ball_to_projective` at one 1-D point, by the row arithmetic."""
    x = realify(z)
    size2 = float(np.einsum("i,i->", x, x))
    rad2 = float(r) ** 2 - size2
    if rad2 <= 0.0:
        _outside_ball(size2, r)
    return _normalize_point(np.concatenate([z, [1j * np.sqrt(rad2)]]))


def _outside_ball(size2: float, r: float):
    raise ValueError(f"point with |z| = {np.sqrt(size2):.6g} is outside the open ball B({r:g})")


def ball_embedding(n: int, r: float) -> SmoothMap:
    """Ball embedding as a smooth map from real coordinates R^{2(n+1)} to CP^{n+1}."""
    return SmoothMap(
        domain=BoxSpace(2 * (n + 1)),
        target=ProjectiveSpace(n + 1),
        func=lambda x: ball_to_projective(complexify(x), r),
    )


def cotangent_to_quadric(m: CotangentPoint) -> ProjectivePoint:
    """Embed the open unit disc bundle into the quadric: (p, q) -> [p + iq : i sqrt(1 - |q|^2)].

    This is the radius-sqrt(2) ball embedding applied to z = p + iq; the image
    satisfies sum z_k^2 = 0 because |p| = 1 and <p, q> = 0. A point holding
    (N, n+1) arrays maps row by row. A point off the bundle (base radius not
    1, or some row with |q| >= 1, |p| != 1 or <p, q> != 0) raises
    OffBundleError.
    """
    if abs(m.base_radius - 1.0) > 1e-12:
        raise OffBundleError("quadric embedding expects the unit base sphere")
    if (m.validate(1e-10) >= 1.0).any():
        raise OffBundleError("quadric embedding expects |q| < 1 (open disc bundle)")
    return ball_to_projective(m.p + 1j * m.q, ROOT2)


def quadric_to_cotangent(point: ProjectivePoint) -> CotangentPoint:
    """Inverse affine chart: an off-hyperplane quadric point back to (p, q).

    Rescales the representative to norm sqrt(2) with last coordinate i*t,
    t > 0; the first block then splits as p + iq with |p| = 1, <p, q> = 0
    exactly when the input is on the quadric. Acts on the last axis, so a
    batch of N points gives (N, n+1) arrays, each row with the bits of its
    point alone.
    """
    rep = point.rep
    last = rep[..., -1:]
    size = np.abs(last)
    if (size <= 1e-12).any():
        raise ValueError("point lies on the last coordinate hyperplane; chart does not apply")
    z = ROOT2 * (1j * last.conjugate() / size) * rep[..., :-1]
    return CotangentPoint(p=z.real.copy(), q=z.imag.copy(), base_radius=1.0)


def cosphere_boundary(m: CotangentPoint) -> ProjectivePoint:
    """Boundary map of the cut: a unit cosphere point to [p + iq : 0].

    The image lies on both the quadric and the last hyperplane, hence on the
    lower quadric. A point holding (N, n+1) arrays maps row by row. A point
    off the unit cosphere (base radius not 1, or some row with |q| != 1,
    |p| != 1 or <p, q> != 0) raises OffBundleError.
    """
    if abs(m.base_radius - 1.0) > 1e-12:
        raise OffBundleError("boundary map expects the unit base sphere")
    fiber = m.validate(1e-10)
    off = np.abs(fiber - 1.0) > 1e-10
    if off.any():
        raise OffBundleError(f"boundary map expects |q| = 1, got {np.extract(off, fiber)[0]:.12g}")
    z = m.p + 1j * m.q
    return proj_normalize(np.concatenate([z, np.zeros_like(z[..., :1])], axis=-1))


def branched_cover(point: ProjectivePoint) -> ProjectivePoint:
    """Drop the last homogeneous coordinate: [z_0 : ... : z_{n+1}] -> [z_0 : ... : z_n].

    Undefined at the center point [0 : ... : 0 : 1]; a batch of points (an
    (N, n+2) representative array) is undefined if any row is the center.
    """
    try:
        return proj_normalize(point.rep[..., :-1])
    except ValueError:
        raise ValueError("branched cover is undefined at the center point [0:...:0:1]") from None


def branched_cover_map(n: int) -> SmoothMap:
    return SmoothMap(
        domain=ProjectiveSpace(n + 1),
        target=ProjectiveSpace(n),
        func=branched_cover,
    )


def quadric_fiber(
    point: ProjectivePoint, tol: float = 1e-10
) -> tuple[ProjectivePoint, ProjectivePoint, float | np.ndarray]:
    """Preimages on the quadric upstairs of a point of CP^n: both sheets, and how many points they are.

    Solving w^2 = -sum z_k^2 gives the two sheets [z : w] and [z : -w], 2
    points, off the branch quadric; on it (|sum z_k^2| <= ``tol``) both sheets
    are the single point [z : 0], 1 point. Acts on the last axis, so a batch
    of N points gives two batches of N sheets and an array of N counts, each
    row with the bits of its point alone. A count is a float (1.0 or 2.0):
    integer arithmetic and comparisons would page in about 0.2 MB of numpy
    loops that nothing else in the package runs.
    """
    rep = point.rep
    s = quadric_residual(point)[..., None]
    branch = np.abs(s) <= tol
    w = np.where(branch, 0.0, 1j * np.sqrt(s))
    plus, minus = (proj_normalize(np.concatenate([rep, last], axis=-1)) for last in (w, -w))
    return plus, minus, np.where(branch[..., 0], 1.0, 2.0)


def deck(point: ProjectivePoint) -> ProjectivePoint:
    """Deck involution of the cover: negate the last homogeneous coordinate.

    Acts on the last axis, so a batch of N points maps row by row; a point
    holding a jet maps to one, which gives the involution's pushforward.
    """
    rep = point.rep
    return proj_normalize(np.concatenate([rep[..., :-1], -rep[..., -1:]], axis=-1))


def segre_unitary(a: ProjectivePoint, b: ProjectivePoint) -> ProjectivePoint:
    """Twisted Segre map ([x:y], [s:t]) -> [xs+yt : i(xs-yt) : i(xt+ys) : xt-ys].

    Composition of the Segre embedding with a unitary (up to scale) change of
    coordinates; the image lies on the quadric surface in CP^3. Acts on the
    last axis, so two batches of N points (representative arrays of shape
    (N, 2)) map to a batch of N, each row with the bits of its pair alone.
    """
    x, y = a.rep[..., 0:1], a.rep[..., 1:2]
    s, t = b.rep[..., 0:1], b.rep[..., 1:2]
    xs, yt, xt, ys = x * s, y * t, x * t, y * s
    return proj_normalize(np.concatenate([xs + yt, 1j * (xs - yt), 1j * (xt + ys), xt - ys], axis=-1))


def segre_map() -> SmoothMap:
    p1 = ProjectiveSpace(1)
    return SmoothMap(
        domain=ProductSpace(p1, p1),
        target=ProjectiveSpace(3),
        func=lambda pair: segre_unitary(pair[0], pair[1]),
    )


def antipodal_cp1(a: ProjectivePoint) -> ProjectivePoint:
    """Fixed-point-free involution of CP^1: [x : y] -> [-conj(y) : conj(x)].

    Acts on the last axis, so a batch of N points maps row by row.
    """
    rep = a.rep.conjugate()
    return proj_normalize(np.concatenate([-rep[..., 1:2], rep[..., 0:1]], axis=-1))


def real_defect(point: ProjectivePoint) -> float | np.ndarray:
    """Largest |Im(z_j conj(z_k))| over the pairs (j, k); zero iff the point is real.

    Gauge-free: some phase makes all coordinates real iff every such
    imaginary part vanishes. A batch of N points gives N defects, one per
    row, each with the bits of its point alone.
    """
    rep = point.rep
    pairwise = (rep[..., :, None] * rep[..., None, :].conjugate()).imag
    return np.maximum.reduce(np.abs(pairwise.reshape(rep.shape[:-1] + (-1,))), axis=-1)


# the labels by rank: 2 on the conic, else 1 if real
_LOCI = np.array(["generic", "on_RP2", "on_Q1"])


def locus_classify(point: ProjectivePoint, tol: float = 1e-9) -> str | np.ndarray:
    """Classify a point of CP^2 as ``on_Q1``, ``on_RP2``, or ``generic``.

    On the conic when |sum z_k^2| < ``tol``, else real when
    :func:`real_defect` is below ``tol``. Acts on the last axis: a batch of N
    points gives an array of N labels, one per row, and a point its label.
    """
    on_conic = np.abs(quadric_residual(point)) < tol
    return _LOCI[np.where(on_conic, 2, real_defect(point) < tol)]
