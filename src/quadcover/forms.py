"""Two-forms, smooth maps between coordinate domains and manifolds, pullbacks.

Every tangent vector is a plain real ambient array (a complex horizontal
vector of CP^n enters realified), so one pushforward serves all point kinds:
real boxes, the cotangent constraint set, projective spaces, and products of
projective spaces. A map's differential is exact: the domain point carries
its tangents as :class:`~quadcover.jets.Jet` arrays through one pass of the
map's own code. A map into a projective target differentiates its
unnormalized lift, and the tangent at the normalized point is the horizontal
projection of that derivative times the gauge factor the normalization
applied (see :func:`quadcover.projective.proj_normalize`); the phase of the
representative is never differentiated, since every form here is invariant
under it.

The concrete forms are omega_std (the constant symplectic form of
R^{2m} = C^m), the Fubini-Study form evaluated on horizontal lifts at unit
representatives (where it coincides with omega_std), and the pushed-down
form on CP^n obtained by lifting tangents through the square-root section of
the branched double cover and evaluating 2r * omega_FS upstairs.

Every function here acts on the last axis with one body, so a row of a batch
gets the bits of the point alone: row arithmetic and ``einsum("...i,...i->...")``
reductions only, never stacked matmul.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .cotangent import CotangentPoint
from .jets import Jet
from .numerics import complexify, gauss_legendre_2d, realify
from .projective import ProjectivePoint, horizontal_project

__all__ = [
    "BRANCH_MARGIN",
    "BranchLocusError",
    "BoxSpace",
    "CotangentSpace",
    "ProjectiveSpace",
    "ProductSpace",
    "SmoothMap",
    "TwoForm",
    "cotangent_omega_std",
    "fubini_study_form",
    "omega_r",
    "scaled_form",
    "product_form",
    "pullback",
    "integrate_surface",
]


class BranchLocusError(ValueError):
    """Raised when the pushed-down form is evaluated too close to the branch locus."""


# the least |sum z^2| at which omega_r lifts a point: it keeps the square-root
# lift away from the branch locus, where its derivative blows up
BRANCH_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# Point domains: each seeds a point with k ambient tangents as jets, and
# splits a map's output back into its value and k ambient tangents.
# ---------------------------------------------------------------------------


def _tangents(vs: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``vs``, k ambient tangents on its leading axis, broadcast to ``(k,) + shape``."""
    if vs.ndim != len(shape) + 1:
        raise ValueError(f"expected tangents of shape (k,) + {shape}, got {vs.shape}")
    return np.broadcast_to(vs, vs.shape[:1] + shape)


def _parts(x, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Value and tangents of a jet; a constant has k zero tangents."""
    if isinstance(x, Jet):
        return x.value, x.tangent
    return x, np.zeros((k, *np.shape(x)), dtype=np.result_type(x))


class BoxSpace:
    """Flat real coordinate domain, optionally with rectangle bounds."""

    def __init__(self, dim: int, bounds: tuple[np.ndarray, np.ndarray] | None = None):
        self.dim = dim
        self.bounds = bounds

    ambient = property(lambda self: self.dim)

    def seed(self, x, vs: np.ndarray) -> Jet:
        x = np.asarray(x, dtype=float)
        return Jet(x, _tangents(vs, x.shape))

    def split(self, y, k: int) -> tuple[np.ndarray, np.ndarray]:
        return _parts(y, k)


class ProjectiveSpace:
    """CP^n through unit representatives; ambient = realified C^{n+1}."""

    def __init__(self, n: int):
        self.n = n

    @property
    def ambient(self) -> int:
        return 2 * (self.n + 1)

    def seed(self, point: ProjectivePoint, vs: np.ndarray) -> ProjectivePoint:
        rep = point.rep
        return ProjectivePoint(Jet(rep, complexify(_tangents(vs, rep.shape[:-1] + (2 * rep.shape[-1],)))))

    def split(self, point: ProjectivePoint, k: int) -> tuple[ProjectivePoint, np.ndarray]:
        # the tangents are c dF of the lift F; the horizontal part is the pushforward
        rep, tangent = _parts(point.rep, k)
        center = ProjectivePoint(rep)
        return center, realify(horizontal_project(center, tangent))


class CotangentSpace:
    """Constraint set {|p| = k, <p,q> = 0} inside R^{n+1} + R^{n+1}.

    Points holding (N, n+1) arrays and (N, 2(n+1)) tangents are N rows, each
    mapped by the same row arithmetic as a single point. A map between two
    constraint sets takes tangent vectors to tangent vectors, so a
    pushforward needs no projection.
    """

    def __init__(self, n: int, base_radius: float = 1.0):
        self.n = n
        self.base_radius = base_radius

    @property
    def ambient(self) -> int:
        return 2 * (self.n + 1)

    def seed(self, m: CotangentPoint, vs: np.ndarray) -> CotangentPoint:
        d = m.p.shape[-1]
        t = _tangents(vs, m.p.shape[:-1] + (2 * d,))
        return CotangentPoint(p=Jet(m.p, t[..., :d]), q=Jet(m.q, t[..., d:]), base_radius=m.base_radius)

    def split(self, m: CotangentPoint, k: int) -> tuple[CotangentPoint, np.ndarray]:
        (p, dp), (q, dq) = _parts(m.p, k), _parts(m.q, k)
        return CotangentPoint(p=p, q=q, base_radius=m.base_radius), np.concatenate([dp, dq], axis=-1)


class ProductSpace:
    """Cartesian product of two spaces; points are 2-tuples."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    @property
    def ambient(self) -> int:
        return self.left.ambient + self.right.ambient

    def _split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = self.left.ambient
        return x[..., :k], x[..., k:]

    def seed(self, pair, vs: np.ndarray):
        a, b = self._split(vs)
        return (self.left.seed(pair[0], a), self.right.seed(pair[1], b))

    def split(self, pair, k: int):
        (a, da), (b, db) = self.left.split(pair[0], k), self.right.split(pair[1], k)
        return (a, b), np.concatenate([da, db], axis=-1)


# ---------------------------------------------------------------------------
# Smooth maps with exact pushforwards.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothMap:
    """Evaluator plus exact differential between two spaces.

    ``func`` maps domain points to target points, a single point or a batch
    (one per row), and must be written with the operations a
    :class:`~quadcover.jets.Jet` supports. ``differential`` runs ``func``
    once on the domain point seeded with k tangents, so a changed ``func``
    changes its pushforward with it; a projective target returns the
    horizontal projection of the lift's derivative at the normalized value.
    """

    domain: Any
    target: Any
    func: Callable[[Any], Any]

    def __call__(self, x):
        return self.func(x)

    def differential(self, x, vs: np.ndarray) -> tuple[Any, np.ndarray]:
        """f(x) and the pushforwards Df(x) v of the k ambient tangents stacked on the leading axis of ``vs``.

        ``vs`` has shape ``(k,) + ambient shape of x`` (its middle axes may
        broadcast); the pushforwards come back as ``(k, ...)`` real ambient
        arrays of the target, in one pass of ``func``.
        """
        vs = np.asarray(vs, dtype=float)
        return self.target.split(self.func(self.domain.seed(x, vs)), len(vs))


# ---------------------------------------------------------------------------
# Two-forms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric bilinear evaluator (point, v1, v2) -> real.

    ``space`` fixes the point kind; both tangents are real ambient arrays of
    that space, or (N, ambient) batches of them for a batch of points.
    """

    space: Any
    func: Callable[[Any, np.ndarray, np.ndarray], float]

    def __call__(self, point, v1, v2) -> float:
        return self.func(point, v1, v2)


def _omega_std_ambient(v1: np.ndarray, v2: np.ndarray) -> float | np.ndarray:
    """Standard symplectic form on R^{2m}: sum_k (v1^x_k v2^y_k - v1^y_k v2^x_k).

    The first half of a vector (x-block) pairs with the second (y-block), as
    z_k = x_k + i y_k under :func:`quadcover.numerics.realify`.
    An (N, 2m) batch of tangents gives one value per row.
    """
    m = v1.shape[-1] // 2
    x1, y1, x2, y2 = v1[..., :m], v1[..., m:], v2[..., :m], v2[..., m:]
    return np.einsum("...i,...i->...", x1, y2) - np.einsum("...i,...i->...", y1, x2)


def cotangent_omega_std(n: int, base_radius: float = 1.0) -> TwoForm:
    """Restriction of omega_std to the cotangent constraint set."""
    return TwoForm(space=CotangentSpace(n, base_radius), func=lambda _, a, b: _omega_std_ambient(a, b))


def fubini_study_form(n: int) -> TwoForm:
    """Fubini-Study form of CP^n on horizontal lifts at unit representatives.

    On horizontal vectors at a unit representative the form equals omega_std
    of the realified ambient space; this normalization gives CP^1 total area
    pi (the round sphere of radius 1/2).
    """
    return TwoForm(space=ProjectiveSpace(n), func=lambda _, a, b: _omega_std_ambient(a, b))


def scaled_form(form: TwoForm, c: float) -> TwoForm:
    return TwoForm(space=form.space, func=lambda pt, a, b: c * form.func(pt, a, b))


def product_form(left: TwoForm, right: TwoForm) -> TwoForm:
    """Direct sum form on the product of the two underlying spaces."""
    space = ProductSpace(left.space, right.space)

    def evaluate(pair, a, b):
        (a1, a2), (b1, b2) = space._split(a), space._split(b)
        return left.func(pair[0], a1, b1) + right.func(pair[1], a2, b2)

    return TwoForm(space=space, func=evaluate)


# ---------------------------------------------------------------------------
# The pushed-down form omega_r on CP^n minus the branch quadric.
# ---------------------------------------------------------------------------


def omega_r(
    point: ProjectivePoint,
    v1,
    v2,
    r: float,
    sheet: int = +1,
) -> float | np.ndarray:
    """Pushed-down form on CP^n, off the branch quadric.

    Lifts the point and both tangents (realified horizontal vectors) through
    the local inverse of the coordinate-dropping cover (implicit
    differentiation of the quadric equation gives dw = -(z . v)/w) and
    evaluates 2r * omega_FS on the quadric upstairs. The value is
    sheet-independent because the deck map is a unitary coordinate sign flip.
    The point lifts by the square-root section [z] -> [z : i sqrt(sum z^2)];
    the principal square root fixes the sheet, and ``sheet=-1`` selects the
    deck image.

    Acts on the last axis: one point with 1-D tangents gives one value, and a
    batch of N points (an (N, n+1) representative array) with (N, 2(n+1))
    real tangents gives N values, each with the bits of its row alone.
    BranchLocusError is raised if any row has |sum z^2| at or below BRANCH_MARGIN.
    """
    rep = point.rep
    s = np.einsum("...i,...i->...", rep, rep)
    near = np.abs(s) <= BRANCH_MARGIN
    if near.any():
        bad = np.extract(near, np.abs(s))[0]
        raise BranchLocusError(f"|sum z^2| = {bad:.3e} is within the branch margin {BRANCH_MARGIN:g}")
    w = sheet * 1j * np.sqrt(s)
    lifted = np.concatenate([rep, w[..., None]], axis=-1)
    norm2 = 1.0 + np.abs(s)

    def lift_tangent(vc: np.ndarray) -> np.ndarray:
        dw = -np.einsum("...i,...i->...", rep, vc) / w
        tilde = np.concatenate([vc, dw[..., None]], axis=-1)
        tilde = tilde - (np.einsum("...i,...i->...", lifted.conj(), tilde) / norm2)[..., None] * lifted
        return tilde / np.sqrt(norm2)[..., None]

    h1 = lift_tangent(complexify(v1))
    h2 = lift_tangent(complexify(v2))
    return 2.0 * r * np.einsum("...i,...i->...", h1.conj(), h2).imag


# ---------------------------------------------------------------------------
# Pullback and surface integration.
# ---------------------------------------------------------------------------


def pullback(f: SmoothMap, target_form: TwoForm, x, v1, v2) -> float:
    """(f^* form)(x; v1, v2) = form(f(x), Df(x) v1, Df(x) v2), from one jet pass of f."""
    center, (w1, w2) = f.differential(x, np.stack((v1, v2)))
    return target_form(center, w1, w2)


# the coordinate directions of a 2d box, one per leading row, for a batch of nodes
_BOX_AXES = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])


def integrate_surface(
    param: SmoothMap, form: TwoForm | Sequence[TwoForm], nodes: int = 200
) -> float | list[float]:
    """Integrate a two-form, or several, over a surface parametrized on a closed rectangle.

    ``param`` must have a bounded 2d BoxSpace domain; the integrand is
    form(param(u, v), d_u param, d_v param) evaluated by tensor-product
    Gauss-Legendre quadrature on blocks of whole rows of nodes (see
    :func:`quadcover.numerics.gauss_legendre_2d`): each block makes one
    jet pass of ``param`` on the (N, 2) array of its (u, v) nodes, which
    gives the points and both coordinate pushforwards, and ``form`` is
    called once on the block. The chart and the form must accept a leading
    batch axis and compute each node by row arithmetic (a chart that
    returns a single point for the whole block is allowed; its value is
    broadcast over the block).

    A sequence of K forms on the chart's target gives a list of K integrals
    from the same jet passes: every form is called on each block's point and
    pushforwards, and its values fill row k of the (K, N) integrand. A form
    that returns a contiguous array of one value per node, as every form here
    does, thus gets the bits of integrating it alone (a dot product of a
    strided or broadcast row may round unlike a contiguous one).
    """
    dom = param.domain
    if not isinstance(dom, BoxSpace) or dom.dim != 2 or dom.bounds is None:
        raise ValueError("integrate_surface needs a parametrization on a bounded 2d box")
    (lo, hi) = dom.bounds
    forms = None if isinstance(form, TwoForm) else tuple(form)

    def integrand(u: np.ndarray, v: np.ndarray) -> np.ndarray | float:
        point, (du, dv) = param.differential(np.column_stack([u, v]), _BOX_AXES)
        if forms is None:
            return form(point, du, dv)
        return np.stack([np.broadcast_to(f(point, du, dv), u.shape) for f in forms])

    return gauss_legendre_2d(integrand, lo[0], hi[0], lo[1], hi[1], nodes_per_axis=nodes)
