"""Two-forms, smooth maps between coordinate domains and manifolds, pullbacks.

Every tangent vector is a plain real ambient array (a complex horizontal
vector of CP^n enters realified) so one finite-difference pipeline serves all
point kinds: real boxes, the cotangent constraint set, projective spaces, and
products of projective spaces. Maps into projective targets get their offset
outputs phase-aligned against the center value before differencing (a
canonical-phase gauge can jump when the largest-modulus entry changes index)
and the difference quotient is then projected onto the horizontal space.

The concrete forms are omega_std (the constant symplectic form of
R^{2m} = C^m), the Fubini-Study form evaluated on horizontal lifts at unit
representatives (where it coincides with omega_std), and the pushed-down
form on CP^n obtained by lifting tangents through the square-root section of
the branched double cover and evaluating 2r * omega_FS upstairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .cotangent import CotangentPoint, constraint_frame, retract
from .numerics import DEFAULT_PROFILE, ToleranceProfile, complexify, gauss_legendre_2d, realify
from .projective import ProjectivePoint, horizontal_project, proj_normalize

__all__ = [
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


# ---------------------------------------------------------------------------
# Point domains: uniform ambient-vector view of every space we map between.
# ---------------------------------------------------------------------------


class BoxSpace:
    """Flat real coordinate domain, optionally with rectangle bounds."""

    def __init__(self, dim: int, bounds: tuple[np.ndarray, np.ndarray] | None = None):
        self.dim = dim
        self.bounds = bounds

    ambient = property(lambda self: self.dim)

    def to_ambient(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def from_ambient(self, x: np.ndarray):
        return np.asarray(x, dtype=float)

    def aligned_ambient(self, center, x) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def tangent_project(self, x, w: np.ndarray) -> np.ndarray:
        return w


class ProjectiveSpace:
    """CP^n through unit representatives; ambient = realified C^{n+1}."""

    def __init__(self, n: int):
        self.n = n

    @property
    def ambient(self) -> int:
        return 2 * (self.n + 1)

    def to_ambient(self, point: ProjectivePoint) -> np.ndarray:
        return realify(point.rep)

    def from_ambient(self, x: np.ndarray) -> ProjectivePoint:
        return proj_normalize(complexify(x))

    def aligned_ambient(self, center: ProjectivePoint, point: ProjectivePoint) -> np.ndarray:
        # rotate the gauge so <center, point> is real positive; removes any
        # canonical-phase jump between nearby representatives
        rep = point.rep
        if rep.ndim != 1:
            overlap = np.einsum("ij,ij->i", center.rep.conj(), rep)
            mag = np.abs(overlap)
            phase = np.ones_like(overlap)
            keep = mag > 1e-12
            phase[keep] = overlap[keep].conjugate() / mag[keep]
            return realify(rep * phase[:, None])
        overlap = np.vdot(center.rep, rep)
        mag = abs(overlap)
        if mag > 1e-12:
            rep = rep * (overlap.conjugate() / mag)
        return realify(rep)

    def tangent_project(self, point: ProjectivePoint, w: np.ndarray) -> np.ndarray:
        return realify(horizontal_project(point, complexify(w)))


class CotangentSpace:
    """Constraint set {|p| = k, <p,q> = 0} inside R^{n+1} + R^{n+1}."""

    def __init__(self, n: int, base_radius: float = 1.0):
        self.n = n
        self.base_radius = base_radius

    @property
    def ambient(self) -> int:
        return 2 * (self.n + 1)

    def to_ambient(self, m: CotangentPoint) -> np.ndarray:
        return np.concatenate([m.p, m.q])

    def from_ambient(self, x: np.ndarray) -> CotangentPoint:
        d = x.size // 2
        return retract(x[:d], x[d:], self.base_radius)

    def aligned_ambient(self, center: CotangentPoint, m: CotangentPoint) -> np.ndarray:
        return self.to_ambient(m)

    def tangent_project(self, m: CotangentPoint, w: np.ndarray) -> np.ndarray:
        frame = constraint_frame(m.p, m.q)
        return frame.T @ (frame @ w)


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

    def to_ambient(self, pair) -> np.ndarray:
        return np.concatenate(
            [self.left.to_ambient(pair[0]), self.right.to_ambient(pair[1])], axis=-1
        )

    def from_ambient(self, x: np.ndarray):
        a, b = self._split(x)
        return (self.left.from_ambient(a), self.right.from_ambient(b))

    def aligned_ambient(self, center, pair) -> np.ndarray:
        return np.concatenate(
            [
                self.left.aligned_ambient(center[0], pair[0]),
                self.right.aligned_ambient(center[1], pair[1]),
            ],
            axis=-1,
        )

    def tangent_project(self, pair, w: np.ndarray) -> np.ndarray:
        a, b = self._split(w)
        return np.concatenate(
            [self.left.tangent_project(pair[0], a), self.right.tangent_project(pair[1], b)],
            axis=-1,
        )


# ---------------------------------------------------------------------------
# Smooth maps with finite-difference jacobian action.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothMap:
    """Evaluator plus finite-difference differential between two spaces.

    ``func`` maps domain points to target points. ``differential`` realizes
    the jacobian action on ambient tangent vectors by a central difference:
    offsets are retracted onto the domain manifold, outputs are gauge-aligned
    against the center value, and the quotient is projected onto the target
    tangent space (horizontal projection for projective targets).
    """

    domain: Any
    target: Any
    func: Callable[[Any], Any]
    name: str = ""
    step: float = DEFAULT_PROFILE.fd_step

    def __call__(self, x):
        return self.func(x)

    def differential(self, x, v, center=None) -> np.ndarray:
        h = self.step
        if center is None:
            center = self.func(x)
        base = self.domain.to_ambient(x)
        outs = []
        for sgn in (1.0, -1.0):
            try:
                y = self.func(self.domain.from_ambient(base + sgn * h * v))
            except Exception as exc:
                raise ValueError(
                    f"map {self.name or '<anonymous>'} failed at offset x {'+' if sgn > 0 else '-'} {h:g}*v: {exc}"
                ) from exc
            outs.append(self.target.aligned_ambient(center, y))
        quotient = (outs[0] - outs[1]) / (2.0 * h)
        return self.target.tangent_project(center, quotient)


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
    name: str = ""

    def __call__(self, point, v1, v2) -> float:
        return self.func(point, v1, v2)


def _omega_std_ambient(v1: np.ndarray, v2: np.ndarray) -> float | np.ndarray:
    """Standard symplectic form on R^{2m}: sum_k (v1^x_k v2^y_k - v1^y_k v2^x_k).

    The first half of a vector (x-block) pairs with the second (y-block), as
    z_k = x_k + i y_k under :func:`quadcover.numerics.realify`.
    """
    if v1.ndim != 1:
        # (N, 2m) batches of tangents: one value per row
        m = v1.shape[1] // 2
        return np.einsum("ij,ij->i", v1[:, :m], v2[:, m:]) - np.einsum(
            "ij,ij->i", v1[:, m:], v2[:, :m]
        )
    m = v1.size // 2
    return float(v1[:m] @ v2[m:] - v1[m:] @ v2[:m])


def cotangent_omega_std(n: int, base_radius: float = 1.0) -> TwoForm:
    """Restriction of omega_std to the cotangent constraint set."""
    return TwoForm(
        space=CotangentSpace(n, base_radius),
        func=lambda _, a, b: _omega_std_ambient(a, b),
        name="omega_std|T*S^n",
    )


def fubini_study_form(n: int, name: str = "omega_FS") -> TwoForm:
    """Fubini-Study form of CP^n on horizontal lifts at unit representatives.

    On horizontal vectors at a unit representative the form equals omega_std
    of the realified ambient space; this normalization gives CP^1 total area
    pi (the round sphere of radius 1/2).
    """
    return TwoForm(
        space=ProjectiveSpace(n), func=lambda _, a, b: _omega_std_ambient(a, b), name=name
    )


def scaled_form(form: TwoForm, c: float, name: str = "") -> TwoForm:
    return TwoForm(
        space=form.space,
        func=lambda pt, a, b: c * form.func(pt, a, b),
        name=name or f"{c:g}*{form.name}",
    )


def product_form(left: TwoForm, right: TwoForm, name: str = "") -> TwoForm:
    """Direct sum form on the product of the two underlying spaces."""
    space = ProductSpace(left.space, right.space)

    def evaluate(pair, a, b):
        (a1, a2), (b1, b2) = space._split(a), space._split(b)
        return left.func(pair[0], a1, b1) + right.func(pair[1], a2, b2)

    return TwoForm(space=space, func=evaluate, name=name or f"{left.name}(+){right.name}")


# ---------------------------------------------------------------------------
# The pushed-down form omega_r on CP^n minus the branch quadric.
# ---------------------------------------------------------------------------


def omega_r(
    point: ProjectivePoint,
    v1,
    v2,
    r: float,
    profile: ToleranceProfile = DEFAULT_PROFILE,
    sheet: int = +1,
) -> float:
    """Pushed-down form on CP^n, off the branch quadric.

    Lifts the point and both tangents (realified horizontal vectors) through
    the local inverse of the coordinate-dropping cover (implicit
    differentiation of the quadric equation gives dw = -(z . v)/w) and
    evaluates 2r * omega_FS on the quadric upstairs. The value is
    sheet-independent because the deck map is a unitary coordinate sign flip.
    The point lifts by the square-root section [z] -> [z : i sqrt(sum z^2)];
    the principal square root fixes the sheet, and ``sheet=-1`` selects the
    deck image.

    A batch of N points (an (N, n+1) representative array) with (N, 2(n+1))
    real tangents gives N values; BranchLocusError is raised if any row is
    within the branch margin.
    """
    rep = point.rep
    if rep.ndim != 1:
        return _omega_r_rows(rep, v1, v2, r, profile, sheet)
    s = complex(np.sum(rep * rep))
    if abs(s) <= profile.branch_margin:
        raise BranchLocusError(
            f"|sum z^2| = {abs(s):.3e} is within the branch margin {profile.branch_margin:g}"
        )
    w = sheet * 1j * np.sqrt(s)
    lifted = np.concatenate([rep, [w]])
    norm2 = 1.0 + abs(s)

    def lift_tangent(vc: np.ndarray) -> np.ndarray:
        dw = -np.sum(rep * vc) / w
        tilde = np.concatenate([vc, [dw]])
        tilde = tilde - (np.vdot(lifted, tilde) / norm2) * lifted
        return tilde / np.sqrt(norm2)

    h1 = lift_tangent(complexify(v1))
    h2 = lift_tangent(complexify(v2))
    return 2.0 * r * float(np.imag(np.vdot(h1, h2)))


def _omega_r_rows(rep, v1, v2, r, profile, sheet) -> np.ndarray:
    """Row-wise :func:`omega_r` on a batch of representatives and real tangents."""
    s = np.einsum("ij,ij->i", rep, rep)
    near = np.abs(s) <= profile.branch_margin
    if near.any():
        bad = abs(s[int(np.argmax(near))])
        raise BranchLocusError(
            f"|sum z^2| = {bad:.3e} is within the branch margin {profile.branch_margin:g}"
        )
    w = sheet * 1j * np.sqrt(s)
    lifted = np.concatenate([rep, w[:, None]], axis=1)
    norm2 = 1.0 + np.abs(s)

    def lift_tangent(vc: np.ndarray) -> np.ndarray:
        dw = -np.einsum("ij,ij->i", rep, vc) / w
        tilde = np.concatenate([vc, dw[:, None]], axis=1)
        tilde = tilde - (np.einsum("ij,ij->i", lifted.conj(), tilde) / norm2)[:, None] * lifted
        return tilde / np.sqrt(norm2)[:, None]

    h1 = lift_tangent(complexify(v1))
    h2 = lift_tangent(complexify(v2))
    return 2.0 * r * np.einsum("ij,ij->i", h1.conj(), h2).imag


# ---------------------------------------------------------------------------
# Pullback and surface integration.
# ---------------------------------------------------------------------------


def pullback(f: SmoothMap, target_form: TwoForm, x, v1, v2) -> float:
    """(f^* form)(x; v1, v2) = form(f(x), Df(x) v1, Df(x) v2)."""
    w1 = f.differential(x, v1)
    w2 = f.differential(x, v2)
    return target_form(f(x), w1, w2)


def integrate_surface(param: SmoothMap, form: TwoForm, nodes: int = 200) -> float:
    """Integrate a two-form over a surface parametrized on a closed rectangle.

    ``param`` must have a bounded 2d BoxSpace domain; the integrand is
    form(param(u, v), d_u param, d_v param) evaluated by tensor-product
    Gauss-Legendre quadrature, one row of nodes at a time: ``param``, its
    differential and ``form`` are called on the (N, 2) array of a row's
    (u, v) nodes, so the chart and the form must accept a leading batch axis
    (a chart that returns a single point for the whole row is allowed; its
    value is broadcast over the row).
    """
    dom = param.domain
    if not isinstance(dom, BoxSpace) or dom.dim != 2 or dom.bounds is None:
        raise ValueError("integrate_surface needs a parametrization on a bounded 2d box")
    (lo, hi) = dom.bounds
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])

    def integrand(u: float, vs: np.ndarray) -> np.ndarray | float:
        x = np.column_stack([np.full(vs.size, u), vs])
        point = param(x)
        du = param.differential(x, e1, center=point)
        dv = param.differential(x, e2, center=point)
        return form(point, du, dv)

    return gauss_legendre_2d(integrand, lo[0], hi[0], lo[1], hi[1], nodes_per_axis=nodes)
