"""Points and complex horizontal tangent vectors of complex projective space.

Points are stored as unit-norm representatives with a canonical phase (the
entry of largest modulus is real and positive, ties broken by lowest index),
so no charts are ever needed. A tangent vector is a plain complex array, the
horizontal lift: an ambient vector orthogonal, in the real sense, to both the
representative and its i-rotation, which is the same as complex
orthogonality to the representative. Maps and forms take it realified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import Jet
from .numerics import fill_accepted, row_norms

__all__ = [
    "ProjectivePoint",
    "proj_normalize",
    "quadric_residual",
    "projective_defect",
    "sample_projective",
    "sample_horizontal",
]


@dataclass(frozen=True, eq=False, slots=True)
class ProjectivePoint:
    """Point of CP^n held as a unit-norm complex representative.

    ``rep`` may also be an (N, n+1) batch of representatives, as returned by
    :func:`proj_normalize` on a 2-D array or by :func:`sample_projective`
    with a ``size``; every function of this module acts on the last axis, so
    it takes a single point or a batch alike.
    """

    rep: np.ndarray


def proj_normalize(z) -> ProjectivePoint:
    """Canonical-phase unit representative of the projective class [z].

    A 1-D ``z`` is one point. An (N, m) array is a batch of N points, each
    row normalized by the same arithmetic as a 1-D input, so a row and the
    point alone give the same bits; one point, or a batch of one row, takes
    the 1-D body, at under half the row body's cost. Raises ValueError on
    near-zero input (degenerate point), for a batch if any row is
    degenerate.

    A :class:`~quadcover.jets.Jet` ``z`` (an unnormalized lift F with its
    tangents dF) gives a point whose representative is the jet of the
    normalized value by the row body, with tangents c dF, c the gauge factor
    applied to each row. c dF differs from the derivative of the normalized
    lift by a multiple of the representative, which the horizontal
    projection of a pushforward removes.
    """
    if isinstance(z, Jet):
        value = z.value.reshape(-1, z.shape[-1])
        rep, gauge = _normalize_rows(value)
        gauge = gauge.reshape(z.shape[:-1])[..., None]
        return ProjectivePoint(rep=Jet(rep.reshape(z.shape), z.tangent * gauge))
    z = np.asarray(z, dtype=complex)
    if z.ndim == 1:
        return ProjectivePoint(rep=_normalize_point(z))
    if len(z) == 1:
        return ProjectivePoint(rep=_normalize_point(z[0])[None])
    return ProjectivePoint(rep=_normalize_rows(z)[0])


def _normalize_point(z: np.ndarray) -> np.ndarray:
    """Body of :func:`proj_normalize` on one 1-D point; the same reductions as the row body."""
    mags = np.abs(z)
    # math.sqrt rounds as np.sqrt does, without a numpy scalar's overhead
    norm = math.sqrt(np.einsum("i,i->", mags, mags))
    if norm <= 1e-12:
        raise ValueError("degenerate point: representative norm below 1e-12")
    k = int(mags.argmax())
    z = z * (z[k].conjugate() / (mags[k] * norm))
    # force the pivot entry exactly real; its imaginary part is rounding noise
    z[k] = z[k].real
    return z


def _normalize_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Body of :func:`proj_normalize` on the rows of an (N, m) array, and the gauge factor of each row.

    The pivot of each row is read and written through one flat index.
    """
    mags = np.abs(z)
    norm = np.sqrt(np.einsum("ij,ij->i", mags, mags))
    if (norm <= 1e-12).any():
        raise ValueError("degenerate point: representative norm below 1e-12")
    rows, m = z.shape
    pivot = mags.argmax(axis=1)
    pivot += np.arange(0, rows * m, m)
    gauge = z.ravel()[pivot].conjugate() / (mags.ravel()[pivot] * norm)
    z = z * gauge[:, None]
    flat = z.reshape(-1)
    flat[pivot] = flat[pivot].real
    return z, gauge


def horizontal_project(point: ProjectivePoint, v: np.ndarray) -> np.ndarray:
    """Project an ambient complex vector onto the horizontal space at ``point``.

    Subtracting the real components along rep and i*rep equals the complex
    projection v - <rep, v> rep. A batch of N points takes an (N, n+1) array
    of vectors, one per row.
    """
    v = np.asarray(v, dtype=complex)
    return v - np.einsum("...i,...i->...", point.rep.conj(), v)[..., None] * point.rep


def quadric_residual(point: ProjectivePoint) -> complex | np.ndarray:
    """Sum of squared representative entries; zero iff the point is on the quadric.

    A batch of N points gives an array of N sums, one per row.
    """
    return np.add.reduce(point.rep * point.rep, axis=-1)


def projective_defect(a: ProjectivePoint, b: ProjectivePoint) -> float | np.ndarray:
    """1 - |<rep_a, rep_b>|; zero iff the two classes coincide.

    Two batches of N points give an array of N defects, one per row, each
    with the bits of the two rows' single-point defect.
    """
    return 1.0 - np.abs(np.einsum("...i,...i->...", a.rep.conj(), b.rep))


def sample_projective(
    n: int, rng: np.random.Generator, size: int | None = None
) -> ProjectivePoint:
    """Uniform point of CP^n (normalized complex Gaussian).

    ``size=N`` draws N independent points as one batch of (N, n+1)
    representatives.
    """
    shape = (n + 1,) if size is None else (size, n + 1)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return proj_normalize(z)


def sample_horizontal(point: ProjectivePoint, rng: np.random.Generator) -> np.ndarray:
    """Random horizontal tangent at ``point`` of unit ambient norm.

    A batch of N points gives an (N, n+1) array, one tangent per row. A draw
    whose projection has norm at or below 1e-12 is drawn again.
    """
    rep = np.atleast_2d(point.rep)

    def draw(index):
        shape = (index.size, rep.shape[1])
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return (horizontal_project(ProjectivePoint(rep[index]), v),)

    (tangent,) = fill_accepted(len(rep), draw, lambda t: row_norms(t) > 1e-12)
    return (tangent / row_norms(tangent)[:, None]).reshape(point.rep.shape)
