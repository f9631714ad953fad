"""Points and complex horizontal tangent vectors of complex projective space.

Points are stored as unit-norm representatives with a canonical phase (the
entry of largest modulus is real and positive, ties broken by lowest index),
so no charts are ever needed. A tangent vector is a plain complex array, the
horizontal lift: an ambient vector orthogonal, in the real sense, to both the
representative and its i-rotation, which is the same as complex
orthogonality to the representative. Maps and forms take it realified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProjectivePoint",
    "proj_normalize",
    "quadric_residual",
    "in_hyperplane",
    "projective_defect",
    "sample_projective",
    "sample_horizontal",
]


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """Point of CP^n held as a unit-norm complex representative.

    ``rep`` may also be an (N, n+1) batch of representatives, as returned by
    :func:`proj_normalize` on a 2-D array; the other functions of this
    module take single points only, except :func:`quadric_residual` and
    :func:`horizontal_project`.
    """

    rep: np.ndarray

    @property
    def dim(self) -> int:
        return self.rep.shape[-1] - 1


def proj_normalize(z: np.ndarray) -> ProjectivePoint:
    """Canonical-phase unit representative of the projective class [z].

    A 1-D ``z`` is one point. An (N, m) array is a batch of N points, each
    row normalized by the same arithmetic as a 1-D input; the result holds
    the (N, m) array of representatives. Raises ValueError on near-zero input
    (degenerate point), for a batch if any row is degenerate.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        return _proj_normalize_rows(z)
    mags = np.abs(z)
    norm = np.sqrt(float(mags @ mags))
    if norm <= 1e-12:
        raise ValueError("degenerate point: representative norm below 1e-12")
    k = int(np.argmax(mags))
    z = z * (z[k].conjugate() / (mags[k] * norm))
    # force the pivot entry exactly real; its imaginary part is rounding noise
    z[k] = z[k].real
    return ProjectivePoint(rep=z)


def _proj_normalize_rows(z: np.ndarray) -> ProjectivePoint:
    """Row-wise :func:`proj_normalize` of an (N, m) array."""
    mags = np.abs(z)
    norm = np.sqrt(np.einsum("ij,ij->i", mags, mags))
    if np.any(norm <= 1e-12):
        raise ValueError("degenerate point: representative norm below 1e-12")
    rows = np.arange(z.shape[0])
    k = np.argmax(mags, axis=1)
    z = z * (z[rows, k].conjugate() / (mags[rows, k] * norm))[:, None]
    z[rows, k] = z[rows, k].real
    return ProjectivePoint(rep=z)


def horizontal_project(point: ProjectivePoint, v: np.ndarray) -> np.ndarray:
    """Project an ambient complex vector onto the horizontal space at ``point``.

    Subtracting the real components along rep and i*rep equals the complex
    projection v - <rep, v> rep. A batch of N points takes an (N, n+1) array
    of vectors, one per row.
    """
    v = np.asarray(v, dtype=complex)
    rep = point.rep
    if rep.ndim != 1:
        return v - np.einsum("ij,ij->i", rep.conj(), v)[:, None] * rep
    return v - np.vdot(rep, v) * rep


def quadric_residual(point: ProjectivePoint) -> complex | np.ndarray:
    """Sum of squared representative entries; zero iff the point is on the quadric.

    A batch of N points gives an array of N sums, one per row.
    """
    return np.sum(point.rep * point.rep, axis=-1)


def in_hyperplane(point: ProjectivePoint, i: int, tol: float = 1e-10) -> bool:
    """True iff the i-th homogeneous coordinate vanishes to within ``tol``."""
    if not 0 <= i < point.rep.size:
        raise IndexError(f"coordinate index {i} out of range for CP^{point.dim}")
    return bool(abs(point.rep[i]) <= tol)


def projective_defect(a: ProjectivePoint, b: ProjectivePoint) -> float:
    """1 - |<rep_a, rep_b>|; zero iff the two classes coincide."""
    return float(1.0 - abs(np.vdot(a.rep, b.rep)))


def sample_projective(n: int, rng: np.random.Generator) -> ProjectivePoint:
    """Uniform point of CP^n (normalized complex Gaussian)."""
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return proj_normalize(z)


def sample_horizontal(point: ProjectivePoint, rng: np.random.Generator) -> np.ndarray:
    """Random horizontal tangent at ``point`` of unit ambient norm."""
    v = rng.standard_normal(point.rep.size) + 1j * rng.standard_normal(point.rep.size)
    tangent = horizontal_project(point, v)
    norm = np.linalg.norm(tangent)
    if norm <= 1e-12:
        return sample_horizontal(point, rng)
    return tangent / norm
