"""Shared numerical primitives.

Counter-based seeded sampling streams, tensor-product Gauss-Legendre
quadrature, the real-complex coordinate pairing and the tolerance profiles.
Everything downstream (pullback checks, flow comparisons, period integrals)
is built on these ingredients, so their contracts are kept deliberately
small: pure functions, explicit generator state, no hidden caches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ToleranceProfile",
    "DEFAULT_PROFILE",
    "STRICT_PROFILE",
    "PROFILES",
    "derive_stream",
    "gauss_legendre_2d",
    "realify",
    "complexify",
]


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical knobs shared by every module.

    fd_step balances O(h^2) truncation against double-precision cancellation;
    branch_margin keeps the square-root lift of the pushed-down form away from
    the branch locus where its derivative blows up.
    """

    fd_step: float = 1e-5
    residual_tol: float = 1e-10
    flow_tol: float = 1e-12
    quadrature_tol: float = 1e-6
    branch_margin: float = 1e-3

    def __post_init__(self) -> None:
        for field in ("fd_step", "residual_tol", "flow_tol", "quadrature_tol", "branch_margin"):
            if not getattr(self, field) > 0.0:
                raise ValueError(f"{field} must be strictly positive")
        if self.fd_step >= 1e-3:
            raise ValueError("fd_step must be below 1e-3")


DEFAULT_PROFILE = ToleranceProfile()
STRICT_PROFILE = ToleranceProfile(residual_tol=1e-11, flow_tol=1e-13, quadrature_tol=1e-7)
PROFILES = {"default": DEFAULT_PROFILE, "strict": STRICT_PROFILE}


def derive_stream(master_seed: int, name: str) -> np.random.Generator:
    """Independent counter-based stream keyed by (master seed, name).

    Philox is counter-based, so streams with distinct keys never collide and
    every named consumer owns its own reproducible sequence.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    key = int.from_bytes(digest[:16], "big")
    return np.random.Generator(np.random.Philox(key=key))


def gauss_legendre_2d(
    g: Callable[[float, np.ndarray], np.ndarray | float],
    a: float,
    b: float,
    c: float,
    d: float,
    nodes_per_axis: int = 200,
) -> float:
    """Tensor-product Gauss-Legendre estimate of a double integral.

    ``g`` is called once per quadrature row as ``g(u, vs)``, where ``u`` is
    the row's node on [a, b] and ``vs`` is the array of all nodes on [c, d];
    it returns the row's values, one per entry of ``vs``, or a scalar that
    is broadcast over the row. ``g`` must be continuous on the closed
    rectangle; a non-finite value at any node is raised as an evaluation
    error naming the first such node, rather than silently summed.
    """
    if nodes_per_axis < 2:
        raise ValueError("nodes_per_axis must be >= 2")
    xs, wx = np.polynomial.legendre.leggauss(nodes_per_axis)
    us = 0.5 * (b - a) * xs + 0.5 * (a + b)
    vs = 0.5 * (d - c) * xs + 0.5 * (c + d)
    wu = 0.5 * (b - a) * wx
    wv = 0.5 * (d - c) * wx
    total = 0.0
    for i, u in enumerate(us):
        vals = np.broadcast_to(np.asarray(g(u, vs), dtype=float), vs.shape)
        bad = ~np.isfinite(vals)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(f"integrand returned non-finite value {vals[j]} at ({u}, {vs[j]})")
        total += wu[i] * float(wv @ vals)
    return total


def realify(z: np.ndarray) -> np.ndarray:
    """Complex C^m vector as real R^{2m}: real parts first, imaginary second.

    Acts on the last axis, so an (N, m) array of N vectors gives (N, 2m).
    """
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


def complexify(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`realify` on the last axis; requires real input of even length."""
    if np.iscomplexobj(x):
        raise ValueError("cannot pair coordinates of a complex vector; realify it first")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] % 2:
        raise ValueError("cannot pair coordinates of an odd-length vector")
    m = x.shape[-1] // 2
    return x[..., :m] + 1j * x[..., m:]
