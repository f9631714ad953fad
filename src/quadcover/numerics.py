"""Shared numerical primitives.

Counter-based seeded sampling streams, tensor-product Gauss-Legendre
quadrature and the real-complex coordinate pairing.
Everything downstream (pullback checks, flow comparisons, period integrals)
is built on these ingredients, so their contracts are kept deliberately
small: pure functions, explicit generator state, and one cache, of the
read-only Gauss-Legendre rules.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable

import numpy as np

from .jets import Jet

__all__ = [
    "BLOCK_NODES",
    "CHUNK_ROWS",
    "derive_stream",
    "fill_accepted",
    "gauss_legendre_2d",
    "row_norms",
    "realify",
    "complexify",
]


# most rows a batched residual evaluates at once, which bounds the
# temporaries of one call; the inputs a generated run holds are bounded by its
# largest block, not by the chunk. A row can carry several 4-8-entry tangents,
# and L-projemb ran slower at 4096 rows a chunk (median 27.1 -> 28.0 ms, 30
# interleaved runs on 2 cores)
CHUNK_ROWS = 1024

# most quadrature nodes an integrand call evaluates at once, in whole rows. A
# node is one point of CP^1 to CP^3, far lighter than a residual row, and a
# jet pass of a period chart makes 230-430 Python calls whatever its size
# (cProfile). On 2 cores the three period checks' benchmark pass took 22.6 ms
# at 1024 nodes a block, 19 at 2048, 16.8 at 4096 and 17.5 at 8192 (4
# interleaved runs each), and a period check's traced peak rose from 0.4-0.6
# to 1.1-1.8 MiB at 4096
BLOCK_NODES = 4096


def derive_stream(master_seed: int, name: str) -> np.random.Generator:
    """Independent counter-based stream keyed by (master seed, name).

    Philox is counter-based, so streams with distinct keys never collide and
    every named consumer owns its own reproducible sequence.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    key = int.from_bytes(digest[:16], "big")
    return np.random.Generator(np.random.Philox(key=key))


def fill_accepted(count: int, draw: Callable, accept: Callable) -> tuple[np.ndarray, ...]:
    """``count`` rows, each slot holding the first of its draws that ``accept`` keeps.

    ``draw(index)`` returns a tuple of arrays with one candidate row per slot
    of the integer array ``index``; ``accept(*arrays)`` marks the rows to
    keep. The first round draws every slot and each later round one block
    for the slots still empty, so a stream is read in one call per round and
    ``draw`` may tie a row to its slot (a fiber direction to its base point).
    """
    index = np.arange(count)
    out = None
    while out is None or index.size:
        rows = draw(index)
        keep = np.asarray(accept(*rows), dtype=bool)
        if out is None:
            out = tuple(np.empty((count, *a.shape[1:]), dtype=a.dtype) for a in rows)
        for full, part in zip(out, rows):
            full[index[keep]] = part[keep]
        index = index[~keep]
    return out


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of a real or complex array, row by row.

    Row arithmetic only, so a row's norm does not depend on the other rows;
    its bits can differ from ``np.linalg.norm``, whose 1-D dot may fuse
    multiply and add.
    """
    x = realify(x) if np.iscomplexobj(x) else np.asarray(x, dtype=float)
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _null_frame(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the null space of ``rows``, k independent rows of length m.

    The last m - k right singular vectors. A stack of (..., k, m) matrices
    gives (..., m - k, m) frames. A smallest singular value at or below 1e-10
    of the largest (or NaN) in any matrix raises RuntimeError with the
    dimension found. ``np.linalg.svd`` is looked up at each call.
    """
    k, m = rows.shape[-2:]
    _, svals, vh = np.linalg.svd(rows)
    degenerate = ~(svals[..., -1] > 1e-10 * svals[..., 0])
    if degenerate.any():
        first = svals[np.unravel_index(np.argmax(degenerate), degenerate.shape)]
        rank = int(np.sum(first > 1e-10 * first[0]))
        raise RuntimeError(f"numerical rank failure: expected tangent dimension {m - k}, got {m - rank}")
    return vh[..., k:, :]


@functools.lru_cache(maxsize=8)
def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node count and read-only."""
    rule = np.polynomial.legendre.leggauss(nodes)
    for a in rule:
        a.flags.writeable = False
    return rule


def gauss_legendre_2d(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray | float],
    a: float,
    b: float,
    c: float,
    d: float,
    nodes_per_axis: int = 200,
) -> float | list[float]:
    """Tensor-product Gauss-Legendre estimate of a double integral, or of K at once.

    ``g`` is called as ``g(u, v)`` on blocks of whole quadrature rows: a
    block holds ``max(1, BLOCK_NODES // nodes_per_axis)`` consecutive rows
    (the last one may hold fewer), so at most ``max(BLOCK_NODES,
    nodes_per_axis)`` nodes, and ``u`` and ``v`` are flat arrays of
    equal length N with the block's nodes row by row, a row being one node
    on [a, b] paired with every node on [c, d]. ``g`` returns one value per
    node, or a scalar that is broadcast over the block, and the estimate is
    a float. Each row is reduced as ``wv @ row`` and the rows are summed in
    order, so an integrand that computes each node by elementwise row
    arithmetic gives the same bits at every block size.

    An integrand that returns a (K, N) array, K values per node on its
    leading axis, gives a list of K estimates. Each component is reduced by
    the same loop, one ``wv @ row`` per row in order and never one product
    over the K components (whose BLAS rounding differs), so estimate k has
    the bits of an integrand that returns row k of that array alone.

    ``g`` must be continuous on the closed rectangle; a non-finite value at
    any node, in any component, is raised as an evaluation error naming the
    first such node, rather than silently summed.
    """
    if nodes_per_axis < 2:
        raise ValueError("nodes_per_axis must be >= 2")
    xs, wx = _legendre_rule(nodes_per_axis)
    us = 0.5 * (b - a) * xs + 0.5 * (a + b)
    vs = 0.5 * (d - c) * xs + 0.5 * (c + d)
    wu = 0.5 * (b - a) * wx
    wv = 0.5 * (d - c) * wx
    per_block = max(1, BLOCK_NODES // nodes_per_axis)
    totals: list[float] = []
    for lo in range(0, nodes_per_axis, per_block):
        rows = us[lo : lo + per_block]
        u = np.repeat(rows, nodes_per_axis)
        v = np.tile(vs, rows.size)
        vals = np.asarray(g(u, v), dtype=float)
        many = vals.ndim == 2
        # one leading component axis either way: a single integrand is component 0
        vals = vals if many else np.broadcast_to(vals, u.shape)[None]
        bad = ~np.isfinite(vals)
        if bad.any():
            j = int(np.argmax(bad.any(axis=0)))
            k = int(np.argmax(bad[:, j]))
            raise ValueError(f"integrand returned non-finite value {vals[k, j]} at ({u[j]}, {v[j]})")
        totals = totals or [0.0] * len(vals)
        for k, component in enumerate(vals):
            for i, row in enumerate(component.reshape(rows.size, nodes_per_axis), start=lo):
                totals[k] += wu[i] * float(wv @ row)
    return totals if many else totals[0]


def realify(z: np.ndarray) -> np.ndarray:
    """Complex C^m vector as real R^{2m}: real parts first, imaginary second.

    Acts on the last axis, so an (N, m) array of N vectors gives (N, 2m); a
    jet gives a jet.
    """
    if not isinstance(z, Jet):
        z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


def complexify(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`realify` on the last axis; requires real input of even length.

    A jet of real values gives a jet.
    """
    if not isinstance(x, Jet):
        if np.iscomplexobj(x):
            raise ValueError("cannot pair coordinates of a complex vector; realify it first")
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] % 2:
            raise ValueError("cannot pair coordinates of an odd-length vector")
    m = x.shape[-1] // 2
    return x[..., :m] + 1j * x[..., m:]
