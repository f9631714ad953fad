"""Forward-mode jets: a value carried with its derivatives along k directions.

A :class:`Jet` holds a value array and, stacked on the leading axis of
``tangent`` (shape ``(k,) + value.shape``), its derivatives along k real
directions of some domain. The maps of the construction are written once on
numpy arrays; handed a jet, the few operations they use (``+ - * /``,
``conj``, ``sqrt``, ``exp``, ``cos``, ``sin``, ``einsum``, ``concatenate``,
``stack``, indexing, ``.real`` and ``.imag``) carry the tangents along by the
chain rule, so one pass of a map gives its value and its exact pushforward of
all k directions (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 3). Each value is computed by the numpy call the plain map makes on the
same arrays, so it has the bits of the plain evaluation. An ordering
comparison (``<``, ``<=``, ``>``, ``>=``) reads the values alone. These are dual numbers, not a complex step: the maps
conjugate, so they are not holomorphic in their inputs.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

__all__ = ["Jet", "primal"]


class Jet(NDArrayOperatorsMixin):
    """A value and its derivatives along k directions, ``tangent[j]`` the j-th."""

    __slots__ = ("value", "tangent")

    def __init__(self, value: np.ndarray, tangent: np.ndarray):
        self.value = value
        self.tangent = tangent

    shape = property(lambda self: self.value.shape)
    real = property(lambda self: Jet(self.value.real, self.tangent.real))
    imag = property(lambda self: Jet(self.value.imag, self.tangent.imag))

    def __array__(self, *args, **kwargs):
        raise TypeError("a Jet does not convert to an array; take its value")

    def conj(self) -> Jet:
        return Jet(self.value.conj(), self.tangent.conj())

    def __getitem__(self, index) -> Jet:
        index = index if isinstance(index, tuple) else (index,)
        return Jet(self.value[index], self.tangent[(slice(None), *index)])

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or not (ufunc in _RULES or ufunc in _VALUE_ONLY):
            return NotImplemented
        values = [primal(x) for x in inputs]
        out = ufunc(*values)
        if ufunc in _VALUE_ONLY:
            return out
        tangent = _RULES[ufunc](out, *values, *[_padded(x, out.ndim) for x in inputs])
        shape = self.tangent.shape[:1] + out.shape
        return Jet(out, tangent if tangent.shape == shape else np.broadcast_to(tangent, shape))

    def __array_function__(self, func, types, args, kwargs):
        impl = _FUNCTIONS.get(func)
        return NotImplemented if impl is None else impl(*args, **kwargs)


def primal(x):
    """The value of a jet; anything else as it is."""
    return x.value if isinstance(x, Jet) else x


def _padded(x, ndim: int):
    """Tangent of a jet with its value axes padded on the left to ``ndim``; None for a constant."""
    if not isinstance(x, Jet):
        return None
    t = x.tangent
    pad = ndim - x.value.ndim
    return t.reshape(t.shape[:1] + (1,) * pad + t.shape[1:]) if pad else t


def _add(out, a, b, ta, tb):
    return tb if ta is None else ta if tb is None else ta + tb


def _subtract(out, a, b, ta, tb):
    return -tb if ta is None else ta if tb is None else ta - tb


def _multiply(out, a, b, ta, tb):
    if ta is None:
        return a * tb
    return ta * b if tb is None else ta * b + a * tb


def _divide(out, a, b, ta, tb):
    # d(a / b) = (da - (a / b) db) / b
    if tb is None:
        return ta / b
    return (-(out * tb) if ta is None else ta - out * tb) / b


_RULES = {
    np.add: _add,
    np.subtract: _subtract,
    np.multiply: _multiply,
    np.true_divide: _divide,
    np.negative: lambda out, a, t: -t,
    np.conjugate: lambda out, a, t: t.conjugate(),
    np.sqrt: lambda out, a, t: t / (2.0 * out),
    np.exp: lambda out, a, t: t * out,
    np.cos: lambda out, a, t: t * -np.sin(a),
    np.sin: lambda out, a, t: t * np.cos(a),
}

_VALUE_ONLY = {np.less, np.less_equal, np.greater, np.greater_equal}


def _tangents_of(arrays, dtype) -> list[np.ndarray]:
    """The tangent of each jet among ``arrays``, and zeros for each constant."""
    k = next(x.tangent.shape[0] for x in arrays if isinstance(x, Jet))
    return [x.tangent if isinstance(x, Jet) else np.zeros((k, *np.shape(x)), dtype) for x in arrays]


def _concatenate(arrays, axis=0):
    out = np.concatenate([primal(x) for x in arrays], axis=axis)
    return Jet(out, np.concatenate(_tangents_of(arrays, out.dtype), axis=axis if axis < 0 else axis + 1))


def _stack(arrays, axis=0):
    out = np.stack([primal(x) for x in arrays], axis=axis)
    return Jet(out, np.stack(_tangents_of(arrays, out.dtype), axis=axis if axis < 0 else axis + 1))


def _einsum(subscripts: str, *operands):
    values = [primal(x) for x in operands]
    out = np.einsum(subscripts, *values)
    # the batch axes each operand puts under "...": a tangent's k axis joins
    # them and lands first in the output
    batch = [np.ndim(v) - width for v, width in zip(values, _einsum_widths(subscripts))]
    tangent = None
    for i, x in enumerate(operands):
        if isinstance(x, Jet):
            t = _padded(x, x.value.ndim + max(batch) - batch[i])
            part = np.einsum(subscripts, *values[:i], t, *values[i + 1 :])
            tangent = part if tangent is None else tangent + part
    return Jet(out, tangent)


@functools.lru_cache(maxsize=None)
def _einsum_widths(subscripts: str) -> tuple[int, ...]:
    """The labels after the leading "..." of each operand; every term must lead with "..."."""
    terms = subscripts.replace("->", ",").split(",")
    if not all(term.startswith("...") for term in terms):
        raise NotImplementedError(f"einsum of jets needs '...' leading every term, got {subscripts!r}")
    return tuple(len(term) - 3 for term in terms[:-1])


_FUNCTIONS = {np.concatenate: _concatenate, np.stack: _stack, np.einsum: _einsum}
