"""Named verification registry, runner, and machine-readable reporting.

Every computationally checkable statement of the compactification
construction is bound to one check id with a pinned tolerance, declared once
by :func:`_check` directly above the check's residual; the registry is built
once, at import. Residual-style checks sample inputs from a private generator
stream and report the worst residual; witness-style checks (the negative
statements) search for a single input exceeding a threshold and report the
best witness found. A check can be re-run on a serialized witness to
reproduce its residual exactly.

Each check declares its input fields in row order with their kinds, which
validate a generated run's params and parse a witness row into a one-row
:class:`Block` (NaN if the row breaks them). A generator returns a list of
draws, zero-argument functions that each draw one block of rows stored by
field from the check's stream, called in list order. :meth:`Check.score` is
the one scorer of rows: a generated run calls a draw, scores its block chunk
by chunk, keeps the running worst residual with a plain-JSON copy of its row
(:meth:`Block.plain`), and drops the block before the next draw, so it holds
one block plus one chunk's temporaries, whatever its sample count; a replay
scores its parsed witness, a block of one row, the same way. A row becomes a
plain-JSON dict only as a witness, in a report or for a hash.

Every residual takes a chunk of rows of one block and returns one value per
row; an RK4 check, whose row is a whole trajectory, loops over its chunk's
rows, and a period check, whose row is a whole integral, integrates every
row's form over one jet pass of each chart. A chunk is computed by row
arithmetic only (elementwise operations, ``einsum("ij,ij->i")``, reductions
along the last axis; never stacked matmul or BLAS, whose rounding depends
on the batch size), so a replayed witness reproduces its residual bit for
bit. A residual reads its chunk as it is: a chunk of one row, every replay
among them, is a (1, m) batch that runs the same body. That identity
depends on the loops numpy picks (a complex product of strided columns can
round unlike a contiguous one); tests guard it.
"""

from __future__ import annotations

import fnmatch
import json
import math
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .cotangent import (
    CotangentPoint,
    OffBundleError,
    antipode,
    even_rescale,
    even_rescale_inverse,
    sample_cosphere,
    sample_disc_bundle,
    sample_tangent,
)
from .dynamics import (
    StepLimitError,
    flow_closed_form,
    flow_uneven_cosphere,
    require_steps,
    rk4_integrate,
    scalar_action,
)
from .forms import (
    BRANCH_MARGIN,
    SmoothMap,
    _omega_std_ambient,
    cotangent_omega_std,
    fubini_study_form,
    integrate_surface,
    omega_r,
    product_form,
    pullback,
    scaled_form,
)
from .maps import (
    LOCUS_TOL,
    ROOT2,
    antipodal_cp1,
    ball_embedding,
    branched_cover,
    branched_cover_map,
    cosphere_boundary,
    cotangent_to_quadric,
    deck,
    locus_classify,
    quadric_fiber,
    quadric_to_cotangent,
    real_defect,
    segre_map,
    segre_unitary,
)
from .numerics import (
    CHUNK_ROWS,
    _null_frame,
    derive_stream,
    fill_accepted,
    realify,
    row_norms,
)
from .projective import (
    ProjectivePoint,
    proj_normalize,
    projective_defect,
    quadric_residual,
    sample_horizontal,
    sample_projective,
)

__all__ = [
    "Check",
    "CheckReport",
    "MAX_DIM",
    "MAX_NODES",
    "PROFILES",
    "UsageError",
    "VERIFIED_STATEMENTS",
    "build_registry",
    "run_check",
    "run_suite",
    "emit_report",
    "render_text",
    "render_json",
]

TWO_PI = 2.0 * np.pi


class UsageError(ValueError):
    """Bad invocation: unknown check id, invalid params, or an empty match."""


# ---------------------------------------------------------------------------
# Statements covered by the registry. A self-test compares this manifest
# against the union of `covers` over all checks.
# ---------------------------------------------------------------------------

VERIFIED_STATEMENTS: dict[str, str] = {
    "ball-embedding-pullback": "the radius-r ball embeds with pullback r^2 omega_FS = omega_std",
    "cotangent-to-quadric-image": "the open unit disc bundle fills the quadric minus the lower quadric",
    "unit-cosphere-cut": "the cosphere collapses along the circle action onto the lower quadric",
    "branched-double-cover": "dropping the last coordinate is a double cover with deck sign flip",
    "branch-locus-degeneracy": "the pulled-back form degenerates along the branch locus",
    "quadric-product-structure": "the quadric surface is a product of lines via the twisted Segre map",
    "evened-disc-bundle": "rescaling evens the disc bundle so flow and scalar action agree",
    "pushed-down-form": "the quotient form descends with 2r scaling and matching periods",
    "zero-section-image": "the zero section maps to the real locus and the boundary to the conic",
}


# ---------------------------------------------------------------------------
# Input fields: the kinds a check declares, and blocks of rows stored by field.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Number:
    """An integer of at least ``least`` (a dimension or a count) or, with no ``least``, a finite positive real.

    ``one`` and ``many`` name one value and a list of them in messages, the key
    by default; with ``increasing``, a row holds a list that strictly increases;
    with ``span``, a real lies in that closed range, and with ``most``, an
    integer is at most that.
    """

    least: int | None = None
    one: str = ""
    many: str = ""
    increasing: bool = False
    span: tuple[float, float] | None = None
    most: int | None = None

    def typed(self, value) -> bool:
        # a bool is an int, so its type is refused first; then the builtin
        # types, since an isinstance test against a numbers ABC costs about a microsecond
        if type(value) is bool:
            return False
        return isinstance(value, (int, Integral) if self.least is not None else (float, int, Real))

    def in_range(self, value) -> bool:
        if self.least is not None:
            return self.least <= value and (self.most is None or value <= self.most)
        return math.isfinite(value) and value > 0 and (self.span is None or self.span[0] <= value <= self.span[1])

    def problem(self, key: str, value, listed: bool) -> str | None:
        """Why ``value``, one value or with ``listed`` a list of them, is not of this kind; None if it is."""
        integer, many = self.least is not None, self.many or key
        values = value if listed and isinstance(value, (list, tuple)) else [value]
        if listed != isinstance(value, (list, tuple)) or not all(map(self.typed, values)):
            noun = "integer" if integer else "real number"
            if listed:
                return f"{many} must be a list of {noun}s"
            return f"{self.one or key} must be {'an' if integer else 'a'} {noun}"
        if not values:
            return f"{many} must not be empty"
        if not all(map(self.in_range, values)):
            if integer:
                most = f" and at most {self.most}" if self.most is not None else ""
                return f"{many} must be at least {self.least}{most}"
            within = f", within [{self.span[0]:g}, {self.span[1]:g}]" if self.span else ""
            return f"{many} must be finite and positive{within}"
        if self.increasing and not all(a < b for a, b in zip(values, values[1:])):
            return f"{many} must strictly increase"
        return None

    def parse(self, value, n):
        if self.increasing:
            if self.problem("", value, True):
                raise ValueError("malformed times")
            return tuple(float(v) for v in value)
        if not (self.typed(value) and self.in_range(value)):
            raise ValueError("malformed number")
        return int(value) if self.least is not None else float(value)


@dataclass(frozen=True)
class _Vector:
    """A real vector, or with ``complex`` a ``{"re", "im"}`` pair of them; with ``many``, a non-empty list.

    ``size`` is the length: a number, a function of the row's dimension n, or
    None for any length above 1 (a point of CP^n, n >= 1).
    """

    size: Any
    complex: bool = False
    many: bool = False

    def parse(self, value, n):
        """The value as a one-row column: shape (1, size), or (1, k, size) for a list of k vectors."""
        size = self.size(n) if callable(self.size) else self.size
        if not self.many:
            return self._parse(value, size)[None]
        if not isinstance(value, list) or not value:
            raise ValueError("malformed list of vectors")
        return np.stack([self._parse(v, size) for v in value])[None]

    def _parse(self, value, size) -> np.ndarray:
        if self.complex:
            if not isinstance(value, dict) or set(value) != {"re", "im"}:
                raise ValueError("malformed complex vector")
            value = [value["re"], value["im"]]
        a = np.asarray(value)
        shape = (2, size) if self.complex else (size,)
        if a.dtype.kind not in "iuf" or a.ndim != len(shape) or (a.shape != shape if size else a.shape[-1] < 2):
            raise ValueError("malformed vector")
        a = a.astype(float, copy=False)
        # the (re, im) rows interleaved are the complex entries, bit for bit
        return a.T.ravel().view(complex) if self.complex else a


class _Param(NamedTuple):
    """The kind of a name read only from the params, never a field of a row."""

    kind: _Number


# Every check passes at n = 128 (seed 42): a full run takes 3.2-3.5 s and
# peaks at 0.40 GB, against 0.13 GB at n = 64 and 0.04 GB at n = 8. The peak
# is R-pi-not-symplectic's stack of complex frames, which grows as n^2, so
# n = 256 would need about 1.5 GB; each RK4 dimension also compiles a
# trajectory kernel (``_rk4_kernel``) whose source grows with n.
MAX_DIM = 128
DIM = _Number(1, many="dimensions", most=MAX_DIM)
DIM2 = _Number(2, many="dimensions", most=MAX_DIM)  # on CP^1 every 2-form is a multiple of omega_FS
COUNT = _Number(1)
# A period check at 1000 nodes per axis passes in 0.6 s (I-period-CP1) to
# 1.4 s (I-period-match) on 2 cores, with a traced peak of 9 MiB, most of it
# the nodes x nodes companion matrix of the Gauss-Legendre rule; at 2000 it
# took 2.5-6.8 s and 32 MiB, and 20000 would ask for a 2.98 GiB matrix.
MAX_NODES = 1000
NODES = _Number(2, most=MAX_NODES)  # a quadrature rule needs two nodes per axis
# No check raises at either end over seeds 1-100. At 1e-8 R-uneven-flow's
# fiber reaches the zero-section guard, and at 3e7 the |G X| guard of the RK4
# field trips on rounding; 1e-12 raised "degenerate point", 1.1e10 a rank
# failure and 1e200 OverflowError. Some verdicts fail at the ends, because
# their tolerances are absolute while the residuals scale with the radius.
RADIUS = _Number(one="radius", many="radii", span=(1e-6, 1e6))
TIME = _Number()
TIMES = _Number(increasing=True)
POINT = _Vector(lambda n: n + 1)  # p or q of a point of the cotangent bundle of S^n
TANGENT = _Vector(lambda n: 2 * n + 2)  # an ambient (u, w) tangent there
CVEC = _Vector(lambda n: n + 1, complex=True)  # a vector of C^{n+1}
QVEC = _Vector(lambda n: n + 2, complex=True)  # a vector of C^{n+2}, at the quadric
CP1 = _Vector(2, complex=True)


class Block:
    """Rows of a check's inputs stored by field: a column array with one entry per row, or one shared value.

    A parsed witness is a block of one row, as a draw of one row is: each
    vector a one-row array, each number and label one shared value.
    """

    __slots__ = ("size", "columns")

    def __init__(self, size: int, /, **columns):
        self.size, self.columns = size, columns

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, key: str):
        return self.columns[key]

    def rows(self, index) -> Block:
        """The rows a slice or an index array selects, in its order."""
        size = np.arange(self.size)[index].size
        return Block(size, **{k: v[index] if isinstance(v, np.ndarray) else v for k, v in self.columns.items()})

    def plain(self, i: int, fields: Mapping[str, Any]) -> dict:
        """Row ``i`` as a plain-JSON dict of the ``fields`` it holds, in their order: a witness.

        A number of a 1-D column becomes a Python scalar, as a shared value is.
        """
        row = {key: self.columns[key] for key in fields if key in self.columns}
        return {
            key: _plain((v[i] if v.ndim > 1 else v[i].item()) if isinstance(v, np.ndarray) else v)
            for key, v in row.items()
        }


class Inputs(Sequence):
    """A check's inputs in row order, held as blocks; ``inputs[i]`` is row i as a plain-JSON dict.

    Only :meth:`Check.gen` builds one, for the tests and perfbench/run.py; a
    run scores each block as it is drawn.
    """

    def __init__(self, fields: Mapping[str, Any], blocks: list[Block]):
        self.fields, self.blocks = fields, blocks

    def __len__(self) -> int:
        return sum(len(block) for block in self.blocks)

    def __getitem__(self, i: int) -> dict:
        for block in self.blocks:
            if 0 <= i < len(block):
                return block.plain(i, self.fields)
            i -= len(block)
        raise IndexError("input index out of range")


def _plain(value):
    """A row's value as plain JSON: a complex vector as its ``{"re", "im"}`` pair, times as a list."""
    if not isinstance(value, np.ndarray):
        return list(value) if isinstance(value, tuple) else value
    if value.ndim > 1:
        return [_plain(v) for v in value]
    return {"re": value.real.tolist(), "im": value.imag.tolist()} if np.iscomplexobj(value) else value.tolist()


def _parse(fields: Mapping[str, Any], witness) -> Block | None:
    """One-row block of a witness row; None unless it holds exactly the declared fields, each of its kind.

    A label (a dict from each of its values to the extra fields a row of that
    value carries), declared before those fields, keeps its value's only.
    Each vector is parsed as a one-row column, as a draw of one row holds it.
    """
    try:
        row: dict[str, Any] = {}
        skip: Any = ()
        for key, kind in fields.items():
            if isinstance(kind, _Param) or key in skip:
                continue
            value = witness[key]
            if isinstance(kind, dict):
                skip = set().union(*kind.values()).difference(kind[value])
                row[key] = value
            else:
                row[key] = kind.parse(value, row.get("n"))
        # every parsed field is a key of the row, so equal counts mean no other keys
        return Block(1, **row) if len(witness) == len(row) else None
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def _pq(rows) -> CotangentPoint:
    """The (p, q) point of a block or a row."""
    return CotangentPoint(p=rows["p"], q=rows["q"])


def _row_dist(a: CotangentPoint, b: CotangentPoint) -> np.ndarray:
    """Largest entry difference of p or q, one per row of (N, n+1) arrays; a NaN stays NaN."""
    # one reduction of the larger gap: numpy reduces a short last axis slowly
    return np.maximum(np.abs(a.p - b.p), np.abs(a.q - b.q)).max(axis=-1)


def _rk4_drift(m: CotangentPoint, ts, dt: float, exact: Callable) -> np.ndarray:
    """Per row of ``m``: the largest distance of its RK4 trajectory, on its base radius, from ``exact`` at each ``ts``.

    One trajectory a row, each compared with ``exact(start, t)`` at the
    row's own 1-D start point. Trajectories of more than MAX_STEPS steps in
    all are refused before the first one starts. A row that raises
    OffBundleError scores NaN where it stands, as :meth:`Check.score` would
    score it, so the other rows of its chunk are not integrated again; any
    other error propagates.
    """
    require_steps(ts[-1], dt)
    drifts = []
    for p, q in zip(m.p, m.q):
        start = CotangentPoint(p=p, q=q, base_radius=m.base_radius)
        point, t_done, dists = start, 0.0, [0.0]
        try:
            for t in ts:
                point = rk4_integrate(point, t - t_done, dt).endpoint
                t_done = t
                dists.append(_row_dist(point, exact(start, t)))
        except OffBundleError:
            dists.append(np.nan)
        # np.max, not max(): a NaN distance wins
        drifts.append(np.max(dists))
    return np.array(drifts, dtype=float)


# ---------------------------------------------------------------------------
# Shared geometry helpers.
# ---------------------------------------------------------------------------


def _ball_sample(n: int, r: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` volume-uniform interior points of the open complex ball, one per row.

    Kept within 0.95 r, where the embedding's square root and its
    derivative stay well conditioned.
    """
    z = rng.standard_normal((size, n + 1)) + 1j * rng.standard_normal((size, n + 1))
    z /= row_norms(z)[:, None]
    radius = 0.95 * r * rng.uniform(size=size) ** (1.0 / (2 * (n + 1)))
    return radius[:, None] * z


def _unit_rows(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(shape)
    return v / row_norms(v)[:, None]


def _quadric_frame(rep: np.ndarray) -> np.ndarray:
    """Complex orthonormal rows spanning the quadric tangent space at rep.

    Tangency means complex orthogonality to both rep (horizontality) and
    conj(rep) (the quadric constraint sum z_k v_k = 0); the two are
    independent everywhere on the quadric because sum rep^2 = 0. An (N, m)
    ``rep`` gives N stacked frames of shape (N, m - 2, m). Only the residual
    of R-pi-not-symplectic takes a frame; generators draw tangents with
    :func:`_quadric_tangent`.
    """
    return np.conj(_null_frame(np.stack([np.conj(rep), rep], axis=-2)))


def _quadric_tangent(point: ProjectivePoint, rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit tangents of the quadric at a batch of its points, one per row.

    A unit horizontal tangent (:func:`sample_horizontal`) with its component
    along conj(rep) removed: tangency to the quadric is Hermitian
    orthogonality to rep and conj(rep), which are orthogonal to each other
    because sum rep^2 = 0. A draw whose remainder has norm at or below 1e-12
    is drawn again.
    """

    def draw(index):
        rep = point.rep[index]
        v = sample_horizontal(ProjectivePoint(rep), rng)
        # <conj(rep), v> = sum rep v, and |rep| = 1
        return (v - np.einsum("ij,ij->i", rep, v)[:, None] * rep.conj(),)

    (v,) = fill_accepted(len(point.rep), draw, lambda v: row_norms(v) > 1e-12)
    return v / row_norms(v)[:, None]


def _projective_off_quadric(n: int, rng: np.random.Generator, size: int, margin: float) -> np.ndarray:
    """Representatives of ``size`` uniform CP^n points with |sum z_k^2| above ``margin``, one per row."""
    (reps,) = fill_accepted(
        size,
        lambda index: (sample_projective(n, rng, index.size).rep,),
        lambda reps: np.abs(quadric_residual(ProjectivePoint(reps))) > margin,
    )
    return reps


# the closed rectangle ((theta0, theta1), (phi0, phi1)) of the period charts
_CHART_BOUNDS = ((0.0, np.pi), (0.0, TWO_PI))


def _sphere_chart() -> SmoothMap:
    """Polar-angle chart of the projective line covering all of CP^1.

    (theta, phi) -> [cos(theta/2) : sin(theta/2) e^{i phi}] on the closed
    rectangle [0, pi] x [0, 2 pi] (_CHART_BOUNDS). Like the conic and
    diagonal charts built on it, it maps one point (shape (2,)) or a batch
    (shape (N, 2)).
    """

    def func(x):
        theta, phi = x[..., 0], x[..., 1]
        return proj_normalize(
            np.stack([np.cos(theta / 2.0), np.sin(theta / 2.0) * np.exp(1j * phi)], axis=-1)
        )

    return SmoothMap(func)


def _conic_chart() -> SmoothMap:
    """The degree-2 curve [x:y] -> [x^2+y^2 : i(x^2-y^2) : 2ixy] over the CP^1 chart."""
    chart = _sphere_chart()

    def func(x):
        a = chart(x)
        s, t = a.rep[..., 0], a.rep[..., 1]
        return proj_normalize(np.stack([s * s + t * t, 1j * (s * s - t * t), 2j * s * t], axis=-1))

    return SmoothMap(func)


def _diagonal_chart() -> SmoothMap:
    chart = _sphere_chart()

    def func(x):
        a = chart(x)
        return (a, a)

    return SmoothMap(func)


def _evened_rescale_map(r: float) -> SmoothMap:
    return SmoothMap(lambda m: even_rescale(m, r))


# ---------------------------------------------------------------------------
# Registry: one @_check declaration per check, directly above its residual.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One named verification: statement, tolerance, input fields, and the name of its functions.

    ``draws`` and :meth:`score` call ``_gen_<name>`` and ``_res_<name>``,
    looked up in this module when called, so a function rebound after import
    is the one that runs. :meth:`score` is the one scorer of rows, of a
    drawn block and of a parsed witness alike. :meth:`gen` calls every draw
    in order and holds all the blocks, the whole-input view of the tests
    and perfbench/run.py. ``strict`` is the tolerance of a run under the
    strict profile, ``tolerance`` otherwise. ``params`` is read-only, list
    defaults stored as tuples, so no caller can change a declared default
    later.
    """

    id: str
    statement: str
    covers: tuple[str, ...]
    kind: str  # "residual": pass iff max residual <= tolerance;
    #            "witness": pass iff some sampled score exceeds the threshold
    tolerance: float
    strict: float
    params: Mapping[str, Any]
    name: str
    fields: Mapping[str, Any]

    @property
    def draws(self) -> Callable[[dict, np.random.Generator], list[Callable[[], Block]]]:
        return globals()[f"_gen_{self.name}"]

    def gen(self, params: dict, rng: np.random.Generator) -> Inputs:
        return Inputs(self.fields, [draw() for draw in self.draws(params, rng)])

    def score(self, block: Block) -> np.ndarray:
        """One value per row of ``block``, in chunks of at most CHUNK_ROWS rows, in order.

        The residual returns one value per row; only a period check, whose one
        row is the whole block, may return a scalar. A chunk that raises OffBundleError
        is evaluated again row by row, bit-identical by row arithmetic, so only
        the rows off the bundle score NaN, failing the check as its witnesses.
        """
        residual = globals()[f"_res_{self.name}"]

        def or_nan(rows: Block) -> np.ndarray:
            try:
                return np.asarray(residual(rows), dtype=float).reshape(len(rows))
            except OffBundleError:
                if len(rows) == 1:
                    return np.full(1, np.nan)
                return np.concatenate([or_nan(rows.rows(slice(i, i + 1))) for i in range(len(rows))])

        if len(block) <= CHUNK_ROWS:
            return or_nan(block)
        return np.concatenate(
            [or_nan(block.rows(slice(lo, lo + CHUNK_ROWS))) for lo in range(0, len(block), CHUNK_ROWS)]
        )


_REGISTRY: dict[str, Check] = {}


def _check(id, statement, covers, tolerance, params, fields, kind="residual", strict=None):
    """Register check ``id`` on the decorated ``_res_<name>``.

    ``strict``, the tolerance under the strict profile, defaults to ``tolerance``.

    ``fields`` declares each input field, in row order, with its kind; a label
    is a dict from each of its values to the extra fields its rows carry, and
    a name read only from the params has its kind wrapped in :class:`_Param`.
    A param has the kind declared under its name, as one value or a list
    after its default; a param declared nowhere is a count of at least 1.
    """

    def register(func):
        if id in _REGISTRY:
            raise RuntimeError(f"check id {id!r} is already registered")
        name = func.__name__.removeprefix("_res_")
        frozen = {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()}
        _REGISTRY[id] = Check(
            id, statement, covers, kind, tolerance, tolerance if strict is None else strict,
            MappingProxyType(frozen), name, MappingProxyType(fields),
        )
        return func

    return register


def build_registry() -> dict[str, Check]:
    """All checks in canonical order: a fresh copy of the registry, safe to mutate."""
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Check implementations: a generator of draws, each of one block of rows, plus
# a pure residual (or witness score) of a chunk of rows, scored by Check.score.
# ---------------------------------------------------------------------------


def _cotangent_generator(sampler: Callable, count="samples", radius=None, shared=lambda params: {}):
    """Generator of ``params[count]`` points ``sampler(n, 1, r, rng)`` for each ``n``, one draw per ``n``.

    The fiber radius r is 1, or the field ``r`` read from ``params[radius]``;
    ``shared(params)`` gives the other values every row shares.
    """

    def gen(params, rng):
        r = float(params[radius]) if radius else 1.0
        fixed = {"r": r} if radius else {}

        def draw(n):
            m = sampler(n, 1.0, r, rng, size=params[count])
            return Block(len(m.p), n=int(n), **fixed, p=m.p, q=m.q, **shared(params))

        return [partial(draw, n) for n in params["n"]]

    return gen


def _gen_projemb(params, rng):
    samples, pairs = params["samples"], params["pairs"]

    def draw(n, r):
        z = np.repeat(_ball_sample(n, r, rng, samples), pairs, axis=0)
        # v1, v2 of each pair are consecutive rows of one draw
        vs = _unit_rows((2 * len(z), 2 * (n + 1)), rng)
        return Block(len(z), n=int(n), r=float(r), z=z, v1=vs[0::2].copy(), v2=vs[1::2].copy())

    return [partial(draw, n, r) for n in params["n"] for r in params["r"]]


@_check(
    "L-projemb",
    "pullback of r^2 omega_FS under the radius-r ball embedding equals omega_std",
    covers=("ball-embedding-pullback",), tolerance=1e-12,
    params={"n": [1, 2, 3], "r": [1.0, ROOT2, 2.0], "samples": 1000, "pairs": 3},
    fields={"n": DIM, "r": RADIUS, "z": CVEC, "v1": TANGENT, "v2": TANGENT},
)
def _res_projemb(rows):
    r, v1, v2 = rows["r"], rows["v1"], rows["v2"]
    target = scaled_form(fubini_study_form(), r * r)
    value = pullback(ball_embedding(r), target, realify(rows["z"]), v1, v2)
    return np.abs(value - _omega_std_ambient(v1, v2))


_gen_sphereembedding = _cotangent_generator(sample_disc_bundle)


@_check(
    "L-sphereembedding",
    "disc bundle images satisfy the quadric equation and avoid the last hyperplane",
    covers=("cotangent-to-quadric-image",), tolerance=1e-10, strict=1e-11,
    params={"n": [1, 2, 3], "samples": 1000},
    fields={"n": DIM, "p": POINT, "q": POINT},
)
def _res_sphereembedding(rows):
    image = cotangent_to_quadric(_pq(rows))
    on_hyperplane = np.abs(image.rep[..., rows["n"] + 1]) <= LOCUS_TOL
    return np.where(on_hyperplane, np.nan, np.abs(quadric_residual(image)))


def _quadric_lifts(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Representatives [z : i sqrt(sum z_k^2)] of ``size`` quadric points, one per row."""
    z = rng.standard_normal((size, n + 1)) + 1j * rng.standard_normal((size, n + 1))
    last = 1j * np.sqrt(np.sum(z * z, axis=1))
    return proj_normalize(np.concatenate([z, last[:, None]], axis=1)).rep


def _gen_sphereembedding_lift(params, rng):
    def draw(n):
        (reps,) = fill_accepted(
            params["samples"],
            lambda index: (_quadric_lifts(n, rng, index.size),),
            lambda reps: np.abs(reps[:, -1]) > 1e-6,
        )
        return Block(len(reps), n=int(n), z=reps)

    return [partial(draw, n) for n in params["n"]]


@_check(
    "L-sphereembedding-lift",
    "off-hyperplane quadric points lift to unit-base orthogonal (p, q) pairs",
    covers=("cotangent-to-quadric-image",), tolerance=1e-8,
    params={"n": [1, 2, 3], "samples": 1000},
    fields={"n": DIM, "z": QVEC},
)
def _res_sphereembedding_lift(rows):
    point = proj_normalize(rows["z"])
    m = quadric_to_cotangent(point)
    base_defect = np.abs(row_norms(m.p) - 1.0)
    ortho_defect = np.abs(np.einsum("...i,...i->...", m.p, m.q))
    roundtrip = projective_defect(cotangent_to_quadric(m), point)
    return np.maximum(np.maximum(base_defect, ortho_defect), roundtrip)


_gen_unitcut_boundary = _cotangent_generator(sample_cosphere)


@_check(
    "P-unitcut-boundary",
    "the unit cosphere maps into the lower quadric and circle orbits collapse",
    covers=("unit-cosphere-cut",), tolerance=1e-10, strict=1e-11,
    params={"n": [1, 2, 3], "samples": 200},
    fields={"n": DIM, "p": POINT, "q": POINT},
)
def _res_unitcut_boundary(rows):
    ts = np.linspace(0.0, TWO_PI, 17)[1:]
    m = _pq(rows)
    image = cosphere_boundary(m)
    off_hyperplane = ~(np.abs(image.rep[:, rows["n"] + 1]) <= LOCUS_TOL)
    # the N x 16 orbit points in one call: row i * 16 + j is input i at ts[j]
    repeated = CotangentPoint(p=np.repeat(m.p, ts.size, axis=0), q=np.repeat(m.q, ts.size, axis=0))
    orbit = cosphere_boundary(scalar_action(repeated, np.tile(ts, len(rows))))
    defects = projective_defect(orbit, ProjectivePoint(np.repeat(image.rep, ts.size, axis=0)))
    worst = np.maximum(np.abs(quadric_residual(image)), defects.reshape(len(rows), ts.size).max(axis=1))
    return np.where(off_hyperplane, np.nan, worst)


_gen_unitcut_flow = _cotangent_generator(sample_cosphere, shared=lambda params: {"t_grid": int(params["t_grid"])})


@_check(
    "P-unitcut-flow",
    "the evened closed-form flow equals the scalar circle action",
    covers=("unit-cosphere-cut",), tolerance=1e-12, strict=1e-13,
    params={"n": [1, 2, 3], "samples": 100, "t_grid": 100},
    # a grid of at most three times holds 0, pi and 2 pi only, where the two
    # flows agree to rounding whether or not they agree in between
    fields={"n": DIM, "p": POINT, "q": POINT, "t_grid": _Number(4)},
)
def _res_unitcut_flow(rows):
    # a row spans t_grid orbit points: slices of rows keep a call's arrays to
    # about CHUNK_ROWS points, as large as those of the other checks
    step = max(1, CHUNK_ROWS // rows["t_grid"])
    if len(rows) > step:
        return np.hstack([_res_unitcut_flow(rows.rows(slice(i, i + step))) for i in range(0, len(rows), step)])
    # both flows over the whole time grid at once, rows repeated so that row
    # i * T + j is input i at the j-th time; then each input's largest entry
    # gap in one reduction
    ts = np.linspace(0.0, TWO_PI, rows["t_grid"])
    m = CotangentPoint(p=np.repeat(rows["p"], ts.size, axis=0), q=np.repeat(rows["q"], ts.size, axis=0))
    ts = np.tile(ts, len(rows))
    a, b = flow_closed_form(m, ts), scalar_action(m, ts)
    return _row_dist(a, b).reshape(len(rows), -1).max(axis=1)


_gen_unitcut_rk4 = _cotangent_generator(
    sample_cosphere, "trajectories",
    shared=lambda params: {"dt": float(params["dt"]), "t_final": float(params["t_final"])},
)


@_check(
    "P-unitcut-rk4",
    "RK4 integration of the solved Hamiltonian field reproduces the closed form",
    # 1e3 times the worst residual over seeds 1-20, 3.36e-13 at seed 7; a
    # Hamiltonian scaled by 1 + 1e-9 reads about 5e-9
    covers=("unit-cosphere-cut",), tolerance=3e-10,
    params={"n": [2], "trajectories": 1, "dt": 1e-3, "t_final": TWO_PI},
    fields={"n": DIM, "p": POINT, "q": POINT, "dt": TIME, "t_final": TIME},
)
def _res_unitcut_rk4(rows):
    # compared at a third and halfway as well: at t_final = 2 pi the closed
    # form is the identity and at pi the antipode, so a field whose flow is
    # 2 pi periodic, or three times too fast, would pass at those two times
    t_final = rows["t_final"]
    return _rk4_drift(_pq(rows), (t_final / 3.0, t_final / 2.0, t_final), rows["dt"], flow_closed_form)


_gen_unitcut_rk4_order = _cotangent_generator(
    sample_cosphere, "trajectories",
    shared=lambda params: {"dt0": float(params["dt0"]), "t_final": float(params["t_final"])},
)


@_check(
    "P-unitcut-rk4-order",
    "RK4 endpoint error falls 16x under step halving (order four)",
    covers=("unit-cosphere-cut",), tolerance=4.0,
    params={"n": [2], "trajectories": 1, "dt0": 0.1, "t_final": float(np.pi)},
    fields={"n": DIM, "p": POINT, "q": POINT, "dt0": TIME, "t_final": TIME},
)
def _res_unitcut_rk4_order(rows):
    # endpoint error must fall ~16x when the step is halved (fourth order);
    # measured at coarse steps where truncation dominates the noise floor
    m, t_final, dt0 = _pq(rows), (rows["t_final"],), rows["dt0"]
    # every fine trajectory first: a step limit refuses them before a coarse one runs
    fine, coarse = (_rk4_drift(m, t_final, dt, flow_closed_form) for dt in (dt0 / 2.0, dt0))
    # a fine-step error of 0 shows no order and fails with an infinite
    # ratio; a NaN error stays NaN
    ratio = np.divide(coarse, fine, out=np.full(len(rows), np.inf), where=fine != 0.0)
    return np.abs(ratio - 16.0)


_gen_branchedcover_deck = _cotangent_generator(sample_disc_bundle)


@_check(
    "C-branchedcover-deck",
    "the deck involution intertwines the embedding with the antipodal map",
    covers=("branched-double-cover",), tolerance=1e-12, strict=1e-13,
    params={"n": [1, 2, 3], "samples": 1000},
    fields={"n": DIM, "p": POINT, "q": POINT},
)
def _res_branchedcover_deck(rows):
    m = _pq(rows)
    upstairs = cotangent_to_quadric(m)
    flipped = deck(upstairs)
    equivariance = projective_defect(flipped, cotangent_to_quadric(antipode(m)))
    collapse = projective_defect(branched_cover(flipped), branched_cover(upstairs))
    return np.maximum(equivariance, collapse)


def _gen_branchedcover_fibers(params, rng):
    # each half gets at least one input, so a single sample still draws both kinds
    half = params["samples"] // 2

    def off(n):
        z = _projective_off_quadric(n, rng, max(1, half), 1e-3)
        return Block(len(z), kind="off", expected=2, z=z)

    def on(n):
        m = sample_cosphere(n, 1.0, 1.0, rng, size=params["samples"] - half)
        return Block(len(m.p), kind="on", expected=1, z=proj_normalize(m.p + 1j * m.q).rep)

    return [partial(kind, n) for n in params["n"] for kind in (off, on)]


@_check(
    "C-branchedcover-fibers",
    "fibers of the cover have two points off the branch quadric and one on it",
    covers=("branched-double-cover",), tolerance=1e-9,
    params={"n": [1, 2, 3], "samples": 200},
    fields={"kind": {"off": (), "on": ()}, "expected": COUNT, "z": _Vector(None, complex=True), "n": _Param(DIM)},
)
def _res_branchedcover_fibers(rows):
    point = proj_normalize(rows["z"])
    *sheets, count = quadric_fiber(point)
    worst = [np.maximum(np.abs(quadric_residual(s)), projective_defect(branched_cover(s), point)) for s in sheets]
    # a wrong number of preimages scores NaN
    return np.where(count == rows["expected"], np.maximum(*worst), np.nan)


_gen_pi_not_symplectic = _cotangent_generator(sample_cosphere)


@_check(
    "R-pi-not-symplectic",
    "the cover kills a branch-locus direction that omega_FS pairs nontrivially",
    covers=("branch-locus-degeneracy",), tolerance=1e-8,
    params={"n": [1, 2, 3], "samples": 100},
    fields={"n": DIM, "p": POINT, "q": POINT},
)
def _res_pi_not_symplectic(rows):
    # at a branch point the vertical direction is tangent to the quadric and
    # killed by the cover, yet pairs nontrivially with its i-rotation upstairs
    n = rows["n"]
    branch = cosphere_boundary(_pq(rows))
    frame = _quadric_frame(branch.rep)
    vertical = np.zeros((len(rows), 1, n + 2), dtype=complex)
    vertical[..., -1] = 1.0
    # per input: the vertical direction, then each frame row and its i-rotation
    tangents = np.stack([frame, 1j * frame], axis=2).reshape(len(rows), 2 * n, n + 2)
    dirs = np.concatenate([vertical, tangents], axis=1)
    # all 2n + 1 directions of a point pushed forward in one pass
    image, w = branched_cover_map().differential(branch, realify(dirs.swapaxes(0, 1)))
    pairing = fubini_study_form()(image, w[0], w[1:])
    return np.abs(pairing).max(axis=0)


def _gen_segre_pullback(params, rng):
    def draw():
        a = sample_projective(1, rng, params["samples"])
        b = sample_projective(1, rng, params["samples"])
        v1, v2 = (
            np.concatenate([realify(sample_horizontal(a, rng)), realify(sample_horizontal(b, rng))], axis=1)
            for _ in range(2)
        )
        return Block(len(a.rep), a=a.rep, b=b.rep, v1=v1, v2=v2)

    return [draw]


@_check(
    "P-segre-pullback",
    "the twisted Segre map lands on the quadric and pulls 2 omega_FS back to the product form",
    covers=("quadric-product-structure",), tolerance=4e-12,
    params={"samples": 1000},
    fields={"a": CP1, "b": CP1, "v1": _Vector(8), "v2": _Vector(8)},
)
def _res_segre_pullback(rows):
    # 2 omega_FS, on CP^3 upstairs and on each CP^1 factor
    form = scaled_form(fubini_study_form(), 2.0)
    pair = (proj_normalize(rows["a"]), proj_normalize(rows["b"]))
    off_quadric = np.abs(quadric_residual(segre_unitary(*pair))) > LOCUS_TOL
    v1, v2 = rows["v1"], rows["v2"]
    value = pullback(segre_map(), form, pair, v1, v2)
    return np.where(off_quadric, np.nan, np.abs(value - product_form(form, form)(pair, v1, v2)))


def _gen_segre_equivariance(params, rng):
    def draw():
        a = sample_projective(1, rng, params["samples"]).rep
        return Block(len(a), a=a, b=sample_projective(1, rng, params["samples"]).rep)

    return [draw]


@_check(
    "P-segre-equivariance",
    "the twisted Segre map intertwines the deck involution with the factor swap",
    covers=("quadric-product-structure",), tolerance=1e-12, strict=1e-13,
    params={"samples": 1000},
    fields={"a": CP1, "b": CP1},
)
def _res_segre_equivariance(rows):
    a, b = proj_normalize(rows["a"]), proj_normalize(rows["b"])
    swap = projective_defect(deck(segre_unitary(a, b)), segre_unitary(b, a))
    diagonal = segre_unitary(a, a)
    return np.maximum(swap, projective_defect(deck(diagonal), diagonal))


def _gen_diag_antidiag(params, rng):
    return [lambda: Block(params["samples"], a=sample_projective(1, rng, params["samples"]).rep)]


@_check(
    "R-diag-antidiag",
    "the diagonal maps onto the conic and the antidiagonal covers the real points",
    covers=("quadric-product-structure",), tolerance=1e-9,
    params={"samples": 1000},
    fields={"a": CP1},
)
def _res_diag_antidiag(rows):
    a = proj_normalize(rows["a"])
    on_conic = branched_cover(segre_unitary(a, a))
    on_real = branched_cover(segre_unitary(a, antipodal_cp1(a)))
    # a point of the wrong locus class scores NaN
    classes = (locus_classify(on_conic) == "on_Q1") & (locus_classify(on_real) == "on_RP2")
    return np.where(classes, np.maximum(np.abs(quadric_residual(on_conic)), real_defect(on_real)), np.nan)


def _gen_evenedrescale(params, rng):
    per_r = max(1, params["samples"] // (2 * len(params["r"])))

    def form(n, r):
        m = sample_disc_bundle(n, 1.0, r, rng, size=per_r)
        v1, v2 = sample_tangent(m, rng), sample_tangent(m, rng)
        return Block(per_r, part="form", n=int(n), r=float(r), p=m.p, q=m.q, v1=v1, v2=v2)

    def flow(n, r):
        m = sample_cosphere(n, 1.0, r, rng, size=per_r)
        return Block(per_r, part="flow", n=int(n), r=float(r), p=m.p, q=m.q, t=rng.uniform(0.0, TWO_PI, per_r))

    return [partial(part, n, r) for n in params["n"] for r in params["r"] for part in (form, flow)]


@_check(
    "P-evenedrescale",
    "the evening rescale preserves omega_std and conjugates the cosphere flows",
    covers=("evened-disc-bundle",), tolerance=6e-13,
    params={"n": [1, 2, 3], "r": [0.5, 1.0, 2.0], "samples": 1000},
    fields={
        "part": {"form": ("v1", "v2"), "flow": ("t",)}, "n": DIM, "r": RADIUS, "p": POINT, "q": POINT,
        "v1": TANGENT, "v2": TANGENT, "t": TIME,
    },
)
def _res_evenedrescale(rows):
    r, m = rows["r"], _pq(rows)
    if rows["part"] == "form":
        rescale = _evened_rescale_map(r)
        omega = cotangent_omega_std()
        v1, v2 = rows["v1"], rows["v2"]
        value = pullback(rescale, omega, m, v1, v2)
        form_defect = np.abs(value - _omega_std_ambient(v1, v2))
        roundtrip = _row_dist(even_rescale_inverse(even_rescale(m, r), r), m)
        return np.maximum(form_defect, roundtrip)
    # flow part: rescaling intertwines the radius-r trajectory with the
    # evened closed form at the same time parameter
    t = np.broadcast_to(rows["t"], len(rows))
    lhs = even_rescale(flow_uneven_cosphere(m, t), r)
    rhs = flow_closed_form(even_rescale(m, r), t)
    return _row_dist(lhs, rhs)


def _step_and_times(params):
    """The RK4 step and the check times that every trajectory of an RK4 check shares."""
    return {"dt": float(params["dt"]), "ts": tuple(float(t) for t in params["t_checks"])}


_gen_evenedflow_restored = _cotangent_generator(sample_cosphere, "trajectories", "r_uneven", _step_and_times)


@_check(
    "P-evenedflow-restored",
    "after evening, the RK4 flow agrees with the scalar action",
    covers=("evened-disc-bundle",), tolerance=1e-6,
    params={
        "n": [2], "r_uneven": 0.5, "trajectories": 1, "dt": 0.01,
        "t_checks": [float(np.pi / 2.0), float(np.pi), TWO_PI],
    },
    fields={
        "n": DIM, "r": RADIUS, "p": POINT, "q": POINT, "dt": TIME, "ts": TIMES,
        "r_uneven": _Param(RADIUS), "t_checks": _Param(TIMES),
    },
)
def _res_evenedflow_restored(rows):
    # one trajectory a row, compared with the scalar action at each check time
    # in turn. Like the scalar action, the uneven flow maps (p, q) to (-p, -q)
    # at pi and back at 2 pi, so an evening left out or wrong passes at those
    # two times; at pi / 2 it fails
    return _rk4_drift(even_rescale(_pq(rows), rows["r"]), rows["ts"], rows["dt"], scalar_action)


_gen_uneven_flow = _cotangent_generator(sample_cosphere, "trajectories", "r", _step_and_times)


@_check(
    "R-uneven-flow",
    "on an uneven cosphere the Hamiltonian flow leaves the scalar orbit",
    covers=("evened-disc-bundle",), tolerance=0.01,
    params={"n": [2], "r": 0.5, "trajectories": 3, "dt": 0.01, "t_checks": [float(np.pi / 2.0), float(np.pi)]},
    fields={"n": DIM, "r": RADIUS, "p": POINT, "q": POINT, "dt": TIME, "ts": TIMES, "t_checks": _Param(TIMES)},
    kind="witness",
)
def _res_uneven_flow(rows):
    # witness search: how far the true flow drifts from the scalar action
    return _rk4_drift(_pq(rows), rows["ts"], rows["dt"], scalar_action)


def _gen_omega_r_descent(params, rng):
    margin = 2.5 * BRANCH_MARGIN
    radii = np.array(params["r"], dtype=float)

    def away_from_branch(p, q):
        q2 = np.einsum("ij,ij->i", q, q)
        return (1.0 - q2) / (1.0 + q2) > margin

    def draw(n):
        def disc(index):
            m = sample_disc_bundle(n, 1.0, 1.0, rng, size=index.size)
            return m.p, m.q

        p, q = fill_accepted(params["samples"], disc, away_from_branch)
        upstairs = cotangent_to_quadric(CotangentPoint(p=p, q=q))
        v1, v2 = _quadric_tangent(upstairs, rng), _quadric_tangent(upstairs, rng)
        r = np.resize(radii, len(p))  # the radii take turns along the rows
        return Block(len(p), n=int(n), r=r, z=upstairs.rep, v1=v1, v2=v2)

    return [partial(draw, n) for n in params["n"]]


@_check(
    "P-omega-r-descent",
    "pullback of the pushed-down form through the cover returns 2r omega_FS",
    covers=("pushed-down-form",), tolerance=4e-10,
    params={"n": [1, 2, 3], "r": [0.5, 1.0, 2.0], "samples": 1000},
    fields={"n": DIM, "r": RADIUS, "z": QVEC, "v1": QVEC, "v2": QVEC},
)
def _res_omega_r_descent(rows):
    # each row with its own radius: the form and the expected value both
    # scale elementwise by 2r
    r = np.broadcast_to(rows["r"], len(rows))
    upstairs = proj_normalize(rows["z"])
    v1 = realify(rows["v1"])
    v2 = realify(rows["v2"])
    image, (w1, w2) = branched_cover_map().differential(upstairs, np.stack((v1, v2)))
    value = omega_r(image, w1, w2, r)
    expected = 2.0 * r * _omega_std_ambient(v1, v2)
    return np.abs(value - expected)


def _gen_omega_r_not_fs(params, rng):
    margin = 2.0 * BRANCH_MARGIN

    def draw(n, r):
        point = ProjectivePoint(_projective_off_quadric(n, rng, params["samples"], margin))
        dirs = np.stack([sample_horizontal(point, rng) for _ in range(params["pairs"])], axis=1)
        return Block(len(dirs), n=int(n), r=float(r), z=point.rep, dirs=dirs)

    return [partial(draw, n, r) for n in params["n"] for r in params["r"]]


@_check(
    "R-omega-r-not-FS",
    "the pushed-down form is not pointwise proportional to omega_FS",
    covers=("pushed-down-form",), tolerance=0.1,
    params={"n": [2], "r": [1.0], "samples": 50, "pairs": 4},
    fields={"n": DIM2, "r": RADIUS, "z": CVEC, "dirs": _Vector(lambda n: n + 1, complex=True, many=True)},
    kind="witness",
)
def _res_omega_r_not_fs(rows):
    # ratios omega_r(v, iv) / omega_FS(v, iv) across each point's directions,
    # rows x directions in one call; omega_FS(v, iv) = |v|^2 = 1 holds only
    # for unit directions, so a row with any other direction scores NaN, and
    # its directions are zeroed before any arithmetic, where one scaled by
    # 1e200 would subtract inf from inf
    unit = (np.abs(row_norms(rows["dirs"]) - 1.0) <= 1e-12).all(axis=1)
    dirs = np.where(unit[:, None, None], rows["dirs"], 0.0)
    point = ProjectivePoint(np.repeat(proj_normalize(rows["z"]).rep, dirs.shape[1], axis=0))
    v = dirs.reshape(-1, dirs.shape[-1])
    ratios = omega_r(point, realify(v), realify(1j * v), rows["r"]).reshape(dirs.shape[:2])
    return np.where(unit, ratios.max(axis=1) - ratios.min(axis=1), np.nan)


def _gen_period_cp1(params, rng):
    # the one input of a period check, a block of one row: its node count per axis
    return [lambda: Block(1, nodes=int(params["nodes"]))]


@_check(
    "I-period-CP1",
    "the projective line has omega_FS area pi",
    covers=("pushed-down-form",), tolerance=2e-11, strict=2e-12,
    params={"nodes": 200},
    fields={"nodes": NODES},
)
def _res_period_cp1(rows):
    value = integrate_surface(_sphere_chart(), fubini_study_form(), _CHART_BOUNDS, rows["nodes"])
    return abs(value - np.pi)


_gen_period_q1 = _gen_period_cp1


@_check(
    "I-period-Q1",
    "the conic has 2 omega_FS area 4 pi",
    covers=("pushed-down-form",), tolerance=2e-11,
    params={"nodes": 64},
    fields={"nodes": NODES},
)
def _res_period_q1(rows):
    form = scaled_form(fubini_study_form(), 2.0)
    value = integrate_surface(_conic_chart(), form, _CHART_BOUNDS, rows["nodes"])
    return abs(value - 4.0 * np.pi)


def _gen_period_match(params, rng):
    return [lambda: Block(len(params["r"]), nodes=int(params["nodes"]), r=np.array(params["r"], dtype=float))]


@_check(
    "I-period-match",
    "diagonal sphere and conic periods agree under the product identification",
    covers=("pushed-down-form",), tolerance=3e-12,
    params={"nodes": 64, "r": [0.5, 1.0, 2.0]},
    fields={"nodes": NODES, "r": RADIUS},
)
def _res_period_match(rows):
    # r enters only as the forms' factor 2r, so one jet pass of each chart
    # integrates every row's form
    radii = np.broadcast_to(rows["r"], len(rows)).tolist()
    forms = [scaled_form(fubini_study_form(), 2.0 * r) for r in radii]
    diag = integrate_surface(_diagonal_chart(), [product_form(f, f) for f in forms], _CHART_BOUNDS, rows["nodes"])
    conic = integrate_surface(_conic_chart(), forms, _CHART_BOUNDS, rows["nodes"])
    return [abs(a - b) for a, b in zip(diag, conic)]


def _gen_zerosection(params, rng):
    # each half gets at least one input, as in _gen_branchedcover_fibers
    half = params["samples"] // 2

    def zero(n):
        p = _unit_rows((max(1, half), n + 1), rng)
        return Block(len(p), kind="zero", n=int(n), p=p, q=np.zeros_like(p))

    def boundary(n):
        m = sample_cosphere(n, 1.0, 1.0, rng, size=params["samples"] - half)
        return Block(len(m.p), kind="boundary", n=int(n), p=m.p, q=m.q)

    return [partial(kind, n) for n in params["n"] for kind in (zero, boundary)]


@_check(
    "T-zerosection",
    "the zero section lands on the real locus and the boundary on the conic",
    covers=("zero-section-image",), tolerance=1e-9,
    params={"n": [2], "samples": 500},
    fields={"kind": {"zero": (), "boundary": ()}, "n": DIM, "p": POINT, "q": POINT},
)
def _res_zerosection(rows):
    zero = rows["kind"] == "zero"
    image = branched_cover((cotangent_to_quadric if zero else cosphere_boundary)(_pq(rows)))
    locus, defect = ("on_RP2", real_defect(image)) if zero else ("on_Q1", np.abs(quadric_residual(image)))
    # in the plane, a point of the wrong locus class scores NaN
    return np.where(locus_classify(image) == locus, defect, np.nan) if rows["n"] == 2 else defect


@dataclass(slots=True)
class CheckReport:
    id: str
    seed: int
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    elapsed: float
    witness: dict | None = None


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------


# "strict" judges a check against its ``strict`` tolerance, "default" against its ``tolerance``
PROFILES = ("default", "strict")


def _injected_tolerance(check_id: str, value) -> float:
    """An injected tolerance as a float; anything but a real number other than NaN is a UsageError."""
    try:
        real = type(value) is not bool and isinstance(value, (float, int, Real)) and not math.isnan(value)
    except OverflowError:
        real = False
    if not real:
        raise UsageError(f"check {check_id}: tolerance must be a real number other than NaN, got {value!r}")
    return float(value)


def _worst(residuals: np.ndarray) -> int:
    """The index of the first NaN or infinite residual, which fails either kind of check, else of the first maximum."""
    finite = np.isfinite(residuals)
    return int(residuals.argmax()) if finite.all() else int(np.argmin(finite))


def run_check(
    check_id: str,
    params: dict | None = None,
    seed: int = 42,
    profile: str = "default",
) -> CheckReport:
    """Run one named check; deterministic given (id, params, seed).

    ``params`` may override the check's declared parameters, inject a
    ``tolerance`` (any real number but NaN), or supply a single serialized
    ``witness`` input to re-evaluate, alone or with a tolerance; a witness
    that breaks the check's input fields (``None`` among them), or whose
    trajectory would take more than MAX_STEPS RK4 steps, scores NaN, and a
    param of a generated run that breaks its kind, or sets such a
    trajectory, is a UsageError.
    The profile, one of :data:`PROFILES`, picks the tolerance and nothing
    else.
    """
    if profile not in PROFILES:
        raise UsageError(f"unknown tolerance profile {profile!r}")
    registry = build_registry()
    if check_id not in registry:
        raise UsageError(f"unknown check id {check_id!r}")
    check = registry[check_id]
    tolerance = check.strict if profile == "strict" else check.tolerance
    params = params or {}
    # a witness is given by its key: a null witness is a malformed one, never a generated run
    replay, overrides = "witness" in params, {}
    for key, value in params.items():
        if key == "tolerance":
            tolerance = _injected_tolerance(check_id, value)
        elif key in check.params:
            overrides[key] = value
        elif key != "witness":
            raise UsageError(f"check {check_id} does not take parameter {key!r}")
    if replay and overrides:
        raise UsageError(f"check {check_id}: a witness takes no parameter but tolerance, got {sorted(overrides)}")
    start = time.perf_counter()
    if replay:
        worst_row, samples = params["witness"], 1
        block = _parse(check.fields, worst_row)
        try:
            max_residual = math.nan if block is None else float(check.score(block)[0])
        except StepLimitError:
            max_residual = math.nan
    else:
        merged = {**check.params, **overrides}
        for key, value in merged.items():
            kind = check.fields.get(key, COUNT)
            kind = kind.kind if isinstance(kind, _Param) else kind
            problem = kind.problem(key, value, isinstance(check.params[key], tuple))
            if problem:
                raise UsageError(f"check {check_id}: {problem}, got {value!r}")
        max_residual, samples = None, 0
        for draw in check.draws(merged, derive_stream(seed, check_id)):
            block = draw()
            try:
                residuals = check.score(block)
            except StepLimitError as exc:
                raise UsageError(f"check {check_id}: {exc}") from None
            top = _worst(residuals)
            # the block's worst is the run's if it is worse than the worst of the blocks before
            if max_residual is None or _worst(np.array([max_residual, residuals[top]])):
                # a plain-JSON copy of the row, so no view keeps the block alive
                max_residual, worst_row = float(residuals[top]), block.plain(top, check.fields)
            samples += len(block)
            # drop the block before the next draw
            del block, residuals
    elapsed = time.perf_counter() - start
    within = max_residual > tolerance if check.kind == "witness" else max_residual <= tolerance
    passed = math.isfinite(max_residual) and within
    # a witness check always reports its best find; a residual check its worst failure
    witness = worst_row if check.kind == "witness" or not passed else None
    return CheckReport(
        id=check_id,
        seed=seed,
        samples=samples,
        max_residual=max_residual,
        tolerance=float(tolerance),
        passed=passed,
        elapsed=elapsed,
        witness=witness,
    )


def _dimensions_for(check: Check, n_values: Sequence) -> list:
    """The dimensions of a suite-wide list that ``check`` accepts, in order.

    A dimension below the check's own least is dropped, and a list that
    leaves the check no dimension is a UsageError naming it.
    """
    kind = check.fields["n"]
    kind = kind.kind if isinstance(kind, _Param) else kind
    kept = [n for n in n_values if not kind.problem("n", n, False)]
    if not kept:
        problem = kind.problem("n", list(n_values), True)
        raise UsageError(f"check {check.id} takes none of the dimensions {list(n_values)}: {problem}")
    return kept


def run_suite(
    pattern: str = "*",
    *,
    seed: int = 42,
    samples: int | None = None,
    n_values: Sequence[int] | None = None,
    radii: Sequence[float] | None = None,
    profile: str = "default",
) -> tuple[list[CheckReport], int]:
    """Run all checks matching the id glob, in registry order.

    ``samples``, ``n_values`` and ``radii`` override the declared values of
    every check that takes them, and a check takes the dimensions of
    ``n_values`` that it accepts (:func:`_dimensions_for`). Returns the
    reports plus an exit status: 0 iff every matched check passed. Raises
    UsageError if an override is invalid, whether or not a matched check
    reads it, if the glob matches nothing, or if a check's parameters are
    invalid (see :func:`run_check`).
    """
    for kind, key, value, listed in (
        (COUNT, "samples", samples, False), (DIM, "n", n_values, True), (RADIUS, "r", radii, True)
    ):
        if value is not None and (problem := kind.problem(key, value, listed)):
            raise UsageError(f"{problem}, got {value!r}")
    registry = build_registry()
    matched = [cid for cid in registry if fnmatch.fnmatchcase(cid, pattern)]
    if not matched:
        raise UsageError(f"no check matches pattern {pattern!r}")
    reports = []
    for cid in matched:
        check = registry[cid]
        params: dict[str, Any] = {}
        if samples is not None and "samples" in check.params:
            params["samples"] = samples
        if n_values is not None and "n" in check.params:
            params["n"] = _dimensions_for(check, n_values)
        if radii is not None and "r" in check.params and isinstance(check.params["r"], tuple):
            params["r"] = list(radii)
        reports.append(run_check(cid, params or None, seed=seed, profile=profile))
    status = 0 if all(r.passed for r in reports) else 1
    return reports, status


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def _json_scalar(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return json.dumps(str(v))
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_scalar(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_scalar(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(reports: list[CheckReport]) -> str:
    """Stable-order JSON; reals carry 17 significant digits.

    A non-finite real, which fails its check, is written as the string
    ``"nan"``, ``"inf"`` or ``"-inf"``, since JSON has no literal for it.

    ``elapsed`` is deliberately omitted so identical (filter, config, seed)
    runs are byte-identical.
    """
    objects = []
    for r in reports:
        fields: dict[str, Any] = {
            "id": r.id,
            "seed": r.seed,
            "samples": r.samples,
            "max_residual": r.max_residual,
            "tolerance": r.tolerance,
            "passed": r.passed,
        }
        if r.witness is not None:
            fields["witness"] = r.witness
        objects.append(_json_scalar(fields))
    return "[" + ", ".join(objects) + "]"


def render_text(reports: list[CheckReport]) -> str:
    """Aligned human-readable table, one row per check."""
    header = f"{'check':<24} {'status':<6} {'max residual':>14} {'tolerance':>11} {'samples':>8} {'time':>8}"
    lines = [header, "-" * len(header)]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.id:<24} {status:<6} {r.max_residual:>14.3e} {r.tolerance:>11.1e} "
            f"{r.samples:>8d} {r.elapsed:>7.2f}s"
        )
    total = sum(r.elapsed for r in reports)
    passed = sum(1 for r in reports if r.passed)
    lines.append(f"{passed}/{len(reports)} checks passed in {total:.2f}s")
    return "\n".join(lines)


def emit_report(reports: list[CheckReport], format: str = "text", destination=None) -> None:
    """Write reports as text or json to a path or file object (stdout if None).

    A path that cannot be opened for writing (a missing directory, a
    directory itself) is a UsageError naming it.
    """
    if format == "json":
        payload = render_json(reports)
    elif format == "text":
        payload = render_text(reports)
    else:
        raise UsageError(f"unknown report format {format!r}")
    if destination is None:
        sys.stdout.write(payload + "\n")
    elif hasattr(destination, "write"):
        destination.write(payload + "\n")
    else:
        try:
            handle = open(destination, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write report to {destination}: {exc.strerror}") from None
        with handle:
            handle.write(payload + "\n")
