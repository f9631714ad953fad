"""Named verification registry, runner, and machine-readable reporting.

Every computationally checkable statement of the compactification
construction is bound to one check id with a pinned tolerance, declared once
by :func:`_check` directly above the check's residual; the registry is built
once, at import. Residual-style checks sample inputs from a private generator
stream and report the worst residual; witness-style checks (the negative
statements) search for a single input exceeding a threshold and report the
best witness found. A check can be re-run on a serialized witness to
reproduce its residual exactly.

A check's residual takes the whole list of inputs and returns one float per
input, in input order; the runner calls it once, for a generated list and for
a one-element witness replay alike. Checks evaluated per input are lifted to
that contract by :func:`_each`. The batched residuals group rows by their
parameters and evaluate chunks of at most ``CHUNK_ROWS`` rows with row-wise
arithmetic only (elementwise operations, ``einsum("ij,ij->i")`` and
reductions along the last axis, never stacked matmul or BLAS, whose rounding
depends on the batch size), so an input's residual does not depend on which
other inputs share its batch and a replayed witness reproduces the reported
residual bit for bit. A body written once on the last axis (``[..., k]``,
``np.maximum``, ``einsum("...i,...i->...")``) builds its arrays with
``flat=True`` and so evaluates a chunk of one input, every witness replay
among them, on the 1-D point: the 1-D twins of the maps it calls use the
same reductions as their row twins and give the same bits, at the cost of
the 1-D path. That identity depends on the loops numpy picks (Python
``abs`` of a numpy complex scalar, for one, can differ from ``np.abs`` in the
last bit); the tests of twins and of replays guard it.
"""

from __future__ import annotations

import fnmatch
import json
import math
import sys
import time
from dataclasses import dataclass
from numbers import Integral, Real
from types import MappingProxyType
from typing import Any, Callable, Mapping

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
    HamiltonianSpec,
    flow_closed_form,
    flow_uneven_cosphere,
    rk4_integrate,
    scalar_action,
)
from .forms import (
    BoxSpace,
    CotangentSpace,
    ProjectiveSpace,
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
    segre_map,
    segre_unitary,
)
from .numerics import (
    CHUNK_ROWS,
    DEFAULT_PROFILE,
    PROFILES,
    ToleranceProfile,
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
    "SuiteConfig",
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

# a residual far above every tolerance, used when a structural expectation
# (membership, classification, fiber count) fails outright
SENTINEL = 1.0

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
# Serialization helpers: every sampled input is a plain-JSON dict so the
# worst case can be stored as a witness and replayed bit-for-bit.
# ---------------------------------------------------------------------------


def _cvecs(z: np.ndarray) -> list[dict]:
    """One ``{"re", "im"}`` dict per row of a complex (N, m) array."""
    return [{"re": re, "im": im} for re, im in zip(z.real.tolist(), z.imag.tolist())]


def _uncvec(d: dict) -> np.ndarray:
    return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)


def _uncvecs(inputs: list[dict], key: str, flat: bool = False) -> np.ndarray:
    """(N, m) complex array of the N inputs' serialized ``key`` vectors.

    With ``flat``, a single input gives its 1-D vector, as does :func:`_points`.
    """
    if flat and len(inputs) == 1:
        return _uncvec(inputs[0][key])
    vecs = [inp[key] for inp in inputs]
    return np.array([d["re"] for d in vecs], dtype=float) + 1j * np.array(
        [d["im"] for d in vecs], dtype=float
    )


def _stack(inputs: list[dict], key: str) -> np.ndarray:
    """(N, m) real array of the N inputs' ``key`` vectors."""
    return np.array([inp[key] for inp in inputs], dtype=float)


def _point(d: dict) -> CotangentPoint:
    return CotangentPoint(p=np.asarray(d["p"], dtype=float), q=np.asarray(d["q"], dtype=float))


def _points(inputs: list[dict], flat: bool = False) -> CotangentPoint:
    """One point holding the N inputs' (p, q) pairs as (N, n+1) rows.

    With ``flat``, a single input gives its point of 1-D arrays, which a body
    written on the last axis evaluates by the maps' 1-D twins, to the bits of
    its row in a batch.
    """
    if flat and len(inputs) == 1:
        return _point(inputs[0])
    return CotangentPoint(p=_stack(inputs, "p"), q=_stack(inputs, "q"))


def _projective(d: dict) -> ProjectivePoint:
    return proj_normalize(_uncvec(d))


def _worst(values) -> float:
    """Largest of the values; a NaN among them wins, where max() would drop it."""
    return float(np.max(values))


def _row_dist(a: CotangentPoint, b: CotangentPoint) -> np.ndarray:
    """Largest entry difference of p or q, one per row of (N, n+1) arrays; a NaN stays NaN."""
    return np.maximum(np.abs(a.p - b.p).max(axis=-1), np.abs(a.q - b.q).max(axis=-1))


def _dist(a: CotangentPoint, b: CotangentPoint) -> float:
    return _worst(_row_dist(a, b))


def _positive_times(*times) -> bool:
    """True iff every time is a finite positive real.

    A witness replay skips :func:`_validate`, so an RK4 residual scores NaN
    on a time that fails this instead of integrating it (an infinite final
    time would never return).
    """
    return all(isinstance(t, Real) and math.isfinite(t) and t > 0 for t in times)


# ---------------------------------------------------------------------------
# Shared geometry helpers.
# ---------------------------------------------------------------------------


def _ball_sample(n: int, r: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` volume-uniform interior points of the open complex ball, one per row.

    Kept within 0.95 r: the embedding's square root loses derivatives at the
    boundary faster than central differences at step 1e-5 can tolerate.
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
    ``rep`` gives N stacked frames of shape (N, m - 2, m).
    """
    rows = np.stack([np.conj(rep), rep], axis=-2)
    _, svals, vh = np.linalg.svd(rows)
    if not np.all(svals[..., 1] > 1e-10 * svals[..., 0]):
        raise RuntimeError("degenerate quadric tangent frame")
    return np.conj(vh[..., 2:, :])


def _projective_off_quadric(n: int, rng: np.random.Generator, size: int, margin: float) -> np.ndarray:
    """Representatives of ``size`` uniform CP^n points with |sum z_k^2| above ``margin``, one per row."""
    (reps,) = fill_accepted(
        size,
        lambda index: (sample_projective(n, rng, index.size).rep,),
        lambda reps: np.abs(quadric_residual(ProjectivePoint(reps))) > margin,
    )
    return reps


def _sphere_chart() -> SmoothMap:
    """Polar-angle chart of the projective line covering all of CP^1.

    (theta, phi) -> [cos(theta/2) : sin(theta/2) e^{i phi}] on the closed
    rectangle [0, pi] x [0, 2 pi]. Like the conic and diagonal charts built
    on it, it maps one point (shape (2,)) or a batch (shape (N, 2)).
    """

    def func(x):
        theta, phi = x[..., 0], x[..., 1]
        return proj_normalize(
            np.stack([np.cos(theta / 2.0), np.sin(theta / 2.0) * np.exp(1j * phi)], axis=-1)
        )

    bounds = (np.array([0.0, 0.0]), np.array([np.pi, TWO_PI]))
    return SmoothMap(
        domain=BoxSpace(2, bounds), target=ProjectiveSpace(1), func=func, name="CP1-chart"
    )


def _conic_chart() -> SmoothMap:
    """The degree-2 curve [x:y] -> [x^2+y^2 : i(x^2-y^2) : 2ixy] over the CP^1 chart."""
    chart = _sphere_chart()

    def func(x):
        a = chart(x)
        s, t = a.rep[..., 0], a.rep[..., 1]
        return proj_normalize(np.stack([s * s + t * t, 1j * (s * s - t * t), 2j * s * t], axis=-1))

    return SmoothMap(
        domain=chart.domain, target=ProjectiveSpace(2), func=func, name="Q1-chart"
    )


def _diagonal_chart() -> SmoothMap:
    chart = _sphere_chart()

    def func(x):
        a = chart(x)
        return (a, a)

    return SmoothMap(domain=chart.domain, target=segre_map().domain, func=func, name="diagonal-chart")


def _evened_rescale_map(n: int, r: float) -> SmoothMap:
    return SmoothMap(
        domain=CotangentSpace(n, 1.0),
        target=CotangentSpace(n, float(np.sqrt(r))),
        func=lambda m: even_rescale(m, r),
        name=f"even_rescale({r:g})",
    )


# ---------------------------------------------------------------------------
# Registry: one @_check declaration per check, directly above its residual.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One named verification: statement, tolerance, and the name of its functions.

    ``gen`` and ``residual`` are ``_gen_<name>`` and ``_res_<name>``
    (``_score_<name>`` for a witness check), looked up in this module when
    read, so a function rebound after import is the one that runs; an
    ``each`` residual takes one input and is lifted by :func:`_each`.
    ``tolerance`` is a number or the name of a :class:`ToleranceProfile` field.
    ``params`` is read-only, with list defaults stored as tuples, so no caller
    can change a declared default for later runs.
    """

    id: str
    statement: str
    covers: tuple[str, ...]
    kind: str  # "residual": pass iff max residual <= tolerance;
    #            "witness": pass iff some sampled score exceeds the threshold
    tolerance: float | str
    params: Mapping[str, Any]
    name: str
    each: bool

    @property
    def gen(self) -> Callable[[dict, np.random.Generator], list[dict]]:
        return globals()[f"_gen_{self.name}"]

    @property
    def residual(self) -> Callable[[list[dict], ToleranceProfile], np.ndarray]:
        func = globals()[("_score_" if self.kind == "witness" else "_res_") + self.name]
        return _each(func) if self.each else func


_REGISTRY: dict[str, Check] = {}


def _check(id, statement, covers, tolerance, params, kind="residual", each=True):
    """Register check ``id`` on the decorated ``_res_<name>`` or ``_score_<name>``."""

    def register(func):
        if id in _REGISTRY:
            raise RuntimeError(f"check id {id!r} is already registered")
        name = func.__name__.removeprefix("_score_" if kind == "witness" else "_res_")
        frozen = {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()}
        _REGISTRY[id] = Check(
            id, statement, covers, kind, tolerance, MappingProxyType(frozen), name, each
        )
        return func

    return register


def build_registry() -> dict[str, Check]:
    """All checks in canonical order: a fresh copy of the registry, safe to mutate."""
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Check implementations: a generator of serializable inputs plus a pure
# residual (or witness score), either per input (lifted by _each) or over the
# whole input list (grouped and chunked by _grouped).
# ---------------------------------------------------------------------------


def _each(residual: Callable[[dict, ToleranceProfile], float]) -> Callable:
    """Lift a per-input residual to the list contract: one call per input.

    An input off the bundle a map is defined on scores NaN, so the check
    fails with that input as its witness instead of raising.
    """

    def batch(inputs: list[dict], profile: ToleranceProfile) -> np.ndarray:
        out = np.empty(len(inputs))
        for i, inp in enumerate(inputs):
            try:
                out[i] = residual(inp, profile)
            except OffBundleError:
                out[i] = np.nan
        return out

    return batch


def _grouped(
    inputs: list[dict],
    key: Callable[[dict], Any],
    evaluate: Callable[[Any, list[dict]], np.ndarray],
) -> np.ndarray:
    """Residuals of ``inputs`` in input order, evaluated group by group.

    Inputs sharing ``key(input)`` are passed to ``evaluate(key, rows)`` in
    chunks of at most CHUNK_ROWS, in input order; it returns one residual per
    row, or a scalar for a chunk of one row that it evaluates as a 1-D point.
    A chunk that raises OffBundleError is evaluated again one row at a time,
    which row arithmetic makes bit-identical, so only the rows off the bundle
    score NaN.
    """
    out = np.empty(len(inputs))
    groups: dict[Any, list[int]] = {}
    for i, inp in enumerate(inputs):
        groups.setdefault(key(inp), []).append(i)
    for k, index in groups.items():
        for lo in range(0, len(index), CHUNK_ROWS):
            chunk = index[lo : lo + CHUNK_ROWS]
            try:
                out[chunk] = evaluate(k, [inputs[i] for i in chunk])
            except OffBundleError:
                for i in chunk:
                    try:
                        out[i : i + 1] = evaluate(k, [inputs[i]])
                    except OffBundleError:
                        out[i] = np.nan
    return out


def _n(inp: dict) -> int:
    return inp["n"]


def _n_and_r(inp: dict) -> tuple[int, float]:
    return inp["n"], inp["r"]


def _cotangent_generator(sampler: Callable, count="samples", radius=None, fields=lambda params: [{}]):
    """Generator of ``params[count]`` points ``sampler(n, 1, r, rng)`` for each ``n``.

    Each ``n`` draws its points in one bulk call. The fiber radius r is 1, or
    ``params[radius]`` when ``radius`` names a param. A point yields one
    input per dict of ``fields(params)``, keyed ``n``, then ``r`` when a
    radius is named, then ``p``, ``q`` and the dict.
    """

    def gen(params, rng):
        r = float(params[radius]) if radius else 1.0
        head = {"r": r} if radius else {}
        tails = fields(params)
        inputs = []
        for n in params["n"]:
            m = sampler(n, 1.0, r, rng, size=params[count])
            for p, q in zip(m.p.tolist(), m.q.tolist()):
                for tail in tails:
                    inputs.append({"n": int(n), **head, "p": p, "q": q, **tail})
        return inputs

    return gen


def _gen_projemb(params, rng):
    inputs = []
    samples, pairs = params["samples"], params["pairs"]
    for n in params["n"]:
        for r in params["r"]:
            zs = _cvecs(_ball_sample(n, r, rng, samples))
            # v1, v2 of each pair are consecutive rows of one block
            vs = iter(_unit_rows((2 * samples * pairs, 2 * (n + 1)), rng).tolist())
            for z in zs:
                for _ in range(pairs):
                    inputs.append(
                        {"n": int(n), "r": float(r), "z": z, "v1": next(vs), "v2": next(vs)}
                    )
    return inputs


@_check(
    "L-projemb",
    "pullback of r^2 omega_FS under the radius-r ball embedding equals omega_std",
    covers=("ball-embedding-pullback",), tolerance=1e-6,
    params={"n": [1, 2, 3], "r": [1.0, ROOT2, 2.0], "samples": 1000, "pairs": 3},
    each=False,
)
def _res_projemb(inputs, profile):
    def evaluate(key, rows):
        n, r = key
        emb = ball_embedding(n, r)
        target = scaled_form(fubini_study_form(n + 1), r * r)
        x = realify(_uncvecs(rows, "z"))
        v1 = _stack(rows, "v1")
        v2 = _stack(rows, "v2")
        value = pullback(emb, target, x, v1, v2)
        return np.abs(value - _omega_std_ambient(v1, v2))

    return _grouped(inputs, _n_and_r, evaluate)


_gen_sphereembedding = _cotangent_generator(sample_disc_bundle)


@_check(
    "L-sphereembedding",
    "disc bundle images satisfy the quadric equation and avoid the last hyperplane",
    covers=("cotangent-to-quadric-image",), tolerance="residual_tol",
    params={"n": [1, 2, 3], "samples": 1000},
    each=False,
)
def _res_sphereembedding(inputs, profile):
    def evaluate(n, rows):
        image = cotangent_to_quadric(_points(rows, flat=True))
        on_hyperplane = np.abs(image.rep[..., n + 1]) <= profile.residual_tol
        return np.where(on_hyperplane, SENTINEL, np.abs(quadric_residual(image)))

    return _grouped(inputs, _n, evaluate)


def _quadric_lifts(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Representatives [z : i sqrt(sum z_k^2)] of ``size`` quadric points, one per row."""
    z = rng.standard_normal((size, n + 1)) + 1j * rng.standard_normal((size, n + 1))
    last = 1j * np.sqrt(np.sum(z * z, axis=1))
    return proj_normalize(np.concatenate([z, last[:, None]], axis=1)).rep


def _gen_sphereembedding_lift(params, rng):
    inputs = []
    for n in params["n"]:
        (reps,) = fill_accepted(
            params["samples"],
            lambda index, n=n: (_quadric_lifts(n, rng, index.size),),
            lambda reps: np.abs(reps[:, -1]) > 1e-6,
        )
        inputs += [{"n": int(n), "z": z} for z in _cvecs(reps)]
    return inputs


@_check(
    "L-sphereembedding-lift",
    "off-hyperplane quadric points lift to unit-base orthogonal (p, q) pairs",
    covers=("cotangent-to-quadric-image",), tolerance=1e-8,
    params={"n": [1, 2, 3], "samples": 1000},
    each=False,
)
def _res_sphereembedding_lift(inputs, profile):
    def evaluate(n, rows):
        point = proj_normalize(_uncvecs(rows, "z", flat=True))
        m = quadric_to_cotangent(point)
        base_defect = np.abs(row_norms(m.p) - 1.0)
        ortho_defect = np.abs(np.einsum("...i,...i->...", m.p, m.q))
        roundtrip = projective_defect(cotangent_to_quadric(m), point)
        return np.maximum(np.maximum(base_defect, ortho_defect), roundtrip)

    return _grouped(inputs, _n, evaluate)


_gen_unitcut_boundary = _cotangent_generator(sample_cosphere)


@_check(
    "P-unitcut-boundary",
    "the unit cosphere maps into the lower quadric and circle orbits collapse",
    covers=("unit-cosphere-cut",), tolerance="residual_tol",
    params={"n": [1, 2, 3], "samples": 200},
    each=False,
)
def _res_unitcut_boundary(inputs, profile):
    ts = np.linspace(0.0, TWO_PI, 17)[1:]

    def evaluate(n, rows):
        m = _points(rows)
        image = cosphere_boundary(m)
        off_hyperplane = ~(np.abs(image.rep[:, n + 1]) <= profile.residual_tol)
        # the N x 16 orbit points in one call: row i * 16 + j is input i at ts[j]
        repeated = CotangentPoint(p=np.repeat(m.p, ts.size, axis=0), q=np.repeat(m.q, ts.size, axis=0))
        orbit = cosphere_boundary(scalar_action(repeated, np.tile(ts, len(rows))))
        defects = projective_defect(orbit, ProjectivePoint(np.repeat(image.rep, ts.size, axis=0)))
        worst = np.maximum(np.abs(quadric_residual(image)), defects.reshape(len(rows), ts.size).max(axis=1))
        return np.where(off_hyperplane, SENTINEL, worst)

    return _grouped(inputs, _n, evaluate)


_gen_unitcut_flow = _cotangent_generator(
    sample_cosphere, fields=lambda params: [{"t_grid": int(params["t_grid"])}]
)


@_check(
    "P-unitcut-flow",
    "the evened closed-form flow equals the scalar circle action",
    covers=("unit-cosphere-cut",), tolerance="flow_tol",
    params={"n": [1, 2, 3], "samples": 100, "t_grid": 100},
)
def _res_unitcut_flow(inp, profile):
    # the whole time grid at once: both flows return one row per time
    m = _point(inp)
    ts = np.linspace(0.0, TWO_PI, inp["t_grid"])
    return _dist(flow_closed_form(m, ts), scalar_action(m, ts))


_gen_unitcut_rk4 = _cotangent_generator(
    sample_cosphere, "trajectories",
    fields=lambda params: [{"dt": float(params["dt"]), "t_final": float(params["t_final"])}],
)


@_check(
    "P-unitcut-rk4",
    "RK4 integration of the solved Hamiltonian field reproduces the closed form",
    covers=("unit-cosphere-cut",), tolerance=1e-6,
    params={"n": [2], "trajectories": 1, "dt": 1e-3, "t_final": TWO_PI},
)
def _res_unitcut_rk4(inp, profile):
    # compared at a third and halfway as well: at t_final = 2 pi the closed
    # form is the identity and at pi the antipode, so a field whose flow is
    # 2 pi periodic, or three times too fast, would pass at those two times
    t_final = inp["t_final"]
    if not _positive_times(t_final, inp["dt"]):
        return math.nan
    m = _point(inp)
    ham = HamiltonianSpec(1.0)
    point, t_done, dists = m, 0.0, []
    for t in (t_final / 3.0, t_final / 2.0, t_final):
        point = rk4_integrate(ham, point, t - t_done, inp["dt"], profile).endpoint
        t_done = t
        dists.append(_dist(point, flow_closed_form(m, t)))
    return _worst(dists)


_gen_unitcut_rk4_order = _cotangent_generator(
    sample_cosphere, "trajectories",
    fields=lambda params: [{"dt0": float(params["dt0"]), "t_final": float(params["t_final"])}],
)


@_check(
    "P-unitcut-rk4-order",
    "RK4 endpoint error falls 16x under step halving (order four)",
    covers=("unit-cosphere-cut",), tolerance=4.0,
    params={"n": [2], "trajectories": 1, "dt0": 0.1, "t_final": float(np.pi)},
)
def _res_unitcut_rk4_order(inp, profile):
    # endpoint error must fall ~16x when the step is halved (fourth order);
    # measured at coarse steps where truncation dominates the noise floor
    if not _positive_times(inp["t_final"], inp["dt0"]):
        return math.nan
    m = _point(inp)
    ham = HamiltonianSpec(1.0)
    exact = flow_closed_form(m, inp["t_final"])
    coarse, fine = (
        _dist(rk4_integrate(ham, m, inp["t_final"], dt, profile).endpoint, exact)
        for dt in (inp["dt0"], inp["dt0"] / 2.0)
    )
    # a fine-step error of 0 shows no order and fails (SENTINEL, 1.0, would
    # pass the tolerance of 4); a NaN error stays NaN
    ratio = coarse / fine if fine != 0.0 else math.inf
    return abs(ratio - 16.0)


_gen_branchedcover_deck = _cotangent_generator(sample_disc_bundle)


@_check(
    "C-branchedcover-deck",
    "the deck involution intertwines the embedding with the antipodal map",
    covers=("branched-double-cover",), tolerance="flow_tol",
    params={"n": [1, 2, 3], "samples": 1000},
    each=False,
)
def _res_branchedcover_deck(inputs, profile):
    def evaluate(n, rows):
        m = _points(rows, flat=True)
        upstairs = cotangent_to_quadric(m)
        flipped = deck(upstairs)
        equivariance = projective_defect(flipped, cotangent_to_quadric(antipode(m)))
        collapse = projective_defect(branched_cover(flipped), branched_cover(upstairs))
        return np.maximum(equivariance, collapse)

    return _grouped(inputs, _n, evaluate)


def _gen_branchedcover_fibers(params, rng):
    # each half gets at least one input, so a single sample still draws both kinds
    inputs = []
    for n in params["n"]:
        half = params["samples"] // 2
        off = _projective_off_quadric(n, rng, max(1, half), 1e-3)
        m = sample_cosphere(n, 1.0, 1.0, rng, size=params["samples"] - half)
        on = proj_normalize(m.p + 1j * m.q).rep
        inputs += [{"kind": "off", "expected": 2, "z": z} for z in _cvecs(off)]
        inputs += [{"kind": "on", "expected": 1, "z": z} for z in _cvecs(on)]
    return inputs


@_check(
    "C-branchedcover-fibers",
    "fibers of the cover have two points off the branch quadric and one on it",
    covers=("branched-double-cover",), tolerance=1e-9,
    params={"n": [1, 2, 3], "samples": 200},
)
def _res_branchedcover_fibers(inp, profile):
    point = _projective(inp["z"])
    fiber = quadric_fiber(point, tol=profile.residual_tol)
    if len(fiber) != inp["expected"]:
        return SENTINEL
    worst = 0.0
    for lift in fiber:
        worst = max(worst, abs(quadric_residual(lift)))
        worst = max(worst, projective_defect(branched_cover(lift), point))
    return worst


_gen_pi_not_symplectic = _cotangent_generator(sample_cosphere)


@_check(
    "R-pi-not-symplectic",
    "the cover kills a branch-locus direction that omega_FS pairs nontrivially",
    covers=("branch-locus-degeneracy",), tolerance=1e-8,
    params={"n": [1, 2, 3], "samples": 100},
    each=False,
)
def _res_pi_not_symplectic(inputs, profile):
    # at a branch point the vertical direction is tangent to the quadric and
    # killed by the cover, yet pairs nontrivially with its i-rotation upstairs
    def evaluate(n, rows):
        branch = cosphere_boundary(_points(rows))
        frame = _quadric_frame(branch.rep)
        vertical = np.zeros((len(rows), 1, n + 2), dtype=complex)
        vertical[..., -1] = 1.0
        # per input: the vertical direction, then each frame row and its i-rotation
        tangents = np.stack([frame, 1j * frame], axis=2).reshape(len(rows), 2 * n, n + 2)
        dirs = np.concatenate([vertical, tangents], axis=1)
        cover = branched_cover_map(n)
        image = cover(branch)

        def each_dir(a):
            return np.repeat(a, 2 * n + 1, axis=0)

        w = cover.differential(
            ProjectivePoint(each_dir(branch.rep)),
            realify(dirs.reshape(-1, n + 2)),
            center=ProjectivePoint(each_dir(image.rep)),
        ).reshape(len(rows), 2 * n + 1, -1)
        w_vert = np.repeat(w[:, 0], 2 * n, axis=0)
        w_tan = w[:, 1:].reshape(len(rows) * 2 * n, -1)
        pairing = fubini_study_form(n)(ProjectivePoint(np.repeat(image.rep, 2 * n, axis=0)), w_vert, w_tan)
        return np.abs(pairing).reshape(len(rows), 2 * n).max(axis=1)

    return _grouped(inputs, _n, evaluate)


def _gen_segre_pullback(params, rng):
    a = sample_projective(1, rng, params["samples"])
    b = sample_projective(1, rng, params["samples"])
    v1, v2 = (
        np.concatenate([realify(sample_horizontal(a, rng)), realify(sample_horizontal(b, rng))], axis=1)
        for _ in range(2)
    )
    return [
        {"a": za, "b": zb, "v1": x1, "v2": x2}
        for za, zb, x1, x2 in zip(_cvecs(a.rep), _cvecs(b.rep), v1.tolist(), v2.tolist())
    ]


@_check(
    "P-segre-pullback",
    "the twisted Segre map lands on the quadric and pulls 2 omega_FS back to the product form",
    covers=("quadric-product-structure",), tolerance=1e-6,
    params={"samples": 1000},
    each=False,
)
def _res_segre_pullback(inputs, profile):
    fs1 = scaled_form(fubini_study_form(1), 2.0)
    expected_form = product_form(fs1, fs1)
    target = scaled_form(fubini_study_form(3), 2.0)

    def evaluate(_, rows):
        pair = (proj_normalize(_uncvecs(rows, "a")), proj_normalize(_uncvecs(rows, "b")))
        off_quadric = np.abs(quadric_residual(segre_unitary(*pair))) > profile.residual_tol
        v1 = _stack(rows, "v1")
        v2 = _stack(rows, "v2")
        value = pullback(segre_map(), target, pair, v1, v2)
        return np.where(off_quadric, SENTINEL, np.abs(value - expected_form(pair, v1, v2)))

    return _grouped(inputs, lambda inp: None, evaluate)


def _cp1_generator(*keys: str) -> Callable[[dict, np.random.Generator], list[dict]]:
    """Generator of ``params["samples"]`` inputs, each one CP^1 point per key, one block per key."""

    def gen(params, rng):
        columns = [_cvecs(sample_projective(1, rng, params["samples"]).rep) for _ in keys]
        return [dict(zip(keys, row)) for row in zip(*columns)]

    return gen


_gen_segre_equivariance = _cp1_generator("a", "b")


@_check(
    "P-segre-equivariance",
    "the twisted Segre map intertwines the deck involution with the factor swap",
    covers=("quadric-product-structure",), tolerance="flow_tol",
    params={"samples": 1000},
)
def _res_segre_equivariance(inp, profile):
    a = _projective(inp["a"])
    b = _projective(inp["b"])
    swap = projective_defect(deck(segre_unitary(a, b)), segre_unitary(b, a))
    diagonal = projective_defect(deck(segre_unitary(a, a)), segre_unitary(a, a))
    return max(swap, diagonal)


_gen_diag_antidiag = _cp1_generator("a")


@_check(
    "R-diag-antidiag",
    "the diagonal maps onto the conic and the antidiagonal covers the real points",
    covers=("quadric-product-structure",), tolerance=1e-9,
    params={"samples": 1000},
)
def _res_diag_antidiag(inp, profile):
    a = _projective(inp["a"])
    on_conic = branched_cover(segre_unitary(a, a))
    if locus_classify(on_conic) != "on_Q1":
        return SENTINEL
    on_real = branched_cover(segre_unitary(a, antipodal_cp1(a)))
    if locus_classify(on_real) != "on_RP2":
        return SENTINEL
    rep = on_real.rep
    imag_defect = float(np.max(np.abs(np.imag(np.outer(rep, rep.conjugate())))))
    return max(abs(quadric_residual(on_conic)), imag_defect)


def _gen_evenedrescale(params, rng):
    inputs = []
    for n in params["n"]:
        per_r = max(1, params["samples"] // (2 * len(params["r"])))
        for r in params["r"]:
            m = sample_disc_bundle(n, 1.0, r, rng, size=per_r)
            t1 = sample_tangent(m, rng)
            t2 = sample_tangent(m, rng)
            for p, q, v1, v2 in zip(m.p.tolist(), m.q.tolist(), t1.tolist(), t2.tolist()):
                inputs.append(
                    {"part": "form", "n": int(n), "r": float(r), "p": p, "q": q, "v1": v1, "v2": v2}
                )
            m = sample_cosphere(n, 1.0, r, rng, size=per_r)
            ts = rng.uniform(0.0, TWO_PI, per_r)
            for p, q, t in zip(m.p.tolist(), m.q.tolist(), ts.tolist()):
                inputs.append({"part": "flow", "n": int(n), "r": float(r), "p": p, "q": q, "t": t})
    return inputs


@_check(
    "P-evenedrescale",
    "the evening rescale preserves omega_std and conjugates the cosphere flows",
    covers=("evened-disc-bundle",), tolerance=1e-9,
    params={"n": [1, 2, 3], "r": [0.5, 1.0, 2.0], "samples": 1000},
    each=False,
)
def _res_evenedrescale(inputs, profile):
    def evaluate(key, rows):
        part, n, r = key
        m = _points(rows)
        if part == "form":
            rescale = _evened_rescale_map(n, r)
            omega = cotangent_omega_std(n, float(np.sqrt(r)))
            v1 = _stack(rows, "v1")
            v2 = _stack(rows, "v2")
            value = pullback(rescale, omega, m, v1, v2)
            form_defect = np.abs(value - _omega_std_ambient(v1, v2))
            roundtrip = _row_dist(even_rescale_inverse(even_rescale(m, r), r), m)
            return np.maximum(form_defect, roundtrip)
        # flow part: rescaling intertwines the radius-r trajectory with the
        # evened closed form at the same time parameter
        t = np.array([inp["t"] for inp in rows], dtype=float)
        lhs = even_rescale(flow_uneven_cosphere(m, t), r)
        rhs = flow_closed_form(even_rescale(m, r), t)
        return _row_dist(lhs, rhs)

    return _grouped(inputs, lambda inp: (inp["part"], inp["n"], inp["r"]), evaluate)


_gen_evenedflow_restored = _cotangent_generator(
    sample_cosphere, "trajectories", "r_uneven",
    lambda params: [{"t": float(t), "dt": float(params["dt"])} for t in params["t_checks"]],
)


@_check(
    "P-evenedflow-restored",
    "after evening, the RK4 flow agrees with the scalar action",
    covers=("evened-disc-bundle",), tolerance=1e-6,
    params={
        "n": [2],
        "r_uneven": 0.5,
        "trajectories": 1,
        "dt": 0.01,
        "t_checks": [float(np.pi), TWO_PI],
    },
)
def _res_evenedflow_restored(inp, profile):
    if not _positive_times(inp["t"], inp["dt"]):
        return math.nan
    r = inp["r"]
    evened = even_rescale(_point(inp), r)
    ham = HamiltonianSpec(evened.base_radius)
    result = rk4_integrate(ham, evened, inp["t"], inp["dt"], profile)
    return _dist(result.endpoint, scalar_action(evened, inp["t"]))


_gen_uneven_flow = _cotangent_generator(
    sample_cosphere, "trajectories", "r",
    lambda params: [{"dt": float(params["dt"]), "ts": [float(t) for t in params["t_checks"]]}],
)


@_check(
    "R-uneven-flow",
    "on an uneven cosphere the Hamiltonian flow leaves the scalar orbit",
    covers=("evened-disc-bundle",), tolerance=0.01,
    params={
        "n": [2],
        "r": 0.5,
        "trajectories": 3,
        "dt": 0.01,
        "t_checks": [float(np.pi / 2.0), float(np.pi)],
    },
    kind="witness",
)
def _score_uneven_flow(inp, profile):
    # witness search: how far the true flow drifts from the scalar action;
    # the segments chain, so a time that does not increase scores NaN
    ts = inp["ts"]
    if not (_positive_times(inp["dt"], *ts) and all(a < b for a, b in zip(ts, ts[1:]))):
        return math.nan
    m = _point(inp)
    ham = HamiltonianSpec(1.0)
    current, t_done, dists = m, 0.0, [0.0]
    for t in ts:
        current = rk4_integrate(ham, current, t - t_done, inp["dt"], profile).endpoint
        t_done = t
        dists.append(_dist(current, scalar_action(m, t)))
    return _worst(dists)


def _gen_omega_r_descent(params, rng):
    inputs = []
    margin = 2.5 * DEFAULT_PROFILE.branch_margin

    def draw(n, index):
        m = sample_disc_bundle(n, 1.0, 1.0, rng, size=index.size)
        return m.p, m.q

    def away_from_branch(p, q):
        q2 = np.einsum("ij,ij->i", q, q)
        return (1.0 - q2) / (1.0 + q2) > margin

    radii = list(params["r"])
    for n in params["n"]:
        p, q = fill_accepted(params["samples"], lambda index, n=n: draw(n, index), away_from_branch)
        upstairs = cotangent_to_quadric(CotangentPoint(p=p, q=q)).rep
        frame = _quadric_frame(upstairs)
        tangents = []
        for _ in range(2):
            coeff = rng.standard_normal(frame.shape[:2]) + 1j * rng.standard_normal(frame.shape[:2])
            v = np.einsum("ik,ikj->ij", coeff, frame)
            tangents.append(_cvecs(v / row_norms(v)[:, None]))
        for i, (z, v1, v2) in enumerate(zip(_cvecs(upstairs), *tangents)):
            inputs.append({"n": int(n), "r": float(radii[i % len(radii)]), "z": z, "v1": v1, "v2": v2})
    return inputs


@_check(
    "P-omega-r-descent",
    "pullback of the pushed-down form through the cover returns 2r omega_FS",
    covers=("pushed-down-form",), tolerance=1e-6,
    params={"n": [1, 2, 3], "r": [0.5, 1.0, 2.0], "samples": 1000},
    each=False,
)
def _res_omega_r_descent(inputs, profile):
    def evaluate(key, rows):
        n, r = key
        upstairs = proj_normalize(_uncvecs(rows, "z"))
        v1 = realify(_uncvecs(rows, "v1"))
        v2 = realify(_uncvecs(rows, "v2"))
        cover = branched_cover_map(n)
        image = cover(upstairs)
        w1 = cover.differential(upstairs, v1, center=image)
        w2 = cover.differential(upstairs, v2, center=image)
        value = omega_r(image, w1, w2, r, profile)
        expected = 2.0 * r * _omega_std_ambient(v1, v2)
        return np.abs(value - expected)

    return _grouped(inputs, _n_and_r, evaluate)


def _gen_omega_r_not_fs(params, rng):
    inputs = []
    margin = 2.0 * DEFAULT_PROFILE.branch_margin
    for n in params["n"]:
        point = ProjectivePoint(_projective_off_quadric(n, rng, params["samples"], margin))
        dirs = [_cvecs(sample_horizontal(point, rng)) for _ in range(params["pairs"])]
        for z, row in zip(_cvecs(point.rep), zip(*dirs)):
            inputs.append({"n": int(n), "r": float(params["r"][0]), "z": z, "dirs": list(row)})
    return inputs


@_check(
    "R-omega-r-not-FS",
    "the pushed-down form is not pointwise proportional to omega_FS",
    covers=("pushed-down-form",), tolerance=0.1,
    params={"n": [2], "r": [1.0], "samples": 50, "pairs": 4},
    kind="witness",
)
def _score_omega_r_not_fs(inp, profile):
    # ratios omega_r(v, iv) / omega_FS(v, iv) across directions at one point;
    # omega_FS(v, iv) = |v|^2 = 1 for unit horizontal v
    point = _projective(inp["z"])
    ratios = []
    for d in inp["dirs"]:
        v = _uncvec(d)
        ratios.append(omega_r(point, realify(v), realify(1j * v), inp["r"], profile))
    return max(ratios) - min(ratios)


def _quadrature_input(params, rng):
    """The one input of a period check: its node count per axis."""
    return [{"nodes": int(params["nodes"])}]


_gen_period_cp1 = _quadrature_input


@_check(
    "I-period-CP1",
    "the projective line has omega_FS area pi",
    covers=("pushed-down-form",), tolerance="quadrature_tol",
    params={"nodes": 200},
)
def _res_period_cp1(inp, profile):
    value = integrate_surface(_sphere_chart(), fubini_study_form(1), nodes=inp["nodes"])
    return abs(value - np.pi)


_gen_period_q1 = _quadrature_input


@_check(
    "I-period-Q1",
    "the conic has 2 omega_FS area 4 pi",
    covers=("pushed-down-form",), tolerance=1e-5,
    params={"nodes": 64},
)
def _res_period_q1(inp, profile):
    form = scaled_form(fubini_study_form(2), 2.0)
    value = integrate_surface(_conic_chart(), form, nodes=inp["nodes"])
    return abs(value - 4.0 * np.pi)


def _gen_period_match(params, rng):
    return [{"nodes": int(params["nodes"]), "r": float(r)} for r in params["r"]]


@_check(
    "I-period-match",
    "diagonal sphere and conic periods agree under the product identification",
    covers=("pushed-down-form",), tolerance=1e-5,
    params={"nodes": 64, "r": [0.5, 1.0, 2.0]},
)
def _res_period_match(inp, profile):
    r = inp["r"]
    fs1 = scaled_form(fubini_study_form(1), 2.0 * r)
    diag = integrate_surface(_diagonal_chart(), product_form(fs1, fs1), nodes=inp["nodes"])
    conic = integrate_surface(
        _conic_chart(), scaled_form(fubini_study_form(2), 2.0 * r), nodes=inp["nodes"]
    )
    return abs(diag - conic)


def _gen_zerosection(params, rng):
    # each half gets at least one input, as in _gen_branchedcover_fibers
    inputs = []
    for n in params["n"]:
        half = params["samples"] // 2
        zero = _unit_rows((max(1, half), n + 1), rng)
        m = sample_cosphere(n, 1.0, 1.0, rng, size=params["samples"] - half)
        inputs += [{"kind": "zero", "n": int(n), "p": p, "q": [0.0] * (n + 1)} for p in zero.tolist()]
        inputs += [
            {"kind": "boundary", "n": int(n), "p": p, "q": q} for p, q in zip(m.p.tolist(), m.q.tolist())
        ]
    return inputs


@_check(
    "T-zerosection",
    "the zero section lands on the real locus and the boundary on the conic",
    covers=("zero-section-image",), tolerance=1e-9,
    params={"n": [2], "samples": 500},
)
def _res_zerosection(inp, profile):
    m = _point(inp)
    if inp["kind"] == "zero":
        image = branched_cover(cotangent_to_quadric(m))
        if inp["n"] == 2 and locus_classify(image) != "on_RP2":
            return SENTINEL
        rep = image.rep
        return float(np.max(np.abs(np.imag(np.outer(rep, rep.conjugate())))))
    image = branched_cover(cosphere_boundary(m))
    if inp["n"] == 2 and locus_classify(image) != "on_Q1":
        return SENTINEL
    return abs(quadric_residual(image))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    samples: int | None = None
    n_values: tuple[int, ...] | None = None
    radii: tuple[float, ...] | None = None
    profile: str = "default"


# least usable value of each count parameter; a quadrature rule needs two nodes
_LEAST_COUNT = {"samples": 1, "trajectories": 1, "pairs": 1, "t_grid": 1, "nodes": 2}

# finite positive real parameters, named (one value, a list) in messages: the
# radii, and the RK4 time step, final time and check times
_POSITIVE_REALS = {
    "r": ("radius", "radii"),
    "r_uneven": ("radius", "radii"),
    **{key: (key, key) for key in ("dt", "dt0", "t_final", "t_checks")},
}


def _validate(check: Check, params: dict) -> None:
    """Raise UsageError unless a generated run's dimensions, radii, times and counts are usable.

    A radius or time parameter takes the shape the check declares, a list of
    reals or one real, and each of its values must be finite and positive; a
    list of check times must strictly increase.
    """
    for key, value in params.items():
        problem = None
        if key == "n":
            if not (isinstance(value, (list, tuple)) and all(isinstance(n, Integral) for n in value)):
                problem = "dimensions must be a list of integers"
            elif not all(n >= 1 for n in value):
                problem = "dimensions must be at least 1"
        elif key in _POSITIVE_REALS:
            one, many = _POSITIVE_REALS[key]
            listed = isinstance(check.params[key], tuple)
            values = value if listed and isinstance(value, (list, tuple)) else [value]
            if listed != isinstance(value, (list, tuple)) or not all(isinstance(v, Real) for v in values):
                problem = f"{many} must be a list of real numbers" if listed else f"{one} must be a real number"
            elif not all(math.isfinite(v) and v > 0 for v in values):
                problem = f"{many} must be finite and positive"
            elif key == "t_checks" and not all(a < b for a, b in zip(values, values[1:])):
                problem = "t_checks must strictly increase"
        elif key in _LEAST_COUNT:
            if not isinstance(value, Integral):
                problem = f"{key} must be an integer"
            elif not value >= _LEAST_COUNT[key]:
                problem = f"{key} must be at least {_LEAST_COUNT[key]}"
        if problem:
            raise UsageError(f"check {check.id}: {problem}, got {value!r}")


def _resolve_profile(profile: str | ToleranceProfile) -> ToleranceProfile:
    if isinstance(profile, ToleranceProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise UsageError(f"unknown tolerance profile {profile!r}") from None


def run_check(
    check_id: str,
    params: dict | None = None,
    seed: int = 42,
    profile: str | ToleranceProfile = "default",
) -> CheckReport:
    """Run one named check; deterministic given (id, params, seed).

    ``params`` may override the check's declared parameters, inject a
    ``tolerance``, or supply a single serialized ``witness`` input to
    re-evaluate. A generated run needs a list of integer dimensions of at
    least 1, finite positive real radii and times, integer counts of at least
    1 and at least 2 quadrature nodes.
    """
    prof = _resolve_profile(profile)
    registry = build_registry()
    if check_id not in registry:
        raise UsageError(f"unknown check id {check_id!r}")
    check = registry[check_id]
    merged = dict(check.params)
    # a tolerance declared by name is the field of that name in the run's profile
    tolerance = getattr(prof, check.tolerance) if isinstance(check.tolerance, str) else check.tolerance
    witness_input = None
    for key, value in (params or {}).items():
        if key == "tolerance":
            tolerance = float(value)
        elif key == "witness":
            witness_input = value
        elif key in check.params:
            merged[key] = value
        else:
            raise UsageError(f"check {check_id} does not take parameter {key!r}")
    start = time.perf_counter()
    if witness_input is not None:
        inputs = [witness_input]
    else:
        _validate(check, merged)
        inputs = check.gen(merged, derive_stream(seed, check_id))
    if not inputs:
        raise UsageError(
            f"check {check_id} generated no inputs: sample counts must be positive "
            "and parameter lists non-empty"
        )
    residuals = check.residual(inputs, prof)
    elapsed = time.perf_counter() - start
    finite = np.isfinite(residuals)
    if not finite.all():
        # a NaN or infinite residual fails either kind; its input is the witness
        first = int(np.argmin(finite))
        max_residual = float(residuals[first])
        passed = False
        witness = inputs[first]
    else:
        # a witness check always reports its best find; a residual check its worst failure
        top = int(residuals.argmax())
        max_residual = float(residuals[top])
        passed = max_residual > tolerance if check.kind == "witness" else max_residual <= tolerance
        witness = inputs[top] if check.kind == "witness" or not passed else None
    return CheckReport(
        id=check_id,
        seed=seed,
        samples=len(inputs),
        max_residual=max_residual,
        tolerance=float(tolerance),
        passed=passed,
        elapsed=elapsed,
        witness=witness,
    )


def run_suite(
    pattern: str = "*",
    config: SuiteConfig = SuiteConfig(),
    overrides: dict[str, dict] | None = None,
) -> tuple[list[CheckReport], int]:
    """Run all checks matching the id glob, in registry order.

    ``overrides`` maps check ids to extra per-check parameters (including an
    injected ``tolerance``). Returns the reports plus an exit status: 0 iff
    every matched check passed. Raises UsageError if the glob matches nothing
    or a check's parameters are invalid (see :func:`run_check`).
    """
    prof = _resolve_profile(config.profile)
    registry = build_registry()
    matched = [cid for cid in registry if fnmatch.fnmatchcase(cid, pattern)]
    if not matched:
        raise UsageError(f"no check matches pattern {pattern!r}")
    reports = []
    for cid in matched:
        check = registry[cid]
        params: dict[str, Any] = {}
        if config.samples is not None and "samples" in check.params:
            params["samples"] = config.samples
        if config.n_values is not None and "n" in check.params:
            params["n"] = list(config.n_values)
        if config.radii is not None and "r" in check.params and isinstance(check.params["r"], tuple):
            params["r"] = list(config.radii)
        if overrides and cid in overrides:
            params.update(overrides[cid])
        reports.append(run_check(cid, params or None, seed=config.seed, profile=prof))
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
    """Write reports as text or json to a path or file object (stdout if None)."""
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
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
