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
residual bit for bit.
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
    DEFAULT_PROFILE,
    PROFILES,
    ToleranceProfile,
    derive_stream,
    realify,
)
from .projective import (
    ProjectivePoint,
    in_hyperplane,
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

# most rows a batched residual evaluates at once; bounds its peak memory
# whatever the sample count
CHUNK_ROWS = 1024


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


def _cvec(z: np.ndarray) -> dict:
    z = np.asarray(z, dtype=complex)
    return {"re": z.real.tolist(), "im": z.imag.tolist()}


def _uncvec(d: dict) -> np.ndarray:
    return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)


def _uncvecs(inputs: list[dict], key: str) -> np.ndarray:
    """(N, m) complex array of the N inputs' serialized ``key`` vectors."""
    vecs = [inp[key] for inp in inputs]
    return np.array([d["re"] for d in vecs], dtype=float) + 1j * np.array(
        [d["im"] for d in vecs], dtype=float
    )


def _floats(x) -> list[float]:
    return np.asarray(x, dtype=float).tolist()


def _stack(inputs: list[dict], key: str) -> np.ndarray:
    """(N, m) real array of the N inputs' ``key`` vectors."""
    return np.array([inp[key] for inp in inputs], dtype=float)


def _point(d: dict) -> CotangentPoint:
    return CotangentPoint(p=np.asarray(d["p"], dtype=float), q=np.asarray(d["q"], dtype=float))


def _projective(d: dict) -> ProjectivePoint:
    return proj_normalize(_uncvec(d))


def _dist(a: CotangentPoint, b: CotangentPoint) -> float:
    return max(float(np.max(np.abs(a.p - b.p))), float(np.max(np.abs(a.q - b.q))))


# ---------------------------------------------------------------------------
# Shared geometry helpers.
# ---------------------------------------------------------------------------


def _ball_sample(n: int, r: float, rng: np.random.Generator) -> np.ndarray:
    """Volume-uniform interior point of the open complex ball.

    Kept within 0.95 r: the embedding's square root loses derivatives at the
    boundary faster than central differences at step 1e-5 can tolerate.
    """
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    z /= np.linalg.norm(z)
    radius = 0.95 * r * rng.uniform() ** (1.0 / (2 * (n + 1)))
    return radius * z


def _unit_real(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _quadric_frame(rep: np.ndarray) -> np.ndarray:
    """Complex orthonormal rows spanning the quadric tangent space at rep.

    Tangency means complex orthogonality to both rep (horizontality) and
    conj(rep) (the quadric constraint sum z_k v_k = 0); the two are
    independent everywhere on the quadric because sum rep^2 = 0.
    """
    rows = np.stack([np.conj(rep), rep])
    _, svals, vh = np.linalg.svd(rows)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    if rank != 2:
        raise RuntimeError("degenerate quadric tangent frame")
    return np.conj(vh[rank:])


def _quadric_tangent(frame: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random unit tangent vector spanned by the rows of a :func:`_quadric_frame`."""
    coeff = rng.standard_normal(frame.shape[0]) + 1j * rng.standard_normal(frame.shape[0])
    v = coeff @ frame
    return v / np.linalg.norm(v)


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
    row.
    """
    out = np.empty(len(inputs))
    groups: dict[Any, list[int]] = {}
    for i, inp in enumerate(inputs):
        groups.setdefault(key(inp), []).append(i)
    for k, index in groups.items():
        for lo in range(0, len(index), CHUNK_ROWS):
            chunk = index[lo : lo + CHUNK_ROWS]
            out[chunk] = evaluate(k, [inputs[i] for i in chunk])
    return out


def _n_and_r(inp: dict) -> tuple[int, float]:
    return inp["n"], inp["r"]


def _cotangent_generator(sampler: Callable, count="samples", radius=None, fields=lambda params: [{}]):
    """Generator of ``params[count]`` points ``sampler(n, 1, r, rng)`` for each ``n``.

    The fiber radius r is 1, or ``params[radius]`` when ``radius`` names a
    param. A point yields one input per dict of ``fields(params)``, keyed
    ``n``, then ``r`` when a radius is named, then ``p``, ``q`` and the dict.
    """

    def gen(params, rng):
        r = float(params[radius]) if radius else 1.0
        head = {"r": r} if radius else {}
        tails = fields(params)
        inputs = []
        for n in params["n"]:
            for _ in range(params[count]):
                m = sampler(n, 1.0, r, rng)
                p, q = _floats(m.p), _floats(m.q)
                for tail in tails:
                    inputs.append({"n": int(n), **head, "p": p, "q": q, **tail})
        return inputs

    return gen


def _gen_projemb(params, rng):
    inputs = []
    for n in params["n"]:
        for r in params["r"]:
            for _ in range(params["samples"]):
                z = _ball_sample(n, r, rng)
                for _ in range(params["pairs"]):
                    inputs.append(
                        {
                            "n": int(n),
                            "r": float(r),
                            "z": _cvec(z),
                            "v1": _floats(_unit_real(2 * (n + 1), rng)),
                            "v2": _floats(_unit_real(2 * (n + 1), rng)),
                        }
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
)
def _res_sphereembedding(inp, profile):
    n = inp["n"]
    image = cotangent_to_quadric(_point(inp))
    if in_hyperplane(image, n + 1, tol=profile.residual_tol):
        return SENTINEL
    return abs(quadric_residual(image))


def _gen_sphereembedding_lift(params, rng):
    inputs = []
    for n in params["n"]:
        count = 0
        while count < params["samples"]:
            z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            s = complex(np.sum(z * z))
            point = proj_normalize(np.concatenate([z, [1j * np.sqrt(s)]]))
            if abs(point.rep[-1]) <= 1e-6:
                continue
            inputs.append({"n": int(n), "z": _cvec(point.rep)})
            count += 1
    return inputs


@_check(
    "L-sphereembedding-lift",
    "off-hyperplane quadric points lift to unit-base orthogonal (p, q) pairs",
    covers=("cotangent-to-quadric-image",), tolerance=1e-8,
    params={"n": [1, 2, 3], "samples": 1000},
)
def _res_sphereembedding_lift(inp, profile):
    point = _projective(inp["z"])
    m = quadric_to_cotangent(point)
    base_defect = abs(float(np.linalg.norm(m.p)) - 1.0)
    ortho_defect = abs(float(m.p @ m.q))
    roundtrip = projective_defect(cotangent_to_quadric(m), point)
    return max(base_defect, ortho_defect, roundtrip)


_gen_unitcut_boundary = _cotangent_generator(sample_cosphere)


@_check(
    "P-unitcut-boundary",
    "the unit cosphere maps into the lower quadric and circle orbits collapse",
    covers=("unit-cosphere-cut",), tolerance="residual_tol",
    params={"n": [1, 2, 3], "samples": 200},
)
def _res_unitcut_boundary(inp, profile):
    n = inp["n"]
    m = _point(inp)
    image = cosphere_boundary(m)
    if not in_hyperplane(image, n + 1, tol=profile.residual_tol):
        return SENTINEL
    worst = abs(quadric_residual(image))
    for t in np.linspace(0.0, TWO_PI, 17)[1:]:
        orbit = cosphere_boundary(scalar_action(m, float(t)))
        worst = max(worst, projective_defect(orbit, image))
    return worst


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
    m = _point(inp)
    result = rk4_integrate(HamiltonianSpec(1.0), m, inp["t_final"], inp["dt"], profile)
    return _dist(result.endpoint, flow_closed_form(m, inp["t_final"]))


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
    m = _point(inp)
    ham = HamiltonianSpec(1.0)
    exact = flow_closed_form(m, inp["t_final"])
    errs = []
    for dt in (inp["dt0"], inp["dt0"] / 2.0):
        result = rk4_integrate(ham, m, inp["t_final"], dt, profile)
        errs.append(_dist(result.endpoint, exact))
    if errs[1] <= 0.0:
        return SENTINEL
    return abs(errs[0] / errs[1] - 16.0)


_gen_branchedcover_deck = _cotangent_generator(sample_disc_bundle)


@_check(
    "C-branchedcover-deck",
    "the deck involution intertwines the embedding with the antipodal map",
    covers=("branched-double-cover",), tolerance="flow_tol",
    params={"n": [1, 2, 3], "samples": 1000},
)
def _res_branchedcover_deck(inp, profile):
    m = _point(inp)
    upstairs = cotangent_to_quadric(m)
    flipped = deck(upstairs)
    equivariance = projective_defect(flipped, cotangent_to_quadric(antipode(m)))
    collapse = projective_defect(branched_cover(flipped), branched_cover(upstairs))
    return max(equivariance, collapse)


def _gen_branchedcover_fibers(params, rng):
    # each half gets at least one input, so a single sample still draws both kinds
    inputs = []
    for n in params["n"]:
        half = params["samples"] // 2
        count = 0
        while count < max(1, half):
            point = sample_projective(n, rng)
            if abs(quadric_residual(point)) <= 1e-3:
                continue
            inputs.append({"kind": "off", "expected": 2, "z": _cvec(point.rep)})
            count += 1
        for _ in range(params["samples"] - half):
            m = sample_cosphere(n, 1.0, 1.0, rng)
            point = proj_normalize(m.p + 1j * m.q)
            inputs.append({"kind": "on", "expected": 1, "z": _cvec(point.rep)})
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
)
def _res_pi_not_symplectic(inp, profile):
    # at a branch point the vertical direction is tangent to the quadric and
    # killed by the cover, yet pairs nontrivially with its i-rotation upstairs
    n = inp["n"]
    branch = cosphere_boundary(_point(inp))
    rep = branch.rep
    vertical = np.zeros(n + 2, dtype=complex)
    vertical[-1] = 1.0
    if _omega_std_ambient(realify(vertical), realify(1j * vertical)) <= 0.1:
        return SENTINEL
    cover = branched_cover_map(n)
    fs_downstairs = fubini_study_form(n)
    image = cover(branch)
    w_vert = cover.differential(branch, realify(vertical))
    worst = 0.0
    for row in _quadric_frame(rep):
        for tangent in (row, 1j * row):
            w_tan = cover.differential(branch, realify(tangent))
            worst = max(worst, abs(fs_downstairs(image, w_vert, w_tan)))
    return worst


def _gen_segre_pullback(params, rng):
    inputs = []
    for _ in range(params["samples"]):
        a = sample_projective(1, rng)
        b = sample_projective(1, rng)
        v1 = np.concatenate(
            [realify(sample_horizontal(a, rng)), realify(sample_horizontal(b, rng))]
        )
        v2 = np.concatenate(
            [realify(sample_horizontal(a, rng)), realify(sample_horizontal(b, rng))]
        )
        inputs.append(
            {"a": _cvec(a.rep), "b": _cvec(b.rep), "v1": _floats(v1), "v2": _floats(v2)}
        )
    return inputs


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
    """Generator of ``params["samples"]`` inputs, each one CP^1 point per key, drawn in key order."""

    def gen(params, rng):
        return [
            {key: _cvec(sample_projective(1, rng).rep) for key in keys}
            for _ in range(params["samples"])
        ]

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
            for _ in range(per_r):
                m = sample_disc_bundle(n, 1.0, r, rng)
                t1 = sample_tangent(m, rng)
                t2 = sample_tangent(m, rng)
                inputs.append(
                    {
                        "part": "form",
                        "n": int(n),
                        "r": float(r),
                        "p": _floats(m.p),
                        "q": _floats(m.q),
                        "v1": _floats(t1),
                        "v2": _floats(t2),
                    }
                )
            for _ in range(per_r):
                m = sample_cosphere(n, 1.0, r, rng)
                inputs.append(
                    {
                        "part": "flow",
                        "n": int(n),
                        "r": float(r),
                        "p": _floats(m.p),
                        "q": _floats(m.q),
                        "t": float(rng.uniform(0.0, TWO_PI)),
                    }
                )
    return inputs


@_check(
    "P-evenedrescale",
    "the evening rescale preserves omega_std and conjugates the cosphere flows",
    covers=("evened-disc-bundle",), tolerance=1e-9,
    params={"n": [1, 2, 3], "r": [0.5, 1.0, 2.0], "samples": 1000},
)
def _res_evenedrescale(inp, profile):
    n, r = inp["n"], inp["r"]
    m = _point(inp)
    if inp["part"] == "form":
        rescale = _evened_rescale_map(n, r)
        omega = cotangent_omega_std(n, float(np.sqrt(r)))
        v1 = np.asarray(inp["v1"], dtype=float)
        v2 = np.asarray(inp["v2"], dtype=float)
        value = pullback(rescale, omega, m, v1, v2)
        form_defect = abs(value - _omega_std_ambient(v1, v2))
        roundtrip = _dist(even_rescale_inverse(even_rescale(m, r), r), m)
        return max(form_defect, roundtrip)
    # flow part: rescaling intertwines the radius-r trajectory with the
    # evened closed form at the same time parameter
    t = inp["t"]
    lhs = even_rescale(flow_uneven_cosphere(m, t), r)
    rhs = flow_closed_form(even_rescale(m, r), t)
    return _dist(lhs, rhs)


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
    # witness search: how far the true flow drifts from the scalar action
    m = _point(inp)
    ham = HamiltonianSpec(1.0)
    best = 0.0
    current = m
    t_done = 0.0
    for t in inp["ts"]:
        result = rk4_integrate(ham, current, t - t_done, inp["dt"], profile)
        current = result.endpoint
        t_done = t
        best = max(best, _dist(current, scalar_action(m, t)))
    return best


def _gen_omega_r_descent(params, rng):
    inputs = []
    margin = 2.5 * DEFAULT_PROFILE.branch_margin
    for n in params["n"]:
        radii = list(params["r"])
        for i in range(params["samples"]):
            r = radii[i % len(radii)]
            while True:
                m = sample_disc_bundle(n, 1.0, 1.0, rng)
                q2 = float(m.q @ m.q)
                if (1.0 - q2) / (1.0 + q2) > margin:
                    break
            upstairs = cotangent_to_quadric(m)
            frame = _quadric_frame(upstairs.rep)
            v1 = _quadric_tangent(frame, rng)
            v2 = _quadric_tangent(frame, rng)
            inputs.append(
                {
                    "n": int(n),
                    "r": float(r),
                    "z": _cvec(upstairs.rep),
                    "v1": _cvec(v1),
                    "v2": _cvec(v2),
                }
            )
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
        w1 = cover.differential(upstairs, v1)
        w2 = cover.differential(upstairs, v2)
        value = omega_r(image, w1, w2, r, profile)
        expected = 2.0 * r * _omega_std_ambient(v1, v2)
        return np.abs(value - expected)

    return _grouped(inputs, _n_and_r, evaluate)


def _gen_omega_r_not_fs(params, rng):
    inputs = []
    margin = 2.0 * DEFAULT_PROFILE.branch_margin
    for n in params["n"]:
        for _ in range(params["samples"]):
            while True:
                point = sample_projective(n, rng)
                if abs(quadric_residual(point)) > margin:
                    break
            dirs = [_cvec(sample_horizontal(point, rng)) for _ in range(params["pairs"])]
            inputs.append(
                {"n": int(n), "r": float(params["r"][0]), "z": _cvec(point.rep), "dirs": dirs}
            )
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
        for _ in range(max(1, half)):
            p = _unit_real(n + 1, rng)
            inputs.append({"kind": "zero", "n": int(n), "p": _floats(p), "q": _floats(np.zeros(n + 1))})
        for _ in range(params["samples"] - half):
            m = sample_cosphere(n, 1.0, 1.0, rng)
            inputs.append({"kind": "boundary", "n": int(n), "p": _floats(m.p), "q": _floats(m.q)})
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


def _validate(check: Check, params: dict) -> None:
    """Raise UsageError unless a generated run's dimensions, radii and counts are usable.

    A radius parameter takes the shape the check declares: a list of reals
    or one real.
    """
    for key, value in params.items():
        problem = None
        if key == "n":
            if not (isinstance(value, (list, tuple)) and all(isinstance(n, Integral) for n in value)):
                problem = "dimensions must be a list of integers"
            elif not all(n >= 1 for n in value):
                problem = "dimensions must be at least 1"
        elif key in ("r", "r_uneven"):
            listed = isinstance(check.params[key], tuple)
            radii = value if listed and isinstance(value, (list, tuple)) else [value]
            if listed != isinstance(value, (list, tuple)) or not all(isinstance(r, Real) for r in radii):
                problem = "radii must be a list of real numbers" if listed else "radius must be a real number"
            elif not all(math.isfinite(r) and r > 0 for r in radii):
                problem = "radii must be finite and positive"
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
    least 1, finite positive real radii, integer counts of at least 1 and at
    least 2 quadrature nodes.
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
    non_finite = np.flatnonzero(~np.isfinite(residuals))
    if non_finite.size:
        # a NaN or infinite residual fails either kind; its input is the witness
        first = int(non_finite[0])
        max_residual = float(residuals[first])
        passed = False
        witness = inputs[first]
    else:
        # a witness check always reports its best find; a residual check its worst failure
        top = int(np.argmax(residuals))
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
