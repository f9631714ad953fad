"""Central-difference pushforward: the oracle the exact differentials are tested against.

``central_difference(f, x, v, h)`` evaluates the map at the two domain points
x + h v and x - h v (normalized for a projective point, retracted for a
cotangent point), turns a projective output into the representative closest
in phase to the center's (a canonical-phase gauge can jump between nearby
points), and returns (f(x + h v) - f(x - h v)) / 2h, projected onto the
horizontal space for a projective target. One point, one tangent, O(h^2)
truncation.

``retract`` puts an ambient (p, q) pair back on the constraint set of a
cotangent bundle; the oracle's offsets and the tests' reference integrators
use it, and ``bundle_residuals`` measures how far a single point lies off
that set. ``constraint_frame`` is an orthonormal basis of that set's tangent
space, from an SVD, for tests of the closed-form samplers and field.

``solve_field`` is the Hamiltonian field solve alone, compiled per dimension
from the statements the RK4 kernel inlines at each stage.
``reference_field`` is the same solve as a loop over lists, and
``reference_rk4`` the RK4 trajectory around it as a loop over lists, the
body the compiled per-dimension RK4 kernel unrolls; each compiled solve must
return its loop's floats bit for bit. The loop calls ``_energy_slope`` and
``_multipliers``, whose arithmetic the template writes out, so the oracle
is written apart from the statements it checks. Both take the energy's
slope in |q|^2 exactly. ``patch_field_body`` compiles both kernels from a
template with statements replaced, such as the slope with ``SLOPE_CALL`` to
call a slope back in, or with ``ENERGY_SLOPE``, a central difference of its
own, to call a mutant energy back in.
"""

import functools
from math import hypot, isfinite, sqrt

import numpy as np

from quadcover import dynamics
from quadcover.cotangent import CotangentPoint
from quadcover.forms import _ambient
from quadcover.numerics import _null_frame, complexify, realify, row_norms
from quadcover.projective import ProjectivePoint, horizontal_project, proj_normalize


def retract(p: np.ndarray, q: np.ndarray, base_radius: float) -> CotangentPoint:
    """Project an ambient (p, q) pair back onto the constraint set.

    Normalizes p to the base radius and removes the p-component of q. Acts
    on the last axis with row arithmetic, so (N, d) arrays retract N pairs,
    each as it would alone.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    norm = row_norms(p)[..., None]
    if (norm <= 1e-12).any():
        raise ValueError("cannot retract: base point collapsed to the origin")
    p = p * (base_radius / norm)
    pq = np.einsum("...i,...i->...", p, q)[..., None]
    pp = np.einsum("...i,...i->...", p, p)[..., None]
    q = q - pq / pp * p
    return CotangentPoint(p=p, q=q, base_radius=base_radius)


def bundle_residuals(m: CotangentPoint) -> tuple[float, float]:
    """(base-norm defect, orthogonality defect) of a single point."""
    return abs(float(np.sqrt(m.p @ m.p)) - m.base_radius), abs(float(m.p @ m.q))


def constraint_frame(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the constraint tangent space at (p, q): the null space of (p, 0) and (q, p).

    (N, d) arrays p and q give N stacked frames of shape (N, 2d - 2, 2d).
    Dependent rows raise a numerical rank failure.
    """
    rows = (np.concatenate([p, np.zeros_like(p)], axis=-1), np.concatenate([q, p], axis=-1))
    return _null_frame(np.stack(rows, axis=-2))


def _offset(x, w):
    """The point x moved by the ambient vector w and put back on its space."""
    if isinstance(x, tuple):
        k = _ambient(x[0])
        return (_offset(x[0], w[..., :k]), _offset(x[1], w[..., k:]))
    if isinstance(x, ProjectivePoint):
        return proj_normalize(x.rep + complexify(w))
    if isinstance(x, CotangentPoint):
        d = x.p.shape[-1]
        return retract(x.p + w[..., :d], x.q + w[..., d:], x.base_radius)
    return np.asarray(x, dtype=float) + w


def _aligned(center, y) -> np.ndarray:
    """The output y as a real ambient array, a projective one in the gauge closest to ``center``."""
    if isinstance(y, tuple):
        return np.concatenate([_aligned(center[0], y[0]), _aligned(center[1], y[1])], axis=-1)
    if isinstance(y, ProjectivePoint):
        overlap = np.einsum("...i,...i->...", center.rep.conj(), y.rep)
        return realify(y.rep * (overlap.conjugate() / np.abs(overlap))[..., None])
    if isinstance(y, CotangentPoint):
        return np.concatenate([y.p, y.q], axis=-1)
    return np.asarray(y, dtype=float)


def _projected(center, w) -> np.ndarray:
    """A difference quotient projected as the output's pushforward is: horizontally on CP^n."""
    if isinstance(center, ProjectivePoint):
        return realify(horizontal_project(center, complexify(w)))
    if isinstance(center, tuple):
        k = _ambient(center[0])
        return np.concatenate([_projected(center[0], w[..., :k]), _projected(center[1], w[..., k:])], axis=-1)
    return w


def central_difference(f, x, v, h: float = 1e-5) -> np.ndarray:
    """(f(x + h v) - f(x - h v)) / 2h at one point x along one ambient tangent v."""
    center = f(x)
    plus, minus = (_aligned(center, f(_offset(x, s * h * v))) for s in (1.0, -1.0))
    return _projected(center, (plus - minus) / (2.0 * h))



def _dot(a, b) -> float:
    """sum(a_i * b_i) added left to right from 0.0, as sum() adds floats up to Python 3.11."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _restricted_energy(pp: float, qq: float, pq: float, k_ham: float) -> float:
    """H = k|q| at the retraction of an ambient (p, q) with Gram entries |p|^2, |q|^2, p.q.

    Retracting (p, q) leaves q - (p.q / |p|^2) p whatever the base radius, so
    the retracted energy is k sqrt(|q|^2 - (p.q)^2 / |p|^2).
    """
    return k_ham * sqrt(qq - pq * pq / pp)


def _energy_slope(pp: float, qq: float, pq: float, k_ham: float) -> float:
    """2 dE/d|q|^2 of the retracted energy E, exactly: k / sqrt(|q|^2 - (p.q)^2 / |p|^2).

    The radicand is the squared retracted fiber; at or below 1e-12 |q|^2 it
    is refused as the zero section, as the field template refuses it.
    """
    perp = qq - pq * pq / pp
    if not perp > 1e-12 * qq:
        raise dynamics.ZeroSectionError("Hamiltonian field undefined: the retracted fiber is within 1e-6 |q| of zero")
    return k_ham / sqrt(perp)


def _multipliers(pp, p_gp, q_gq, p_gq):
    """Closed-form Lagrange multipliers (lambda_0, lambda_1) that keep X tangent."""
    return (q_gq - p_gp) / pp, -p_gq / pp


# right-hand sides for patch_field_body: the template's slope and multiplier
# statements with an ``energy_slope`` and a ``multipliers`` called back in,
# and the slope as a central difference of an ``energy`` at the relative step
# 1e-5 of |q|^2, which balances O(h^2) truncation against cancellation
SLOPE_CALL = "energy_slope(pp, qq, pq, k)"
MULTIPLIER_CALL = "multipliers(pp, 0.0, slope * qq, slope * pq)"
ENERGY_SLOPE = "(energy(pp, qq + 1e-5 * qq, pq, k) - energy(pp, qq - 1e-5 * qq, pq, k)) / (1e-5 * qq)"


@functools.cache
def _field_kernel(d: int):
    """kernel(k, *p, *q) -> (*u, *w): the statements of dynamics._field_body as one function.

    It runs in the dynamics module's globals, as the RK4 kernel does, and
    reads dynamics._FIELD_BODY when it is compiled.
    """
    p, q, u, w = ([f"{c}_{i}" for i in range(d)] for c in "pquw")
    head, tail = f"def kernel(k, {', '.join(p + q)}):\n", f"\n    return {', '.join(u + w)}\n"
    source = head + dynamics._field_body(p, q, u, w) + tail
    namespace = {}
    exec(compile(source, f"<field kernel, d = {d}>", "exec"), vars(dynamics), namespace)
    return namespace["kernel"]


def patch_field_body(monkeypatch, statements: dict[str, str], **names) -> None:
    """Make the RK4 kernel and the field kernel compile from dynamics._FIELD_BODY with statements replaced.

    Each key of ``statements`` is the target of one assignment of the
    template, such as "slope" or "lam0, lam1", and its value the right-hand
    side that replaces that assignment's. ``names`` are set in the dynamics
    module, where both kernels run, for the new statements to call. Each
    kernel is fetched through a fresh cache, so the patched template compiles
    on first use, and the kernels compiled before come back when monkeypatch
    undoes.
    """
    body = dynamics._FIELD_BODY
    for target, value in statements.items():
        lines = [line for line in body.splitlines() if line.startswith(f"    {target} = ")]
        assert len(lines) == 1, (target, lines)
        body = body.replace(lines[0], f"    {target} = {value}")
    monkeypatch.setattr(dynamics, "_FIELD_BODY", body)
    for name, value in names.items():
        monkeypatch.setattr(dynamics, name, value, raising=False)
    monkeypatch.setattr(dynamics, "_rk4_kernel", functools.cache(dynamics._rk4_kernel.__wrapped__))
    monkeypatch.setitem(globals(), "_field_kernel", functools.cache(_field_kernel.__wrapped__))


def solve_field(k_ham: float, p, q) -> list[float]:
    """The ambient (u, w) field of H = k_ham |q| at (p, q), as 2d floats, by the RK4 kernel's inlined solve.

    With g the ambient gradient of the retracted energy and G the constraint
    rows (p, 0) and (q, p), X = J(g + G^T lambda) with G X = 0; see the
    dynamics module. It needs no (p, q) on the constraint set: the RK4
    kernel runs the same statements at each stage's ambient point.
    """
    return list(_field_kernel(len(p))(k_ham, *p, *q))


def reference_field(k_ham: float, p: list[float], q: list[float]) -> list[float]:
    """The ambient (u, w) field of H = k_ham |q| at (p, q), solved with list loops; see ``solve_field``."""
    if hypot(*q) <= 1e-8:
        raise dynamics.ZeroSectionError("Hamiltonian field undefined within 1e-8 of the zero section")
    pp = hypot(*p) ** 2
    qq = hypot(*q) ** 2
    if not pp > 1e-20 * (pp + qq):
        raise RuntimeError(
            f"numerical rank failure: |p|^2 = {pp:.3e} is at or below 1e-20 |(p, q)|^2, "
            "a degenerate restricted symplectic form"
        )
    pq = _dot(p, q)
    slope = _energy_slope(pp, qq, pq, k_ham)
    lam0, lam1 = _multipliers(pp, 0.0, slope * qq, slope * pq)
    u = [slope * b + lam1 * a for a, b in zip(p, q)]
    w = [-(lam0 * a + lam1 * b) for a, b in zip(p, q)]
    terms = abs(_dot(p, u)), abs(_dot(q, u) + _dot(p, w))
    if not all(term <= 1e-8 for term in terms):
        raise RuntimeError(f"vector field solve residual {np.max(terms):.3e} exceeds 1e-8")
    return u + w


def _retract(x: list[float], k: float, d: int) -> tuple[list[float], list[float]]:
    """Scalar retract of an ambient 2d-float state: |p| = k, then q loses its p-component."""
    p, q = x[:d], x[d:]
    norm = hypot(*p)
    if norm <= 1e-12:
        raise ValueError("cannot retract: base point collapsed to the origin")
    scale = k / norm
    p = [scale * a for a in p]
    c = _dot(p, q) / (k * k)
    return p, [b - c * a for a, b in zip(p, q)]


def reference_rk4(m: CotangentPoint, t_final: float, dt: float) -> dynamics.FlowResult:
    """RK4 for H_k = k|q|, k the base radius of m, as the standard projection method, as a loop over lists.

    See dynamics.rk4_integrate.

    The start point and each step's endpoint are retracted with ``_retract``,
    one retraction a step, and the field is ``reference_field`` at the four
    ambient stage points.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not isfinite(t_final):
        raise ValueError("t_final must be finite")
    dynamics.require_steps(t_final, dt)
    k = m.base_radius
    d = m.p.size

    def field(x):
        return reference_field(k, x[:d], x[d:])

    p, q = _retract(m.p.tolist() + m.q.tolist(), k, d)
    x = p + q
    steps = 0
    t = 0.0
    while t < t_final - 1e-12:
        step = min(dt, t_final - t)
        half = 0.5 * step
        k1 = field(x)
        k2 = field([a + half * b for a, b in zip(x, k1)])
        k3 = field([a + half * b for a, b in zip(x, k2)])
        k4 = field([a + step * b for a, b in zip(x, k3)])
        sixth = step / 6.0
        x = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ]
        p, q = _retract(x, k, d)
        x = p + q
        t += step
        steps += 1
    return dynamics.FlowResult(endpoint=CotangentPoint(p=np.array(p), q=np.array(q), base_radius=k), steps=steps)
