"""Hamiltonian circle action on cosphere bundles.

The Hamiltonian is H_k(p, q) = k |q| on the bundle over the radius-k sphere
(base block first, fiber block second). Its vector field X solves
omega_std(X, v) = dH(v) for every v tangent to the constraint set
|p|^2 = k^2, p.q = 0. In Lagrange (Dirac) form that is X = J(g + G^T lambda)
with G X = 0, where g is the ambient gradient of H, G holds the constraint
gradient rows (p, 0) and (q, p), and J(a, b) = (b, -a). Because
G J G^T = [[0, |p|^2], [-|p|^2, 0]] exactly, the multipliers lambda are
closed form: no frame and no linear solve. The identity holds at every
ambient (p, q) with p != 0, so the solved field has G X = 0 off the
constraint set too, and RK4 is the standard projection method (Hairer,
Lubich & Wanner, Geometric Numerical Integration, sec. IV.4): its stages
are solved at ambient points and only each step's endpoint is retracted
onto the constraint set. g is the gradient of the energy of retracted
ambient states, k sqrt(|q|^2 - (p.q)^2 / |p|^2), which depends on a state
only through its Gram entries |p|^2, |q|^2 and p.q; by the chain rule its
slopes in |p|^2 and p.q give gradient terms along the constraint rows (p, 0)
and (q, p), which the multipliers cancel exactly. Only the slope in |q|^2
reaches X, so g = (0, 2 (dE/d|q|^2) q), and that slope is exact:
2 dE/d|q|^2 = k / sqrt(|q|^2 - (p.q)^2 / |p|^2), what forward-mode
differentiation of E gives (Griewank & Walther, Evaluating Derivatives,
2nd ed., ch. 3). Its radicand is the squared retracted fiber |q_perp|^2,
q_perp = q - (p.q / |p|^2) p, and H is not differentiable where it is 0.
A radicand at or below 1e-12 |q|^2 is refused as the zero section: its
subtraction leaves an error of a few ulps of |q|^2, over 1e-4 of it there.
Vectors of d = n + 1 <= 4 entries are too short for numpy's per-call cost,
so the RK4 trajectory runs on 2d Python floats and builds one CotangentPoint
at the end. At that size a loop over lists costs more than its arithmetic
too, so the whole trajectory is one function per d, generated and compiled
on first use over the 2d floats as named scalars. It holds the step loop,
with its retractions, and inlines the field solve, from one template of the
solve's statements, at each of the four stages. The template writes out
the energy's slope and the multipliers as arithmetic and takes
the |G X| guard's absolute values by comparisons, so a stage calls nothing
but hypot and sqrt, and a step packs no tuple. It computes the trajectory
alone, its endpoint and its step count: a check that compares energies
reads them from the endpoints it holds. The loop's min() is a comparison
that picks as min() picks. The kernel takes Python floats only: one numpy
scalar among the inputs, such as the base radius sqrt(r) that even_rescale
returns, would make every operation of the loop a numpy-scalar operation,
at twice the cost of a float one or more, with the same rounding. On an "evened"
cosphere (|p| = |q| = k) the flow has the closed form (cos t p + sin t q,
cos t q - sin t p), which equals the scalar action e^{-it} on z = p + iq;
on an uneven cosphere over the unit sphere (|q| = r != 1) the trajectory
instead reads (cos t p + sin t q / r, cos t q - r sin t p) and the two
actions diverge, which is what the evening rescale repairs.
"""

from __future__ import annotations

import functools
import textwrap
from dataclasses import dataclass
from math import hypot, isfinite, sqrt

import numpy as np

from .cotangent import CotangentPoint, OffBundleError
from .numerics import row_norms

__all__ = [
    "FlowResult",
    "ZeroSectionError",
    "StepLimitError",
    "MAX_STEPS",
    "require_steps",
    "flow_closed_form",
    "flow_uneven_cosphere",
    "scalar_action",
    "rk4_integrate",
]


class ZeroSectionError(ValueError):
    """H(p, q) = k|q| is not differentiable on the zero section."""


MAX_STEPS = 10**6  # the checks' default trajectories take at most 6,283


class StepLimitError(ValueError):
    """A trajectory of more than MAX_STEPS RK4 steps, refused before its first step.

    A step below about ulp(t) no longer advances t, so without a bound such
    a trajectory would never end.
    """


def require_steps(t_final: float, dt: float) -> None:
    """Raise StepLimitError if RK4 steps of dt up to t_final would number more than MAX_STEPS."""
    if t_final / dt > MAX_STEPS:
        raise StepLimitError(
            f"a trajectory to t = {t_final:.6g} in steps of {dt:.3g} needs {t_final / dt:.3g} RK4 steps, "
            f"more than the limit of {MAX_STEPS:,}"
        )


@dataclass(frozen=True)
class FlowResult:
    """Integrator output: the retracted endpoint of the trajectory and the number of RK4 steps taken."""

    endpoint: CotangentPoint
    steps: int


_FIELD_BODY = """\
    norm_q = hypot({q})
    if norm_q <= 1e-8:
        raise ZeroSectionError("Hamiltonian field undefined within 1e-8 of the zero section")
    norm_p = hypot({p})
    # a power, not norm_p * norm_p: libm's pow(x, 2) and x * x round apart
    # on nearly one float in a thousand, so a product moves the trajectories
    pp = norm_p ** 2
    qq = norm_q ** 2
    if not pp > 1e-20 * (pp + qq):
        raise RuntimeError(
            f"numerical rank failure: |p|^2 = {{pp:.3e}} is at or below 1e-20 |(p, q)|^2, "
            "a degenerate restricted symplectic form"
        )
{pq}
    perp = qq - pq * pq / pp
    if not perp > 1e-12 * qq:
        raise ZeroSectionError("Hamiltonian field undefined: the retracted fiber is within 1e-6 |q| of zero")
    slope = k / sqrt(perp)
    lam0, lam1 = slope * qq / pp, -(slope * pq) / pp
{uw}
{pu}
{qu}
{pw}
    residual = pu if pu > 0.0 else 0.0 - pu
    tangent = qu + pw
    if not tangent > 0.0:
        tangent = 0.0 - tangent
    if not (residual <= 1e-8 and tangent <= 1e-8):
        raise RuntimeError(f"vector field solve residual {{np.max((residual, tangent)):.3e}} exceeds 1e-8")"""


def _dot_source(name: str, a: list[str], b: list[str]) -> str:
    """Statements that leave sum(a_i * b_i) in ``name``, added left to right from 0.0 as sum() adds.

    At most 100 products a statement: one expression of thousands nests too
    deep for the compiler.
    """
    products = [f"{x} * {y}" for x, y in zip(a, b)]
    return "\n".join(
        f"    {name} = {'0.0' if start == 0 else name} + {' + '.join(products[start : start + 100])}"
        for start in range(0, len(products), 100)
    )


def _field_body(p: list[str], q: list[str], u: list[str], w: list[str]) -> str:
    """The field solve at the floats named ``p`` and ``q``, as statements that leave the field in ``u`` and ``w``.

    The statements read k and the module's globals and sit at an indent
    of 4. :func:`_rk4_kernel` inlines them at each of its four stages.
    """
    return _FIELD_BODY.format(
        p=", ".join(p),
        q=", ".join(q),
        pq=_dot_source("pq", p, q),
        uw="\n".join(
            [f"    {u[i]} = slope * {q[i]} + lam1 * {p[i]}" for i in range(len(p))]
            + [f"    {w[i]} = -(lam0 * {p[i]} + lam1 * {q[i]})" for i in range(len(p))]
        ),
        pu=_dot_source("pu", p, u),
        qu=_dot_source("qu", q, u),
        pw=_dot_source("pw", p, w),
    )


_RK4_KERNEL = """\
def kernel(k, t_final, dt, {x}):
{retract}
    steps = 0
    t = 0.0
    while t < t_final - 1e-12:
        step = dt
        if t_final - t < step:
            step = t_final - t
        half = 0.5 * step
{stage1}
{point2}
{stage2}
{point3}
{stage3}
{point4}
{stage4}
        sixth = step / 6.0
{advance}
{step_retract}
        t += step
        steps += 1
    return ({x}), steps
"""

# the state (p, q) retracted in place: |p| = k, then q loses its p-component
_RETRACT = """\
    norm = hypot({p})
    if norm <= 1e-12:
        raise ValueError("cannot retract: base point collapsed to the origin")
    scale = k / norm
{scale}
{pq}
    c = pq / (k * k)
{shift}"""


@functools.cache
def _rk4_kernel(d: int):
    """The RK4 trajectory at d = n + 1, compiled on first use.

    kernel(k, t_final, dt, *p, *q) returns ((*p, *q), steps). It
    retracts the start point onto |p| = k, p.q = 0, then runs the steps of
    :func:`rk4_integrate`: the field solve of :func:`_field_body` inlined at
    the four ambient stage points, the RK4 combination, and the retraction
    of the endpoint in place. No function is called for a field and no stage
    is packed into a tuple. One function per d over 2d named floats, with no
    list: the same operations in the same order as the loop over lists it
    replaces, so the same floats bit for bit. The norms are hypot's, each
    dot product is added left to right from 0.0, as sum() adds floats, and
    the energy's slope and the multipliers are the arithmetic of the loop's
    helpers written out. Each |G X| term is x if x > 0.0 else 0.0 - x,
    which is abs(x) for every float, -0.0 included, and NaN for NaN; each
    term is compared with 1e-8 on its own, so a NaN in either trips the
    guard, and only the message takes their larger, a NaN first, as np.max
    takes it; and the loop's min(dt, t_final - t) is a comparison that picks
    as min() picks. The
    kernel runs in this module's globals, which give it hypot, sqrt and the
    error classes, and reads _FIELD_BODY when it is compiled. Every
    argument is a Python float, as :func:`rk4_integrate` passes them.
    """
    p, q = ([f"{c}_{i}" for i in range(d)] for c in "pq")
    x, y = p + q, [f"y_{i}" for i in range(2 * d)]
    k1, k2, k3, k4 = ([f"k{j}_{i}" for i in range(2 * d)] for j in range(1, 5))
    retract = _RETRACT.format(
        p=", ".join(p),
        scale="\n".join(f"    {a} = scale * {a}" for a in p),
        pq=_dot_source("pq", p, q),
        shift="\n".join(f"    {b} = {b} - c * {a}" for a, b in zip(p, q)),
    )

    def point(factor, ks):
        # the ambient stage point x + factor * ks, in the names y
        return "\n".join(f"        {a} = {b} + {factor} * {c}" for a, b, c in zip(y, x, ks))

    def stage(at, out):
        return textwrap.indent(_field_body(at[:d], at[d:], out[:d], out[d:]), "    ")

    source = _RK4_KERNEL.format(
        x=", ".join(x),
        retract=retract,
        stage1=stage(x, k1),
        point2=point("half", k1),
        stage2=stage(y, k2),
        point3=point("half", k2),
        stage3=stage(y, k3),
        point4=point("step", k3),
        stage4=stage(y, k4),
        advance="\n".join(
            f"        {a} = {a} + sixth * ({b1} + 2.0 * {b2} + 2.0 * {b3} + {b4})"
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ),
        step_retract=textwrap.indent(retract, "    "),
    )
    namespace = {}
    exec(compile(source, f"<RK4 kernel, d = {d}>", "exec"), globals(), namespace)
    return namespace["kernel"]


def flow_closed_form(m: CotangentPoint, t) -> CotangentPoint:
    """Closed-form cogeodesic flow on an evened cosphere.

    sigma_t(p, q) = (cos t p + sin t q, cos t q - sin t p); exact (and equal
    to the scalar action) only under the evened condition |p| = |q|, so
    uneven input is rejected with a pointer to even_rescale. A 1-D array of
    T times gives p and q of shape (T, n+1), one row per time; a point
    holding (N, n+1) arrays takes one time or N times, one per row, and
    every row must be evened and on the bundle (OffBundleError otherwise).
    """
    fiber = m.validate(1e-10)
    uneven = np.abs(fiber - m.base_radius) > 1e-9 * max(1.0, m.base_radius)
    if uneven.any():
        raise OffBundleError(
            f"closed-form flow needs |q| = |p| (got |q| = {np.extract(uneven, fiber)[0]:.6g}, "
            f"|p| = {m.base_radius:.6g}); apply even_rescale first"
        )
    c, s = _cos_sin(t)
    return CotangentPoint(p=c * m.p + s * m.q, q=c * m.q - s * m.p, base_radius=m.base_radius)


def flow_uneven_cosphere(m: CotangentPoint, t) -> CotangentPoint:
    """Hamiltonian trajectory of H(p, q) = |q| on the radius-r cosphere over S^n(1).

    For |q| = r the orbit is (cos t p + sin t q / r, cos t q - r sin t p);
    it reduces to the evened closed form at r = 1 and is validated against
    the RK4 route in the test suite. A point holding (N, n+1) arrays takes
    one time or N times and flows each row with its own r.
    """
    if abs(m.base_radius - 1.0) > 1e-12:
        raise OffBundleError("uneven cosphere flow is stated over the unit base sphere")
    r = row_norms(m.q)
    if (r <= 1e-12).any():
        raise ZeroSectionError("flow undefined on the zero section")
    r = r[..., None]
    c, s = _cos_sin(t)
    return CotangentPoint(p=c * m.p + (s / r) * m.q, q=c * m.q - r * s * m.p, base_radius=1.0)


def _cos_sin(t) -> tuple:
    """cos t and sin t, with a trailing axis on an array of times so each scales one row."""
    c, s = np.cos(t), np.sin(t)
    if np.ndim(t):
        c, s = c[:, None], s[:, None]
    return c, s


def scalar_action(m: CotangentPoint, t: float) -> CotangentPoint:
    """Scalar circle action e^{-it} on z = p + iq, split back into (p, q).

    Defined for every (p, q); the result satisfies the cotangent constraints
    iff the input is evened, which is exactly the point of the comparison
    checks. A 1-D array of T times gives p and q of shape (T, n+1).
    """
    if np.ndim(t):
        t = np.asarray(t)[:, None]
    z = (m.p + 1j * m.q) * np.exp(-1j * t)
    return CotangentPoint(p=z.real.copy(), q=z.imag.copy(), base_radius=m.base_radius)


def rk4_integrate(m: CotangentPoint, t_final: float, dt: float) -> FlowResult:
    """Classical RK4 for the field of H_k = k|q|, k the base radius of ``m``, as the standard projection method.

    The start point is retracted onto the constraint set once. Each step
    solves the field at the ambient stage points x + dt/2 k1, x + dt/2 k2
    and x + dt k3 as they are, which the closed-form multipliers allow: G X = 0
    holds at every (p, q) with p != 0, on the constraint set or off it. Only
    the step's endpoint is retracted, and it starts the next step (Hairer,
    Lubich & Wanner, Geometric Numerical Integration, sec. IV.4). That keeps
    the endpoint on the constraint set to rounding level over full periods
    with one retraction a step. Only the trajectory is computed: a caller
    that compares energies reads them from the endpoints it holds. A step
    that is not positive, or a final time that is not finite, raises
    ValueError; a trajectory of more than MAX_STEPS steps raises
    StepLimitError before the first step, and before the kernel is fetched.
    The trajectory is :func:`_rk4_kernel`'s, one function with the field
    solve inlined at each stage. It is passed Python floats only, each
    scalar through float() and p and q through tolist(): one numpy scalar
    among them, such as the numpy.float64 base radius of an evened point,
    makes every operation of the loop a numpy-scalar one, with the same
    rounding at about twice the cost a step.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not isfinite(t_final):
        raise ValueError("t_final must be finite")
    require_steps(t_final, dt)
    k = m.base_radius
    d = m.p.size
    x, steps = _rk4_kernel(d)(float(k), float(t_final), float(dt), *m.p.tolist(), *m.q.tolist())
    return FlowResult(endpoint=CotangentPoint(p=np.array(x[:d]), q=np.array(x[d:]), base_radius=k), steps=steps)
