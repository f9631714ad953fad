"""Hamiltonian vector field, closed-form flows, scalar action, RK4."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
import fd_oracle
from fd_oracle import (
    ENERGY_SLOPE,
    MULTIPLIER_CALL,
    SLOPE_CALL,
    bundle_residuals,
    constraint_frame,
    patch_field_body,
    reference_field,
    reference_rk4,
    retract,
    solve_field,
)

from quadcover import dynamics
from quadcover.checks import render_json, run_check
from quadcover.cotangent import (
    CotangentPoint,
    OffBundleError,
    antipode,
    even_rescale,
    sample_cosphere,
    sample_tangent,
)
from quadcover.dynamics import (
    MAX_STEPS,
    FlowResult,
    StepLimitError,
    ZeroSectionError,
    flow_closed_form,
    flow_uneven_cosphere,
    require_steps,
    rk4_integrate,
    scalar_action,
)
from quadcover.numerics import derive_stream


def _dist(a: CotangentPoint, b: CotangentPoint) -> float:
    return max(float(np.max(np.abs(a.p - b.p))), float(np.max(np.abs(a.q - b.q))))


def _field(k_ham: float, m: CotangentPoint) -> np.ndarray:
    """The solved field at m as an ambient (u, w) array."""
    return np.array(solve_field(k_ham, m.p.tolist(), m.q.tolist()))


def test_vector_field_matches_flow_derivative_at_standard_point():
    m = CotangentPoint(p=np.array([1.0, 0, 0]), q=np.array([0.0, 1.0, 0.0]))
    x = _field(1.0, m)
    assert np.max(np.abs(x[:3] - m.q)) < 1e-15
    assert np.max(np.abs(x[3:] + m.p)) < 1e-15


def test_vector_field_satisfies_defining_equation():
    # omega_std(X, b) = dH(b) with the analytic dH(u, w) = k <q, w> / |q|
    rng = derive_stream(61, "hvf")
    for k in (1.0, np.sqrt(0.5)):
        m = sample_cosphere(2, k, k, rng)
        x = _field(k, m)
        qn = np.linalg.norm(m.q)
        for b in constraint_frame(m.p, m.q):
            lhs = float(x[:3] @ b[3:] - x[3:] @ b[:3])
            rhs = k * float(m.q @ b[3:]) / qn
            assert abs(lhs - rhs) < 1e-14
        # dH(X) = 0: the energy is conserved to first order
        assert abs(k * float(m.q @ x[3:]) / qn) < 1e-8


def test_vector_field_rejects_zero_section():
    m = CotangentPoint(p=np.array([1.0, 0.0]), q=np.zeros(2))
    with pytest.raises(ZeroSectionError):
        _field(1.0, m)
    # the zero-section guard comes before the rank guard
    with pytest.raises(ZeroSectionError):
        solve_field(1.0, [0.0, 0.0], [0.0, 0.0])


def test_collapsed_base_point_is_a_rank_failure():
    # p = 0 with q != 0: the constraint rows (p, 0) and (q, p) have rank 1
    m = CotangentPoint(p=np.zeros(3), q=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(RuntimeError, match="rank failure"):
        constraint_frame(m.p, m.q)
    with pytest.raises(RuntimeError, match="rank failure"):
        _field(1.0, m)
    # the sampler's guard, alone and in a batch with one healthy row
    with pytest.raises(RuntimeError, match="rank failure"):
        sample_tangent(m, derive_stream(63, "rank"))
    batch = CotangentPoint(p=np.stack([np.array([1.0, 0.0, 0.0]), m.p]), q=np.stack([m.q, m.q]))
    with pytest.raises(RuntimeError, match="rank failure"):
        sample_tangent(batch, derive_stream(63, "rank"))


def test_inexact_field_solve_trips_the_residual_guard(monkeypatch):
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(64, "guard"))

    def off_by_a_little(*args):
        lam0, lam1 = fd_oracle._multipliers(*args)
        return lam0, lam1 + 1e-6

    patch_field_body(monkeypatch, {"lam0, lam1": MULTIPLIER_CALL}, multipliers=off_by_a_little)
    with pytest.raises(RuntimeError, match="solve residual .* exceeds 1e-8"):
        _field(1.0, m)


def test_singular_field_solve_is_a_runtime_error():
    # G J G^T = [[0, |p|^2], [-|p|^2, 0]] is singular once |p|^2 falls to its
    # floor, 1e-20 |(p, q)|^2, at every scale of the point
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(64, "guard"))
    for scale in (1e-3, 1.0, 1e3):
        with pytest.raises(RuntimeError, match="degenerate restricted symplectic form"):
            solve_field(1.0, 1e-11 * scale * m.p, scale * m.q)
        just_above = solve_field(1.0, 1e-9 * scale * m.p, scale * m.q)
        assert np.all(np.isfinite(just_above))


def test_field_is_tangent_off_the_constraint_set():
    # G J G^T = [[0, |p|^2], [-|p|^2, 0]] at every ambient (p, q) with p != 0,
    # so the solved field has G X = 0 there too: the premise of solving RK4's
    # stages unretracted
    rng = derive_stream(79, "ambient")
    for n in range(1, 7):
        for k in (1.0, np.sqrt(0.5), 3.0):
            for scale in (1e-3, 1.0, 1e3):
                for _ in range(5):
                    p, q = scale * rng.standard_normal((2, n + 1))
                    assert abs(np.linalg.norm(p) - k) > 1e-6 and abs(p @ q) > 1e-6 * scale * scale
                    x = np.array(solve_field(k, p.tolist(), q.tolist()))
                    u, w = x[: n + 1], x[n + 1 :]
                    size = np.linalg.norm(np.concatenate([p, q])) * np.linalg.norm(x)
                    assert abs(p @ u) <= 1e-12 * size, (n, k, scale)
                    assert abs(q @ u + p @ w) <= 1e-12 * size, (n, k, scale)


def _outcome(solve, *args):
    """The floats a solve returns, as hex so that signed zeros count, or the error it raises."""
    try:
        return [float(x).hex() for x in solve(*args)]
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_field_kernel_returns_the_reference_loop_floats_bit_for_bit():
    # the unrolled kernel keeps the list loop's operation order, at ambient
    # points off the constraint set too; at d = 5,000 each of its sums spans
    # 50 statements, and it still compiles
    rng = derive_stream(81, "kernel")
    for d in (*range(1, 9), 5000):
        for k_ham in (1.0, math.sqrt(0.5), 3.0):
            for scale in (1e-3, 1.0, 1e3):
                p, q = (scale * rng.standard_normal((2, d))).tolist()
                got = _outcome(solve_field, k_ham, p, q)
                assert got == _outcome(reference_field, k_ham, p, q), (d, k_ham, scale)
                # at d = 1 every q is parallel to p: both refuse it as the zero section
                assert isinstance(got, list) if d > 1 else got[0] is ZeroSectionError, got


def test_field_kernel_keeps_the_sign_of_an_exact_zero_sum():
    # each product of p.q is -0.0: added from 0.0, as sum() adds, p.q is +0.0
    # and u_0 = -0.0; added from the first product it would be -0.0 and u_0 +0.0
    p, q = [1.0, -0.0], [-0.0, 2.0]
    got = _outcome(solve_field, 1.0, p, q)
    assert got == _outcome(reference_field, 1.0, p, q)
    assert got[0] == "-0x0.0p+0"


def test_field_kernel_guards_raise_as_the_reference_loop_does(monkeypatch):
    cases = (([1.0, 0.0], [0.0, 1e-9]), ([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]), ([1e-11, 0.0], [0.0, 1.0]))
    for p, q in cases:
        assert _outcome(solve_field, 1.0, p, q) == _outcome(reference_field, 1.0, p, q)
    # near overflow the |G X| terms are huge, or NaN once the multiplier
    # k |q| / |p|^2 overflows: each term is compared on its own, so a NaN
    # trips the guard as a huge term does
    near = ((1.0, [1e150, 0.0], [0.0, 1.3407e154]), (1e300, [1.0, 0.0], [0.0, 1e9]))
    outcomes = [_outcome(solve_field, *args) for args in near]
    assert outcomes == [_outcome(reference_field, *args) for args in near]
    assert outcomes[0] == (RuntimeError, "vector field solve residual 2.977e+138 exceeds 1e-8")
    assert outcomes[1] == (RuntimeError, "vector field solve residual nan exceeds 1e-8")
    # wrong multipliers in both: compiled into the kernel's template, called by the loop
    patch_field_body(monkeypatch, {"lam0, lam1": "0.0, 1e-6"})
    monkeypatch.setattr(fd_oracle, "_multipliers", lambda *args: (0.0, 1e-6))
    p, q = [1.0, 0.0, 0.0], [0.0, 0.5, 0.0]
    got = _outcome(solve_field, 1.0, p, q)
    assert got == _outcome(reference_field, 1.0, p, q)
    assert got[0] is RuntimeError and "solve residual" in got[1]


def test_field_refuses_a_vanishing_retracted_fiber_as_the_zero_section():
    # at p = (1, 0) the retracted fiber is (0, q_1) and the field u = (0, 1)
    # however small q_1 is, to the rounding of |q_perp|^2 = |q|^2 - (p.q)^2 /
    # |p|^2; a radicand at or below 1e-12 |q|^2 is the zero section in both
    # solvers
    p = [1.0, 0.0]
    for q_1 in (2e-3, 1e-3, 0.0):
        q = [0.5, q_1]
        got = _outcome(solve_field, 1.0, p, q)
        assert got == _outcome(reference_field, 1.0, p, q), q_1
        if q_1:
            assert abs(float.fromhex(got[1]) - 1.0) < 1e-10, (q_1, got)
        else:
            assert got[0] is ZeroSectionError and "retracted fiber" in got[1]


def test_importing_the_package_and_building_the_registry_compiles_no_kernel():
    code = (
        "import quadcover; quadcover.build_registry(); "
        "from quadcover import dynamics; "
        "print(dynamics._rk4_kernel.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"]


def _plain_field(k_ham, p, q):
    """The field solved on an SVD frame: Omega on the frame, then np.linalg.solve.

    The energy k|q_perp| of the retracted state, q_perp = q - (p.q / |p|^2) p,
    has the ambient gradient (-(p.q / |p|^2) g_q, g_q) with g_q = k q_perp / |q_perp|,
    since q_perp is orthogonal to p; the frame takes its components.
    """
    d = p.size
    rows = np.zeros((2, 2 * d))
    rows[0, :d] = p
    rows[1, :d] = q
    rows[1, d:] = p
    mat = np.linalg.svd(rows)[2][2:]
    omega = mat[:, :d] @ mat[:, d:].T - mat[:, d:] @ mat[:, :d].T
    c = (p @ q) / (p @ p)
    perp = q - c * p
    g_q = k_ham * perp / np.linalg.norm(perp)
    return np.linalg.solve(omega.T, mat @ np.concatenate([-c * g_q, g_q])) @ mat


def _numpy_field(k_ham, p, q):
    """The field solve on numpy arrays: the exact |q|^2 slope of the energy, closed-form multipliers."""
    pp, qq, pq = p @ p, q @ q, p @ q
    slope = k_ham / np.sqrt(qq - pq * pq / pp)
    lam0, lam1 = slope * qq / pp, -slope * pq / pp
    return np.concatenate((slope * q + lam1 * p, -(lam0 * p + lam1 * q)))


def _axis_offset_field(k_ham, p, q, h):
    """The field solve differenced along all 4d ambient axes, each offset read from its Gram entries.

    A p-axis offset +-h e_i has |p|^2 +- 2h p_i + h^2 and p.q +- h q_i, a
    q-axis offset |q|^2 +- 2h q_i + h^2 and p.q +- h p_i; 4d energy
    evaluations where the |q|^2 slope needs two.
    """
    pp, qq, pq = p @ p, q @ q, p @ q
    energy = fd_oracle._restricted_energy
    two_h = 2.0 * h
    pp_h, qq_h = pp + h * h, qq + h * h
    g_p = np.array([
        energy(pp_h + two_h * a, qq, pq + h * b, k_ham) - energy(pp_h - two_h * a, qq, pq - h * b, k_ham)
        for a, b in zip(p, q)
    ]) / two_h
    g_q = np.array([
        energy(pp, qq_h + two_h * b, pq + h * a, k_ham) - energy(pp, qq_h - two_h * b, pq - h * a, k_ham)
        for a, b in zip(p, q)
    ]) / two_h
    lam0, lam1 = fd_oracle._multipliers(pp, p @ g_p, q @ g_q, p @ g_q)
    return np.concatenate((g_q + lam1 * p, -(g_p + lam0 * p + lam1 * q)))


def _numpy_rk4(m, t_final, dt):
    """The standard projection method with an ndarray state: the oracle for the float loop.

    Stages are solved at ambient points; the start point and each step's
    endpoint are retracted onto the constraint set.
    """
    k = m.base_radius
    d = m.p.size

    def field(x):
        return _numpy_field(k, x[:d], x[d:])

    point = retract(m.p, m.q, k)
    x = np.concatenate([point.p, point.q])
    steps = 0
    t = 0.0
    while t < t_final - 1e-12:
        step = min(dt, t_final - t)
        k1 = field(x)
        k2 = field(x + 0.5 * step * k1)
        k3 = field(x + 0.5 * step * k2)
        k4 = field(x + step * k3)
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        point = retract(x[:d], x[d:], k)
        x = np.concatenate([point.p, point.q])
        t += step
        steps += 1
    return FlowResult(point, steps)


def test_float_loop_matches_the_numpy_oracle():
    # same scheme, same steps; only the rounding of float lists against arrays differs
    rng = derive_stream(76, "oracle")
    for n in range(1, 5):
        for k in (1.0, np.sqrt(0.5), 3.0):
            for fiber in (k, 0.4 * k):
                m = sample_cosphere(n, k, fiber, rng)
                fast = rk4_integrate(m, 0.5, 0.01)
                slow = _numpy_rk4(m, 0.5, 0.01)
                assert fast.steps == slow.steps == 50
                assert _dist(fast.endpoint, slow.endpoint) < 1e-14


def test_field_solve_matches_the_plain_frame_solve():
    # the closed-form multipliers against the frame solve, to rounding
    rng = derive_stream(65, "plain")
    for n in range(1, 7):
        for k in (1.0, np.sqrt(0.5), 3.0):
            for m in (sample_cosphere(n, k, k, rng), sample_cosphere(n, k, 0.3, rng)):
                for k_ham in (1.0, k):
                    lean = solve_field(k_ham, m.p, m.q)
                    assert np.max(np.abs(lean - _plain_field(k_ham, m.p, m.q))) < 1e-14


def test_q_slope_solve_matches_the_axis_offset_solve():
    # the exact |q|^2 slope against central differences along every ambient
    # axis, at every scale; the axis step scales with the point, and the bound
    # is the floor of those differences
    rng = derive_stream(77, "slope")
    for n in range(1, 7):
        for k in (1.0, np.sqrt(0.5), 3.0):
            for fiber in (k, 0.3 * k):
                m = sample_cosphere(n, k, fiber, rng)
                for scale in (1e-3, 1.0, 1e3):
                    p, q = scale * m.p, scale * m.q
                    lean = np.array(solve_field(k, p.tolist(), q.tolist()))
                    wide = _axis_offset_field(k, p, q, 1e-5 * scale)
                    assert np.max(np.abs(lean - wide)) < 1e-9, (n, k, fiber, scale)


def test_field_sees_the_energy_only_through_its_q_slope(monkeypatch):
    # c|p|^2 and c p.q add constraint-row terms to the gradient, which the
    # multipliers cancel; c|q|^2 adds 2c q, which turns the field. The
    # axis-offset solve sees every slope, so it checks the cancellation itself
    m = sample_cosphere(3, 1.0, 0.7, derive_stream(78, "gram"))
    p, q = m.p.tolist(), m.q.tolist()
    energy = fd_oracle._restricted_energy
    patch_field_body(monkeypatch, {"slope": ENERGY_SLOPE}, energy=energy)
    base = np.array(solve_field(1.0, p, q))
    wide_base = _axis_offset_field(1.0, m.p, m.q, 1e-5)
    c = 0.25
    for extra, moves in (
        (lambda pp, qq, pq: c * pp, False),
        (lambda pp, qq, pq: c * pq, False),
        (lambda pp, qq, pq: c * qq, True),
    ):
        def shifted(pp, qq, pq, k_ham, extra=extra):
            return energy(pp, qq, pq, k_ham) + extra(pp, qq, pq)

        # the kernel calls the shifted energy from its slope statement
        patch_field_body(monkeypatch, {"slope": ENERGY_SLOPE}, energy=shifted)
        monkeypatch.setattr(fd_oracle, "_restricted_energy", shifted)
        change = np.max(np.abs(np.array(solve_field(1.0, p, q)) - base))
        wide_change = np.max(np.abs(_axis_offset_field(1.0, m.p, m.q, 1e-5) - wide_base))
        if moves:
            assert change > 0.1 and wide_change > 0.1
        else:
            assert change < 1e-14 and wide_change < 1e-9


def test_rk4_loop_makes_no_svd_and_no_linear_solve(monkeypatch):
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(75, "nosvd"))

    def forbidden(*args, **kwargs):
        raise AssertionError("the RK4 loop must not factor a matrix")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    result = rk4_integrate(m, 0.05, 0.01)
    assert result.steps == 5
    assert _dist(result.endpoint, flow_closed_form(m, 0.05)) < 1e-9


def test_rk4_retracts_the_start_and_each_endpoint_once(monkeypatch):
    # the standard projection method: stages are solved unretracted, so N
    # steps make N + 1 retractions, the start point's and each endpoint's;
    # the kernel returns this loop's floats bit for bit (next test), which
    # ties it to the same scheme
    calls = []
    retract_once = fd_oracle._retract

    def counted(*args):
        calls.append(args)
        return retract_once(*args)

    monkeypatch.setattr(fd_oracle, "_retract", counted)
    m = sample_cosphere(2, 1.0, 0.6, derive_stream(80, "project"))
    for t_final, dt in ((0.5, 0.01), (1.0, 0.3), (1e-13, 0.1)):
        calls.clear()
        result = reference_rk4(m, t_final, dt)
        assert len(calls) == result.steps + 1
    assert result.steps == 0
    assert _dist(result.endpoint, m) < 1e-15


def _trajectory(integrate, *args):
    """A trajectory's endpoint floats as hex so that signed zeros count, and its steps; or the error it raises."""
    try:
        result = integrate(*args)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return [float(x).hex() for x in (*result.endpoint.p, *result.endpoint.q)], result.steps


def test_rk4_kernel_returns_the_reference_loop_floats_bit_for_bit(monkeypatch):
    # the trajectory kernel keeps the list loop's operation order, from
    # off-bundle starts (so the start retraction acts) at every base radius;
    # the pairs (t_final, dt) give whole steps, a partial last step, no step,
    # and a refusal. At d = 150 each dot product spans two statements
    rng = derive_stream(82, "rk4 kernel")
    times = ((0.5, 0.05), (0.3, 0.07), (1e-13, 0.1), (0.0, 0.1), (1.0, 1e-300), (0.2, 0.0))
    for d in (*range(1, 9), 100, 150):
        for k in (1e-3, 0.5, 1.0, 3.0, 1e3):
            p, q = rng.standard_normal((2, d))
            m = CotangentPoint(p=k * p, q=q, base_radius=k)
            # a numpy.float64 base radius, as even_rescale's sqrt gives it
            m64 = CotangentPoint(p=m.p, q=m.q, base_radius=np.float64(k))
            for t_final, dt in times:
                got = _trajectory(rk4_integrate, m, t_final, dt)
                assert got == _trajectory(reference_rk4, m, t_final, dt), (d, k)
                # numpy scalars in: the same bits
                assert got == _trajectory(rk4_integrate, m64, t_final, dt), (d, k)
                assert got == _trajectory(reference_rk4, m64, t_final, dt), (d, k)
                # at d = 1 the retracted q is 0 or parallel to p: both raise once a step runs
                runs = dt > 0 and t_final / dt <= MAX_STEPS and (d > 1 or t_final < 1e-12)
                assert isinstance(got[0], list) == runs, (d, k, got)
    # a collapsed base point, the zero section, and a NaN entry raise as the loop raises
    for p, q in (([0.0, 0.0], [0.0, 1.0]), ([1.0, 0.0], [1.0, 0.0]), ([1.0, float("nan")], [0.0, 1.0])):
        m = CotangentPoint(p=np.array(p), q=np.array(q))
        got = _trajectory(rk4_integrate, m, 0.1, 0.05)
        assert got == _trajectory(reference_rk4, m, 0.1, 0.05)
        assert not isinstance(got[0], list)
    # a tripled slope in both: compiled into the kernel's slope, called by the loop
    slope = fd_oracle._energy_slope

    def tripled(pp, qq, pq, k_ham):
        return 3.0 * slope(pp, qq, pq, k_ham)

    patch_field_body(monkeypatch, {"slope": SLOPE_CALL}, energy_slope=tripled)
    monkeypatch.setattr(fd_oracle, "_energy_slope", tripled)
    m = sample_cosphere(3, 1.0, 0.6, derive_stream(82, "patched"))
    got = _trajectory(rk4_integrate, m, 0.3, 0.07)
    assert got == _trajectory(reference_rk4, m, 0.3, 0.07)
    monkeypatch.undo()
    assert got != _trajectory(rk4_integrate, m, 0.3, 0.07)


def test_the_stages_with_the_oracle_helpers_called_back_in_return_the_inlined_floats(monkeypatch):
    # the template writes out the arithmetic of the oracle's slope and
    # multipliers: a kernel compiled with them called back in, one slope and
    # one multiplier pair a stage, returns the same trajectory bit for bit,
    # and one compiled with inexact multipliers trips the |G X| guard
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(64, "fused"))
    clean = _trajectory(rk4_integrate, m, 0.5, 0.01)
    slope, multipliers = fd_oracle._energy_slope, fd_oracle._multipliers
    calls = {"slope": 0, "multipliers": 0}

    def counted(name, helper):
        def call(*args):
            calls[name] += 1
            return helper(*args)

        return call

    patch_field_body(
        monkeypatch,
        {"slope": SLOPE_CALL, "lam0, lam1": MULTIPLIER_CALL},
        energy_slope=counted("slope", slope),
        multipliers=counted("multipliers", multipliers),
    )
    assert _trajectory(rk4_integrate, m, 0.5, 0.01) == clean
    assert clean[1] == 50 and calls == {"slope": 4 * 50, "multipliers": 4 * 50}

    def off_by_a_little(*args):
        lam0, lam1 = multipliers(*args)
        return lam0, lam1 + 1e-6

    patch_field_body(monkeypatch, {"lam0, lam1": MULTIPLIER_CALL}, multipliers=off_by_a_little)
    with pytest.raises(RuntimeError, match="solve residual .* exceeds 1e-8"):
        rk4_integrate(m, 0.5, 0.01)


# fixed starts at d = 2, 3 and 4, in floats their literals give exactly, and
# each trajectory's steps and endpoint as the kernel returned them. Base
# radii and fiber norms near 1.25, 1.5 and 2.5, where libm's pow(x, 2) and
# x * x round apart more often than elsewhere: (p, q, base radius, t_final,
# dt), steps, endpoint hex
PINNED_TRAJECTORIES = (
    (
        ((0.75, -0.5), (0.25, 1.125), 1.25, 10.0, 0.005),
        2000,
        ["-0x1.3ff94f3fe9713p+0", "0x1.05bd24173ebdfp-6", "-0x1.c214122f410e4p-7", "-0x1.131bdc1aa5b57p+0"],
    ),
    (
        ((1.0, 0.5, -1.0), (0.5, 1.0, 1.0), 1.5, 10.0, 0.005),
        2000,
        [
            "-0x1.1c6fe02033488p+0", "-0x1.ed5753a77fbecp-1", "0x1.2e21b2639b465p-2",
            "0x1.fde458b50bb20p-4", "-0x1.2255d0e155c9bp-1", "-0x1.62125bf7f73afp+0",
        ],
    ),
    (
        ((0.5, -0.25, 0.625, 0.125), (-0.375, 0.5, 0.25, 1.25), 2.5, 10.0, 0.005),
        2000,
        [
            "-0x1.c17cd69d47cb0p-1", "0x1.1de03d2440174p-3", "-0x1.c9322328b6edep+0", "-0x1.81ba13dfa6e73p+0",
            "0x1.8a532b98d512bp-1", "-0x1.4b69f479afe85p-1", "0x1.70416cadd58e0p-2", "-0x1.deb3329c750a7p-1",
        ],
    ),
)


@pytest.mark.parametrize("start, steps, endpoint", PINNED_TRAJECTORIES, ids=["d=2", "d=3", "d=4"])
def test_rk4_kernel_returns_its_pinned_floats(start, steps, endpoint):
    # the loop oracle pins the kernel only to itself: an edit made to both,
    # such as |q|^2 as norm_q * norm_q in place of norm_q ** 2, passes the
    # bit-for-bit tests and moves these endpoints. No numpy ufunc runs here,
    # only float arithmetic, hypot, sqrt and pow, so SIMD dispatch cannot
    # move them; a libm whose pow rounds otherwise can
    p, q, k, t_final, dt = start
    m = CotangentPoint(p=np.array(p), q=np.array(q), base_radius=k)
    assert _trajectory(rk4_integrate, m, t_final, dt) == (endpoint, steps)


def test_kernels_take_python_floats_only(monkeypatch):
    # one numpy scalar among a kernel's inputs makes every operation of its
    # loop a numpy-scalar one, at twice the cost or more; isinstance would
    # pass np.float64, which subclasses float, so each type is compared
    calls = []
    make = dynamics._rk4_kernel

    def make_recorded(d):
        kernel = make(d)
        return lambda *args: calls.append(args) or kernel(*args)

    monkeypatch.setattr(dynamics, "_rk4_kernel", make_recorded)
    report = run_check("P-evenedflow-restored", {"tolerance": -1.0})
    witness = json.loads(render_json([report]))[0]["witness"]
    assert run_check("P-evenedflow-restored", {"witness": witness}).max_residual == report.max_residual
    # every scalar input a numpy scalar, from a start off the base sphere
    m = even_rescale(sample_cosphere(2, 1.0, 0.5, derive_stream(83, "float contract")), 0.5)
    start = CotangentPoint(p=1.01 * m.p, q=m.q, base_radius=m.base_radius)
    rk4_integrate(start, np.float64(0.3), np.float64(0.01))
    # three segments for each of the run and its replay, and one more
    # trajectory, whose stages solve the field inline
    assert len(calls) == 7
    for args in calls:
        assert all(type(x) is float for x in args), [type(x).__name__ for x in args]


def test_rk4_refuses_a_trajectory_over_the_step_limit_before_it_starts(monkeypatch):
    # once dt fell below ulp(t), t += dt left t as it was and dt = 1e-300 ran until killed
    def no_step(*args):
        raise AssertionError("a refused trajectory must fetch no kernel")

    monkeypatch.setattr(dynamics, "_rk4_kernel", no_step)
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(72, "step"))
    for t_final, dt in ((1.0, 1e-300), (1e300, 1e-3), (1.0, 5e-324), (1.0, 0.99 / MAX_STEPS)):
        with pytest.raises(StepLimitError, match="more than the limit of 1,000,000"):
            rk4_integrate(m, t_final, dt)
    # exactly MAX_STEPS steps are allowed; the default trajectories take 6,283
    require_steps(1.0, 1.0 / MAX_STEPS)
    require_steps(2.0 * np.pi, 1e-3)


def test_closed_form_flow_special_times():
    rng = derive_stream(62, "flow")
    m = sample_cosphere(2, 1.0, 1.0, rng)
    assert _dist(flow_closed_form(m, 0.0), m) < 1e-15
    assert _dist(flow_closed_form(m, np.pi), antipode(m)) < 1e-12
    e = CotangentPoint(p=np.array([1.0, 0, 0]), q=np.array([0.0, 1.0, 0.0]))
    quarter = flow_closed_form(e, np.pi / 2)
    assert np.max(np.abs(quarter.p - e.q)) < 1e-12
    assert np.max(np.abs(quarter.q + e.p)) < 1e-12


def test_closed_form_flow_preserves_constraints_and_period():
    rng = derive_stream(63, "per")
    m = sample_cosphere(3, 1.0, 1.0, rng)
    out = flow_closed_form(m, 1.234)
    assert max(bundle_residuals(out)) < 1e-12
    assert abs(np.linalg.norm(out.q) - 1.0) < 1e-12
    assert _dist(flow_closed_form(m, 2 * np.pi), m) < 1e-12


def test_closed_form_flow_rejects_uneven_points():
    rng = derive_stream(64, "uneven")
    m = sample_cosphere(2, 1.0, 0.5, rng)
    with pytest.raises(ValueError, match="even_rescale"):
        flow_closed_form(m, 0.3)


def test_flow_equals_scalar_action_on_evened_cospheres():
    rng = derive_stream(65, "agree")
    for k in (1.0, np.sqrt(2.0)):
        m = sample_cosphere(2, k, k, rng)
        for t in np.linspace(0.0, 2 * np.pi, 100):
            assert _dist(flow_closed_form(m, float(t)), scalar_action(m, float(t))) < 1e-12


def test_scalar_action_period_and_projectivized_orbit():
    rng = derive_stream(66, "orbit")
    m = sample_cosphere(2, 1.0, 1.0, rng)
    assert _dist(scalar_action(m, 2 * np.pi), m) < 1e-12


def test_uneven_cosphere_flow_reduces_to_closed_form_at_r_one():
    rng = derive_stream(67, "red")
    m = sample_cosphere(2, 1.0, 1.0, rng)
    for t in (0.4, 1.7, 5.0):
        assert _dist(flow_uneven_cosphere(m, t), flow_closed_form(m, t)) < 1e-12


def test_uneven_cosphere_flow_stays_on_cosphere():
    rng = derive_stream(68, "stay")
    m = sample_cosphere(2, 1.0, 0.5, rng)
    out = flow_uneven_cosphere(m, 0.9)
    assert max(bundle_residuals(out)) < 1e-12
    assert abs(np.linalg.norm(out.q) - 0.5) < 1e-12


def test_uneven_cosphere_flow_refuses_a_base_off_the_unit_sphere_and_the_zero_section():
    with pytest.raises(OffBundleError, match="unit base sphere"):
        flow_uneven_cosphere(CotangentPoint(p=np.array([2.0, 0.0]), q=np.array([0.0, 0.5]), base_radius=2.0), 0.3)
    # one row on the zero section among good ones refuses the whole batch
    m = CotangentPoint(p=np.array([[1.0, 0.0], [0.0, 1.0]]), q=np.array([[0.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ZeroSectionError, match="zero section"):
        flow_uneven_cosphere(m, 0.3)


def test_uneven_cosphere_flow_matches_rk4():
    # independent validation of the uneven trajectory formula
    rng = derive_stream(69, "veri")
    m = sample_cosphere(2, 1.0, 0.5, rng)
    result = rk4_integrate(m, 1.0, 0.01)
    assert _dist(result.endpoint, flow_uneven_cosphere(m, 1.0)) < 1e-6


def test_rk4_tracks_closed_form_and_conserves_energy():
    # one period in eight segments, each started from the last one's endpoint;
    # H = k|q| and the constraints are read at every segment's endpoint
    rng = derive_stream(70, "rk4")
    m = sample_cosphere(2, 1.0, 1.0, rng)
    energy0 = m.base_radius * np.linalg.norm(m.q)
    point = m
    for j in range(1, 9):
        result = rk4_integrate(point, np.pi / 4, 5e-3)
        assert isinstance(result, FlowResult)
        assert result.steps == int(np.ceil(np.pi / 4 / 5e-3))
        point = result.endpoint
        assert abs(point.base_radius * np.linalg.norm(point.q) - energy0) <= 1e-8
        assert max(bundle_residuals(point)) < 1e-12
        assert _dist(point, flow_closed_form(m, j * np.pi / 4)) < 1e-6


def test_rk4_halving_shows_fourth_order():
    rng = derive_stream(71, "order")
    m = sample_cosphere(2, 1.0, 1.0, rng)
    exact = flow_closed_form(m, np.pi)
    coarse = _dist(rk4_integrate(m, np.pi, 0.1).endpoint, exact)
    fine = _dist(rk4_integrate(m, np.pi, 0.05).endpoint, exact)
    assert 12.0 < coarse / fine < 20.0


def test_rk4_rejects_nonpositive_step():
    rng = derive_stream(72, "step")
    m = sample_cosphere(2, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        rk4_integrate(m, 1.0, 0.0)


@pytest.mark.parametrize("t_final", [float("inf"), float("nan")])
def test_rk4_rejects_a_final_time_that_is_not_finite(t_final):
    # an infinite final time looped forever
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(72, "step"))
    with pytest.raises(ValueError, match="t_final must be finite"):
        rk4_integrate(m, t_final, 0.1)


def test_flows_take_one_time_per_row():
    rng = derive_stream(74, "rows")
    ts = rng.uniform(0.0, 2.0 * np.pi, 5)
    for flow, r in ((flow_closed_form, 1.0), (flow_uneven_cosphere, 0.5)):
        m = sample_cosphere(2, 1.0, r, rng, size=5)
        rows = flow(m, ts)
        assert rows.p.shape == rows.q.shape == (5, 3)
        for i, t in enumerate(ts):
            single = flow(CotangentPoint(p=m.p[i], q=m.q[i]), float(t))
            assert _dist(CotangentPoint(p=rows.p[i], q=rows.q[i]), single) < 1e-15
    # one uneven row fails the whole call
    m = sample_cosphere(2, 1.0, 1.0, rng, size=5)
    q = m.q.copy()
    q[2] *= 1.1
    with pytest.raises(OffBundleError, match="even_rescale"):
        flow_closed_form(CotangentPoint(p=m.p, q=q), ts)


def test_uneven_flow_diverges_from_scalar_action_until_evened():
    rng = derive_stream(73, "fix")
    r = 0.5
    m = sample_cosphere(2, 1.0, r, rng)
    deviation = _dist(rk4_integrate(m, np.pi / 2, 0.02).endpoint, scalar_action(m, np.pi / 2))
    assert deviation > 0.01
    evened = even_rescale(m, r)
    restored = rk4_integrate(evened, np.pi / 2, 0.02)
    assert _dist(restored.endpoint, scalar_action(evened, np.pi / 2)) < 1e-6


def test_rescale_conjugates_the_flows_at_equal_times():
    rng = derive_stream(74, "conj")
    for r in (0.5, 2.0):
        m = sample_cosphere(2, 1.0, r, rng)
        for t in (0.3, 1.1, 4.4):
            lhs = even_rescale(flow_uneven_cosphere(m, t), r)
            rhs = flow_closed_form(even_rescale(m, r), t)
            assert _dist(lhs, rhs) < 1e-9


def test_flows_take_a_grid_of_times():
    # an array of times gives one row per time, equal to the scalar-time values
    rng = derive_stream(67, "grid")
    m = sample_cosphere(3, 1.0, 1.0, rng)
    ts = np.linspace(0.0, 2 * np.pi, 7)
    for flow in (flow_closed_form, scalar_action):
        grid = flow(m, ts)
        assert grid.p.shape == grid.q.shape == (7, 4)
        for i, t in enumerate(ts):
            single = flow(m, float(t))
            assert np.array_equal(grid.p[i], single.p) and np.array_equal(grid.q[i], single.q)
    with pytest.raises(ValueError, match="even_rescale"):
        flow_closed_form(sample_cosphere(2, 1.0, 0.5, rng), ts)
