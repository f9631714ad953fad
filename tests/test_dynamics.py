"""Hamiltonian vector field, closed-form flows, scalar action, RK4."""

import numpy as np
import pytest
from fd_oracle import constraint_frame, retract

from quadcover import dynamics
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
    HamiltonianSpec,
    StepLimitError,
    ZeroSectionError,
    flow_closed_form,
    flow_uneven_cosphere,
    hamiltonian_vector_field,
    require_steps,
    rk4_integrate,
    scalar_action,
)
from quadcover.numerics import derive_stream


def _dist(a: CotangentPoint, b: CotangentPoint) -> float:
    return max(float(np.max(np.abs(a.p - b.p))), float(np.max(np.abs(a.q - b.q))))


def test_vector_field_matches_flow_derivative_at_standard_point():
    m = CotangentPoint(p=np.array([1.0, 0, 0]), q=np.array([0.0, 1.0, 0.0]))
    x = hamiltonian_vector_field(HamiltonianSpec(1.0), m)
    assert np.max(np.abs(x[:3] - m.q)) < 1e-6
    assert np.max(np.abs(x[3:] + m.p)) < 1e-6


def test_vector_field_satisfies_defining_equation():
    # omega_std(X, b) = dH(b) with the analytic dH(u, w) = k <q, w> / |q|
    rng = derive_stream(61, "hvf")
    for k in (1.0, np.sqrt(0.5)):
        m = sample_cosphere(2, k, k, rng)
        ham = HamiltonianSpec(k)
        x = hamiltonian_vector_field(ham, m)
        qn = np.linalg.norm(m.q)
        for b in constraint_frame(m.p, m.q):
            lhs = float(x[:3] @ b[3:] - x[3:] @ b[:3])
            rhs = k * float(m.q @ b[3:]) / qn
            assert abs(lhs - rhs) < 1e-8
        # dH(X) = 0: the energy is conserved to first order
        assert abs(k * float(m.q @ x[3:]) / qn) < 1e-8


def test_vector_field_rejects_zero_section():
    m = CotangentPoint(p=np.array([1.0, 0.0]), q=np.zeros(2))
    with pytest.raises(ZeroSectionError):
        hamiltonian_vector_field(HamiltonianSpec(1.0), m)


def test_collapsed_base_point_is_a_rank_failure():
    # p = 0 with q != 0: the constraint rows (p, 0) and (q, p) have rank 1
    m = CotangentPoint(p=np.zeros(3), q=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(RuntimeError, match="rank failure"):
        constraint_frame(m.p, m.q)
    with pytest.raises(RuntimeError, match="rank failure"):
        hamiltonian_vector_field(HamiltonianSpec(1.0), m)
    # the sampler's guard, alone and in a batch with one healthy row
    with pytest.raises(RuntimeError, match="rank failure"):
        sample_tangent(m, derive_stream(63, "rank"))
    batch = CotangentPoint(p=np.stack([np.array([1.0, 0.0, 0.0]), m.p]), q=np.stack([m.q, m.q]))
    with pytest.raises(RuntimeError, match="rank failure"):
        sample_tangent(batch, derive_stream(63, "rank"))


def test_inexact_field_solve_trips_the_residual_guard(monkeypatch):
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(64, "guard"))
    multipliers = dynamics._multipliers

    def off_by_a_little(*args):
        lam0, lam1 = multipliers(*args)
        return lam0, lam1 + 1e-6

    monkeypatch.setattr(dynamics, "_multipliers", off_by_a_little)
    with pytest.raises(RuntimeError, match="solve residual .* exceeds 1e-8"):
        hamiltonian_vector_field(HamiltonianSpec(1.0), m)


def test_singular_field_solve_is_a_runtime_error():
    # G J G^T = [[0, |p|^2], [-|p|^2, 0]] is singular once |p|^2 falls to its
    # floor, 1e-20 |(p, q)|^2, at every scale of the point
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(64, "guard"))
    for scale in (1e-3, 1.0, 1e3):
        with pytest.raises(RuntimeError, match="degenerate restricted symplectic form"):
            dynamics._solve_field(1.0, 1e-11 * scale * m.p, scale * m.q, 1e-5)
        just_above = dynamics._solve_field(1.0, 1e-9 * scale * m.p, scale * m.q, 1e-5)
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
                    x = np.array(dynamics._solve_field(k, p.tolist(), q.tolist(), 1e-5))
                    u, w = x[: n + 1], x[n + 1 :]
                    size = np.linalg.norm(np.concatenate([p, q])) * np.linalg.norm(x)
                    assert abs(p @ u) <= 1e-12 * size, (n, k, scale)
                    assert abs(q @ u + p @ w) <= 1e-12 * size, (n, k, scale)


def _plain_field(k_base, k_ham, p, q, h):
    """The field solved on an SVD frame: Omega on the frame, then np.linalg.solve."""
    d = p.size
    rows = np.zeros((2, 2 * d))
    rows[0, :d] = p
    rows[1, :d] = q
    rows[1, d:] = p
    mat = np.linalg.svd(rows)[2][2:]
    omega = mat[:, :d] @ mat[:, d:].T - mat[:, d:] @ mat[:, :d].T

    def energy(offsets):
        op, oq = offsets[:, :d], offsets[:, d:]
        p_hat = op * (k_base / np.linalg.norm(op, axis=1))[:, None]
        q_tan = oq - (np.einsum("ij,ij->i", p_hat, oq) / (k_base * k_base))[:, None] * p_hat
        return k_ham * np.linalg.norm(q_tan, axis=1)

    amb = np.concatenate([p, q])
    grad = (energy(amb + h * mat) - energy(amb - h * mat)) / (2.0 * h)
    return np.linalg.solve(omega.T, grad) @ mat


def _numpy_field(k_ham, p, q, h):
    """The field solve on numpy arrays: the |q|^2 slope of the energy at +-h|q|^2, closed-form multipliers."""
    pp, qq, pq = p @ p, q @ q, p @ q
    dqq = h * qq
    energy = k_ham * np.sqrt(qq + np.array([dqq, -dqq]) - pq * pq / pp)
    slope = (energy[0] - energy[1]) / dqq
    lam0, lam1 = slope * qq / pp, -slope * pq / pp
    return np.concatenate((slope * q + lam1 * p, -(lam0 * p + lam1 * q)))


def _axis_offset_field(k_ham, p, q, h):
    """The field solve differenced along all 4d ambient axes, each offset read from its Gram entries.

    A p-axis offset +-h e_i has |p|^2 +- 2h p_i + h^2 and p.q +- h q_i, a
    q-axis offset |q|^2 +- 2h q_i + h^2 and p.q +- h p_i; 4d energy
    evaluations where the |q|^2 slope needs two.
    """
    pp, qq, pq = p @ p, q @ q, p @ q
    energy = dynamics._restricted_energy
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
    lam0, lam1 = dynamics._multipliers(pp, p @ g_p, q @ g_q, p @ g_q)
    return np.concatenate((g_q + lam1 * p, -(g_p + lam0 * p + lam1 * q)))


def _numpy_rk4(ham, m, t_final, dt, h=1e-5):
    """The standard projection method with an ndarray state: the oracle for the float loop.

    Stages are solved at ambient points; the start point and each step's
    endpoint are retracted onto the constraint set.
    """
    k = m.base_radius
    d = m.p.size

    def field(x):
        return _numpy_field(ham.base_radius, x[:d], x[d:], h)

    point = retract(m.p, m.q, k)
    x = np.concatenate([point.p, point.q])
    energy0 = ham.value(m)
    energy_drift = 0.0
    constraint_drift = max(m.residuals())
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
        energy_drift = max(energy_drift, abs(ham.value(point) - energy0))
        constraint_drift = max(constraint_drift, *point.residuals())
        t += step
        steps += 1
    return FlowResult(point, energy_drift, constraint_drift, steps)


def test_float_loop_matches_the_numpy_oracle():
    # same scheme, same steps; only the rounding of float lists against arrays differs
    rng = derive_stream(76, "oracle")
    for n in range(1, 5):
        for k in (1.0, np.sqrt(0.5), 3.0):
            for fiber in (k, 0.4 * k):
                m = sample_cosphere(n, k, fiber, rng)
                ham = HamiltonianSpec(k)
                fast = rk4_integrate(ham, m, 0.5, 0.01)
                slow = _numpy_rk4(ham, m, 0.5, 0.01)
                assert fast.steps == slow.steps == 50
                assert _dist(fast.endpoint, slow.endpoint) < 1e-10
                assert abs(fast.energy_drift - slow.energy_drift) < 1e-10
                assert abs(fast.constraint_drift - slow.constraint_drift) < 1e-10


def test_field_solve_matches_the_plain_frame_solve():
    # the closed-form multipliers against the frame solve, to the finite-difference floor
    rng = derive_stream(65, "plain")
    for n in range(1, 7):
        for k in (1.0, np.sqrt(0.5), 3.0):
            for m in (sample_cosphere(n, k, k, rng), sample_cosphere(n, k, 0.3, rng)):
                for k_ham in (1.0, k):
                    lean = dynamics._solve_field(k_ham, m.p, m.q, 1e-5)
                    assert np.max(np.abs(lean - _plain_field(k, k_ham, m.p, m.q, 1e-5))) < 1e-9


def test_q_slope_solve_matches_the_axis_offset_solve():
    # one |q|^2 slope against differences along every ambient axis, at every
    # scale; the axis step scales with the point, as the |q|^2 step does
    rng = derive_stream(77, "slope")
    for n in range(1, 7):
        for k in (1.0, np.sqrt(0.5), 3.0):
            for fiber in (k, 0.3 * k):
                m = sample_cosphere(n, k, fiber, rng)
                for scale in (1e-3, 1.0, 1e3):
                    p, q = scale * m.p, scale * m.q
                    lean = np.array(dynamics._solve_field(k, p.tolist(), q.tolist(), 1e-5))
                    wide = _axis_offset_field(k, p, q, 1e-5 * scale)
                    assert np.max(np.abs(lean - wide)) < 1e-9, (n, k, fiber, scale)


def test_field_sees_the_energy_only_through_its_q_slope(monkeypatch):
    # c|p|^2 and c p.q add constraint-row terms to the gradient, which the
    # multipliers cancel; c|q|^2 adds 2c q, which turns the field. The
    # axis-offset solve sees every slope, so it checks the cancellation itself
    m = sample_cosphere(3, 1.0, 0.7, derive_stream(78, "gram"))
    p, q = m.p.tolist(), m.q.tolist()
    base = np.array(dynamics._solve_field(1.0, p, q, 1e-5))
    wide_base = _axis_offset_field(1.0, m.p, m.q, 1e-5)
    energy = dynamics._restricted_energy
    c = 0.25
    for extra, moves in (
        (lambda pp, qq, pq: c * pp, False),
        (lambda pp, qq, pq: c * pq, False),
        (lambda pp, qq, pq: c * qq, True),
    ):
        monkeypatch.setattr(
            dynamics,
            "_restricted_energy",
            lambda pp, qq, pq, k_ham, extra=extra: energy(pp, qq, pq, k_ham) + extra(pp, qq, pq),
        )
        change = np.max(np.abs(np.array(dynamics._solve_field(1.0, p, q, 1e-5)) - base))
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
    result = rk4_integrate(HamiltonianSpec(1.0), m, 0.05, 0.01)
    assert result.steps == 5
    assert _dist(result.endpoint, flow_closed_form(m, 0.05)) < 1e-9


def test_rk4_retracts_the_start_and_each_endpoint_once(monkeypatch):
    # the standard projection method: stages are solved unretracted, so N
    # steps make N + 1 retractions, the start point's and each endpoint's
    calls = []
    retract_once = dynamics._retract

    def counted(*args):
        calls.append(args)
        return retract_once(*args)

    monkeypatch.setattr(dynamics, "_retract", counted)
    m = sample_cosphere(2, 1.0, 0.6, derive_stream(80, "project"))
    for t_final, dt in ((0.5, 0.01), (1.0, 0.3), (1e-13, 0.1)):
        calls.clear()
        result = rk4_integrate(HamiltonianSpec(1.0), m, t_final, dt)
        assert len(calls) == result.steps + 1
    assert result.steps == 0
    assert _dist(result.endpoint, m) < 1e-15


def test_rk4_refuses_a_trajectory_over_the_step_limit_before_it_starts(monkeypatch):
    # once dt fell below ulp(t), t += dt left t as it was and dt = 1e-300 ran until killed
    def no_step(*args):
        raise AssertionError("a refused trajectory must not solve the field")

    monkeypatch.setattr(dynamics, "_solve_field", no_step)
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(72, "step"))
    for t_final, dt in ((1.0, 1e-300), (1e300, 1e-3), (1.0, 5e-324), (1.0, 0.99 / MAX_STEPS)):
        with pytest.raises(StepLimitError, match="more than the limit of 1,000,000"):
            rk4_integrate(HamiltonianSpec(1.0), m, t_final, dt)
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
    assert max(out.residuals()) < 1e-12
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
    assert max(out.residuals()) < 1e-12
    assert abs(np.linalg.norm(out.q) - 0.5) < 1e-12


def test_uneven_cosphere_flow_matches_rk4():
    # independent validation of the uneven trajectory formula
    rng = derive_stream(69, "veri")
    m = sample_cosphere(2, 1.0, 0.5, rng)
    result = rk4_integrate(HamiltonianSpec(1.0), m, 1.0, 0.01)
    assert _dist(result.endpoint, flow_uneven_cosphere(m, 1.0)) < 1e-6


def test_rk4_tracks_closed_form_and_conserves_energy():
    rng = derive_stream(70, "rk4")
    m = sample_cosphere(2, 1.0, 1.0, rng)
    result = rk4_integrate(HamiltonianSpec(1.0), m, 2 * np.pi, 5e-3)
    assert isinstance(result, FlowResult)
    assert _dist(result.endpoint, flow_closed_form(m, 2 * np.pi)) < 1e-6
    assert result.energy_drift < 1e-8
    assert result.constraint_drift < 1e-12
    assert result.steps == int(np.ceil(2 * np.pi / 5e-3))


def test_rk4_halving_shows_fourth_order():
    rng = derive_stream(71, "order")
    m = sample_cosphere(2, 1.0, 1.0, rng)
    ham = HamiltonianSpec(1.0)
    exact = flow_closed_form(m, np.pi)
    coarse = _dist(rk4_integrate(ham, m, np.pi, 0.1).endpoint, exact)
    fine = _dist(rk4_integrate(ham, m, np.pi, 0.05).endpoint, exact)
    assert 12.0 < coarse / fine < 20.0


def test_rk4_rejects_nonpositive_step():
    rng = derive_stream(72, "step")
    m = sample_cosphere(2, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        rk4_integrate(HamiltonianSpec(1.0), m, 1.0, 0.0)


@pytest.mark.parametrize("t_final", [float("inf"), float("nan")])
def test_rk4_rejects_a_final_time_that_is_not_finite(t_final):
    # an infinite final time looped forever
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(72, "step"))
    with pytest.raises(ValueError, match="t_final must be finite"):
        rk4_integrate(HamiltonianSpec(1.0), m, t_final, 0.1)


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
    ham = HamiltonianSpec(1.0)
    deviation = _dist(rk4_integrate(ham, m, np.pi / 2, 0.02).endpoint, scalar_action(m, np.pi / 2))
    assert deviation > 0.01
    evened = even_rescale(m, r)
    restored = rk4_integrate(HamiltonianSpec(evened.base_radius), evened, np.pi / 2, 0.02)
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
