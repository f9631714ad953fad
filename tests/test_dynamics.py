"""Hamiltonian vector field, closed-form flows, scalar action, RK4."""

import numpy as np
import pytest

from quadcover import dynamics
from quadcover.cotangent import (
    CotangentPoint,
    antipode,
    constraint_frame,
    even_rescale,
    sample_cosphere,
)
from quadcover.dynamics import (
    FlowResult,
    HamiltonianSpec,
    ZeroSectionError,
    flow_closed_form,
    flow_uneven_cosphere,
    hamiltonian_vector_field,
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


def test_inexact_field_solve_trips_the_residual_guard(monkeypatch):
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(64, "guard"))
    solve = np.linalg.solve
    monkeypatch.setattr(dynamics.np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    with pytest.raises(RuntimeError, match="solve residual .* exceeds 1e-8"):
        hamiltonian_vector_field(HamiltonianSpec(1.0), m)


def test_singular_field_solve_is_a_runtime_error(monkeypatch):
    m = sample_cosphere(2, 1.0, 1.0, derive_stream(64, "guard"))

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(dynamics.np.linalg, "solve", singular)
    with pytest.raises(RuntimeError, match="degenerate restricted symplectic form"):
        hamiltonian_vector_field(HamiltonianSpec(1.0), m)


def _plain_field(k_base, k_ham, p, q, h):
    """The field solve written plainly: norm(), two products for Omega, one energy call per side."""
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


def test_field_solve_equals_the_plain_solve_bit_for_bit():
    rng = derive_stream(65, "plain")
    for n in range(1, 7):
        for k in (1.0, np.sqrt(0.5), 3.0):
            for m in (sample_cosphere(n, k, k, rng), sample_cosphere(n, k, 0.3, rng)):
                for k_ham in (1.0, k):
                    lean = dynamics._solve_field(k, k_ham, m.p, m.q, 1e-5)
                    assert np.array_equal(lean, _plain_field(k, k_ham, m.p, m.q, 1e-5))


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
