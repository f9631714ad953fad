"""Projective points, horizontal tangents, quadric and hyperplane predicates."""

import numpy as np
import pytest

from quadcover.numerics import derive_stream, realify
from quadcover.projective import (
    ProjectivePoint,
    horizontal_project,
    proj_normalize,
    projective_defect,
    quadric_residual,
    sample_horizontal,
    sample_projective,
)


def test_normalize_single_entry_phase():
    point = proj_normalize(np.array([0, 0, 1j * np.sqrt(2.0)]))
    assert np.allclose(point.rep, [0, 0, 1])


def test_normalize_scaling():
    point = proj_normalize(np.array([2.0, 0.0], dtype=complex))
    assert np.allclose(point.rep, [1, 0])


def test_normalize_tie_breaks_to_lowest_index():
    point = proj_normalize(np.array([1.0, 1j, 0.0]))
    assert np.allclose(point.rep, [1 / np.sqrt(2), 1j / np.sqrt(2), 0])


def test_normalize_rejects_near_zero():
    with pytest.raises(ValueError, match="degenerate"):
        proj_normalize(np.zeros(3, dtype=complex))


def test_normalize_idempotent_and_gauge_free():
    rng = derive_stream(11, "gauge")
    for _ in range(50):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        point = proj_normalize(z)
        again = proj_normalize(point.rep)
        assert np.max(np.abs(again.rep - point.rep)) < 1e-12
        theta = rng.uniform(0, 2 * np.pi)
        lam = rng.uniform(0.1, 10.0)
        rotated = proj_normalize(np.exp(1j * theta) * lam * z)
        assert np.max(np.abs(rotated.rep - point.rep)) < 1e-12


def test_point_invariants_hold_after_normalize():
    rng = derive_stream(12, "inv")
    for _ in range(20):
        point = sample_projective(3, rng)
        assert abs(np.linalg.norm(point.rep) - 1.0) < 1e-12
        # the largest-modulus entry is real and positive
        pivot = point.rep[int(np.argmax(np.abs(point.rep)))]
        assert abs(pivot.imag) + max(0.0, -pivot.real) < 1e-12


def test_horizontal_kills_fiber_and_phase_directions():
    rng = derive_stream(13, "horiz")
    point = sample_projective(2, rng)
    assert np.linalg.norm(horizontal_project(point, point.rep)) < 1e-12
    assert np.linalg.norm(horizontal_project(point, 1j * point.rep)) < 1e-12


def test_horizontal_leaves_horizontal_untouched():
    point = proj_normalize(np.array([1.0, 0.0], dtype=complex))
    tangent = horizontal_project(point, np.array([0.0, 1.0], dtype=complex))
    assert np.allclose(tangent, [0, 1])


def test_horizontal_is_idempotent_with_invariants():
    rng = derive_stream(14, "idem")
    for _ in range(20):
        point = sample_projective(2, rng)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        once = horizontal_project(point, v)
        twice = horizontal_project(point, once)
        assert np.max(np.abs(twice - once)) < 1e-12
        assert abs(np.vdot(point.rep, once)) < 1e-10


def test_horizontal_projector_has_real_rank_2n():
    rng = derive_stream(15, "rank")
    for n in (1, 2, 3):
        point = sample_projective(n, rng)
        cols = []
        for k in range(2 * (n + 1)):
            e = np.zeros(2 * (n + 1))
            e[k] = 1.0
            v = e[: n + 1] + 1j * e[n + 1 :]
            cols.append(realify(horizontal_project(point, v)))
        rank = np.linalg.matrix_rank(np.stack(cols, axis=1), tol=1e-10)
        assert rank == 2 * n


def test_quadric_residual_values():
    assert abs(quadric_residual(proj_normalize(np.array([1, 1j, 0, 0])))) < 1e-14
    assert abs(quadric_residual(proj_normalize(np.array([1.0, 0, 0], dtype=complex))) - 1) < 1e-14


def test_quadric_residual_phase_covariance():
    rng = derive_stream(16, "phase")
    for _ in range(20):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z /= np.linalg.norm(z)
        theta = rng.uniform(0, 2 * np.pi)
        a = complex(np.sum(z * z))
        b = complex(np.sum((np.exp(1j * theta) * z) ** 2))
        assert abs(b - np.exp(2j * theta) * a) < 1e-12
        assert abs(abs(b) - abs(a)) < 1e-12


def test_same_point_uses_overlap_modulus():
    rng = derive_stream(17, "eq")
    point = sample_projective(2, rng)
    rotated = ProjectivePoint(rep=np.exp(0.3j) * point.rep)
    assert projective_defect(point, rotated) < 1e-12
    other = sample_projective(2, rng)
    assert projective_defect(point, other) > 1e-9


def test_sample_horizontal_is_unit_and_horizontal():
    rng = derive_stream(18, "tan")
    point = sample_projective(2, rng)
    tangent = sample_horizontal(point, rng)
    assert abs(np.linalg.norm(tangent) - 1.0) < 1e-12
    assert abs(np.vdot(point.rep, tangent)) < 1e-10


def test_bulk_projective_draws_are_unit_and_their_tangents_horizontal():
    rng = derive_stream(18, "tan-rows")
    points = sample_projective(2, rng, size=500)
    assert points.rep.shape == (500, 3)
    assert np.max(np.abs(np.linalg.norm(points.rep, axis=1) - 1.0)) < 1e-12
    tangents = sample_horizontal(points, rng)
    assert tangents.shape == (500, 3)
    assert np.max(np.abs(np.linalg.norm(tangents, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.einsum("ij,ij->i", points.rep.conj(), tangents))) < 1e-12


def test_horizontal_project_rows_match_single_points():
    rng = derive_stream(19, "rows")
    points = [sample_projective(2, rng) for _ in range(5)]
    vs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    rows = horizontal_project(ProjectivePoint(rep=np.array([p.rep for p in points])), vs)
    for point, v, row in zip(points, vs, rows):
        # einsum and vdot may round the overlap differently in the last bit
        assert np.max(np.abs(row - horizontal_project(point, v))) < 1e-15
