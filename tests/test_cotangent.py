"""Cotangent bundle points, samplers, constraint frames, antipode, rescaling."""

import numpy as np
import pytest

from quadcover.cotangent import (
    CotangentPoint,
    antipode,
    constraint_frame,
    even_rescale,
    even_rescale_inverse,
    retract,
    sample_cosphere,
    sample_disc_bundle,
    sample_tangent,
)
from quadcover.numerics import derive_stream


def test_disc_sampler_satisfies_invariants_exactly():
    rng = derive_stream(21, "disc")
    for n, base, fiber in [(1, 1.0, 1.0), (2, 1.0, 0.5), (3, 2.0, 1.5)]:
        for _ in range(50):
            m = sample_disc_bundle(n, base, fiber, rng)
            assert max(m.residuals()) < 1e-12
            assert np.linalg.norm(m.q) < fiber


def test_disc_sampler_n1_fiber_is_rotated_base():
    rng = derive_stream(22, "disc1")
    for _ in range(20):
        m = sample_disc_bundle(1, 1.0, 1.0, rng)
        perp = np.array([-m.p[1], m.p[0]])
        lam = m.q @ perp
        assert np.max(np.abs(m.q - lam * perp)) < 1e-12
        assert abs(lam) < 1.0


def test_disc_sampler_radial_moment():
    # E |q|^2 / fiber^2 = n / (n + 2) = 1/2 for n = 2
    rng = derive_stream(23, "moment")
    n, fiber = 2, 1.0
    total = 0.0
    count = 100_000
    for _ in range(count):
        m = sample_disc_bundle(n, 1.0, fiber, rng)
        total += float(m.q @ m.q) / fiber**2
    assert abs(total / count - 0.5) < 0.02


def test_cosphere_sampler_hits_fiber_radius_exactly():
    rng = derive_stream(24, "cos")
    m = sample_cosphere(2, 1.0, 0.75, rng)
    assert abs(np.linalg.norm(m.q) - 0.75) < 1e-12
    # orthogonal p, q means |p + iq|^2 = base^2 + fiber^2
    z = m.p + 1j * m.q
    assert abs(np.vdot(z, z).real - (1.0 + 0.75**2)) < 1e-12


def test_sampler_rejects_bad_radii():
    rng = derive_stream(25, "bad")
    with pytest.raises(ValueError):
        sample_disc_bundle(2, -1.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_cosphere(2, 1.0, 0.0, rng)


def test_sampler_rejects_zero_dimension_instead_of_looping():
    # n = 0 leaves p one entry and no direction orthogonal to it
    rng = derive_stream(25, "n0")
    with pytest.raises(ValueError, match="at least 2 entries"):
        sample_disc_bundle(0, 1.0, 1.0, rng)
    with pytest.raises(ValueError, match="at least 2 entries"):
        sample_cosphere(0, 1.0, 1.0, rng)


def test_tangent_basis_size_orthonormality_and_invariants():
    rng = derive_stream(26, "basis")
    for n in (1, 2, 3):
        m = sample_disc_bundle(n, 1.0, 1.0, rng)
        mat = constraint_frame(m.p, m.q)
        assert len(mat) == 2 * n
        gram = mat @ mat.T
        assert np.max(np.abs(gram - np.eye(2 * n))) < 1e-10
        for u, w in zip(mat[:, : n + 1], mat[:, n + 1 :]):
            assert abs(m.p @ u) < 1e-10
            assert abs(u @ m.q + m.p @ w) < 1e-10


def test_tangent_basis_explicit_low_dim_case():
    m = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 0.5]))
    assert len(constraint_frame(m.p, m.q)) == 2


def test_tangent_basis_spans_constraint_solutions():
    rng = derive_stream(27, "span")
    m = sample_disc_bundle(2, 1.0, 1.0, rng)
    mat = constraint_frame(m.p, m.q)
    g = rng.standard_normal(6)
    proj = mat.T @ (mat @ g)
    u, w = proj[:3], proj[3:]
    assert abs(m.p @ u) < 1e-9
    assert abs(u @ m.q + m.p @ w) < 1e-9


def test_sample_tangent_satisfies_linearized_constraints():
    rng = derive_stream(28, "tan")
    m = sample_disc_bundle(2, 1.0, 1.0, rng)
    t = sample_tangent(m, rng)
    u, w = t[:3], t[3:]
    assert abs(m.p @ u) < 1e-10
    assert abs(u @ m.q + m.p @ w) < 1e-10


def test_antipode_is_involution_preserving_fiber_norm():
    rng = derive_stream(29, "anti")
    m = sample_disc_bundle(2, 1.0, 1.0, rng)
    double = antipode(antipode(m))
    assert np.max(np.abs(double.p - m.p)) < 1e-15
    assert np.max(np.abs(double.q - m.q)) < 1e-15
    flipped = antipode(m)
    assert abs(np.linalg.norm(flipped.q) - np.linalg.norm(m.q)) < 1e-15
    assert max(flipped.residuals()) < 1e-12
    e = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 1.0]))
    assert np.allclose(antipode(e).p, [-1, 0]) and np.allclose(antipode(e).q, [0, -1])


def test_even_rescale_examples_and_roundtrip():
    m = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 0.3]))
    assert even_rescale(m, 1.0).base_radius == 1.0
    assert np.allclose(even_rescale(m, 1.0).p, m.p)
    scaled = even_rescale(m, 4.0)
    assert np.allclose(scaled.p, [2.0, 0.0])
    assert np.allclose(scaled.q, [0.0, 0.15])
    assert max(scaled.residuals()) < 1e-12
    back = even_rescale_inverse(scaled, 4.0)
    assert np.max(np.abs(back.p - m.p)) < 1e-12
    assert np.max(np.abs(back.q - m.q)) < 1e-12


def test_even_rescale_rejects_bad_input():
    m = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 0.3]))
    with pytest.raises(ValueError):
        even_rescale(m, -2.0)
    with pytest.raises(ValueError):
        even_rescale(CotangentPoint(p=np.array([2.0, 0.0]), q=np.zeros(2), base_radius=2.0), 2.0)


def test_validate_flags_constraint_violations():
    bad = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="constraint"):
        bad.validate()


def test_retract_restores_constraints():
    m = retract(np.array([1.1, 0.2]), np.array([0.4, 0.7]), 1.0)
    assert max(m.residuals()) < 1e-14
    with pytest.raises(ValueError):
        retract(np.zeros(2), np.ones(2), 1.0)
