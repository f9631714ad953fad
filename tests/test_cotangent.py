"""Cotangent bundle points, samplers, constraint frames, antipode, rescaling."""

import dataclasses

import numpy as np
import pytest
from fd_oracle import bundle_residuals, constraint_frame, retract

from quadcover.cotangent import (
    CotangentPoint,
    OffBundleError,
    antipode,
    even_rescale,
    even_rescale_inverse,
    sample_cosphere,
    sample_disc_bundle,
    sample_tangent,
)
from quadcover.numerics import derive_stream, row_norms
from quadcover.projective import proj_normalize


def test_points_are_immutable():
    # maps and checks share point objects, so none may change a field in place
    m = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 0.5]))
    point = proj_normalize(np.array([1.0, 1j]))
    for obj, field in ((m, "p"), (m, "base_radius"), (point, "rep")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))


def test_disc_sampler_satisfies_invariants_exactly():
    rng = derive_stream(21, "disc")
    for n, base, fiber in [(1, 1.0, 1.0), (2, 1.0, 0.5), (3, 2.0, 1.5)]:
        for _ in range(50):
            m = sample_disc_bundle(n, base, fiber, rng)
            assert max(bundle_residuals(m)) < 1e-12
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
    count = 100_000
    m = sample_disc_bundle(n, 1.0, fiber, rng, size=count)
    mean = float(np.mean(np.einsum("ij,ij->i", m.q, m.q))) / fiber**2
    assert abs(mean - 0.5) < 0.02


@pytest.mark.parametrize("sampler", [sample_disc_bundle, sample_cosphere])
def test_bulk_draw_has_the_shapes_and_constraints_of_single_draws(sampler):
    rng = derive_stream(30, "bulk")
    for n, base, fiber in [(1, 1.0, 1.0), (2, 1.0, 0.5), (3, 2.0, 1.5)]:
        one = sampler(n, base, fiber, rng)
        assert one.p.shape == one.q.shape == (n + 1,)
        bulk = sampler(n, base, fiber, rng, size=500)
        assert bulk.p.shape == bulk.q.shape == (500, n + 1)
        assert bulk.base_radius == base
        assert np.max(np.abs(np.linalg.norm(bulk.p, axis=1) - base)) < 1e-12
        assert np.max(np.abs(np.einsum("ij,ij->i", bulk.p, bulk.q))) < 1e-12
        fibers = np.linalg.norm(bulk.q, axis=1)
        if sampler is sample_cosphere:
            assert np.max(np.abs(fibers - fiber)) < 1e-12
        else:
            assert np.all(fibers < fiber)


class _ParallelFirstFiber:
    """Stream whose first fiber draw repeats, scaled, the first base point draw."""

    def __init__(self, rng):
        self.rng = rng
        self.shapes = []

    def standard_normal(self, shape):
        g = self.rng.standard_normal(shape)
        if len(self.shapes) == 1:
            g[0] = 3.0 * self.base_row
        elif not self.shapes:
            self.base_row = g[0].copy()
        self.shapes.append(shape)
        return g

    def uniform(self, size=None):
        return self.rng.uniform(size=size)


def test_fiber_draw_parallel_to_p_is_drawn_again():
    stub = _ParallelFirstFiber(derive_stream(31, "parallel"))
    m = sample_cosphere(2, 1.0, 1.0, stub, size=4)
    # base points, fiber directions, then one redraw for the rejected row only
    assert stub.shapes == [(4, 3), (4, 3), (1, 3)]
    assert np.max(np.abs(np.linalg.norm(m.q, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.einsum("ij,ij->i", m.p, m.q))) < 1e-12


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


def test_bulk_sample_tangent_rows_satisfy_the_linearized_constraints():
    rng = derive_stream(28, "tan-rows")
    for n in (1, 2, 3):
        m = sample_disc_bundle(n, 1.0, 1.0, rng, size=200)
        frames = constraint_frame(m.p, m.q)
        assert frames.shape == (200, 2 * n, 2 * (n + 1))
        t = sample_tangent(m, rng)
        assert t.shape == (200, 2 * (n + 1))
        u, w = t[:, : n + 1], t[:, n + 1 :]
        assert np.max(np.abs(np.linalg.norm(t, axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.einsum("ij,ij->i", m.p, u))) < 1e-12
        assert np.max(np.abs(np.einsum("ij,ij->i", u, m.q) + np.einsum("ij,ij->i", m.p, w))) < 1e-12


def test_antipode_is_involution_preserving_fiber_norm():
    rng = derive_stream(29, "anti")
    m = sample_disc_bundle(2, 1.0, 1.0, rng)
    double = antipode(antipode(m))
    assert np.max(np.abs(double.p - m.p)) < 1e-15
    assert np.max(np.abs(double.q - m.q)) < 1e-15
    flipped = antipode(m)
    assert abs(np.linalg.norm(flipped.q) - np.linalg.norm(m.q)) < 1e-15
    assert max(bundle_residuals(flipped)) < 1e-12
    e = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 1.0]))
    assert np.allclose(antipode(e).p, [-1, 0]) and np.allclose(antipode(e).q, [0, -1])


def test_even_rescale_examples_and_roundtrip():
    m = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 0.3]))
    assert even_rescale(m, 1.0).base_radius == 1.0
    assert np.allclose(even_rescale(m, 1.0).p, m.p)
    scaled = even_rescale(m, 4.0)
    assert np.allclose(scaled.p, [2.0, 0.0])
    assert np.allclose(scaled.q, [0.0, 0.15])
    assert max(bundle_residuals(scaled)) < 1e-12
    back = even_rescale_inverse(scaled, 4.0)
    assert np.max(np.abs(back.p - m.p)) < 1e-12
    assert np.max(np.abs(back.q - m.q)) < 1e-12


def test_even_rescale_rejects_bad_input():
    m = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 0.3]))
    with pytest.raises(ValueError):
        even_rescale(m, -2.0)
    with pytest.raises(ValueError):
        even_rescale(CotangentPoint(p=np.array([2.0, 0.0]), q=np.zeros(2), base_radius=2.0), 2.0)
    with pytest.raises(ValueError, match="must be positive"):
        even_rescale_inverse(even_rescale(m, 4.0), 0.0)


def test_validate_flags_constraint_violations():
    bad = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="constraint"):
        bad.validate()


def test_validate_flags_each_row_off_the_bundle():
    # the membership guard of the maps and flows: row by row, relative to the
    # base radius and to |p| |q|, so an evened point and a tiny fiber pass
    rng = derive_stream(12, "guard")
    m = sample_disc_bundle(2, 1.0, 1.0, rng, size=6)
    # a point on the bundle gives back |q| of each row, with the row_norms bits
    # on both paths, for the callers' fiber bounds
    for good in (m, even_rescale(m, 9.0), CotangentPoint(p=m.p, q=1e-100 * m.q)):
        assert np.array_equal(good.validate(1e-10), row_norms(good.q))
        for row in (0, slice(0, 1)):
            one = CotangentPoint(p=good.p[row], q=good.q[row], base_radius=good.base_radius)
            assert np.array_equal(one.validate(1e-10), row_norms(one.q))
    for row in range(6):
        for p, q in ((1.5 * m.p[row], m.q[row]), (np.zeros(3), m.q[row]), (m.p[row], m.q[row] + 0.1 * m.p[row])):
            bad_p, bad_q = m.p.copy(), m.q.copy()
            bad_p[row], bad_q[row] = p, q
            with pytest.raises(OffBundleError, match="constraint"):
                CotangentPoint(p=bad_p, q=bad_q).validate(1e-10)
            for one in (CotangentPoint(p=p, q=q), CotangentPoint(p=p[None], q=q[None])):
                with pytest.raises(OffBundleError):
                    one.validate(1e-10)
    nan_q = m.q.copy()
    nan_q[2, 0] = np.nan
    # a single point and a batch of one row take Python floats, more rows arrays
    for p, q in ((m.p, nan_q), (m.p[2], nan_q[2]), (m.p[2:3], nan_q[2:3])):
        with pytest.raises(OffBundleError):
            CotangentPoint(p=p, q=q).validate(1e-10)


def test_retract_restores_constraints():
    m = retract(np.array([1.1, 0.2]), np.array([0.4, 0.7]), 1.0)
    assert max(bundle_residuals(m)) < 1e-14
    with pytest.raises(ValueError):
        retract(np.zeros(2), np.ones(2), 1.0)


def test_retract_rows_match_single_points():
    # each row of an (N, d) batch retracts to the bits of that pair alone,
    # onto the constraint set
    rng = derive_stream(61, "retract-rows")
    p, q = rng.standard_normal((2, 6, 3))
    batch = retract(p, q, 1.5)
    for i in range(6):
        one = retract(p[i], q[i], 1.5)
        assert np.array_equal(batch.p[i], one.p) and np.array_equal(batch.q[i], one.q), i
        assert max(bundle_residuals(one)) < 1e-14, i
