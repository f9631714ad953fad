"""The explicit maps: embeddings, cover, deck, Segre twist, locus classifiers."""

import dataclasses

import numpy as np
import pytest

from quadcover.cotangent import CotangentPoint, antipode, sample_cosphere, sample_disc_bundle
from quadcover.dynamics import scalar_action
from quadcover.forms import (
    BoxSpace,
    CotangentSpace,
    ProductSpace,
    ProjectiveSpace,
    SmoothMap,
    fubini_study_form,
    product_form,
    pullback,
    scaled_form,
)
from quadcover.maps import (
    antipodal_cp1,
    ball_embedding,
    ball_to_projective,
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
from quadcover.numerics import derive_stream, realify
from quadcover.projective import (
    in_hyperplane,
    proj_normalize,
    projective_defect,
    quadric_residual,
    sample_projective,
)

ROOT2 = float(np.sqrt(2.0))


def test_ball_origin_goes_to_center_of_chart():
    point = ball_to_projective(np.zeros(3, dtype=complex), 1.5)
    assert np.allclose(point.rep, [0, 0, 0, 1])


def test_ball_boundary_approach_kills_last_coordinate():
    z0 = np.array([1.0, 0.0], dtype=complex)
    last = [abs(ball_to_projective(f * z0, 1.0).rep[-1]) for f in (0.9, 0.99, 0.999)]
    assert last[0] > last[1] > last[2]
    assert last[2] < 0.05


def test_ball_rejects_exterior_points():
    with pytest.raises(ValueError, match="outside"):
        ball_to_projective(np.array([1.0, 0.0], dtype=complex), 1.0)


def test_ball_pullback_identity_sampled():
    rng = derive_stream(41, "ball")
    n, r = 2, ROOT2
    emb = ball_embedding(n, r)
    form = scaled_form(fubini_study_form(n + 1), r * r)
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        z *= 0.8 * r * rng.uniform() ** (1 / 6) / np.linalg.norm(z)
        x = realify(z)
        v1 = rng.standard_normal(2 * (n + 1))
        v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(2 * (n + 1))
        v2 /= np.linalg.norm(v2)
        expected = v1[: n + 1] @ v2[n + 1 :] - v1[n + 1 :] @ v2[: n + 1]
        worst = max(worst, abs(pullback(emb, form, x, v1, v2) - expected))
    assert worst < 1e-6


def test_zero_section_maps_to_standard_point():
    m = CotangentPoint(p=np.array([1.0, 0, 0]), q=np.zeros(3))
    image = cotangent_to_quadric(m)
    assert projective_defect(image, proj_normalize(np.array([1.0, 0, 0, 1j]))) <= 1e-9
    assert abs(quadric_residual(image)) < 1e-14


def test_disc_samples_land_on_quadric_off_hyperplane():
    rng = derive_stream(42, "disc")
    for _ in range(50):
        m = sample_disc_bundle(2, 1.0, 1.0, rng)
        image = cotangent_to_quadric(m)
        assert abs(quadric_residual(image)) < 1e-10
        assert not in_hyperplane(image, 3)


def test_embedding_is_injective_on_samples():
    rng = derive_stream(43, "inj")
    a = cotangent_to_quadric(sample_disc_bundle(2, 1.0, 1.0, rng))
    b = cotangent_to_quadric(sample_disc_bundle(2, 1.0, 1.0, rng))
    assert projective_defect(a, b) > 1e-9


def test_embedding_rejects_invalid_points():
    with pytest.raises(ValueError, match="unit base"):
        cotangent_to_quadric(
            CotangentPoint(p=np.array([2.0, 0.0]), q=np.zeros(2), base_radius=2.0)
        )
    with pytest.raises(ValueError, match="open disc"):
        cotangent_to_quadric(CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 1.0])))


def test_quadric_chart_inverts_the_embedding():
    rng = derive_stream(44, "chart")
    for _ in range(50):
        m = sample_disc_bundle(2, 1.0, 1.0, rng)
        image = cotangent_to_quadric(m)
        back = quadric_to_cotangent(image)
        assert np.max(np.abs(back.p - m.p)) < 1e-10
        assert np.max(np.abs(back.q - m.q)) < 1e-10


def test_quadric_chart_lifts_fresh_quadric_points():
    rng = derive_stream(45, "lift")
    for _ in range(50):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s = complex(np.sum(z * z))
        point = proj_normalize(np.concatenate([z, [1j * np.sqrt(s)]]))
        m = quadric_to_cotangent(point)
        assert abs(np.linalg.norm(m.p) - 1.0) < 1e-8
        assert abs(m.p @ m.q) < 1e-8
        assert np.linalg.norm(m.q) < 1.0
        assert projective_defect(cotangent_to_quadric(m), point) <= 1e-9


def test_quadric_chart_rejects_hyperplane_points():
    with pytest.raises(ValueError, match="hyperplane"):
        quadric_to_cotangent(proj_normalize(np.array([1.0, 1j, 0, 0])))


def test_cosphere_boundary_standard_point():
    m = CotangentPoint(p=np.array([1.0, 0, 0]), q=np.array([0.0, 1.0, 0.0]))
    image = cosphere_boundary(m)
    assert projective_defect(image, proj_normalize(np.array([1.0, 1j, 0, 0]))) <= 1e-9
    assert abs(quadric_residual(image)) < 1e-14
    assert in_hyperplane(image, 3)


def test_cosphere_boundary_requires_unit_fiber():
    with pytest.raises(ValueError, match=r"\|q\| = 1"):
        cosphere_boundary(CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 0.5])))


def test_circle_orbits_collapse_through_the_boundary_map():
    rng = derive_stream(46, "orbit")
    m = sample_cosphere(2, 1.0, 1.0, rng)
    image = cosphere_boundary(m)
    for t in np.linspace(0.0, 2 * np.pi, 9):
        assert projective_defect(cosphere_boundary(scalar_action(m, float(t))), image) < 1e-10


def test_branched_cover_drops_last_coordinate():
    point = proj_normalize(np.array([1.0, 1j, 0, 0]))
    assert projective_defect(branched_cover(point), proj_normalize(np.array([1.0, 1j, 0]))) <= 1e-9
    with pytest.raises(ValueError, match="center"):
        branched_cover(proj_normalize(np.array([0, 0, 0, 1.0], dtype=complex)))


def test_cover_composed_with_deck_is_cover():
    rng = derive_stream(47, "pideck")
    for _ in range(20):
        m = sample_disc_bundle(2, 1.0, 1.0, rng)
        up = cotangent_to_quadric(m)
        assert projective_defect(branched_cover(deck(up)), branched_cover(up)) < 1e-12


def test_deck_is_involution_fixing_branch_locus():
    rng = derive_stream(48, "deck")
    point = sample_projective(3, rng)
    assert projective_defect(deck(deck(point)), point) <= 1e-9
    m = sample_cosphere(2, 1.0, 1.0, rng)
    boundary = cosphere_boundary(m)
    assert projective_defect(deck(boundary), boundary) <= 1e-9


def test_deck_equivariance_with_antipode():
    rng = derive_stream(49, "equiv")
    for _ in range(50):
        m = sample_disc_bundle(2, 1.0, 1.0, rng)
        lhs = deck(cotangent_to_quadric(m))
        rhs = cotangent_to_quadric(antipode(m))
        assert projective_defect(lhs, rhs) < 1e-12


def test_fiber_counts_off_and_on_the_branch_quadric():
    generic = proj_normalize(np.array([1.0, 0.2, 0.1], dtype=complex))
    fiber = quadric_fiber(generic)
    assert len(fiber) == 2
    assert projective_defect(fiber[0], fiber[1]) > 1e-9
    for lift in fiber:
        assert abs(quadric_residual(lift)) < 1e-12
        assert projective_defect(branched_cover(lift), generic) <= 1e-9
    on_quadric = proj_normalize(np.array([1.0, 1j, 0.0]))
    assert len(quadric_fiber(on_quadric)) == 1


def test_segre_standard_values():
    e0 = proj_normalize(np.array([1.0, 0.0], dtype=complex))
    e1 = proj_normalize(np.array([0.0, 1.0], dtype=complex))
    first = segre_unitary(e0, e0)
    assert projective_defect(first, proj_normalize(np.array([1.0, 1j, 0, 0]))) <= 1e-9
    assert abs(quadric_residual(first)) < 1e-14
    second = segre_unitary(e0, e1)
    assert projective_defect(second, proj_normalize(np.array([0, 0, 1j, 1.0]))) <= 1e-9
    assert abs(quadric_residual(second)) < 1e-14


def test_segre_lands_on_quadric_everywhere():
    rng = derive_stream(50, "segre")
    for _ in range(50):
        image = segre_unitary(sample_projective(1, rng), sample_projective(1, rng))
        assert abs(quadric_residual(image)) < 1e-12


def test_segre_pullback_of_double_fs_is_product_form():
    rng = derive_stream(51, "spull")
    segre = segre_map()
    fs1 = scaled_form(fubini_study_form(1), 2.0)
    expected_form = product_form(fs1, fs1)
    target = scaled_form(fubini_study_form(3), 2.0)
    from quadcover.projective import sample_horizontal

    worst = 0.0
    for _ in range(60):
        a = sample_projective(1, rng)
        b = sample_projective(1, rng)
        v1 = np.concatenate(
            [realify(sample_horizontal(a, rng)), realify(sample_horizontal(b, rng))]
        )
        v2 = np.concatenate(
            [realify(sample_horizontal(a, rng)), realify(sample_horizontal(b, rng))]
        )
        value = pullback(segre, target, (a, b), v1, v2)
        worst = max(worst, abs(value - expected_form((a, b), v1, v2)))
    assert worst < 1e-6


def test_swap_is_involution_intertwined_by_deck():
    rng = derive_stream(52, "swap")
    a = sample_projective(1, rng)
    b = sample_projective(1, rng)
    swap_factors = lambda pair: (pair[1], pair[0])
    assert swap_factors(swap_factors((a, b))) == (a, b)
    assert projective_defect(deck(segre_unitary(a, b)), segre_unitary(b, a)) < 1e-12
    diagonal = segre_unitary(a, a)
    assert projective_defect(deck(diagonal), diagonal) <= 1e-9


def test_locus_classification():
    rng = derive_stream(53, "locus")
    for _ in range(25):
        a = sample_projective(1, rng)
        assert locus_classify(branched_cover(segre_unitary(a, a))) == "on_Q1"
        anti = branched_cover(segre_unitary(a, antipodal_cp1(a)))
        assert locus_classify(anti) == "on_RP2"
    generic = proj_normalize(np.array([1.0, 1j, 1.0]))
    assert locus_classify(generic) == "generic"


def test_antipodal_cp1_is_fixed_point_free_involution():
    rng = derive_stream(54, "anti1")
    a = sample_projective(1, rng)
    assert projective_defect(antipodal_cp1(antipodal_cp1(a)), a) <= 1e-9
    assert projective_defect(antipodal_cp1(a), a) > 1e-9


def _domain_sample(space, rng):
    if isinstance(space, BoxSpace):
        z = rng.standard_normal(space.dim // 2) + 1j * rng.standard_normal(space.dim // 2)
        z *= 0.4 / np.linalg.norm(z)
        return realify(z)
    if isinstance(space, CotangentSpace):
        return sample_disc_bundle(space.n, space.base_radius, 0.9, rng)
    if isinstance(space, ProjectiveSpace):
        return sample_projective(space.n, rng)
    if isinstance(space, ProductSpace):
        return (_domain_sample(space.left, rng), _domain_sample(space.right, rng))
    raise AssertionError(f"unexpected space {space}")


def test_catalog_maps_agree_with_coarser_differences():
    # jacobian-action consistency: a chord at step 3e-4 reproduces the
    # differential at the default step within 1e-6, for the construction's
    # six maps at n = 2 and r = sqrt(2)
    rng = derive_stream(55, "catalog")
    n = 2
    p1 = ProjectiveSpace(1)
    catalog = {
        "ball-embedding": ball_embedding(n, ROOT2),
        "cotangent-embedding": SmoothMap(CotangentSpace(n, 1.0), ProjectiveSpace(n + 1), cotangent_to_quadric),
        "branched-cover": branched_cover_map(n),
        "deck": SmoothMap(ProjectiveSpace(n + 1), ProjectiveSpace(n + 1), deck),
        "segre-unitary": segre_map(),
        "factor-swap": SmoothMap(ProductSpace(p1, p1), ProductSpace(p1, p1), lambda pair: (pair[1], pair[0])),
    }
    for name, smooth in catalog.items():
        for _ in range(5):
            x = _domain_sample(smooth.domain, rng)
            v = rng.standard_normal(smooth.domain.ambient)
            v /= np.linalg.norm(v)
            fine = smooth.differential(x, v)
            coarse = dataclasses.replace(smooth, step=3e-4).differential(x, v)
            assert np.max(np.abs(fine - coarse)) < 1e-6, name


def test_batched_maps_match_single_points_row_by_row():
    # a leading batch axis gives, row by row, the single-point value of each map
    rng = derive_stream(3, "batched-maps")
    zs = np.array([0.6 * sample_projective(2, rng).rep for _ in range(5)])
    balls = ball_to_projective(zs, 1.0)
    ups = proj_normalize(np.array([sample_projective(3, rng).rep for _ in range(5)]))
    covers = branched_cover(ups)
    a = proj_normalize(np.array([sample_projective(1, rng).rep for _ in range(5)]))
    b = proj_normalize(np.array([sample_projective(1, rng).rep for _ in range(5)]))
    segres = segre_unitary(a, b)
    assert np.allclose(quadric_residual(segres), 0.0, atol=1e-15)
    for i in range(5):
        assert projective_defect(proj_normalize(balls.rep[i]), ball_to_projective(zs[i], 1.0)) < 1e-15
        single_cover = branched_cover(proj_normalize(ups.rep[i]))
        assert projective_defect(proj_normalize(covers.rep[i]), single_cover) < 1e-15
        pair = (proj_normalize(a.rep[i]), proj_normalize(b.rep[i]))
        assert projective_defect(proj_normalize(segres.rep[i]), segre_unitary(*pair)) < 1e-15


def test_batched_maps_keep_their_guards():
    outside = np.zeros((3, 2), dtype=complex)
    outside[1, 0] = 1.5
    with pytest.raises(ValueError, match="outside the open ball"):
        ball_to_projective(outside, 1.0)
    reps = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="center point"):
        branched_cover(proj_normalize(reps))
