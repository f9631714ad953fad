"""The explicit maps: embeddings, cover, deck, Segre twist, locus classifiers."""

import numpy as np
import pytest
from fd_oracle import central_difference

from quadcover.cotangent import (
    CotangentPoint,
    OffBundleError,
    antipode,
    sample_cosphere,
    sample_disc_bundle,
    sample_tangent,
)
from quadcover.dynamics import scalar_action
from quadcover.forms import (
    SmoothMap,
    _omega_std_ambient,
    fubini_study_form,
    omega_r,
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
    real_defect,
    segre_map,
    segre_unitary,
)
from quadcover.numerics import derive_stream, realify, row_norms
from quadcover.projective import (
    ProjectivePoint,
    horizontal_project,
    proj_normalize,
    projective_defect,
    quadric_residual,
    sample_horizontal,
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
    emb = ball_embedding(r)
    form = scaled_form(fubini_study_form(), r * r)
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
        assert abs(image.rep[3]) > 1e-10


def test_embedding_is_injective_on_samples():
    rng = derive_stream(43, "inj")
    a = cotangent_to_quadric(sample_disc_bundle(2, 1.0, 1.0, rng))
    b = cotangent_to_quadric(sample_disc_bundle(2, 1.0, 1.0, rng))
    assert projective_defect(a, b) > 1e-9


def test_embedding_rejects_invalid_points():
    with pytest.raises(OffBundleError, match="unit base"):
        cotangent_to_quadric(
            CotangentPoint(p=np.array([2.0, 0.0]), q=np.zeros(2), base_radius=2.0)
        )
    with pytest.raises(OffBundleError, match="open disc"):
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
    assert abs(image.rep[3]) <= 1e-10


def test_cosphere_boundary_requires_unit_fiber():
    with pytest.raises(OffBundleError, match=r"\|q\| = 1"):
        cosphere_boundary(CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 0.5])))


def test_cosphere_boundary_requires_the_unit_base_sphere():
    m = CotangentPoint(p=np.array([2.0, 0.0]), q=np.array([0.0, 1.0]), base_radius=2.0)
    with pytest.raises(OffBundleError, match="unit base sphere"):
        cosphere_boundary(m)


def test_boundary_map_and_embedding_rows_match_single_points():
    rng = derive_stream(47, "rows")
    for sampler, embed in ((sample_cosphere, cosphere_boundary), (sample_disc_bundle, cotangent_to_quadric)):
        m = sampler(2, 1.0, 1.0, rng, size=6)
        rows = embed(m).rep
        assert rows.shape == (6, 4)
        for i in range(6):
            single = embed(CotangentPoint(p=m.p[i], q=m.q[i])).rep
            assert np.max(np.abs(rows[i] - single)) < 1e-15
        # one row off the bundle fails the whole call
        q = m.q.copy()
        q[3] *= 1.5 if embed is cosphere_boundary else 1.0 / np.linalg.norm(q[3])
        with pytest.raises(OffBundleError):
            embed(CotangentPoint(p=m.p, q=q))


def test_the_open_disc_bound_judges_a_point_alone_as_in_a_batch():
    # |q| is 1.0 by math.hypot and 1 - 2**-53 by row_norms: both paths read
    # the row_norms bits, so the point is inside the open disc either way
    q = np.array([-0.9362295715951175, -0.18702023803429815, -0.29748549516979317])
    p = np.array([-0.19588884334918655, 0.9806261066539672, 0.0])
    rows = cotangent_to_quadric(CotangentPoint(p=np.stack([p, p]), q=np.stack([q, q]))).rep
    for one in (CotangentPoint(p=p, q=q), CotangentPoint(p=p[None], q=q[None])):
        assert np.array_equal(cotangent_to_quadric(one).rep.reshape(-1), rows[0])


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
    *sheets, count = quadric_fiber(generic)
    assert count == 2
    assert projective_defect(*sheets) > 1e-9
    for lift in sheets:
        assert abs(quadric_residual(lift)) < 1e-12
        assert projective_defect(branched_cover(lift), generic) <= 1e-9
    on_quadric = proj_normalize(np.array([1.0, 1j, 0.0]))
    *sheets, count = quadric_fiber(on_quadric)
    assert count == 1
    assert projective_defect(*sheets) <= 1e-15
    # a batch counts row by row
    _, _, counts = quadric_fiber(proj_normalize(np.stack([generic.rep, on_quadric.rep])))
    assert counts.tolist() == [2, 1]


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
    # 2 omega_FS, on CP^3 upstairs and on each CP^1 factor
    target = scaled_form(fubini_study_form(), 2.0)
    expected_form = product_form(target, target)
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
    # a batch gets one label per row
    real = proj_normalize(np.array([1.0, 2.0, 0.5], dtype=complex))
    labels = locus_classify(proj_normalize(np.stack([anti.rep, generic.rep, real.rep, anti.rep])))
    assert labels.tolist() == ["on_RP2", "generic", "on_RP2", "on_RP2"]


def test_antipodal_cp1_is_fixed_point_free_involution():
    rng = derive_stream(54, "anti1")
    a = sample_projective(1, rng)
    assert projective_defect(antipodal_cp1(antipodal_cp1(a)), a) <= 1e-9
    assert projective_defect(antipodal_cp1(a), a) > 1e-9


def _unit(v):
    return v / row_norms(v)[..., None]


# domain samplers: each gives ``size`` points as one batch, and two unit
# tangents at each, stacked (2, size, ambient)


def _in_ball(dim):
    def sample(rng, size):
        z = rng.standard_normal((size, dim // 2)) + 1j * rng.standard_normal((size, dim // 2))
        return realify(0.4 * z / row_norms(z)[:, None]), _unit(rng.standard_normal((2, size, dim)))

    return sample


def _in_rectangle(bounds):
    lo, hi = np.transpose(bounds)
    return lambda rng, size: (rng.uniform(lo, hi, size=(size, 2)), _unit(rng.standard_normal((2, size, 2))))


def _on_bundle(n):
    def sample(rng, size):
        x = sample_disc_bundle(n, 1.0, 0.9, rng, size=size)
        return x, _unit(np.stack([sample_tangent(x, rng) for _ in range(2)]))

    return sample


def _on_projective(n):
    def sample(rng, size):
        x = sample_projective(n, rng, size=size)
        return x, _unit(np.stack([realify(sample_horizontal(x, rng)) for _ in range(2)]))

    return sample


def _on_pair(left, right):
    def sample(rng, size):
        (a, va), (b, vb) = left(rng, size), right(rng, size)
        return (a, b), np.concatenate([va, vb], axis=-1)

    return sample


def _row(point, i):
    """Row i of a batch of points, as a batch of one."""
    if isinstance(point, tuple):
        return tuple(_row(p, i) for p in point)
    if isinstance(point, ProjectivePoint):
        return ProjectivePoint(point.rep[i : i + 1])
    if isinstance(point, CotangentPoint):
        return CotangentPoint(p=point.p[i : i + 1], q=point.q[i : i + 1], base_radius=point.base_radius)
    return point[i : i + 1]


def _arrays(point):
    """The arrays that hold a point, side by side."""
    if isinstance(point, tuple):
        return np.concatenate([_arrays(p) for p in point], axis=-1)
    if isinstance(point, ProjectivePoint):
        return point.rep
    if isinstance(point, CotangentPoint):
        return np.concatenate([point.p, point.q], axis=-1)
    return point


def _smooth_maps(n=2):
    """Every SmoothMap the package builds, the quadric embedding, the deck involution and two factor swaps.

    At n = 2 and r = sqrt(2), each with a sampler of its domain.
    """
    from quadcover import checks

    p1, rectangle = _on_projective(1), _in_rectangle(checks._CHART_BOUNDS)
    swap = SmoothMap(lambda pair: (pair[1], pair[0]))
    return {
        "ball-embedding": (ball_embedding(ROOT2), _in_ball(2 * (n + 1))),
        "cotangent-embedding": (SmoothMap(cotangent_to_quadric), _on_bundle(n)),
        "branched-cover": (branched_cover_map(), _on_projective(n + 1)),
        "deck": (SmoothMap(deck), _on_projective(n + 1)),
        "segre-unitary": (segre_map(), _on_pair(p1, p1)),
        "sphere-chart": (checks._sphere_chart(), rectangle),
        "conic-chart": (checks._conic_chart(), rectangle),
        "diagonal-chart": (checks._diagonal_chart(), rectangle),
        "evened-rescale": (checks._evened_rescale_map(ROOT2), _on_bundle(n)),
        "factor-swap": (swap, _on_pair(p1, p1)),
        # a pair of two kinds: its tangent splits where the cotangent factor's ends
        "cotangent-projective-swap": (swap, _on_pair(_on_bundle(n), _on_projective(n))),
    }


def test_catalog_maps_agree_with_coarser_differences():
    # the exact pushforward of each map against a central difference at
    # step 1e-5, whose O(h^2) truncation and eps / h rounding stay below 1e-6
    for name, (smooth, sample) in _smooth_maps().items():
        x, vs = sample(derive_stream(55, name), 5)
        _, pushed = smooth.differential(x, vs)
        for i in range(5):
            point = _row(x, i)
            for j in range(2):
                chord = central_difference(smooth, point, vs[j, i : i + 1], 1e-5)
                assert np.max(np.abs(pushed[j, i] - chord[0])) < 1e-6, (name, i, j)


@pytest.mark.parametrize("name", sorted(_smooth_maps()))
def test_a_batch_row_pushes_forward_as_the_row_alone(name):
    # value and pushforwards of a row of a batch, bit for bit those of a
    # batch of that one row: a witness replays its pullback alone
    smooth, sample = _smooth_maps()[name]
    x, vs = sample(derive_stream(56, name), 7)
    value, pushed = smooth.differential(x, vs)
    for i in range(7):
        one, pushed_one = smooth.differential(_row(x, i), vs[:, i : i + 1])
        assert np.array_equal(_arrays(one), _arrays(value)[i : i + 1]), (name, i)
        assert np.array_equal(pushed_one, pushed[:, i : i + 1]), (name, i)


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


def _defect_of_halves(z):
    a, b = np.split(z, 2, axis=-1)
    return projective_defect(ProjectivePoint(a), ProjectivePoint(b))


def _segre_of_halves(z):
    a, b = np.split(z, 2, axis=-1)
    return segre_unitary(ProjectivePoint(a), ProjectivePoint(b)).rep


def _fiber_of(z):
    # both sheets of each point side by side, and its count
    plus, minus, count = quadric_fiber(ProjectivePoint(z))
    return np.concatenate([plus.rep, minus.rep, np.expand_dims(count, -1)], axis=-1)


def _locus_mask_of(z):
    # the two values the classifier compares with its tolerance: |sum z^2|, then the real defect
    point = ProjectivePoint(z)
    return np.stack([np.abs(quadric_residual(point)), real_defect(point)], axis=-1)


def _omega_r_of_thirds(z):
    rep, v1, v2 = np.split(z, 3, axis=-1)
    return omega_r(ProjectivePoint(rep), realify(v1), realify(v2), 0.7)


def _horizontal_of_halves(z):
    a, v = np.split(z, 2, axis=-1)
    return horizontal_project(ProjectivePoint(a), v)


def _chart_of(z):
    m = quadric_to_cotangent(ProjectivePoint(z))
    return np.concatenate([m.p, m.q], axis=-1)


# each map as a function of one complex array, a point of width m or a batch
# of rows of width m, with the width it takes at dimension n
TWINS = {
    "proj_normalize": (lambda z: proj_normalize(z).rep, lambda n: n + 1),
    "ball_to_projective": (lambda z: ball_to_projective(z, 1.0).rep, lambda n: n + 1),
    "projective_defect": (_defect_of_halves, lambda n: 2 * (n + 1)),
    "deck": (lambda z: deck(ProjectivePoint(z)).rep, lambda n: n + 2),
    "quadric_to_cotangent": (_chart_of, lambda n: n + 2),
    "segre_unitary": (_segre_of_halves, lambda n: 4),
    "antipodal_cp1": (lambda z: antipodal_cp1(ProjectivePoint(z)).rep, lambda n: 2),
    "quadric_fiber": (_fiber_of, lambda n: n + 1),
    "locus_classify": (_locus_mask_of, lambda n: 3),
    "omega_r": (_omega_r_of_thirds, lambda n: 3 * (n + 1)),
    "horizontal_project": (_horizontal_of_halves, lambda n: 2 * (n + 1)),
    "_omega_std_ambient": (lambda z: _omega_std_ambient(z.real, z.imag), lambda n: 2 * (n + 1)),
}


@pytest.mark.parametrize("name", sorted(TWINS))
def test_batch_rows_and_single_points_give_the_same_bits(name):
    # a row of a batch, a batch of that one row and the point alone agree bit
    # for bit: a witness replayed alone reproduces its residual in the suite
    func, width = TWINS[name]
    rng = derive_stream(13, name)
    for n in range(1, 5):
        z = rng.standard_normal((200, width(n))) + 1j * rng.standard_normal((200, width(n)))
        z *= 0.9 / row_norms(z).max()
        rows = func(z)
        for i in range(len(z)):
            assert np.array_equal(func(z[i]), rows[i]), (n, i)
            assert np.array_equal(func(z[i : i + 1]), rows[i : i + 1]), (n, i)


def test_batched_maps_keep_their_guards():
    outside = np.zeros((3, 2), dtype=complex)
    outside[1, 0] = 1.5
    with pytest.raises(ValueError, match="outside the open ball"):
        ball_to_projective(outside, 1.0)
    reps = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="center point"):
        branched_cover(proj_normalize(reps))
