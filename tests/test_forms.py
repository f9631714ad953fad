"""Two-forms, pullbacks, the pushed-down form, surface integration."""

import numpy as np
import pytest

from quadcover.cotangent import CotangentPoint, sample_disc_bundle, sample_tangent
from quadcover.forms import (
    BranchLocusError,
    SmoothMap,
    _ambient,
    _omega_std_ambient,
    fubini_study_form,
    integrate_surface,
    omega_r,
    product_form,
    pullback,
    scaled_form,
)
from quadcover.maps import ball_embedding, quadric_fiber
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


def test_omega_std_canonical_pairs():
    e1x = np.array([1.0, 0, 0, 0])
    e1y = np.array([0, 0, 1.0, 0])
    e2y = np.array([0, 0, 0, 1.0])
    assert _omega_std_ambient(e1x, e1y) == 1.0
    assert _omega_std_ambient(e1x, e1x) == 0.0
    assert _omega_std_ambient(e1x, e2y) == 0.0


def test_omega_std_bilinear_antisymmetric_on_random_inputs():
    rng = derive_stream(31, "std")
    omega = _omega_std_ambient
    for _ in range(20):
        v1, v2, v3 = (rng.standard_normal(6) for _ in range(3))
        a, b = rng.standard_normal(2)
        assert abs(omega(v1, v2) + omega(v2, v1)) < 1e-10
        lin = omega(a * v1 + b * v3, v2)
        assert abs(lin - a * omega(v1, v2) - b * omega(v3, v2)) < 1e-10


def test_omega_fs_at_standard_point():
    point = proj_normalize(np.array([1.0, 0.0], dtype=complex))
    u = realify(horizontal_project(point, np.array([0.0, 1.0], dtype=complex)))
    v = realify(horizontal_project(point, np.array([0.0, 1j])))
    omega_fs = fubini_study_form()
    assert abs(omega_fs(point, u, v) - 1.0) < 1e-12
    assert omega_fs(point, u, u) == 0.0


def test_omega_fs_is_gauge_independent():
    rng = derive_stream(32, "fsgauge")
    point = sample_projective(2, rng)
    u = sample_horizontal(point, rng)
    v = sample_horizontal(point, rng)
    omega_fs = fubini_study_form()
    base_value = omega_fs(point, realify(u), realify(v))
    phase = np.exp(0.7j)
    rotated = ProjectivePoint(rep=phase * point.rep)
    ur = realify(phase * u)
    vr = realify(phase * v)
    assert abs(omega_fs(rotated, ur, vr) - base_value) < 1e-10


def test_fubini_study_matches_affine_chart_formula():
    # cross-check the horizontal-lift definition once against the closed
    # chart expression: pullback under (x, y) -> [1 : x + iy] equals
    # 1 / (1 + x^2 + y^2)^2 on coordinate directions
    chart = SmoothMap(lambda x: proj_normalize(np.stack([1.0, x[0] + 1j * x[1]])))
    form = fubini_study_form()
    rng = derive_stream(34, "chart")
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for _ in range(25):
        x = rng.uniform(-2, 2, size=2)
        value = pullback(chart, form, x, e1, e2)
        expected = 1.0 / (1.0 + x @ x) ** 2
        assert abs(value - expected) < 1e-15


def test_pullback_along_identity_map():
    rng = derive_stream(35, "ident")
    identity = SmoothMap(lambda p: p)
    point = sample_projective(2, rng)
    u = realify(sample_horizontal(point, rng))
    v = realify(sample_horizontal(point, rng))
    value = pullback(identity, fubini_study_form(), point, u, v)
    assert abs(value - fubini_study_form()(point, u, v)) < 1e-9


def test_pullback_ball_embedding_at_origin():
    # phi^*(2 omega_FS) = (2 / r^2) omega_std = omega_std at r = sqrt(2)
    r = np.sqrt(2.0)
    emb = ball_embedding(r)
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 1.0])
    value = pullback(emb, scaled_form(fubini_study_form(), 2.0), np.zeros(2), v1, v2)
    assert abs(value - 1.0) < 1e-9


def test_smooth_map_differential_is_linear():
    rng = derive_stream(36, "lin")
    emb = ball_embedding(2.0)
    x = realify(0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
    v1 = rng.standard_normal(4)
    v2 = rng.standard_normal(4)
    a, b = 0.7, -1.3
    _, (combo, w1, w2) = emb.differential(x, np.stack([a * v1 + b * v2, v1, v2]))
    assert np.max(np.abs(combo - (a * w1 + b * w2))) < 1e-14


def test_smooth_map_differential_refuses_tangents_of_the_wrong_shape():
    # k tangents of a point of R^4 have shape (k, 4); one tangent without its k axis is refused
    with pytest.raises(ValueError, match=r"expected tangents of shape \(k,\) \+ \(4,\), got \(4,\)"):
        ball_embedding(2.0).differential(np.zeros(4), np.ones(4))


def test_ambient_length_of_an_array_and_of_a_nested_pair():
    rep = proj_normalize(np.array([1.0, 1j, 0.0])).rep
    m = CotangentPoint(p=np.array([1.0, 0.0]), q=np.array([0.0, 0.5]))
    assert _ambient(np.zeros((5, 3))) == 3
    # a pair's length is the sum of its factors', a pair among them included
    assert _ambient((ProjectivePoint(rep), (np.zeros(4), m))) == 6 + 4 + 4


def test_omega_r_sheet_independence_and_antisymmetry():
    rng = derive_stream(37, "omr")
    for _ in range(20):
        point = sample_projective(2, rng)
        if abs(np.sum(point.rep * point.rep)) < 1e-2:
            continue
        v1 = realify(sample_horizontal(point, rng))
        v2 = realify(sample_horizontal(point, rng))
        up = omega_r(point, v1, v2, 1.3, sheet=+1)
        down = omega_r(point, v1, v2, 1.3, sheet=-1)
        assert abs(up - down) < 1e-8
        assert abs(omega_r(point, v1, v1, 1.3)) < 1e-9
        assert abs(omega_r(point, v2, v1, 1.3) + up) < 1e-9


def test_omega_r_linear_in_each_slot():
    rng = derive_stream(38, "omrlin")
    point = sample_projective(2, rng)
    v1 = realify(sample_horizontal(point, rng))
    v2 = realify(sample_horizontal(point, rng))
    v3 = realify(sample_horizontal(point, rng))
    a, b = 0.9, -0.4
    lhs = omega_r(point, a * v1 + b * v3, v2, 0.8)
    rhs = a * omega_r(point, v1, v2, 0.8) + b * omega_r(point, v3, v2, 0.8)
    assert abs(lhs - rhs) < 1e-9


def test_omega_r_standard_point_preimages():
    point = proj_normalize(np.array([1.0, 0, 0], dtype=complex))
    *fiber, count = quadric_fiber(point)
    assert count == 2
    expected = [
        proj_normalize(np.array([1.0, 0, 0, 1j])),
        proj_normalize(np.array([1.0, 0, 0, -1j])),
    ]
    matched = {i for f in fiber for i, e in enumerate(expected) if projective_defect(f, e) <= 1e-9}
    assert matched == {0, 1}


def test_omega_r_raises_on_branch_locus():
    on_quadric = proj_normalize(np.array([1.0, 1j, 0.0]))
    v = sample_horizontal(on_quadric, derive_stream(39, "bl"))
    with pytest.raises(BranchLocusError):
        omega_r(on_quadric, realify(v), realify(1j * v), 1.0)


def test_integrate_surface_constant_param_is_zero():
    fixed = proj_normalize(np.array([1.0, 1.0], dtype=complex))
    param = SmoothMap(lambda x: fixed)
    assert abs(integrate_surface(param, fubini_study_form(), ((0.0, 1.0), (0.0, 1.0)), nodes=8)) < 1e-12


# the charts of the period checks, each with a form on its target
PERIOD_CHARTS = [
    ("_sphere_chart", fubini_study_form()),
    ("_conic_chart", scaled_form(fubini_study_form(), 2.0)),
    (
        "_diagonal_chart",
        product_form(scaled_form(fubini_study_form(), 3.0), scaled_form(fubini_study_form(), 3.0)),
    ),
]


def _reps(point):
    # the representative of a projective point, or both of a pair side by side
    return np.concatenate([_reps(p) for p in point], axis=-1) if isinstance(point, tuple) else point.rep


@pytest.mark.parametrize("chart_name, form", PERIOD_CHARTS)
def test_integrate_surface_rows_match_node_by_node(monkeypatch, chart_name, form):
    # the period charts are evaluated on blocks of whole quadrature rows; each
    # value of a block must be the value of its own node, never a mix across
    # the batch. Three rows a block gives blocks of 3, 3 and 2 rows.
    import quadcover.forms as forms_module
    from quadcover import checks, numerics

    nodes = 8
    monkeypatch.setattr(numerics, "CHUNK_ROWS", 3 * nodes)
    chart = getattr(checks, chart_name)()
    calls = []
    counted = SmoothMap(lambda x: calls.append(x.shape[0]) or chart(x))
    blocks = []
    original = forms_module.gauss_legendre_2d

    def recording(g, *args, **kwargs):
        def block(u, v):
            vals = g(u, v)
            blocks.append((u.copy(), v.copy(), np.broadcast_to(vals, u.shape).copy()))
            return vals

        return original(block, *args, **kwargs)

    monkeypatch.setattr(forms_module, "gauss_legendre_2d", recording)
    integrate_surface(counted, form, checks._CHART_BOUNDS, nodes)
    # one jet pass of the chart per block of whole rows
    assert [len(u) for u, _, _ in blocks] == [24, 24, 16]
    assert calls == [24, 24, 16]
    lo, hi = np.transpose(checks._CHART_BOUNDS)
    xs = np.polynomial.legendre.leggauss(nodes)[0]
    us = 0.5 * (hi[0] - lo[0]) * xs + 0.5 * (lo[0] + hi[0])
    vs = 0.5 * (hi[1] - lo[1]) * xs + 0.5 * (lo[1] + hi[1])
    assert np.array_equal(np.concatenate([u for u, _, _ in blocks]), np.repeat(us, nodes))
    assert np.array_equal(np.concatenate([v for _, v, _ in blocks]), np.tile(vs, nodes))
    for u, v, vals in blocks:
        # the block's points and pushforwards too: the integrands of the
        # sphere and diagonal charts depend on u alone, so a shuffled row
        # hides in vals
        batch = np.column_stack([u, v])
        block_point, (block_du, block_dv) = chart.differential(batch, np.eye(2)[:, None, :])
        for j in range(len(u)):
            x = np.array([u[j], v[j]])
            point, (du, dv) = chart.differential(x, np.eye(2))
            assert np.max(np.abs(_reps(block_point)[j] - _reps(point))) < 1e-15
            assert np.max(np.abs(block_du[j] - du)) < 1e-15
            assert np.max(np.abs(block_dv[j] - dv)) < 1e-15
            assert abs(vals[j] - form(point, du, dv)) < 1e-15


@pytest.mark.parametrize("chart_name, form", PERIOD_CHARTS)
def test_integrate_surface_total_does_not_depend_on_the_block_size(monkeypatch, chart_name, form):
    # row arithmetic in the charts and forms, one reduction per row and the
    # rows summed in order: one row a block, three rows a block (the last
    # block short) and all rows in one block give the same bits
    from quadcover import checks, numerics

    nodes = 20
    chart = getattr(checks, chart_name)()
    totals = []
    for chunk in (1, 3 * nodes, nodes * nodes):
        monkeypatch.setattr(numerics, "CHUNK_ROWS", chunk)
        totals.append(integrate_surface(chart, form, checks._CHART_BOUNDS, nodes))
    assert totals[0] == totals[1] == totals[2]


@pytest.mark.parametrize("chunk", [1, 7, 1024])
@pytest.mark.parametrize("chart_name, form", PERIOD_CHARTS)
def test_integrate_surface_gives_each_of_k_forms_the_bits_of_its_own_call(monkeypatch, chunk, chart_name, form):
    # K forms share each block's jet pass, one pass a block, and each
    # integral is the integral of its form alone
    from quadcover import checks, numerics

    monkeypatch.setattr(numerics, "CHUNK_ROWS", chunk)
    nodes = 12
    chart = getattr(checks, chart_name)()
    passes = []
    counted = SmoothMap(lambda x: passes.append(x.shape[0]) or chart(x))
    forms = [scaled_form(form, c) for c in (0.5, 1.0, 3.0)] + [form]
    totals = integrate_surface(counted, forms, checks._CHART_BOUNDS, nodes)
    per_block = max(1, chunk // nodes)
    assert passes == [min(per_block, nodes - lo) * nodes for lo in range(0, nodes, per_block)]
    assert totals == [integrate_surface(chart, f, checks._CHART_BOUNDS, nodes) for f in forms]
    assert totals[1] != totals[2]


def test_even_rescale_pullback_preserves_omega_std():
    from quadcover.cotangent import even_rescale
    from quadcover.forms import cotangent_omega_std

    rng = derive_stream(40, "resc")
    r = 2.5
    rescale = SmoothMap(lambda m: even_rescale(m, r))
    omega = cotangent_omega_std()
    for _ in range(10):
        m = sample_disc_bundle(2, 1.0, r, rng)
        v1 = sample_tangent(m, rng)
        v2 = sample_tangent(m, rng)
        value = pullback(rescale, omega, m, v1, v2)
        assert abs(value - _omega_std_ambient(v1, v2)) < 1e-9


def test_cotangent_space_rows_match_single_points():
    # a seeded batch pushes forward row by row, as each point alone
    from quadcover.cotangent import even_rescale

    rng = derive_stream(42, "cot-rows")
    rescale = SmoothMap(lambda m: even_rescale(m, 2.25))
    m = sample_disc_bundle(2, 1.0, 1.0, rng, size=5)
    vs = np.stack([sample_tangent(m, rng) for _ in range(3)])
    image, w = rescale.differential(m, vs)
    assert w.shape == (3, 5, 6)
    for i in range(5):
        single = CotangentPoint(p=m.p[i], q=m.q[i])
        one, w_one = rescale.differential(single, vs[:, i])
        assert np.array_equal(image.p[i], one.p) and np.array_equal(image.q[i], one.q)
        assert one.base_radius == image.base_radius == 1.5
        assert np.array_equal(w[:, i], w_one)
        # (p, q) -> (1.5 p, q / 1.5) pushes (u, w) forward to (1.5 u, w / 1.5)
        assert np.max(np.abs(w_one - np.concatenate([1.5 * vs[:, i, :3], vs[:, i, 3:] / 1.5], axis=-1))) < 1e-15


def test_pullback_evaluates_the_map_once():
    calls = []
    emb = ball_embedding(1.0)

    def counting(x):
        calls.append(x)
        return emb(x)

    counted = SmoothMap(counting)
    x = np.array([0.1, 0.2, 0.3, -0.1])
    pullback(counted, fubini_study_form(), x, np.eye(4)[0], np.eye(4)[1])
    # one jet pass gives the center and both pushforwards
    assert len(calls) == 1


def test_omega_r_rows_match_single_points():
    rng = derive_stream(4, "omega-r-rows")
    points, v1s, v2s = [], [], []
    while len(points) < 6:
        point = sample_projective(2, rng)
        if abs(quadric_residual(point)) > 0.1:
            points.append(point)
            v1s.append(realify(sample_horizontal(point, rng)))
            v2s.append(realify(sample_horizontal(point, rng)))
    batch = ProjectivePoint(rep=np.array([p.rep for p in points]))
    values = omega_r(batch, np.array(v1s), np.array(v2s), 0.7)
    assert values.shape == (6,)
    for i, point in enumerate(points):
        assert abs(values[i] - omega_r(point, v1s[i], v2s[i], 0.7)) < 1e-14
    near = np.array([points[0].rep, proj_normalize(np.array([1.0, 1j, 1e-4])).rep])
    with pytest.raises(BranchLocusError):
        omega_r(ProjectivePoint(rep=near), np.array(v1s[:2]), np.array(v2s[:2]), 0.7)
