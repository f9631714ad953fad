"""Exact Jacobians from jets, seeded streams, and quadrature."""

import numpy as np
import pytest
from fd_oracle import central_difference

from quadcover.forms import SmoothMap
from quadcover.jets import Jet
from quadcover.numerics import (
    complexify,
    derive_stream,
    gauss_legendre_2d,
    realify,
)


def jacobian(f, x):
    """Jacobian of f: R^m -> R^k from one SmoothMap.differential of all m coordinate axes."""
    x = np.asarray(x, dtype=float)
    _, columns = SmoothMap(f).differential(x, np.eye(x.size))
    return columns.T


def difference_jacobian(f, x, h=1e-5):
    """The same Jacobian from the central-difference oracle, one axis at a time."""
    x = np.asarray(x, dtype=float)
    return np.stack([central_difference(SmoothMap(f), x, e, h) for e in np.eye(x.size)], axis=1)


def _linear(a):
    return lambda v: np.einsum("...j,...ij->...i", v, a)


def test_jacobian_linear_map_is_exact_up_to_rounding():
    rng = derive_stream(0, "jac-linear")
    a = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    assert np.array_equal(jacobian(_linear(a), x), a)
    assert np.max(np.abs(difference_jacobian(_linear(a), x) - a)) < 1e-9


def test_jacobian_square_at_three():
    jac = jacobian(lambda v: v * v, np.array([3.0]))
    assert jac[0, 0] == 6.0


def test_jacobian_of_ball_lift_at_origin_matches_hand_derivative():
    # lift x -> (z, i sqrt(r^2 - |z|^2)) in real coordinates; at z = 0 the
    # square-root block has vanishing derivative and the z block is identity
    n, r = 1, np.sqrt(2.0)

    def lift(x):
        z = complexify(x)
        w = 1j * np.sqrt(r**2 - np.einsum("...i,...i->...", x, x))[..., None]
        return realify(np.concatenate([z, w], axis=-1))

    jac = jacobian(lift, np.zeros(2 * (n + 1)))
    expected = np.zeros((2 * (n + 2), 2 * (n + 1)))
    # real parts of z: rows 0..n; imaginary parts: rows n+2 .. 2n+2
    expected[:n + 1, :n + 1] = np.eye(n + 1)
    expected[n + 2 : 2 * n + 3, n + 1 :] = np.eye(n + 1)
    assert np.array_equal(jac, expected)
    assert np.max(np.abs(difference_jacobian(lift, np.zeros(2 * (n + 1))) - expected)) < 1e-9


def test_jacobian_of_a_conjugating_map_matches_the_difference():
    # conj(z) is not holomorphic, so a complex step would get it wrong; the
    # jet differentiates it as the real-linear map it is
    def f(x):
        z = complexify(x)
        return realify(np.conj(z) * z * z + np.exp(1j * z.conj()) * np.sqrt(2.0 + z))

    x = derive_stream(4, "jac-conj").standard_normal(4) * 0.3
    assert np.max(np.abs(jacobian(f, x) - difference_jacobian(f, x))) < 1e-8


def test_jacobian_of_a_constant_over_a_jet_matches_the_difference():
    # constant / jet: the quotient rule with no tangent on the numerator
    def f(x):
        return 3.0 / (2.0 + x * x)

    x = np.array([0.3, -0.7])
    assert np.max(np.abs(jacobian(f, x) - difference_jacobian(f, x))) < 1e-9


def test_a_jet_refuses_what_it_cannot_differentiate():
    jet = Jet(np.ones(3), np.zeros((2, 3)))
    # turned into a plain array it would lose its tangents
    with pytest.raises(TypeError, match="does not convert to an array"):
        np.asarray(jet)
    # a ufunc without a chain rule returns NotImplemented, which numpy raises
    with pytest.raises(TypeError):
        np.tan(jet)
    # the k axis of a tangent joins the batch axes under a leading "..."
    with pytest.raises(NotImplementedError, match="'...' leading every term"):
        np.einsum("i,i->", jet, np.ones(3))


def test_differential_raises_where_the_map_does():
    def f(x):
        if (x[..., 0] > 1.0).any():
            raise ValueError("out of domain")
        return x

    assert np.array_equal(jacobian(f, np.array([1.0 - 1e-6, 0.0])), np.eye(2))
    with pytest.raises(ValueError, match="out of domain"):
        jacobian(f, np.array([1.0 + 1e-6, 0.0]))


def test_jacobian_chain_rule_within_ten_h_squared():
    # the exact Jacobian of a composition is the product of the exact
    # Jacobians, and the central difference at step h agrees within 10 h^2
    h = 1e-5
    rng = derive_stream(3, "jac-chain")
    for _ in range(5):
        a1 = rng.standard_normal((3, 3))
        a2 = rng.standard_normal((3, 3))
        b1 = 0.5 * rng.standard_normal((3, 3))
        b2 = 0.5 * rng.standard_normal((3, 3))

        def f(x):
            return _linear(a1)(x) + 0.1 * np.sin(_linear(b1)(x))

        def g(y):
            return _linear(a2)(y) + 0.1 * np.sin(_linear(b2)(y))

        x = rng.standard_normal(3)
        composed = jacobian(lambda v: g(f(v)), x)
        chained = jacobian(g, f(x)) @ jacobian(f, x)
        assert np.max(np.abs(composed - chained)) < 1e-14
        assert np.max(np.abs(composed - difference_jacobian(lambda v: g(f(v)), x, h))) < 10 * h**2


def test_streams_are_reproducible_over_long_prefixes():
    a = derive_stream(42, "stream")
    b = derive_stream(42, "stream")
    assert np.array_equal(a.standard_normal(10_000), b.standard_normal(10_000))


def test_distinct_seeds_and_names_give_distinct_streams():
    base = derive_stream(42, "x").standard_normal(4)
    other_seed = derive_stream(43, "x").standard_normal(4)
    other_name = derive_stream(42, "y").standard_normal(4)
    assert not np.array_equal(base, other_seed)
    assert not np.array_equal(base, other_name)


def test_quadrature_constant_is_exact():
    assert abs(gauss_legendre_2d(lambda u, v: 1.0, 0, 1, 0, 1, 8) - 1.0) < 1e-14


def test_quadrature_sin_slab():
    val = gauss_legendre_2d(lambda u, v: np.sin(u), 0, np.pi, 0, 1, 50)
    assert abs(val - 2.0) < 1e-12


def test_quadrature_round_sphere_area_radius_half():
    # oracle for the projective-line period: area of the radius-1/2 sphere
    val = gauss_legendre_2d(lambda t, p: 0.25 * np.sin(t), 0, np.pi, 0, 2 * np.pi, 200)
    assert abs(val - np.pi) < 1e-8


def test_quadrature_doubling_nodes_gains_an_order_until_floor():
    exact = (np.e - 1.0) * np.sin(0.5)
    errors = [
        abs(gauss_legendre_2d(lambda u, v: np.exp(u) * np.cos(v), 0, 1, 0, 0.5, k) - exact)
        for k in (2, 4, 8, 16)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        if coarse < 1e-14:
            break
        assert fine < coarse / 10.0


def test_quadrature_propagates_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        gauss_legendre_2d(lambda u, v: np.inf, 0, 1, 0, 1, 4)


def test_quadrature_names_first_non_finite_node_of_a_row():
    def g(u, vs):
        vals = np.ones_like(vs)
        vals[2:] = np.nan
        return vals

    xs = np.polynomial.legendre.leggauss(4)[0]
    with pytest.raises(ValueError, match=rf"non-finite value nan at \({xs[0]}, {xs[2]}\)"):
        gauss_legendre_2d(g, -1, 1, -1, 1, 4)


@pytest.mark.parametrize("chunk, nodes, sizes", [(7, 3, [6, 3]), (8, 4, [8, 8]), (10, 12, [12] * 12)])
def test_quadrature_calls_the_integrand_on_blocks_of_whole_rows(monkeypatch, chunk, nodes, sizes):
    # max(1, CHUNK_ROWS // nodes) rows a call, the last block possibly short,
    # so no call sees more than max(CHUNK_ROWS, nodes) nodes
    from quadcover import numerics

    seen = []

    def g(u, v):
        seen.append(u.size)
        assert u.shape == v.shape
        return np.exp(u) * np.cos(v)

    one_block = gauss_legendre_2d(g, 0, 1, 0, 0.5, nodes)
    monkeypatch.setattr(numerics, "CHUNK_ROWS", chunk)
    seen.clear()
    assert gauss_legendre_2d(g, 0, 1, 0, 0.5, nodes) == one_block
    assert seen == sizes


@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_a_k_valued_integrand_gives_each_component_the_bits_of_its_own_call(monkeypatch, chunk):
    # one reduction per row and component, never one product over the K
    # components, so each total is the total of that component alone
    from quadcover import numerics

    monkeypatch.setattr(numerics, "CHUNK_ROWS", chunk)
    parts = [lambda u, v: np.exp(u) * np.cos(v), lambda u, v: np.sin(3.0 * u * v), lambda u, v: u * u - v]
    totals = gauss_legendre_2d(lambda u, v: np.stack([f(u, v) for f in parts]), 0, 1, 0, 0.5, 9)
    assert totals == [gauss_legendre_2d(f, 0, 1, 0, 0.5, 9) for f in parts]
    # one component on a leading axis is a list of one total
    assert gauss_legendre_2d(lambda u, v: parts[1](u, v)[None], 0, 1, 0, 0.5, 9) == totals[1:2]


@pytest.mark.parametrize("k", [0, 2])
def test_a_non_finite_value_in_any_component_names_its_node(k):
    # node 6 of a 4 x 4 rule is the second node on [a, b] with the third on
    # [c, d]; another component turns non-finite only at node 9
    def g(u, v):
        vals = np.ones((3, u.size))
        vals[k, 6:] = np.nan
        vals[(k + 1) % 3, 9] = np.inf
        return vals

    xs = np.polynomial.legendre.leggauss(4)[0]
    with pytest.raises(ValueError, match=rf"non-finite value nan at \({xs[1]}, {xs[2]}\)"):
        gauss_legendre_2d(g, -1, 1, -1, 1, 4)


def test_each_legendre_rule_is_computed_once_and_read_only(monkeypatch):
    from quadcover import numerics

    calls, leggauss = [], np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
    numerics._legendre_rule.cache_clear()
    totals = {gauss_legendre_2d(lambda u, v: np.exp(u) * np.cos(v), 0, 1, 0, 0.5, 9) for _ in range(3)}
    assert calls == [9] and len(totals) == 1
    xs, wx = numerics._legendre_rule(9)
    assert np.array_equal(xs, leggauss(9)[0]) and np.array_equal(wx, leggauss(9)[1])
    with pytest.raises(ValueError, match="read-only"):
        wx[0] = 0.0


def test_quadrature_rejects_single_node():
    with pytest.raises(ValueError):
        gauss_legendre_2d(lambda u, v: 1.0, 0, 1, 0, 1, 1)


def test_realify_complexify_roundtrip():
    rng = derive_stream(5, "pair")
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(complexify(realify(z)), z)
    with pytest.raises(ValueError):
        complexify(np.zeros(3))
    # a complex vector would lose its imaginary part in the float cast
    with pytest.raises(ValueError, match="complex"):
        complexify(z)
