"""Finite differences, seeded streams, and quadrature."""

import numpy as np
import pytest

from quadcover.forms import BoxSpace, SmoothMap
from quadcover.numerics import (
    ToleranceProfile,
    complexify,
    derive_stream,
    gauss_legendre_2d,
    realify,
)


def jacobian(f, x, h=1e-5):
    """Central-difference Jacobian of f: R^m -> R^k, one SmoothMap.differential per axis."""
    x = np.asarray(x, dtype=float)
    smooth = SmoothMap(domain=BoxSpace(x.size), target=BoxSpace(np.size(f(x))), func=f, step=h)
    return np.stack([smooth.differential(x, e) for e in np.eye(x.size)], axis=1)


def test_jacobian_linear_map_is_exact_up_to_rounding():
    rng = derive_stream(0, "jac-linear")
    a = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    jac = jacobian(lambda v: a @ v, x, h=1e-5)
    assert np.max(np.abs(jac - a)) < 1e-9


def test_jacobian_square_at_three():
    jac = jacobian(lambda v: np.array([v[0] ** 2]), np.array([3.0]), h=1e-5)
    assert abs(jac[0, 0] - 6.0) < 1e-9


def test_jacobian_of_ball_lift_at_origin_matches_hand_derivative():
    # lift x -> (z, i sqrt(r^2 - |z|^2)) in real coordinates; at z = 0 the
    # square-root block has vanishing derivative and the z block is identity
    n, r = 1, np.sqrt(2.0)

    def lift(x):
        z = complexify(x)
        w = 1j * np.sqrt(r**2 - np.vdot(z, z).real)
        return realify(np.concatenate([z, [w]]))

    jac = jacobian(lift, np.zeros(2 * (n + 1)), h=1e-5)
    expected = np.zeros((2 * (n + 2), 2 * (n + 1)))
    # real parts of z: rows 0..n; imaginary parts: rows n+2 .. 2n+2
    expected[:n + 1, :n + 1] = np.eye(n + 1)
    expected[n + 2 : 2 * n + 3, n + 1 :] = np.eye(n + 1)
    assert np.max(np.abs(jac - expected)) < 1e-8
    # the two rows of the last complex coordinate are identically zero
    assert np.max(np.abs(jac[n + 1])) < 1e-9
    assert np.max(np.abs(jac[2 * n + 3])) < 1e-9


def test_jacobian_names_offending_offset_on_domain_exit():
    def f(x):
        if x[0] > 1.0:
            raise ValueError("out of domain")
        return x

    with pytest.raises(ValueError, match=r"x \+ 1e-05\*v: out of domain"):
        jacobian(f, np.array([1.0 - 1e-6, 0.0]), h=1e-5)


def test_jacobian_chain_rule_within_ten_h_squared():
    h = 1e-5
    rng = derive_stream(3, "jac-chain")
    for _ in range(5):
        a1 = rng.standard_normal((3, 3))
        a2 = rng.standard_normal((3, 3))
        b1 = 0.5 * rng.standard_normal((3, 3))
        b2 = 0.5 * rng.standard_normal((3, 3))

        def f(x):
            return a1 @ x + 0.1 * np.sin(b1 @ x)

        def g(y):
            return a2 @ y + 0.1 * np.sin(b2 @ y)

        x = rng.standard_normal(3)
        composed = jacobian(lambda v: g(f(v)), x, h)
        chained = jacobian(g, f(x), h) @ jacobian(f, x, h)
        assert np.max(np.abs(composed - chained)) < 10 * h**2


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


def test_quadrature_rejects_single_node():
    with pytest.raises(ValueError):
        gauss_legendre_2d(lambda u, v: 1.0, 0, 1, 0, 1, 1)


def test_tolerance_profile_validation():
    with pytest.raises(ValueError):
        ToleranceProfile(fd_step=-1e-5)
    with pytest.raises(ValueError):
        ToleranceProfile(fd_step=1e-2)
    with pytest.raises(ValueError):
        ToleranceProfile(residual_tol=0.0)


def test_realify_complexify_roundtrip():
    rng = derive_stream(5, "pair")
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(complexify(realify(z)), z)
    with pytest.raises(ValueError):
        complexify(np.zeros(3))
    # a complex vector would lose its imaginary part in the float cast
    with pytest.raises(ValueError, match="complex"):
        complexify(z)
