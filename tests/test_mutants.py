"""Mutation tests: each check must fail, with a witness, on a known-wrong map.

After DeMillo, Lipton & Sayward, "Hints on test data selection" (1978): a
check that still passes once the map it certifies is broken certifies
nothing. Each test patches one wrong map into the modules that call it and
runs the targeted check at its pinned tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest
from fd_oracle import retract

import quadcover.checks as checks_module
import quadcover.dynamics as dynamics_module
import quadcover.maps as maps_module
from quadcover.cotangent import CotangentPoint
from quadcover.dynamics import FlowResult, hamiltonian_vector_field
from quadcover.forms import ProductSpace, TwoForm, scaled_form
from quadcover.numerics import complexify
from quadcover.projective import ProjectivePoint, proj_normalize


def _assert_fails_with_witness(cid, params=None):
    report = checks_module.run_check(cid, params)
    assert not report.passed, (cid, report.max_residual)
    assert report.witness is not None
    # the witness alone reproduces the failure, bit for bit (NaN replays as NaN)
    replay = checks_module.run_check(cid, {"witness": report.witness})
    np.testing.assert_equal(replay.max_residual, report.max_residual)
    return report


def test_ball_embedding_with_r_in_place_of_r_squared(monkeypatch):
    original = maps_module.ball_to_projective
    # z -> [z : i sqrt(r - |z|^2)]: the original map at radius sqrt(r)
    monkeypatch.setattr(maps_module, "ball_to_projective", lambda z, r: original(z, math.sqrt(r)))
    report = _assert_fails_with_witness("L-projemb", {"r": [0.5], "samples": 20})
    assert report.max_residual > 0.1


def _segre_with_flipped_sign(a: ProjectivePoint, b: ProjectivePoint) -> ProjectivePoint:
    # the last entry is xt + ys instead of xt - ys
    x, y = a.rep[..., 0], a.rep[..., 1]
    s, t = b.rep[..., 0], b.rep[..., 1]
    return proj_normalize(
        np.stack([x * s + y * t, 1j * (x * s - y * t), 1j * (x * t + y * s), x * t + y * s], axis=-1)
    )


@pytest.mark.parametrize("cid", ["P-segre-pullback", "P-segre-equivariance"])
def test_segre_twist_with_a_flipped_sign(cid, monkeypatch):
    monkeypatch.setattr(maps_module, "segre_unitary", _segre_with_flipped_sign)
    monkeypatch.setattr(checks_module, "segre_unitary", _segre_with_flipped_sign)
    report = _assert_fails_with_witness(cid, {"samples": 50})
    # the sign flip also leaves the quadric, where P-segre-pullback scores NaN
    assert not report.max_residual <= 0.1


def test_boundary_map_with_a_doubled_fiber(monkeypatch):
    original = maps_module.cosphere_boundary

    def doubled_fiber(m):
        # [p + 2iq : 0], behind the original map's membership guards
        original(m)
        z = m.p + 2j * m.q
        return proj_normalize(np.concatenate([z, np.zeros_like(z[..., :1])], axis=-1))

    monkeypatch.setattr(checks_module, "cosphere_boundary", doubled_fiber)
    report = _assert_fails_with_witness("P-unitcut-boundary", {"samples": 20})
    # the image misses the quadric: sum (p + 2iq)^2 / |p + 2iq|^2 = -3/5
    assert report.max_residual > 0.1


def test_deck_map_flipping_the_wrong_coordinate(monkeypatch):
    def wrong_deck(point):
        # the first homogeneous coordinate of every row, not the last
        rep = point.rep.copy()
        rep[..., 0] = -rep[..., 0]
        return proj_normalize(rep)

    monkeypatch.setattr(checks_module, "deck", wrong_deck)
    report = _assert_fails_with_witness("C-branchedcover-deck", {"samples": 50})
    assert report.max_residual > 0.1


def test_rk2_step_in_place_of_rk4(monkeypatch):
    def rk2_integrate(ham, m, t_final, dt, profile):
        # explicit midpoint rule: second order, so halving the step cuts the
        # error about 4x where the check expects 16x
        point, t = m, 0.0
        while t < t_final - 1e-12:
            step = min(dt, t_final - t)
            x = np.concatenate([point.p, point.q])
            k1 = hamiltonian_vector_field(ham, point, profile)
            mid = x + 0.5 * step * k1
            half = retract(mid[: m.p.size], mid[m.p.size :], m.base_radius)
            k2 = hamiltonian_vector_field(ham, half, profile)
            x = x + step * k2
            point = retract(x[: m.p.size], x[m.p.size :], m.base_radius)
            t += step
        return FlowResult(endpoint=point, energy_drift=0.0, constraint_drift=0.0, steps=0)

    monkeypatch.setattr(checks_module, "rk4_integrate", rk2_integrate)
    report = _assert_fails_with_witness("P-unitcut-rk4-order")
    assert report.max_residual > report.tolerance


def test_zero_hamiltonian_field(monkeypatch):
    # a field whose flow is 2 pi periodic (here: constant) lands on the closed
    # form at t = 2 pi; the halfway comparison must catch it
    monkeypatch.setattr(dynamics_module, "_solve_field", lambda k_ham, p, q, h: [0.0] * (2 * len(p)))
    report = _assert_fails_with_witness("P-unitcut-rk4")
    assert report.max_residual > 1.0


def test_hamiltonian_squared_in_place_of_the_norm(monkeypatch):
    # H = k|q|^2 turns the unit cosphere at twice the speed: the flow at pi is
    # the identity where the closed form is the antipode
    original = dynamics_module._restricted_energy
    monkeypatch.setattr(
        dynamics_module,
        "_restricted_energy",
        lambda pp, qq, pq, k_ham: original(pp, qq, pq, k_ham) ** 2 / k_ham,
    )
    report = _assert_fails_with_witness("P-unitcut-rk4")
    assert report.max_residual > 1.0


def test_hamiltonian_three_times_too_fast(monkeypatch):
    # H = 3k|q| flows the unit cosphere at three times the speed: at pi and
    # 2 pi it lands where the closed form does (the antipode, the identity),
    # so only the comparison at t_final / 3 catches it
    original = dynamics_module._restricted_energy
    monkeypatch.setattr(
        dynamics_module,
        "_restricted_energy",
        lambda pp, qq, pq, k_ham: 3.0 * original(pp, qq, pq, k_ham),
    )
    report = _assert_fails_with_witness("P-unitcut-rk4")
    assert report.max_residual > 1.0


def test_even_rescale_without_its_square_roots(monkeypatch):
    def unrooted(m, r):
        # (p, q) -> (r p, q / r): lands over the radius-r sphere, not radius sqrt(r)
        return CotangentPoint(p=r * m.p, q=m.q / r, base_radius=r)

    monkeypatch.setattr(checks_module, "even_rescale", unrooted)
    # the evened bundle's membership guards trip, so the check fails with NaN
    report = _assert_fails_with_witness("P-evenedrescale", {"samples": 60})
    assert math.isnan(report.max_residual)
    assert report.witness["r"] != 1.0


def test_omega_r_lift_without_the_dw_term(monkeypatch):
    def lift_without_dw(point, v1, v2, r, profile=None, sheet=+1):
        # the lifted tangent keeps dw = 0, so it leaves the quadric's tangent space
        rep = point.rep
        s = np.einsum("...i,...i->...", rep, rep)
        lifted = np.concatenate([rep, (sheet * 1j * np.sqrt(s))[..., None]], axis=-1)
        norm2 = 1.0 + np.abs(s)

        def lift_tangent(vc):
            tilde = np.concatenate([vc, np.zeros_like(vc[..., :1])], axis=-1)
            tilde = tilde - (np.einsum("...i,...i->...", lifted.conj(), tilde) / norm2)[..., None] * lifted
            return tilde / np.sqrt(norm2)[..., None]

        h1 = lift_tangent(complexify(v1))
        h2 = lift_tangent(complexify(v2))
        return 2.0 * r * np.einsum("...i,...i->...", h1.conj(), h2).imag

    monkeypatch.setattr(checks_module, "omega_r", lift_without_dw)
    report = _assert_fails_with_witness("P-omega-r-descent", {"samples": 30})
    assert report.max_residual > 0.1


def test_product_form_that_drops_its_right_factor(monkeypatch):
    def left_factor_only(left, right, name=""):
        space = ProductSpace(left.space, right.space)
        k = space.left.ambient
        return TwoForm(space, lambda pair, a, b: left.func(pair[0], a[..., :k], b[..., :k]))

    monkeypatch.setattr(checks_module, "product_form", left_factor_only)
    # the diagonal period halves: 2 pi r short of the conic's 4 pi r
    report = _assert_fails_with_witness("I-period-match")
    assert abs(report.max_residual - 2.0 * np.pi * report.witness["r"]) < 1e-6


def _scaled_fubini_study(eps):
    original = checks_module.fubini_study_form
    return lambda n, name="omega_FS": scaled_form(original(n, name), 1.0 + eps)


def _scaled_evened_rescale_map(eps):
    # (p, q) -> (1 + eps)(sqrt(r) p, q / sqrt(r)), in the pullback only
    original = checks_module._evened_rescale_map

    def scaled(n, r):
        exact = original(n, r)

        def func(m):
            image = exact(m)
            return CotangentPoint(p=(1 + eps) * image.p, q=(1 + eps) * image.q, base_radius=image.base_radius)

        return dataclasses.replace(exact, func=func)

    return scaled


# Sensitivity: the certified form or map scaled by 1 + eps, with eps at the
# size each check resolves now that its differentials are exact: the name the
# check reads, its scaled version, and the params of the run.
SCALED = {
    "L-projemb": ("fubini_study_form", lambda: _scaled_fubini_study(1e-6), {"samples": 20}),
    "I-period-Q1": ("fubini_study_form", lambda: _scaled_fubini_study(1e-7), None),
    "P-evenedrescale": ("_evened_rescale_map", lambda: _scaled_evened_rescale_map(1e-8), {"samples": 60}),
}


@pytest.mark.parametrize("cid", sorted(SCALED))
def test_a_map_or_form_scaled_by_one_plus_eps_fails(cid, monkeypatch):
    attr, scaled, params = SCALED[cid]
    monkeypatch.setattr(checks_module, attr, scaled())
    report = _assert_fails_with_witness(cid, params)
    # a finite residual: the scaled form or pushforward itself, not a guard, fails it
    assert report.tolerance < report.max_residual < 1e-4
