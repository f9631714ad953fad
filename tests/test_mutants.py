"""Mutation tests: each check must fail, with a witness, on a known-wrong map.

After DeMillo, Lipton & Sayward, "Hints on test data selection" (1978): a
check that still passes once the map it certifies is broken certifies
nothing. Each test patches one wrong map into the modules that call it and
runs the targeted check at its pinned tolerance.
"""

import math

import numpy as np
import pytest

import quadcover.checks as checks_module
import quadcover.forms as forms_module
import quadcover.maps as maps_module
from quadcover.cotangent import CotangentPoint, retract
from quadcover.dynamics import FlowResult, hamiltonian_vector_field
from quadcover.forms import ProductSpace, TwoForm
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
    assert report.max_residual > 0.1


def test_deck_map_flipping_the_wrong_coordinate(monkeypatch):
    def wrong_deck(point):
        rep = point.rep.copy()
        rep[0] = -rep[0]
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
    def lift_without_dw(rep, v1, v2, r, profile, sheet):
        # the lifted tangent keeps dw = 0, so it leaves the quadric's tangent space
        s = np.einsum("ij,ij->i", rep, rep)
        lifted = np.concatenate([rep, (sheet * 1j * np.sqrt(s))[:, None]], axis=1)
        norm2 = 1.0 + np.abs(s)

        def lift_tangent(vc):
            tilde = np.concatenate([vc, np.zeros((len(vc), 1))], axis=1)
            tilde = tilde - (np.einsum("ij,ij->i", lifted.conj(), tilde) / norm2)[:, None] * lifted
            return tilde / np.sqrt(norm2)[:, None]

        h1 = lift_tangent(complexify(v1))
        h2 = lift_tangent(complexify(v2))
        return 2.0 * r * np.einsum("ij,ij->i", h1.conj(), h2).imag

    monkeypatch.setattr(forms_module, "_omega_r_rows", lift_without_dw)
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
