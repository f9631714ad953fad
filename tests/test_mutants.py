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
import quadcover.maps as maps_module
from quadcover.cotangent import CotangentPoint, retract
from quadcover.dynamics import FlowResult, hamiltonian_vector_field
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
            mid = x + 0.5 * step * np.concatenate([k1.u, k1.w])
            half = retract(mid[: m.p.size], mid[m.p.size :], m.base_radius)
            k2 = hamiltonian_vector_field(ham, half, profile)
            x = x + step * np.concatenate([k2.u, k2.w])
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
