"""Registry completeness, determinism, witnesses, and report formats."""

import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

import quadcover.checks as checks_module
from quadcover.checks import (
    SENTINEL,
    SuiteConfig,
    UsageError,
    VERIFIED_STATEMENTS,
    build_registry,
    emit_report,
    render_json,
    render_text,
    run_check,
    run_suite,
)
from quadcover.cotangent import CotangentPoint, OffBundleError, sample_cosphere
from quadcover.forms import BranchLocusError
from quadcover.maps import cotangent_to_quadric, segre_unitary
from quadcover.numerics import DEFAULT_PROFILE, ToleranceProfile, derive_stream
from quadcover.projective import ProjectivePoint, proj_normalize

CANONICAL_IDS = [
    "L-projemb",
    "L-sphereembedding",
    "P-unitcut-flow",
    "C-branchedcover-deck",
    "P-segre-pullback",
    "P-segre-equivariance",
    "R-diag-antidiag",
    "P-evenedrescale",
    "P-omega-r-descent",
    "R-pi-not-symplectic",
    "R-omega-r-not-FS",
    "I-period-CP1",
    "I-period-Q1",
]

FAST_FAIL = {"tolerance": 1e-16, "n": [2], "r": [1.0], "samples": 5, "pairs": 1}


def test_registry_covers_exactly_the_statement_manifest():
    registry = build_registry()
    covered = {key for check in registry.values() for key in check.covers}
    assert covered == set(VERIFIED_STATEMENTS)


def test_registry_contains_the_canonical_ids():
    registry = build_registry()
    for cid in CANONICAL_IDS:
        assert cid in registry


def test_registering_a_duplicate_id_raises():
    before = build_registry()
    with pytest.raises(RuntimeError, match="already registered"):
        checks_module._check("L-projemb", "again", ("ball-embedding-pullback",), 1.0, {})(
            lambda inp, profile: 0.0
        )
    assert build_registry() == before


def test_every_entry_resolves_its_functions_and_tolerance():
    # a misspelt function or profile field fails here, not in the middle of a run
    fields = {f.name for f in dataclasses.fields(ToleranceProfile)}
    for cid, check in build_registry().items():
        assert callable(check.gen) and callable(check.residual), cid
        assert isinstance(check.tolerance, float) or check.tolerance in fields, cid


def test_mutating_the_returned_registry_leaves_run_check_alone():
    registry = build_registry()
    registry["I-period-CP1"] = dataclasses.replace(registry["I-period-CP1"], tolerance=1e-300)
    del registry["I-period-Q1"]
    assert run_check("I-period-CP1", {"nodes": 24}).passed
    assert run_check("I-period-Q1", {"nodes": 24}).passed
    assert build_registry()["I-period-CP1"].tolerance == "quadrature_tol"


def test_declared_params_are_read_only():
    params = build_registry()["L-sphereembedding"].params
    with pytest.raises(AttributeError):
        params["n"].append(4)
    with pytest.raises(TypeError):
        params["samples"] = 1
    # one sample for each of the declared n = 1, 2, 3
    assert run_check("L-sphereembedding", {"samples": 1}).samples == 3


def test_run_check_calls_the_generator_bound_at_call_time(monkeypatch):
    # a function rebound after import, as a tracer does, is the one that runs
    calls = []
    original = checks_module._gen_sphereembedding

    def traced(params, rng):
        calls.append(params["samples"])
        return original(params, rng)

    monkeypatch.setattr(checks_module, "_gen_sphereembedding", traced)
    report = run_check("L-sphereembedding", {"samples": 3})
    assert calls == [3]
    assert report.samples == 9


def test_run_check_is_deterministic():
    a = run_check("C-branchedcover-deck", {"samples": 40})
    b = run_check("C-branchedcover-deck", {"samples": 40})
    assert a.max_residual == b.max_residual
    assert render_json([a]) == render_json([b])


def test_checks_are_isolated_from_each_other():
    # the residual of a check does not change with which other checks run
    config = SuiteConfig(samples=40)
    alone, _ = run_suite("L-sphereembedding", config)
    together, _ = run_suite("L-sphere*", config)
    combined = {r.id: r.max_residual for r in together}
    assert combined["L-sphereembedding"] == alone[0].max_residual


def test_seed_changes_residuals_but_not_outcome():
    a = run_check("L-sphereembedding", {"samples": 50}, seed=1)
    b = run_check("L-sphereembedding", {"samples": 50}, seed=2)
    assert a.passed and b.passed
    assert a.max_residual != b.max_residual


def test_glob_matches_exactly_the_two_segre_checks():
    reports, status = run_suite("P-segre-*", SuiteConfig(samples=50))
    assert [r.id for r in reports] == ["P-segre-pullback", "P-segre-equivariance"]
    assert status == 0


def test_unknown_id_and_unknown_param_are_usage_errors():
    with pytest.raises(UsageError, match="unknown check id"):
        run_check("no-such-check")
    with pytest.raises(UsageError, match="parameter"):
        run_check("I-period-CP1", {"bogus": 1})
    with pytest.raises(UsageError, match="no check matches"):
        run_suite("zzz-*")


def test_injected_tolerance_forces_failure_with_witness():
    report = run_check("L-projemb", dict(FAST_FAIL))
    assert not report.passed
    assert report.witness is not None
    assert report.max_residual > report.tolerance


def test_failed_check_yields_suite_exit_status_one():
    reports, status = run_suite(
        "L-projemb", SuiteConfig(), overrides={"L-projemb": dict(FAST_FAIL)}
    )
    assert status == 1
    assert not reports[0].passed


def test_witness_roundtrips_through_json():
    report = run_check("L-projemb", dict(FAST_FAIL))
    payload = render_json([report])
    parsed = json.loads(payload)
    witness = parsed[0]["witness"]
    replay = run_check("L-projemb", {"witness": witness})
    assert abs(replay.max_residual - report.max_residual) < 1e-12


def test_witness_checks_always_report_their_best_find():
    report = run_check("R-omega-r-not-FS", {"samples": 10})
    assert report.passed
    assert report.witness is not None
    replay = run_check("R-omega-r-not-FS", {"witness": report.witness})
    assert abs(replay.max_residual - report.max_residual) < 1e-12


def test_json_format_contract():
    assert render_json([]) == "[]"
    report = run_check("I-period-CP1", {"nodes": 24})
    payload = render_json([report])
    parsed = json.loads(payload)
    assert list(parsed[0].keys()) == ["id", "seed", "samples", "max_residual", "tolerance", "passed"]
    # 17 significant digits round-trip doubles exactly
    assert parsed[0]["max_residual"] == report.max_residual
    assert "witness" not in parsed[0]
    assert "elapsed" not in parsed[0]


def test_text_format_contains_status_lines():
    report = run_check("I-period-CP1", {"nodes": 24})
    text = render_text([report])
    assert "I-period-CP1" in text
    assert "pass" in text
    assert "1/1 checks passed" in text


def test_emit_report_targets(tmp_path):
    report = run_check("I-period-CP1", {"nodes": 24})
    out = tmp_path / "report.json"
    emit_report([report], format="json", destination=str(out))
    assert json.loads(out.read_text())[0]["id"] == "I-period-CP1"
    buffer = io.StringIO()
    emit_report([report], format="text", destination=buffer)
    assert "I-period-CP1" in buffer.getvalue()
    with pytest.raises(UsageError):
        emit_report([report], format="yaml")


def test_strict_profile_still_passes_representative_checks():
    for cid in ("L-sphereembedding", "P-unitcut-flow", "I-period-CP1"):
        report = run_check(cid, {"samples": 30} if cid != "I-period-CP1" else {"nodes": 40},
                           profile="strict")
        assert report.passed, cid


def test_reports_keep_registry_order():
    reports, _ = run_suite("I-period-*", SuiteConfig())
    assert [r.id for r in reports] == ["I-period-CP1", "I-period-Q1", "I-period-match"]


# The four checks whose residuals evaluate the whole input list at once, with
# parameters that give several (n, r) groups at a small sample count.
BATCHED = {
    "L-projemb": {"n": [1, 2], "r": [1.0, 2.0], "samples": 3, "pairs": 2},
    "P-omega-r-descent": {"n": [1, 2], "r": [0.5, 2.0], "samples": 8},
    "P-segre-pullback": {"samples": 12},
    "P-unitcut-flow": {"n": [1, 2], "samples": 6},
}


def _inputs(cid):
    check = build_registry()[cid]
    params = dict(check.params, **BATCHED[cid])
    inputs = check.gen(params, derive_stream(5, cid))
    # interleave the (n, r) groups so each group's rows are scattered
    order = np.random.default_rng(0).permutation(len(inputs))
    return check, [inputs[i] for i in order]


@pytest.mark.parametrize("cid", sorted(BATCHED))
def test_batched_residual_is_row_invariant(cid, monkeypatch):
    check, inputs = _inputs(cid)
    whole = check.residual(inputs, DEFAULT_PROFILE)
    monkeypatch.setattr(checks_module, "CHUNK_ROWS", 5)
    chunked = check.residual(inputs, DEFAULT_PROFILE)
    assert whole.shape == (len(inputs),)
    assert np.array_equal(whole, chunked)
    for i, inp in enumerate(inputs):
        assert check.residual([inp], DEFAULT_PROFILE)[0] == chunked[i]


@pytest.mark.parametrize("cid", sorted(BATCHED))
def test_batched_witness_replays_bit_for_bit(cid):
    report = run_check(cid, dict(BATCHED[cid], tolerance=1e-16))
    assert not report.passed
    witness = json.loads(render_json([report]))[0]["witness"]
    replay = run_check(cid, {"witness": witness})
    assert replay.samples == 1
    assert replay.max_residual == report.max_residual


def test_out_of_ball_row_fails_the_batch():
    check, inputs = _inputs("L-projemb")
    bad = dict(inputs[3])
    z = np.asarray(bad["z"]["re"]) + 1j * np.asarray(bad["z"]["im"])
    z *= 1.01 * bad["r"] / np.linalg.norm(z)
    bad["z"] = {"re": z.real.tolist(), "im": z.imag.tolist()}
    inputs[3] = bad
    with pytest.raises(ValueError, match="outside the open ball"):
        check.residual(inputs, DEFAULT_PROFILE)


def test_uneven_row_fails_the_flow_batch():
    # the closed-form flow's membership guard scores the row NaN, leaving the rest
    check, inputs = _inputs("P-unitcut-flow")
    clean = check.residual(inputs, DEFAULT_PROFILE)
    inputs[4] = dict(inputs[4], q=[1.1 * v for v in inputs[4]["q"]])
    flagged = check.residual(inputs, DEFAULT_PROFILE)
    assert np.isnan(flagged[4])
    assert np.array_equal(np.delete(flagged, 4), np.delete(clean, 4))
    report = run_check("P-unitcut-flow", {"witness": inputs[4]})
    assert not report.passed and report.witness == inputs[4]


def test_branch_locus_row_fails_the_descent_batch():
    check, inputs = _inputs("P-omega-r-descent")
    m = sample_cosphere(inputs[2]["n"], 1.0, 1.0, derive_stream(5, "branch"))
    near = CotangentPoint(p=m.p, q=(1.0 - 1e-9) * m.q)
    rep = cotangent_to_quadric(near).rep
    inputs[2] = dict(inputs[2], z={"re": rep.real.tolist(), "im": rep.imag.tolist()})
    with pytest.raises(BranchLocusError):
        check.residual(inputs, DEFAULT_PROFILE)


def test_off_quadric_segre_row_gets_the_sentinel(monkeypatch):
    check, inputs = _inputs("P-segre-pullback")
    clean = check.residual(inputs, DEFAULT_PROFILE)

    def moved_first_row(a, b):
        image = segre_unitary(a, b)
        rep = image.rep.copy()
        rep[0] = proj_normalize(np.array([1.0, 0.0, 0.0, 0.0])).rep
        return ProjectivePoint(rep=rep)

    monkeypatch.setattr(checks_module, "segre_unitary", moved_first_row)
    flagged = check.residual(inputs, DEFAULT_PROFILE)
    assert flagged[0] == SENTINEL
    assert np.array_equal(flagged[1:], clean[1:])


def test_empty_input_list_is_usage_error():
    with pytest.raises(UsageError, match="generated no inputs"):
        run_check("L-projemb", {"n": []})
    with pytest.raises(UsageError, match="t_grid must be at least 1"):
        run_check("P-unitcut-flow", {"t_grid": 0})


@pytest.mark.parametrize("cid, attr", [("T-zerosection", "_res_zerosection"), ("R-uneven-flow", "_score_uneven_flow")])
def test_non_finite_residual_fails_with_first_non_finite_input(cid, attr, monkeypatch):
    params = {"samples": 4} if cid == "T-zerosection" else {"trajectories": 4}
    check = build_registry()[cid]
    inputs = check.gen({**check.params, **params}, derive_stream(42, cid))
    # argmax would pick the NaN and a witness check would pass on +inf
    values = iter([0.0, float("inf"), float("nan"), 0.0])
    monkeypatch.setattr(checks_module, attr, lambda inp, profile: next(values))
    report = run_check(cid, params)
    assert not report.passed
    assert report.max_residual == float("inf")
    assert report.witness == inputs[1]
    parsed = json.loads(render_json([report]))[0]
    assert parsed["max_residual"] == "inf"
    assert parsed["witness"] == json.loads(json.dumps(inputs[1]))


def test_only_an_off_bundle_error_becomes_a_failing_nan(monkeypatch):
    # a NaN, not the sentinel: a sentinel score of 1.0 would pass a witness check
    def off_bundle(inp, profile):
        raise OffBundleError("not on the evened bundle")

    def broken(inp, profile):
        raise ValueError("a bug, not a domain error")

    monkeypatch.setattr(checks_module, "_score_uneven_flow", off_bundle)
    report = run_check("R-uneven-flow", {"trajectories": 1})
    assert not report.passed and np.isnan(report.max_residual)
    assert report.witness is not None
    monkeypatch.setattr(checks_module, "_score_uneven_flow", broken)
    with pytest.raises(ValueError, match="a bug"):
        run_check("R-uneven-flow", {"trajectories": 1})


def test_json_writes_non_finite_reals_as_strings():
    reports = [
        checks_module.CheckReport(
            id=f"x{i}", seed=1, samples=1, max_residual=value, tolerance=1.0, passed=False, elapsed=0.0
        )
        for i, value in enumerate([float("nan"), float("inf"), float("-inf")])
    ]
    parsed = json.loads(render_json(reports))
    assert [entry["max_residual"] for entry in parsed] == ["nan", "inf", "-inf"]


@pytest.mark.parametrize(
    "cid, params, message",
    [
        # passed with residual exactly 0: both sides of the identity vanish
        ("P-omega-r-descent", {"r": [0.0], "samples": 20}, "radii must be finite and positive"),
        # ended in the sampler's ValueError
        ("P-unitcut-rk4", {"n": [0]}, "dimensions must be at least 1"),
        # ended in the quadrature's ValueError
        ("I-period-CP1", {"nodes": 1}, "nodes must be at least 2"),
        ("L-projemb", {"samples": 0}, "samples must be at least 1"),
        ("R-omega-r-not-FS", {"pairs": 0}, "pairs must be at least 1"),
        ("R-uneven-flow", {"r": float("nan")}, "radii must be finite and positive"),
        ("P-evenedflow-restored", {"r_uneven": -0.5}, "radii must be finite and positive"),
        # ended in a TypeError inside the generator
        ("L-sphereembedding", {"n": 2}, "dimensions must be a list of integers"),
        ("L-projemb", {"samples": 2.5}, "samples must be an integer"),
        ("L-projemb", {"r": 0.5}, "radii must be a list of real numbers"),
        ("R-uneven-flow", {"r": [0.5]}, "radius must be a real number"),
        ("P-segre-pullback", {"samples": "4"}, "samples must be an integer"),
    ],
)
def test_run_check_rejects_invalid_params(cid, params, message):
    with pytest.raises(UsageError, match=message):
        run_check(cid, params)


@pytest.mark.parametrize(
    "cid, kinds", [("C-branchedcover-fibers", {"off", "on"}), ("T-zerosection", {"zero", "boundary"})]
)
def test_one_sample_still_draws_both_kinds_for_every_n(cid, kinds):
    check = build_registry()[cid]
    params = {**check.params, "n": [1, 2, 3], "samples": 1}
    inputs = check.gen(params, derive_stream(42, cid))
    # the fiber check's inputs carry no n; a point of dimension n has n + 1 entries
    drawn = {(len(inp["z"]["re"] if "z" in inp else inp["p"]) - 1, inp["kind"]) for inp in inputs}
    assert drawn == {(n, kind) for n in (1, 2, 3) for kind in kinds}
    assert run_check(cid, {"samples": 1}).passed


# sha256 of each check's serialized inputs at seed 42 with every "samples" set
# to 4, recorded before the generators were rewritten on a shared sampler
PINNED_INPUT_HASHES = {
    "L-projemb": "b7ae915b845df49cc81b2dbe1ac448f7423941926304a9f03adfa85fde7085af",
    "L-sphereembedding": "f752201ea9939078de44da9ca781479aae20272f80719b8758456f9d3fadb1b6",
    "L-sphereembedding-lift": "b08f2e4869fa23d37aed8d268e8f5ef642847f2c1f41c90170b9f5b39ac5bce7",
    "P-unitcut-boundary": "5efbba87fe4ae6fc8202a90436d8c10dc9fad44db45ccca4ee6af45c60c0d60a",
    "P-unitcut-flow": "592df388bfea9c27bdde53a68b13efd46873322d0ca045dd92c6230a52e572f2",
    "P-unitcut-rk4": "c2db59b3de469f8fd93ce5275008057102625d27f04e99eb835062026e5ce8e8",
    "P-unitcut-rk4-order": "5df37b44aaff33323ebbea749769a1fc0cc877c40eff7a857cd5e412c3213a5c",
    "C-branchedcover-deck": "d651dd938f7b118f94e7ce3661b802ba2de2b871aa45bfae2374976fc72b142d",
    "C-branchedcover-fibers": "cfa3132ab2f3af79e5d923d6d025d597bcdbca6fedc9c3a83b545a1c40cdb48d",
    "R-pi-not-symplectic": "ba088a324dae82f3a889822d8c278f1bfd1db70d1dc01b2793653b7a75ecedc2",
    "P-segre-pullback": "4917a5f976a2a7640a65662d4ef9742d783230ccb9d7740861edaa56f4705362",
    "P-segre-equivariance": "c1048049a72f79c3737b1be98ffea1a84de9998aa5d0cb2f7d4814e670f4881d",
    "R-diag-antidiag": "ebfd52fd60a2a00ac5ce89908d6da8237d702b9d6766dcf16f1f8f19562c8812",
    "P-evenedrescale": "c26ea0483f75340d4994dfcd674a62874df27eb32e77662f94f7d417c11de674",
    "P-evenedflow-restored": "52b41aea121b13dcc3c5af7fb4f26f9e34c40210781b0308b909d86acd1531ca",
    "R-uneven-flow": "c06c37ab213215bd6de9bed1ec072e9f9e939533a879fe3a980c0ad7d0fb9f91",
    "P-omega-r-descent": "b847a83a9058b4b3b0e8ef15007297897bb484555949b0ea7d35fa89ab7e1ce5",
    "R-omega-r-not-FS": "c32f4f255ca4a94ba0b0314308d4f01e30e568942e01e7264106adc77ef2ab4f",
    "I-period-CP1": "087e30deae33f4c3c97859894f9848d64c0adbde42a376592342be3ba8f42524",
    "I-period-Q1": "320a66c0d9a75fca980b42c80a6958c7e038a7646dd55d4d1a53ffc9568b0202",
    "I-period-match": "9fbe10420106a35515163740d5ab7c1cf5a5d22b3581b5c7fbd9b9efe9432ad0",
    "T-zerosection": "4ba0c9b69e249afa0647f9074ea549710d273471ae0fbaa3248eaa873fdf2491",
}


def test_generated_inputs_match_their_pinned_hashes():
    # a refactor of the generators must keep both the RNG order and the key order
    registry = build_registry()
    assert set(registry) == set(PINNED_INPUT_HASHES)
    for cid, check in registry.items():
        params = {**check.params, "samples": 4} if "samples" in check.params else dict(check.params)
        text = checks_module._json_scalar(check.gen(params, derive_stream(42, cid)))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_INPUT_HASHES[cid], cid
