"""Registry completeness, determinism, witnesses, and report formats."""

import dataclasses
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import quadcover.checks as checks_module
from quadcover import cli, dynamics
from quadcover.checks import (
    Inputs,
    MAX_DIM,
    MAX_NODES,
    UsageError,
    VERIFIED_STATEMENTS,
    build_registry,
    emit_report,
    render_json,
    render_text,
    run_check,
    run_suite,
)
from quadcover.cotangent import (
    CotangentPoint,
    OffBundleError,
    even_rescale,
    even_rescale_inverse,
    sample_cosphere,
    sample_disc_bundle,
    sample_tangent,
)
from quadcover.dynamics import flow_closed_form, flow_uneven_cosphere, scalar_action
from quadcover.forms import BranchLocusError, SmoothMap, _omega_std_ambient, cotangent_omega_std, pullback
from quadcover.maps import (
    branched_cover_map,
    cosphere_boundary,
    cotangent_to_quadric,
    quadric_to_cotangent,
    segre_unitary,
)
from quadcover.numerics import derive_stream, realify
from quadcover.projective import (
    ProjectivePoint,
    proj_normalize,
    projective_defect,
    quadric_residual,
)

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
        checks_module._check("L-projemb", "again", ("ball-embedding-pullback",), 1.0, {}, {})(
            lambda rows: 0.0
        )
    assert build_registry() == before


def test_every_entry_resolves_its_functions_and_tolerance():
    # a misspelt function or a tolerance that is no float fails here, not in the middle of a run
    for cid, check in build_registry().items():
        assert callable(getattr(checks_module, f"_gen_{check.name}")), cid
        assert callable(getattr(checks_module, f"_res_{check.name}")), cid
        assert isinstance(check.tolerance, float) and isinstance(check.strict, float), cid


def test_mutating_the_returned_registry_leaves_run_check_alone():
    registry = build_registry()
    registry["I-period-CP1"] = dataclasses.replace(registry["I-period-CP1"], tolerance=1e-300)
    del registry["I-period-Q1"]
    assert run_check("I-period-CP1", {"nodes": 24}).passed
    assert run_check("I-period-Q1", {"nodes": 24}).passed
    assert build_registry()["I-period-CP1"].tolerance == 2e-11


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


def test_a_generated_run_scores_each_block_before_it_draws_the_next(monkeypatch):
    # one block alive at a time: draw, score, draw, score over L-projemb's 9 (n, r) blocks
    events = []
    draws, residual = checks_module._gen_projemb, checks_module._res_projemb

    def recorded(event, func):
        def call(*args):
            events.append(event)
            return func(*args)

        return call

    monkeypatch.setattr(
        checks_module, "_gen_projemb", lambda params, rng: [recorded("draw", d) for d in draws(params, rng)]
    )
    monkeypatch.setattr(checks_module, "_res_projemb", recorded("score", residual))
    report = run_check("L-projemb", {"samples": 10})
    assert report.passed and report.samples == 270
    assert events == ["draw", "score"] * 9


def test_a_generated_run_holds_less_than_its_whole_input():
    # all 81,000 rows of L-projemb at 3,000 samples take 11.1 MiB of columns;
    # a run that drew every block before scoring the first peaked above them
    check = build_registry()["L-projemb"]
    inputs = check.gen({**check.params, "samples": 3000}, derive_stream(42, check.id))
    whole = sum(v.nbytes for block in inputs.blocks for v in block.columns.values() if isinstance(v, np.ndarray))
    del inputs
    tracemalloc.start()
    try:
        report = run_check("L-projemb", {"samples": 3000})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.samples == 81_000
    assert peak < whole, (peak, whole)


@pytest.mark.parametrize(
    "values",
    [[[1.0, 3.0], [3.0, 2.0]], [[5.0, 1.0], [1.0, math.nan]], [[1.0, math.inf], [math.nan, 1.0]]],
    ids=["equal maxima: the first", "a later NaN: the NaN", "inf then a NaN: the inf"],
)
@pytest.mark.parametrize(
    "cid, attr, params",
    [
        ("T-zerosection", "_res_zerosection", {"samples": 4}),
        ("R-omega-r-not-FS", "_res_omega_r_not_fs", {"samples": 2, "r": [1.0, 2.0]}),
    ],
)
def test_the_running_worst_follows_the_rule_over_all_rows(cid, attr, params, values, monkeypatch):
    # each block's values chosen, the run's worst and witness are those of the
    # rule over all rows at once: the first NaN or infinite value, else the first maximum
    check = build_registry()[cid]
    inputs = check.gen({**check.params, **params}, derive_stream(42, cid))
    assert [len(block) for block in inputs.blocks] == [2, 2]
    blocks = iter(values)
    monkeypatch.setattr(checks_module, attr, lambda rows: next(blocks))
    report = run_check(cid, params)
    rows = np.concatenate(values)
    finite = np.isfinite(rows)
    top = int(rows.argmax()) if finite.all() else int(np.argmin(finite))
    assert report.witness == inputs[top]
    assert np.array_equal(report.max_residual, rows[top], equal_nan=True)


def test_no_run_builds_the_whole_input_view(monkeypatch):
    # Inputs is the row view of Check.gen for the tests and perfbench/run.py:
    # a generated run scores each drawn block, a replay its parsed witness
    rows = {cid: _generated_row(cid) for cid in build_registry()}

    def refused(*args):
        raise AssertionError("a run built an Inputs")

    monkeypatch.setattr(checks_module, "Inputs", refused)
    assert run_check("L-projemb", {"samples": 4}).passed
    for cid, row in rows.items():
        assert math.isfinite(run_check(cid, {"witness": row}).max_residual), cid
    assert cli.main(["run", "--samples", "4", "--n", "2"]) == 0


def test_run_check_is_deterministic():
    a = run_check("C-branchedcover-deck", {"samples": 40})
    b = run_check("C-branchedcover-deck", {"samples": 40})
    assert a.max_residual == b.max_residual
    assert render_json([a]) == render_json([b])


def test_checks_are_isolated_from_each_other():
    # the residual of a check does not change with which other checks run
    alone, _ = run_suite("L-sphereembedding", samples=40)
    together, _ = run_suite("L-sphere*", samples=40)
    combined = {r.id: r.max_residual for r in together}
    assert combined["L-sphereembedding"] == alone[0].max_residual


def test_seed_changes_residuals_but_not_outcome():
    a = run_check("L-sphereembedding", {"samples": 50}, seed=1)
    b = run_check("L-sphereembedding", {"samples": 50}, seed=2)
    assert a.passed and b.passed
    assert a.max_residual != b.max_residual


def test_glob_matches_exactly_the_two_segre_checks():
    reports, status = run_suite("P-segre-*", samples=50)
    assert [r.id for r in reports] == ["P-segre-pullback", "P-segre-equivariance"]
    assert status == 0


def test_unknown_id_and_unknown_param_are_usage_errors():
    with pytest.raises(UsageError, match="unknown check id"):
        run_check("no-such-check")
    with pytest.raises(UsageError, match="parameter"):
        run_check("I-period-CP1", {"bogus": 1})
    with pytest.raises(UsageError, match="no check matches"):
        run_suite("zzz-*")
    with pytest.raises(UsageError, match="unknown tolerance profile 'lenient'"):
        run_check("I-period-CP1", {"nodes": 4}, profile="lenient")


def test_injected_tolerance_forces_failure_with_witness():
    report = run_check("L-projemb", dict(FAST_FAIL))
    assert not report.passed
    assert report.witness is not None
    assert report.max_residual > report.tolerance


def test_failed_check_yields_suite_exit_status_one(monkeypatch):
    original = build_registry

    def forced():
        registry = original()
        registry["L-projemb"] = dataclasses.replace(registry["L-projemb"], tolerance=1e-16)
        return registry

    monkeypatch.setattr(checks_module, "build_registry", forced)
    reports, status = run_suite("L-projemb", samples=5, n_values=(2,), radii=(1.0,))
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
    reports, _ = run_suite("I-period-*")
    assert [r.id for r in reports] == ["I-period-CP1", "I-period-Q1", "I-period-match"]


# Every check, with parameters that give several blocks at a small sample
# count, some larger than the five rows a chunk holds in the row-invariance
# test, and that keep a replay of each input cheap: coarse RK4 steps and few
# quadrature nodes. A row of an RK4 check is a whole trajectory, and a row of
# a period check a whole integral.
BATCHED = {
    "C-branchedcover-deck": {"n": [1, 2], "samples": 6},
    "C-branchedcover-fibers": {"n": [1, 2], "samples": 14},
    "I-period-CP1": {"nodes": 8},
    "I-period-Q1": {"nodes": 8},
    "I-period-match": {"nodes": 8, "r": [0.5, 1.0, 2.0, 3.0]},
    "L-projemb": {"n": [1, 2], "r": [1.0, 2.0], "samples": 3, "pairs": 2},
    "L-sphereembedding": {"n": [1, 2], "samples": 6},
    "L-sphereembedding-lift": {"n": [1, 2], "samples": 6},
    "P-evenedflow-restored": {"n": [1, 2], "trajectories": 6, "dt": 0.1},
    "P-evenedrescale": {"n": [1, 2], "r": [0.5, 2.0], "samples": 24},
    "P-omega-r-descent": {"n": [1, 2], "r": [0.5, 2.0], "samples": 8},
    "P-segre-equivariance": {"samples": 12},
    "P-segre-pullback": {"samples": 12},
    "P-unitcut-boundary": {"n": [1, 2], "samples": 6},
    "P-unitcut-flow": {"n": [1, 2], "samples": 6},
    "P-unitcut-rk4": {"n": [1, 2], "trajectories": 6, "dt": 0.05},
    "P-unitcut-rk4-order": {"n": [1, 2], "trajectories": 6},
    "R-diag-antidiag": {"samples": 12},
    "R-omega-r-not-FS": {"n": [2, 3], "r": [0.5, 2.0], "samples": 6, "pairs": 3},
    "R-pi-not-symplectic": {"n": [1, 2], "samples": 6},
    "R-uneven-flow": {"n": [1, 2], "trajectories": 6, "dt": 0.1},
    "T-zerosection": {"n": [1, 2], "samples": 14},
}


def _inputs(cid):
    check = build_registry()[cid]
    inputs = check.gen(dict(check.params, **BATCHED[cid]), derive_stream(5, cid))
    # shuffle the rows of each block, so each chunk holds them in a new order
    rng = np.random.default_rng(0)
    return check, Inputs(check.fields, [block.rows(rng.permutation(len(block))) for block in inputs.blocks])


def _scores(check, inputs):
    """Each row's score, block by block, as a run scores them."""
    return np.concatenate([check.score(block) for block in inputs.blocks])


@pytest.mark.parametrize("cid", sorted(BATCHED))
def test_batched_residual_is_row_invariant(cid, monkeypatch):
    check, inputs = _inputs(cid)
    whole = _scores(check, inputs)
    monkeypatch.setattr(checks_module, "CHUNK_ROWS", 5)
    chunked = _scores(check, inputs)
    assert whole.shape == (len(inputs),)
    assert np.array_equal(whole, chunked)
    alone = [block.rows([i]) for block in inputs.blocks for i in range(len(block))]
    for i, row in enumerate(alone):
        assert check.score(row)[0] == chunked[i]


@pytest.mark.parametrize("cid", sorted(BATCHED))
def test_batched_witness_replays_bit_for_bit(cid):
    # a negative tolerance fails every finite residual, even the exact 0 of
    # R-pi-not-symplectic; an infinite threshold fails every finite score
    witness_kind = build_registry()[cid].kind == "witness"
    report = run_check(cid, dict(BATCHED[cid], tolerance=math.inf if witness_kind else -1.0))
    assert not report.passed
    witness = json.loads(render_json([report]))[0]["witness"]
    replay = run_check(cid, {"witness": witness})
    assert replay.samples == 1
    assert replay.max_residual == report.max_residual


# the strict tolerances of the six checks that the strict profile tightens,
# each a literal: 1e-10 / 10 is 1.0000000000000001e-11, not 1e-11
STRICT = {
    "L-sphereembedding": 1e-11,
    "P-unitcut-boundary": 1e-11,
    "P-unitcut-flow": 1e-13,
    "C-branchedcover-deck": 1e-13,
    "P-segre-equivariance": 1e-13,
    "I-period-CP1": 2e-12,
}


@pytest.mark.parametrize("cid", sorted(BATCHED))
def test_the_profile_only_picks_the_tolerance(cid):
    # residuals, sample counts and witnesses do not read the profile; the
    # strict profile judges the six checks of STRICT against their pinned
    # tolerances, and every other check against its default
    assert set(STRICT) <= set(BATCHED)
    check = build_registry()[cid]
    default, strict = (run_check(cid, BATCHED[cid], seed=3, profile=name) for name in ("default", "strict"))
    assert (default.tolerance, strict.tolerance) == (check.tolerance, STRICT.get(cid, check.tolerance))
    ignored = {"tolerance": 0.0, "elapsed": 0.0}
    assert dataclasses.replace(default, **ignored) == dataclasses.replace(strict, **ignored)


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("cid", sorted(build_registry()))
def test_every_generated_input_replays_its_suite_residual(cid, seed):
    # each generated input, written as a witness and parsed back alone by
    # run_check, scores the bits it scored in its block, whichever rows
    # shared its chunk
    check = build_registry()[cid]
    inputs = check.gen(dict(check.params, **BATCHED[cid]), derive_stream(seed, cid))
    suite = _scores(check, inputs)
    for inp, residual in zip(inputs, suite):
        assert run_check(cid, {"witness": inp}).max_residual == residual, inp


@pytest.mark.parametrize("cid", sorted(build_registry()))
def test_a_replay_hands_the_maps_a_one_row_batch(cid, monkeypatch):
    # a witness is replayed as a one-row block through the residual's own
    # batch body, so no point reaches these maps 1-D (a jet of a period
    # chart by its value)
    check = build_registry()[cid]
    witness = check.gen(dict(check.params, **BATCHED[cid]), derive_stream(7, cid))[0]
    ndims = []

    def recorded(func, array_of):
        def wrapper(x, *args):
            array = array_of(x)
            ndims.append(np.ndim(getattr(array, "value", array)))
            return func(x, *args)

        return wrapper

    monkeypatch.setattr(checks_module, "proj_normalize", recorded(proj_normalize, lambda z: z))
    monkeypatch.setattr(checks_module, "cotangent_to_quadric", recorded(cotangent_to_quadric, lambda m: m.p))
    assert math.isfinite(run_check(cid, {"witness": witness}).max_residual)
    assert 1 not in ndims, ndims


def test_out_of_ball_row_fails_the_batch():
    check, inputs = _inputs("L-projemb")
    block = inputs.blocks[0]
    block["z"][3] *= 1.01 * block["r"] / np.linalg.norm(block["z"][3])
    with pytest.raises(ValueError, match="outside the open ball"):
        _scores(check, inputs)


def test_uneven_row_fails_the_flow_batch():
    # the closed-form flow's membership guard scores the row NaN, leaving the rest
    check, inputs = _inputs("P-unitcut-flow")
    clean = _scores(check, inputs)
    inputs.blocks[0]["q"][4] *= 1.1
    flagged = _scores(check, inputs)
    assert np.isnan(flagged[4])
    assert np.array_equal(np.delete(flagged, 4), np.delete(clean, 4))
    report = run_check("P-unitcut-flow", {"witness": inputs[4]})
    assert not report.passed and report.witness == inputs[4]


def _cotangent_point(inp):
    return CotangentPoint(p=np.asarray(inp["p"], dtype=float), q=np.asarray(inp["q"], dtype=float))


def _unitcut_boundary_loop(inp):
    m = _cotangent_point(inp)
    image = cosphere_boundary(m)
    worst = abs(quadric_residual(image))
    for t in np.linspace(0.0, 2.0 * np.pi, 17)[1:]:
        worst = max(worst, projective_defect(cosphere_boundary(scalar_action(m, float(t))), image))
    return worst


def _pi_not_symplectic_loop(inp):
    branch = cosphere_boundary(_cotangent_point(inp))
    cover = branched_cover_map()
    vertical = np.zeros(inp["n"] + 2, dtype=complex)
    vertical[-1] = 1.0
    return max(
        abs(_omega_std_ambient(*cover.differential(branch, realify(np.stack([vertical, tangent])))[1]))
        for row in checks_module._quadric_frame(branch.rep)
        for tangent in (row, 1j * row)
    )


def _evenedrescale_loop(inp):
    r = inp["r"]
    m = _cotangent_point(inp)
    if inp["part"] == "form":
        v1 = np.asarray(inp["v1"], dtype=float)
        v2 = np.asarray(inp["v2"], dtype=float)
        omega = cotangent_omega_std()
        value = pullback(checks_module._evened_rescale_map(r), omega, m, v1, v2)
        roundtrip = float(checks_module._row_dist(even_rescale_inverse(even_rescale(m, r), r), m))
        return max(abs(value - _omega_std_ambient(v1, v2)), roundtrip)
    lhs = even_rescale(flow_uneven_cosphere(m, inp["t"]), r)
    return float(checks_module._row_dist(lhs, flow_closed_form(even_rescale(m, r), inp["t"])))


# The per-input loops that the three row-batched residuals replaced, run on
# single points, with the largest difference allowed: a few units of rounding
# (eps = 2.2e-16) for the orbit defects and the exact pullback, none for the
# exact 0 of the cover.
PER_INPUT_LOOPS = {
    "P-unitcut-boundary": (_unitcut_boundary_loop, 1e-15),
    "R-pi-not-symplectic": (_pi_not_symplectic_loop, 0.0),
    "P-evenedrescale": (_evenedrescale_loop, 1e-15),
}


@pytest.mark.parametrize("cid", sorted(PER_INPUT_LOOPS))
def test_row_batched_residuals_match_their_per_input_loops(cid):
    loop, bound = PER_INPUT_LOOPS[cid]
    check, inputs = _inputs(cid)
    batched = _scores(check, inputs)
    looped = np.array([loop(inp) for inp in inputs])
    assert np.max(np.abs(batched - looped)) <= bound


def test_uneven_row_fails_the_evenedrescale_flow_batch():
    # only the uneven row scores NaN; its chunk is evaluated again row by row
    check, inputs = _inputs("P-evenedrescale")
    clean = _scores(check, inputs)
    # the first row of the first flow block
    bad = len(inputs.blocks[0])
    inputs.blocks[1]["q"][0] *= 1.1
    assert inputs[bad]["part"] == "flow"
    flagged = _scores(check, inputs)
    assert np.isnan(flagged[bad])
    assert np.array_equal(np.delete(flagged, bad), np.delete(clean, bad))
    report = run_check("P-evenedrescale", {"witness": inputs[bad]})
    assert not report.passed and report.witness == inputs[bad]


def test_branch_locus_row_fails_the_descent_batch():
    check, inputs = _inputs("P-omega-r-descent")
    block = inputs.blocks[0]
    m = sample_cosphere(block["n"], 1.0, 1.0, derive_stream(5, "branch"))
    near = CotangentPoint(p=m.p, q=(1.0 - 1e-9) * m.q)
    block["z"][2] = cotangent_to_quadric(near).rep
    with pytest.raises(BranchLocusError):
        _scores(check, inputs)


def test_off_quadric_segre_row_scores_nan(monkeypatch):
    # NaN fails under every tolerance, where a score of 1.0 would pass one of 4
    check, inputs = _inputs("P-segre-pullback")
    clean = _scores(check, inputs)

    def moved_first_row(a, b):
        image = segre_unitary(a, b)
        rep = image.rep.copy()
        rep[0] = proj_normalize(np.array([1.0, 0.0, 0.0, 0.0])).rep
        return ProjectivePoint(rep=rep)

    monkeypatch.setattr(checks_module, "segre_unitary", moved_first_row)
    flagged = _scores(check, inputs)
    assert np.isnan(flagged[0])
    assert np.array_equal(flagged[1:], clean[1:])


def test_empty_input_list_is_usage_error():
    with pytest.raises(UsageError, match="dimensions must not be empty"):
        run_check("L-projemb", {"n": []})
    with pytest.raises(UsageError, match="t_grid must be at least 4"):
        run_check("P-unitcut-flow", {"t_grid": 0})


@pytest.mark.parametrize(
    "run, message",
    [
        # passed vacuously: 3,000 samples, each with no radius to take in turn, scored 0
        (lambda: run_check("P-omega-r-descent", {"r": []}), "check P-omega-r-descent: radii must not be empty"),
        # raised IndexError
        (lambda: run_check("R-uneven-flow", {"t_checks": []}), "check R-uneven-flow: t_checks must not be empty"),
        (lambda: run_check("P-evenedflow-restored", {"t_checks": []}), "t_checks must not be empty"),
        # raised ZeroDivisionError
        (lambda: run_check("P-evenedrescale", {"r": []}), "check P-evenedrescale: radii must not be empty"),
        # was refused only as "generated no inputs", after the run had started
        (lambda: run_check("L-projemb", {"n": []}), "check L-projemb: dimensions must not be empty"),
        # ran and returned status 0
        (lambda: run_suite("T-zerosection", radii=[]), r"^radii must not be empty, got \[\]"),
        # ended "takes none of the dimensions []: None"
        (lambda: run_suite("T-zerosection", n_values=[]), r"^dimensions must not be empty, got \[\]"),
    ],
    ids=["descent r", "uneven t_checks", "restored t_checks", "evenedrescale r", "projemb n", "suite radii",
         "suite n_values"],
)
def test_an_empty_list_param_is_a_usage_error(run, message):
    with pytest.raises(UsageError, match=message):
        run()


@pytest.mark.parametrize("cid, attr", [("T-zerosection", "_res_zerosection"), ("R-uneven-flow", "_res_uneven_flow")])
def test_non_finite_residual_fails_with_first_non_finite_input(cid, attr, monkeypatch):
    params = {"samples": 4} if cid == "T-zerosection" else {"trajectories": 4}
    check = build_registry()[cid]
    inputs = check.gen({**check.params, **params}, derive_stream(42, cid))
    # argmax would pick the NaN and a witness check would pass on +inf
    values = iter([0.0, float("inf"), float("nan"), 0.0])
    monkeypatch.setattr(checks_module, attr, lambda rows: [next(values) for _ in range(len(rows))])
    report = run_check(cid, params)
    assert not report.passed
    assert report.max_residual == float("inf")
    assert report.witness == inputs[1]
    parsed = json.loads(render_json([report]))[0]
    assert parsed["max_residual"] == "inf"
    assert parsed["witness"] == json.loads(json.dumps(inputs[1]))


def test_only_an_off_bundle_error_becomes_a_failing_nan(monkeypatch):
    # in a chunk of three trajectories, one of which leaves the bundle, that
    # row scores NaN where it stands and the other two keep their bits: two
    # segments for each of them and one for the failing row, none run twice
    check = build_registry()["R-uneven-flow"]
    inputs = check.gen({**check.params, "trajectories": 3}, derive_stream(42, check.id))
    clean = _scores(check, inputs)
    bad_start, integrate = inputs.blocks[0]["p"][1], checks_module.rk4_integrate
    calls = []

    def off_bundle_row(m, t_final, dt):
        calls.append(m)
        if np.array_equal(m.p, bad_start):
            raise OffBundleError("not on the bundle")
        return integrate(m, t_final, dt)

    monkeypatch.setattr(checks_module, "rk4_integrate", off_bundle_row)
    flagged = _scores(check, inputs)
    assert len(inputs) == 3 and np.isnan(flagged[1]) and len(calls) == 5
    assert np.array_equal(np.delete(flagged, 1), np.delete(clean, 1))
    report = run_check(check.id, {"trajectories": 3})
    assert not report.passed and report.witness == inputs[1]

    # a NaN, not the sentinel: a sentinel score of 1.0 would pass a witness check
    def off_bundle(rows):
        raise OffBundleError("not on the evened bundle")

    def broken(rows):
        raise ValueError("a bug, not a domain error")

    monkeypatch.setattr(checks_module, "_res_uneven_flow", off_bundle)
    report = run_check("R-uneven-flow", {"trajectories": 1})
    assert not report.passed and np.isnan(report.max_residual)
    assert report.witness is not None
    monkeypatch.setattr(checks_module, "_res_uneven_flow", broken)
    with pytest.raises(ValueError, match="a bug"):
        run_check("R-uneven-flow", {"trajectories": 1})


@pytest.mark.parametrize(
    "cid, witness",
    [
        ("P-unitcut-boundary", {"n": 1, "p": [1.0, 0.0], "q": [0.0, 1.1]}),
        ("C-branchedcover-deck", {"n": 1, "p": [1.0, 0.0], "q": [0.0, 1.0]}),
        ("L-sphereembedding", {"n": 1, "p": [1.0, 0.0], "q": [0.0, 1.5]}),
        # off the bundle in p with |q| in range: the boundary map raised out of
        # the branch-locus frame, and the flow and the quadric embedding passed
        ("R-pi-not-symplectic", {"n": 1, "p": [0.0, 0.0], "q": [0.0, 1.0]}),
        ("P-unitcut-flow", {"n": 1, "p": [0.0, 0.0], "q": [0.0, 1.0], "t_grid": 100}),
        ("C-branchedcover-deck", {"n": 1, "p": [1.0, 0.0], "q": [0.5, 0.0]}),
    ],
)
def test_an_off_bundle_witness_fails_with_itself_as_witness(cid, witness):
    # the fiber guards of the boundary map and the quadric embedding raised a
    # ValueError out of run_check
    report = run_check(cid, {"witness": witness})
    assert not report.passed
    assert np.isnan(report.max_residual)
    assert report.witness == witness
    assert render_json([run_check(cid, {"witness": report.witness})]) == render_json([report])


def _generated_row(cid, **changes):
    check = build_registry()[cid]
    return {**check.gen(dict(check.params, **BATCHED[cid]), derive_stream(42, cid))[0], **changes}


def _with_zero_direction(row):
    """The row with its first direction zeroed, where omega_FS(v, iv) = |v|^2 is 0, not 1."""
    zero = {"re": [0.0] * (row["n"] + 1), "im": [0.0] * (row["n"] + 1)}
    return {**row, "dirs": [zero, *row["dirs"][1:]]}


def _with_scaled_directions(row, factor):
    """The row with every direction scaled by ``factor``."""
    dirs = [{part: [factor * x for x in v[part]] for part in ("re", "im")} for v in row["dirs"]]
    return {**row, "dirs": dirs}


@pytest.mark.parametrize(
    "cid, witness",
    [
        # raised IndexError: the point is indexed at n + 1
        ("L-sphereembedding", {"n": 5, "p": [1.0, 0.0], "q": [0.0, 0.5]}),
        # raised KeyError
        ("L-sphereembedding", {"p": [1.0, 0.0], "q": [0.0, 0.5]}),
        # passed: an unknown field was ignored
        ("L-sphereembedding", {"n": 1, "p": [1.0, 0.0], "q": [0.0, 0.5], "extra": 1}),
        # raised ValueError from the arithmetic
        ("P-unitcut-boundary", {"n": 1, "p": [1.0, 0.0], "q": [0.0, 1.0, 0.0]}),
        ("P-unitcut-flow", {"n": 1, "p": [1.0, 0.0], "q": [0.0, 1.0], "t_grid": 0}),
        # raised TypeError
        ("P-unitcut-flow", {"n": 1, "p": [1.0, 0.0], "q": [0.0, 1.0], "t_grid": 1.5}),
        # passed vacuously: a grid of three times holds 0, pi and 2 pi only
        ("P-unitcut-flow", {"n": 1, "p": [1.0, 0.0], "q": [0.0, 1.0], "t_grid": 3}),
        # passed with residual 0.0
        ("L-projemb", _generated_row("L-projemb", r=-1.0)),
        # an integer radius too large for a float raised OverflowError
        ("L-projemb", _generated_row("L-projemb", r=10**400)),
        # raised from the differential
        ("L-projemb", _generated_row("L-projemb", n=1, v1=[1.0, 0.0, 0.0])),
        ("I-period-CP1", {"nodes": 1}),
        # nodes above the bound
        ("I-period-CP1", {"nodes": MAX_NODES + 1}),
        ("I-period-match", {"nodes": MAX_NODES + 1, "r": 1.0}),
        ("R-omega-r-not-FS", _generated_row("R-omega-r-not-FS", dirs=[])),
        ("T-zerosection", {"kind": "zero", "n": 2, "p": [1.0, 0.0, 0.0], "q": [0.0, 0.0]}),
        # raised ZeroSectionError
        ("P-evenedrescale", _generated_row("P-evenedrescale", r=0.0)),
        # a radius outside [1e-6, 1e6]: raised ValueError, OverflowError, or passed with 0.0
        ("L-projemb", _generated_row("L-projemb", r=1e-12)),
        ("L-projemb", _generated_row("L-projemb", r=1e200)),
        ("P-evenedrescale", _generated_row("P-evenedrescale", r=1.1e10)),
        # a dimension above the bound, its point of matching size
        ("L-sphereembedding", {"n": 129, "p": [1.0] + [0.0] * 129, "q": [0.0, 0.5] + [0.0] * 128}),
        # an empty witness, and a null one, which ran all 3,000 generated samples and passed
        ("L-sphereembedding", {}),
        ("L-sphereembedding", None),
        # no check times: raised IndexError
        ("R-uneven-flow", _generated_row("R-uneven-flow", ts=[])),
        # a direction that is not unit: passed with a ratio spread of 0.74
        ("R-omega-r-not-FS", _with_zero_direction(_generated_row("R-omega-r-not-FS"))),
        # directions scaled by 1e200: inf - inf in the ratios raised numpy's RuntimeWarning
        ("R-omega-r-not-FS", _with_scaled_directions(_generated_row("R-omega-r-not-FS"), 1e200)),
        # a complex field that is not a {"re", "im"} pair: a real list, a pair without "im"
        ("P-segre-equivariance", _generated_row("P-segre-equivariance", a=[1.0, 0.0])),
        ("P-segre-equivariance", _generated_row("P-segre-equivariance", a={"re": [1.0, 0.0]})),
    ],
)
def test_a_malformed_witness_fails_with_nan(cid, witness):
    report = run_check(cid, {"witness": witness})
    assert not report.passed
    assert np.isnan(report.max_residual)
    assert report.witness == witness


def test_a_null_field_of_a_witness_renders_as_json_null_and_replays():
    witness = _generated_row("L-projemb", r=None)
    text = render_json([run_check("L-projemb", {"witness": witness})])
    assert '"r": null' in text
    parsed = json.loads(text)[0]
    assert parsed["witness"] == witness and parsed["max_residual"] == "nan"
    assert render_json([run_check("L-projemb", {"witness": parsed["witness"]})]) == text


def test_a_bool_is_not_a_number():
    # bool is an int: True ran as 1 in a param (as a sample count it raised
    # numpy's TypeError), and a witness field true replayed the valid row with
    # 1 in that field
    for params in ({"samples": True}, {"n": [True]}, {"pairs": True}, {"r": [True]}, {"tolerance": True}):
        with pytest.raises(UsageError, match=r"must be .*, got \[?True"):
            run_check("L-projemb", params)
    for kwargs in ({"samples": True}, {"n_values": [True]}, {"radii": [True]}):
        with pytest.raises(UsageError, match=r"must be .*, got \[?True"):
            run_suite("L-projemb", **kwargs)
    for cid, key in (("C-branchedcover-fibers", "expected"), ("L-sphereembedding", "n")):
        check = build_registry()[cid]
        rows = check.gen(dict(check.params, **BATCHED[cid]), derive_stream(42, cid))
        row = next(row for row in rows if row[key] == 1)
        assert run_check(cid, {"witness": row}).passed
        report = run_check(cid, {"witness": {**row, key: True}})
        assert not report.passed
        assert np.isnan(report.max_residual)


def test_period_residuals_are_pinned():
    # the quadrature's block size must not move a bit of the three periods
    assert run_check("I-period-CP1").max_residual == 2.042810365310288e-14
    assert run_check("I-period-Q1").max_residual == 2.1316282072803006e-14
    assert run_check("I-period-match").max_residual == 3.552713678800501e-15


def _counted_jet_passes(monkeypatch) -> list:
    """The batch size of each jet pass of a SmoothMap, appended as it is made."""
    passes, differential = [], SmoothMap.differential

    def counted(self, x, vs):
        passes.append(len(x))
        return differential(self, x, vs)

    monkeypatch.setattr(SmoothMap, "differential", counted)
    return passes


@pytest.mark.parametrize("radii", [[1.0], [0.5, 1.0, 2.0], [0.5, 1.0, 2.0, 3.0, 4.0]])
def test_period_match_makes_one_jet_pass_of_each_chart_per_block(monkeypatch, radii):
    # r enters only as the forms' factor 2r: however many radii, the diagonal
    # chart and then the conic chart each make one pass a block, 51 and 29
    # rows of 80 nodes
    passes = _counted_jet_passes(monkeypatch)
    report = run_check("I-period-match", {"r": radii, "nodes": 80})
    assert report.passed and report.samples == len(radii)
    assert passes == [4080, 2320] * 2


def test_period_checks_make_13_jet_passes_at_their_default_nodes(monkeypatch):
    # a block holds BLOCK_NODES // nodes whole rows: 20 rows of 200 nodes for
    # CP^1, and the whole 64 x 64 grid of the conic and of each chart of the
    # match; blocks of 1024 nodes made 40, 4 and 4 + 4 passes
    passes = _counted_jet_passes(monkeypatch)
    expected = {"I-period-CP1": [4000] * 10, "I-period-Q1": [4096], "I-period-match": [4096, 4096]}
    for cid, sizes in expected.items():
        passes.clear()
        assert run_check(cid).passed
        assert passes == sizes, cid


@pytest.mark.parametrize("cid", ["I-period-CP1", "I-period-Q1", "I-period-match"])
def test_nodes_above_the_bound_allocate_nothing(cid):
    # the Gauss-Legendre rule holds a nodes x nodes companion matrix, which
    # the bound keeps to 8 MB (20,000 nodes asked for 2.98 GiB); a count above
    # it is refused before the rule is built
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=f"nodes must be at least 2 and at most {MAX_NODES}, got {MAX_NODES + 1}"):
            run_check(cid, {"nodes": MAX_NODES + 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_period_match_rows_replay_bit_for_bit():
    # each radius's integrals from the shared chart passes equal the row's own
    check = build_registry()["I-period-match"]
    inputs = check.gen(dict(check.params, r=(0.5, 1.0, 2.0, 3.0)), derive_stream(42, check.id))
    batched = _scores(check, inputs)
    assert len(batched) == 4 and batched.any()
    assert batched.tolist() == [run_check(check.id, {"witness": inputs[i]}).max_residual for i in range(4)]


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
        # failed with 1.8e-15: on CP^1 every 2-form is a multiple of omega_FS
        ("R-omega-r-not-FS", {"n": [1]}, "dimensions must be at least 2"),
        # no upper bound: each RK4 dimension compiles kernels whose source grows with n
        ("P-unitcut-rk4", {"n": [100_000]}, "dimensions must be at least 1 and at most 128"),
        ("R-omega-r-not-FS", {"n": [129]}, "dimensions must be at least 2 and at most 128"),
        ("R-uneven-flow", {"r": float("nan")}, "radii must be finite and positive"),
        ("P-evenedflow-restored", {"r_uneven": -0.5}, "radii must be finite and positive"),
        # at 1e-8 the fiber reaches the zero-section guard; at 3e7 the field's |G X| guard trips
        ("R-uneven-flow", {"r": 1e-8}, r"radii must be finite and positive, within \[1e-06, 1e\+06\]"),
        ("P-evenedflow-restored", {"r_uneven": 3e7}, r"within \[1e-06, 1e\+06\]"),
        ("L-projemb", {"r": [1.0, 1e-12]}, r"within \[1e-06, 1e\+06\]"),
        # ended in a TypeError inside the generator
        ("L-sphereembedding", {"n": 2}, "dimensions must be a list of integers"),
        ("L-projemb", {"samples": 2.5}, "samples must be an integer"),
        ("L-projemb", {"r": 0.5}, "radii must be a list of real numbers"),
        ("R-uneven-flow", {"r": [0.5]}, "radius must be a real number"),
        ("P-segre-pullback", {"samples": "4"}, "samples must be an integer"),
        ("P-unitcut-rk4", {"dt": "0.01"}, "dt must be a real number"),
        ("R-uneven-flow", {"t_checks": 3.0}, "t_checks must be a list of real numbers"),
        ("P-evenedflow-restored", {"t_checks": [1.0, None]}, "t_checks must be a list of real numbers"),
        # passed with 1.29 on an evened cosphere: the later segment ran backwards
        # zero steps and compared a stale point
        ("R-uneven-flow", {"r": 1.0, "t_checks": [np.pi, np.pi / 2.0]}, "t_checks must strictly increase"),
        ("P-evenedflow-restored", {"t_checks": [1.0, 1.0]}, "t_checks must strictly increase"),
    ],
)
def test_run_check_rejects_invalid_params(cid, params, message):
    with pytest.raises(UsageError, match=message):
        run_check(cid, params)


@pytest.mark.parametrize(
    "params, message",
    [
        # raised a bare ValueError or TypeError
        ({"tolerance": "abc"}, "tolerance must be a real number other than NaN, got 'abc'"),
        ({"tolerance": None}, "tolerance must be a real number other than NaN, got None"),
        ({"tolerance": [1]}, r"tolerance must be a real number other than NaN, got \[1\]"),
        # was accepted, and reported as the tolerance of a failed check
        ({"tolerance": float("nan")}, "tolerance must be a real number other than NaN, got nan"),
        ({"tolerance": 10**400}, "tolerance must be a real number other than NaN"),
        # the witness was replayed and the other params ignored
        ({"witness": {"n": 1, "p": [1.0, 0.0], "q": [0.0, 0.5]}, "samples": -5},
         r"a witness takes no parameter but tolerance, got \['samples'\]"),
        ({"witness": {"n": 1, "p": [1.0, 0.0], "q": [0.0, 0.5]}, "tolerance": 1.0, "n": [2]},
         r"a witness takes no parameter but tolerance, got \['n'\]"),
        # a null witness was taken for none, and 2 samples a dimension were generated and passed
        ({"witness": None, "samples": 2}, r"a witness takes no parameter but tolerance, got \['samples'\]"),
    ],
    ids=[
        "string", "None", "list", "nan", "huge int", "witness and samples", "witness, tolerance and n",
        "null witness and samples",
    ],
)
def test_run_check_rejects_a_bad_tolerance_or_a_witness_with_params(params, message):
    with pytest.raises(UsageError, match=f"check L-sphereembedding: {message}"):
        run_check("L-sphereembedding", params)


def test_a_witness_takes_an_injected_tolerance_of_any_real_but_nan():
    witness = {"n": 1, "p": [1.0, 0.0], "q": [0.0, 0.5]}
    for tolerance, passed in ((1.0, True), (math.inf, True), (-1, False), (-math.inf, False)):
        report = run_check("L-sphereembedding", {"witness": witness, "tolerance": tolerance})
        assert (report.tolerance, report.passed) == (tolerance, passed)


@pytest.mark.parametrize("end", [1e-6, 1e6])
def test_no_check_raises_at_either_end_of_the_radius_range(end):
    # the range's basis, swept over seeds 1-100; some verdicts fail at the ends,
    # whose tolerances are absolute while the residuals scale with the radius
    for cid, check in build_registry().items():
        for key in ("r", "r_uneven"):
            if key in check.params:
                report = run_check(cid, {key: [end] if isinstance(check.params[key], tuple) else end})
                assert report.samples > 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
@pytest.mark.parametrize(
    "cid, key, listed",
    [
        ("P-unitcut-rk4", "dt", False),
        ("P-unitcut-rk4", "t_final", False),
        ("P-unitcut-rk4-order", "dt0", False),
        ("P-unitcut-rk4-order", "t_final", False),
        ("P-evenedflow-restored", "dt", False),
        ("P-evenedflow-restored", "t_checks", True),
        ("R-uneven-flow", "t_checks", True),
    ],
)
def test_run_check_rejects_a_time_that_is_not_finite_and_positive(cid, key, listed, bad):
    # a NaN step ended in a rank failure, a negative one in a ValueError, and a
    # negative final time ran without integrating at all
    value = [1.0, bad] if listed else bad
    with pytest.raises(UsageError, match=f"{key} must be finite and positive"):
        run_check(cid, {key: value})


@pytest.mark.parametrize(
    "cid, times",
    [
        ("P-unitcut-rk4", {"t_final": float("nan")}),
        ("P-unitcut-rk4-order", {"t_final": float("nan")}),
        ("R-uneven-flow", {"ts": [float("nan"), 1.0]}),
        ("P-evenedflow-restored", {"ts": [float("nan"), 1.0]}),
    ],
)
def test_a_nan_time_in_a_witness_fails_with_itself_as_witness(cid, times):
    # the loop never runs at a NaN time, and max() used to drop the NaN
    # distance, so the replay passed with a residual of 0.0
    check = build_registry()[cid]
    inp = {**check.gen(dict(check.params), derive_stream(42, cid))[0], **times}
    report = run_check(cid, {"witness": inp})
    assert not report.passed
    assert np.isnan(report.max_residual)
    assert report.witness == inp


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), 0.0, -1.0])
@pytest.mark.parametrize(
    "cid, key",
    [
        ("P-unitcut-rk4", "t_final"),
        ("P-unitcut-rk4", "dt"),
        ("P-unitcut-rk4-order", "t_final"),
        ("P-unitcut-rk4-order", "dt0"),
        ("P-evenedflow-restored", "ts"),
        ("P-evenedflow-restored", "dt"),
        ("R-uneven-flow", "ts"),
        ("R-uneven-flow", "dt"),
    ],
)
def test_a_witness_time_that_is_not_finite_and_positive_scores_nan(cid, key, bad):
    # a witness replay skips the parameter checks; an infinite final time
    # never returned from the integrator
    check = build_registry()[cid]
    inp = check.gen(dict(check.params), derive_stream(42, cid))[0]
    inp = {**inp, key: [1.0, bad] if key == "ts" else bad}
    report = run_check(cid, {"witness": inp})
    assert not report.passed
    assert np.isnan(report.max_residual)
    assert report.witness == inp


def test_an_uneven_flow_witness_whose_times_do_not_increase_scores_nan():
    # on an evened cosphere no witness exists; backwards times passed with 1.29
    check = build_registry()["R-uneven-flow"]
    inp = check.gen({**check.params, "r": 1.0}, derive_stream(42, check.id))[0]
    assert not run_check(check.id, {"witness": inp}).passed
    for ts in ([np.pi, np.pi / 2.0], [1.0, 1.0]):
        report = run_check(check.id, {"witness": {**inp, "ts": ts}})
        assert not report.passed
        assert np.isnan(report.max_residual)


@pytest.mark.parametrize(
    "cid, key, value",
    [
        ("P-unitcut-rk4", "dt", 1e-300),
        ("P-unitcut-rk4", "t_final", 1e300),
        # each of its three segments alone fits (at most 750,000 steps), the whole trajectory does not
        ("P-unitcut-rk4", "t_final", 1500.0),
        ("P-unitcut-rk4-order", "dt0", 1e-300),
        # the coarse trajectory alone fits (628,319 steps), the fine one does not
        ("P-unitcut-rk4-order", "dt0", 5e-6),
        ("P-evenedflow-restored", "dt", 1e-300),
        ("R-uneven-flow", "dt", 1e-300),
    ],
)
def test_a_trajectory_over_the_step_limit_is_refused_before_it_starts(cid, key, value, monkeypatch):
    # a step below ulp(t) left t as it was: a run and a replay at dt = 1e-300
    # both ran until killed; a refused trajectory fetches no kernel
    def no_step(*args):
        raise AssertionError("a refused trajectory must fetch no kernel")

    monkeypatch.setattr(dynamics, "_rk4_kernel", no_step)
    with pytest.raises(UsageError, match=f"check {cid}: .* RK4 steps, more than the limit of 1,000,000"):
        run_check(cid, {key: value})
    check = build_registry()[cid]
    inp = {**check.gen(dict(check.params), derive_stream(42, cid))[0], key: value}
    report = run_check(cid, {"witness": inp})
    assert not report.passed
    assert np.isnan(report.max_residual)
    assert report.witness == inp


@pytest.mark.parametrize("cid", ["P-unitcut-rk4", "P-unitcut-rk4-order", "P-evenedflow-restored", "R-uneven-flow"])
def test_a_dimension_above_the_bound_compiles_no_kernel(cid, monkeypatch):
    # compiling the RK4 kernel of a dimension takes memory that grows with
    # it, a peak of about 105 KB a dimension (tracemalloc, d = 33 to 129):
    # unbounded, --n 100000 would have needed about 10 GB before its first step
    def no_kernel(*args):
        raise AssertionError("a refused dimension must compile no kernel")

    monkeypatch.setattr(dynamics, "_rk4_kernel", no_kernel)
    for n in (MAX_DIM + 1, 100_000):
        with pytest.raises(UsageError, match=f"at most {MAX_DIM}"):
            run_check(cid, {"n": [n]})
    n = MAX_DIM + 1
    witness = _generated_row(cid, n=n, p=[1.0] + [0.0] * n, q=[0.0, 1.0] + [0.0] * (n - 1))
    report = run_check(cid, {"witness": witness})
    assert not report.passed
    assert np.isnan(report.max_residual)


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


# the integrator checks cost seconds per seed; their verdicts are pinned at
# seeds 42 and 1-10 by full suite runs
RK4_CHECKS = {"P-unitcut-rk4", "P-unitcut-rk4-order", "P-evenedflow-restored", "R-uneven-flow"}


def test_verdicts_hold_over_a_sweep_of_seeds():
    # outcomes must not depend on the seed; a failing seed is a finding
    for cid, check in build_registry().items():
        if cid in RK4_CHECKS:
            continue
        if "samples" not in check.params:
            # a period check draws nothing: every seed gives the same inputs
            drawn = [list(check.gen(dict(check.params), derive_stream(s, cid))) for s in (1, 20)]
            assert drawn[0] == drawn[1], cid
            assert run_check(cid, seed=1).passed, cid
            continue
        for seed in range(1, 21):
            report = run_check(cid, {"samples": 50}, seed=seed)
            assert report.passed, (cid, seed, report.max_residual)


def test_rejection_loops_top_up_to_the_requested_count(monkeypatch):
    # a branch margin that rejects about 95% of the disc draws at n = 2
    monkeypatch.setattr(checks_module, "BRANCH_MARGIN", 0.36)
    drawn = []
    sampler = checks_module.sample_disc_bundle

    def counting(*args, size=None):
        drawn.append(size)
        return sampler(*args, size=size)

    monkeypatch.setattr(checks_module, "sample_disc_bundle", counting)
    check = build_registry()["P-omega-r-descent"]
    params = {**check.params, "samples": 20}
    inputs = check.gen(params, derive_stream(42, check.id))
    again = check.gen(params, derive_stream(42, check.id))
    assert checks_module._json_scalar(list(inputs)) == checks_module._json_scalar(list(again))
    # several rounds per n, each drawing only the shortfall, and most rows rejected
    assert len(drawn) > 2 * len(params["n"]) and sum(drawn) > 5 * len(inputs)
    for n in params["n"]:
        rows = [inp for inp in inputs if inp["n"] == n]
        assert len(rows) == 20
        for inp in rows:
            m = quadric_to_cotangent(proj_normalize(np.asarray(inp["z"]["re"]) + 1j * np.asarray(inp["z"]["im"])))
            q2 = m.q @ m.q
            assert (1.0 - q2) / (1.0 + q2) > 0.9 - 1e-12


# sha256 of each check's serialized inputs at seed 42 with every "samples" set
# to 4, recorded from the generators that draw each (n, r) group in bulk
PINNED_INPUT_HASHES = {
    "L-projemb": "9673acd495c2315d56fab498087e750ef5d7e07455faa9f05279ed03bee37df5",
    "L-sphereembedding": "ec2428e34e9aca0e702f71762ab1ec2b2d52011976b0a5cc5456565899abab26",
    "L-sphereembedding-lift": "0989ad187d3a22ff44c1a02818a17af00d4e29bae80a2d23090b09e56ce2415d",
    "P-unitcut-boundary": "da7d2dfad159f8fc46234bf8f79f7cf5ecfce52064f7223439054fc1be1fe398",
    "P-unitcut-flow": "15c6ad6b2e63b68939c7b47942d6c6c52b482e50fbf4f53818e56a26aaf08fdf",
    "P-unitcut-rk4": "59a602113c638e86e3cb1328d7d5880ec659a6d6eda74b46f1efa7e6c54c1b88",
    "P-unitcut-rk4-order": "84c63d523729a85d2999c1a8be61242f4570c5f84f1e1431dbeb8be5fd24fd81",
    "C-branchedcover-deck": "298337d629856d466f74e4dec56e4f78dcc523548510948a149c84a0e2d84777",
    "C-branchedcover-fibers": "85c4c2f63deb1fd4ec127f494241f3bac1a93a91eab0033b28bf5a3ba2c65138",
    "R-pi-not-symplectic": "8c5dd591655c2467aa6d41633dd95d0a9e029b5e397b31f3675f2521ee873ce6",
    "P-segre-pullback": "296b2bf3ae91086f38d926a58ce14476f0f4a3284ed3351f7e9b4c8ad9ee5a80",
    "P-segre-equivariance": "59bf9c05d629298a40e4c03630c994a4f1b81fe3be6d8eb7a4804b70b19ceca4",
    "R-diag-antidiag": "52f58e96177d52fe5b9b67c60761c22d1c21dc1ce5b3e18f0197ac268fb3e109",
    "P-evenedrescale": "b251ade713f6881ec130c3941444eedf2b5409d3e34ce45afe80ea4b02ede432",
    "P-evenedflow-restored": "13ed212c0d978be62eec9d614021fee69d73cf94887a0e6dc6d8790428b23b30",
    "R-uneven-flow": "83865a5d2c43d67df608307971918ae86d25f46b1f22709572adb7e17d7310ea",
    "P-omega-r-descent": "1ea5dc9fc5844f19a8ea2bc29721858b03b2496abdd51c7e25fb692838c31281",
    "R-omega-r-not-FS": "e4e126e8a72148f3e86b76e85037fe2b578157d8947424f98de4b7e5fac1b761",
    "I-period-CP1": "087e30deae33f4c3c97859894f9848d64c0adbde42a376592342be3ba8f42524",
    "I-period-Q1": "320a66c0d9a75fca980b42c80a6958c7e038a7646dd55d4d1a53ffc9568b0202",
    "I-period-match": "9fbe10420106a35515163740d5ab7c1cf5a5d22b3581b5c7fbd9b9efe9432ad0",
    "T-zerosection": "6e6351950471e2c60eb798d38ced91b3b113b346a4c18bafe02b3ba9b5af0b7c",
}


def test_generated_inputs_match_their_pinned_hashes():
    # a refactor of the generators must keep both the RNG order and the key order
    registry = build_registry()
    assert set(registry) == set(PINNED_INPUT_HASHES)
    for cid, check in registry.items():
        params = {**check.params, "samples": 4} if "samples" in check.params else dict(check.params)
        text = checks_module._json_scalar(list(check.gen(params, derive_stream(42, cid))))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_INPUT_HASHES[cid], cid


@pytest.mark.parametrize("sampler", ["sample_tangent", "_quadric_tangent"])
def test_tangent_samplers_are_isotropic(sampler):
    # over 20k draws at one point, the mean of t t^T is P / dim, P the
    # projector onto the tangent space: a sampler that skips a projection or
    # favours a direction misses it
    draws, rng = 20_000, derive_stream(91, sampler)
    m = sample_disc_bundle(2, 1.0, 0.7, rng)
    if sampler == "sample_tangent":
        t = sample_tangent(CotangentPoint(p=np.tile(m.p, (draws, 1)), q=np.tile(m.q, (draws, 1))), rng)
        normals = [np.concatenate([m.p, np.zeros(3)]), np.concatenate([m.q, m.p])]
    else:
        rep = cotangent_to_quadric(m).rep
        t = realify(checks_module._quadric_tangent(ProjectivePoint(np.tile(rep, (draws, 1))), rng))
        normals = [realify(v) for v in (rep, 1j * rep, rep.conj(), 1j * rep.conj())]
    basis = np.linalg.qr(np.array(normals).T)[0]
    projector = np.eye(t.shape[1]) - basis @ basis.T
    assert np.max(np.abs(t.T @ t / draws - projector / (t.shape[1] - len(normals)))) < 0.01
