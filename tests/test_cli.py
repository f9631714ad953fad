"""Command-line interface: subcommands, flags, exit codes, seed resolution."""

import json

import pytest

from quadcover.cli import main


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "L-projemb" in out
    assert "I-period-Q1" in out


def test_run_with_glob_and_json_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--suite", "P-segre-*", "--samples", "50", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    parsed = json.loads(out.read_text())
    assert [entry["id"] for entry in parsed] == ["P-segre-pullback", "P-segre-equivariance"]
    assert all(entry["passed"] for entry in parsed)


def test_run_text_goes_to_stdout(capsys):
    code = main(["run", "--suite", "L-sphereembedding", "--samples", "30", "--n", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "L-sphereembedding" in out
    assert "pass" in out


def test_empty_match_is_usage_error(capsys):
    assert main(["run", "--suite", "nothing-*"]) == 2
    assert "no check matches" in capsys.readouterr().err


def test_bad_flag_is_usage_error():
    assert main(["run", "--definitely-not-a-flag"]) == 2
    assert main(["frobnicate"]) == 2


def test_seed_flag_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("VERIFY_SEED", "7")
    out = tmp_path / "a.json"
    main(["run", "--suite", "I-period-CP1", "--format", "json", "--out", str(out)])
    assert json.loads(out.read_text())[0]["seed"] == 7
    main(["run", "--suite", "I-period-CP1", "--seed", "11", "--format", "json", "--out", str(out)])
    assert json.loads(out.read_text())[0]["seed"] == 11


def test_bad_environment_seed_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("VERIFY_SEED", "not-a-number")
    assert main(["run", "--suite", "I-period-CP1"]) == 2
    assert "VERIFY_SEED" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, n, radii, samples",
    [
        # one dimension, one radius, 40 samples, 3 tangent pairs each
        ("L-projemb", "1", ["1.0"], 120),
        # one dimension, 40 samples at each of two radii; at n = 1 every
        # two-form is proportional to omega_FS, so no witness exists there
        ("R-omega-r-not-FS", "2", ["0.5", "2"], 80),
    ],
)
def test_radius_and_dimension_overrides(tmp_path, suite, n, radii, samples):
    out = tmp_path / "r.json"
    flags = [arg for r in radii for arg in ("--radius", r)]
    code = main(["run", "--suite", suite, "--n", n, *flags, "--samples", "40", "--format", "json", "--out", str(out)])
    assert code == 0
    entry = json.loads(out.read_text())[0]
    assert entry["samples"] == samples


def test_tol_profile_flag(capsys):
    assert main(["run", "--suite", "P-unitcut-flow", "--samples", "10", "--tol-profile", "strict"]) == 0


def test_zero_samples_is_usage_error(capsys):
    assert main(["run", "--suite", "L-projemb", "--samples", "0"]) == 2
    assert "samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, flags",
    [
        ("P-unitcut-rk4", ["--n", "0"]),
        ("L-projemb", ["--n", "1", "--n", "-2"]),
        ("P-evenedrescale", ["--radius", "-1"]),
        ("P-omega-r-descent", ["--radius", "0"]),
        ("L-projemb", ["--radius", "nan"]),
        ("L-projemb", ["--radius", "inf"]),
    ],
)
def test_bad_dimension_or_radius_is_usage_error(suite, flags, capsys):
    assert main(["run", "--suite", suite, *flags]) == 2
    err = capsys.readouterr().err
    assert "dimensions must be at least 1" in err or "radii must be finite and positive" in err


def test_non_finite_residual_exits_one_with_string_value(tmp_path, monkeypatch):
    import quadcover.checks as checks_module

    # -inf is below every tolerance, yet it is no residual
    monkeypatch.setattr(checks_module, "_res_zerosection", lambda inp, profile: float("-inf"))
    out = tmp_path / "inf.json"
    code = main(["run", "--suite", "T-zerosection", "--samples", "2", "--format", "json", "--out", str(out)])
    assert code == 1
    entry = json.loads(out.read_text())[0]
    assert entry["max_residual"] == "-inf"
    assert entry["passed"] is False
    assert "witness" in entry
