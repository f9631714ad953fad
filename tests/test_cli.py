"""Command-line interface: subcommands, flags, exit codes, seed resolution."""

import json

import pytest

import quadcover.cli as cli
from quadcover.checks import build_registry
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


def test_a_repeated_suite_is_usage_error(capsys):
    # argparse kept the last glob: this ran R-uneven-flow alone and exited 0
    assert main(["run", "--suite", "P-*", "--suite", "R-uneven-flow"]) == 2
    assert "--suite takes one glob, got 2: 'P-*', 'R-uneven-flow'" in capsys.readouterr().err


def test_bad_flag_is_usage_error():
    assert main(["run", "--definitely-not-a-flag"]) == 2
    assert main(["frobnicate"]) == 2


def test_seed_flag_sets_the_seed(tmp_path):
    out = tmp_path / "a.json"
    main(["run", "--suite", "I-period-CP1", "--format", "json", "--out", str(out)])
    assert json.loads(out.read_text())[0]["seed"] == 42
    main(["run", "--suite", "I-period-CP1", "--seed", "11", "--format", "json", "--out", str(out)])
    assert json.loads(out.read_text())[0]["seed"] == 11


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


@pytest.mark.parametrize("radius", ["1e-200", "1e-12", "1.1e10", "1e200"])
def test_a_radius_outside_the_declared_range_is_usage_error(radius, capsys):
    # finite and positive, yet 1e-200 and 1e-12 raised "degenerate point" (or
    # left the ball), 1.1e10 a rank failure and 1e200 OverflowError
    assert main(["run", "--radius", radius]) == 2
    err = capsys.readouterr().err
    assert "radii must be finite and positive, within [1e-06, 1e+06]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "suite, flags",
    [
        ("T-zerosection", ["--radius", "nan"]),
        ("T-zerosection", ["--radius", "1e200"]),
        ("P-segre-pullback", ["--n", "0"]),
        ("P-segre-pullback", ["--n", "100000"]),
        ("I-period-CP1", ["--samples", "0"]),
        ("I-period-CP1", ["--samples", "-5"]),
    ],
)
def test_an_invalid_suite_wide_flag_is_usage_error_whatever_the_glob(suite, flags, capsys):
    # no matched check reads the flag; a bad value is refused before any check runs
    assert main(["run", "--suite", suite, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_dimension_above_the_bound_is_usage_error(capsys):
    # unbounded, --n 100000 would have compiled RK4 kernels of about 1.7 GB
    assert main(["run", "--suite", "P-unitcut-rk4", "--n", "100000"]) == 2
    err = capsys.readouterr().err
    assert "dimensions must be at least 1 and at most 128" in err
    assert "Traceback" not in err


def test_dimension_below_a_checks_least_is_usage_error(tmp_path, capsys):
    # on CP^1 every two-form is a multiple of omega_FS, so the check takes n >= 2
    assert main(["run", "--suite", "R-omega-r-not-FS", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "R-omega-r-not-FS" in err and "dimensions must be at least 2" in err
    # a suite-wide list passes each check only the dimensions it takes
    out = tmp_path / "n.json"
    flags = ["--n", "1", "--n", "3", "--samples", "20", "--format", "json", "--out", str(out)]
    assert main(["run", "--suite", "R-omega-r-not-FS", *flags]) == 0
    assert json.loads(out.read_text())[0]["samples"] == 20


def test_the_shared_parser_leaks_nothing_between_runs(tmp_path, monkeypatch):
    # the parser is built once a process; a run without --n after one with it
    # runs at the declared dimensions
    configs, run_suite = [], cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda pattern, **kw: configs.append(kw) or run_suite(pattern, **kw))
    out = tmp_path / "n.json"
    common = ["--suite", "L-sphereembedding", "--samples", "5", "--format", "json", "--out", str(out)]
    for flags in (["--n", "1", "--n", "3"], []):
        assert main(["run", *common, *flags]) == 0
    assert [c["n_values"] for c in configs] == [[1, 3], None]
    declared = build_registry()["L-sphereembedding"].params["n"]
    assert json.loads(out.read_text())[0]["samples"] == 5 * len(declared)
    assert cli._build_parser() is cli._build_parser()


def test_non_finite_residual_exits_one_with_string_value(tmp_path, monkeypatch):
    import quadcover.checks as checks_module

    # -inf is below every tolerance, yet it is no residual
    monkeypatch.setattr(checks_module, "_res_zerosection", lambda rows: float("-inf"))
    out = tmp_path / "inf.json"
    code = main(["run", "--suite", "T-zerosection", "--samples", "2", "--format", "json", "--out", str(out)])
    assert code == 1
    entry = json.loads(out.read_text())[0]
    assert entry["max_residual"] == "-inf"
    assert entry["passed"] is False
    assert "witness" in entry


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_an_unwritable_out_path_is_usage_error(tmp_path, where, capsys):
    # a missing directory or a directory itself raised FileNotFoundError or
    # IsADirectoryError with a traceback and exit 1, the code of a failed check
    out = tmp_path / "nonexistent" / "r.json" if where == "missing" else tmp_path
    assert main(["run", "--suite", "T-zerosection", "--samples", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write report to {out}" in err
    assert "Traceback" not in err
