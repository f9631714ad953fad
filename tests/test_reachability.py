"""Every function in src/quadcover runs in some run of the verifier, or is named here with its reason.

A function that only the tests call belongs in tests/. The profile hook
records every Python function that these calls reach: the CLI runs
``run --samples 4 --n 2``, ``run --tol-profile strict --format json``,
``list`` and ``run --n 0``, one witness replay per check, and one run with
an injected tolerance. The test then walks each module's source for its
``def`` statements.
"""

import ast
import math
import sys
from pathlib import Path

import quadcover
from quadcover import cli
from quadcover.checks import build_registry, run_check
from quadcover.numerics import derive_stream

SRC = Path(quadcover.__file__).resolve().parent

# the functions that no run reaches, each with the reason it stays in src/
UNREACHED = {
    "checks._check": "runs when quadcover.checks is imported, to register each check",
    "checks._check.<locals>.register": "runs at import too, once for each check",
    "checks.Check.gen": "draws a check's inputs whole for perfbench/run.py; a run draws one block at a time",
    "checks.Inputs.__init__": "the row view Check.gen returns to perfbench/run.py; a run scores each block alone",
    "checks.Inputs.__len__": "the row view Check.gen returns to perfbench/run.py; a run scores each block alone",
    "checks.Inputs.__getitem__": "the row view Check.gen returns to perfbench/run.py; a run scores each block alone",
    "cli.entry": "the verify console script: it calls main and exits with its status",
    "jets.Jet.__array__": "a guard: it refuses to turn a jet into an array, which only a defect tries",
    "jets.Jet.conj": "the method form of np.conj, which a map written on arrays may call; no check's map does",
    "maps._outside_ball": "a guard: it raises for a point outside the ball, and no valid input is one",
}


def _defs() -> dict[tuple[str, int], str]:
    """Each def of src/quadcover by (file, first line, its first decorator's if any): its module-qualified name."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def test_every_function_in_src_is_reached_by_a_run_or_named_with_its_reason():
    registry = build_registry()
    rows = {}
    for cid, check in registry.items():
        # one row of each check, whose replay takes RK4 steps of 0.1 where its row holds a step
        small = {"samples": 1, "trajectories": 1, "dt": 0.1}
        params = {**check.params, **{key: value for key, value in small.items() if key in check.params}}
        rows[cid] = check.gen(params, derive_stream(42, cid))[0]
    # the cached functions run again, as in a fresh process
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("quadcover."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        statuses = [
            cli.main(argv)
            for argv in (
                ["run", "--samples", "4", "--n", "2"],
                ["run", "--tol-profile", "strict", "--format", "json"],
                ["list"],
                ["run", "--n", "0"],
            )
        ]
        replays = [run_check(cid, {"witness": row}) for cid, row in rows.items()]
        injected = run_check("L-projemb", {"tolerance": 1.0, "samples": 4})
    finally:
        sys.setprofile(None)
    assert statuses == [0, 0, 0, 2]
    # each row parsed and reached its check's residual: a malformed one would score NaN
    assert all(math.isfinite(report.max_residual) for report in replays) and injected.passed
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in called}
    defs = _defs()
    names = set(defs.values())
    reached_names = {name for key, name in defs.items() if key in reached}
    unreached = sorted(names - reached_names - set(UNREACHED))
    assert not unreached, f"no run reaches {unreached}: move each to tests/, or name it in UNREACHED with its reason"
    # and the list names only functions that exist and that no run reaches
    assert set(UNREACHED) <= names, sorted(set(UNREACHED) - names)
    assert not reached_names & set(UNREACHED), sorted(reached_names & set(UNREACHED))
