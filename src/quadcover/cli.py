"""Command-line front end.

``verify run`` executes checks matching an id glob and emits a text table or
deterministic JSON; ``verify list`` prints the registry. Exit codes: 0 all
pass, 1 any fail, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .checks import MAX_DIM, PROFILES, UsageError, build_registry, emit_report, run_suite


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``verify`` parser, built on the first call and shared after it.

    Building it costs several times a parse; sharing it is safe because
    every ``parse_args`` fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run named numerical verifications of the disc-bundle compactification maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run checks matching an id glob")
    run.add_argument("--suite", action="append", metavar="GLOB", help="check id glob (default '*'; at most one)")
    run.add_argument(
        "--n",
        type=int,
        action="append",
        metavar="INT",
        help=f"override the ambient dimension list, each in [1, {MAX_DIM}] (repeatable)",
    )
    run.add_argument(
        "--radius",
        type=float,
        action="append",
        metavar="REAL",
        help="override the radius list (repeatable)",
    )
    run.add_argument("--samples", type=int, metavar="INT", help="override sample counts")
    run.add_argument("--seed", type=int, default=42, metavar="INT", help="master seed (default 42)")
    run.add_argument("--tol-profile", choices=PROFILES, default="default")
    run.add_argument("--format", choices=["text", "json"], default="text")
    run.add_argument("--out", metavar="PATH", help="write the report to a file instead of stdout")

    sub.add_parser("list", help="print the check registry")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0

    try:
        if args.command == "list":
            registry = build_registry()
            width = max(len(cid) for cid in registry)
            for cid, check in registry.items():
                print(f"{cid:<{width}}  {check.statement}")
            return 0

        # one glob a run: a second is refused, so that no glob is silently ignored
        suite, *extra = args.suite or ["*"]
        if extra:
            raise UsageError(f"--suite takes one glob, got {len(args.suite)}: {', '.join(map(repr, args.suite))}")
        reports, status = run_suite(
            suite,
            seed=args.seed,
            samples=args.samples,
            n_values=args.n,
            radii=args.radius,
            profile=args.tol_profile,
        )
        emit_report(reports, format=args.format, destination=args.out)
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
