"""Batch runner: run, validate, and list scenario files.

Exit codes: 0 all assertions passed, 1 an embedded assertion failed, 2 a
scenario file failed to parse or the command line is malformed (``--jobs``
must be at least 1; it is capped at the scenario count), 3 a scenario failed
validation, before any analysis ran (this covers every part's and analysis's
values, each coin window's size, each run's size within the bounds in
``config``, and two analyses with one report key), 4 an internal
consistency check failed or an analysis raised any other exception
(its block names the type under ``internal_error``), 5 a quantity the
scenario asks for is undefined (a failed certificate, an ambiguous
eigenvalue, a trace norm that does not sum).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path

from .errors import ConsistencyError, FluxwalkError, ValidationError
from .report import dump_report
from .scenarios import run_scenario, validate_scenario

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONSISTENCY = 4
EXIT_UNDEFINED = 5

OUT_ENV = "FLUXWALK_OUT"


def bundled_scenarios() -> dict[str, Path]:
    root = resources.files("fluxwalk").joinpath("data")
    out = {}
    for entry in sorted(root.iterdir()):
        if entry.name.endswith(".json"):
            out[entry.name[: -len(".json")]] = Path(str(entry))
    return out


def _resolve(token: str) -> Path:
    path = Path(token)
    if path.exists():
        return path
    bundled = bundled_scenarios()
    if token in bundled:
        return bundled[token]
    raise FileNotFoundError(f"no scenario file or bundled scenario named {token!r}")


def _attempt(token: str, action) -> tuple[int, object]:
    """``(EXIT_OK, action(spec))`` for the scenario that ``token`` names, or the
    reported exit code of its parse failure or of ``action``'s error, and None."""
    try:
        spec = json.loads(_resolve(token).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: parse: {token}: {exc}", file=sys.stderr)
        return EXIT_PARSE, None
    try:
        return EXIT_OK, action(spec)
    except ValidationError as exc:
        print(f"error: validation: {token}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION, None
    except FluxwalkError as exc:
        print(f"error: {token}: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY if isinstance(exc, ConsistencyError) else EXIT_UNDEFINED, None


def _run_one(args: tuple[str, int | None, str, str]) -> int:
    token, seed, profile, out_dir = args
    code, result = _attempt(token, lambda spec: run_scenario(spec, seed_override=seed, profile=profile))
    if result is None:
        return code
    target = Path(out_dir) / result.report["name"]
    target.mkdir(parents=True, exist_ok=True)
    (target / "report.json").write_text(dump_report(result.report), encoding="utf-8")
    for filename, content in result.files.items():
        (target / filename).write_text(content, encoding="utf-8")
    for key, block in result.report["analyses"].items():
        status = "pass" if block.get("pass") else "FAIL"
        print(f"{target.name}: {key}: {status}")
    if any("internal_error" in block for block in result.report["analyses"].values()):
        print(f"error: internal: {token}: see {target / 'report.json'}", file=sys.stderr)
        return EXIT_CONSISTENCY
    if not result.ok:
        print(f"error: assertion: {token}: see {target / 'report.json'}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fluxwalk",
        description="Transport indices of strictly local lattice unitaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="Run scenario files and write reports")
    run_cmd.add_argument("scenarios", nargs="+", help="Scenario paths or bundled names")
    run_cmd.add_argument("--out", default=None, help="Output directory (default: $FLUXWALK_OUT or ./reports)")
    run_cmd.add_argument("--jobs", type=int, default=1, help="Parallel scenario processes, at least 1 (capped at the scenario count)")
    run_cmd.add_argument("--seed", type=int, default=None, help="Override every scenario seed")
    run_cmd.add_argument(
        "--tolerance-profile",
        choices=["default", "strict"],
        default="default",
    )

    val_cmd = sub.add_parser("validate", help="Validate scenarios without running them")
    val_cmd.add_argument("scenarios", nargs="+")

    sub.add_parser("list", help="List bundled scenarios")

    args = parser.parse_args(argv)
    if args.command == "run" and args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")

    if args.command == "list":
        for name, path in bundled_scenarios().items():
            desc = _attempt(str(path), lambda spec: str(spec.get("description", "")))[1]
            print(f"{name}: {'(unreadable)' if desc is None else desc}")
        return EXIT_OK

    if args.command == "validate":
        worst = EXIT_OK
        for token in args.scenarios:
            code, notes = _attempt(token, validate_scenario)
            worst = max(worst, code)
            if notes is not None:
                print(f"{token}: valid")
                for note in notes:
                    print(f"  {note}")
        return worst

    out_dir = args.out or os.environ.get(OUT_ENV) or "reports"
    tasks = [(token, args.seed, args.tolerance_profile, out_dir) for token in args.scenarios]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            codes = list(pool.map(_run_one, tasks))
    else:
        codes = [_run_one(t) for t in tasks]
    return max(codes) if codes else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
