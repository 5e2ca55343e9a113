"""Batch runner: run, validate, and list scenario files.

Exit codes: 0 all assertions passed, 1 an embedded assertion failed,
2 a scenario file failed to parse, 3 a scenario failed validation, 4 an
internal consistency check failed, 5 a quantity the scenario asks for is
undefined (a failed certificate, an ambiguous eigenvalue, a trace norm
that does not sum).
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


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run_one(args: tuple[str, int | None, str, str]) -> int:
    token, seed, profile, out_dir = args
    try:
        path = _resolve(token)
        spec = _load(path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: parse: {token}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        result = run_scenario(spec, seed_override=seed, profile=profile)
    except ValidationError as exc:
        print(f"error: validation: {token}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FluxwalkError as exc:
        print(f"error: {token}: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY if isinstance(exc, ConsistencyError) else EXIT_UNDEFINED
    name = result.report.get("name") or path.stem
    target = Path(out_dir) / name
    target.mkdir(parents=True, exist_ok=True)
    (target / "report.json").write_text(dump_report(result.report), encoding="utf-8")
    for filename, content in result.files.items():
        (target / filename).write_text(content, encoding="utf-8")
    for key, block in result.report["analyses"].items():
        status = "pass" if block.get("pass") else "FAIL"
        print(f"{name}: {key}: {status}")
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
    run_cmd.add_argument("--jobs", type=int, default=1, help="Parallel scenario processes")
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

    if args.command == "list":
        for name, path in bundled_scenarios().items():
            try:
                desc = _load(path).get("description", "")
            except json.JSONDecodeError:
                desc = "(unreadable)"
            print(f"{name}: {desc}")
        return EXIT_OK

    if args.command == "validate":
        worst = EXIT_OK
        for token in args.scenarios:
            try:
                spec = _load(_resolve(token))
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: parse: {token}: {exc}", file=sys.stderr)
                worst = max(worst, EXIT_PARSE)
                continue
            try:
                notes = validate_scenario(spec)
            except ValidationError as exc:
                print(f"error: validation: {token}: {exc}", file=sys.stderr)
                worst = max(worst, EXIT_VALIDATION)
                continue
            print(f"{token}: valid")
            for note in notes:
                print(f"  {note}")
        return worst

    out_dir = args.out or os.environ.get(OUT_ENV) or "reports"
    tasks = [(token, args.seed, args.tolerance_profile, out_dir) for token in args.scenarios]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(_run_one, tasks))
    else:
        codes = [_run_one(t) for t in tasks]
    return max(codes) if codes else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
