"""Command-line front end for the scenario runner.

Exit codes: 0 all checks passed, 1 a tolerance check failed,
2 configuration or input validation failed.

The argument parser is built on the first main call, not at import, and
repeated main calls in one process share it: parse_args keeps no state
between calls, and the help width and sys.stderr are read when it
prints, so a shared parser prints what a fresh process would.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .scenario import (
    BUILTIN_SCENARIOS,
    ConfigError,
    apply_overrides,
    builtin_members,
    parse_config,
    run_builtin,
    run_scenario,
    sweep,
)

EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_VALIDATION = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberphase",
        description="Run geometric-phase scenarios for photons in coiled fibres.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", metavar="PATH", help="JSON scenario config file")
    source.add_argument("--scenario", metavar="NAME", help="built-in scenario name")
    parser.add_argument("--out", metavar="DIR", default="runs", help="output directory (default: runs)")
    parser.add_argument("--steps", type=int, metavar="N", help="override integration steps")
    parser.add_argument("--nmax", type=int, metavar="N", help="override per-mode occupation cutoff")
    parser.add_argument("--tol", type=float, metavar="X", help="override comparison tolerance")
    parser.add_argument(
        "--sweep",
        metavar="PARAM=v1,v2,...",
        help="sweep one parameter (lambda, turns, n_R, n_L, epsilon2) using the config as template",
    )
    parser.add_argument("--list-scenarios", action="store_true", help="list built-in scenarios and exit")
    return parser


def _error_report(exc: ConfigError) -> None:
    report = {"error": {"field": exc.field, "message": exc.message}}
    print(json.dumps(report), file=sys.stderr)


def _parse_sweep_arg(text: str) -> tuple[str, list[float]]:
    if "=" not in text:
        raise ConfigError("sweep", "expected PARAM=v1,v2,...")
    param, _, rest = text.partition("=")
    try:
        values = [float(v) for v in rest.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError("sweep", f"could not parse values from {rest!r}") from None
    return param.strip(), values  # sweep refuses an empty list and non-finite values


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in sorted(BUILTIN_SCENARIOS):
            labels = ", ".join(label for label, _ in BUILTIN_SCENARIOS[name])
            print(f"{name}: {labels}")
        return EXIT_PASS

    if not args.config and not args.scenario:
        parser.print_usage(sys.stderr)
        print("fiberphase: error: one of --config/--scenario/--list-scenarios is required", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if args.config:
            path = Path(args.config)
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except OSError as exc:  # missing, a directory, unreadable
                raise ConfigError("config", f"cannot read {path}: {exc.strerror or exc}") from None
            except ValueError as exc:  # also an int past the interpreter's digit limit
                raise ConfigError("config", f"invalid JSON: {exc}") from None
            data = apply_overrides(data, args.steps, args.nmax, args.tol)
            config = parse_config(data, path.stem, base_dir=path.parent)
        elif args.sweep:
            members = builtin_members(args.scenario)
            if len(members) != 1:
                raise ConfigError("sweep", "sweeps need a single-run scenario as template")
            label, raw = members[0]
            config = parse_config(apply_overrides(raw, args.steps, args.nmax, args.tol), label)
        else:
            code = run_builtin(args.scenario, args.out, steps=args.steps, n_max=args.nmax, tolerance=args.tol)
            print(f"status: {'pass' if code == 0 else 'fail'}")
            return code

        if args.sweep:
            param, values = _parse_sweep_arg(args.sweep)
            code, csv_path = sweep(config, param, values, args.out)
            print(f"wrote {csv_path}")
            print(f"status: {'pass' if code == 0 else 'fail'}")
            return code
        outcome = run_scenario(config, args.out)
        for f in outcome.files:
            print(f"wrote {f}")
        print(f"status: {outcome.summary['status']}")
        return outcome.exit_code
    except ConfigError as exc:
        _error_report(exc)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": {"field": "runtime", "message": str(exc)}}), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
