"""Command-line front end for the scenario runner.

Exit codes: 0 all checks passed (or the help was printed), 1 a tolerance
check failed, 2 configuration or input validation failed, or a usage error.

The flags are one table, _FLAGS.  One pass over argv reads it, and the
same table prints the usage and the help.  A flag's value is the next
token or follows "=" (--steps=64), and the last repeat of a flag wins.
Flags are spelt in full: an abbreviation such as --conf is an unknown
token.  A value may start with "-" only as "-", as a plain negative
number (-5, -.5) or with a space in it; any other such token is read as a
flag.  The tokens after "--" are unknown.  A usage error prints the usage
and one error line to stderr.  main returns every exit code; it raises no
SystemExit.  The usage and the help keep the standard library parser's
layout, at the terminal width read when they print (COLUMNS first, 80 off
a terminal), less 2.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

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

# (spellings, metavar, type, default, help).  A flag without a metavar is a
# switch.  --scenario follows --config: the usage shows them as one exclusive group.
_FLAGS = (
    (("-h", "--help"), None, None, None, "show this help message and exit"),
    (("--config",), "PATH", str, None, "JSON scenario config file"),
    (("--scenario",), "NAME", str, None, "built-in scenario name"),
    (("--out",), "DIR", str, "runs", "output directory (default: runs)"),
    (("--steps",), "N", int, None, "override integration steps"),
    (("--nmax",), "N", int, None, "override per-mode occupation cutoff"),
    (("--tol",), "X", float, None, "override comparison tolerance"),
    (("--sweep",), "PARAM=v1,v2,...", str, None,
     "sweep one parameter (lambda, turns, n_R, n_L, epsilon2) using the config as template"),
    (("--list-scenarios",), None, None, False, "list built-in scenarios and exit"),
)
_BY_SPELLING = {name: entry for entry in _FLAGS for name in entry[0]}
_EXCLUSIVE = ("--config", "--scenario")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
_DESCRIPTION = "Run geometric-phase scenarios for photons in coiled fibres."


class _UsageError(Exception):
    """A command line the flag table refuses: main prints the usage and this message, and returns 2."""


def _dest(names: tuple[str, ...]) -> str:
    return names[-1][2:].replace("-", "_")


def _width() -> int:
    return shutil.get_terminal_size().columns - 2


def _wrap(head: str, items, indent: int, width: int) -> str:
    """head, then items one space apart, in lines of at most width columns unless one item is wider.

    A line that holds no item yet takes the next one whatever its length; later lines start at column indent.
    """
    lines = [head]
    for item in items:
        if len(lines[-1]) + 1 + len(item) > width and lines[-1].strip():
            lines.append(" " * (indent - 1))
        lines[-1] += " " + item
    return "\n".join(lines)


def _usage(width: int) -> str:
    items = []
    for names, metavar, *_ in _FLAGS:
        spelling = names[0] if metavar is None else f"{names[0]} {metavar}"
        if names[0] == _EXCLUSIVE[1]:
            items[-1] = f"{items[-1][:-1]} | {spelling}]"
        else:
            items.append(f"[{spelling}]")
    head = "usage: fiberphase"
    if len(head) <= 0.75 * width:
        return _wrap(head, items, len(head) + 1, width)
    return f"{head}\n{_wrap(' ' * 6, items, 7, width)}"  # too narrow: the flags go below, from column 7


def _help() -> str:
    width = _width()
    spellings = [", ".join(names if metavar is None else (f"{name} {metavar}" for name in names))
                 for names, metavar, *_ in _FLAGS]
    # The help text starts at column 24, or 4 past the longest spelling if that is less, or at width - 20
    # but no less than 4 on a narrow screen; a spelling wider than the space before it gets a line of its own.
    column = min(max(map(len, spellings)) + 4, 24, max(width - 20, 4))
    rows = [_usage(width), "", *textwrap.wrap(_DESCRIPTION, max(width, 11)), "", "options:"]
    for spelling, (*_, text) in zip(spellings, _FLAGS):
        lines = textwrap.wrap(text, max(width - column, 11))
        if len(spelling) <= column - 4:
            rows.append(f"  {spelling:<{column - 4}}  {lines[0]}")
        else:
            rows += [f"  {spelling}", " " * column + lines[0]]
        rows += [" " * column + line for line in lines[1:]]
    return "\n".join(rows)


def _usage_error(message: str) -> int:
    print(_usage(_width()), file=sys.stderr)
    print(f"fiberphase: error: {message}", file=sys.stderr)
    return EXIT_VALIDATION


def _is_value(token: str) -> bool:
    """Whether token can be the value of the flag before it."""
    if not token.startswith("-") or token == "-":
        return True
    if token.partition("=")[0] in _BY_SPELLING:
        return False
    return _NEGATIVE_NUMBER.match(token) is not None or " " in token


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """Each flag's value as an attribute (list_scenarios for --list-scenarios), or None after printing the help."""
    args = {_dest(names): default for names, _, _, default, _ in _FLAGS if names[0] != "-h"}
    given, unknown = set(), []
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--":
            unknown += argv[i - 1:]
            break
        spelling, eq, value = token.partition("=") if token.startswith("-") else (token, "", "")
        if spelling not in _BY_SPELLING:
            unknown.append(token)
            continue
        names, metavar, kind, _, _ = _BY_SPELLING[spelling]
        flag, dest = "/".join(names), _dest(names)
        if metavar is None:
            if eq:
                raise _UsageError(f"argument {flag}: ignored explicit argument {value!r}")
            if names[0] == "-h":
                print(_help())
                return None
            args[dest] = True
            continue
        if not eq:
            if i == len(argv) or not _is_value(argv[i]):
                raise _UsageError(f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        try:
            args[dest] = kind(value)
        except ValueError:
            raise _UsageError(f"argument {flag}: invalid {kind.__name__} value: {value!r}") from None
        given.add(flag)
        if flag in _EXCLUSIVE:
            other = _EXCLUSIVE[0] if flag == _EXCLUSIVE[1] else _EXCLUSIVE[1]
            if other in given:
                raise _UsageError(f"argument {flag}: not allowed with argument {other}")
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**args)


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
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        return _usage_error(str(exc))
    if args is None:
        return EXIT_PASS

    if args.list_scenarios:
        for name in sorted(BUILTIN_SCENARIOS):
            labels = ", ".join(label for label, _ in BUILTIN_SCENARIOS[name])
            print(f"{name}: {labels}")
        return EXIT_PASS

    if not args.config and not args.scenario:
        return _usage_error("one of --config/--scenario/--list-scenarios is required")

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
