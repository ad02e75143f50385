"""One SHA-256 digest over everything a checkout's runs write.

Usage: python3 tools/artifact_digest.py CHECKOUT [--seeds 1 2 3] [--calls] [--diff OTHER_CHECKOUT]

Imports fiberphase from CHECKOUT/src and the benchmark's input generator
from CHECKOUT/bench, then drives CHECKOUT's ``cli.main`` in this one
process, with one BLAS thread, through:

* the four built-in scenarios;
* one sweep per parameter kind: lambda, turns, n_R and n_L on
  chiao-helix-45, epsilon2 on gyro-appendix;
* three amplitude-state runs, which no bench plan has: a cone over the
  complete sectors 0-2, a cone whose sector 2 the cutoff n_max = 1
  truncates, and a one-photon superposition on a sampled path;
* a vacuum cone whose azimuth turns by more than pi a step, the one run
  whose gamma column only the midpoint samples unwrap right;
* three one-photon cones at -z, where the geodesic closure's sum
  cancels: lambda = pi closed, lambda = pi with t_end 0.4, and
  lambda = pi - 5e-9 with t_end 0.4;
* every call of every ``bench/workloads.generate`` plan at each seed.

Each call runs in a scratch directory with relative paths and its own
``--out`` directory.  The digest covers, call by call, the argv, the exit
code, stdout, stderr and every output file (relative name and bytes).  Two
checkouts that write the same artifacts print the same line, so a change
that claims byte-identical artifacts is checked by running this on the
parent and on the change.  With --calls it first prints one line per
call, the digest of that call alone, its directory and its argv, so two
listings diffed line by line show which calls moved.

With --diff OTHER_CHECKOUT it runs both checkouts, one after the other in
this process, prints both digest lines, CHECKOUT's first, and compares
their artifacts call by call: it prints every
exit-code, stdout, stderr or file-set change and every JSON or CSV value
that is not a number and differs (a status, a check's pass bit) or is
a zero whose sign changed, then
the max |difference| of each numeric JSON field and CSV column over all
calls.  A JSON list of named objects (the checks, a group's members) is
keyed by name.  It exits 0 when every call is byte-identical and 1 when
any call differs, so a byte-identity claim can gate a script.  Nothing
under either checkout is written.
"""

from __future__ import annotations

import os
import sys

# Leave the checkout as it was: no __pycache__ under its src/ or bench/.
sys.dont_write_bytecode = True
# Before numpy loads: a BLAS with one thread sums in one fixed order.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

BUILTINS = ("chiao-helix-45", "vacuum-pair", "multiphoton-21", "gyro-appendix")
SWEEPS = (
    ("chiao-helix-45", "lambda=0.3,0.7854,1.2"),
    ("chiao-helix-45", "turns=0.5,1,2.25"),
    ("chiao-helix-45", "n_R=0,1,5"),
    ("chiao-helix-45", "n_L=0,2,7"),
    ("gyro-appendix", "epsilon2=-2,0.5,1,3"),
)
CONE = {"kind": "cone", "polar_angle": 0.7, "turns": 1.0}
# (name, n_max, {basis index: amplitude}, geometry); index n1 (n_max+1)^2 + n2 (n_max+1) + n3.
AMPLITUDE_RUNS = (
    # |000>, |100>, i|010> and -|110>: sectors 0, 1 and 2, all complete.
    ("multi-sector-cone", 2, {0: 0.5, 9: 0.5, 3: 0.5j, 12: -0.5}, CONE),
    # 0.6|100> + 0.48i|010> + 0.64|110>: sector 2 is cut off at n_max = 1, so the step loop runs.
    ("truncated-sector-cone", 1, {4: 0.6, 2: 0.48j, 6: 0.64}, CONE),
    # 0.6|x> + 0.8i|y>, no helicity eigenstate, along a tilted helix given as samples.
    ("sampled-path", 1, {4: 0.6, 2: 0.8j}, {"kind": "sampled", "path_csv": "tilted-helix.csv"}),
)
# 20 turns in 32 steps turn the azimuth by 225 degrees a step and 112.5 a half step.
ALIASED_CONE = {"geometry": {"kind": "cone", "polar_angle": 0.7, "turns": 20.0}, "state": {"n_r": 0, "n_l": 0},
                "n_max": 1, "steps": 32}
# (name, polar angle, t_end) of the one-photon cones at -z.
POLE_CONES = (
    ("pole-cone", math.pi, 1.0),
    ("open-pole-cone", math.pi, 0.4),
    ("open-near-pole-cone", math.pi - 5e-9, 0.4),
)


def write_config_inputs(where: Path) -> list[list[str]]:
    """Write the amplitude-state configs, their path CSV, the aliased cone and the pole cones under where; the argv of each run."""
    where.mkdir()
    with open(where / "tilted-helix.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,y,z\n")
        for i in range(4097):
            t = i / 4096
            theta = 2.0 * math.pi * t
            x, y, z = math.cos(theta), math.sin(theta), 0.8 * theta
            # Tilted by 0.3 rad about x.
            fh.write(f"{t:.17g},{x:.17g},{math.cos(0.3) * y - math.sin(0.3) * z:.17g},"
                     f"{math.sin(0.3) * y + math.cos(0.3) * z:.17g}\n")
    argvs = []
    for name, n_max, terms, geometry in AMPLITUDE_RUNS:
        amplitudes = [[0.0, 0.0] for _ in range((n_max + 1) ** 3)]
        for index, z in terms.items():
            amplitudes[index] = [complex(z).real, complex(z).imag]
        config = {"geometry": geometry, "state": {"amplitudes": amplitudes}, "ordering": "normal", "n_max": n_max}
        if geometry["kind"] != "sampled":
            config["steps"] = 1024
        (where / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
        argvs.append(["--config", f"{name}.json"])
    (where / "aliased-vacuum-cone.json").write_text(json.dumps(ALIASED_CONE), encoding="utf-8")
    argvs.append(["--config", "aliased-vacuum-cone.json"])
    for name, polar, t_end in POLE_CONES:
        config = {"geometry": {"kind": "cone", "polar_angle": polar, "turns": 1.0}, "state": {"n_r": 1, "n_l": 0},
                  "n_max": 1, "steps": 256, "t_end": t_end}
        (where / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
        argvs.append(["--config", f"{name}.json"])
    return argvs


def calls(seeds: list[int], workloads) -> list[tuple[str, list[str]]]:
    """(scratch subdirectory, argv less --out) of every call, in run order; writes the inputs."""
    Path("builtins").mkdir()
    out = [("builtins", ["--scenario", name]) for name in BUILTINS]
    out += [("builtins", ["--scenario", name, "--sweep", values]) for name, values in SWEEPS]
    out += [("configs", argv) for argv in write_config_inputs(Path("configs"))]
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            where = f"{workload}-{seed}"
            plan = workloads.generate(workload, seed, Path(where) / "inputs")
            out += [(where, entry["argv"]) for entry in plan]
    return out


def run(main, argv: list[str]) -> tuple[int | str, str, str]:
    """(exit code or exception, stdout, stderr) of one cli.main call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is part of what the digest compares
            code = f"{type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue()


def digest(checkout: Path, seeds: list[int], scratch: Path) -> tuple[str, list[dict], int]:
    """(hex digest, one record per call, files hashed) of a checkout's artifacts, written under scratch.

    A record holds the call's digest, directory, argv, exit code, stdout,
    stderr and output directory.  The checkout's modules are dropped from
    sys.modules afterwards, so another checkout can be imported next.
    """
    roots = [str(checkout / "src"), str(checkout / "bench")]
    sys.path[:0] = roots
    try:
        import fiberphase.cli
        import workloads

        sha = hashlib.sha256()
        listing = []
        files = 0
        home = Path.cwd()
        os.chdir(scratch)
        try:
            plan = calls(seeds, workloads)
            for i, (where, argv) in enumerate(plan):
                # A bench plan's paths are relative to its inputs directory's parent.
                os.chdir(scratch / where)
                out = Path("out") / f"call{i:03d}"
                argv = [*argv, "--out", str(out)]
                code, stdout, stderr = run(fiberphase.cli.main, argv)
                call_sha = hashlib.sha256()
                pieces = [json.dumps([argv, code, stdout, stderr]).encode()]
                for path in sorted(p for p in out.rglob("*") if p.is_file()):
                    pieces += [json.dumps(str(path.relative_to(out))).encode(), path.read_bytes()]
                    files += 1
                for piece in pieces:
                    sha.update(piece)
                    call_sha.update(piece)
                listing.append({"digest": call_sha.hexdigest(), "where": where, "argv": argv, "code": code,
                                "stdout": stdout, "stderr": stderr, "out": scratch / where / out})
        finally:
            os.chdir(home)
    finally:
        sys.path[:] = [p for p in sys.path if p not in roots]
        for name, module in list(sys.modules.items()):
            if str(getattr(module, "__file__", None)).startswith(tuple(roots)):
                del sys.modules[name]
    return sha.hexdigest(), listing, files


def _json_leaves(value, key: str = ""):
    """(field key, value) of every non-container value, lists of named objects keyed by name."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _json_leaves(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            label = item["name"] if isinstance(item, dict) and isinstance(item.get("name"), str) else i
            yield from _json_leaves(item, f"{key}[{label}]")
    else:
        yield key, value


def _csv_leaves(path: Path, kind: str):
    """(field key, value) of every cell, keyed by column; numbers parsed as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for r, row in enumerate(rows[1:]):
        for column, cell in zip(rows[0], row):
            try:
                value = float(cell)
            except ValueError:
                value = cell
            yield f"{kind}:{column}[{r}]", value


def _leaves(path: Path) -> dict:
    if path.suffix == ".json":
        return {f"json:{key}": value for key, value in _json_leaves(json.loads(path.read_text(encoding="utf-8")))}
    return dict(_csv_leaves(path, "sweep.csv" if "_sweep_" in path.name else "run.csv"))


def compare(ours: list[dict], theirs: list[dict]) -> tuple[list[str], dict[str, float]]:
    """(every non-numeric change, max |difference| per numeric field) between two call listings."""
    flips = []
    moved: dict[str, float] = {}
    if [c["argv"] for c in ours] != [c["argv"] for c in theirs]:
        return ["the two checkouts make different calls"], moved
    for i, (a, b) in enumerate(zip(ours, theirs)):
        label = f"call{i:03d} {a['where']}: {' '.join(a['argv'][:-2])}"
        for what in ("code", "stdout", "stderr"):
            if a[what] != b[what]:
                flips.append(f"{label}: {what} {a[what]!r} -> {b[what]!r}")
        names_a = {p.relative_to(a["out"]) for p in a["out"].rglob("*") if p.is_file()}
        names_b = {p.relative_to(b["out"]) for p in b["out"].rglob("*") if p.is_file()}
        if names_a != names_b:
            flips.append(f"{label}: files {sorted(map(str, names_a ^ names_b))} in one checkout only")
        for name in sorted(names_a & names_b):
            left, right = _leaves(a["out"] / name), _leaves(b["out"] / name)
            for key in left.keys() | right.keys():
                x, y = left.get(key), right.get(key)
                # bool is no number here: a pass bit that changes is a flip.
                if type(x) in (int, float) and type(y) in (int, float) and math.isnan(x) == math.isnan(y):
                    # -0.0 == 0.0, so a zero whose sign changes is a flip, not a |difference| of 0.
                    if x == y == 0 and math.copysign(1.0, x) != math.copysign(1.0, y):
                        flips.append(f"{label}: {name} {key} {x!r} -> {y!r}")
                    field = re.sub(r"\[\d+\]", "[]", key)
                    moved[field] = max(moved.get(field, 0.0), 0.0 if x == y or math.isnan(x) else abs(x - y))
                elif x != y:
                    flips.append(f"{label}: {name} {key} {x!r} -> {y!r}")
    return flips, moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of a source checkout (holds src/ and bench/)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3], help="bench plan seeds (default 1 2 3)")
    parser.add_argument("--calls", action="store_true", help="first list each call's own digest and argv")
    parser.add_argument("--diff", type=Path, metavar="OTHER_CHECKOUT", help="compare the artifacts with another checkout's")
    args = parser.parse_args(argv)
    checkouts = [args.checkout] + ([args.diff] if args.diff else [])
    code = 0
    with contextlib.ExitStack() as stack:
        listings = []
        for checkout in checkouts:
            scratch = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            hex_digest, listing, files = digest(checkout.resolve(), args.seeds, scratch)
            listings.append(listing)
            if args.calls:
                for call in listing:
                    print(f"{call['digest']}  {call['where']}: {' '.join(call['argv'])}")
            print(f"{hex_digest}  {len(listing)} calls, {files} files")
        if args.diff:
            flips, moved = compare(*listings)
            same = sum(a["digest"] == b["digest"] for a, b in zip(*listings))
            print(f"{same} of {len(listings[0])} calls byte-identical; {len(flips)} non-numeric changes")
            code = int(same < max(map(len, listings)))
            for line in flips:
                print(f"  {line}")
            print("max |difference| per numeric field:")
            for field in sorted(moved):
                print(f"  {moved[field]:.3g}  {field}")
    return code


if __name__ == "__main__":
    sys.exit(main())
