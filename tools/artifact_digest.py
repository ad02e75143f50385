"""One SHA-256 digest over everything a checkout's runs write.

Usage: python3 tools/artifact_digest.py CHECKOUT [--seeds 1 2 3] [--calls]

Imports fiberphase from CHECKOUT/src and the benchmark's input generator
from CHECKOUT/bench, then drives CHECKOUT's ``cli.main`` in this one
process, with one BLAS thread, through:

* the four built-in scenarios;
* one sweep per parameter kind: lambda, turns, n_R and n_L on
  chiao-helix-45, epsilon2 on gyro-appendix;
* every call of every ``bench/workloads.generate`` plan at each seed.

Each call runs in a scratch directory with relative paths and its own
``--out`` directory.  The digest covers, call by call, the argv, the exit
code, stdout, stderr and every output file (relative name and bytes).  Two
checkouts that write the same artifacts print the same line, so a change
that claims byte-identical artifacts is checked by running this on the
parent and on the change.  With --calls it first prints one line per
call, the digest of that call alone, its directory and its argv, so two
listings diffed line by line show which calls moved.  Nothing under
CHECKOUT is written.
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
import hashlib
import io
import json
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


def calls(seeds: list[int], workloads) -> list[tuple[str, list[str]]]:
    """(scratch subdirectory, argv less --out) of every call, in run order; writes the bench inputs."""
    Path("builtins").mkdir()
    out = [("builtins", ["--scenario", name]) for name in BUILTINS]
    out += [("builtins", ["--scenario", name, "--sweep", values]) for name, values in SWEEPS]
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


def digest(checkout: Path, seeds: list[int]) -> tuple[str, list[tuple[str, str, list[str]]], int]:
    """(hex digest, (call digest, directory, argv) of each call, files hashed) of a checkout's artifacts."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import fiberphase.cli
    import workloads

    sha = hashlib.sha256()
    listing = []
    files = 0
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            plan = calls(seeds, workloads)
            for i, (where, argv) in enumerate(plan):
                # A bench plan's paths are relative to its inputs directory's parent.
                os.chdir(Path(scratch) / where)
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
                listing.append((call_sha.hexdigest(), where, argv))
        finally:
            os.chdir(home)
    return sha.hexdigest(), listing, files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of a source checkout (holds src/ and bench/)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3], help="bench plan seeds (default 1 2 3)")
    parser.add_argument("--calls", action="store_true", help="first list each call's own digest and argv")
    args = parser.parse_args(argv)
    hex_digest, listing, files = digest(args.checkout.resolve(), args.seeds)
    if args.calls:
        for call_digest, where, call_argv in listing:
            print(f"{call_digest}  {where}: {' '.join(call_argv)}")
    print(f"{hex_digest}  {len(listing)} calls, {files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
