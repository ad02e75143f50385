"""Paired benchmark runs of two checkouts, summarised into one BENCH_*.json file.

Usage: python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S
           [--out BENCH.json]

Pair i runs each checkout's own ``bench/run.py --workload W --seed S+i
--seconds SECONDS --trace 0``, from the root of that checkout: PARENT first
when i is even and CHANGE first when it is odd.  SECONDS is the
``run_seconds`` of PARENT's BENCHMARK.json, the run length the benchmark
sets.  The tool refuses, before any run, fewer than one pair, two checkouts
whose BENCHMARK.json give different run lengths, and two checkouts at
resolved paths of unequal length, since the bench's ``peak_rss_mb`` moves
with the length of the checkout's path.  Each run reads the last line of
the bench's stdout, its JSON result.  The bench writes under its
checkout's ``.bench_out/``; the tool writes only --out, and runs the bench
with PYTHONDONTWRITEBYTECODE set, so no ``__pycache__`` appears in either
checkout.

--out gets every run of every invocation: an existing file keeps its runs
and its other keys (a "claim" or "note" written by hand), and the summary
is recomputed over all of them.  Per workload and end-to-end metric, the
summary gives both medians, both quartiles (``statistics.quantiles``, exclusive method), the parent's
interquartile range, how many pairs read lower on the change, the bound
and a verdict:

* ``better``: the change read lower in at least 90% of the pairs, its
  median is lower than the parent's by more than the parent's IQR, and
  no larger share of its calls failed than of the parent's;
* ``worse``: the change's median exceeds the parent's by more than the bound;
* ``unresolved``: neither, and the parent's IQR is wider than the bound,
  so a move within the bound cannot be told from noise;
* ``within bound``: otherwise.

The bounds come from PARENT's BENCHMARK.json.  A bound whose unit is MiB
(``peak_rss_mb``) is read in MiB; every other bound, the timings', as a
fraction of the parent's median.  The file states this reading.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

READING = ("A bound whose unit is MiB is an allowed rise in MiB; every other bound is an allowed rise as a "
           "fraction of the parent's median. Quartiles are statistics.quantiles(n=4), exclusive method.")
BETTER_SHARE = 0.9


class PairsError(RuntimeError):
    """The pairs cannot be run as asked; nothing is written."""


def result_line(stdout: str) -> dict:
    """One bench run's result: its last stdout line, as {metric: value, "failed": n, "attempted": n}."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise PairsError("the bench printed nothing")
    result = json.loads(lines[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {**values, "failed": result["failed"], "attempted": result["attempted"]}


def bounds(spec: dict) -> dict:
    """{metric: (bound, relative)} from a BENCHMARK.json document."""
    return {m["name"]: (m["bound"], m["unit"] != "MiB") for m in spec["end_to_end"]}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs: list[dict], limits: dict) -> dict:
    """Per workload and metric, the paired statistics and verdict described in the module docstring."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        rows = {"pairs": len(pairs)}
        failed = {side: sum(r[side]["failed"] for r in pairs) for side in ("parent", "change")}
        attempted = {side: sum(r[side]["attempted"] for r in pairs) for side in ("parent", "change")}
        # change failed / change attempted <= parent failed / parent attempted, without dividing by zero
        no_more_failed = failed["change"] * attempted["parent"] <= failed["parent"] * attempted["change"]
        for name, (bound, relative) in limits.items():
            parent = [r["parent"][name] for r in pairs]
            change = [r["change"][name] for r in pairs]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            p_q1, p_q3 = _quartiles(parent)
            c_q1, c_q3 = _quartiles(change)
            lower = sum(c < p for p, c in zip(parent, change))
            allowed = bound * p_med if relative else bound
            if lower >= BETTER_SHARE * len(pairs) and p_med - c_med > p_q3 - p_q1 and no_more_failed:
                verdict = "better"
            elif c_med - p_med > allowed:
                verdict = "worse"
            elif p_q3 - p_q1 > allowed:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            rows[name] = {
                "parent_median": p_med, "change_median": c_med, "change_minus_parent": c_med - p_med,
                "parent_quartiles": [p_q1, p_q3], "change_quartiles": [c_q1, c_q3], "parent_iqr": p_q3 - p_q1,
                "change_lower": lower, "bound": allowed, "verdict": verdict,
            }
        rows["failed"], rows["attempted"] = failed, attempted
        summary[workload] = rows
    return summary


def document(previous: dict, runs: list[dict], limits: dict) -> dict:
    """previous with the runs added, and the bound reading and the summary recomputed."""
    doc = dict(previous)
    doc["command"] = "python3 bench/run.py --workload W --seed SEED --seconds SECONDS --trace 0"
    doc["order"] = ("pair i runs seed S+i, the parent first when i is even and the change first when it is odd, "
                    "each from its own checkout, at resolved paths of equal length")
    doc["bounds"] = {"reading": READING, **{name: bound for name, (bound, _) in limits.items()}}
    doc["runs"] = [*doc.get("runs", []), *runs]
    doc["summary"] = summarize(doc["runs"], limits)
    return doc


def _checkout(path: str) -> tuple[Path, dict]:
    """The checkout's resolved root and its BENCHMARK.json."""
    root = Path(path).resolve()
    if not (root / "bench" / "run.py").is_file():
        raise PairsError(f"{root} has no bench/run.py")
    try:
        return root, json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise PairsError(f"{root}: cannot read BENCHMARK.json: {exc}") from None


def _run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise PairsError(f"{root}: bench exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return result_line(done.stdout)


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int, seconds: int) -> list[dict]:
    runs = []
    for i in range(pairs):
        sides = [("parent", parent), ("change", change)][::-1 if i % 2 else 1]
        run = {"workload": workload, "seed": seed + i, "seconds": seconds, "first": sides[0][0]}
        for side, root in sides:
            run[side] = _run(root, workload, seed + i, seconds)
        print(f"pair {i + 1}/{pairs} seed {seed + i}: " + ", ".join(
            f"{name} {run['parent'][name]:.6g} -> {run['change'][name]:.6g}"
            for name in run["parent"] if name not in ("failed", "attempted")), flush=True)
        runs.append(run)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)
    try:
        if args.pairs < 1:
            raise PairsError(f"--pairs must be at least 1, got {args.pairs}")
        (parent, spec), (change, change_spec) = _checkout(args.parent), _checkout(args.change)
        if len(str(parent)) != len(str(change)):
            raise PairsError(f"checkout paths differ in length: {parent} ({len(str(parent))}) and "
                             f"{change} ({len(str(change))})")
        seconds = spec.get("run_seconds")
        if not isinstance(seconds, int) or seconds != change_spec.get("run_seconds"):
            raise PairsError(f"the checkouts' BENCHMARK.json must give one integer run_seconds, got {seconds!r} "
                             f"and {change_spec.get('run_seconds')!r}")
        runs = run_pairs(parent, change, args.workload, args.pairs, args.seed, seconds)
    except PairsError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    previous = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    previous.setdefault("machine", f"{os.cpu_count()} CPUs, Python {platform.python_version()}")
    doc = document(previous, runs, bounds(spec))
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, row in doc["summary"][args.workload].items():
        if isinstance(row, dict) and "verdict" in row:
            print(f"{args.workload} {name}: {row['parent_median']:.6g} -> {row['change_median']:.6g} "
                  f"({row['change_lower']}/{doc['summary'][args.workload]['pairs']} lower, "
                  f"parent IQR {row['parent_iqr']:.3g}, bound {row['bound']:.3g}): {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
