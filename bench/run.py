"""fiberphase benchmark: seeded workloads driven through ``fiberphase.cli.main``.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there and nowhere else.  The benchmark writes its seeded inputs
(config JSON, path CSV) and every artifact under ``.bench_out/``.

Each pass runs the workload's whole plan once in a fresh child
interpreter: a closed loop with one client, BLAS limited to one thread.
A run makes ``passes`` untraced passes, sized so that the run lasts about
S seconds on a 2-vCPU Xeon; the count is fixed per workload and S, so
every run does the same work.  End-to-end metrics (tracing off):

    setup_s       child start until the first run can begin (median of
                  at least SETUP_SAMPLES fresh interpreters)
    wall_s        median wall time of one untraced pass
    run_s.p50     median time of one cli.main call, pooled over passes
    run_s.tail    highest integer percentile with >= 10 calls beyond it
    peak_rss_mb   median peak RSS of the pass's child, MiB (see
                  child.peak_rss_kib for why not ru_maxrss)
    failed_share  failed / attempted calls (also in "failed"/"attempted")

With ``--trace 1`` the run alternates untraced and traced passes of the
same plan and reports the per-layer metrics of tracing.LAYER_METRICS,
medians over traced passes, plus trace_overhead_s (traced minus
untraced wall time).  Every artifact of every pass is hashed (SHA-256)
and compared with the first untraced pass; a mismatch fails that call.

Every call is gated against references computed here (see gate.py).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it print every metric with its unit, the
tail's percentile and sample count, and every failed call by name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
CHILD = BENCH_DIR / "child.py"

# Untraced pass time of each workload on a 2-vCPU Xeon, used to size runs.
NOMINAL_PASS_S = {"single-photon": 6.6, "multiphoton": 7.2, "closed-form-sweep": 2.5}
MIN_PASSES = 3
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
# One BLAS thread (nproc here is 2): the matrices are at most 216 wide, and
# a single thread keeps the closed loop free of threads the pass did not start.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "run_s.p50": "s",
    "run_s.tail": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """(p, value, beyond): the highest integer percentile with >= 10 samples beyond it.

    Nearest-rank definition: the p-th percentile is the ceil(p*n/100)-th
    smallest sample, and ``beyond`` counts the samples ranked above it.
    """
    n = len(samples)
    if n <= 10:
        raise ValueError(f"need more than 10 samples for a tail percentile, got {n}")
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(samples)[rank - 1], n - rank


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict | None:
    import numpy

    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None


def provenance(workload: str, seed: int, seconds: int, child: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "child_numpy": child.get("numpy_version"),
        "blas": _blas(),
        "child_env": CHILD_ENV,
        "fiberphase_version": child.get("fiberphase_version"),
        "git_commit": _git_commit(),
    }


class Runner:
    """Runs one workload's passes in a scratch directory and gates every call."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.plan = workloads.generate(workload, seed, work / "inputs")
        self.env = {**os.environ, **CHILD_ENV}
        self.reference_hashes: dict[str, dict[str, str]] = {}
        self.children = 0

    def child(self, flags: list[str], plan: list[dict] | None = None) -> tuple[float, dict]:
        """Start one child; return (spawn time, its result)."""
        tag = f"child{self.children}"
        self.children += 1
        plan_path = self.work / f"{tag}.plan.json"
        result_path = self.work / f"{tag}.result.json"
        plan_path.write_text(json.dumps(plan or []), encoding="utf-8")
        cmd = [sys.executable, str(CHILD), str(SRC), plan_path.name, result_path.name, *flags]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child pass exceeded {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"child pass failed ({proc.returncode}): {proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        plan_path.unlink()
        if Path(result["fiberphase_file"]).resolve().parent != (SRC / "fiberphase").resolve():
            raise BenchError(f"child imported fiberphase from {result['fiberphase_file']}, not {SRC}")
        return spawned, result

    def setup_sample(self) -> float:
        spawned, result = self.child(["--setup-only"])
        return result["ready"] - spawned

    def run_pass(self, index: int, traced: bool) -> dict:
        """One pass over the whole plan; returns its timings and gated records."""
        out_name = f"pass{index}"
        plan = [{"id": e["id"], "argv": e["argv"] + ["--out", f"{out_name}/{e['id']}"]} for e in self.plan]
        spawned, result = self.child(["--trace"] if traced else [], plan)
        records = []
        total_bytes = 0
        for entry, run in zip(self.plan, result["runs"]):
            out_dir = self.work / out_name / entry["id"]
            verdict = gate.gate_run(entry, out_dir, run["exit_code"], run["error"])
            files = sorted(p for p in out_dir.rglob("*") if p.is_file()) if out_dir.is_dir() else []
            hashes = {p.relative_to(out_dir).as_posix(): _sha256(p) for p in files}
            total_bytes += sum(p.stat().st_size for p in files)
            reference = self.reference_hashes.setdefault(entry["id"], hashes)
            if hashes != reference:
                differ = sorted(k for k in set(hashes) | set(reference) if hashes.get(k) != reference.get(k))
                verdict.fail(f"artifacts differ from the first untraced pass: {differ}", wrong=True)
            if run["exit_code"] not in (0, None) and run["stderr"].strip():
                verdict.reasons.append(f"stderr: {run['stderr'].strip()[:300]}")
            records.append({
                **entry["record"], "id": entry["id"], "pass": index, "traced": traced,
                "exit_code": run["exit_code"], "seconds": run["seconds"],
                "cyclic": all(m["cyclic"] for m in entry["expect"].get("members", [])),
                "failed": verdict.failed, "reasons": verdict.reasons, "wrong": verdict.wrong,
            })
        shutil.rmtree(self.work / out_name, ignore_errors=True)
        out = {
            "setup_s": result["ready"] - spawned, "wall_s": result["wall_s"],
            "peak_rss_kib": result["peak_rss_kib"], "records": records, "child": result,
        }
        if traced:
            out["layers"] = tracing.layer_metrics(result["spans"], result["counts"], total_bytes)
            spans_path = self.work / f"spans-pass{index}.json"
            spans_path.write_text(json.dumps({
                "fields": ["name", "start", "end", "parent", "run"], "spans": result["spans"],
                "absent": result["absent"], "uncounted": result["uncounted"],
            }), encoding="utf-8")
        return out


def _why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work)
    runner.setup_sample()  # warm-up: byte-compiles the package once, not timed
    passes = passes_for(workload, seconds)
    untraced, traced = [], []
    if trace:
        for pair in range(max(2, passes // 2)):
            untraced.append(runner.run_pass(2 * pair, traced=False))
            traced.append(runner.run_pass(2 * pair + 1, traced=True))
    else:
        untraced = [runner.run_pass(i, traced=False) for i in range(passes)]
    setups = [p["setup_s"] for p in untraced + traced]
    child_info = untraced[0]["child"]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup_sample())

    records = [r for p in untraced + traced for r in p["records"]]
    run_times = [r["seconds"] for p in untraced for r in p["records"]]
    p_tail, tail, beyond = tail_percentile(run_times)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([p["wall_s"] for p in untraced]),
        "run_s.p50": statistics.median(run_times),
        "run_s.tail": tail,
        "peak_rss_mb": statistics.median([p["peak_rss_kib"] for p in untraced]) / 1024.0,
    }
    failed = [r for r in records if r["failed"]]
    noncyclic = sorted({r["label"] for r in records if not r["cyclic"]})
    layers = {}
    if trace:
        per_pass = [p["layers"] for p in traced]
        layers = {m: statistics.median([lp[m] for lp in per_pass]) for m in tracing.LAYER_METRICS}
        layers["trace_overhead_s"] = statistics.median([t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)])
    summary = {
        "workload": workload,
        "why": _why(workload),
        "provenance": provenance(workload, seed, seconds, child_info),
        "passes": {"untraced": len(untraced), "traced": len(traced), "calls_per_pass": len(runner.plan)},
        "pass_detail": [
            {"traced": flag, "setup_s": p["setup_s"], "wall_s": p["wall_s"],
             "peak_rss_kib": p["peak_rss_kib"], "ru_maxrss_kib": p["child"]["ru_maxrss_kib"]}
            for flag, group in ((False, untraced), (True, traced)) for p in group
        ],
        "end_to_end": end_to_end,
        "failed_share": len(failed) / len(records),
        "tail": {"percentile": p_tail, "samples": len(run_times), "beyond": beyond},
        "setup_samples": len(setups),
        "per_layer": layers,
        "absent": traced[0]["child"]["absent"] if traced else [],
        "uncounted": traced[0]["child"]["uncounted"] if traced else [],
        "noncyclic_labels": noncyclic,
        "failed_labels": sorted({r["label"] for r in failed}),
        "attempted": len(records),
        "failed": len(failed),
        "correct": not any(r["wrong"] for r in records),
        "records": records,
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def _print_summary(s: dict, trace: bool) -> None:
    print(f"== {s['workload']}: {s['why']}")
    p = s["passes"]
    print(f"   {p['untraced']} untraced + {p['traced']} traced passes of {p['calls_per_pass']} calls; "
          f"results in {OUT_ROOT.name}/{s['workload']}-seed{s['provenance']['seed']}-trace{int(trace)}/result.json")
    for name, unit in END_TO_END.items():
        note = ""
        if name == "run_s.tail":
            t = s["tail"]
            note = f"  (p{t['percentile']} of {t['samples']} calls, {t['beyond']} beyond)"
        elif name == "setup_s":
            note = f"  (median of {s['setup_samples']} set-ups)"
        print(f"   {name:<44} {s['end_to_end'][name]:.6g} {unit}{note}")
    print(f"   {'failed_share':<44} {s['failed_share']:.6g} ratio  ({s['failed']}/{s['attempted']})")
    for name, value in s["per_layer"].items():
        print(f"   {name:<44} {value:.6g} {tracing.LAYER_METRICS[name]}")
    if s["absent"]:
        print(f"   absent functions (0 calls): {', '.join(s['absent'])}")
    if s["noncyclic_labels"]:
        same = s["failed_labels"] == s["noncyclic_labels"]
        print(f"   non-cyclic calls: {', '.join(s['noncyclic_labels'])}; "
              f"failed calls {'are exactly these' if same else 'differ from these'}")
    seen = set()
    for r in s["records"]:
        if r["failed"] and r["label"] not in seen:
            seen.add(r["label"])
            kind = "non-cyclic" if not r["cyclic"] else "cyclic"
            numbers = "numbers WRONG" if r["wrong"] else "numbers match the references"
            print(f"   FAILED {r['label']} ({kind}, exit {r['exit_code']}, {numbers}): {'; '.join(r['reasons'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fiberphase" / "__init__.py").is_file():
        print(f"bench: no fiberphase sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        _print_summary(s, bool(args.trace))
    units = tracing.LAYER_METRICS if args.trace else END_TO_END
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": s[key][name], "unit": unit}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
