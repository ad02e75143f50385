"""Which call of a benchmark plan sets a workload's peak resident set.

Usage: python3 tools/peak_by_call.py CHECKOUT --workload W --seed S [--repeat K]

Writes workload W's inputs at seed S with CHECKOUT's bench/workloads.py
into a temporary directory, then runs that plan in K fresh child
interpreters (default 1), one after another, each the way bench/run.py
runs a pass: fiberphase imported from CHECKOUT/src, the environment of
bench/run.py's CHILD_ENV (PYTHONHASHSEED=0, one BLAS thread), bytecode
writing as inherited, one ``cli.main`` call after another with ``--out``
in the temporary directory.  A first child only imports the package, as
the benchmark's warm-up does, so the measured children load what a
measured pass loads.

A child prints VmHWM, the peak resident set so far, after import and
after each call.  The call at which VmHWM reaches its final value is
the one that sets the workload's ``peak_rss_mb``; each line shows the
rise a call adds.  The child also reads VmHWM after each phase of a run:
the trajectory build (``scenario._build_trajectory``), the evolution
(``evolve_state``), the phase series (``phase_series``) and the CSV
(``runcsv.write_run_csv``, wrapped when a run first imports it, as a
bench pass loads it then).  Each line splits the call's rise into the
rises those phases add and the rest, so it shows which phase sets the
peak.  VmHWM is the larger of the recorded high-water mark and the
current resident set, which Linux sums from per-CPU counters only
approximately, so a reading can fall back by a few hundred KiB: a
negative rise is that.  One reading can also sit a few hundred KiB off
the true peak, so with K > 1 each cell of the table is the median of
that cell over the K children's own tables, and the peak is the median
of their peaks, which are listed too.  Nothing is written under
CHECKOUT but the bytecode cache the benchmark itself leaves there, and
nothing in bench/ changes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# The checkout's bench modules load from source, leaving no __pycache__ in bench/.
sys.dont_write_bytecode = True

CHILD = r"""
import contextlib, importlib.util, io, json, sys
sys.path.insert(0, sys.argv[1])
import numpy
import fiberphase.cli
import fiberphase.scenario as scenario

def vm_hwm():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

events = []

def watch(module, name, phase):
    # Record (phase, VmHWM) when the function returns.
    function = getattr(module, name)
    def watched(*args, **kwargs):
        try:
            return function(*args, **kwargs)
        finally:
            events.append((phase, vm_hwm()))
    setattr(module, name, watched)

class WatchCsvOnImport:
    # A meta path finder that wraps write_run_csv once a run imports runcsv, and then steps aside.
    def find_spec(self, name, path, target=None):
        if name != "fiberphase.runcsv":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module
        def exec_and_watch(module):
            exec_module(module)
            watch(module, "write_run_csv", "csv")
        spec.loader.exec_module = exec_and_watch
        return spec

watch(scenario, "_build_trajectory", "trajectory")
watch(scenario, "evolve_state", "evolution")
watch(scenario, "phase_series", "series")
sys.meta_path.insert(0, WatchCsvOnImport())
# As bench/child.py does: BLAS starts up before the first call.
numpy.ones((4, 4), dtype=complex) @ numpy.ones(4, dtype=complex)
print(json.dumps({"id": "import", "exit": None, "vm_hwm_kib": vm_hwm(), "phases": []}), flush=True)
for entry in json.loads(open(sys.argv[2], encoding="utf-8").read()):
    code = None
    events.clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = fiberphase.cli.main(entry["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = type(exc).__name__
    print(json.dumps({"id": entry["id"], "exit": code, "vm_hwm_kib": vm_hwm(), "phases": events}), flush=True)
"""
PHASES = ("trajectory", "evolution", "series", "csv")
# The columns of a split table that hold KiB.
KIB_COLUMNS = ("vm_hwm_kib", "rise", *PHASES, "other")


def split_rises(rows: list[dict]) -> list[dict]:
    """One child's rows, the import row first, as table rows: each call's VmHWM, its rise, and that rise split.

    A call's rise is its VmHWM over the reading before it.  Each phase
    event's reading over the one before it is charged to that phase, and
    what the call adds after its last event to "other", so the phases and
    "other" sum to the rise.
    """
    table, previous = [], 0
    for r in rows:
        split = dict.fromkeys(PHASES, 0)
        before = previous
        for phase, kib in r["phases"]:
            split[phase] += kib - before
            before = kib
        table.append({"id": r["id"], "exit": r["exit"], "vm_hwm_kib": r["vm_hwm_kib"],
                      "rise": r["vm_hwm_kib"] - previous, **split, "other": r["vm_hwm_kib"] - before})
        previous = r["vm_hwm_kib"]
    return table


def median_table(tables: list[list[dict]]) -> list[dict]:
    """The split tables of K children of one plan, cell by cell: the median KiB, and every exit code seen."""
    return [{"id": rows[0]["id"], "exit": "/".join(sorted({str(r["exit"]) for r in rows})),
             **{column: statistics.median(r[column] for r in rows) for column in KIB_COLUMNS}}
            for rows in zip(*tables)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=1, help="children to run the plan in (default 1)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    checkout = args.checkout.resolve()
    sys.path.insert(0, str(checkout / "bench"))
    import run
    import workloads

    env = {**os.environ, **run.CHILD_ENV}
    src = str(checkout / "src")
    tables = []
    with tempfile.TemporaryDirectory() as work:
        plan = workloads.generate(args.workload, args.seed, Path(work) / "inputs")
        calls = [{"id": e["id"], "argv": e["argv"] + ["--out", f"out/{e['id']}"]} for e in plan]
        Path(work, "plan.json").write_text(json.dumps(calls), encoding="utf-8")
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import fiberphase.cli", src],
                       cwd=work, env=env, check=True)
        for _ in range(args.repeat):
            child = subprocess.run([sys.executable, "-c", CHILD, src, "plan.json"], cwd=work, env=env,
                                   stdout=subprocess.PIPE, text=True, check=True)
            tables.append(split_rises([json.loads(line) for line in child.stdout.splitlines()]))
    records = {e["id"]: e.get("record", {}) for e in plan}
    table = median_table(tables)
    peak = table[-1]["vm_hwm_kib"]
    setter = next(r["id"] for r in table if r["vm_hwm_kib"] >= peak)
    what = "median of " if args.repeat > 1 else ""
    print(f"{args.workload} seed {args.seed}: {what}peak {peak} KiB ({peak / 1024:.2f} MiB), set by {setter}")
    if args.repeat > 1:
        print(f"peaks of the {args.repeat} children (KiB): " + " ".join(str(t[-1]["vm_hwm_kib"]) for t in tables))
    print("rise: what the call adds to VmHWM, split into what each phase of its runs adds and the rest (other)")
    print(f"{'call':<8} {'exit':>5} {'VmHWM KiB':>10} {'rise':>7} " + " ".join(f"{p:>10}" for p in PHASES)
          + f" {'other':>7}  label")
    for r in table:
        rec = records.get(r["id"], {})
        label = " ".join(f"{k}={rec[k]}" for k in ("label", "kind", "N", "n_max", "steps") if rec.get(k) is not None)
        mark = "  <- peak" if r["id"] == setter else ""
        cells = " ".join(f"{r[p]:>10}" for p in PHASES)
        print(f"{r['id']:<8} {r['exit']:>5} {r['vm_hwm_kib']:>10} {r['rise']:>7} {cells} {r['other']:>7}"
              f"  {label}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
