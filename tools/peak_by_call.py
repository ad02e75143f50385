"""Which call of a benchmark plan sets a workload's peak resident set.

Usage: python3 tools/peak_by_call.py CHECKOUT --workload W --seed S

Writes workload W's inputs at seed S with CHECKOUT's bench/workloads.py
into a temporary directory, then runs that plan in one fresh child
interpreter the way bench/run.py runs a pass: fiberphase imported from
CHECKOUT/src, the environment of bench/run.py's CHILD_ENV
(PYTHONHASHSEED=0, one BLAS thread), bytecode writing as inherited, one
``cli.main`` call after another with ``--out`` in the temporary
directory.  A first child only imports the package, as the benchmark's
warm-up does, so the measured child loads what a measured pass loads.

The child prints VmHWM, the peak resident set so far, after import and
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
negative rise is that.  Nothing is written under CHECKOUT but the
bytecode cache the benchmark itself leaves there, and nothing in bench/
changes.
"""

from __future__ import annotations

import argparse
import json
import os
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path.insert(0, str(checkout / "bench"))
    import run
    import workloads

    env = {**os.environ, **run.CHILD_ENV}
    src = str(checkout / "src")
    with tempfile.TemporaryDirectory() as work:
        plan = workloads.generate(args.workload, args.seed, Path(work) / "inputs")
        calls = [{"id": e["id"], "argv": e["argv"] + ["--out", f"out/{e['id']}"]} for e in plan]
        Path(work, "plan.json").write_text(json.dumps(calls), encoding="utf-8")
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import fiberphase.cli", src],
                       cwd=work, env=env, check=True)
        child = subprocess.run([sys.executable, "-c", CHILD, src, "plan.json"], cwd=work, env=env,
                               stdout=subprocess.PIPE, text=True, check=True)
    rows = [json.loads(line) for line in child.stdout.splitlines()]
    records = {e["id"]: e.get("record", {}) for e in plan}
    peak = rows[-1]["vm_hwm_kib"]
    setter = next(r["id"] for r in rows if r["vm_hwm_kib"] == peak)
    print(f"{args.workload} seed {args.seed}: peak {peak} KiB ({peak / 1024:.2f} MiB), set by {setter}")
    print("rise: what the call adds to VmHWM, split into what each phase of its runs adds and the rest (other)")
    print(f"{'call':<8} {'exit':>5} {'VmHWM KiB':>10} {'rise':>7} " + " ".join(f"{p:>10}" for p in PHASES)
          + f" {'other':>7}  label")
    previous = 0
    for r in rows:
        rec = records.get(r["id"], {})
        label = " ".join(f"{k}={rec[k]}" for k in ("label", "kind", "N", "n_max", "steps") if rec.get(k) is not None)
        mark = "  <- peak" if r["id"] == setter else ""
        # VmHWM only grows, so each event's rise over the reading before it sums to the call's rise.
        rises = dict.fromkeys(PHASES, 0)
        before = previous
        for phase, kib in r["phases"]:
            rises[phase] += kib - before
            before = kib
        cells = " ".join(f"{rises[p]:>10}" for p in PHASES)
        print(f"{r['id']:<8} {str(r['exit']):>5} {r['vm_hwm_kib']:>10} {r['vm_hwm_kib'] - previous:>7} {cells}"
              f" {r['vm_hwm_kib'] - before:>7}  {label}{mark}")
        previous = r["vm_hwm_kib"]
    return 0


if __name__ == "__main__":
    sys.exit(main())
