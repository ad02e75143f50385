"""One workload pass in a fresh interpreter.

    python3 child.py SRC_DIR PLAN_JSON RESULT_JSON [--trace | --setup-only]

The working directory holds the pass's ``inputs/``.  After import the
child records the moment the first run could begin, then calls
``fiberphase.cli.main`` once per plan entry, one after another (a closed
loop with one client), capturing stdout and stderr.  It starts no threads
or processes.  With ``--trace`` the public functions are wrapped first and
the spans are written with the result.  With ``--setup-only`` it stops
after import, which is how extra set-up samples are taken.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def peak_rss_kib() -> int:
    """Peak resident set of this process's own address space, KiB.

    On Linux ru_maxrss keeps the parent's high-water mark across fork and
    exec, so in a child it can read the harness rather than the pass;
    VmHWM belongs to the address space exec created.  ru_maxrss is the
    fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    src, plan_path, result_path, *flags = argv
    sys.path.insert(0, src)
    import numpy
    import fiberphase
    import fiberphase.cli

    # Touch BLAS so its lazy start-up lands in set-up, not in the first run.
    numpy.ones((4, 4), dtype=complex) @ numpy.ones(4, dtype=complex)
    ready = time.perf_counter()
    result = {
        "ready": ready,
        "fiberphase_version": getattr(fiberphase, "__version__", None),
        "fiberphase_file": fiberphase.__file__,
        "numpy_version": numpy.__version__,
    }
    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
        runs = []
        started = time.perf_counter()
        for entry in plan:
            if tracer is not None:
                tracer.run = entry["id"]
            out, err = io.StringIO(), io.StringIO()
            code, error = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = fiberphase.cli.main(entry["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash in one run is that run's failure, not the pass's
                error = traceback.format_exc(limit=4)
            seconds = time.perf_counter() - t0
            runs.append({
                "id": entry["id"], "exit_code": code, "error": error, "seconds": seconds,
                "stdout": out.getvalue()[-2000:], "stderr": err.getvalue()[-2000:],
            })
        result["wall_s"] = time.perf_counter() - started
        result["runs"] = runs
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
            result["absent"] = tracer.absent
            result["uncounted"] = sorted(tracer.uncounted)
    result["peak_rss_kib"] = peak_rss_kib()
    result["ru_maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
