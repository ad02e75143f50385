"""Spans around fiberphase's public functions, recorded from outside the program.

``Tracer.install`` wraps each function in TARGETS at every fiberphase
module attribute bound to it, so calls through a re-exported name or a
module attribute (``quadrature.integrate``) are caught as well as direct
ones.  A span records name, start, end, parent span and run id; spans stay
in memory until the pass writes them out.  A function missing from its
module is listed as absent and its metrics read 0 calls.

``layer_metrics`` turns one pass's spans and counters into the per-layer
metrics.  A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Wrapped functions, named module.function.  The three trajectory
# constructors report together as geometry.trajectory.
TARGETS = (
    "phases.evolve_state", "phases.phase_series", "phases.extract_phases", "phases.anholonomy_integral",
    "geometry.make_helix", "geometry.tangent_trajectory", "geometry.cone_trajectory",
    "geometry.spherical_angles", "geometry.motion_identity_residual", "geometry.solid_angle",
    "geometry.load_path_csv",
    "quadrature.integrate", "quadrature.cumulative_dense",
    "fock.build_space", "fock.spin_fixed", "fock.s3_split", "fock.build_photon_state",
    "scenario.run_scenario", "scenario.evaluate_scenario", "scenario.sweep", "scenario.run_builtin",
    "scenario.parse_config",
    "media.refractive_indices", "media.classify",
    "cli.main",
)
TRAJECTORY = {"geometry.make_helix", "geometry.tangent_trajectory", "geometry.cone_trajectory"}

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "phases.evolve_state.self_s": "s",
    "phases.evolve_state.calls": "count",
    "phases.rk4_steps": "count",
    "phases.dim_max": "count",
    "phases.rk4_flops": "flop",
    "phases.states_bytes": "bytes",
    "phases.phase_series.self_s": "s",
    "phases.phase_series.calls": "count",
    "phases.phase_series.calls_per_run": "ratio",
    "phases.extract_phases.self_s": "s",
    "phases.anholonomy_integral.self_s": "s",
    "phases.anholonomy_integral.calls": "count",
    "geometry.trajectory.self_s": "s",
    "geometry.spherical_angles.self_s": "s",
    "geometry.spherical_angles.samples": "count",
    "geometry.motion_identity_residual.self_s": "s",
    "geometry.solid_angle.self_s": "s",
    "geometry.load_path_csv.self_s": "s",
    "geometry.csv_rows_read": "count",
    "quadrature.integrate.self_s": "s",
    "quadrature.integrate.samples": "count",
    "quadrature.cumulative_dense.self_s": "s",
    "quadrature.cumulative_dense.samples": "count",
    "fock.build_space.self_s": "s",
    "fock.build_space.calls": "count",
    "fock.spin_fixed.self_s": "s",
    "fock.spin_fixed.calls": "count",
    "fock.s3_split.self_s": "s",
    "fock.s3_split.calls": "count",
    "fock.build_photon_state.self_s": "s",
    "fock.build_photon_state.calls": "count",
    "scenario.run_scenario.self_s": "s",
    "scenario.artifact_bytes": "bytes",
    "scenario.evaluate_scenario.self_s": "s",
    "scenario.sweep.self_s": "s",
    "scenario.run_builtin.self_s": "s",
    "scenario.parse_config.self_s": "s",
    "media.refractive_indices.self_s": "s",
    "media.refractive_indices.calls": "count",
    "media.classify.self_s": "s",
    "media.classify.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "trace_overhead_s": "s",
}


def _count_evolution(counts: Counter, args, result) -> None:
    """RK4 work of one evolve_state call: 4 complex d x d matvecs (8*d*d flops each) per step."""
    steps = len(result.times) - 1
    dim = result.states.shape[1]
    counts["phases.rk4_steps"] += steps
    counts["phases.rk4_flops"] += steps * 4 * 8 * dim * dim
    counts["phases.states_bytes"] += result.states.nbytes
    counts["phases.dim_max"] = max(counts["phases.dim_max"], dim)


def _count_samples(name: str, position: int):
    def count(counts: Counter, args, result) -> None:
        counts[name] += len(args[position])

    return count


def _count_angle_samples(counts: Counter, args, result) -> None:
    counts["geometry.spherical_angles.samples"] += len(args[0].times)


def _count_csv_rows(counts: Counter, args, result) -> None:
    counts["geometry.csv_rows_read"] += len(result.times)


# Work counters taken from a traced call's arguments or result.
COUNTERS = {
    "phases.evolve_state": _count_evolution,
    "geometry.spherical_angles": _count_angle_samples,
    "geometry.load_path_csv": _count_csv_rows,
    "quadrature.integrate": _count_samples("quadrature.integrate.samples", 1),
    "quadrature.cumulative_dense": _count_samples("quadrature.cumulative_dense.samples", 1),
}


class Tracer:
    """Records spans of wrapped calls for one pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: Counter = Counter()
        self.uncounted: set[str] = set()
        self.absent: list[str] = []
        self.run: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    count(self.counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    self.uncounted.add(name)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each fiberphase module attribute bound to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "fiberphase" or n.startswith("fiberphase.")]
        for name in TARGETS:
            module_name, attr = name.split(".")
            original = getattr(sys.modules.get(f"fiberphase.{module_name}"), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, run) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans: list[list], counts: dict, artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, trace_overhead_s excepted."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        prefix = "geometry.trajectory" if name in TRAJECTORY else name
        self_s[prefix] += own
        calls[prefix] += 1
    metrics = {}
    for metric in LAYER_METRICS:
        if metric.endswith(".self_s"):
            metrics[metric] = self_s[metric[: -len(".self_s")]]
        elif metric.endswith(".calls"):
            metrics[metric] = calls[metric[: -len(".calls")]]
        elif metric in counts:
            metrics[metric] = counts[metric]
    evolutions = calls["phases.evolve_state"]
    metrics["phases.phase_series.calls_per_run"] = calls["phases.phase_series"] / evolutions if evolutions else 0.0
    metrics["scenario.artifact_bytes"] = artifact_bytes
    for metric in LAYER_METRICS:
        metrics.setdefault(metric, 0)
    return metrics
