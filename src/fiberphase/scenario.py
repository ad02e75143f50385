"""Declarative scenario runner: geometry + state + orderings to artifacts.

A scenario config names a fibre geometry, a photon state, an operator
ordering and the numerical budgets.  Running it produces a per-step CSV
(t, lambda, gamma, phi_closed, phi_total, phi_dyn, phi_geo, norm,
lvn_residual), a JSON summary with the phase breakdown, guard metrics
and a machine-readable pass/fail block, and optional gyrotropic
dispersion verdicts.  Identical configs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import quadrature
from .fock import FockSpace, build_photon_state, build_space, helicity_expectation, occupied_sectors, StateVector
from .geometry import (
    cone_anholonomy,
    cone_trajectory,
    count_path_rows,
    geodesic_closure,
    helix_cone,
    load_path_csv,
    motion_identity_residual,
    spherical_angles,
    tangent_trajectory,
    wrap_angle,
    CLOSURE_TOL,
)
from .media import DispersionVerdict, GyrotropicMedium, classify
from .phases import PhaseBreakdown, check_rk4_grid, evolve_state, phase_series

ORDERINGS = ("normal", "nonnormal_r", "nonnormal_l", "nonnormal_total")
SWEEP_PARAMETERS = ("lambda", "turns", "n_R", "n_L", "epsilon2")

NORM_DRIFT_TOL = 1e-9
LVN_TOL = 1e-6
MOTION_TOL = 1e-6
DEFAULT_TOLERANCE = 1e-4
MIN_STEPS = 32

# Values per '%' call of the run CSV writer.  A block's transient floats,
# tuple and text take about 70 kB whatever the step count; larger blocks
# are no faster and raise the peak RSS of a run.
CSV_BLOCK_VALUES = 1024

# Memory a run may need, checked before anything is allocated.  The
# coefficients come from tracemalloc peaks, with headroom: the dense spin
# operators held 11 complex D x D arrays, D the dimension of the 3-mode
# space; a trajectory sample costs 256 bytes, a stored state 16*D.  A run
# now stores sector-sized states and pays about 150 bytes per basis state,
# so both D terms overcharge; the D^2 term stays as the only bound on time.
MEMORY_BUDGET_BYTES = 2 * 1024**3
_DENSE_COPIES_3MODE = 12
_BYTES_PER_SAMPLE = 288
# Below 2**52 a float still holds the half quantum of n + 1/2.
_MAX_SWEEP_PHOTONS = 2**52 - 1
# Most turns a geometry may have.  |A| <= 4*pi*turns, a Simpson pane sums
# six times its largest integrand sample, and phi_closed is A times up to
# 2**52 photons: all stay finite, where 2*pi*turns alone can overflow them.
MAX_TURNS = 1e290


class ConfigError(ValueError):
    """Invalid scenario configuration; carries the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


def _show(value) -> str:
    """repr(value); an int too long for the interpreter to print shows its order of magnitude, 10^k."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}10^{math.log10(abs(value)):.0f}"
        return f"a {type(value).__name__} holding an int too long to print"


def _check_budget(field: str, estimate: int, what: str) -> None:
    if estimate > MEMORY_BUDGET_BYTES:
        # An estimate can exceed every float; log10 still prints its size.
        size = f"{estimate / 2**30:.3g} GiB" if estimate < 2**1000 else f"10^{math.log10(estimate):.0f} bytes"
        raise ConfigError(
            field,
            f"{what} needs an estimated {size}, over the {MEMORY_BUDGET_BYTES / 2**30:g} GiB memory budget",
        )


def _run_bytes(n_max: int, steps: int | None) -> tuple[int, int]:
    """Estimated (operator, per-sample) bytes of a run; a sampled path without a known length has no sample term."""
    dim = FockSpace(3, n_max).dimension
    operators = _DENSE_COPIES_3MODE * 16 * dim * dim
    samples = 0 if steps is None else (2 * steps + 1) * _BYTES_PER_SAMPLE + (steps + 1) * 16 * dim
    return operators, samples


@dataclass(frozen=True)
class HelixGeometry:
    radius: float
    pitch_per_turn: float
    turns: float


@dataclass(frozen=True)
class ConeGeometry:
    polar_angle: float
    turns: float


@dataclass(frozen=True)
class SampledGeometry:
    path_csv: str


@dataclass(frozen=True)
class MediumSpec:
    epsilon1: float
    epsilon2: float
    epsilon3: float
    mu: float
    omega: float


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    geometry: HelixGeometry | ConeGeometry | SampledGeometry
    n_r: int | None
    n_l: int | None
    amplitudes: tuple[complex, ...] | None
    ordering: str
    n_max: int
    steps: int | None
    t_end: float
    tolerance: float
    medium: MediumSpec | None


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(where, f"unknown key(s) {', '.join(unknown)}")


def _finite(value) -> float | None:
    """value as a finite float, or None if it is not a finite real number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _get_number(mapping: dict, key: str, where: str) -> float:
    if key not in mapping:
        raise ConfigError(f"{where}.{key}", "missing required key")
    value = _finite(mapping[key])
    if value is None:
        raise ConfigError(f"{where}.{key}", f"expected a finite number, got {_show(mapping[key])}")
    return value


def _check_turns(turns: float, field: str, what: str) -> None:
    if not 0.0 < turns <= MAX_TURNS:
        raise ConfigError(field, f"{what} must lie in (0, {MAX_TURNS:g}]")


def _get_int(mapping: dict, key: str, where: str) -> int:
    if key not in mapping:
        raise ConfigError(f"{where}.{key}", "missing required key")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}", f"expected an integer, got {_show(value)}")
    return value


def _parse_geometry(data, base_dir: Path) -> HelixGeometry | ConeGeometry | SampledGeometry:
    if not isinstance(data, dict):
        raise ConfigError("geometry", "expected a mapping")
    kind = data.get("kind")
    if kind == "helix":
        _check_keys(data, {"kind", "radius", "pitch_per_turn", "turns"}, "geometry")
        radius = _get_number(data, "radius", "geometry")
        pitch = _get_number(data, "pitch_per_turn", "geometry")
        turns = _get_number(data, "turns", "geometry")
        if radius <= 0:
            raise ConfigError("geometry.radius", "must be positive")
        _check_turns(turns, "geometry.turns", f"turns {turns!r}")
        return HelixGeometry(radius, pitch, turns)
    if kind == "cone":
        _check_keys(data, {"kind", "polar_angle", "turns"}, "geometry")
        polar = _get_number(data, "polar_angle", "geometry")
        turns = _get_number(data, "turns", "geometry")
        if not 0.0 <= polar <= math.pi:
            raise ConfigError("geometry.polar_angle", "must lie in [0, pi]")
        _check_turns(turns, "geometry.turns", f"turns {turns!r}")
        return ConeGeometry(polar, turns)
    if kind == "sampled":
        _check_keys(data, {"kind", "path_csv"}, "geometry")
        if "path_csv" not in data or not isinstance(data["path_csv"], str):
            raise ConfigError("geometry.path_csv", "missing CSV file name")
        return SampledGeometry(str(base_dir / data["path_csv"]))
    raise ConfigError("geometry.kind", f"must be helix, cone or sampled, got {_show(kind)}")


def _parse_state(data) -> tuple[int | None, int | None, tuple[complex, ...] | None]:
    if not isinstance(data, dict):
        raise ConfigError("state", "expected a mapping")
    if "amplitudes" in data:
        _check_keys(data, {"amplitudes"}, "state")
        raw = data["amplitudes"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("state.amplitudes", "expected a non-empty list of [re, im] pairs")
        amps = []
        for i, pair in enumerate(raw):
            parts = [_finite(v) for v in pair] if isinstance(pair, list) else []
            if len(parts) != 2 or None in parts:
                raise ConfigError("state.amplitudes", f"entry {i} is not an [re, im] pair of finite numbers")
            amps.append(complex(parts[0], parts[1]))
        return None, None, tuple(amps)
    _check_keys(data, {"n_r", "n_l"}, "state")
    n_r = _get_int(data, "n_r", "state")
    n_l = _get_int(data, "n_l", "state")
    if n_r < 0 or n_l < 0:
        raise ConfigError("state", "photon numbers must be non-negative")
    return n_r, n_l, None


def _parse_medium(data) -> MediumSpec:
    if not isinstance(data, dict):
        raise ConfigError("medium", "expected a mapping")
    _check_keys(data, {"epsilon1", "epsilon2", "epsilon3", "mu", "omega"}, "medium")
    eps1 = _get_number(data, "epsilon1", "medium")
    eps2 = _get_number(data, "epsilon2", "medium")
    eps3 = _get_number(data, "epsilon3", "medium")
    mu = _get_number(data, "mu", "medium")
    omega = _get_number(data, "omega", "medium") if "omega" in data else 1.0
    if omega <= 0:
        raise ConfigError("medium.omega", "must be positive")
    return MediumSpec(eps1, eps2, eps3, mu, omega)


def parse_config(data: dict, name: str, base_dir: Path | None = None) -> ScenarioConfig:
    """Validate a raw config mapping; unknown keys are rejected."""
    base_dir = base_dir or Path(".")
    if not isinstance(data, dict):
        raise ConfigError("config", "expected a mapping")
    allowed = {"geometry", "state", "ordering", "n_max", "steps", "t_end", "tolerance", "medium"}
    _check_keys(data, allowed, "config")
    for key in ("geometry", "state"):
        if key not in data:
            raise ConfigError(key, "missing required section")

    geometry = _parse_geometry(data["geometry"], base_dir)
    n_r, n_l, amplitudes = _parse_state(data["state"])

    ordering = data.get("ordering", "normal")
    if ordering not in ORDERINGS:
        raise ConfigError("ordering", f"must be one of {', '.join(ORDERINGS)}, got {_show(ordering)}")
    if amplitudes is not None and ordering in ("nonnormal_r", "nonnormal_l"):
        raise ConfigError(
            "ordering",
            "per-handedness orderings need an occupation-number state, not raw amplitudes",
        )

    n_max = _get_int(data, "n_max", "config") if "n_max" in data else 2
    if n_max < 1:
        raise ConfigError("n_max", f"must be >= 1, got {_show(n_max)}")

    steps = None
    if isinstance(geometry, SampledGeometry):
        if "steps" in data:
            raise ConfigError("steps", "derived from the sampled path file; do not set it")
    else:
        steps = _get_int(data, "steps", "config") if "steps" in data else 4096
        if steps < MIN_STEPS:
            raise ConfigError("steps", f"must be >= {MIN_STEPS}, got {_show(steps)}")

    operators, samples = _run_bytes(n_max, steps)
    field = "n_max" if operators >= samples else "steps"
    _check_budget(field, operators + samples, f"n_max = {_show(n_max)} with steps = {_show(steps)}")
    if amplitudes is not None:
        dimension = FockSpace(3, n_max).dimension
        if len(amplitudes) != dimension:
            raise ConfigError(
                "state.amplitudes", f"expected {dimension} amplitudes for n_max = {n_max}, got {len(amplitudes)}"
            )
        norm = float(np.linalg.norm(np.array(amplitudes, dtype=complex)))
        if abs(norm - 1.0) > 1e-6:
            raise ConfigError("state.amplitudes", f"state norm {norm!r} is not 1 within 1e-6")

    t_end = _get_number(data, "t_end", "config") if "t_end" in data else 1.0
    if not 0.0 < t_end <= 1.0:
        raise ConfigError("t_end", "must lie in (0, 1]")
    if isinstance(geometry, SampledGeometry) and t_end != 1.0:
        raise ConfigError("t_end", "not supported with sampled geometry")

    tolerance = _get_number(data, "tolerance", "config") if "tolerance" in data else DEFAULT_TOLERANCE
    if tolerance <= 0:
        raise ConfigError("tolerance", "must be positive")

    medium = _parse_medium(data["medium"]) if "medium" in data else None

    if n_r is not None and n_r + n_l > n_max:
        raise ConfigError(
            "state",
            f"cutoff overflow: n_r + n_l = {_show(n_r + n_l)} photons need n_max >= {_show(n_r + n_l)}",
        )

    return ScenarioConfig(
        name=name,
        geometry=geometry,
        n_r=n_r,
        n_l=n_l,
        amplitudes=amplitudes,
        ordering=ordering,
        n_max=n_max,
        steps=steps,
        t_end=t_end,
        tolerance=tolerance,
        medium=medium,
    )


def _config_echo(config: ScenarioConfig) -> dict:
    g = config.geometry
    if isinstance(g, HelixGeometry):
        geometry = {"kind": "helix", "radius": g.radius, "pitch_per_turn": g.pitch_per_turn, "turns": g.turns}
    elif isinstance(g, ConeGeometry):
        geometry = {"kind": "cone", "polar_angle": g.polar_angle, "turns": g.turns}
    else:
        geometry = {"kind": "sampled", "path_csv": Path(g.path_csv).name}
    if config.amplitudes is not None:
        state = {"amplitudes": [[z.real, z.imag] for z in config.amplitudes]}
    else:
        state = {"n_r": config.n_r, "n_l": config.n_l}
    echo = {
        "geometry": geometry,
        "state": state,
        "ordering": config.ordering,
        "n_max": config.n_max,
        "t_end": config.t_end,
        "tolerance": config.tolerance,
    }
    if config.steps is not None:
        echo["steps"] = config.steps
    if config.medium is not None:
        m = config.medium
        echo["medium"] = {
            "epsilon1": m.epsilon1,
            "epsilon2": m.epsilon2,
            "epsilon3": m.epsilon3,
            "mu": m.mu,
            "omega": m.omega,
        }
    return echo


def _analytic_cone(config: ScenarioConfig) -> tuple[float, float, int, float] | None:
    """cone_trajectory's (polar angle, turns, samples, azimuth offset) for a helix or cone; None for a sampled path."""
    g = config.geometry
    if isinstance(g, HelixGeometry):
        polar, offset = helix_cone(g.radius, g.pitch_per_turn)
    elif isinstance(g, ConeGeometry):
        polar, offset = g.polar_angle, 0.0
    else:
        return None
    return polar, g.turns * config.t_end, 2 * config.steps + 1, offset


def _build_trajectory(config: ScenarioConfig):
    cone = _analytic_cone(config)
    if cone is not None:
        return cone_trajectory(*cone)
    g = config.geometry
    try:
        rows = count_path_rows(g.path_csv)
    except (ValueError, OSError) as exc:
        raise ConfigError("geometry.path_csv", str(exc)) from None
    _check_budget("geometry.path_csv", sum(_run_bytes(config.n_max, (rows - 1) // 2)), f"a path of {rows} rows")
    try:
        path = load_path_csv(g.path_csv)
        check_rk4_grid(path.times)
        return tangent_trajectory(path)
    except (ValueError, OSError) as exc:
        raise ConfigError("geometry.path_csv", str(exc)) from None


def _s3_expectation(ordering: str, n_r: int, n_l: int) -> float:
    """Spin-3 expectation of the (n_r, n_l) circular state in one operator ordering.

    The fock.s3_split pieces are diagonal here: a_R+ a_R reads sqrt(n_r) * sqrt(n_r),
    the product the dense matrices round, so this equals their expectation bit for bit.
    """
    r = math.sqrt(n_r) * math.sqrt(n_r)
    l = -(math.sqrt(n_l) * math.sqrt(n_l))
    if ordering == "normal":
        return r + l
    if ordering == "nonnormal_r":
        return r + 0.5
    if ordering == "nonnormal_l":
        return l - 0.5
    return (r + 0.5) + (l - 0.5)


def _initial_state(config: ScenarioConfig, space, k0: np.ndarray) -> StateVector:
    if config.amplitudes is not None:
        amps = np.array(config.amplitudes, dtype=complex)
        return StateVector(space, amps / float(np.linalg.norm(amps)))  # parse_config checked the norm
    return build_photon_state(space, config.n_r, config.n_l, k_hat=k0)


def _closed_form(config: ScenarioConfig):
    """(trajectory, spherical angles, running anholonomy at the RK4 step boundaries) of a config.

    The last running value is A, the same bits as geometry.anholonomy_integral.
    """
    traj = _build_trajectory(config)
    angles = spherical_angles(traj)
    return traj, angles, quadrature.cumulative_panes(angles.anholonomy_rate(), angles.times)


def _dispersion(m: MediumSpec) -> tuple[float, float, DispersionVerdict, DispersionVerdict]:
    """(n_plus^2, n_minus^2, plus verdict, minus verdict) of a medium block."""
    plus, minus = classify(GyrotropicMedium(m.epsilon1, m.epsilon2, m.epsilon3, m.mu), m.omega)
    return plus.n_squared, minus.n_squared, plus, minus


def _check(name: str, value: float, threshold: float) -> dict:
    return {"name": name, "value": value, "threshold": threshold, "pass": bool(value <= threshold)}


def evaluate_scenario(config: ScenarioConfig) -> dict:
    """Run one scenario in memory and return its summary mapping."""
    traj, angles, running = _closed_form(config)
    anholonomy = float(running[-1])

    k = angles.unit_tangents
    closure_gap = float(np.linalg.norm(k[-1] - k[0]))
    closed = closure_gap < CLOSURE_TOL
    closure = geodesic_closure(k[0], k[-1])
    # Both residuals carry units of 1/time; over the grid span they read the same in any time unit.
    span = float(traj.times[-1] - traj.times[0])
    motion = motion_identity_residual(traj) * span

    space = build_space(3, config.n_max)
    psi0 = _initial_state(config, space, k[0])
    sectors = occupied_sectors(psi0)

    if config.amplitudes is None:
        s3_attr = _s3_expectation(config.ordering, config.n_r, config.n_l)
        s3_total = _s3_expectation("normal", config.n_r, config.n_l)
    else:
        s3_total = s3_attr = helicity_expectation(psi0, k[0])

    result = evolve_state(psi0, traj)
    series = phase_series(result)
    breakdown = PhaseBreakdown.from_series(series, s3_attr, anholonomy)

    phi_closed_total = s3_total * anholonomy
    difference = abs(wrap_angle(breakdown.geometric_phase - s3_total * (anholonomy + closure)))
    norm_drift = float(np.abs(result.norms - 1.0).max())
    lvn = result.lvn_residuals * span
    lvn_max = float(lvn.max())

    checks = [
        _check("numerical_vs_closed_form", difference, config.tolerance),
        _check("norm_drift", norm_drift, NORM_DRIFT_TOL),
        _check("lvn_residual", lvn_max, LVN_TOL),
        _check("motion_identity", motion, MOTION_TOL),
    ]
    # Zero-point terms of the two handednesses, from the vacuum expectations
    # of the non-normal-ordered S3 pieces; they must cancel in the total.
    vacuum_right = _s3_expectation("nonnormal_r", 0, 0) * anholonomy
    vacuum_left = _s3_expectation("nonnormal_l", 0, 0) * anholonomy
    vacuum_sum = vacuum_right + vacuum_left
    if config.n_r == 0 and config.n_l == 0:
        checks.append(_check("vacuum_cancellation", abs(vacuum_sum), 0.0))

    summary = {
        "name": config.name,
        "config": _config_echo(config),
        "trajectory": {
            "samples": len(traj.times),
            "closure_gap": closure_gap,
            "closed": closed,
            "solid_angle": anholonomy if closed else None,
            "motion_identity_residual": motion,
        },
        "spin_expectations": {
            "ordering": config.ordering,
            "s3_attributed": s3_attr,
            "s3_total": s3_total,
        },
        "closed_form": {
            "anholonomy_integral": anholonomy,
            "geodesic_closure": closure,
            "phi_attributed": s3_attr * anholonomy,
            "phi_total": phi_closed_total,
            "vacuum": {"right": vacuum_right, "left": vacuum_left, "sum": vacuum_sum},
        },
        "numerical": {
            "steps": result.steps,
            "sectors": sectors,
            "sector_dimension": len(result.keep),
            "total_phase": breakdown.total_phase,
            "dynamical_phase": breakdown.dynamical_phase,
            "geometric_phase": breakdown.geometric_phase,
            "geometric_phase_mod_2pi": breakdown.geometric_phase_mod_2pi,
            "difference_vs_closed_total": difference,
            "norm_drift": norm_drift,
            "lvn_max_residual": lvn_max,
            "max_h_dt_bound": result.max_h_dt,
        },
        "checks": checks,
        "status": "pass" if all(c["pass"] for c in checks) else "fail",
    }

    if config.medium is not None:
        n_plus_sq, n_minus_sq, plus, minus = _dispersion(config.medium)
        summary["medium"] = {
            "n_plus_sq": n_plus_sq,
            "n_minus_sq": n_minus_sq,
            "verdicts": [
                {
                    "handedness": v.handedness,
                    "n_squared": v.n_squared,
                    "status": v.status,
                    "propagation_constant": v.propagation_constant,
                }
                for v in (plus, minus)
            ],
        }

    # The CSV's azimuth column, unwrapped here so that the writer's scratch stays one row block.
    angles.gamma
    summary["_series"] = {
        "angles": angles,
        "anholonomy": running,
        "phase": series,
        "lvn": lvn,
        "s3_attributed": s3_attr,
    }
    return summary


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_run_csv(summary: dict, csv_path: Path) -> None:
    angles = summary["_series"]["angles"]
    series = summary["_series"]["phase"]
    s3_attr = summary["_series"]["s3_attributed"]
    table = np.column_stack(
        [
            angles.times[::2],
            angles.lam[::2],
            angles.gamma[::2],
            s3_attr * summary["_series"]["anholonomy"],
            series["total"],
            series["dynamical"],
            series["geometric"],
            series["norms"],
            summary["_series"]["lvn"],
        ]
    )
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    rows = CSV_BLOCK_VALUES // table.shape[1]
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,lambda,gamma,phi_closed,phi_total,phi_dyn,phi_geo,norm,lvn_residual\n")
        for start in range(0, len(table), rows):
            chunk = table[start : start + rows]
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def _write_json(payload: dict, path: Path) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


@dataclass(frozen=True)
class RunOutcome:
    exit_code: int
    summary: dict
    files: tuple[str, ...]


def run_scenario(config: ScenarioConfig, out_dir) -> RunOutcome:
    """Evaluate a scenario and write its CSV and JSON artifacts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = evaluate_scenario(config)
    csv_path = out_dir / f"{config.name}.csv"
    json_path = out_dir / f"{config.name}.json"
    _write_run_csv(summary, csv_path)
    public = {k: v for k, v in summary.items() if not k.startswith("_")}
    _write_json(public, json_path)
    code = 0 if public["status"] == "pass" else 1
    return RunOutcome(code, public, (str(csv_path), str(json_path)))


_PITCH_60 = 2.0 * math.pi / math.tan(math.pi / 3.0)

BUILTIN_SCENARIOS: dict[str, tuple[tuple[str, dict], ...]] = {
    # Constant polar angle pi/4, one turn, one right-handed photon.
    "chiao-helix-45": (
        (
            "chiao-helix-45",
            {
                "geometry": {"kind": "helix", "radius": 1.0, "pitch_per_turn": 2.0 * math.pi, "turns": 1.0},
                "state": {"n_r": 1, "n_l": 0},
                "ordering": "normal",
                "n_max": 2,
                "steps": 8192,
                "tolerance": 1e-4,
            },
        ),
    ),
    # Vacuum state, per-handedness attributions, polar angle pi/3.
    "vacuum-pair": (
        (
            "vacuum-pair-right",
            {
                "geometry": {"kind": "helix", "radius": 1.0, "pitch_per_turn": _PITCH_60, "turns": 1.0},
                "state": {"n_r": 0, "n_l": 0},
                "ordering": "nonnormal_r",
                "n_max": 2,
                "steps": 2048,
                "tolerance": 1e-4,
            },
        ),
        (
            "vacuum-pair-left",
            {
                "geometry": {"kind": "helix", "radius": 1.0, "pitch_per_turn": _PITCH_60, "turns": 1.0},
                "state": {"n_r": 0, "n_l": 0},
                "ordering": "nonnormal_l",
                "n_max": 2,
                "steps": 2048,
                "tolerance": 1e-4,
            },
        ),
    ),
    # Three photons, net handedness +1, polar angle pi/3.
    "multiphoton-21": (
        (
            "multiphoton-21",
            {
                "geometry": {"kind": "helix", "radius": 1.0, "pitch_per_turn": _PITCH_60, "turns": 1.0},
                "state": {"n_r": 2, "n_l": 1},
                "ordering": "normal",
                "n_max": 3,
                "steps": 4096,
                "tolerance": 1e-4,
            },
        ),
    ),
    # One photon plus the gyroelectric medium that blocks one handedness.
    "gyro-appendix": (
        (
            "gyro-appendix",
            {
                "geometry": {"kind": "cone", "polar_angle": math.pi / 4.0, "turns": 1.0},
                "state": {"n_r": 1, "n_l": 0},
                "ordering": "normal",
                "n_max": 2,
                "steps": 2048,
                "tolerance": 1e-4,
                "medium": {"epsilon1": -1.0, "epsilon2": 2.0, "epsilon3": 1.0, "mu": 1.0, "omega": 1.0},
            },
        ),
    ),
}


def apply_overrides(raw: dict, steps=None, n_max=None, tolerance=None) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config", "expected a mapping")
    out = {k: v for k, v in raw.items()}
    if steps is not None:
        out["steps"] = steps
    if n_max is not None:
        out["n_max"] = n_max
    if tolerance is not None:
        out["tolerance"] = tolerance
    return out


def builtin_members(name: str) -> tuple[tuple[str, dict], ...]:
    """(label, raw config) pairs of a named built-in scenario."""
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError("scenario", f"unknown scenario {name!r}; known: {', '.join(sorted(BUILTIN_SCENARIOS))}")
    return BUILTIN_SCENARIOS[name]


def run_builtin(name: str, out_dir, steps=None, n_max=None, tolerance=None) -> int:
    """Run a named built-in scenario (possibly a group) and write artifacts."""
    members = builtin_members(name)
    out_dir = Path(out_dir)
    outcomes = []
    for label, raw in members:
        config = parse_config(apply_overrides(raw, steps, n_max, tolerance), label)
        outcomes.append(run_scenario(config, out_dir))
    code = max(o.exit_code for o in outcomes)
    if len(members) > 1:
        group: dict = {
            "name": name,
            "members": [o.summary["name"] for o in outcomes],
            "statuses": [o.summary["status"] for o in outcomes],
        }
        attributed = [o.summary["closed_form"]["phi_attributed"] for o in outcomes]
        if len(attributed) == 2:
            pair_sum = attributed[0] + attributed[1]
            group["pair"] = {
                "phi_attributed": attributed,
                "sum": pair_sum,
                "cancels": pair_sum == 0.0,
            }
            if pair_sum != 0.0:
                code = max(code, 1)
        group["status"] = "pass" if code == 0 else "fail"
        _write_json(group, out_dir / f"{name}.json")
    return code


def _sweep_float(parameter: str, value) -> float:
    x = _finite(value)
    if x is None:
        raise ConfigError("sweep", f"{parameter} value {_show(value)} is not a finite number")
    return x


def _sweep_point(config: ScenarioConfig, parameter: str, value) -> tuple[int | float, ScenarioConfig]:
    """(value as its row shows it, the template config with that value swept in)."""
    if parameter in ("n_R", "n_L"):
        if not _sweep_float(parameter, value).is_integer() or not 0 <= int(value) <= _MAX_SWEEP_PHOTONS:
            raise ConfigError("sweep", f"{parameter} value {_show(value)} must be an integer from 0 to 2**52 - 1")
        n = int(value)
        return n, replace(config, n_r=n) if parameter == "n_R" else replace(config, n_l=n)
    x = _sweep_float(parameter, value)
    if parameter == "epsilon2":
        return x, replace(config, medium=replace(config.medium, epsilon2=x))
    if parameter == "lambda" and not 0.0 <= x <= math.pi:
        raise ConfigError("sweep", f"lambda value {x!r} outside [0, pi]")
    if parameter == "turns":
        _check_turns(x, "sweep", f"turns value {x!r}")
    g = config.geometry
    if isinstance(g, SampledGeometry):
        raise ConfigError("sweep", "lambda/turns sweeps need helix or cone geometry")
    if parameter == "lambda":
        return x, replace(config, geometry=ConeGeometry(x, g.turns))
    # The template's own geometry, so a helix row is the helix run's A.
    return x, replace(config, geometry=replace(g, turns=x))


def _cell(x) -> str:
    return x if isinstance(x, str) else str(x) if isinstance(x, int) else _fmt(x)


def sweep(config: ScenarioConfig, parameter: str, values, out_dir) -> tuple[int, str]:
    """Write one closed-form (or dispersion) table row per parameter value.

    Each row evaluates the template config with that one value swept in,
    by the closed-form and dispersion code a run uses.  Phase sweeps report
    the quadrature route only; the dual numerical vs closed-form
    verification is run_scenario's job.  Every value is validated before
    any row is computed, and each distinct geometry is evaluated once, so
    an n_R or n_L sweep evaluates one.  A row needs only A, so a helix or
    cone streams through geometry.cone_anholonomy in blocks, with the bits
    of the run's one-pass chain; a sampled path takes that chain.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError("sweep", f"unknown parameter {parameter!r}; known: {', '.join(SWEEP_PARAMETERS)}")
    values = list(values)
    if not values:
        raise ConfigError("sweep", "no values supplied")
    if parameter == "epsilon2":
        if config.medium is None:
            raise ConfigError("sweep", "epsilon2 sweep needs a medium block in the config")
        header = "n_plus_sq,n_minus_sq,plus_status,minus_status,plus_constant,minus_constant"
    else:
        if config.amplitudes is not None:
            raise ConfigError("sweep", "phase sweeps need an occupation-number state")
        header = "s3_expectation,anholonomy_integral,phi_closed"
    points = [_sweep_point(config, parameter, v) for v in values]

    anholonomy = {}  # A of each distinct swept geometry
    rows = []
    for value, swept in points:
        if parameter == "epsilon2":
            n_plus_sq, n_minus_sq, plus, minus = _dispersion(swept.medium)
            cells = (n_plus_sq, n_minus_sq, plus.status, minus.status)
            cells += (plus.propagation_constant, minus.propagation_constant)
        else:
            if swept.geometry not in anholonomy:
                cone = _analytic_cone(swept)
                anholonomy[swept.geometry] = (
                    cone_anholonomy(*cone) if cone is not None else float(_closed_form(swept)[2][-1])
                )
            a = anholonomy[swept.geometry]
            s3 = _s3_expectation(swept.ordering, swept.n_r, swept.n_l)
            cells = (s3, a, s3 * a)
        rows.append(",".join(map(_cell, (parameter, value, *cells))) + "\n")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.name}_sweep_{parameter}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"parameter,value,{header}\n")
        fh.writelines(rows)
    return 0, str(csv_path)
