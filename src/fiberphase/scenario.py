"""Declarative scenario runner: geometry + state + orderings to artifacts.

A scenario config names a fibre geometry, a photon state, an operator
ordering and the numerical budgets.  Running it produces a per-step CSV
(t, lambda, gamma, phi_closed, phi_total, phi_dyn, phi_geo, norm), a
JSON summary with the phase breakdown, guard metrics and a
machine-readable pass/fail block, and optional gyrotropic dispersion
verdicts.  Identical configs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .fock import FockSpace, build_photon_state, build_space, occupied_sectors, sector_size, StateVector
from .geometry import (
    ConeTrajectory,
    cone_anholonomy,
    cone_trajectory,
    count_path_rows,
    geodesic_closure,
    helix_cone,
    load_path_csv,
    motion_identity_residual,
    tangent_trajectory,
    wrap_angle,
    CLOSURE_TOL,
)
from .media import DispersionVerdict, GyrotropicMedium, classify
from .phases import CHUNK_BYTES, STEP_GUARD, PhaseBreakdown, StepGuardError, check_rk4_grid, evolve_state, phase_series

ORDERINGS = ("normal", "nonnormal_r", "nonnormal_l", "nonnormal_total")
SWEEP_PARAMETERS = ("lambda", "turns", "n_R", "n_L", "epsilon2")

NORM_DRIFT_TOL = 1e-9
INVARIANT_TOL = 1e-6
MOTION_TOL = 1e-6
DEFAULT_TOLERANCE = 1e-4
MIN_STEPS = 32

# Memory and work a run may need, checked before anything is allocated.  The
# coefficients come from tracemalloc peaks, with headroom: a basis state of
# the box _run_space builds costs 480 bytes, a trajectory sample 288, a stored
# state 16*d on the evolved block of dimension d, and the evolution's
# scratch 20 stacks of CHUNK_BYTES or of one d x d matrix.  The sample charge
# is a sampled path's: a one-photon run on an 8,193-row path peaks at 174
# bytes per row, its trajectory build at 132.  A helix or cone reads its
# samples by rows, so it overcharges them.  Building one RK4 step's matrix M
# costs about 6*d^3 flops: from 9 photons the cap binds first.
MEMORY_BUDGET_BYTES = 2 * 1024**3
_BYTES_PER_BASIS_STATE = 480
_BYTES_PER_SAMPLE = 288
_SCRATCH_STACKS = 20
MAX_RK4_FLOPS = 10**12
# Most photons n_max or a sweep value may give: a float holds n + 1/2 and n - 1.
_MAX_PHOTONS = 2**52 - 1
# Most turns a geometry may have.  |A| <= 4*pi*turns and phi_closed is A
# times up to 2**52 photons: both stay finite, where 2*pi*turns alone can
# overflow them.
MAX_TURNS = 1e290
# Relative headroom of the step count a step-guard refusal names.  On a
# helix or cone the bound measured at S steps, times S, gives the bound at
# any other count to within a few ulps per sample and 2**-52 per step of
# the unit grid: far below this for every count the memory budget admits,
# so a run at the count named passes the guard.
STEP_HINT_HEADROOM = 1e-6


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


def _run_space(config: ScenarioConfig) -> FockSpace:
    """The box a run builds: n_max's for amplitudes; for a number state, the smallest that holds its sector."""
    return build_space(3, config.n_max if config.amplitudes is not None else max(1, config.n_r + config.n_l))


def _block_dimension(config: ScenarioConfig) -> int:
    """Dimension d of the block evolve_state integrates: the photon-number sectors the initial state occupies."""
    space = _run_space(config)
    amplitudes = config.amplitudes
    sectors = [config.n_r + config.n_l] if amplitudes is None else occupied_sectors(StateVector(space, amplitudes))
    return sum(sector_size(space, n) for n in sectors)


def _check_run(field: str, config: ScenarioConfig, steps: int | None, what: str) -> None:
    """Refuse a run over MEMORY_BUDGET_BYTES, then over MAX_RK4_FLOPS; steps is None for an uncounted path.

    Memory names n_max if the box term is larger; either names the state for steps if MIN_STEPS is over the cap.
    """
    box = _BYTES_PER_BASIS_STATE * _run_space(config).dimension
    d = _block_dimension(config)
    rest = _SCRATCH_STACKS * max(CHUNK_BYTES, 8 * d * d)
    if steps is not None:
        rest += (2 * steps + 1) * _BYTES_PER_SAMPLE + (steps + 1) * 16 * d
    if field == "steps" and 6 * d**3 * MIN_STEPS > MAX_RK4_FLOPS:
        field = "state" if config.amplitudes is None else "state.amplitudes"
    estimate = box + rest
    if estimate > MEMORY_BUDGET_BYTES:
        # An estimate can exceed every float; log10 still prints its size.
        size = f"{estimate / 2**30:.3g} GiB" if estimate < 2**1000 else f"10^{math.log10(estimate):.0f} bytes"
        raise ConfigError(
            "n_max" if box >= rest else field,
            f"{what} needs an estimated {size}, over the {MEMORY_BUDGET_BYTES / 2**30:g} GiB memory budget",
        )
    flops = 6 * d**3 * (steps or 0)
    if flops > MAX_RK4_FLOPS:
        raise ConfigError(
            field,
            f"{what} on a block of dimension {d} needs an estimated {flops:.3g} flops, "
            f"over the {MAX_RK4_FLOPS:.3g} flop work cap",
        )


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
class MediumSpec(GyrotropicMedium):
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


def _get_number(mapping: dict, key: str, where: str | None) -> float:
    field = f"{where}.{key}" if where else key
    if key not in mapping:
        raise ConfigError(field, "missing required key")
    value = _finite(mapping[key])
    if value is None:
        raise ConfigError(field, f"expected a finite number, got {_show(mapping[key])}")
    return value


def _check_turns(turns: float, field: str, what: str) -> None:
    if not 0.0 < turns <= MAX_TURNS:
        raise ConfigError(field, f"{what} must lie in (0, {MAX_TURNS:g}]")


def _get_int(mapping: dict, key: str, where: str | None) -> int:
    field = f"{where}.{key}" if where else key
    if key not in mapping:
        raise ConfigError(field, "missing required key")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {_show(value)}")
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
    _check_keys(data, {f.name for f in fields(MediumSpec)}, "medium")
    material = [_get_number(data, f.name, "medium") for f in fields(GyrotropicMedium)]
    omega = _get_number(data, "omega", "medium") if "omega" in data else 1.0
    if omega <= 0:
        raise ConfigError("medium.omega", "must be positive")
    medium = MediumSpec(*material, omega)
    _dispersion(medium)
    return medium


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

    n_max = _get_int(data, "n_max", None) if "n_max" in data else 2
    if not 1 <= n_max <= _MAX_PHOTONS:
        raise ConfigError("n_max", f"must be an integer from 1 to 2**52 - 1, got {_show(n_max)}")

    steps = None
    if isinstance(geometry, SampledGeometry):
        if "steps" in data:
            raise ConfigError("steps", "derived from the sampled path file; do not set it")
    else:
        steps = _get_int(data, "steps", None) if "steps" in data else 4096
        if steps < MIN_STEPS:
            raise ConfigError("steps", f"must be >= {MIN_STEPS}, got {_show(steps)}")

    if amplitudes is not None:
        dimension = FockSpace(3, n_max).dimension
        if len(amplitudes) != dimension:
            raise ConfigError(
                "state.amplitudes",
                f"expected {dimension} amplitudes for n_max = {n_max}, got {len(amplitudes)}",
            )
        norm = float(np.linalg.norm(np.array(amplitudes, dtype=complex)))
        if abs(norm - 1.0) > 1e-6:
            raise ConfigError("state.amplitudes", f"state norm {norm!r} is not 1 within 1e-6")

    t_end = _get_number(data, "t_end", None) if "t_end" in data else 1.0
    if not 0.0 < t_end <= 1.0:
        raise ConfigError("t_end", "must lie in (0, 1]")
    if isinstance(geometry, SampledGeometry) and t_end != 1.0:
        raise ConfigError("t_end", "not supported with sampled geometry")
    # A trajectory traces turns * t_end turns, which may underflow to none.
    if not isinstance(geometry, SampledGeometry) and geometry.turns * t_end == 0.0:
        raise ConfigError("t_end", "turns * t_end rounds to 0")

    tolerance = _get_number(data, "tolerance", None) if "tolerance" in data else DEFAULT_TOLERANCE
    if tolerance <= 0:
        raise ConfigError("tolerance", "must be positive")

    medium = _parse_medium(data["medium"]) if "medium" in data else None

    if n_r is not None and n_r + n_l > n_max:
        raise ConfigError(
            "state",
            f"cutoff overflow: n_r + n_l = {_show(n_r + n_l)} photons need n_max >= {_show(n_r + n_l)}",
        )

    config = ScenarioConfig(
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
    _check_run("steps", config, steps, f"n_max = {_show(n_max)} with steps = {_show(steps)}")
    return config


def _config_echo(config: ScenarioConfig) -> dict:
    g = config.geometry
    if isinstance(g, SampledGeometry):
        geometry = {"kind": "sampled", "path_csv": Path(g.path_csv).name}
    else:
        geometry = {"kind": "helix" if isinstance(g, HelixGeometry) else "cone", **asdict(g)}
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
        echo["medium"] = asdict(config.medium)
    return echo


def _analytic_cone(
    g: HelixGeometry | ConeGeometry | SampledGeometry, config: ScenarioConfig
) -> tuple[float, float, int, float] | None:
    """cone_trajectory's (polar angle, turns, samples, azimuth offset) of geometry g at config's t_end and
    steps; None for a sampled path."""
    if isinstance(g, HelixGeometry):
        polar, offset = helix_cone(g.radius, g.pitch_per_turn)
    elif isinstance(g, ConeGeometry):
        polar, offset = g.polar_angle, 0.0
    else:
        return None
    return polar, g.turns * config.t_end, 2 * config.steps + 1, offset


def _build_trajectory(config: ScenarioConfig):
    cone = _analytic_cone(config.geometry, config)
    if cone is not None:
        return cone_trajectory(*cone)
    g = config.geometry
    try:
        rows = count_path_rows(g.path_csv)
    except (ValueError, OSError) as exc:
        raise ConfigError("geometry.path_csv", str(exc)) from None
    _check_run("geometry.path_csv", config, (rows - 1) // 2, f"a path of {rows} rows")
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


def _dispersion(m: MediumSpec, field: str = "medium") -> tuple[float, float, DispersionVerdict, DispersionVerdict]:
    """(n_plus^2, n_minus^2, plus verdict, minus verdict) of a medium block, refused as field if any overflows."""
    try:
        plus, minus = classify(m, m.omega)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None
    return plus.n_squared, minus.n_squared, plus, minus


def _step_refusal(config: ScenarioConfig, bound: float) -> ConfigError:
    """Field steps error for a helix or cone whose grid evolve_state refused, naming a step count that passes.

    On the unit grid of a cone |u| and the step are constant up to
    rounding, so the measured bound scales as 1/steps.
    """
    steps = math.floor(config.steps * bound / STEP_GUARD * (1.0 + STEP_HINT_HEADROOM)) + 1
    _check_run("steps", config, steps, f"passing the step-size guard with steps = {steps}")
    return ConfigError(
        "steps",
        f"step-size guard: bound max|H|*dt = {bound:.3e} >= {STEP_GUARD} with steps = {config.steps}; "
        f"passes with steps >= {steps}",
    )


def _check(name: str, value: float, threshold: float) -> dict:
    return {"name": name, "value": value, "threshold": threshold, "pass": bool(value <= threshold)}


def evaluate_scenario(config: ScenarioConfig) -> dict:
    """Run one scenario in memory and return its summary mapping."""
    traj = _build_trajectory(config)
    cone = isinstance(traj, ConeTrajectory)
    # On the unit grid of a cone, A accrues at a constant rate and times[-1] is 1.0.
    running = cone_anholonomy(traj.polar_angle, traj.turns) * traj.times[::2] if cone else traj.running_anholonomy()
    anholonomy = float(running[-1])

    k0, k_last = traj.rows(0, len(traj.times), len(traj.times) - 1).unit_tangents
    closure_gap = float(np.linalg.norm(k_last - k0))
    closed = closure_gap < CLOSURE_TOL
    closure = geodesic_closure(k0, k_last)
    psi0 = _initial_state(config, _run_space(config), k0)

    try:
        result = evolve_state(psi0, traj)
    except StepGuardError as exc:
        if cone:
            raise _step_refusal(config, exc.bound) from None
        # A sampled path's grid is its CSV's rows: the file is what refines it.
        raise ConfigError("geometry.path_csv", str(exc)) from None
    if config.amplitudes is None:
        s3_attr = _s3_expectation(config.ordering, config.n_r, config.n_l)
        s3_total = _s3_expectation("normal", config.n_r, config.n_l)
    else:
        s3_total = s3_attr = float(result.invariants[0])  # psi0's helicity <k0.S>
    # Taken with the step guard's max|u| in one pass; in 1/time, so read over the grid span.
    motion = motion_identity_residual(traj) * float(traj.times[-1] - traj.times[0])
    # <khat.S> is conserved where the spin algebra closes: on complete sectors, N <= n_max.  A number
    # state's box is its own sector's, which parse_config holds within n_max.
    complete = result.sectors[-1] <= config.n_max
    drift = float(np.abs(result.invariants - result.invariants[0]).max()) if complete else None
    series = phase_series(result)
    breakdown = PhaseBreakdown.from_series(series, s3_attr, anholonomy)

    phi_closed_total = s3_total * anholonomy
    difference = abs(wrap_angle(breakdown.geometric_phase - s3_total * (anholonomy + closure)))
    norm_drift = float(np.abs(result.norms - 1.0).max())

    checks = [
        _check("numerical_vs_closed_form", difference, config.tolerance),
        _check("norm_drift", norm_drift, NORM_DRIFT_TOL),
    ]
    if complete:
        checks.append(_check("invariant_drift", drift, INVARIANT_TOL))
    checks.append(_check("motion_identity", motion, MOTION_TOL))
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
            "sectors": result.sectors,
            "sector_dimension": len(result.keep),
            "total_phase": breakdown.total_phase,
            "dynamical_phase": breakdown.dynamical_phase,
            "geometric_phase": breakdown.geometric_phase,
            "geometric_phase_mod_2pi": breakdown.geometric_phase_mod_2pi,
            "difference_vs_closed_total": difference,
            "norm_drift": norm_drift,
            "invariant_drift": drift,
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
            "verdicts": [asdict(plus), asdict(minus)],
        }

    # The run CSV's columns, in its order.
    summary["_series"] = (result.times, result.lam, result.gamma, s3_attr * running, series["total"],
                          series["dynamical"], series["geometric"], result.norms)
    return summary


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_json(payload: dict, path: Path) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


@dataclass(frozen=True)
class RunOutcome:
    exit_code: int
    summary: dict
    files: tuple[str, ...]


def _out_error(exc: OSError) -> ConfigError:
    """An output directory that cannot be made or an artifact that cannot be written, as field out."""
    return ConfigError("out", f"cannot write the output: {exc}")


def run_scenario(config: ScenarioConfig, out_dir) -> RunOutcome:
    """Evaluate a scenario and write its CSV and JSON artifacts."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _out_error(exc) from None
    summary = evaluate_scenario(config)
    csv_path = out_dir / f"{config.name}.csv"
    json_path = out_dir / f"{config.name}.json"
    public = {k: v for k, v in summary.items() if not k.startswith("_")}
    # Imported here: a sweep never loads the writer, and a run compiles it only after the evaluation, whose
    # arrays set a run's peak memory.
    from .runcsv import write_run_csv

    try:
        write_run_csv(summary, csv_path)
        _write_json(public, json_path)
    except OSError as exc:
        raise _out_error(exc) from None
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
        try:
            _write_json(group, out_dir / f"{name}.json")
        except OSError as exc:
            raise _out_error(exc) from None
    return code


def _sweep_float(parameter: str, value) -> float:
    x = _finite(value)
    if x is None:
        raise ConfigError("sweep", f"{parameter} value {_show(value)} is not a finite number")
    return x


def _sweep_point(config: ScenarioConfig, parameter: str, value) -> tuple[int | float, tuple]:
    """(value as its row shows it, what its row reads), with that value swept into the template.

    An epsilon2 row reads the medium's _dispersion tuple; a phase row
    reads (geometry, n_r, n_l).
    """
    if parameter in ("n_R", "n_L"):
        if not _sweep_float(parameter, value).is_integer() or not 0 <= int(value) <= _MAX_PHOTONS:
            raise ConfigError("sweep", f"{parameter} value {_show(value)} must be an integer from 0 to 2**52 - 1")
        n = int(value)
        return n, (config.geometry, n, config.n_l) if parameter == "n_R" else (config.geometry, config.n_r, n)
    x = _sweep_float(parameter, value)
    if parameter == "epsilon2":
        return x, _dispersion(replace(config.medium, epsilon2=x), "sweep")
    if parameter == "lambda" and not 0.0 <= x <= math.pi:
        raise ConfigError("sweep", f"lambda value {x!r} outside [0, pi]")
    if parameter == "turns":
        _check_turns(x, "sweep", f"turns value {x!r}")
        if x * config.t_end == 0.0:
            raise ConfigError("sweep", f"turns value {x!r} times t_end rounds to 0")
    g = config.geometry
    if isinstance(g, SampledGeometry):
        raise ConfigError("sweep", "lambda/turns sweeps need helix or cone geometry")
    if parameter == "lambda":
        return x, (ConeGeometry(x, g.turns), config.n_r, config.n_l)
    # The template's own geometry, so a helix row is the helix run's A.
    return x, (replace(g, turns=x), config.n_r, config.n_l)


def _cell(x) -> str:
    return x if isinstance(x, str) else str(x) if isinstance(x, int) else _fmt(x)


def sweep(config: ScenarioConfig, parameter: str, values, out_dir) -> tuple[int, str]:
    """Write one closed-form (or dispersion) table row per parameter value.

    Each row evaluates the template config with that one value swept in,
    by the closed-form and dispersion code a run uses.  Phase sweeps report
    the closed-form route only; the dual numerical vs closed-form
    verification is run_scenario's job.  Every value is validated before
    any row is computed, into what its row reads (_sweep_point): the
    swept geometry and photon numbers, or the medium's dispersion tuple,
    so an epsilon2 value is classified once and no value rebuilds the
    template config.  Each distinct geometry is evaluated once, so an
    n_R or n_L sweep evaluates one.  A row needs only A: a helix or
    cone takes the closed form geometry.cone_anholonomy, whatever its
    steps, with the bits of the run's A; a sampled path takes the run's
    quadrature.
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
    for value, reads in points:
        if parameter == "epsilon2":
            n_plus_sq, n_minus_sq, plus, minus = reads
            cells = (n_plus_sq, n_minus_sq, plus.status, minus.status)
            cells += (plus.propagation_constant, minus.propagation_constant)
        else:
            geometry, n_r, n_l = reads
            if geometry not in anholonomy:
                cone = _analytic_cone(geometry, config)
                # Only an n_R or n_L sweep takes a sampled path: the template's own.
                anholonomy[geometry] = (
                    cone_anholonomy(*cone[:2])
                    if cone is not None
                    else float(_build_trajectory(config).running_anholonomy()[-1])
                )
            a = anholonomy[geometry]
            s3 = _s3_expectation(config.ordering, n_r, n_l)
            cells = (s3, a, s3 * a)
        rows.append(",".join(map(_cell, (parameter, value, *cells))) + "\n")
    out_dir = Path(out_dir)
    csv_path = out_dir / f"{config.name}_sweep_{parameter}.csv"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"parameter,value,{header}\n")
            fh.writelines(rows)
    except OSError as exc:
        raise _out_error(exc) from None
    return 0, str(csv_path)
