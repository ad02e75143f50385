"""Seeded inputs for the three benchmark workloads.

``generate(workload, seed, inputs_dir)`` writes every config JSON and path
CSV the workload needs and returns its plan: one entry per ``cli.main``
call, with the argument list (less ``--out``), what the run should
produce, and the sizes it works at.  The program sees only these files.

Each workload has a fixed cost shape: the geometry kind, ``n_max`` and
``steps`` of every slot are constants below.  The seed draws every
physical value (polar angle, turns, handedness, ordering, end time,
rotation of sampled paths, medium, sweep values), so runs with different
seeds do the same amount of work, in the same order, on different inputs,
and their spread measures the program, not the draw.

Every input respects the program's two documented refusals, which are not
defects: lambda stays at or below 1.3, away from the 1e-6 overlap floor
near pi/2, and the RK4 step guard holds.  The guard bounds the spectral
radius of u.S over the whole truncated box, which stays below
2*n_max*|u|, so the generator keeps 2*n_max*|u|*dt < 0.1; since N <= n_max
this also gives N*2*pi*turns*sin(lambda)/steps < 0.1.  The program also
checks RK4 norm drift against 1e-9, which N*|u|*dt = 0.039 (N = 4, two
turns, 1024 steps) already exceeds; the generator keeps N*|u|*dt below
DRIFT_BUDGET, a step budget that fits the input rather than a defect.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from gate import geodesic_closed_solid_angle, open_anholonomy, wrapped_gap

TWO_PI = 2.0 * math.pi
ORDERINGS = ("normal", "nonnormal_r", "nonnormal_l", "nonnormal_total")
LAMBDA_RANGE = (0.15, 1.3)
STEP_GUARD = 0.1
DRIFT_BUDGET = 0.025
TOLERANCE = 1e-4
# A non-cyclic member's closure term must exceed this many tolerances, so
# that each one exercises the Samuel-Bhandari closure rather than sitting
# within tolerance of the open-path value.
CLOSURE_MARGIN = 20.0
# Sampled tangent circles stay this far (rad) from both poles, where the
# azimuth rate the closed form integrates is singular.
POLE_MARGIN = 0.3

WORKLOADS = ("single-photon", "multiphoton", "closed-form-sweep")

# Built-in scenarios as the benchmark knows them: members, geometry and state.
_LAMBDA_60 = math.pi / 3.0
_GYRO_MEDIUM = {"epsilon1": -1.0, "epsilon2": 2.0, "epsilon3": 1.0, "mu": 1.0, "omega": 1.0}
BUILTINS = {
    "chiao-helix-45": {
        "kind": "helix", "n_max": 2, "steps": 8192,
        "members": [("chiao-helix-45", 1, 0, "normal", math.pi / 4.0, None)],
    },
    "gyro-appendix": {
        "kind": "cone", "n_max": 2, "steps": 2048,
        "members": [("gyro-appendix", 1, 0, "normal", math.pi / 4.0, _GYRO_MEDIUM)],
    },
    "multiphoton-21": {
        "kind": "helix", "n_max": 3, "steps": 4096,
        "members": [("multiphoton-21", 2, 1, "normal", _LAMBDA_60, None)],
    },
    "vacuum-pair": {
        "kind": "helix", "n_max": 2, "steps": 2048, "group": "vacuum-pair",
        "members": [
            ("vacuum-pair-right", 0, 0, "nonnormal_r", _LAMBDA_60, None),
            ("vacuum-pair-left", 0, 0, "nonnormal_l", _LAMBDA_60, None),
        ],
    },
}

# Cost shape of each workload.  Scenario slots: (kind, n_max, steps, photons,
# cyclic, medium); photons is None for "one photon, seeded handedness".
# Each mix makes an odd number of calls, so the pooled median of per-call
# times falls inside one cost group instead of between two.
SINGLE_PHOTON = {
    "builtins": [("chiao-helix-45", None, None), ("gyro-appendix", None, None)],
    "slots": [
        ("helix", 1, 2048, None, True, False),
        ("cone", 2, 2048, None, True, True),
        ("sampled", 2, 4096, None, True, False),
        ("sampled", 1, 2048, None, True, False),
        ("helix", 2, 4096, None, False, False),
        ("cone", 1, 8192, None, False, True),
        ("cone", 2, 2048, None, False, False),
    ],
}
MULTIPHOTON = {
    "builtins": [("multiphoton-21", None, None), ("vacuum-pair", None, None), ("multiphoton-21", 4, 1024)],
    "slots": [
        ("helix", 1, 2048, (0, "nonnormal_r"), True, False),
        ("cone", 3, 1024, (0, "nonnormal_l"), True, False),
        ("cone", 2, 2048, (1, None), True, False),
        ("helix", 3, 1024, (2, None), True, False),
        ("cone", 4, 1024, (3, None), True, False),
        ("helix", 5, 1024, (4, None), True, False),
    ],
}
# Sweep slots: (param, base kind, steps, number of values, n_r + n_l).  The
# trajectory sweeps cost about 2, 3, 5, 8, 10, 12 and 16 units of 8192-step
# values, apart enough that the pooled median and tail fall inside one slot.
SWEEPS = [
    ("lambda", "cone", 16384, 8, 1),
    ("lambda", "helix", 8192, 5, 3),
    ("turns", "cone", 8192, 2, 2),
    ("turns", "helix", 16384, 4, 1),
    ("n_R", "helix", 8192, 3, 1),
    ("n_L", "cone", 16384, 5, 2),
    ("epsilon2", "cone", 8192, 10, 1),
]
BUILTIN_SWEEPS = [("chiao-helix-45", "lambda", 12), ("gyro-appendix", "epsilon2", 10)]


def _relative(path: Path) -> str:
    """Path as the child process sees it: it runs in the inputs directory's parent."""
    return f"{path.parent.name}/{path.name}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _member(label, n_r, n_l, ordering, lam, sweep, cyclic, medium=None) -> dict:
    return {
        "label": label, "n_r": n_r, "n_l": n_l, "ordering": ordering, "lambda": lam,
        "sweep": sweep, "cyclic": cyclic, "tolerance": TOLERANCE, "medium": medium,
    }


def _record(label, kind, photons, n_max, steps, dim=True) -> dict:
    return {
        "label": label, "kind": kind, "N": photons, "n_max": n_max,
        "dim": (n_max + 1) ** 3 if dim else None, "steps": steps,
    }


def _builtin_entry(name: str, n_max, steps) -> dict:
    spec = BUILTINS[name]
    n_max = n_max or spec["n_max"]
    steps = steps or spec["steps"]
    argv = ["--scenario", name]
    label = name
    if n_max != spec["n_max"]:
        argv += ["--nmax", str(n_max)]
        label += f"@nmax{n_max}"
    if steps != spec["steps"]:
        argv += ["--steps", str(steps)]
        label += f"@steps{steps}"
    members = [_member(m, r, l, o, lam, TWO_PI, True, med) for m, r, l, o, lam, med in spec["members"]]
    photons = spec["members"][0][1] + spec["members"][0][2]
    return {
        "argv": argv,
        "record": _record(label, spec["kind"], photons, n_max, steps),
        "expect": {"kind": "scenario", "members": members, "group": spec.get("group")},
    }


def _medium(rng: random.Random) -> dict:
    while True:
        m = {
            "epsilon1": round(rng.uniform(-2.0, 2.0), 6),
            "epsilon2": round(rng.uniform(-3.0, 3.0), 6),
            "epsilon3": round(rng.uniform(0.5, 2.0), 6),
            "mu": round(rng.uniform(0.5, 2.0), 6),
            "omega": round(rng.uniform(0.5, 2.0), 6),
        }
        if min(abs(m["epsilon1"] + m["epsilon2"]), abs(m["epsilon1"] - m["epsilon2"])) >= 0.1:
            return m


def _geometry(kind: str, lam: float, turns: float) -> dict:
    if kind == "cone":
        return {"kind": "cone", "polar_angle": lam, "turns": turns}
    return {"kind": "helix", "radius": 1.0, "pitch_per_turn": TWO_PI / math.tan(lam), "turns": turns}


def _rotation(rng: random.Random) -> np.ndarray:
    """Uniform random rotation from a normalised quaternion."""
    q = np.array([rng.gauss(0.0, 1.0) for _ in range(4)])
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _write_sampled_path(path: Path, rng: random.Random, lam: float, turns: int, steps: int) -> None:
    """Exact helix points under a seeded rigid rotation, 2*steps + 1 rows."""
    while True:
        rot = _rotation(rng)
        tilt = math.acos(max(-1.0, min(1.0, rot[2, 2])))
        if min(abs(tilt - lam), abs(math.pi - tilt - lam)) >= POLE_MARGIN:
            break
    t = np.linspace(0.0, 1.0, 2 * steps + 1)
    theta = TWO_PI * turns * t
    pitch = TWO_PI / math.tan(lam)
    points = np.column_stack([np.cos(theta), np.sin(theta), pitch / TWO_PI * theta]) @ rot.T
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,y,z\n")
        for ti, (x, y, z) in zip(t.tolist(), points.tolist()):
            fh.write(f"{ti:.17g},{x:.17g},{y:.17g},{z:.17g}\n")


def _budget_ok(photons: int, n_max: int, lam: float, turns_eff: float, steps: int) -> bool:
    field_dt = TWO_PI * turns_eff * math.sin(lam) / steps  # |u| * dt
    return 2 * n_max * field_dt < STEP_GUARD and photons * field_dt < DRIFT_BUDGET


def _photon_state(rng: random.Random, photons: int) -> tuple[int, int]:
    n_r = rng.randint(0, photons)
    return n_r, photons - n_r


def _scenario_entry(rng, inputs_dir: Path, index: int, slot, handedness: int) -> dict:
    kind, n_max, steps, photons, cyclic, with_medium = slot
    if photons is None:
        n_r, n_l = (1, 0) if handedness else (0, 1)
        ordering = rng.choice(ORDERINGS if kind != "sampled" else ("normal", "nonnormal_total"))
    else:
        count, ordering = photons
        n_r, n_l = _photon_state(rng, count)
        ordering = ordering or rng.choice(ORDERINGS)
    label = f"{kind}-{index:02d}"
    while True:
        lam = round(rng.uniform(*LAMBDA_RANGE), 6)
        t_end = 1.0
        if cyclic:
            turns = float(rng.choice((1, 2)))
        elif kind == "helix":
            turns = round(rng.choice((0, 1)) + rng.uniform(0.2, 0.8), 6)
        else:
            turns = float(rng.choice((1, 2)))
            t_end = round(rng.uniform(0.3, 0.8), 6)
        turns_eff = turns * t_end
        if not cyclic:
            frac = turns_eff % 1.0
            sweep = TWO_PI * turns_eff
            closure = wrapped_gap(geodesic_closed_solid_angle(lam, sweep), open_anholonomy(lam, sweep))
            if not 0.15 <= frac <= 0.85 or closure < CLOSURE_MARGIN * TOLERANCE:
                continue
        if _budget_ok(n_r + n_l, n_max, lam, turns_eff, steps):
            break
    config = {"state": {"n_r": n_r, "n_l": n_l}, "ordering": ordering, "n_max": n_max, "tolerance": TOLERANCE}
    if kind == "sampled":
        csv_name = f"{label}.path.csv"
        _write_sampled_path(inputs_dir / csv_name, rng, lam, int(turns), steps)
        config["geometry"] = {"kind": "sampled", "path_csv": csv_name}
    else:
        config["geometry"] = _geometry(kind, lam, turns)
        config["steps"] = steps
        if t_end != 1.0:
            config["t_end"] = t_end
    medium = _medium(rng) if with_medium else None
    if medium:
        config["medium"] = medium
    config_path = inputs_dir / f"{label}.json"
    _write_json(config_path, config)
    member = _member(label, n_r, n_l, ordering, lam, TWO_PI * turns_eff, cyclic, medium)
    return {
        "argv": ["--config", _relative(config_path)],
        "record": _record(label, kind, n_r + n_l, n_max, steps),
        "expect": {"kind": "scenario", "members": [member], "group": None},
    }


def _sweep_values(rng: random.Random, param: str, count: int, medium: dict | None) -> list:
    if param == "lambda":
        return sorted(round(rng.uniform(0.05, 3.0), 6) for _ in range(count))
    if param == "turns":
        return sorted(round(rng.uniform(0.25, 3.0), 6) for _ in range(count))
    if param in ("n_R", "n_L"):
        return sorted(rng.sample(range(0, 7), count))
    values = []
    while len(values) < count:
        v = round(rng.uniform(-4.0, 4.0), 6)
        if min(abs(medium["epsilon1"] + v), abs(medium["epsilon1"] - v)) >= 0.05:
            values.append(v)
    return values


def _format_values(values: list) -> str:
    return ",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in values)


def _sweep_entry(rng, inputs_dir: Path, index: int, slot) -> dict:
    param, kind, steps, count, photons = slot
    n_r, n_l = _photon_state(rng, photons)
    ordering = rng.choice(ORDERINGS)
    lam = round(rng.uniform(*LAMBDA_RANGE), 6)
    turns = float(rng.choice((1, 2, 3)))
    t_end = rng.choice((1.0, 0.5))
    name = f"sweep-{index:02d}"
    config = {
        "geometry": _geometry(kind, lam, turns),
        "state": {"n_r": n_r, "n_l": n_l},
        "ordering": ordering,
        "n_max": max(photons, 1),
        "steps": steps,
        "tolerance": TOLERANCE,
    }
    if t_end != 1.0:
        config["t_end"] = t_end
    medium = _medium(rng) if param == "epsilon2" else None
    if medium:
        config["medium"] = medium
    values = _sweep_values(rng, param, count, medium)
    config_path = inputs_dir / f"{name}.json"
    _write_json(config_path, config)
    return {
        "argv": ["--config", _relative(config_path), "--sweep", f"{param}={_format_values(values)}"],
        "record": _record(f"{name}:{param}", kind, photons, config["n_max"], steps, dim=False),
        "expect": {
            "kind": "sweep", "name": name, "param": param, "values": values, "n_r": n_r, "n_l": n_l,
            "ordering": ordering, "lambda": lam, "turns": turns, "t_end": t_end, "medium": medium,
        },
    }


def _builtin_sweep_entry(rng, name: str, param: str, count: int) -> dict:
    spec = BUILTINS[name]
    label, n_r, n_l, ordering, lam, medium = spec["members"][0]
    values = _sweep_values(rng, param, count, medium)
    return {
        "argv": ["--scenario", name, "--sweep", f"{param}={_format_values(values)}"],
        "record": _record(f"{name}:{param}", spec["kind"], n_r + n_l, spec["n_max"], spec["steps"], dim=False),
        "expect": {
            "kind": "sweep", "name": label, "param": param, "values": values, "n_r": n_r, "n_l": n_l,
            "ordering": ordering, "lambda": lam, "turns": 1.0, "t_end": 1.0, "medium": medium,
        },
    }


def generate(workload: str, seed: int, inputs_dir: Path) -> list[dict]:
    """Write the workload's inputs under inputs_dir and return its run plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload == "closed-form-sweep":
        plan = [_sweep_entry(rng, inputs_dir, i, slot) for i, slot in enumerate(SWEEPS)]
        plan += [_builtin_sweep_entry(rng, *slot) for slot in BUILTIN_SWEEPS]
    else:
        mix = SINGLE_PHOTON if workload == "single-photon" else MULTIPHOTON
        first_hand = rng.randint(0, 1)
        plan = [_builtin_entry(*b) for b in mix["builtins"]]
        plan += [
            _scenario_entry(rng, inputs_dir, i, slot, (first_hand + i) % 2)
            for i, slot in enumerate(mix["slots"])
        ]
    for i, entry in enumerate(plan):
        entry["id"] = f"run{i:02d}"
    return plan
