"""Correctness gate: the benchmark's own references for every run it makes.

Nothing here imports fiberphase.  References come from the physics:

* cyclic runs: the Berry value s3 * 2*pi*turns*(1 - cos lambda)
  (Tomita & Chiao, PRL 57, 937 (1986));
* non-cyclic runs: s3 times the solid angle of the traced arc closed by
  the shorter geodesic back to its start (Samuel & Bhandari, PRL 60,
  2339 (1988));
* sweep rows: the same closed forms per row, and the sign of
  mu*(epsilon1 +/- epsilon2) for dispersion verdicts.

A run fails on a non-zero exit code, a missing artifact, an artifact that
is not strict JSON, or a value that misses its reference.  Failures are
split in two: ``wrong`` lists outputs whose numbers are wrong, ``reasons``
lists every failure including exits and missing files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
SWEEP_TOL = 1e-9
MEDIUM_RTOL = 1e-12
GEODESIC_SAMPLES = 200_001


def s3_for(ordering: str, n_r: int, n_l: int) -> float:
    """Spin-3 expectation attributed by an operator ordering."""
    if ordering in ("normal", "nonnormal_total"):
        return float(n_r - n_l)
    if ordering == "nonnormal_r":
        return n_r + 0.5
    if ordering == "nonnormal_l":
        return -(n_l + 0.5)
    raise ValueError(f"unknown ordering {ordering!r}")


def wrapped_gap(a: float, b: float) -> float:
    """|a - b| reduced modulo 2*pi into [0, pi]."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def open_anholonomy(lam: float, sweep: float) -> float:
    """Integral of gamma_dot*(1 - cos lambda) along a latitude arc of azimuth span sweep."""
    return sweep * (1.0 - math.cos(lam))


def geodesic_closed_solid_angle(lam: float, sweep: float) -> float:
    """Solid angle of a latitude arc closed by the shorter great circle to its start.

    The arc runs at polar angle lam from azimuth 0 to sweep; the closing
    geodesic's share of the loop integral of (1 - cos lambda) d gamma is
    summed with the trapezoid rule on GEODESIC_SAMPLES points.
    """
    sl, cl = math.sin(lam), math.cos(lam)
    k0 = np.array([sl, 0.0, cl])
    k1 = np.array([sl * math.cos(sweep), sl * math.sin(sweep), cl])
    angle = math.acos(min(1.0, max(-1.0, float(k0 @ k1))))
    closing = 0.0
    if angle > 1e-12:
        s = np.linspace(0.0, 1.0, GEODESIC_SAMPLES)[:, None]
        path = (np.sin((1.0 - s) * angle) * k1 + np.sin(s * angle) * k0) / math.sin(angle)
        gamma = np.unwrap(np.arctan2(path[:, 1], path[:, 0]))
        weight = 1.0 - path[:, 2]
        closing = float(np.sum(0.5 * (weight[1:] + weight[:-1]) * np.diff(gamma)))
    return open_anholonomy(lam, sweep) + closing


def strict_json(text: str):
    """Parse JSON, refusing NaN and +/-Infinity."""

    def refuse(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


class Verdict:
    """Outcome of gating one run."""

    def __init__(self):
        self.reasons: list[str] = []
        self.wrong: list[str] = []

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.reasons.append(reason)
        if wrong:
            self.wrong.append(reason)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


def _read_json(path: Path, verdict: Verdict):
    if not path.is_file():
        verdict.fail(f"missing artifact {path.name}")
        return None
    try:
        return strict_json(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        verdict.fail(f"{path.name}: {exc}", wrong=True)
        return None


def _close(value, reference: float, rtol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - reference) <= rtol * max(1.0, abs(reference))


def _check_medium(summary: dict, medium: dict, verdict: Verdict, where: str) -> None:
    block = summary.get("medium")
    if not isinstance(block, dict):
        verdict.fail(f"{where}: medium block missing", wrong=True)
        return
    _check_dispersion(
        medium["epsilon1"], medium["epsilon2"], medium["mu"], medium["omega"],
        (block.get("n_plus_sq"), block.get("n_minus_sq")),
        [(v.get("status"), v.get("propagation_constant")) for v in block.get("verdicts", [])],
        verdict, where,
    )


def _check_dispersion(eps1, eps2, mu, omega, n_sq, branches, verdict: Verdict, where: str) -> None:
    expected = (mu * (eps1 + eps2), mu * (eps1 - eps2))
    if len(branches) != 2:
        verdict.fail(f"{where}: expected two dispersion branches", wrong=True)
        return
    for label, ref, got, (status, constant) in zip(("plus", "minus"), expected, n_sq, branches):
        want_status = "propagating" if ref > 0 else "evanescent"
        if not _close(got, ref, MEDIUM_RTOL) or status != want_status:
            verdict.fail(f"{where}: {label} branch {got}/{status}, expected {ref}/{want_status}", wrong=True)
        elif not _close(constant, math.sqrt(abs(ref)) * omega, MEDIUM_RTOL):
            verdict.fail(f"{where}: {label} propagation constant {constant}", wrong=True)


def _check_member(out_dir: Path, member: dict, verdict: Verdict) -> None:
    """Gate one scenario's <label>.json and <label>.csv."""
    label = member["label"]
    if not (out_dir / f"{label}.csv").is_file():
        verdict.fail(f"missing artifact {label}.csv")
    summary = _read_json(out_dir / f"{label}.json", verdict)
    if summary is None:
        return
    if summary.get("status") != "pass":
        failing = [
            f"{c.get('name')} {c.get('value')} > {c.get('threshold')}"
            for c in summary.get("checks", []) if not c.get("pass")
        ]
        verdict.fail(f"{label}: status {summary.get('status')!r}, failing checks: {', '.join(failing)}")
    n_r, n_l, lam, sweep, tol = member["n_r"], member["n_l"], member["lambda"], member["sweep"], member["tolerance"]
    anholonomy = open_anholonomy(lam, sweep)
    if member["cyclic"]:
        reference = (n_r - n_l) * anholonomy
    else:
        reference = (n_r - n_l) * geodesic_closed_solid_angle(lam, sweep)
    numerical = summary.get("numerical", {}).get("geometric_phase")
    if not isinstance(numerical, (int, float)) or wrapped_gap(numerical, reference) > tol:
        verdict.fail(f"{label}: numerical geometric phase {numerical} vs reference {reference:.12g}", wrong=True)
    if member["cyclic"]:
        attributed = summary.get("closed_form", {}).get("phi_attributed")
        want = s3_for(member["ordering"], n_r, n_l) * anholonomy
        if not isinstance(attributed, (int, float)) or wrapped_gap(attributed, want) > tol:
            verdict.fail(f"{label}: closed-form phi_attributed {attributed} vs Berry value {want:.12g}", wrong=True)
    if member.get("medium"):
        _check_medium(summary, member["medium"], verdict, label)


def _sweep_reference(expect: dict, value) -> tuple[float, float]:
    """(s3, phi_closed) for one sweep row."""
    n_r, n_l, lam, turns, t_end = expect["n_r"], expect["n_l"], expect["lambda"], expect["turns"], expect["t_end"]
    param = expect["param"]
    if param == "lambda":
        lam = value
    elif param == "turns":
        turns = value
    elif param == "n_R":
        n_r = value
    elif param == "n_L":
        n_l = value
    s3 = s3_for(expect["ordering"], n_r, n_l)
    return s3, s3 * open_anholonomy(lam, TWO_PI * turns * t_end)


def _check_sweep(out_dir: Path, expect: dict, verdict: Verdict) -> None:
    param, values = expect["param"], expect["values"]
    path = out_dir / f"{expect['name']}_sweep_{param}.csv"
    if not path.is_file():
        verdict.fail(f"missing artifact {path.name}")
        return
    rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
    if len(rows) != len(values):
        verdict.fail(f"{path.name}: {len(rows)} rows for {len(values)} values", wrong=True)
        return
    for i, (row, value) in enumerate(zip(rows, values)):
        where = f"{path.name} row {i + 1}"
        try:
            got_value = float(row["value"])
            if row["parameter"] != param or got_value != value:
                verdict.fail(f"{where}: parameter {row['parameter']}={row['value']}, expected {param}={value}", wrong=True)
                continue
            if param == "epsilon2":
                m = expect["medium"]
                _check_dispersion(
                    m["epsilon1"], value, m["mu"], m["omega"],
                    (float(row["n_plus_sq"]), float(row["n_minus_sq"])),
                    [(row["plus_status"], float(row["plus_constant"])), (row["minus_status"], float(row["minus_constant"]))],
                    verdict, where,
                )
                continue
            s3, phi = _sweep_reference(expect, value)
            if abs(float(row["s3_expectation"]) - s3) > SWEEP_TOL or abs(float(row["phi_closed"]) - phi) > SWEEP_TOL:
                verdict.fail(f"{where}: s3 {row['s3_expectation']}, phi_closed {row['phi_closed']}; expected {s3}, {phi!r}", wrong=True)
        except (KeyError, TypeError, ValueError) as exc:
            verdict.fail(f"{where}: unreadable row ({exc})", wrong=True)


def gate_run(spec: dict, out_dir: Path, exit_code: int | None, error: str | None) -> Verdict:
    """Gate one cli.main call from its plan entry and its output directory."""
    verdict = Verdict()
    if error:
        verdict.fail(f"exception: {error}")
    elif exit_code != 0:
        verdict.fail(f"exit code {exit_code}")
    expect = spec["expect"]
    if expect["kind"] == "sweep":
        _check_sweep(out_dir, expect, verdict)
        return verdict
    for member in expect["members"]:
        _check_member(out_dir, member, verdict)
    if expect.get("group"):
        group = _read_json(out_dir / f"{expect['group']}.json", verdict)
        if group is not None and group.get("status") != "pass":
            verdict.fail(f"{expect['group']}: group status {group.get('status')!r}")
    return verdict
