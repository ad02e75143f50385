"""Tests of the benchmark's own machinery; run with ``python3 -m pytest bench``.

They need numpy but not fiberphase: the gate is fed synthetic artifacts.
"""

import json
import math
import sys
import types

import pytest

import gate
import tracing
import workloads
from run import tail_percentile

TOL = workloads.TOLERANCE


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    plan_a = workloads.generate(workload, 7, tmp_path / "a" / "inputs")
    plan_b = workloads.generate(workload, 7, tmp_path / "b" / "inputs")
    plan_c = workloads.generate(workload, 8, tmp_path / "c" / "inputs")
    assert plan_a == plan_b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert plan_a != plan_c
    # The cost shape does not depend on the seed.
    assert [e["record"] for e in plan_a] == [e["record"] for e in plan_c]


def test_single_photon_mix_has_both_handedness_and_a_third_noncyclic(tmp_path):
    plan = workloads.generate("single-photon", 3, tmp_path / "inputs")
    members = [m for e in plan for m in e["expect"]["members"]]
    assert {m["n_r"] - m["n_l"] for m in members} == {1, -1}
    assert sum(not m["cyclic"] for m in members) * 3 == len(members)
    assert {e["record"]["kind"] for e in plan} == {"helix", "cone", "sampled"}


def _scenario_entry(cyclic=True):
    lam, sweep = 0.6, 2.0 * math.pi * (1.0 if cyclic else 0.7)
    member = workloads._member("demo", 1, 0, "nonnormal_r", lam, sweep, cyclic)
    return {"expect": {"kind": "scenario", "members": [member], "group": None}}


def _write_artifacts(out_dir, phase, attributed):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "demo.csv").write_text("t,lambda\n0,0.6\n")
    summary = {
        "status": "pass",
        "checks": [],
        "numerical": {"geometric_phase": phase},
        "closed_form": {"phi_attributed": attributed},
    }
    (out_dir / "demo.json").write_text(json.dumps(summary))


def _berry(lam=0.6):
    return 2.0 * math.pi * (1.0 - math.cos(lam))


def test_gate_passes_correct_artifacts(tmp_path):
    _write_artifacts(tmp_path, _berry() + 2.0 * math.pi, 1.5 * _berry())
    verdict = gate.gate_run(_scenario_entry(), tmp_path, 0, None)
    assert not verdict.failed, verdict.reasons


def test_gate_fails_perturbed_phase(tmp_path):
    _write_artifacts(tmp_path, _berry() + 3.0 * TOL, 1.5 * _berry())
    verdict = gate.gate_run(_scenario_entry(), tmp_path, 0, None)
    assert verdict.failed and verdict.wrong


def test_gate_fails_nonzero_exit(tmp_path):
    _write_artifacts(tmp_path, _berry(), 1.5 * _berry())
    verdict = gate.gate_run(_scenario_entry(), tmp_path, 1, None)
    assert verdict.failed and not verdict.wrong
    assert verdict.reasons == ["exit code 1"]


def test_gate_fails_nan_in_json(tmp_path):
    _write_artifacts(tmp_path, _berry(), 1.5 * _berry())
    text = (tmp_path / "demo.json").read_text().replace(json.dumps(_berry()), "NaN")
    (tmp_path / "demo.json").write_text(text)
    verdict = gate.gate_run(_scenario_entry(), tmp_path, 0, None)
    assert verdict.failed and verdict.wrong


def test_gate_fails_missing_artifact(tmp_path):
    verdict = gate.gate_run(_scenario_entry(), tmp_path, 0, None)
    assert verdict.reasons == ["missing artifact demo.csv", "missing artifact demo.json"]


def test_noncyclic_reference_is_geodesic_closed():
    # One photon, lambda = 0.2909, 0.75 turns: open-path A(t) = 0.197986,
    # geodesic-closed solid angle 0.240894.
    sweep = 2.0 * math.pi * 0.75
    assert gate.open_anholonomy(0.2909, sweep) == pytest.approx(0.197986, abs=1e-6)
    assert gate.geodesic_closed_solid_angle(0.2909, sweep) == pytest.approx(0.240894, abs=1e-6)
    assert gate.geodesic_closed_solid_angle(0.8, 2.0 * math.pi) == gate.open_anholonomy(0.8, 2.0 * math.pi)


def test_gate_checks_noncyclic_numerical_against_geodesic_closure(tmp_path):
    entry = _scenario_entry(cyclic=False)
    closed = gate.geodesic_closed_solid_angle(0.6, 2.0 * math.pi * 0.7)
    _write_artifacts(tmp_path, closed, 123.0)  # the attributed closed form is not gated off-cycle
    assert not gate.gate_run(entry, tmp_path, 0, None).failed
    _write_artifacts(tmp_path, gate.open_anholonomy(0.6, 2.0 * math.pi * 0.7), 0.0)
    assert gate.gate_run(entry, tmp_path, 0, None).wrong


def test_gate_checks_sweep_rows(tmp_path):
    expect = {
        "kind": "sweep", "name": "s", "param": "n_R", "values": [0, 2], "n_r": 1, "n_l": 1,
        "ordering": "normal", "lambda": 0.5, "turns": 2.0, "t_end": 0.5, "medium": None,
    }
    anholonomy = gate.open_anholonomy(0.5, 2.0 * math.pi)
    rows = ["parameter,value,s3_expectation,anholonomy_integral,phi_closed"]
    rows += [f"n_R,{v},{v - 1},{anholonomy!r},{(v - 1) * anholonomy!r}" for v in (0, 2)]
    (tmp_path / "s_sweep_n_R.csv").write_text("\n".join(rows) + "\n")
    assert not gate.gate_run({"expect": expect}, tmp_path, 0, None).failed
    rows[2] = rows[2].rsplit(",", 1)[0] + f",{anholonomy + 1e-6!r}"
    (tmp_path / "s_sweep_n_R.csv").write_text("\n".join(rows) + "\n")
    assert gate.gate_run({"expect": expect}, tmp_path, 0, None).wrong


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(11, 9, 1), (24, 58, 14), (36, 72, 26), (100, 90, 90), (1000, 99, 990)],
)
def test_tail_percentile_rule(n, percentile, rank):
    samples = [float(i) for i in range(n, 0, -1)]
    p, value, beyond = tail_percentile(samples)
    assert (p, value, beyond) == (percentile, float(rank), n - rank)
    assert beyond >= 10
    # One percentile higher would leave fewer than ten samples beyond.
    assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ["a", 0.0, 10.0, -1, "r"],
        ["b", 1.0, 4.0, 0, "r"],
        ["d", 2.0, 3.0, 1, "r"],
        ["c", 5.0, 6.0, 0, "r"],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_every_binding_and_reports_absent(monkeypatch):
    calls = []

    def integrate(y, x):
        calls.append("integrate")
        return 0.0

    def anholonomy_integral(angles):
        return quadrature.integrate([1, 2, 3], [0, 1, 2])

    quadrature = types.ModuleType("fiberphase.quadrature")
    quadrature.integrate = integrate
    phases = types.ModuleType("fiberphase.phases")
    phases.anholonomy_integral = anholonomy_integral
    phases.integrate_alias = integrate
    package = types.ModuleType("fiberphase")
    for name, module in (("fiberphase", package), ("fiberphase.quadrature", quadrature), ("fiberphase.phases", phases)):
        monkeypatch.setitem(sys.modules, name, module)
    for name in [n for n in sys.modules if n.startswith("fiberphase.") and n not in ("fiberphase.quadrature", "fiberphase.phases")]:
        monkeypatch.delitem(sys.modules, name)

    tracer = tracing.Tracer()
    tracer.install()
    tracer.run = "run00"
    phases.anholonomy_integral(None)
    phases.integrate_alias([0, 1], [0, 1])
    assert calls == ["integrate", "integrate"]
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("phases.anholonomy_integral", -1, "run00"),
        ("quadrature.integrate", 0, "run00"),
        ("quadrature.integrate", -1, "run00"),
    ]
    assert "phases.evolve_state" in tracer.absent and "quadrature.integrate" not in tracer.absent
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 0)
    assert metrics["quadrature.integrate.samples"] == 5
    assert metrics["phases.anholonomy_integral.calls"] == 1
    assert metrics["phases.evolve_state.calls"] == 0
    assert set(metrics) == set(tracing.LAYER_METRICS)
