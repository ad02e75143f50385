import functools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fiberphase import (
    BUILTIN_SCENARIOS,
    ConfigError,
    ScenarioConfig,
    TangentTrajectory,
    build_photon_state,
    build_space,
    helix_points,
    parse_config,
    run_builtin,
    run_scenario,
    sweep,
)
from fiberphase.fock import s3_split
from fiberphase.scenario import MAX_TURNS, ORDERINGS, SWEEP_PARAMETERS, apply_overrides

BERRY_45 = 1.84030236902122


def cone_config(polar=math.pi / 4.0, steps=512, **extra):
    data = {
        "geometry": {"kind": "cone", "polar_angle": polar, "turns": 1.0},
        "state": {"n_r": 1, "n_l": 0},
        "ordering": "normal",
        "n_max": 2,
        "steps": steps,
        "tolerance": 1e-4,
    }
    data.update(extra)
    return data


# An int longer than the 4300 digits CPython will convert to a string.
HUGE = 10**5000

# Values a JSON config can carry: ints far past any float or too long to
# print, non-finite floats and wrong types.
FUZZ_VALUES = st.one_of(
    st.integers(-3, 40),
    st.integers(-(10**400), 10**400),
    st.sampled_from([HUGE, -HUGE]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.lists(st.floats(), max_size=3)), max_size=3),
)
FUZZ_BASES = (
    cone_config(medium={"epsilon1": -1.0, "epsilon2": 2.0, "epsilon3": 1.0, "mu": 1.0}),
    {"geometry": {"kind": "helix", "radius": 1.0, "pitch_per_turn": 6.0, "turns": 1.0}, "state": {"n_r": 0, "n_l": 0}},
    {"geometry": {"kind": "sampled", "path_csv": "p.csv"}, "state": {"n_r": 1, "n_l": 0}},
    # One photon in Cartesian mode 1: basis state (1, 0, 0) at n_max = 1.
    {"geometry": {"kind": "cone", "polar_angle": 0.5, "turns": 1.0},
     "state": {"amplitudes": [[0.0, 0.0]] * 4 + [[1.0, 0.0]] + [[0.0, 0.0]] * 3}, "n_max": 1},
)
FUZZ_KEYS = (
    ("geometry",), ("geometry", "kind"), ("geometry", "radius"), ("geometry", "pitch_per_turn"),
    ("geometry", "turns"), ("geometry", "polar_angle"), ("geometry", "path_csv"),
    ("state",), ("state", "n_r"), ("state", "n_l"), ("state", "amplitudes"),
    ("ordering",), ("n_max",), ("steps",), ("t_end",), ("tolerance",),
    ("medium",), ("medium", "epsilon2"), ("medium", "omega"), ("bogus",),
)


@st.composite
def fuzz_configs(draw, bases, values):
    """One of the valid configs bases with up to three keys, nested or top-level, set to values."""
    data = json.loads(json.dumps(draw(st.sampled_from(bases))))
    for path, value in draw(st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), values), max_size=3)):
        section = data
        for key in path[:-1]:
            if not isinstance(section.get(key), dict):
                section[key] = {}
            section = section[key]
        section[path[-1]] = value
    return data


def row_loop_csv(summary):
    """The run CSV text built one row at a time, phi_closed by the Simpson rule over samples 0..i."""
    from fiberphase.quadrature import integrate

    series = summary["_series"]
    angles, phase = series["angles"], series["phase"]
    rate = angles.gamma_dot * (1.0 - np.cos(angles.lam))
    lines = ["t,lambda,gamma,phi_closed,phi_total,phi_dyn,phi_geo,norm,lvn_residual"]
    for j, i in enumerate(range(0, len(angles.times), 2)):
        cum = integrate(rate[: i + 1], angles.times[: i + 1]) if i else 0.0
        row = [angles.times[i], angles.lam[i], angles.gamma[i], series["s3_attributed"] * cum,
               phase["total"][j], phase["dynamical"][j], phase["geometric"][j], phase["norms"][j],
               series["lvn"][j]]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def write_path_csv(path, t, pts):
    with open(path, "w") as fh:
        fh.write("t,x,y,z\n")
        for ti, p in zip(t, pts):
            fh.write(f"{ti:.17g},{p[0]:.17g},{p[1]:.17g},{p[2]:.17g}\n")


class TestParseConfig:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(fuzz_configs(FUZZ_BASES, FUZZ_VALUES))
    def test_fuzzed_config_is_parsed_or_refused_by_field(self, data):
        try:
            config = parse_config(data, "fuzz")
        except ConfigError as err:
            assert err.field
        else:
            assert isinstance(config, ScenarioConfig)

    def test_minimal_valid(self):
        config = parse_config(cone_config(), "t")
        assert config.n_r == 1 and config.n_l == 0
        assert config.steps == 512

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config(cone_config(frobnicate=1), "t")

    def test_unknown_nested_key(self):
        data = cone_config()
        data["geometry"]["chirality"] = "left"
        with pytest.raises(ConfigError, match="chirality"):
            parse_config(data, "t")

    def test_negative_n_max_names_field(self):
        with pytest.raises(ConfigError, match="n_max") as err:
            parse_config(cone_config(n_max=-1), "t")
        assert err.value.field == "n_max"

    def test_bad_ordering(self):
        with pytest.raises(ConfigError, match="ordering"):
            parse_config(cone_config(ordering="antinormal"), "t")

    def test_amplitudes_with_per_handedness_ordering_rejected(self):
        data = cone_config(ordering="nonnormal_r")
        data["state"] = {"amplitudes": [[1.0, 0.0]] * 27}
        with pytest.raises(ConfigError, match="ordering"):
            parse_config(data, "t")

    def test_cutoff_overflow(self):
        data = cone_config()
        data["state"] = {"n_r": 2, "n_l": 2}
        with pytest.raises(ConfigError, match="cutoff overflow"):
            parse_config(data, "t")

    def test_t_end_range(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(cone_config(t_end=0.0), "t")
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(cone_config(t_end=1.5), "t")

    def test_steps_minimum(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config(cone_config(steps=8), "t")

    def test_sampled_geometry_forbids_steps_key(self):
        data = {
            "geometry": {"kind": "sampled", "path_csv": "p.csv"},
            "state": {"n_r": 1, "n_l": 0},
            "steps": 128,
        }
        with pytest.raises(ConfigError, match="steps"):
            parse_config(data, "t")

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"n_max": HUGE}, "n_max"),
            ({"n_max": -HUGE}, "n_max"),
            ({"steps": -HUGE}, "steps"),
            ({"ordering": HUGE}, "ordering"),
            ({"state": {"n_r": HUGE, "n_l": 0}}, "state"),
            ({"tolerance": HUGE}, "config.tolerance"),
        ],
        ids=["n_max", "n_max-negative", "steps-negative", "ordering", "n_r", "tolerance"],
    )
    def test_int_past_digit_limit_is_config_error(self, extra, field):
        with pytest.raises(ConfigError) as err:
            parse_config(cone_config(**extra), "t")
        assert err.value.field == field
        assert "10^5000" in str(err.value)

    def test_amplitude_count_checked_before_any_work(self):
        data = cone_config(state={"amplitudes": [[1.0, 0.0]] * 8})
        with pytest.raises(ConfigError) as err:
            parse_config(data, "t")
        assert err.value.field == "state.amplitudes"
        assert err.value.message == "expected 27 amplitudes for n_max = 2, got 8"

    def test_amplitude_norm_checked_before_any_work(self, monkeypatch):
        import fiberphase.scenario as scenario

        def refuse(traj):
            raise AssertionError("spherical_angles called")

        monkeypatch.setattr(scenario, "spherical_angles", refuse)
        data = cone_config(steps=16384, n_max=1, state={"amplitudes": [[2.0, 0.0]] + [[0.0, 0.0]] * 7})
        with pytest.raises(ConfigError) as err:
            parse_config(data, "t")
        assert err.value.field == "state.amplitudes"
        assert err.value.message == "state norm 2.0 is not 1 within 1e-6"

    def test_medium_validation(self):
        data = cone_config(medium={"epsilon1": -1.0, "epsilon2": 2.0, "epsilon3": 1.0, "mu": 1.0, "omega": -1.0})
        with pytest.raises(ConfigError, match="omega"):
            parse_config(data, "t")


def validation_peak(fn):
    """Peak traced bytes while fn runs; fn must raise ConfigError."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as err:
            fn()
        return err.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"n_max": 10**6, "steps": 10**9}, "n_max"),
            ({"n_max": 40}, "n_max"),
            ({"steps": 10**9}, "steps"),
            ({"n_max": 3, "steps": 10**8}, "steps"),
            ({"n_max": 10**200}, "n_max"),
            ({"steps": 10**400}, "steps"),
        ],
    )
    def test_oversize_config_refused_before_allocation(self, extra, field):
        err, peak = validation_peak(lambda: parse_config(cone_config(**extra), "t"))
        assert err.field == field
        assert "budget" in err.message
        assert peak < 100_000

    def test_sampled_geometry_checks_operators(self):
        data = {"geometry": {"kind": "sampled", "path_csv": "p.csv"}, "state": {"n_r": 1, "n_l": 0}, "n_max": 100}
        err, peak = validation_peak(lambda: parse_config(data, "t"))
        assert err.field == "n_max"
        assert peak < 100_000

    @pytest.mark.parametrize(
        "parameter, oversize",
        [("n_R", 2**52), ("n_L", 2**52), ("n_R", 1e300)],
        ids=["n_R", "n_L", "n_R-1e300"],
    )
    def test_oversize_sweep_value_refused_before_any_row(self, parameter, oversize, tmp_path):
        # Past 2**52 the half quantum n + 1/2 is lost to float rounding.  The
        # first value alone would build a 32769-sample trajectory (~8 MB).
        config = parse_config(cone_config(steps=16384), "s")
        err, peak = validation_peak(lambda: sweep(config, parameter, [1, oversize], tmp_path))
        assert err.field == "sweep"
        assert "2**52" in err.message
        assert peak < 1_000_000
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "parameter, value",
        [("lambda", 10**400), ("turns", 10**400), ("turns", math.nan), ("epsilon2", -(10**400)), ("n_L", HUGE)],
        ids=["lambda-1e400", "turns-1e400", "turns-nan", "epsilon2-minus-1e400", "n_L-5001-digits"],
    )
    def test_non_finite_sweep_value_refused_before_any_row(self, parameter, value, tmp_path):
        medium = {"epsilon1": -1.0, "epsilon2": 2.0, "epsilon3": 1.0, "mu": 1.0}
        config = parse_config(cone_config(medium=medium), "s")
        with pytest.raises(ConfigError) as err:
            sweep(config, parameter, [1, value], tmp_path)
        assert err.value.field == "sweep"
        assert "finite" in err.value.message
        assert not list(tmp_path.glob("*.csv"))

    def test_sampled_path_sized_before_read(self, monkeypatch, tmp_path):
        import fiberphase.scenario as scenario

        t = np.linspace(0.0, 1.0, 8001)
        path_csv = tmp_path / "path.csv"
        table = np.column_stack([t, np.cos(t), np.sin(t), t])
        np.savetxt(path_csv, table, fmt="%.17g", delimiter=",", header="t,x,y,z", comments="")
        data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0}, "n_max": 1}
        config = parse_config(data, "long", base_dir=tmp_path)
        # 8001 rows need about 2.8 MB by the per-sample terms; the operators 12 kB.
        monkeypatch.setattr(scenario, "MEMORY_BUDGET_BYTES", 1_000_000)
        out = tmp_path / "out"
        err, peak = validation_peak(lambda: run_scenario(config, out))
        assert err.field == "geometry.path_csv"
        assert "budget" in err.message
        assert peak < path_csv.stat().st_size
        assert not list(out.glob("*"))

    def test_builtins_far_inside_budget(self):
        # Ten times the built-in steps at n_max = 6 is still accepted.
        for members in BUILTIN_SCENARIOS.values():
            for label, raw in members:
                parse_config(apply_overrides(raw, steps=10 * raw["steps"], n_max=6), label)


class TestOpenTrace:
    def open_cone(self):
        return parse_config(cone_config(polar=0.6, steps=512, t_end=0.6), "open")

    def test_open_cone_passes_with_geodesic_closure(self, tmp_path):
        outcome = run_scenario(self.open_cone(), tmp_path)
        cf = outcome.summary["closed_form"]
        assert outcome.exit_code == 0
        assert outcome.summary["trajectory"]["closed"] is False
        assert outcome.summary["trajectory"]["solid_angle"] is None
        assert cf["phi_total"] == pytest.approx(2.0 * math.pi * 0.6 * (1.0 - math.cos(0.6)), abs=1e-10)
        assert abs(cf["geodesic_closure"]) > 0.1

    def test_fails_without_geodesic_closure(self, monkeypatch):
        import fiberphase.scenario as scenario

        monkeypatch.setattr(scenario, "geodesic_closure", lambda k_first, k_last: 0.0)
        summary = scenario.evaluate_scenario(self.open_cone())
        check = next(c for c in summary["checks"] if c["name"] == "numerical_vs_closed_form")
        assert check["pass"] is False
        assert summary["status"] == "fail"

    def test_closure_vanishes_on_cyclic_builtins(self):
        from fiberphase.geometry import geodesic_closure
        from fiberphase.scenario import _build_trajectory

        for members in BUILTIN_SCENARIOS.values():
            for label, raw in members:
                traj = _build_trajectory(parse_config(raw, label))
                k = traj.tangents / np.linalg.norm(traj.tangents, axis=1)[:, None]
                assert abs(geodesic_closure(k[0], k[-1])) <= 1e-12, label


class TestRunScenario:
    @pytest.mark.parametrize(
        "rows, warp",
        [(513, lambda s: s**1.5), (512, lambda s: s)],
        ids=["non-centred", "even-rows"],
    )
    def test_sampled_grid_refused_before_angles(self, monkeypatch, tmp_path, rows, warp):
        # A t = s^1.5 path has no RK4 pane with its midpoint centred; an even row count has no last pane.
        import fiberphase.scenario as scenario

        def refuse(traj):
            raise AssertionError("spherical_angles called")

        monkeypatch.setattr(scenario, "spherical_angles", refuse)
        _, pts = helix_points(1.0, 2.0 * math.pi, 1.0, rows)
        write_path_csv(tmp_path / "path.csv", warp(np.linspace(0.0, 1.0, rows)), pts)
        data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0}}
        with pytest.raises(ConfigError) as err:
            run_scenario(parse_config(data, "grid", base_dir=tmp_path), tmp_path / "out")
        assert err.value.field == "geometry.path_csv"
        assert not list((tmp_path / "out").glob("*"))

    def test_writes_artifacts_and_passes(self, tmp_path):
        config = parse_config(cone_config(), "demo")
        outcome = run_scenario(config, tmp_path)
        assert outcome.exit_code == 0
        summary = json.loads((tmp_path / "demo.json").read_text())
        assert summary["status"] == "pass"
        assert summary["closed_form"]["phi_total"] == pytest.approx(BERRY_45, abs=1e-10)
        assert summary["numerical"]["geometric_phase"] == pytest.approx(BERRY_45, abs=1e-4)
        header = (tmp_path / "demo.csv").read_text().splitlines()[0]
        assert header == "t,lambda,gamma,phi_closed,phi_total,phi_dyn,phi_geo,norm,lvn_residual"
        # guard metrics ship with every summary so checks are self-contained
        for key in ("max_h_dt_bound", "norm_drift", "lvn_max_residual"):
            assert key in summary["numerical"]
        assert {c["name"] for c in summary["checks"]} >= {
            "numerical_vs_closed_form",
            "norm_drift",
            "lvn_residual",
            "motion_identity",
        }

    def test_csv_row_count_and_columns(self, tmp_path):
        config = parse_config(cone_config(steps=128), "rows")
        run_scenario(config, tmp_path)
        lines = (tmp_path / "rows.csv").read_text().strip().splitlines()
        assert len(lines) == 130  # header + steps + 1
        assert all(len(line.split(",")) == 9 for line in lines[1:])

    def test_csv_writer_matches_row_loop(self, tmp_path):
        import fiberphase.scenario as scenario
        from fiberphase.quadrature import integrate

        summary = scenario.evaluate_scenario(parse_config(cone_config(polar=1.0, steps=256), "rows"))
        scenario._write_run_csv(summary, tmp_path / "rows.csv")
        series = summary["_series"]
        angles, phase = series["angles"], series["phase"]
        rate = angles.gamma_dot * (1.0 - np.cos(angles.lam))
        lines = ["t,lambda,gamma,phi_closed,phi_total,phi_dyn,phi_geo,norm,lvn_residual"]
        for j, i in enumerate(range(0, len(angles.times), 2)):
            # phi_closed at step boundary i: the Simpson pane rule over samples 0..i.
            cum = integrate(rate[: i + 1], angles.times[: i + 1]) if i else 0.0
            row = [angles.times[i], angles.lam[i], angles.gamma[i], series["s3_attributed"] * cum,
                   phase["total"][j], phase["dynamical"][j], phase["geometric"][j], phase["norms"][j],
                   series["lvn"][j]]
            lines.append(",".join(format(float(v), ".17g") for v in row))
        assert (tmp_path / "rows.csv").read_text() == "\n".join(lines) + "\n"

    def test_csv_blocks_match_row_loop(self, tmp_path):
        import fiberphase.scenario as scenario

        # Three full row blocks and a partial fourth.
        rows = scenario.CSV_BLOCK_VALUES // 9
        steps = 3 * rows + rows // 2
        summary = scenario.evaluate_scenario(parse_config(cone_config(polar=1.0, steps=steps), "blocks"))
        scenario._write_run_csv(summary, tmp_path / "blocks.csv")
        assert (tmp_path / "blocks.csv").read_text() == row_loop_csv(summary)

    def test_csv_writer_memory_is_flat(self, tmp_path):
        import fiberphase.scenario as scenario

        extra = []
        for steps in (1024, 16384):
            summary = scenario.evaluate_scenario(parse_config(cone_config(steps=steps, n_max=1), "flat"))
            # The (steps + 1, 9) table and the phi_closed column it is stacked from.
            table_bytes = (steps + 1) * 10 * 8
            tracemalloc.start()
            try:
                scenario._write_run_csv(summary, tmp_path / "flat.csv")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra.append(peak - table_bytes)
        # Beyond those the writer holds one row block, whatever the step count.
        assert extra[1] <= extra[0] + 16 * 1024, extra

    @pytest.mark.parametrize("kind", ["cone", "helix", "sampled"])
    def test_last_phi_closed_is_phi_attributed(self, kind, tmp_path):
        data = cone_config(polar=1.0, steps=256)
        if kind == "helix":
            data["geometry"] = {"kind": "helix", "radius": 1.0, "pitch_per_turn": 3.0, "turns": 1.3}
        elif kind == "sampled":
            t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, 513)
            pts[:, 2] += 0.05 * np.sin(3.0 * math.pi * t)
            write_path_csv(tmp_path / "path.csv", t, pts)
            data["geometry"] = {"kind": "sampled", "path_csv": "path.csv"}
            del data["steps"]
        outcome = run_scenario(parse_config(data, kind, base_dir=tmp_path), tmp_path)
        last = (tmp_path / f"{kind}.csv").read_text().splitlines()[-1].split(",")[3]
        assert float(last) == outcome.summary["closed_form"]["phi_attributed"]

    def test_vacuum_attribution(self, tmp_path):
        data = cone_config(polar=math.pi / 3.0, ordering="nonnormal_r")
        data["state"] = {"n_r": 0, "n_l": 0}
        outcome = run_scenario(parse_config(data, "vac"), tmp_path)
        cf = outcome.summary["closed_form"]
        assert cf["phi_attributed"] == pytest.approx(math.pi / 2.0, abs=1e-10)
        assert cf["vacuum"]["sum"] == 0.0
        assert outcome.summary["numerical"]["geometric_phase"] == pytest.approx(0.0, abs=1e-9)
        assert outcome.exit_code == 0

    def test_vacuum_cancellation_can_fail(self, monkeypatch):
        import fiberphase.scenario as scenario

        real_s3 = scenario._s3_expectation

        def shifted_s3(ordering, n_r, n_l):
            return real_s3(ordering, n_r, n_l) + (1e-3 if ordering == "nonnormal_r" else 0.0)

        monkeypatch.setattr(scenario, "_s3_expectation", shifted_s3)
        data = cone_config(polar=math.pi / 3.0, steps=256, ordering="nonnormal_r")
        data["state"] = {"n_r": 0, "n_l": 0}
        summary = scenario.evaluate_scenario(parse_config(data, "vac"))
        check = next(c for c in summary["checks"] if c["name"] == "vacuum_cancellation")
        vacuum = summary["closed_form"]["vacuum"]
        assert check["pass"] is False
        assert check["value"] == pytest.approx(1e-3 * math.pi, rel=1e-9)
        assert vacuum["right"] == pytest.approx(0.501 * math.pi, rel=1e-9)
        assert vacuum["sum"] == pytest.approx(1e-3 * math.pi, rel=1e-9)
        assert summary["status"] == "fail"

    def test_amplitude_state(self, tmp_path):
        lam = math.pi / 4.0
        k0 = np.array([math.sin(lam), 0.0, math.cos(lam)])
        psi = build_photon_state(build_space(3, 2), 1, 0, k_hat=k0)
        data = cone_config()
        data["state"] = {"amplitudes": [[z.real, z.imag] for z in psi.amplitudes]}
        outcome = run_scenario(parse_config(data, "amp"), tmp_path)
        assert outcome.exit_code == 0
        assert outcome.summary["spin_expectations"]["s3_total"] == pytest.approx(1.0, abs=1e-12)
        assert outcome.summary["numerical"]["sectors"] == [1]
        assert outcome.summary["numerical"]["geometric_phase"] == pytest.approx(BERRY_45, abs=1e-4)

    @pytest.mark.parametrize("name, sectors, dimension", [("chiao-helix-45", [1], 3), ("multiphoton-21", [3], 10)])
    def test_numerical_reports_sectors(self, name, sectors, dimension, tmp_path):
        assert run_builtin(name, tmp_path) == 0
        numerical = json.loads((tmp_path / f"{name}.json").read_text())["numerical"]
        assert numerical["sectors"] == sectors
        assert numerical["sector_dimension"] == dimension

    def test_one_photon_run_memory_is_sector_sized(self):
        # At n_max = 8 the box has 729 states; the dense spin build alone held
        # about 89 MiB, the one-photon sector has 3 states.
        import fiberphase.scenario as scenario

        config = parse_config(cone_config(n_max=8), "big-box")
        tracemalloc.start()
        try:
            summary = scenario.evaluate_scenario(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert summary["status"] == "pass"
        assert summary["numerical"]["sector_dimension"] == 3

    def test_twelve_photon_run_memory(self):
        # n_max = 12 (D = 2197) with a 12-photon sector of d = 91; one dense
        # 2197-square S3 alone would hold 3.9 MiB.
        import fiberphase.scenario as scenario

        config = parse_config(cone_config(polar=0.3, steps=256, n_max=12, state={"n_r": 12, "n_l": 0}), "twelve")
        tracemalloc.start()
        try:
            summary = scenario.evaluate_scenario(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary["numerical"]["sector_dimension"] == 91
        assert peak < 2.5 * 2**20

    def test_run_path_builds_no_three_mode_matrix(self, monkeypatch, tmp_path):
        # No run or sweep builds a dense Fock matrix of any number of modes:
        # the evolution and the initial state are sector-native and the
        # closed-form S3 expectations are matrix-free.
        import sys

        import fiberphase.fock as fock
        import fiberphase.scenario as scenario

        def refuse(name):
            def builder(*args, **kwargs):
                raise AssertionError(f"{name} called on the run path")

            return builder

        for name in ("annihilation", "s3_split", "spin_fixed"):
            original = getattr(fock, name)
            for module_name, module in list(sys.modules.items()):
                if module_name == "fiberphase" or module_name.startswith("fiberphase."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, refuse(name))
        lam = math.pi / 4.0
        k0 = np.array([math.sin(lam), 0.0, math.cos(lam)])
        photon = build_photon_state(build_space(3, 2), 1, 0, k_hat=k0).amplitudes
        configs = [
            cone_config(n_max=3, state={"n_r": 2, "n_l": 1}),
            cone_config(state={"amplitudes": [[z.real, z.imag] for z in photon]}),
        ]
        for data in configs:
            summary = scenario.evaluate_scenario(parse_config(data, "guarded"))
            assert summary["status"] == "pass"
        assert run_builtin("vacuum-pair", tmp_path, steps=128) == 0
        assert sweep(parse_config(cone_config(), "s"), "n_R", [0, 1, 2], tmp_path)[0] == 0

    def test_s3_expectation_equals_dense_split(self):
        # Every (n_r, n_l) in 0..25 and every ordering against the expectations
        # of the s3_split matrices, bit for bit and with the sign of zero.
        import fiberphase.scenario as scenario

        space = build_space(2, 25)
        r_nn, l_nn, r_n, l_n = s3_split(space)
        variants = {"normal": r_n + l_n, "nonnormal_r": r_nn, "nonnormal_l": l_nn, "nonnormal_total": r_nn + l_nn}
        assert sorted(variants) == sorted(ORDERINGS)
        for n_r in range(26):
            for n_l in range(26):
                psi = build_photon_state(space, n_r, n_l)
                for ordering, op in variants.items():
                    dense = float(psi.expectation(op).real)
                    fast = scenario._s3_expectation(ordering, n_r, n_l)
                    assert np.float64(fast).tobytes() == np.float64(dense).tobytes(), (ordering, n_r, n_l)

    def test_sampled_geometry_run(self, tmp_path):
        t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, 1025)
        write_path_csv(tmp_path / "path.csv", t, pts)
        data = {
            "geometry": {"kind": "sampled", "path_csv": "path.csv"},
            "state": {"n_r": 1, "n_l": 0},
            "ordering": "normal",
            "n_max": 2,
            "tolerance": 1e-3,
        }
        config = parse_config(data, "sampled-run", base_dir=tmp_path)
        outcome = run_scenario(config, tmp_path)
        assert outcome.exit_code == 0
        assert outcome.summary["numerical"]["geometric_phase"] == pytest.approx(BERRY_45, abs=1e-3)

    def test_lvn_check_can_fail_at_n_max_1(self, tmp_path):
        # At n_max = 1 the bounded block is the vacuum alone, so the
        # one-photon sector is all that can make the LvN residual nonzero.
        # A wobbling path differenced on 4097 rows stays within LVN_TOL; on
        # 1025 rows the differencing error pushes the residual past it.
        import fiberphase.scenario as scenario

        lvn = {}
        for rows in (4097, 1025):
            t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, rows)
            pts[:, 2] += 0.05 * np.sin(3.0 * math.pi * t)
            write_path_csv(tmp_path / "path.csv", t, pts)
            data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0}, "n_max": 1}
            summary = scenario.evaluate_scenario(parse_config(data, "lvn", base_dir=tmp_path))
            lvn[rows] = next(c for c in summary["checks"] if c["name"] == "lvn_residual")
            assert lvn[rows]["value"] == summary["numerical"]["lvn_max_residual"]
        assert 0.0 < lvn[4097]["value"] <= scenario.LVN_TOL and lvn[4097]["pass"] is True
        assert lvn[1025]["value"] > scenario.LVN_TOL and lvn[1025]["pass"] is False

    def test_u_and_motion_residual_built_once(self, monkeypatch):
        import fiberphase.scenario as scenario

        calls = {}
        for name in ("precession_field", "motion_residual"):
            build = getattr(TangentTrajectory, name).func

            def counted(traj, build=build, name=name):
                calls[name] = calls.get(name, 0) + 1
                return build(traj)

            prop = functools.cached_property(counted)
            prop.__set_name__(TangentTrajectory, name)
            monkeypatch.setattr(TangentTrajectory, name, prop)
        scenario.evaluate_scenario(parse_config(cone_config(steps=64), "once"))
        assert calls == {"precession_field": 1, "motion_residual": 1}

    def test_builtin_group_vacuum_pair(self, tmp_path):
        code = run_builtin("vacuum-pair", tmp_path, steps=512)
        assert code == 0
        group = json.loads((tmp_path / "vacuum-pair.json").read_text())
        assert group["pair"]["cancels"] is True
        phis = group["pair"]["phi_attributed"]
        assert phis[0] == pytest.approx(math.pi / 2.0, abs=1e-9)
        assert phis[0] + phis[1] == 0.0

    def test_pair_cancellation_can_fail(self, monkeypatch, tmp_path):
        import fiberphase.scenario as scenario

        real_s3 = scenario._s3_expectation

        def shifted_s3(ordering, n_r, n_l):
            return real_s3(ordering, n_r, n_l) + (1e-3 if ordering == "nonnormal_l" else 0.0)

        monkeypatch.setattr(scenario, "_s3_expectation", shifted_s3)
        assert run_builtin("vacuum-pair", tmp_path, steps=512) == 1
        group = json.loads((tmp_path / "vacuum-pair.json").read_text())
        assert group["pair"]["cancels"] is False
        assert group["pair"]["sum"] == pytest.approx(1e-3 * math.pi, rel=1e-9)
        assert group["status"] == "fail"


class TestSweep:
    def test_lambda_sweep_matches_berry_curve(self, tmp_path):
        config = parse_config(cone_config(), "s")
        values = [0.0, math.pi / 6.0, math.pi / 4.0, math.pi / 3.0, math.pi / 2.0]
        code, csv_path = sweep(config, "lambda", values, tmp_path)
        assert code == 0
        lines = Path(csv_path).read_text().strip().splitlines()
        assert lines[0] == "parameter,value,s3_expectation,anholonomy_integral,phi_closed"
        assert len(lines) == 6
        phis = []
        for line, lam in zip(lines[1:], values):
            cols = line.split(",")
            assert cols[0] == "lambda"
            phi = float(cols[4])
            assert phi == pytest.approx(2.0 * math.pi * (1.0 - math.cos(lam)), abs=1e-4)
            phis.append(phi)
        assert phis == sorted(phis)

    def test_turns_sweep_scales_linearly(self, tmp_path):
        config = parse_config(cone_config(polar=math.pi / 3.0), "s")
        code, csv_path = sweep(config, "turns", [1.0, 2.0, 3.0], tmp_path)
        assert code == 0
        rows = [line.split(",") for line in Path(csv_path).read_text().strip().splitlines()[1:]]
        phis = [float(r[4]) for r in rows]
        assert phis[1] == pytest.approx(2.0 * phis[0], abs=1e-9)
        assert phis[2] == pytest.approx(3.0 * phis[0], abs=1e-9)

    def test_n_r_sweep_is_arithmetic_progression(self, tmp_path):
        config = parse_config(cone_config(polar=math.pi / 3.0), "s")
        code, csv_path = sweep(config, "n_R", [0, 1, 2, 3], tmp_path)
        assert code == 0
        rows = [line.split(",") for line in Path(csv_path).read_text().strip().splitlines()[1:]]
        phis = [float(r[4]) for r in rows]
        anholonomy = float(rows[0][3])
        diffs = np.diff(phis)
        assert np.abs(diffs - anholonomy).max() < 1e-8

    def test_photon_number_sweep_needs_no_budget(self, tmp_path):
        # A million photons cost one float product, not a (10**6+1)^2 space.
        config = parse_config(cone_config(polar=math.pi / 3.0), "s")
        _, csv_path = sweep(config, "n_R", [1, 10**6], tmp_path)
        rows = [line.split(",") for line in Path(csv_path).read_text().strip().splitlines()[1:]]
        assert [(r[1], float(r[2])) for r in rows] == [("1", 1.0), ("1000000", 1e6)]
        _, csv_path = sweep(config, "n_L", [10**6], tmp_path)
        rows = [line.split(",") for line in Path(csv_path).read_text().strip().splitlines()[1:]]
        assert [(r[1], float(r[2])) for r in rows] == [("1000000", 1.0 - 1e6)]

    def test_epsilon2_sweep_flips_at_threshold(self, tmp_path):
        data = cone_config(medium={"epsilon1": -1.0, "epsilon2": 2.0, "epsilon3": 1.0, "mu": 1.0})
        config = parse_config(data, "s")
        code, csv_path = sweep(config, "epsilon2", [0.5, 1.0, 1.5], tmp_path)
        assert code == 0
        rows = [line.split(",") for line in Path(csv_path).read_text().strip().splitlines()[1:]]
        assert [r[4] for r in rows] == ["evanescent", "evanescent", "propagating"]

    def test_unknown_parameter(self, tmp_path):
        config = parse_config(cone_config(), "s")
        with pytest.raises(ConfigError, match="unknown parameter"):
            sweep(config, "pitch", [1.0], tmp_path)

    @pytest.mark.parametrize(
        "kind, parameter, values, builds",
        [
            ("cone", "n_R", range(8), 1),
            ("cone", "n_L", range(8), 1),
            ("sampled", "n_R", range(8), 1),
            ("sampled", "n_L", range(8), 1),
            ("cone", "lambda", [0.3, 0.5, 0.3, 0.5, 0.3], 2),
        ],
        ids=["n_R", "n_L", "n_R-sampled", "n_L-sampled", "lambda-repeated"],
    )
    def test_each_distinct_trajectory_built_once(self, monkeypatch, tmp_path, kind, parameter, values, builds):
        # A helix or cone streams through cone_anholonomy; a sampled path takes the run's one-pass chain.
        import fiberphase.scenario as scenario

        calls = {"cone_anholonomy": 0, "spherical_angles": 0, "load_path_csv": 0}
        for name in calls:
            original = getattr(scenario, name)

            def counted(*args, original=original, name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(scenario, name, counted)
        if kind == "sampled":
            write_path_csv(tmp_path / "path.csv", *helix_points(1.0, 2.0 * math.pi, 1.0, 257))
            data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0}}
            expected = {"cone_anholonomy": 0, "spherical_angles": builds, "load_path_csv": builds}
        else:
            data = cone_config(steps=16384)
            expected = {"cone_anholonomy": builds, "spherical_angles": 0, "load_path_csv": 0}
        config = parse_config(data, "s", base_dir=tmp_path)
        _, csv_path = sweep(config, parameter, values, tmp_path)
        assert len(Path(csv_path).read_text().splitlines()) == 1 + len(values)
        assert calls == expected

    def test_sweep_never_unwraps_the_azimuth(self, monkeypatch, tmp_path):
        import fiberphase.geometry as geometry
        import fiberphase.scenario as scenario

        streamed, built = [], []
        original_stream, original_angles = scenario.cone_anholonomy, geometry.spherical_angles

        def stream(*args):
            streamed.append(args)
            return original_stream(*args)

        def kept(traj):
            built.append(original_angles(traj))
            return built[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("azimuth unwrapped in a sweep")

        monkeypatch.setattr(scenario, "cone_anholonomy", stream)
        monkeypatch.setattr(geometry, "spherical_angles", kept)
        monkeypatch.setattr(geometry.np, "arctan2", refuse)
        values = [0.1 * i for i in range(1, 9)]
        _, csv_path = sweep(parse_config(cone_config(steps=256), "s"), "lambda", values, tmp_path)
        assert len(Path(csv_path).read_text().splitlines()) == 1 + len(values)
        assert len(streamed) == len(values)
        assert built and all("gamma" not in angles.__dict__ for angles in built)

    def test_sweep_scratch_memory_is_flat_in_steps(self, tmp_path):
        # Beyond the one (2 * steps + 1)-sample time grid, a row holds one block of samples.
        extra = []
        for steps in (16384, 131072):
            config = parse_config(cone_config(steps=steps), "flat")
            tracemalloc.start()
            try:
                sweep(config, "lambda", [0.3, 0.9, 2.1], tmp_path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra.append(peak - (2 * steps + 1) * 8)
        assert extra[1] <= extra[0] + 16 * 1024, extra

    @pytest.mark.parametrize(
        "parameter, polar",
        [("n_R", math.pi / 2.0), ("n_L", math.pi / 2.0), ("n_R", 3.0)],
        ids=["n_R", "n_L", "n_R-near-south-pole"],
    )
    def test_photon_sweep_at_turns_bound_is_finite(self, tmp_path, parameter, polar):
        # The largest accepted geometry, swept up to the largest accepted photon number;
        # near the south pole |A| approaches its 4*pi*turns bound.
        template = cone_config(polar=polar, steps=64)
        template["geometry"]["turns"] = MAX_TURNS
        values = [0, 1, 2**52 - 1]
        _, csv_path = sweep(parse_config(template, "s"), parameter, values, tmp_path)
        rows = [line.split(",") for line in Path(csv_path).read_text().splitlines()[1:]]
        assert len(rows) == len(values)
        assert all(math.isfinite(float(c)) for row in rows for c in row[1:]), rows

    @pytest.mark.parametrize(
        "kind, parameter, values, swept",
        [
            ("cone", "lambda", [0.0, 0.4, 1.1], lambda data, v: data["geometry"].update(polar_angle=v)),
            ("cone", "turns", [0.5, 1.0, 2.3], lambda data, v: data["geometry"].update(turns=v)),
            ("cone", "n_R", [0, 1, 2], lambda data, v: data["state"].update(n_r=v)),
            # A lambda row is a cone of the template's turns.
            ("helix", "lambda", [0.0, 0.4, 1.1],
             lambda data, v: data.update(geometry={"kind": "cone", "polar_angle": v, "turns": 1.0})),
            # 1.623527535179605 read 0.30315676005811959 when the row was taken on a cone at azimuth 0.
            ("helix", "turns", [0.5, 1.623527535179605, 2.3], lambda data, v: data["geometry"].update(turns=v)),
            ("helix", "n_R", [0, 1, 2], lambda data, v: data["state"].update(n_r=v)),
        ],
        ids=["lambda", "turns", "n_R", "helix-lambda", "helix-turns", "helix-n_R"],
    )
    def test_rows_equal_run_of_swept_config(self, tmp_path, kind, parameter, values, swept):
        # Every row is the run's closed form on the template with that value in, bit for bit.
        import fiberphase.scenario as scenario

        template = cone_config(polar=0.7, steps=128, ordering="nonnormal_r", state={"n_r": 0, "n_l": 0})
        if kind == "helix":
            template.update(steps=512, geometry={"kind": "helix", "radius": 0.5782702140627514,
                                                 "pitch_per_turn": 14.569022633784593, "turns": 1.0})
        _, csv_path = sweep(parse_config(template, "s"), parameter, values, tmp_path)
        rows = [line.split(",") for line in Path(csv_path).read_text().splitlines()[1:]]
        assert len(rows) == len(values)
        for row, v in zip(rows, values):
            data = json.loads(json.dumps(template))
            swept(data, v)
            summary = scenario.evaluate_scenario(parse_config(data, "run"))
            expected = (
                summary["spin_expectations"]["s3_attributed"],
                summary["closed_form"]["anholonomy_integral"],
                summary["closed_form"]["phi_attributed"],
            )
            assert tuple(float(x) for x in row[2:]) == expected

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        parameter=st.one_of(st.sampled_from(SWEEP_PARAMETERS), st.text(max_size=4)),
        values=st.lists(
            st.one_of(
                st.integers(-3, 12),
                st.sampled_from([2**52 - 1, 2**52, 10**400, HUGE, -HUGE, 1e308, 5e306, MAX_TURNS]),
                st.floats(allow_nan=True, allow_infinity=True),
                st.text(max_size=3),
            ),
            max_size=4,
        ),
        medium=st.booleans(),
        amplitudes=st.booleans(),
    )
    # 2*pi*turns overflows at 1e308; at 5e306 only the quadrature does.
    @example(parameter="turns", values=[1.0, 1e308], medium=False, amplitudes=False)
    @example(parameter="turns", values=[5e306], medium=False, amplitudes=False)
    @example(parameter="turns", values=[1.0, MAX_TURNS], medium=False, amplitudes=False)
    def test_fuzzed_sweep_writes_a_row_per_value_or_refuses(self, parameter, values, medium, amplitudes):
        import tempfile

        extra = {"medium": {"epsilon1": -1.0, "epsilon2": 2.0, "epsilon3": 1.0, "mu": 1.0}} if medium else {}
        if amplitudes:
            extra.update(n_max=1, state={"amplitudes": [[0.0, 0.0]] * 4 + [[1.0, 0.0]] + [[0.0, 0.0]] * 3})
        config = parse_config(cone_config(steps=64, **extra), "fuzz")
        with tempfile.TemporaryDirectory() as out:
            try:
                _, csv_path = sweep(config, parameter, values, out)
            except ConfigError as err:
                assert err.field == "sweep"
                assert not list(Path(out).glob("*"))
            else:
                header, *rows = Path(csv_path).read_text().splitlines()
                assert len(rows) == len(values)
                for row in rows:
                    cells = row.split(",")
                    assert len(cells) == len(header.split(",")) and cells[0] == parameter
                    numbers = [c for c in cells[1:] if c not in ("propagating", "evanescent")]
                    assert all(math.isfinite(float(c)) for c in numbers), row


class TestDeterminism:
    def test_identical_config_byte_identical_outputs(self, tmp_path):
        config = parse_config(cone_config(steps=128), "det")
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(config, a)
        run_scenario(config, b)
        assert (a / "det.csv").read_bytes() == (b / "det.csv").read_bytes()
        assert (a / "det.json").read_bytes() == (b / "det.json").read_bytes()

    @pytest.mark.parametrize("exponent", [-1000, 1000])
    def test_power_of_two_scaled_path_gives_identical_artifacts(self, tmp_path, exponent):
        # 2**k changes exponents only (bar coordinates near 0 that 2**-1000 makes subnormal, far below
        # the rounding of a difference), and the tangents are scale-free: every artifact byte stays.
        t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, 1025)
        artifacts = []
        for name, points in (("unit", pts), ("scaled", np.ldexp(pts, exponent))):
            (tmp_path / name).mkdir()
            write_path_csv(tmp_path / name / "path.csv", t, points)
            data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0},
                    "tolerance": 1e-3}
            outcome = run_scenario(parse_config(data, "scaled", base_dir=tmp_path / name), tmp_path / name / "out")
            assert outcome.exit_code == 0
            artifacts.append([(tmp_path / name / "out" / f).read_bytes() for f in ("scaled.csv", "scaled.json")])
        assert artifacts[1] == artifacts[0]

    def sampled_run(self, directory, t, pts):
        """Exit code, JSON bytes and CSV rows of a (2, 1) run on the path (t, pts) written under directory."""
        directory.mkdir()
        write_path_csv(directory / "path.csv", t, pts)
        data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 2, "n_l": 1}, "n_max": 3}
        outcome = run_scenario(parse_config(data, "unit", base_dir=directory), directory / "out")
        rows = [line.split(",") for line in (directory / "out" / "unit.csv").read_text().splitlines()]
        return outcome.exit_code, (directory / "out" / "unit.json").read_bytes(), rows

    @pytest.mark.parametrize("exponent", [-100, -20, 20, 60, 200])
    def test_time_unit_changes_only_the_t_column(self, tmp_path, exponent):
        # The velocity is taken against the parameter over a power of two, and both residuals
        # are reported over the grid span, so scaling t by 2**k moves nothing but t.
        t, pts = helix_points(1.0, 2.0 * math.pi, 1.3, 2049)
        code, summary, rows = self.sampled_run(tmp_path / "unit", t, pts)
        assert code == 0
        code_k, summary_k, rows_k = self.sampled_run(tmp_path / "scaled", np.ldexp(t, exponent), pts)
        assert (code_k, summary_k) == (code, summary)
        assert [r[1:] for r in rows_k] == [r[1:] for r in rows]
        assert [float(r[0]) for r in rows_k[1:]] == [math.ldexp(float(r[0]), exponent) for r in rows[1:]]

    @pytest.mark.parametrize("exponent", [-1000, -600, 400, 1000])
    def test_time_unit_outside_window_refused_before_trajectory(self, monkeypatch, tmp_path, exponent):
        import fiberphase.scenario as scenario

        def refuse(path):
            raise AssertionError("tangent_trajectory called")

        monkeypatch.setattr(scenario, "tangent_trajectory", refuse)
        t, pts = helix_points(1.0, 2.0 * math.pi, 1.3, 1025)
        write_path_csv(tmp_path / "path.csv", np.ldexp(t, exponent), pts)
        data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0}}
        with pytest.raises(ConfigError, match=r"2\*\*-300, 2\*\*300") as err:
            run_scenario(parse_config(data, "far", base_dir=tmp_path), tmp_path / "out")
        assert err.value.field == "geometry.path_csv"
