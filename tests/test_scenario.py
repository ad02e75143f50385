import functools
import json
import math
import re
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


# The whole-grid arrays a trajectory can build; a cone builds its tangents and derivatives too.
WHOLE_ARRAYS = ("tangents", "derivatives", "precession_field", "unit_tangents", "motion_residual", "lam", "gamma_dot")


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


def one_amplitude(n_max):
    """The amplitude list of basis state (0, 0, 1), one photon in Cartesian mode 3, in the n_max box."""
    return {"amplitudes": [[0.0, 0.0]] + [[1.0, 0.0]] + [[0.0, 0.0]] * ((n_max + 1) ** 3 - 2)}


@pytest.fixture
def basis_builds(monkeypatch):
    """The n_max of each FockSpace.basis built while the test runs, in order."""
    from fiberphase.fock import FockSpace

    built = []
    build = FockSpace.basis.func

    def counted(space):
        built.append(space.n_max)
        return build(space)

    basis = functools.cached_property(counted)
    basis.__set_name__(FockSpace, "basis")
    monkeypatch.setattr(FockSpace, "basis", basis)
    return built


def write_path_csv(path, t, pts):
    with open(path, "w") as fh:
        fh.write("t,x,y,z\n")
        for ti, p in zip(t, pts):
            fh.write(f"{ti:.17g},{p[0]:.17g},{p[1]:.17g},{p[2]:.17g}\n")


class TestParseConfig:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(fuzz_configs(FUZZ_BASES, FUZZ_VALUES))
    # An amplitude list at an n_max whose box alone is over the memory budget builds no basis.
    @example({**FUZZ_BASES[3], "n_max": HUGE})
    @example({**FUZZ_BASES[3], "n_max": 10**6})
    def test_fuzzed_config_is_parsed_or_refused_by_field(self, data):
        tracemalloc.start()
        try:
            config = parse_config(data, "fuzz")
        except ConfigError as err:
            assert err.field
            assert tracemalloc.get_traced_memory()[1] < 100_000, err
        else:
            assert isinstance(config, ScenarioConfig)
        finally:
            tracemalloc.stop()

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
        # Each factor is in range, but turns * t_end rounds to 0: no turn is traced.
        data = cone_config(t_end=0.5)
        data["geometry"]["turns"] = 5e-324
        with pytest.raises(ConfigError, match="rounds to 0") as err:
            parse_config(data, "t")
        assert err.value.field == "t_end"

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
            ({"tolerance": HUGE}, "tolerance"),
            ({"n_max": HUGE, "state": {"amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}}, "n_max"),
        ],
        ids=["n_max", "n_max-negative", "steps-negative", "ordering", "n_r", "tolerance", "n_max-amplitudes"],
    )
    def test_int_past_digit_limit_is_config_error(self, extra, field):
        with pytest.raises(ConfigError) as err:
            parse_config(cone_config(**extra), "t")
        assert err.value.field == field
        assert "10^5000" in str(err.value)

    @pytest.mark.parametrize("key, out_of_range", [("n_max", 0), ("steps", 8), ("t_end", 2.0), ("tolerance", -1.0)])
    def test_top_level_field_has_one_name(self, key, out_of_range):
        # A wrong type and an out-of-range value of one key name the same field.
        for value in ("x", out_of_range):
            with pytest.raises(ConfigError) as err:
                parse_config(cone_config(**{key: value}), "t")
            assert err.value.field == key

    def test_amplitude_count_checked_before_any_work(self):
        data = cone_config(state={"amplitudes": [[1.0, 0.0]] * 8})
        with pytest.raises(ConfigError) as err:
            parse_config(data, "t")
        assert err.value.field == "state.amplitudes"
        assert err.value.message == "expected 27 amplitudes for n_max = 2, got 8"

    def test_amplitude_norm_checked_before_any_work(self, monkeypatch):
        import fiberphase.scenario as scenario

        def refuse(*args):
            raise AssertionError("cone_trajectory called")

        monkeypatch.setattr(scenario, "cone_trajectory", refuse)
        data = cone_config(steps=16384, n_max=1, state={"amplitudes": [[2.0, 0.0]] + [[0.0, 0.0]] * 7})
        with pytest.raises(ConfigError) as err:
            parse_config(data, "t")
        assert err.value.field == "state.amplitudes"
        assert err.value.message == "state norm 2.0 is not 1 within 1e-6"

    def test_medium_validation(self):
        data = cone_config(medium={"epsilon1": -1.0, "epsilon2": 2.0, "epsilon3": 1.0, "mu": 1.0, "omega": -1.0})
        with pytest.raises(ConfigError, match="omega"):
            parse_config(data, "t")

    def test_list_holding_an_int_too_long_to_print_is_shown_by_type(self):
        # json.loads refuses such an int, so only a mapping built in Python can carry one.
        with pytest.raises(ConfigError) as err:
            parse_config(cone_config(ordering=[HUGE]), "t")
        assert err.value.field == "ordering"
        assert err.value.message.endswith(", got a list holding an int too long to print")

    @pytest.mark.parametrize("radius", [0.0, -0.0, -1.0])
    def test_helix_radius_must_be_positive(self, radius):
        data = {"geometry": {"kind": "helix", "radius": radius, "pitch_per_turn": 6.0, "turns": 1.0},
                "state": {"n_r": 1, "n_l": 0}}
        with pytest.raises(ConfigError) as err:
            parse_config(data, "t")
        assert (err.value.field, err.value.message) == ("geometry.radius", "must be positive")

    @pytest.mark.parametrize("data", [[cone_config()], "cone", None, 3], ids=["list", "string", "null", "number"])
    def test_config_that_is_not_a_mapping_names_field_config(self, data):
        for call in (lambda: parse_config(data, "t"), lambda: apply_overrides(data, steps=64)):
            with pytest.raises(ConfigError) as err:
                call()
            assert (err.value.field, err.value.message) == ("config", "expected a mapping")

    def test_t_end_refused_with_sampled_geometry(self):
        data = {"geometry": {"kind": "sampled", "path_csv": "p.csv"}, "state": {"n_r": 1, "n_l": 0}, "t_end": 0.5}
        with pytest.raises(ConfigError) as err:
            parse_config(data, "t")
        assert (err.value.field, err.value.message) == ("t_end", "not supported with sampled geometry")


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
            # A number state is charged the box of its own photon number, not n_max's.
            ({"n_max": 10**6, "steps": 10**9}, "steps"),
            ({"steps": 10**9}, "steps"),
            ({"n_max": 3, "steps": 10**8}, "steps"),
            ({"steps": 10**400}, "steps"),
        ],
    )
    def test_oversize_config_refused_before_allocation(self, extra, field):
        err, peak = validation_peak(lambda: parse_config(cone_config(**extra), "t"))
        assert err.field == field
        assert "budget" in err.message
        assert peak < 100_000

    def test_sampled_geometry_checks_the_box(self, monkeypatch, basis_builds):
        import fiberphase.scenario as scenario

        # The 9261 amplitudes at n_max = 20 are charged 4.45 MB for the box, over a 1 MB budget.
        monkeypatch.setattr(scenario, "MEMORY_BUDGET_BYTES", 1_000_000)
        data = {"geometry": {"kind": "sampled", "path_csv": "p.csv"}, "state": one_amplitude(20), "n_max": 20}
        err, peak = validation_peak(lambda: parse_config(data, "t"))
        assert err.field == "n_max"
        # Below the about 170 bytes per box state that evaluate_scenario holds: no box was built.
        assert peak < 170 * 21**3
        assert basis_builds == []

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

    def test_turns_value_underflowing_t_end_refused_before_any_row(self, tmp_path):
        config = parse_config(cone_config(t_end=0.5), "s")
        with pytest.raises(ConfigError, match="rounds to 0") as err:
            sweep(config, "turns", [1.0, 5e-324], tmp_path)
        assert err.value.field == "sweep"
        assert not list(tmp_path.glob("*"))

    def test_sampled_path_sized_before_read(self, monkeypatch, tmp_path):
        import fiberphase.scenario as scenario

        t = np.linspace(0.0, 1.0, 8001)
        path_csv = tmp_path / "path.csv"
        table = np.column_stack([t, np.cos(t), np.sin(t), t])
        np.savetxt(path_csv, table, fmt="%.17g", delimiter=",", header="t,x,y,z", comments="")
        data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0}, "n_max": 1}
        config = parse_config(data, "long", base_dir=tmp_path)
        # 8001 rows need about 2.5 MB by the per-sample terms; the box and the evolution's scratch 1.3 MB.
        monkeypatch.setattr(scenario, "MEMORY_BUDGET_BYTES", 2_000_000)
        out = tmp_path / "out"
        err, peak = validation_peak(lambda: run_scenario(config, out))
        assert err.field == "geometry.path_csv"
        assert "budget" in err.message
        assert peak < path_csv.stat().st_size
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"n_max": 60, "steps": 256, "state": one_amplitude(60)}, "n_max"),  # the box, d = 3
            ({"steps": 16384}, "steps"),  # the trajectory samples
            ({"n_max": 8, "steps": 2048, "state": {"n_r": 8, "n_l": 0}}, "steps"),  # the stored states, d = 45
            ({"n_max": 3, "steps": 512, "state": {"amplitudes": [[0.125, 0.0]] * 64}}, "steps"),
            ({"n_max": 13, "polar": 0.2, "steps": 200, "state": {"n_r": 13, "n_l": 0}}, "steps"),  # scratch, d = 105
            ({"geometry": {"kind": "sampled", "path_csv": "path.csv"}}, "geometry.path_csv"),
        ],
        ids=["box", "samples", "states", "amplitudes", "scratch", "sampled"],
    )
    def test_estimate_covers_the_measured_peak(self, monkeypatch, tmp_path, extra, field):
        import fiberphase.scenario as scenario

        data = cone_config(**{"polar": 0.7, **extra})
        if "path_csv" in data["geometry"]:
            del data["steps"]
            t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, 8001)
            write_path_csv(tmp_path / "path.csv", t, pts)
        config = parse_config(data, "peak", base_dir=tmp_path)
        tracemalloc.start()
        try:
            scenario.run_scenario(config, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A budget of the measured peak leaves the config no room.
        monkeypatch.setattr(scenario, "MEMORY_BUDGET_BYTES", peak)
        with pytest.raises(ConfigError, match="memory budget") as err:
            scenario.evaluate_scenario(parse_config(data, "peak", base_dir=tmp_path))
        assert err.value.field == field

    def test_box_over_budget_builds_no_basis(self, monkeypatch, basis_builds):
        import fiberphase.scenario as scenario

        # 9261 amplitudes at n_max = 20: the box term alone, 4.45 MB, is over a 1 MB budget.
        monkeypatch.setattr(scenario, "MEMORY_BUDGET_BYTES", 1_000_000)
        state = {"amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 9260}
        with pytest.raises(ConfigError, match="memory budget") as err:
            parse_config(cone_config(n_max=20, steps=32, state=state), "t")
        assert err.value.field == "n_max"
        assert basis_builds == []

    def test_builtins_far_inside_budget(self):
        # Ten times the built-in steps at n_max = 6 is still accepted.
        for members in BUILTIN_SCENARIOS.values():
            for label, raw in members:
                parse_config(apply_overrides(raw, steps=10 * raw["steps"], n_max=6), label)


def equal_amplitudes(n_max):
    """The normalised state with one equal amplitude on every basis state of the n_max box."""
    count = (n_max + 1) ** 3
    return {"amplitudes": [[1.0 / math.sqrt(count), 0.0]] * count}


class TestWorkCap:
    def test_largest_number_state_the_work_cap_admits_is_accepted(self):
        # n_max = N = 11 at the most steps the work cap admits: 6 * 78**3 * 351208 = 9.99999e11 flops,
        # in about 0.64 GB of the memory budget.
        parse_config(cone_config(n_max=11, steps=351208, state={"n_r": 11, "n_l": 0}), "t")
        with pytest.raises(ConfigError) as err:
            parse_config(cone_config(n_max=11, steps=351209, state={"n_r": 11, "n_l": 0}), "t")
        assert err.value.field == "steps"
        assert "work cap" in err.value.message

    def test_over_cap_names_steps_when_fewer_steps_fit(self):
        import fiberphase.scenario as scenario

        # d = 1331 costs 1.41e10 flops a step: MIN_STEPS fits the cap, 4096 steps do not.
        parse_config(cone_config(n_max=10, steps=scenario.MIN_STEPS, state=equal_amplitudes(10)), "t")
        with pytest.raises(ConfigError) as err:
            parse_config(cone_config(n_max=10, steps=4096, state=equal_amplitudes(10)), "t")
        assert err.value.field == "steps"
        assert "work cap" in err.value.message and "dimension 1331" in err.value.message

    def test_over_cap_at_min_steps_names_the_photon_numbers(self):
        # N = 60 photons: d = 1891 costs 1.3e12 flops even at MIN_STEPS, in 0.7 GB of the memory budget.
        err, peak = validation_peak(lambda: parse_config(cone_config(n_max=60, state={"n_r": 60, "n_l": 0}), "t"))
        assert err.field == "state"
        assert "work cap" in err.message and "dimension 1891" in err.message
        assert peak < 100_000

    def test_over_cap_at_min_steps_names_the_amplitudes(self):
        # d = 2744 costs 3.97e12 flops even at MIN_STEPS; 4096 steps would run for hours.
        data = cone_config(polar=0.7, n_max=13, steps=4096, state=equal_amplitudes(13))
        with pytest.raises(ConfigError) as err:
            parse_config(data, "t")
        assert err.value.field == "state.amplitudes"
        assert "work cap" in err.value.message

    @pytest.mark.parametrize("occupied", [[0], [5], [3, 40, 700], list(range(0, 1000, 7))])
    def test_block_dimension_is_the_evolved_one(self, occupied):
        import fiberphase.scenario as scenario
        from fiberphase.fock import sector_generators

        space = build_space(3, 9)
        amplitudes = np.zeros(space.dimension, dtype=complex)
        amplitudes[occupied] = 1.0j / math.sqrt(len(occupied))
        config = parse_config(cone_config(n_max=9, steps=32, state={"amplitudes": [[z.real, z.imag] for z in amplitudes]}), "t")
        keep, _ = sector_generators(space, set(space.basis.sum(axis=1)[occupied].tolist()))
        assert scenario._block_dimension(config) == len(keep)

    def test_sampled_path_over_cap_refused_before_read(self, monkeypatch, tmp_path):
        import fiberphase.scenario as scenario

        # 201 rows are 100 steps: 1.41e12 flops on the d = 1331 block.
        t = np.linspace(0.0, 1.0, 201)
        write_path_csv(tmp_path / "path.csv", t, np.column_stack([np.cos(t), np.sin(t), t]))
        data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": equal_amplitudes(10), "n_max": 10}
        config = parse_config(data, "t", base_dir=tmp_path)
        monkeypatch.setattr(scenario, "load_path_csv", None)
        with pytest.raises(ConfigError) as err:
            scenario.evaluate_scenario(config)
        assert err.value.field == "geometry.path_csv"
        assert "a path of 201 rows" in err.value.message and "work cap" in err.value.message

    def test_step_count_named_by_the_guard_is_held_to_the_cap(self):
        import fiberphase.scenario as scenario

        # 125 amplitudes up to N = 12 on a 1000-turn cone pass the guard only
        # from about 486k steps, 5.7e12 flops on the d = 125 block.
        data = cone_config(polar=0.7, n_max=4, steps=32, state=equal_amplitudes(4))
        data["geometry"]["turns"] = 1000.0
        with pytest.raises(ConfigError) as err:
            scenario.evaluate_scenario(parse_config(data, "t"))
        assert err.value.field == "steps"
        assert "step-size guard" in err.value.message and "work cap" in err.value.message


class TestRunSpace:
    @pytest.mark.parametrize("n_max", [2, 241, 10**6, 2**52 - 1])
    def test_number_state_builds_only_the_box_of_its_photons(self, n_max, basis_builds):
        import fiberphase.scenario as scenario

        config = parse_config(cone_config(polar=0.7, n_max=n_max, steps=64), "t")
        summary = scenario.evaluate_scenario(config)
        assert basis_builds == [1]
        assert summary["numerical"]["sector_dimension"] == 3

    def test_amplitude_run_builds_the_basis_once(self, basis_builds):
        import fiberphase.scenario as scenario

        data = cone_config(polar=0.7, n_max=3, steps=512, state={"amplitudes": [[0.125, 0.0]] * 64})
        scenario.evaluate_scenario(parse_config(data, "t"))
        assert basis_builds == [3]

    def test_sampled_amplitude_run_builds_the_basis_once(self, tmp_path, basis_builds):
        import fiberphase.scenario as scenario

        t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, 257)
        write_path_csv(tmp_path / "path.csv", t, pts)
        data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": one_amplitude(3), "n_max": 3}
        scenario.evaluate_scenario(parse_config(data, "t", base_dir=tmp_path))
        assert basis_builds == [3]

    def test_one_photon_peak_does_not_grow_with_the_cutoff(self):
        import fiberphase.scenario as scenario

        peaks = []
        for n_max in (2, 10**6):
            config = parse_config(cone_config(polar=0.7, n_max=n_max, steps=4096), "t")
            tracemalloc.start()
            try:
                scenario.evaluate_scenario(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("n_max", [2**52, 10**200, HUGE], ids=["2**52", "10**200", "HUGE"])
    def test_n_max_past_the_photon_bound_refused(self, n_max):
        err, peak = validation_peak(lambda: parse_config(cone_config(n_max=n_max), "t"))
        assert err.field == "n_max"
        assert "2**52 - 1" in err.message
        assert peak < 100_000


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

    # Near -z, cos(lam) rounds to -1 and the closure's denominator sum cancels to 0.0, where atan2 reads pi/2.
    @pytest.mark.parametrize("t_end", [1.0, 0.4])
    @pytest.mark.parametrize("eps", [0.0, 1e-10, 5e-10, 2e-9, 5e-9, 1e-8])
    def test_cone_at_minus_z_passes(self, tmp_path, eps, t_end):
        outcome = run_scenario(parse_config(cone_config(polar=math.pi - eps, steps=256, t_end=t_end), "pole"), tmp_path)
        check = next(c for c in outcome.summary["checks"] if c["name"] == "numerical_vs_closed_form")
        assert check["pass"] is True, check
        assert outcome.exit_code == 0

    def test_downward_helix_passes(self, tmp_path):
        helix = {"kind": "helix", "radius": 1e-12, "pitch_per_turn": -1.0, "turns": 1.0}
        outcome = run_scenario(parse_config(cone_config(steps=256, geometry=helix), "down"), tmp_path)
        check = next(c for c in outcome.summary["checks"] if c["name"] == "numerical_vs_closed_form")
        assert check["pass"] is True, check
        assert outcome.exit_code == 0
        assert outcome.summary["closed_form"]["geodesic_closure"] == 0.0


class TestInvariantDrift:
    @pytest.mark.parametrize("name", ["chiao-helix-45", "multiphoton-21", "gyro-appendix"])
    def test_sign_flipped_generator_fails(self, monkeypatch, name):
        # A3 -> -A3 in the evolution's generators; <khat.S> then drifts by O(1).
        import fiberphase.phases as phases
        import fiberphase.scenario as scenario

        ((label, raw),) = BUILTIN_SCENARIOS[name]
        config = parse_config(raw, label)
        check = next(c for c in scenario.evaluate_scenario(config)["checks"] if c["name"] == "invariant_drift")
        assert check["pass"] is True and check["threshold"] == scenario.INVARIANT_TOL
        build = phases.sector_generators

        def flipped(space, sectors):
            keep, (a1, a2, a3) = build(space, sectors)
            return keep, (a1, a2, -a3)

        monkeypatch.setattr(phases, "sector_generators", flipped)
        summary = scenario.evaluate_scenario(config)
        check = next(c for c in summary["checks"] if c["name"] == "invariant_drift")
        assert check["value"] == summary["numerical"]["invariant_drift"] > 0.1
        assert check["pass"] is False and summary["status"] == "fail"

    def test_truncated_sector_has_no_invariant_check(self, tmp_path):
        # 0.6|(1,0,0)> + 0.8|(1,1,0)> at n_max = 1: the two-photon sector is cut off, so the algebra does not close.
        amplitudes = [[0.0, 0.0]] * 8
        amplitudes[4], amplitudes[6] = [0.6, 0.0], [0.8, 0.0]
        data = cone_config(n_max=1, state={"amplitudes": amplitudes})
        run_scenario(parse_config(data, "cut"), tmp_path)
        summary = json.loads((tmp_path / "cut.json").read_text())
        assert summary["numerical"]["sectors"] == [1, 2]
        assert summary["numerical"]["invariant_drift"] is None
        assert [c["name"] for c in summary["checks"]] == ["numerical_vs_closed_form", "norm_drift", "motion_identity"]


class TestCheckValues:
    """Each check's value and threshold as the artifacts carry them, so a mutated reduction or constant shows."""

    @staticmethod
    def drift_run(monkeypatch, tmp_path):
        # (2, 0) on a lambda = 0.7 cone at 256 steps: RK4 damps the norm a little every step, so the norm
        # drift (4.1e-10) is largest at the last boundary, and the invariant's max (1.6e-9) is about twice
        # its mean.  Every check passes.
        import fiberphase.scenario as scenario

        evolutions = []

        def keep(psi0, traj):
            evolutions.append(evolve(psi0, traj))
            return evolutions[-1]

        evolve = scenario.evolve_state
        monkeypatch.setattr(scenario, "evolve_state", keep)
        data = cone_config(0.7, 256, state={"n_r": 2, "n_l": 0})
        assert run_scenario(parse_config(data, "drift"), tmp_path).exit_code == 0
        (result,) = evolutions
        return result, json.loads((tmp_path / "drift.json").read_text()), (tmp_path / "drift.csv").read_text()

    def test_thresholds_are_pinned(self, monkeypatch, tmp_path):
        import fiberphase.phases as phases

        _, summary, _ = self.drift_run(monkeypatch, tmp_path)
        thresholds = {c["name"]: c["threshold"] for c in summary["checks"]}
        assert thresholds == {"numerical_vs_closed_form": 1e-4, "norm_drift": 1e-9, "invariant_drift": 1e-6,
                              "motion_identity": 1e-6}
        assert phases.OVERLAP_FLOOR == 1e-6

    def test_norm_drift_is_the_max_over_every_csv_row(self, monkeypatch, tmp_path):
        _, summary, text = self.drift_run(monkeypatch, tmp_path)
        lines = text.splitlines()
        column = lines[0].split(",").index("norm")
        drift = np.abs(np.array([float(line.split(",")[column]) for line in lines[1:]]) - 1.0)
        assert drift.argmax() == len(drift) - 1 and drift[-1] > drift[:-1].max()
        assert summary["numerical"]["norm_drift"] == drift.max()
        assert next(c for c in summary["checks"] if c["name"] == "norm_drift")["value"] == drift.max()

    def test_invariant_drift_is_the_max_not_the_mean(self, monkeypatch, tmp_path):
        result, summary, _ = self.drift_run(monkeypatch, tmp_path)
        drift = np.abs(result.invariants - result.invariants[0])
        assert drift.max() > 1.5 * drift.mean()
        assert summary["numerical"]["invariant_drift"] == drift.max()
        assert next(c for c in summary["checks"] if c["name"] == "invariant_drift")["value"] == drift.max()


class TestRunScenario:
    @pytest.mark.parametrize(
        "rows, warp",
        [(513, lambda s: s**1.5), (512, lambda s: s)],
        ids=["non-centred", "even-rows"],
    )
    def test_sampled_grid_refused_before_angles(self, monkeypatch, tmp_path, rows, warp):
        # A t = s^1.5 path has no RK4 pane with its midpoint centred; an even row count has no last pane.
        import fiberphase.scenario as scenario

        def refuse(path):
            raise AssertionError("tangent_trajectory called")

        monkeypatch.setattr(scenario, "tangent_trajectory", refuse)
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
        assert header == "t,lambda,gamma,phi_closed,phi_total,phi_dyn,phi_geo,norm"
        # guard metrics ship with every summary so checks are self-contained
        for key in ("max_h_dt_bound", "norm_drift", "invariant_drift"):
            assert key in summary["numerical"]
        assert [c["name"] for c in summary["checks"]] == [
            "numerical_vs_closed_form",
            "norm_drift",
            "invariant_drift",
            "motion_identity",
        ]

    def test_step_guard_refusal_names_steps_that_pass(self, tmp_path):
        import fiberphase.scenario as scenario
        from dataclasses import replace
        from fiberphase import cone_trajectory, evolve_state
        from fiberphase.phases import StepGuardError

        data = {"geometry": {"kind": "cone", "polar_angle": 0.7, "turns": 1000}, "state": {"n_r": 1, "n_l": 0},
                "n_max": 1, "steps": 4096}
        config = parse_config(data, "t")
        for steps, bound in ((4096, "9.882e-01"), (40477, "1.000e-01")):
            pattern = rf"= {bound} >= 0\.1 with steps = {steps}; passes with steps >= 40478$"
            with pytest.raises(ConfigError, match=pattern) as err:
                scenario.evaluate_scenario(replace(config, steps=steps))
            assert err.value.field == "steps"
        # The steps named pass evolve_state's guard; one fewer trips it.
        summary = scenario.evaluate_scenario(replace(config, steps=40478))
        assert summary["numerical"]["max_h_dt_bound"] < scenario.STEP_GUARD
        traj = cone_trajectory(0.7, 1000.0, 2 * 40477 + 1)
        with pytest.raises(StepGuardError, match="step-size guard violated"):
            evolve_state(build_photon_state(build_space(3, 1), 1, 0, k_hat=traj.tangents[0]), traj)
        # A sweep never evolves: the same template sweeps.
        _, csv_path = sweep(config, "lambda", [0.5], tmp_path)
        assert len(Path(csv_path).read_text().splitlines()) == 2

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(st.floats(0.05, 1.4), st.floats(0.5, 8.0), st.integers(1, 2), st.integers(32, 400))
    # At 309 steps the bound measured on the samples reads a few ulps above 0.1, where 2*pi*turns*sin(lambda)/309
    # reads just below it.
    @example(0.8141859496403081, 6.763078584223928, 1, 309)
    def test_step_guard_refuses_as_steps_what_evolve_state_refuses(self, polar, turns, photons, steps):
        import fiberphase.scenario as scenario
        from dataclasses import replace

        data = {"geometry": {"kind": "cone", "polar_angle": polar, "turns": turns},
                "state": {"n_r": photons, "n_l": 0}, "n_max": photons, "steps": steps}
        config = parse_config(data, "t")
        try:
            summary = scenario.evaluate_scenario(config)
        except ConfigError as err:
            assert err.field == "steps", err
            named = int(re.search(r"passes with steps >= (\d+)$", err.message).group(1))
            assert named > steps
            summary = scenario.evaluate_scenario(replace(config, steps=named))
        assert summary["numerical"]["max_h_dt_bound"] < scenario.STEP_GUARD

    @pytest.mark.parametrize("index, photons", [(0, 0), (1, 1), (18, 2)], ids=["vacuum", "one", "two"])
    def test_step_guard_reads_the_top_sector_of_amplitudes(self, index, photons):
        import fiberphase.scenario as scenario

        # At 64 steps an equatorial turn admits one photon (0.098) but not two (0.196).
        amplitudes = [[0.0, 0.0]] * 27
        amplitudes[index] = [1.0, 0.0]
        config = parse_config(cone_config(polar=math.pi / 2.0, steps=64, state={"amplitudes": amplitudes}), "t")
        if photons < 2:
            assert scenario.evaluate_scenario(config)["numerical"]["max_h_dt_bound"] < scenario.STEP_GUARD
        else:
            with pytest.raises(ConfigError, match="passes with steps >= 126$") as err:
                scenario.evaluate_scenario(config)
            assert err.value.field == "steps"

    def test_csv_row_count_and_columns(self, tmp_path):
        config = parse_config(cone_config(steps=128), "rows")
        run_scenario(config, tmp_path)
        lines = (tmp_path / "rows.csv").read_text().strip().splitlines()
        assert len(lines) == 130  # header + steps + 1
        assert all(len(line.split(",")) == 8 for line in lines[1:])

    def test_cone_phi_closed_is_s3_times_a_times_t(self, tmp_path):
        # A cone's A accrues at a constant rate: phi_closed = s3 * (A * t) at every step, bit for bit.
        data = cone_config(polar=1.0, steps=256, ordering="nonnormal_r", state={"n_r": 2, "n_l": 0})
        summary = run_scenario(parse_config(data, "cone"), tmp_path).summary
        s3 = summary["spin_expectations"]["s3_attributed"]
        a = summary["closed_form"]["anholonomy_integral"]
        table = np.loadtxt(tmp_path / "cone.csv", delimiter=",", skiprows=1)
        assert s3 == pytest.approx(2.5) and len(table) == 257
        assert np.array_equal(table[:, 3], s3 * (a * table[:, 0]))
        assert table[-1, 0] == 1.0 and table[-1, 3] == summary["closed_form"]["phi_attributed"]

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

    @pytest.mark.parametrize("kind", ["cone", "helix"])
    def test_closed_form_run_peak_per_step(self, kind, tmp_path):
        # A helix or cone reads its samples by rows, so a run's peak grows by its states and phase series:
        # 170 bytes per step measured, where the whole per-sample arrays made it 422.
        import fiberphase.scenario as scenario

        geometry = {"kind": "cone", "polar_angle": 0.7, "turns": 1.0}
        if kind == "helix":
            geometry = {"kind": "helix", "radius": 1.0, "pitch_per_turn": 3.0, "turns": 1.3}
        scenario.run_scenario(parse_config(cone_config(steps=64), "warm"), tmp_path)  # imports the CSV writer
        peaks = []
        for steps in (2048, 16384):
            config = parse_config(cone_config(steps=steps, geometry=geometry), kind)
            tracemalloc.start()
            try:
                scenario.run_scenario(config, tmp_path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (16384 - 2048) <= 224, peaks

    def sampled_trajectory(self, tmp_path, rows):
        """A sampled path of rows samples, built once untraced (a first read loads what it needs), and its config."""
        import fiberphase.scenario as scenario

        t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, rows)
        write_path_csv(tmp_path / "path.csv", t, pts)
        data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0}}
        config = parse_config(data, "rows", base_dir=tmp_path)
        return scenario._build_trajectory(config), config

    def test_sampled_trajectory_build_peak_per_row(self, tmp_path):
        # The tangents and derivatives are differenced a block at a time: 132 bytes per row measured at
        # 8,193 rows, where whole-grid temporaries made it 224.
        import fiberphase.scenario as scenario

        _, config = self.sampled_trajectory(tmp_path, 8193)
        tracemalloc.start()
        try:
            scenario._build_trajectory(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 8193 < 176, peak

    def test_anholonomy_leaves_no_whole_grid_arrays(self, tmp_path):
        # The rate is formed a block at a time: the running sums (32 KiB) are what is left, where the
        # unit tangents, lam and gamma_dot cached on the trajectory made it 352 KiB.
        traj, _ = self.sampled_trajectory(tmp_path, 8193)
        tracemalloc.start()
        try:
            running = traj.running_anholonomy()
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert left <= 64 * 1024, left
        assert len(running) == 4097

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

    @pytest.fixture
    def no_eigensolver(self, monkeypatch):
        # Every LAPACK eigensolver numpy offers raises: the first one a process
        # calls pages in about 1 MiB of RSS.
        def refuse(name):
            def solver(*args, **kwargs):
                raise AssertionError(f"np.linalg.{name} called")

            return solver

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse(name))

    def test_run_path_calls_no_eigensolver(self, no_eigensolver, tmp_path):
        # The evolution is built from matrix products alone.
        for name, members in BUILTIN_SCENARIOS.items():
            for label, raw in members:
                outcome = run_scenario(parse_config(raw, label), tmp_path / name)
                assert outcome.summary["status"] == "pass", label

    def test_library_operators_call_no_eigensolver(self, no_eigensolver):
        # Off the run path too, every operator is built from matrix products: V by one _expm per sector.
        from fiberphase import (
            cone_trajectory,
            evolution_operator_V,
            helicity_operator,
            lvn_residual,
            spin_fixed,
        )

        traj = cone_trajectory(0.7, 1.0, 65)
        k = np.array([math.sin(0.7), 0.0, math.cos(0.7)])
        for n_max in (1, 2, 3):
            space = build_space(3, n_max)
            spin = spin_fixed(space)
            operators = [evolution_operator_V(0.7, 0.3, space), helicity_operator(space, k), *spin]
            assert all(np.isfinite(op.entries).all() for op in operators)
            assert math.isfinite(lvn_residual(traj, space, traj.times[8]))

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

    def test_motion_check_can_fail_at_n_max_1(self, tmp_path):
        # A wobbling path differenced on 4097 rows stays within MOTION_TOL; on
        # 1025 rows the differencing error pushes the motion residual past it,
        # and the run fails at n_max = 1.
        import fiberphase.scenario as scenario

        motion = {}
        for rows in (4097, 1025):
            t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, rows)
            pts[:, 2] += 0.05 * np.sin(3.0 * math.pi * t)
            write_path_csv(tmp_path / "path.csv", t, pts)
            data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0}, "n_max": 1}
            summary = scenario.evaluate_scenario(parse_config(data, "wobble", base_dir=tmp_path))
            motion[rows] = next(c for c in summary["checks"] if c["name"] == "motion_identity")
            assert motion[rows]["value"] == summary["trajectory"]["motion_identity_residual"]
        assert 0.0 < motion[4097]["value"] <= scenario.MOTION_TOL and motion[4097]["pass"] is True
        assert motion[1025]["value"] > scenario.MOTION_TOL and motion[1025]["pass"] is False
        assert summary["status"] == "fail"

    def test_u_and_motion_residual_read_by_rows(self, monkeypatch, tmp_path):
        # One pass reads u and the residual at every sample for the step guard and the motion check; the
        # power form reads u at samples 0-2, and the expectations at the step boundaries.  A cone's
        # tangents are evaluated at every sample by those two passes, at samples 0-2, and at the first
        # and last sample: the CSV reads no trajectory.
        from fiberphase.geometry import ConeTrajectory

        samples = {}
        for cls, name in ((TangentTrajectory, "precession_field"), (TangentTrajectory, "motion_residual"),
                          (ConeTrajectory, "tangents")):
            build = getattr(cls, name).func

            def counted(traj, build=build, name=name):
                samples[name] = samples.get(name, 0) + len(traj.times)
                return build(traj)

            prop = functools.cached_property(counted)
            prop.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, prop)
        run_scenario(parse_config(cone_config(steps=64), "once"), tmp_path)
        assert samples == {"precession_field": 129 + 3 + 65, "motion_residual": 129, "tangents": 129 + 3 + 2 + 129}

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

    def test_epsilon2_value_classified_once(self, monkeypatch, tmp_path):
        # Validation classifies each value, and its row reads that verdict.
        import fiberphase.scenario as scenario

        calls = []
        original = scenario.classify

        def counted(*args):
            calls.append(args)
            return original(*args)

        config = parse_config(cone_config(medium={"epsilon1": 1e308, "epsilon2": 0.0, "epsilon3": 1.0, "mu": 1.0}), "s")
        monkeypatch.setattr(scenario, "classify", counted)
        values = [-1.0, 0.0, 1.0]
        _, csv_path = sweep(config, "epsilon2", values, tmp_path / "good")
        assert len(Path(csv_path).read_text().splitlines()) == 1 + len(values)
        assert len(calls) == len(values)
        # The plus branch's n^2 overflows at the last value.
        calls.clear()
        with pytest.raises(ConfigError, match="plus branch overflows") as err:
            sweep(config, "epsilon2", [*values, 1e308], tmp_path / "bad")
        assert err.value.field == "sweep"
        assert len(calls) == len(values) + 1
        assert not (tmp_path / "bad").exists()

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

        calls = {"cone_anholonomy": 0, "cone_trajectory": 0, "tangent_trajectory": 0, "load_path_csv": 0}
        for name in calls:
            original = getattr(scenario, name)

            def counted(*args, original=original, name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(scenario, name, counted)
        if kind == "sampled":
            write_path_csv(tmp_path / "path.csv", *helix_points(1.0, 2.0 * math.pi, 1.0, 257))
            data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0}}
            expected = {"cone_anholonomy": 0, "cone_trajectory": 0, "tangent_trajectory": builds, "load_path_csv": builds}
        else:
            data = cone_config(steps=16384)
            expected = {"cone_anholonomy": builds, "cone_trajectory": 0, "tangent_trajectory": 0, "load_path_csv": 0}
        config = parse_config(data, "s", base_dir=tmp_path)
        _, csv_path = sweep(config, parameter, values, tmp_path)
        assert len(Path(csv_path).read_text().splitlines()) == 1 + len(values)
        assert calls == expected

    def test_sweep_never_unwraps_the_azimuth(self, monkeypatch, tmp_path):
        # Only a sampled template builds a trajectory in a sweep, once for an n_R sweep.
        import fiberphase.geometry as geometry
        import fiberphase.scenario as scenario

        built = []
        original_build = scenario._build_trajectory

        def kept(config):
            built.append(original_build(config))
            return built[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("azimuth unwrapped in a sweep")

        write_path_csv(tmp_path / "path.csv", *helix_points(1.0, 2.0 * math.pi, 1.0, 257))
        data = {"geometry": {"kind": "sampled", "path_csv": "path.csv"}, "state": {"n_r": 1, "n_l": 0}}
        config = parse_config(data, "s", base_dir=tmp_path)
        monkeypatch.setattr(scenario, "_build_trajectory", kept)
        monkeypatch.setattr(geometry.np, "arctan2", refuse)
        values = list(range(8))
        _, csv_path = sweep(config, "n_R", values, tmp_path)
        assert len(Path(csv_path).read_text().splitlines()) == 1 + len(values)
        assert len(built) == 1 and "gamma" not in built[0].__dict__

    def test_sweep_scratch_memory_is_flat_in_steps(self, tmp_path):
        # A helix or cone row is closed form: no sample of any grid is built.
        peaks = []
        for steps in (16384, 131072):
            config = parse_config(cone_config(steps=steps), "flat")
            tracemalloc.start()
            try:
                sweep(config, "lambda", [0.3, 0.9, 2.1], tmp_path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 16 * 1024, peaks

    @pytest.mark.parametrize("kind", ["cone", "helix"])
    @pytest.mark.parametrize(
        "parameter, values",
        [("lambda", [0.0, 0.4, 1.1, math.pi]), ("turns", [0.5, 1.623527535179605, 2.3]), ("n_R", [0, 1, 5])],
        ids=["lambda", "turns", "n_R"],
    )
    def test_phase_rows_do_not_depend_on_steps(self, tmp_path, kind, parameter, values):
        # The closed form takes no samples, so a row reads the same at any step count.
        texts = []
        for steps in (64, 16384):
            template = cone_config(polar=0.7, steps=steps, t_end=0.75)
            if kind == "helix":
                template["geometry"] = {"kind": "helix", "radius": 0.5782702140627514,
                                        "pitch_per_turn": 14.569022633784593, "turns": 1.0}
            _, csv_path = sweep(parse_config(template, "s"), parameter, values, tmp_path / str(steps))
            texts.append(Path(csv_path).read_text())
        assert texts[0] == texts[1]
        assert len(texts[0].splitlines()) == 1 + len(values)

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
    # 2*pi*turns overflows at 1e308; at 5e306 only phi_closed would.
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


def route_gap(config) -> float:
    """numerical_vs_closed_form's value: the gap between the RK4 and closed-form geometric phases."""
    import fiberphase.scenario as scenario

    checks = scenario.evaluate_scenario(config)["checks"]
    return next(c["value"] for c in checks if c["name"] == "numerical_vs_closed_form")


class TestKnownDefects:
    """The three open defects, each asserting the outcome a fix must give; the fix flips its marker."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the comparison reads it as a helicity eigenstate: gap 0.701 rad (ROADMAP items 1, 19)")
    def test_amplitude_state_on_a_cone_matches_the_closed_form(self):
        # 0.6|x> + 0.8i|y> at n_max = 1: basis index 4 is (1, 0, 0), index 2 is (0, 1, 0).
        amplitudes = [[0.0, 0.0]] * 8
        amplitudes[4], amplitudes[2] = [0.6, 0.0], [0.0, 0.8]
        data = cone_config(polar=0.7, steps=1024, n_max=1, state={"amplitudes": amplitudes})
        assert route_gap(parse_config(data, "amplitude-cone")) <= 1e-4

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="the overlap floor refuses the run as runtime (ROADMAP item 13)")
    def test_one_photon_equatorial_cone_runs(self):
        data = cone_config(polar=math.pi / 2.0, steps=256, n_max=1)
        assert route_gap(parse_config(data, "equator")) <= 1e-4

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the closed form's chart is singular at -z: gap 1.39 rad (ROADMAP item 3)")
    def test_sampled_trace_through_minus_z_matches_the_closed_form(self, tmp_path):
        # A one-turn helix whose tangents circle 0.7 rad about +z, turned by pi - 0.7 about y: the circle meets -z.
        t, pts = helix_points(1.0, 2.0 * math.pi / math.tan(0.7), 1.0, 4097)
        c, s = math.cos(math.pi - 0.7), math.sin(math.pi - 0.7)
        write_path_csv(tmp_path / "pole.csv", t, pts @ np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]]))
        data = {"geometry": {"kind": "sampled", "path_csv": "pole.csv"}, "state": {"n_r": 1, "n_l": 0}}
        assert route_gap(parse_config(data, "pole", base_dir=tmp_path)) <= 1e-4
