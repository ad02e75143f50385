import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberphase import helix_points, parse_config
from fiberphase import runcsv, scenario
from test_scenario import WHOLE_ARRAYS, cone_config, write_path_csv


def percent_rows(block):
    """The '%.17g' text of a 2-D block, one '%' call per row."""
    line = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in block.tolist()).encode()


def row_loop_csv(summary, traj):
    """The run CSV text built one row at a time from the whole arrays of traj, phi_closed by the Simpson rule
    over samples 0..i."""
    from fiberphase.quadrature import cumulative_panes

    s3 = summary["spin_expectations"]["s3_attributed"]
    total, dynamical, geometric, norms = summary["_series"][4:]
    rate = traj.gamma_dot * (1.0 - np.cos(traj.lam))
    gamma = traj.gamma_from(None)[0]
    lines = ["t,lambda,gamma,phi_closed,phi_total,phi_dyn,phi_geo,norm"]
    for j, i in enumerate(range(0, len(traj.times), 2)):
        cum = cumulative_panes(rate[: i + 1], traj.times[: i + 1])[-1] if i else 0.0
        row = [traj.times[i], traj.lam[i], gamma[i], s3 * cum, total[j], dynamical[j], geometric[j], norms[j]]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def table_summary(table):
    """A summary whose run CSV is table (rows, 8)."""
    return {"_series": tuple(table.T)}


def powers_of_ten():
    """Every power of ten a double can hold, one ulp either side of it, and both signs."""
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    return np.concatenate([values, -values])


# Exact ties of the 17th digit: 1e14 + m/8 has 18 significant digits for odd m.
TIES = 1e14 + np.arange(4001) / 8.0
EXTREMES = np.array([5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0,
                     math.inf, -math.inf, math.nan, 2.2250738585072014e-308, 1e-280, 1e290])
FIXED = np.concatenate([powers_of_ten(), TIES, EXTREMES])


def as_table(values, cols=9):
    return np.resize(values, (math.ceil(len(values) / cols), cols))


class TestFormatBlock:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 9), st.data())
    def test_matches_percent_on_any_bit_pattern(self, rows, cols, data):
        # Raw float64 bit patterns: subnormals, both zeros, nan payloads and infinities included.
        bits = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=rows * cols, max_size=rows * cols))
        block = np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)
        assert runcsv.format_block(block) == percent_rows(block)

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e20, max_value=1e20),
                    min_size=9, max_size=45))
    def test_matches_percent_on_run_scale_values(self, values):
        block = as_table(np.array(values))
        assert runcsv.format_block(block) == percent_rows(block)

    @pytest.mark.parametrize("cols", [1, 4, 9])
    def test_fixed_cases_match_percent(self, cols):
        block = as_table(FIXED, cols)
        assert runcsv.format_block(block) == percent_rows(block)

    def test_fixed_cases_hold_ties_and_decade_round_ups(self):
        ties = [v for v in TIES if len(Decimal(v).normalize().as_tuple().digits) == 18]
        assert ties and all(Decimal(v).as_tuple().digits[-1] == 5 for v in ties)
        # A power of ten stored below its decade whose 17 digits round up to it, such as 1e-79.
        round_ups = [v for v in powers_of_ten() if v > 0 and Decimal(v).adjusted() < int(f"{v:.16e}".split("e")[1])]
        assert 1e-79 in round_ups

    @pytest.mark.parametrize("direction", [-math.inf, math.inf], ids=["low", "high"])
    def test_log10_one_ulp_off_changes_no_byte(self, monkeypatch, direction):
        # A log10 that misses by an ulp misjudges X at a power of ten; such cells must go to '%'.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
        block = as_table(powers_of_ten())
        assert not runcsv._words(block)[1].all()
        assert runcsv.format_block(block) == percent_rows(block)

    def test_slow_row_in_mid_block_keeps_row_order(self):
        block = as_table(np.linspace(0.1, 9.9, 90))
        block[4, 2] = math.nan
        block[5, 0] = 100000000000000.125  # an exact tie of the 17th digit
        assert runcsv._words(block)[1].all(axis=1).tolist() == [True] * 4 + [False] * 2 + [True] * 4
        text = runcsv.format_block(block)
        assert text == percent_rows(block)
        assert text.splitlines()[4].split(b",")[2] == b"nan"

    def test_run_values_take_the_fast_path(self):
        # Zeros, exact ones and the digits of a run's columns are proven: '%' formats none of them.
        block = as_table(np.array([0.0, -0.0, 1.0, 0.5, 1.8403023690217362, -2.38e-14, 3.5e-32, 7.85398163, 1e-5]))
        assert runcsv._words(block)[1].all()
        assert runcsv.format_block(block) == percent_rows(block)


    def test_table_builds_only_the_exponents_a_block_spans(self, monkeypatch):
        # Building all 572 exponents took about 5 ms on the first CSV of every process.
        full = runcsv._tables(0, runcsv._X_MAX - runcsv._X_MIN)
        table, built = runcsv._storage()
        fresh = (np.zeros_like(table), np.zeros_like(built))
        monkeypatch.setattr(runcsv, "_storage", lambda: fresh)
        spanned = set()
        for values in ([0.0, 1.0, 0.5, 1.8403023690217362, 7.85398163, 42.0], [-2.38e-14, 1e-5, 3e-9]):
            block = as_table(np.array(values))
            assert runcsv.format_block(block) == percent_rows(block)
            exponents = [math.floor(math.log10(abs(v))) if v else 0 for v in values]
            spanned |= set(range(min(exponents) - runcsv._X_MIN, max(exponents) - runcsv._X_MIN + 1))
            assert np.flatnonzero(fresh[1]).tolist() == sorted(spanned)
        for column, whole in zip(runcsv._tables(0, -1), full):
            assert np.array_equal(column[fresh[1]], whole[fresh[1]])
            assert not column[~fresh[1]].any()


class TestWriteRunCsv:
    @pytest.mark.parametrize("rows", [1, 2 * runcsv.BLOCK_ROWS + 3])
    def test_table_matches_percent(self, rows, tmp_path):
        table = as_table(np.resize(FIXED, rows * 8), 8)
        runcsv.write_run_csv(table_summary(table), tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == runcsv.HEADER + percent_rows(table)

    @staticmethod
    def sampled_run(tmp_path, steps, name):
        """(evaluate_scenario summary, trajectory) of a one-turn sampled helix of 2 * steps + 1 rows."""
        write_path_csv(tmp_path / f"{name}.path.csv", *helix_points(1.0, 2.0 * math.pi, 1.0, 2 * steps + 1))
        data = {"geometry": {"kind": "sampled", "path_csv": f"{name}.path.csv"}, "state": {"n_r": 1, "n_l": 0}}
        config = parse_config(data, name, base_dir=tmp_path)
        return scenario.evaluate_scenario(config), scenario._build_trajectory(config)

    def test_csv_writer_matches_row_loop(self, tmp_path):
        summary, traj = self.sampled_run(tmp_path, 256, "rows")
        runcsv.write_run_csv(summary, tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_text() == row_loop_csv(summary, traj)

    def test_csv_blocks_match_row_loop(self, tmp_path):
        # Three full row blocks and a partial fourth.
        rows = runcsv.BLOCK_ROWS
        summary, traj = self.sampled_run(tmp_path, 3 * rows + rows // 2, "blocks")
        runcsv.write_run_csv(summary, tmp_path / "blocks.csv")
        assert (tmp_path / "blocks.csv").read_text() == row_loop_csv(summary, traj)

    def test_csv_writer_memory_is_flat(self, tmp_path):
        runcsv.format_block(np.ones((1, 9)))  # the tables are built once per process
        extra = []
        for steps in (1024, 16384):
            summary = scenario.evaluate_scenario(parse_config(cone_config(steps=steps, n_max=1), "flat"))
            tracemalloc.start()
            try:
                runcsv.write_run_csv(summary, tmp_path / "flat.csv")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra.append(peak)
        # The writer holds one row block, whatever the step count.
        assert extra[1] <= extra[0] + 16 * 1024, extra

    @pytest.mark.parametrize("kind", ["cone", "helix"])
    def test_closed_form_run_builds_no_whole_array(self, kind, tmp_path, monkeypatch):
        # A helix or cone run reads its samples by rows: it never forms the azimuth rate, nor any whole array.
        built = []
        build = scenario._build_trajectory
        monkeypatch.setattr(scenario, "_build_trajectory", lambda config: built.append(build(config)) or built[-1])
        data = cone_config(steps=256)
        if kind == "helix":
            data["geometry"] = {"kind": "helix", "radius": 1.0, "pitch_per_turn": 3.0, "turns": 1.3}
        summary = scenario.evaluate_scenario(parse_config(data, kind))
        runcsv.write_run_csv(summary, tmp_path / f"{kind}.csv")
        assert len(built) == 1 and not set(WHOLE_ARRAYS) & built[0].__dict__.keys()

    @pytest.mark.parametrize("kind", ["cone", "sampled"])
    def test_gamma_column_unwraps_across_blocks(self, kind, tmp_path):
        # Five turns over 4096 steps: each of the expectations loop's state blocks of 1,365 rows (d = 3)
        # covers 1.67 turns, so the block edges fall in different wraps.
        if kind == "cone":
            geometry = {"kind": "cone", "polar_angle": 0.7, "turns": 5.0}
        else:
            write_path_csv(tmp_path / "wraps.path.csv", *helix_points(1.0, 2.0, 5.0, 8193))
            geometry = {"kind": "sampled", "path_csv": "wraps.path.csv"}
        data = {"geometry": geometry, "state": {"n_r": 1, "n_l": 0}, "n_max": 1}
        if kind == "cone":
            data["steps"] = 4096
        config = parse_config(data, kind, base_dir=tmp_path)
        summary = scenario.evaluate_scenario(config)
        runcsv.write_run_csv(summary, tmp_path / "wraps.csv")
        gamma = np.loadtxt(tmp_path / "wraps.csv", delimiter=",", skiprows=1)[:, 2]
        whole = scenario._build_trajectory(config).gamma_from(None)[0][::2]
        assert whole[-1] > 9.0 * math.pi
        assert np.array_equal(gamma.view(np.int64), whole.view(np.int64))
