"""tools/bench_pairs.py's summary on synthetic result lines: no bench run is started."""

import importlib.util
import json
from pathlib import Path
from unittest import mock

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = {"run_seconds": 30, "end_to_end": [{"name": "wall_s", "unit": "s", "bound": 0.25},
                       {"name": "peak_rss_mb", "unit": "MiB", "bound": 0.1}]}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_stdout(wall_s: float, peak_rss_mb: float, failed: int = 0) -> str:
    """What bench/run.py prints: metric lines, then its one-line JSON result."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
    result = {"correct": True, "attempted": 20, "failed": failed, "metrics": metrics}
    return f"== w: why\n   wall_s {wall_s} s\n{json.dumps(result)}\n"


def pairs(tool, parent, change, workload="w"):
    """Runs as the tool records them, from (wall_s, peak_rss_mb[, failed]) per side and pair."""
    return [{"workload": workload, "seed": i, "seconds": 30, "first": "parent" if i % 2 == 0 else "change",
             "parent": tool.result_line(bench_stdout(*p)), "change": tool.result_line(bench_stdout(*c))}
            for i, (p, c) in enumerate(zip(parent, change))]


def checkouts(root, *specs):
    """A checkout per spec under root, named a, bb, cc, ...: a stub bench/run.py and that BENCHMARK.json."""
    paths = []
    for i, spec in enumerate(specs):
        path = root / ("a" if i == 0 else chr(ord("a") + i) * 2)
        (path / "bench").mkdir(parents=True)
        (path / "bench" / "run.py").write_text("")
        (path / "BENCHMARK.json").write_text(json.dumps(spec))
        paths.append(str(path))
    return paths


def test_result_line_reads_the_last_line(tool):
    assert tool.result_line(bench_stdout(0.5, 30.25, failed=1)) == {
        "wall_s": 0.5, "peak_rss_mb": 30.25, "failed": 1, "attempted": 20}


def test_timing_bounds_are_relative_and_memory_bounds_are_mib(tool):
    assert tool.bounds(SPEC) == {"wall_s": (0.25, True), "peak_rss_mb": (0.1, False)}


def test_summary_statistics_and_verdicts(tool):
    parent = [(1.0 + 0.01 * i, 30.0) for i in range(10)]
    # wall_s 40% lower in every pair; peak_rss_mb 0.2 MiB higher, over its 0.1 MiB bound.
    change = [(0.6 + 0.01 * i, 30.2) for i in range(10)]
    row = tool.summarize(pairs(tool, parent, change), tool.bounds(SPEC))["w"]
    assert row["pairs"] == 10
    assert row["failed"] == {"parent": 0, "change": 0} and row["attempted"] == {"parent": 200, "change": 200}
    wall = row["wall_s"]
    assert wall["parent_median"] == pytest.approx(1.045) and wall["change_median"] == pytest.approx(0.645)
    # statistics.quantiles' exclusive method on 1.00 ... 1.09.
    assert wall["parent_quartiles"] == pytest.approx([1.0175, 1.0725])
    assert wall["parent_iqr"] == pytest.approx(0.055)
    assert wall["change_lower"] == 10
    assert wall["bound"] == pytest.approx(0.25 * 1.045)
    assert wall["verdict"] == "better"
    rss = row["peak_rss_mb"]
    assert rss["bound"] == 0.1 and rss["change_minus_parent"] == pytest.approx(0.2)
    assert rss["verdict"] == "worse"


@pytest.mark.parametrize(
    "parent_wall, change_wall, verdict",
    [
        ([1.0] * 10, [0.9] * 8 + [1.2] * 2, "within bound"),
        ([1.0, 1.1] * 5, [0.999, 1.099] * 5, "within bound"),
        ([1.0] * 10, [1.3] * 10, "worse"),
        ([1.0] * 10, [0.5] * 10, "better"),
        ([1.0] * 10, [0.5] * 9 + [(0.5, 1)], "within bound"),
        ([(1.0, 1)] + [1.0] * 9, [0.5] * 9 + [(0.5, 1)], "better"),
    ],
    ids=["lower-in-eight-of-ten", "lower-by-less-than-the-iqr", "over-the-bound", "lower-in-all",
         "lower-in-all-with-a-failed-call", "lower-in-all-as-many-failed"],
)
def test_better_needs_nine_of_ten_a_gain_past_the_iqr_and_no_more_failed(tool, parent_wall, change_wall, verdict):
    # A pair side is wall_s, or (wall_s, failed calls).
    def side(w):
        wall, failed = w if isinstance(w, tuple) else (w, 0)
        return wall, 30.0, failed

    parent = [side(w) for w in parent_wall]
    change = [side(w) for w in change_wall]
    assert tool.summarize(pairs(tool, parent, change), tool.bounds(SPEC))["w"]["wall_s"]["verdict"] == verdict


def test_wide_parent_spread_is_unresolved(tool):
    parent = [(w, 30.0) for w in [0.5, 1.5] * 5]
    change = [(w, 30.0) for w in [0.55, 1.45] * 5]
    wall = tool.summarize(pairs(tool, parent, change), tool.bounds(SPEC))["w"]["wall_s"]
    assert wall["parent_iqr"] > wall["bound"]
    assert wall["verdict"] == "unresolved"


def test_document_keeps_earlier_runs_and_other_keys(tool):
    limits = tool.bounds(SPEC)
    first = tool.document({"note": "kept"}, pairs(tool, [(1.0, 30.0)] * 10, [(0.5, 30.0)] * 10, "a"), limits)
    doc = tool.document(first, pairs(tool, [(1.0, 30.0)] * 4, [(1.0, 30.0)] * 4, "b"), limits)
    assert doc["note"] == "kept"
    assert len(doc["runs"]) == 14 and sorted(doc["summary"]) == ["a", "b"]
    assert doc["summary"]["a"]["wall_s"]["verdict"] == "better"
    assert doc["summary"]["b"] == tool.summarize(doc["runs"][10:], limits)["b"]
    assert "MiB" in doc["bounds"]["reading"] and doc["bounds"]["peak_rss_mb"] == 0.1


@pytest.mark.parametrize(
    "checkout_specs, pairs_arg, message",
    [
        ([SPEC, SPEC], "2", "differ in length"),
        ([SPEC, SPEC, {**SPEC, "run_seconds": 10}], "2", "run_seconds"),
        ([SPEC, SPEC, SPEC], "0", "--pairs must be at least 1"),
    ],
    ids=["paths-of-unequal-length", "different-run-seconds", "no-pairs"],
)
def test_refused_before_any_run(tool, tmp_path, capsys, checkout_specs, pairs_arg, message):
    # Two checkouts are a and bb, whose paths differ in length; of three, bb and cc are compared.
    paths = checkouts(tmp_path, *checkout_specs)[-2:]
    out = tmp_path / "BENCH.json"
    with mock.patch.object(tool.subprocess, "run", side_effect=AssertionError("a run was started")):
        code = tool.main([*paths, "--workload", "w", "--pairs", pairs_arg, "--seed", "1", "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_runs_use_the_benchmark_run_seconds_and_alternate(tool, tmp_path):
    parent, change = checkouts(tmp_path, SPEC, SPEC, SPEC)[1:]
    calls = []

    def bench(argv, cwd, **kwargs):
        calls.append((Path(cwd).name, argv[argv.index("--seed") + 1], argv[argv.index("--seconds") + 1]))
        return tool.subprocess.CompletedProcess(argv, 0, bench_stdout(1.0, 30.0), "")

    out = tmp_path / "BENCH.json"
    with mock.patch.object(tool.subprocess, "run", side_effect=bench):
        assert tool.main([parent, change, "--workload", "w", "--pairs", "2", "--seed", "7", "--out", str(out)]) == 0
    assert calls == [("bb", "7", "30"), ("cc", "7", "30"), ("cc", "8", "30"), ("bb", "8", "30")]
    doc = json.loads(out.read_text())
    assert [r["seconds"] for r in doc["runs"]] == [30, 30] and doc["summary"]["w"]["pairs"] == 2
