"""tools/artifact_digest.py's compare on synthetic call records: no run is started."""

import importlib.util
import json
import math
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
JSON = {"status": "pass", "numerical": {"total_phase": 0.1, "invariant_drift": 0.0},
        "checks": [{"name": "norm_drift", "value": 1e-12, "pass": True}]}
CSV = "t,phi_geo,norm\n0,0,1\n0.5,0.25,1\n"


@pytest.fixture(scope="module")
def tool():
    # Importing the tool pins the BLAS threads and turns off bytecode writing: undone here.
    spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), mock.patch.object(sys, "dont_write_bytecode", sys.dont_write_bytecode):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare(tool):
    return tool.compare


def record(root: Path, files: dict, code=0, argv=("--scenario", "s")) -> dict:
    """One call's record as digest lists it, its output files written under root."""
    out = root / "out"
    out.mkdir(parents=True)
    for name, content in files.items():
        (out / name).write_text(content if isinstance(content, str) else json.dumps(content))
    return {"where": "w", "argv": [*argv, "--out", "out"], "code": code, "stdout": "", "stderr": "", "out": out}


def run_compare(compare, tmp_path, ours: dict, theirs: dict, **changes):
    return compare([record(tmp_path / "a", ours)], [record(tmp_path / "b", theirs, **changes)])


def with_value(key: str, value) -> dict:
    data = json.loads(json.dumps(JSON))
    data["numerical"][key] = value
    return data


def test_identical_records_report_no_change(compare, tmp_path):
    files = {"r.json": JSON, "r.csv": CSV}
    flips, moved = run_compare(compare, tmp_path, files, files)
    assert flips == []
    assert moved and set(moved.values()) == {0.0}
    assert moved["run.csv:phi_geo[]"] == 0.0 and moved["json:numerical.total_phase"] == 0.0


def test_one_ulp_reports_its_fields_max_difference(compare, tmp_path):
    ulp = math.nextafter(0.1, 1.0)
    csv_ulp = CSV.replace("0.25", repr(math.nextafter(0.25, 0.0)))
    flips, moved = run_compare(compare, tmp_path, {"r.json": JSON, "r.csv": CSV},
                               {"r.json": with_value("total_phase", ulp), "r.csv": csv_ulp})
    assert flips == []
    assert moved["json:numerical.total_phase"] == ulp - 0.1 > 0.0
    assert moved["run.csv:phi_geo[]"] == 0.25 - math.nextafter(0.25, 0.0) > 0.0
    assert moved["run.csv:norm[]"] == 0.0


def test_negative_zero_against_zero_is_a_flip(compare, tmp_path):
    flips, moved = run_compare(compare, tmp_path, {"r.json": JSON}, {"r.json": with_value("invariant_drift", -0.0)})
    assert flips == ["call000 w: --scenario s: r.json json:numerical.invariant_drift 0.0 -> -0.0"]
    assert moved["json:numerical.invariant_drift"] == 0.0


def test_changed_pass_bit_is_reported(compare, tmp_path):
    failed = json.loads(json.dumps(JSON))
    failed["checks"][0]["pass"] = False
    flips, _ = run_compare(compare, tmp_path, {"r.json": JSON}, {"r.json": failed})
    assert flips == ["call000 w: --scenario s: r.json json:checks[norm_drift].pass True -> False"]


def test_exit_code_change_is_reported(compare, tmp_path):
    flips, _ = run_compare(compare, tmp_path, {"r.json": JSON}, {"r.json": JSON}, code=1)
    assert flips == ["call000 w: --scenario s: code 0 -> 1"]


def test_file_on_one_side_only_is_reported(compare, tmp_path):
    flips, moved = run_compare(compare, tmp_path, {"r.json": JSON}, {"r.json": JSON, "r.csv": CSV})
    assert flips == ["call000 w: --scenario s: files ['r.csv'] in one checkout only"]
    assert set(moved.values()) == {0.0}


def test_different_calls_are_not_compared(compare, tmp_path):
    flips, moved = run_compare(compare, tmp_path, {"r.json": JSON}, {"r.json": JSON}, argv=("--scenario", "t"))
    assert flips == ["the two checkouts make different calls"] and moved == {}


def run_main(tool, monkeypatch, capsys, argv, *listings) -> tuple[int, str]:
    """(exit code, stdout) of main with digest stubbed to hand out the given listings in turn."""
    handed = iter(listings)

    def digest(checkout, seeds, scratch):
        listing = next(handed)
        return "d" * 64, listing, len(listing)

    monkeypatch.setattr(tool, "digest", digest)
    code = tool.main(argv)
    return code, capsys.readouterr().out


def listing(root: Path, files: dict, call_digest: str) -> list[dict]:
    return [{**record(root, files), "digest": call_digest}]


def test_main_exits_0_when_every_call_is_byte_identical(tool, monkeypatch, capsys, tmp_path):
    files = {"r.json": JSON, "r.csv": CSV}
    code, out = run_main(tool, monkeypatch, capsys, ["a", "--diff", "b"],
                         listing(tmp_path / "a", files, "x"), listing(tmp_path / "b", files, "x"))
    assert code == 0
    assert "1 of 1 calls byte-identical; 0 non-numeric changes" in out


def test_main_exits_1_when_any_call_differs(tool, monkeypatch, capsys, tmp_path):
    code, out = run_main(tool, monkeypatch, capsys, ["a", "--diff", "b"],
                         listing(tmp_path / "a", {"r.json": JSON}, "x"),
                         listing(tmp_path / "b", {"r.json": with_value("total_phase", 0.2)}, "y"))
    assert code == 1
    assert "0 of 1 calls byte-identical; 0 non-numeric changes" in out


def test_main_without_diff_exits_0(tool, monkeypatch, capsys, tmp_path):
    code, out = run_main(tool, monkeypatch, capsys, ["a"], listing(tmp_path / "a", {"r.json": JSON}, "x"))
    assert code == 0
    assert out == f"{'d' * 64}  1 calls, 1 files\n"
