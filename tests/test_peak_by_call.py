"""tools/peak_by_call.py's rise split and median table on synthetic child rows: no child is started."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_by_call.py"


@pytest.fixture(scope="module")
def tool():
    # Importing the tool turns off bytecode writing: undone here.
    spec = importlib.util.spec_from_file_location("peak_by_call", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", sys.dont_write_bytecode):
        spec.loader.exec_module(module)
    return module


def child_rows(offset=0):
    """One child's rows: the import, a run with all four phases, and a refused call with none."""
    return [
        {"id": "import", "exit": None, "vm_hwm_kib": 30000 + offset, "phases": []},
        {"id": "call000", "exit": 0, "vm_hwm_kib": 31500 + offset,
         "phases": [["trajectory", 30800 + offset], ["evolution", 31000 + offset], ["series", 31000 + offset],
                    ["csv", 31400 + offset]]},
        {"id": "call001", "exit": 2, "vm_hwm_kib": 31500 + offset, "phases": []},
    ]


def test_rise_is_split_into_phases_and_the_rest(tool):
    table = tool.split_rises(child_rows())
    assert [r["id"] for r in table] == ["import", "call000", "call001"]
    assert table[0]["rise"] == 30000 and table[0]["other"] == 30000
    run = table[1]
    assert (run["rise"], run["trajectory"], run["evolution"], run["series"], run["csv"], run["other"]) == (
        1500, 800, 200, 0, 400, 100)
    assert table[2]["rise"] == table[2]["other"] == 0


def test_phases_and_other_sum_to_the_rise(tool):
    # A phase read twice in one call (a sweep runs several trajectories) sums its rises; a fall back is negative.
    rows = [{"id": "import", "exit": None, "vm_hwm_kib": 100, "phases": []},
            {"id": "sweep", "exit": 0, "vm_hwm_kib": 160,
             "phases": [["trajectory", 120], ["evolution", 150], ["trajectory", 140], ["evolution", 170]]}]
    sweep = tool.split_rises(rows)[1]
    assert (sweep["trajectory"], sweep["evolution"], sweep["other"]) == (10, 60, -10)
    assert sum(sweep[c] for c in (*tool.PHASES, "other")) == sweep["rise"] == 60


def test_median_table_takes_each_cell_over_the_children(tool):
    tables = [tool.split_rises(child_rows(offset)) for offset in (0, 300, -100)]
    table = tool.median_table(tables)
    assert table[0]["vm_hwm_kib"] == 30000 and table[1]["vm_hwm_kib"] == 31500
    assert table[1]["rise"] == 1500 and table[1]["trajectory"] == 800
    assert [r["exit"] for r in table] == ["None", "0", "2"]
    odd = child_rows()
    odd[2]["exit"] = "ValueError"
    assert tool.median_table([tool.split_rises(child_rows()), tool.split_rises(odd)])[2]["exit"] == "2/ValueError"


def test_even_child_count_averages_the_middle_pair(tool):
    table = tool.median_table([tool.split_rises(child_rows(offset)) for offset in (0, 101)])
    assert table[-1]["vm_hwm_kib"] == 31550.5
