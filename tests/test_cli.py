import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fiberphase import cli
from fiberphase.cli import main
from test_scenario import FUZZ_BASES, FUZZ_VALUES, fuzz_configs

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args, cwd=None):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env)


def run_cli(*args, cwd=None):
    return run_python("-m", "fiberphase", *args, cwd=cwd)


def error_field(capsys) -> str:
    """Field of the one-line JSON error report on stderr."""
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]["field"]


def test_list_scenarios(capsys):
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "chiao-helix-45" in out
    assert "vacuum-pair" in out


def test_builtin_scenario_passes(tmp_path):
    # The one test that runs the real `python -m fiberphase` entry point.
    r = run_cli("--scenario", "chiao-helix-45", "--steps", "512", "--out", str(tmp_path))
    assert r.returncode == 0
    assert "status: pass" in r.stdout
    assert (tmp_path / "chiao-helix-45.json").exists()
    assert (tmp_path / "chiao-helix-45.csv").exists()


def test_unknown_scenario_is_validation_error(tmp_path, capsys):
    assert main(["--scenario", "nope", "--out", str(tmp_path)]) == 2
    assert error_field(capsys) == "scenario"


def test_unknown_scenario_in_sweep_is_validation_error(tmp_path, capsys):
    assert main(["--scenario", "nope", "--sweep", "lambda=0.1", "--out", str(tmp_path)]) == 2
    assert error_field(capsys) == "scenario"


def test_malformed_config_names_field(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps(
            {
                "geometry": {"kind": "cone", "polar_angle": 0.5, "turns": 1.0},
                "state": {"n_r": 1, "n_l": 0},
                "n_max": -1,
            }
        )
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert error_field(capsys) == "n_max"


def test_missing_source_arguments(tmp_path):
    assert main(["--out", str(tmp_path)]) == 2


# The first three calls are refused; the fourth writes a sweep CSV; the last prints the help.
SHARED_PROCESS_CALLS = [
    ["--steps", "x"],
    ["--config", "a", "--scenario", "b"],
    [],
    ["--scenario", "chiao-helix-45", "--sweep", "lambda=0.1,0.7853981633974483"],
    ["--list-scenarios"],
    ["--help"],
]
# argparse loaded gettext at import and locale at its first message lookup.
PARSER_MODULES = ("argparse", "gettext", "locale")


def test_calls_in_one_process_match_a_fresh_process(tmp_path, monkeypatch):
    # Each call in one process must read as it does from its own interpreter, and load none of PARSER_MODULES.
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(shared)
    for i, args in enumerate(SHARED_PROCESS_CALLS):
        # The width alternates, so a width read once per process would show in the usage and the help.
        monkeypatch.setenv("COLUMNS", "60" if i % 2 else "120")
        argv = [*args, "--out", "runs"]
        out, err = io.StringIO(), io.StringIO()
        with monkeypatch.context() as m, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for name in PARSER_MODULES:
                m.setitem(sys.modules, name, None)  # an import of it raises ImportError
            code = main(argv)
        r = run_cli(*argv, cwd=fresh)
        assert (code, out.getvalue(), err.getvalue()) == (r.returncode, r.stdout, r.stderr), argv

    def artifacts(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    assert artifacts(shared) == artifacts(fresh)
    assert [str(p) for p in artifacts(shared)] == [str(Path("runs", "chiao-helix-45_sweep_lambda.csv"))]


def test_cli_loads_no_argparse_gettext_or_locale(tmp_path):
    # In a fresh interpreter, importing the CLI and one sweep call add nothing of the argument parser to start-up.
    code = (
        "import sys\n"
        "import fiberphase.cli\n"
        "argv = ['--scenario', 'chiao-helix-45', '--sweep', 'lambda=0.1', '--out', 'runs']\n"
        "print(fiberphase.cli.main(argv))\n"
        f"print(sorted(set({PARSER_MODULES!r}) & set(sys.modules)))\n"
    )
    r = run_python("-c", code, cwd=tmp_path)
    assert (r.returncode, r.stdout.splitlines()[-2:], r.stderr) == (0, ["0", "[]"], "")


def reference_parser():
    """The argparse parser main used before the flag table; abbreviations off, as the table reads none."""
    parser = argparse.ArgumentParser(
        prog="fiberphase",
        description="Run geometric-phase scenarios for photons in coiled fibres.",
        allow_abbrev=False,
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", metavar="PATH", help="JSON scenario config file")
    source.add_argument("--scenario", metavar="NAME", help="built-in scenario name")
    parser.add_argument("--out", metavar="DIR", default="runs", help="output directory (default: runs)")
    parser.add_argument("--steps", type=int, metavar="N", help="override integration steps")
    parser.add_argument("--nmax", type=int, metavar="N", help="override per-mode occupation cutoff")
    parser.add_argument("--tol", type=float, metavar="X", help="override comparison tolerance")
    parser.add_argument(
        "--sweep",
        metavar="PARAM=v1,v2,...",
        help="sweep one parameter (lambda, turns, n_R, n_L, epsilon2) using the config as template",
    )
    parser.add_argument("--list-scenarios", action="store_true", help="list built-in scenarios and exit")
    return parser


REFERENCE = reference_parser()
FLAGS = ["--config", "--scenario", "--out", "--steps", "--nmax", "--tol", "--sweep", "--list-scenarios",
         "-h", "--help"]
# Ints, floats, negative numbers (-1e-4 is not one to argparse), words, a value with a space, "-", "" and
# tokens that are no flag.  A "--" after "=" is left out: argparse strips it from an explicit value.
VALUES = ["64", "-5", "0.25", "-.5", "-1e-4", "1e3", "nan", "lambda=0.1,0.2", "chiao-helix-45", "x", "-", "",
          "-a b", "--conf", "--bogus"]
# A flag and a value (drawn twice as often), a flag=value token, or a flag, "--" or an unknown token alone.
FLAG_AND_VALUE = st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list)
ARGVS = st.lists(
    st.one_of(
        FLAG_AND_VALUE,
        FLAG_AND_VALUE,
        st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(lambda token: [token]),
        st.sampled_from([*FLAGS, "--", "x", "--conf"]).map(lambda token: [token]),
    ),
    max_size=4,
).map(lambda chunks: [token for chunk in chunks for token in chunk])


def parsed(parse, argv):
    """What parse makes of argv: its values by name, or the exit code; nothing it prints is kept."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except SystemExit as exc:  # argparse: 0 after the help, 2 for a usage error
            return exc.code
        except cli._UsageError:
            return 2
    return 0 if args is None else repr(sorted(vars(args).items()))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(ARGVS)
@example(["--steps=-5", "--steps", "7"])  # the last repeat wins
@example(["--steps", "-5", "--tol", "-.5"])
@example(["--scenario=b", "--config", "a"])
@example(["--config", "a", "--steps", "x", "--scenario", "b"])  # the first error in argv order
@example(["x", "-h"])  # an unknown token is refused only after the whole pass
@example(["--", "-h"])
@example(["--tol", "-1e-4"])
@example(["--sweep", "-a b", "--sweep=--conf"])
def test_flag_table_parses_as_argparse_did(argv):
    assert parsed(cli._parse_args, argv) == parsed(REFERENCE.parse_args, argv)


HELP_SPELLINGS = ["-h, --help", "--config PATH", "--scenario NAME", "--out DIR", "--steps N", "--nmax N", "--tol X",
                  "--sweep PARAM=v1,v2,...", "--list-scenarios"]


@pytest.mark.parametrize("columns", ["1", "20", "24", "25", "40", "45", "60", "80", "100", "160"])
def test_usage_and_help_are_laid_out_as_argparse_did(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    assert cli._usage(cli._width()) + "\n" == REFERENCE.format_usage()
    assert cli._help() + "\n" == REFERENCE.format_help()


def test_help_lists_every_flag_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--scenario", "chiao-helix-45", "--help", "--out", "o"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: fiberphase [-h] [--config PATH | --scenario NAME]")
    options = captured.out.partition("\noptions:\n")[2].splitlines()
    assert [line.split("  ")[1] for line in options if line.startswith("  -")] == HELP_SPELLINGS
    assert max(len(line) for line in captured.out.splitlines()) <= 78
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--conf", "a.json"], "unrecognized arguments: --conf a.json"),
        (["--scenario"], "argument --scenario: expected one argument"),
        (["--tol", "-1e-4"], "argument --tol: expected one argument"),
        (["--steps=1e3"], "argument --steps: invalid int value: '1e3'"),
        (["--config", "a.json", "--scenario", "b"], "argument --scenario: not allowed with argument --config"),
        (["--list-scenarios=1"], "argument --list-scenarios: ignored explicit argument '1'"),
    ],
    ids=["abbreviation", "missing-value", "dash-value", "bad-int", "config-and-scenario", "switch-value"],
)
def test_usage_error_returns_2_with_the_usage_on_stderr(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: fiberphase ")
    assert captured.err.endswith(f"\nfiberphase: error: {message}\n")
    assert not list(tmp_path.iterdir())


def test_config_file_run_with_overrides(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "geometry": {"kind": "cone", "polar_angle": math.pi / 4.0, "turns": 1.0},
                "state": {"n_r": 1, "n_l": 0},
                "ordering": "normal",
                "n_max": 2,
                "steps": 4096,
            }
        )
    )
    assert main(["--config", str(cfg), "--steps", "256", "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "run.json").read_text())
    assert summary["numerical"]["steps"] == 256


def test_sweep_from_cli(tmp_path):
    cfg = tmp_path / "tmpl.json"
    cfg.write_text(
        json.dumps(
            {
                "geometry": {"kind": "cone", "polar_angle": 0.5, "turns": 1.0},
                "state": {"n_r": 1, "n_l": 0},
                "steps": 1024,
            }
        )
    )
    argv = [
        "--config", str(cfg), "--sweep", "lambda=0.0,0.5235987755982988,0.7853981633974483",
        "--out", str(tmp_path / "o"),
    ]
    assert main(argv) == 0
    sweep_csv = tmp_path / "o" / "tmpl_sweep_lambda.csv"
    assert sweep_csv.exists()
    assert len(sweep_csv.read_text().strip().splitlines()) == 4


def test_bad_sweep_parameter(tmp_path):
    cfg = tmp_path / "tmpl.json"
    cfg.write_text(
        json.dumps(
            {
                "geometry": {"kind": "cone", "polar_angle": 0.5, "turns": 1.0},
                "state": {"n_r": 1, "n_l": 0},
            }
        )
    )
    assert main(["--config", str(cfg), "--sweep", "pitch=1,2", "--out", str(tmp_path)]) == 2


CONE = {"kind": "cone", "polar_angle": 0.5, "turns": 1.0}
# 5001 digits: more than json.loads will turn into an int.  json.dumps
# cannot write such an int either, so it goes into the file as a quoted
# string and the quotes are dropped afterwards.
HUGE_DIGITS = "9" * 5001
HELIX_NAN_RADIUS = {"kind": "helix", "radius": float("nan"), "pitch_per_turn": 6.0, "turns": 1.0}


@pytest.mark.parametrize(
    "config, args, field",
    [
        ({"geometry": CONE, "tolerance": float("inf")}, [], "tolerance"),
        ({"geometry": CONE, "tolerance": float("nan")}, [], "tolerance"),
        ({"geometry": HELIX_NAN_RADIUS}, [], "geometry.radius"),
        ({"geometry": CONE}, ["--sweep", "turns=nan"], "sweep"),
        ({"geometry": CONE}, ["--sweep", "n_L=1,-inf"], "sweep"),
        ({"geometry": CONE}, ["--sweep", "lambda= , "], "sweep"),
        ({"geometry": CONE, "state": {"amplitudes": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 7}, "n_max": 1},
         [], "state.amplitudes"),
        # Sizes whose memory estimate exceeds every float.
        ({"geometry": CONE, "n_max": 10**200}, [], "n_max"),
        ({"geometry": CONE, "steps": 10**400}, [], "steps"),
        (None, ["--scenario", "chiao-helix-45", "--nmax", str(10**110)], "n_max"),
        (None, ["--scenario", "chiao-helix-45", "--sweep", "n_R=1e300"], "sweep"),
        # Turns whose closed form overflows: 2*pi*turns itself, or only phi_closed.
        ({"geometry": {**CONE, "turns": 1e308}}, [], "geometry.turns"),
        ({"geometry": CONE}, ["--sweep", "turns=1,1e308"], "sweep"),
        ({"geometry": CONE}, ["--sweep", "turns=5e306"], "sweep"),
        # Ints past the interpreter's digit limit.
        ({"geometry": CONE, "n_max": HUGE_DIGITS}, [], "config"),
        ({"geometry": CONE, "steps": "-" + HUGE_DIGITS}, [], "config"),
        # A medium whose n^2 or propagation constant overflows, in the config or at one swept value.
        ({"geometry": CONE, "steps": 256, "medium": {"epsilon1": 1e308, "epsilon2": 1e308, "epsilon3": 1, "mu": 1}},
         [], "medium"),
        ({"geometry": CONE, "medium": {"epsilon1": 1e300, "epsilon2": 0, "epsilon3": 1, "mu": 1, "omega": 1e300}},
         [], "medium"),
        ({"geometry": CONE, "medium": {"epsilon1": 1, "epsilon2": 2, "epsilon3": 1, "mu": 1e300}},
         ["--sweep", "epsilon2=1e10"], "sweep"),
    ],
    ids=["tolerance-inf", "tolerance-nan", "radius-nan", "sweep-nan", "sweep-minus-inf", "sweep-empty", "amplitude-nan",
         "n_max-1e200", "steps-1e400", "scenario-nmax-1e110", "scenario-sweep-n_R-1e300",
         "turns-1e308", "sweep-turns-1e308", "sweep-turns-5e306",
         "n_max-5001-digits", "steps-5001-digits", "medium-n-squared-overflow",
         "medium-constant-overflow", "sweep-epsilon2-overflow"],
)
def test_non_finite_input_rejected_before_work(tmp_path, capsys, config, args, field):
    out = tmp_path / "out"
    argv = ["--out", str(out), *args]
    if config is not None:
        # json.dumps writes the non-standard NaN/Infinity tokens that json.loads accepts.
        cfg = tmp_path / "nonfinite.json"
        text = json.dumps({"state": {"n_r": 1, "n_l": 0}, "steps": 64, **config})
        cfg.write_text(re.sub(f'"(-?{HUGE_DIGITS})"', r"\1", text))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"]["field"] == field
    assert not out.exists()


def test_over_work_cap_refused_before_any_trajectory(tmp_path, capsys, monkeypatch):
    # 2744 equal amplitudes at n_max = 13: 4096 RK4 steps on the whole box would take hours.
    import fiberphase.scenario as scenario

    def no_trajectory(*args):
        raise AssertionError("trajectory built")

    monkeypatch.setattr(scenario, "cone_trajectory", no_trajectory)
    cfg = tmp_path / "big.json"
    amplitudes = [[1.0 / math.sqrt(2744), 0.0]] * 2744
    cfg.write_text(json.dumps({"geometry": {**CONE, "polar_angle": 0.7}, "state": {"amplitudes": amplitudes},
                               "n_max": 13, "steps": 4096}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["field"] == "state.amplitudes"
    assert "work cap" in err["message"]
    assert not out.exists()


def test_one_photon_run_gives_the_same_phase_bits_at_every_cutoff(tmp_path):
    # A one-photon run evolves the same d = 3 block, in the same box, at every cutoff.
    summaries = []
    for n_max in (2, 14, 241, 10**6, 2**52 - 1):
        cfg = tmp_path / f"cone-{n_max}.json"
        cfg.write_text(json.dumps({"geometry": {**CONE, "polar_angle": 0.7}, "state": {"n_r": 1, "n_l": 0},
                                   "n_max": n_max, "steps": 4096}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
        summaries.append(json.loads((tmp_path / f"cone-{n_max}.json").read_text()))
    small = summaries[0]
    for large in summaries[1:]:
        assert small["numerical"] == large["numerical"]
        assert small["closed_form"] == large["closed_form"]


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_is_validation_error(tmp_path, capsys, kind):
    cfg = tmp_path / "cfg.json"
    if kind == "directory":
        cfg.mkdir()
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"]["field"] == "config"


@pytest.mark.parametrize(
    "args, blocked",
    [
        (["--config", "run.json"], "out"),
        (["--scenario", "vacuum-pair", "--steps", "64"], "out"),
        (["--scenario", "chiao-helix-45", "--sweep", "lambda=0.5"], "out"),
        (["--config", "run.json"], "out/run.csv"),
        (["--scenario", "vacuum-pair", "--steps", "64"], "out/vacuum-pair.json"),
    ],
    ids=["run", "group", "sweep", "artifact", "group-summary"],
)
def test_unwritable_out_is_field_out(tmp_path, capsys, args, blocked):
    # An --out that is a regular file cannot become the output directory; a directory cannot become a CSV.
    (tmp_path / "run.json").write_text(json.dumps({"geometry": CONE, "state": {"n_r": 1, "n_l": 0}, "steps": 64}))
    if blocked == "out":
        (tmp_path / "out").write_text("")
    else:
        (tmp_path / blocked).mkdir(parents=True)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["field"] == "out"
    assert error["message"].startswith("cannot write the output: [Errno "), error
    assert repr(str(tmp_path / blocked)) in error["message"], error


@pytest.mark.parametrize("document", ["[1, 2]", '"x"', "null", "3"], ids=["list", "string", "null", "number"])
def test_non_object_config_is_validation_error(tmp_path, capsys, document):
    cfg = tmp_path / "top.json"
    cfg.write_text(document)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"]["field"] == "config"


PATH_ROWS = "t,x,y,z\n0,1,0,0\n0.5,0,1,0.5\n1,-1,0,1\n"
# Nine points of a helix at t = s^1.5: no RK4 pane has its midpoint centred.
WARPED_ROWS = "t,x,y,z\n" + "".join(
    f"{(i / 8) ** 1.5!r},{math.cos(i / 4)!r},{math.sin(i / 4)!r},{i / 8!r}\n" for i in range(9)
)


@pytest.mark.parametrize(
    "name, text",
    [
        ("missing.csv", None),
        ("folder", None),
        ("header.csv", PATH_ROWS.replace("t,x,y,z", "t,x,y")),
        ("empty.csv", "t,x,y,z\n\n"),
        ("garbled.csv", PATH_ROWS.replace("0.5,0,1", "0.5,zero,1")),
        ("warped.csv", WARPED_ROWS),
    ],
    ids=["missing-file", "directory", "bad-header", "no-rows", "unparsable-row", "non-centred"],
)
def test_sampled_path_errors_name_the_path(tmp_path, capsys, name, text):
    if name == "folder":
        (tmp_path / name).mkdir()
    elif text is not None:
        (tmp_path / name).write_text(text)
    cfg = tmp_path / "sampled.json"
    cfg.write_text(json.dumps({"geometry": {"kind": "sampled", "path_csv": name}, "state": {"n_r": 1, "n_l": 0}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert error_field(capsys) == "geometry.path_csv"


def test_path_that_is_not_utf8_names_the_path(tmp_path, capsys):
    # The size check decodes the file as the load does, so a byte that is not UTF-8 is refused before any work.
    (tmp_path / "latin1.csv").write_bytes(PATH_ROWS.replace("0.5,0,1", "0.5,0,1\xa0").encode("latin-1"))
    cfg = tmp_path / "latin1.json"
    cfg.write_text(json.dumps({"geometry": {"kind": "sampled", "path_csv": "latin1.csv"}, "state": {"n_r": 1, "n_l": 0}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["field"] == "geometry.path_csv" and "'utf-8' codec can't decode byte 0xa0" in error["message"]


def fast_value(value) -> bool:
    """False for an int that the checks admit as a step count (to about 3.6 million) yet would take long to run;
    a number state's run costs the same at every n_max."""
    return not (isinstance(value, int) and not isinstance(value, bool) and 64 < value < 10**7)


# Configs that run in a few milliseconds: short grids, and values that keep them short.
CLI_BASES = tuple(base if base["geometry"]["kind"] == "sampled" else {**base, "steps": 64} for base in FUZZ_BASES)
CLI_VALUES = FUZZ_VALUES.filter(fast_value)
CONFIG_DOCUMENTS = st.one_of(
    fuzz_configs(CLI_BASES, CLI_VALUES),
    CLI_VALUES,
    st.dictionaries(st.text(max_size=4), CLI_VALUES, max_size=3),
)


def helix_csv(rows):
    """One helix turn of radius 1 and pitch 2*pi as a path CSV of rows samples, t from 0 to 1."""
    n = rows - 1
    return "t,x,y,z\n" + "".join(
        f"{i / n!r},{math.cos(2 * i * math.pi / n)!r},{math.sin(2 * i * math.pi / n)!r},{2 * i * math.pi / n!r}\n"
        for i in range(rows)
    )


# The sampled base's p.csv.
HELIX_CSV = helix_csv(129)
# The one numerical guard reported as field "runtime".  A run that meets the
# step guard is refused as the field that refines its grid: "steps" for a
# helix or cone, "geometry.path_csv" for a sampled path.
OVERLAP_FLOOR = "phase extraction ill-conditioned"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(CONFIG_DOCUMENTS)
# Each factor is in range, but turns * t_end rounds to 0 turns.
@example({"geometry": {"kind": "cone", "polar_angle": 0.5, "turns": 5e-324}, "state": {"n_r": 1, "n_l": 0},
          "steps": 64, "t_end": 0.5})
# 1000 turns need 40478 steps; at 4096 the run-time guard reads 9.882e-01.
@example({"geometry": {"kind": "cone", "polar_angle": 0.7, "turns": 1000}, "state": {"n_r": 1, "n_l": 0},
          "n_max": 1, "steps": 4096})
# Three photons on p.csv's 64 steps: the step guard reads 2.083e-01, refused as the path.
@example({"geometry": {"kind": "sampled", "path_csv": "p.csv"}, "state": {"n_r": 3, "n_l": 0}, "n_max": 3})
# The bound measured on the samples reads a few ulps above 0.1 at 309 steps.
@example({"geometry": {"kind": "cone", "polar_angle": 0.8141859496403081, "turns": 6.763078584223928},
          "state": {"n_r": 1, "n_l": 0}, "n_max": 1, "steps": 309})
# n_plus^2 overflows.
@example({"geometry": {"kind": "cone", "polar_angle": 0.5, "turns": 1.0}, "state": {"n_r": 1, "n_l": 0}, "steps": 256,
          "medium": {"epsilon1": 1e308, "epsilon2": 1e308, "epsilon3": 1, "mu": 1}})
def test_fuzzed_config_file_exits_cleanly(tmp_path_factory, document):
    # json.dumps cannot write an int past the interpreter's digit limit, so
    # such an int is written as a quoted marker and the digits put in after.
    def encode(value):
        if isinstance(value, int) and not isinstance(value, bool) and abs(value) > 10**4000:
            return "-@HUGE@" if value < 0 else "@HUGE@"
        if isinstance(value, list):
            return [encode(v) for v in value]
        if isinstance(value, dict):
            return {k: encode(v) for k, v in value.items()}
        return value

    work = tmp_path_factory.mktemp("fuzz")
    (work / "p.csv").write_text(HELIX_CSV)
    cfg = work / "doc.json"
    text = json.dumps(encode(document))
    cfg.write_text(text.replace('"@HUGE@"', HUGE_DIGITS).replace('"-@HUGE@"', "-" + HUGE_DIGITS))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "--out", str(work / "out")])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["field"]
        assert not list((work / "out").glob("*")), error
        assert error["field"] != "runtime" or error["message"].startswith(OVERLAP_FLOOR), error
        if error["message"].startswith("step-size guard"):
            sampled = document["geometry"]["kind"] == "sampled"
            assert error["field"] == ("geometry.path_csv" if sampled else "steps"), error


def test_sampled_path_step_guard_names_the_path(tmp_path):
    # 33 rows are 16 RK4 steps of 1/16 over one helix turn: N |u| dt = 2 pi sin(pi/4) / 16 = 0.28.
    (tmp_path / "coarse.csv").write_text(helix_csv(33))
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({"geometry": {"kind": "sampled", "path_csv": "coarse.csv"}, "state": {"n_r": 1, "n_l": 0}}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(err.getvalue())["error"]
    assert error == {"field": "geometry.path_csv",
                     "message": "step-size guard violated: bound max|H|*dt = 2.778e-01 >= 0.1; refine the grid"}
    assert not list((tmp_path / "out").glob("*"))


def test_path_window_refusal_prints_plain_floats(tmp_path):
    # t scaled by 1e-200: 1,024 intervals of about 1e-203, far under the window's 2**-300.
    (tmp_path / "tiny.csv").write_text("t,x,y,z\n" + "".join(
        f"{1e-200 * i / 1024!r},{math.cos(i / 100)!r},{math.sin(i / 100)!r},{i / 1024!r}\n" for i in range(1025)))
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"geometry": {"kind": "sampled", "path_csv": "tiny.csv"}, "state": {"n_r": 1, "n_l": 0}}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(err.getvalue())["error"]
    assert error == {"field": "geometry.path_csv",
                     "message": "parameter intervals and span must lie in [2**-300, 2**300], got intervals from "
                                "9.765624999998668e-204 over a span of 1e-200"}
    assert "np.float64" not in err.getvalue()


def test_overlap_floor_names_a_plain_time(tmp_path):
    # On the equator a one-photon state is orthogonal to itself half a turn on.
    cfg = tmp_path / "equator.json"
    cfg.write_text(json.dumps({"geometry": {"kind": "cone", "polar_angle": math.pi / 2.0, "turns": 1.0},
                               "state": {"n_r": 1, "n_l": 0}, "n_max": 1, "steps": 256}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(err.getvalue())["error"]
    assert error["field"] == "runtime"
    assert error["message"].startswith("phase extraction ill-conditioned")
    assert error["message"].endswith(" at t = 0.5"), error


@pytest.mark.parametrize(
    "args, message",
    [
        (["--scenario", "chiao-helix-45", "--sweep", "lambda"], "expected PARAM=v1,v2,..."),
        (["--scenario", "chiao-helix-45", "--sweep", "lambda=0.1,x"], "could not parse values from '0.1,x'"),
        (["--scenario", "vacuum-pair", "--sweep", "lambda=0.1"], "sweeps need a single-run scenario as template"),
        (["--scenario", "chiao-helix-45", "--sweep", "lambda=3.5"], "lambda value 3.5 outside [0, pi]"),
        (["--config", "sampled.json", "--sweep", "turns=2"], "lambda/turns sweeps need helix or cone geometry"),
    ],
    ids=["no-values", "unparsable-value", "group-template", "lambda-past-pi", "sampled-turns"],
)
def test_sweep_refusal_names_field_sweep(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.csv").write_text(HELIX_CSV)
    (tmp_path / "sampled.json").write_text(
        json.dumps({"geometry": {"kind": "sampled", "path_csv": "p.csv"}, "state": {"n_r": 1, "n_l": 0}}))
    assert main([*args, "--out", "out"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {"field": "sweep", "message": message}}
    assert not (tmp_path / "out").exists()
