"""The exit-code contract of the numeric CLI options.

Each case runs one command in process on the golden inputs with one numeric
option set to an extreme value.  Whatever the value, the command must end
with a documented exit code (0 ok, 2 usage, 3 validation, 4 numerical),
print no traceback and write no CSV data field that is inf or nan (for the
commands that write a `.tubes`, `.plc` or `.pts` file: no token of the file,
and the file passes `validate_file`).  Every other option keeps a value under
which the command exits 0, so the option under test is the one that decides.
"""

import math
import resource
import warnings
from pathlib import Path

import pytest

from heilbronn.cli import main
from heilbronn.formats import validate_file

GOLDEN = Path(__file__).resolve().parent / "golden"

VALUES = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-300", "1e308"]
# the integer --dim takes these instead: the dimensions around 2 and 3
DIMS = ["-1", "0", "1", "4"]

HIGHLOW = ["highlow-check", "-p", "pts3.pts", "-l", "lines3.plc", "--delta", "0.125"]

# (command, base argv that exits 0, the numeric options varied on it)
COMMANDS = [
    ("uniformize", ["uniformize", "-p", "lines3.plc", "--K", "2", "--delta", "0.3"],
     ["--K", "--delta"]),
    ("basic", HIGHLOW + ["--variant", "basic"], ["--delta", "--eps"]),
    ("refined", HIGHLOW + ["--variant", "refined"], ["--delta", "--eps"]),
    ("capped", HIGHLOW + ["--variant", "capped", "--nu", "100", "--kappa", "1",
                          "--M", "1000"],
     ["--delta", "--eps", "--nu", "--kappa", "--M"]),
    ("wellspaced", HIGHLOW + ["--variant", "wellspaced", "--K", "1000", "--A", "1e6",
                              "--C0", "1000"],
     ["--delta", "--eps", "--t1", "--t2", "--K", "--A", "--C0"]),
    ("plane-check", ["plane-check", "-p", "lines3.plc", "--delta", "0.125"],
     ["--delta", "--gamma"]),
    ("brush2", ["brush-check", "-t", "tubes2.tubes"], ["--t1", "--K", "--density", "--eps"]),
    ("brush3", ["brush-check", "-t", "tubes3.tubes", "--t1", "0.5", "--t2", "1.5"],
     ["--t1", "--t2", "--K", "--density", "--eps"]),
    ("two-ends", ["two-ends", "-t", "pencil48.tubes", "--delta", "0.015625", "--span", "0.25"],
     ["--delta", "--span", "--rich-constant"]),
    ("katz-tao-plc", ["katz-tao", "-p", "lines3.plc", "--delta", "0.125"], ["--delta"]),
    ("katz-tao-tubes", ["katz-tao", "-p", "tubes3.tubes", "--delta", "0.125"], ["--delta"]),
    ("gen-kt-tubes", ["gen", "katz-tao-tubes", "--dim", "3", "--delta", "0.125", "--count",
                      "12", "--seed", "5"], ["--delta", "--t1", "--t2"]),
    ("anneal", ["anneal", "--objective", "distance", "--n", "6", "--moves", "40",
                "--epochs", "5", "--seed", "2"], ["--t0", "--cooling", "--dim"]),
    ("anneal-triangle", ["anneal", "--objective", "triangle", "--n", "5", "--moves", "40",
                         "--epochs", "5", "--seed", "2"], ["--dim"]),
    ("gen-vertical", ["gen", "vertical", "--dim", "3", "--delta", "0.125"], ["--delta"]),
    ("gen-plane", ["gen", "plane", "--delta", "0.125"], ["--delta"]),
    ("gen-bush", ["gen", "bush", "--dim", "3", "--delta", "0.1"], ["--delta"]),
    ("gen-random-points", ["gen", "random-points", "--count", "8", "--seed", "1"], ["--dim"]),
    ("exponent-vertical", ["exponent", "--family", "vertical_count", "--dim", "3",
                           "--rungs", "0.25,0.125,0.0625"], ["--rungs"]),
    ("exponent-pipeline", ["exponent", "--family", "pipeline_area", "--dim", "3",
                           "--rungs", "64,128,256"], ["--rungs"]),
]
# commands that write a .tubes, .plc or .pts file instead of a CSV
FILES = {"gen-kt-tubes", "anneal", "anneal-triangle", "gen-vertical", "gen-plane", "gen-bush",
         "gen-random-points"}
# the rungs before the value under test, for the options that take a list
LISTS = {"exponent-vertical": "0.25,0.125,0.0625,", "exponent-pipeline": "64,128,256,"}

CASES = [(name, opt, LISTS.get(name, "") + value) for name, _, opts in COMMANDS
         for opt in opts for value in (DIMS if opt == "--dim" else VALUES)]
BASE = {name: argv for name, argv, _ in COMMANDS}


def _argv(name, out, *extra):
    """The base argv of `name` on the golden inputs, then `extra` (a later
    occurrence of an option wins) and the output path."""
    argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in BASE[name]]
    return argv + list(extra) + ["-o", str(out)]


def _data_fields(path):
    """The fields of the rows after the header of a CSV the CLI wrote."""
    rows = [r for r in path.read_text().splitlines() if not r.startswith("#")]
    return [f for r in rows[1:] for f in r.split(",")]


@pytest.fixture
def bounded_memory():
    """Cap this process's address space at 2 GB above its current size for
    one case, so that a command asking for too much (a uniformize ladder of
    10^9 scale triples did) fails with MemoryError instead of exhausting the
    machine."""
    statm = Path("/proc/self/statm")
    if not statm.exists():
        yield
        return
    size = int(statm.read_text().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + 2 * 1024**3
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("name", sorted(BASE))
def test_base_command_exits_zero(name, tmp_path):
    assert main(_argv(name, tmp_path / "out")) == 0


@pytest.mark.parametrize("name,opt,value", CASES)
def test_exit_code_documented(name, opt, value, tmp_path, capsys, bounded_memory):
    out = tmp_path / "out"
    try:
        # --opt=value, so that a value like -inf is not read as an option
        rc = main(_argv(name, out, f"{opt}={value}"))
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if name in FILES and out.exists():
        assert validate_file(str(out)) == []
    if rc == 0:
        written = out.with_name("out.cert.csv") if name == "uniformize" else out
        fields = written.read_text().split() if name in FILES else _data_fields(written)
        for field in fields:
            try:
                x = float(field)
            except ValueError:
                continue
            assert math.isfinite(x), f"{field} in {written.read_text()}"


@pytest.mark.parametrize("extra,message", [
    # w ** (-6 - eps) raised OverflowError
    (["--eps=1000"], "the basic high-low right-hand side is inf"),
    # w ** (-6 - eps) underflowed to 0 and the ratio was written as inf
    (["--eps=-1e308"], "the basic high-low right-hand side is 0.0"),
])
def test_basic_rhs_out_of_range_exits_four(extra, message, tmp_path, capsys):
    assert main(_argv("basic", tmp_path / "out", *extra)) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_uniformize_names_the_ladder_it_refuses(tmp_path, capsys, bounded_memory):
    # 996 scales would be about 10^9 scale triples
    assert main(_argv("uniformize", tmp_path / "out", "--delta=1e-300")) == 3
    assert ("delta=1e-300 and K=2.0 give a ladder of m=996 scales"
            in capsys.readouterr().err)


@pytest.mark.parametrize("name,option,message", [
    # exited 0 with "only 0 of 12 tubes accepted"
    ("gen-kt-tubes", "--t1=nan", "Katz-Tao exponents must be finite, got nan"),
    ("gen-kt-tubes", "--t2=-inf", "Katz-Tao exponents must be finite, got -inf"),
    # took 25 s on a 2-core VM and exited 0, probing about 960k box scales
    ("gen-kt-tubes", "--delta=1e-300", "delta=1e-300 gives a probe ladder of 996 scales"),
    # exited 0: a nan temperature rejected every worsening move
    ("anneal", "--t0=nan", "t0 must be finite and non-negative, got nan"),
    ("anneal", "--t0=inf", "t0 must be finite and non-negative, got inf"),
    # exited 3 only through numpy's "scale < 0"
    ("anneal", "--t0=-1", "t0 must be finite and non-negative, got -1.0"),
    # ran the whole schedule, then Line refused the dimension
    ("anneal", "--dim=4", "dim must be 2 or 3"),
])
def test_refused_value_exits_three(name, option, message, tmp_path, capsys):
    assert main(_argv(name, tmp_path / "out", option)) == 3
    assert message in capsys.readouterr().err


def test_anneal_skips_a_direction_that_overflows(tmp_path):
    # with t0 = 1e308 a rotated direction overflows; its nan unit vector
    # entered the state with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_argv("anneal", tmp_path / "out", "--t0=1e308")) == 0


@pytest.mark.parametrize("argv", [
    # each ended in an _ArrayMemoryError traceback (exit 1) under a 4 GB
    # address-space limit
    ["gen", "vertical", "--dim", "3", "--delta", "1e-9"],
    ["gen", "vertical", "--dim", "2", "--delta", "1e-9"],
    ["gen", "plane", "--delta", "1e-9"],
    ["gen", "bush", "--dim", "3", "--delta", "1e-9"],
    ["gen", "bush", "--dim", "2", "--delta", "1e-9"],
    ["exponent", "--family", "pipeline_area", "--dim", "3", "--rungs", "64,128,1e12"],
    # the same family sizes reached through the other size options
    ["gen", "bush", "--dim", "3", "--delta", "0.1", "--bushes", "100000"],
    ["gen", "st-grid", "--count", "1000000000000"],
    ["gen", "parabola", "--count", "1000000000000"],
    ["gen", "random-points", "--count", "1000000000000"],
    ["gen", "katz-tao-tubes", "--delta", "0.125", "--count", "1000000000000"],
])
def test_family_over_the_member_cap_exits_three(argv, tmp_path, capsys, bounded_memory):
    assert main(argv + ["-o", str(tmp_path / "out")]) == 3
    assert "asks for more members than the cap of 1048576" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
