"""The exit-code contract of the numeric CLI options.

Each case runs one command in process on the golden inputs with one numeric
option set to an extreme value.  Whatever the value, the command must end
with a documented exit code (0 ok, 2 usage, 3 validation, 4 numerical),
print no traceback and write no CSV data field that is inf or nan (for the
commands that write a `.tubes`, `.plc` or `.pts` file: no token of the file,
and the file passes `validate_file`).  Every other option keeps a value under
which the command exits 0, so the option under test is the one that decides.
The commands whose numbers all come from a data file (`READERS`) take each
value as a factor on the point coordinates of a golden input instead.
"""

import argparse
import math
import resource
import warnings
from pathlib import Path

import numpy as np
import pytest

from heilbronn.cli import build_parser, main
from heilbronn.formats import _parse_file, _read_lines, _tube_record, validate_file, write_tubes
from heilbronn.tubes import Tube2D

GOLDEN = Path(__file__).resolve().parent / "golden"

VALUES = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-300", "1e308"]
# the integer --dim takes these instead: the dimensions around 2 and 3
DIMS = ["-1", "0", "1", "4"]
# and the other integer options these: a negative value, 0 and 1 (family
# sizes, seeds, move and epoch counts)
SIZES = {opt: ["-1", "0", "1"]
         for opt in ("--count", "--bushes", "--seed", "--seeds", "--n", "--moves", "--epochs")}

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
     ["--t1", "--t2", "--K", "--density", "--eps", "--seed"]),
    ("two-ends", ["two-ends", "-t", "pencil48.tubes", "--delta", "0.015625", "--span", "0.25"],
     ["--delta", "--span", "--rich-constant"]),
    ("katz-tao-plc", ["katz-tao", "-p", "lines3.plc", "--delta", "0.125"], ["--delta"]),
    ("katz-tao-tubes", ["katz-tao", "-p", "tubes3.tubes", "--delta", "0.125"], ["--delta"]),
    ("gen-kt-tubes", ["gen", "katz-tao-tubes", "--dim", "3", "--delta", "0.125", "--count",
                      "12", "--seed", "5"], ["--delta", "--t1", "--t2", "--count", "--dim"]),
    ("anneal", ["anneal", "--objective", "distance", "--n", "6", "--moves", "40",
                "--epochs", "5", "--seed", "2"],
     ["--t0", "--cooling", "--dim", "--n", "--moves", "--epochs", "--seed"]),
    ("anneal-triangle", ["anneal", "--objective", "triangle", "--n", "5", "--moves", "40",
                         "--epochs", "5", "--seed", "2"], ["--dim", "--n"]),
    ("gen-vertical", ["gen", "vertical", "--dim", "3", "--delta", "0.125"], ["--delta"]),
    ("gen-plane", ["gen", "plane", "--delta", "0.125"], ["--delta"]),
    ("gen-bush", ["gen", "bush", "--dim", "3", "--delta", "0.1"], ["--delta", "--bushes"]),
    ("gen-random-points", ["gen", "random-points", "--count", "8", "--seed", "1"],
     ["--dim", "--seed"]),
    ("gen-st-grid", ["gen", "st-grid", "--count", "8"], ["--count"]),
    ("gen-parabola", ["gen", "parabola", "--count", "16"], ["--count"]),
    ("conc-points", ["conc", "-p", "pts3.pts", "--mode", "points", "--w", "0.25"], ["--w"]),
    ("conc-lines", ["conc", "-p", "lines3.plc", "--mode", "lines", "--u", "0.125", "--w",
                    "0.25"], ["--u", "--w"]),
    ("conc-config", ["conc", "-p", "lines3.plc", "--mode", "config", "--u", "0.3", "--v",
                     "0.3", "--w", "0.3"], ["--u", "--v", "--w"]),
    ("exponent-vertical", ["exponent", "--family", "vertical_count", "--dim", "3",
                           "--rungs", "0.25,0.125,0.0625"], ["--rungs", "--seeds", "--dim"]),
    ("exponent-pipeline", ["exponent", "--family", "pipeline_area", "--dim", "3",
                           "--rungs", "64,128,256"], ["--rungs", "--dim"]),
    ("exponent-anneal-distance", ["exponent", "--family", "anneal_distance", "--dim", "2",
                                  "--rungs", "3,4,5"], ["--rungs", "--dim"]),
    ("exponent-anneal-triangle", ["exponent", "--family", "anneal_triangle", "--dim", "2",
                                  "--rungs", "3,4,5"], ["--rungs", "--dim"]),
    ("scan-b", ["scan-b", "-p", "pts3.pts", "-l", "lines3.plc", "--wmin", "0.125",
                "--wmax", "0.5"], ["--wmin", "--wmax"]),
    ("initial-est", ["initial-est", "-p", "lines3.plc", "--w", "0.25"], ["--w"]),
    ("double-count", ["double-count", "-p", "lines3.plc", "--w", "0.25"], ["--w"]),
]
# commands that write a .tubes, .plc or .pts file instead of a CSV
FILES = {"gen-kt-tubes", "anneal", "anneal-triangle", "gen-vertical", "gen-plane", "gen-bush",
         "gen-random-points", "gen-st-grid", "gen-parabola"}
# the rungs before the value under test, for the options that take a list
LISTS = {"exponent-vertical": "0.25,0.125,0.0625,", "exponent-pipeline": "64,128,256,",
         "exponent-anneal-distance": "3,4,5,", "exponent-anneal-triangle": "3,4,5,"}

CASES = [(name, opt, LISTS.get(name, "") + value) for name, _, opts in COMMANDS
         for opt in opts
         for value in (DIMS if opt == "--dim" else SIZES.get(opt, VALUES))]
BASE = {name: argv for name, argv, _ in COMMANDS}

# (command, argv with "{}" for its input, the golden input); the commands but
# validate write a CSV
READERS = {
    "dx": (["dx", "-p", "{}"], "lines3.plc"),
    "min-triangle-fast": (["min-triangle", "-p", "{}"], "random300.pts"),
    "min-triangle-brute": (["min-triangle", "--method", "brute", "-p", "{}"], "pts2.pts"),
    "pair-pipeline": (["pair-pipeline", "-p", "{}"], "pts3.pts"),
    "validate-pts": (["validate", "{}"], "pts3.pts"),
    "validate-plc": (["validate", "{}"], "lines3.plc"),
    "validate-tubes": (["validate", "{}"], "tubes3.tubes"),
}


def _argv(name, out, *extra):
    """The base argv of `name` on the golden inputs, then `extra` (a later
    occurrence of an option wins) and the output path."""
    argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in BASE[name]]
    return argv + list(extra) + ["-o", str(out)]


def _data_fields(path):
    """The fields of the rows after the header of a CSV the CLI wrote."""
    rows = [r for r in path.read_text().splitlines() if not r.startswith("#")]
    return [f for r in rows[1:] for f in r.split(",")]


def _assert_finite(fields, text):
    for field in fields:
        try:
            x = float(field)
        except ValueError:
            continue
        assert math.isfinite(x), f"{field} in {text}"


def _scaled(src, factor, out):
    """`src` with its point coordinates multiplied by `factor`: every field of
    a .pts row, the point and line base of a .plc row, the centre of a .tubes
    row (directions, widths and lengths kept)."""
    lines = src.read_text().splitlines()
    dim = int(lines[0].split()[2][len("dim="):])
    rows = lines[:1]
    for line in lines[1:]:
        f = line.split()
        for at in {"p": [1, dim + 2], "c": [1]}.get(f[0], [0]):
            f[at:at + dim] = [format(float(x) * float(factor), ".17g") for x in f[at:at + dim]]
        rows.append(" ".join(f))
    out.write_text("\n".join(rows) + "\n")
    return out


def _run_reader(name, factor, tmp_path):
    """(exit code, output path or None) of reader `name` on its golden input
    scaled by `factor`."""
    argv, src = READERS[name]
    inp = _scaled(GOLDEN / src, factor, tmp_path / src)
    argv = [str(inp) if a == "{}" else a for a in argv]
    out = None if argv[0] == "validate" else tmp_path / "out"
    try:
        rc = main(argv + (["-o", str(out)] if out else []))
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    return rc, out


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
        _assert_finite(fields, written.read_text())


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_base_exits_zero(name, tmp_path):
    assert _run_reader(name, "1", tmp_path)[0] == 0


@pytest.mark.parametrize("factor", VALUES)
@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_exit_code_documented(name, factor, tmp_path, capsys, bounded_memory):
    rc, out = _run_reader(name, factor, tmp_path)
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if rc == 0 and out is not None:
        _assert_finite(_data_fields(out), out.read_text())


@pytest.mark.parametrize("name,factor,message", [
    # wrote an inf area with exit 0, after numpy's "overflow encountered in multiply"
    ("min-triangle-fast", "1e308", "triangle areas overflow"),
    ("min-triangle-brute", "1e308", "triangle areas overflow"),
    # ended in an OverflowError traceback (exit 1) squaring the cell side
    ("pair-pipeline", "1e308", "squared distances overflow"),
    # wrote an area of 0 with exit 0, its squares below the smallest normal
    # float (and pair-pipeline at 1e-300 a max_pair_length and
    # config_distance of 0)
    ("min-triangle-fast", "1e-300", "triangle areas underflow"),
    ("min-triangle-brute", "1e-300", "triangle areas underflow"),
    ("pair-pipeline", "1e-300", "squared distances underflow"),
    ("pair-pipeline", "1e-150", "triangle areas underflow"),
    # wrote an inf area with exit 0: 12 s^4 overflows while d s^2 does not
    ("pair-pipeline", "1e100", "triangle areas overflow"),
])
def test_reader_refused_value_exits_four(name, factor, message, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_reader(name, factor, tmp_path)[0] == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["validate-pts", "validate-plc", "validate-tubes", "dx",
                                  "min-triangle-brute"])
def test_a_file_that_is_not_utf8_exits_three(name, tmp_path, capsys):
    # exited 3 with only the codec's message, naming neither the file nor
    # the line
    argv, src = READERS[name]
    data = (GOLDEN / src).read_bytes()
    at = data.index(b"\n") + 5
    inp = tmp_path / src
    inp.write_bytes(data[:at] + b"\xff" + data[at:])
    argv = [str(inp) if a == "{}" else a for a in argv]
    assert main(argv + ([] if name.startswith("validate") else ["-o", str(tmp_path / "out")])) == 3
    out, err = capsys.readouterr()
    assert f"{inp}: not UTF-8 text ('utf-8' codec can't decode byte 0xff" in out + err
    assert "Traceback" not in err


def _subcommands():
    """The CLI's subparsers action: its `choices` map each command to its parser."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def test_every_numeric_option_is_varied():
    # every int or float option of a command, and --rungs, is varied on one
    # of the command's rows
    sub = _subcommands()
    varied = {}
    for _, argv, opts in COMMANDS:
        varied.setdefault(argv[0], set()).update(opts)
    missing = [(command, a.option_strings) for command, parser in sub.choices.items()
               for a in parser._actions
               if (a.type in (int, float) or "--rungs" in a.option_strings)
               and not set(a.option_strings) & varied.get(command, set())]
    assert missing == []


def test_every_command_and_family_is_in_the_table():
    sub = _subcommands()
    argvs = list(BASE.values()) + [argv for argv, _ in READERS.values()]
    assert set(sub.choices) == {argv[0] for argv in argvs}
    family = next(a for a in sub.choices["gen"]._actions if a.dest == "family")
    assert set(family.choices) == {argv[1] for argv in argvs if argv[0] == "gen"}


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
    # made nan grid offsets (a RuntimeWarning), then refused their cells
    ("conc-points", "--w=inf", "w must be finite and positive"),
    # exited 3 only through numpy's "cannot reshape array of size 14 into shape (4)"
    ("gen-kt-tubes", "--dim=4", "dim must be 2 or 3"),
    # exited 0 with "only 0 of -1 tubes accepted" and an empty file
    ("gen-kt-tubes", "--count=-1", "count=-1 asks for a negative number of members (-1)"),
    # exited 3 only through numpy's "negative dimensions are not allowed"
    ("gen-bush", "--bushes=-1", "with -1 bushes asks for a negative number of members (-1)"),
    ("gen-random-points", "--count=-1", "count=-1 asks for a negative number of members (-1)"),
    # ended in a ZeroDivisionError traceback (exit 1)
    ("exponent-anneal-distance", "--rungs=3,4,5,0", "rung 0.0 asks for fewer than 2 points"),
    ("exponent-anneal-distance", "--rungs=3,4,5,5e-324",
     "rung 5e-324 asks for fewer than 2 points"),
    ("exponent-anneal-distance", "--dim=1", "dim must be 2 or 3"),
    # exited 3 only through numpy's "negative dimensions are not allowed"
    ("exponent-pipeline", "--dim=-1", "dim must be 2 or 3"),
    # exited 3 through the point reader's "points must be an (n, 2) or (n, 3) array"
    ("exponent-anneal-triangle", "--dim=4", "dim must be 2 or 3"),
    # exited 3 with "need at least 3 valid ladder rungs"
    ("exponent-vertical", "--seeds=0", "need seeds >= 1, got 0"),
])
def test_refused_value_exits_three(name, option, message, tmp_path, capsys):
    assert main(_argv(name, tmp_path / "out", option)) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(
    name for name, argv in BASE.items()
    if any("--seed" in a.option_strings for a in _subcommands().choices[argv[0]]._actions)))
def test_a_negative_seed_is_refused_by_name(name, tmp_path, capsys):
    # gen random-points, katz-tao-tubes and bush and anneal exited 3 only
    # through numpy's "expected non-negative integer"; brush-check at its
    # default density, where the seed is unused, and the other gen families
    # exited 0
    assert main(_argv(name, tmp_path / "out", "--seed=-1")) == 3
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,option", [("gen-kt-tubes", "--count=0"),
                                         ("gen-bush", "--bushes=0")])
def test_an_empty_family_is_written(name, option, tmp_path):
    out = tmp_path / "out"
    assert main(_argv(name, out, option)) == 0
    assert out.read_text().splitlines()[0].endswith(" n=0")
    assert validate_file(str(out)) == []


@pytest.mark.parametrize("dim", [2, 3])
def test_an_empty_tube_family_keeps_its_dimension(dim, tmp_path):
    # --dim 3 --count 0 wrote "tubes v1 dim=2 n=0"
    out = tmp_path / "out"
    assert main(_argv("gen-kt-tubes", out, f"--dim={dim}", "--count=0")) == 0
    assert out.read_text().splitlines()[0] == f"tubes v1 dim={dim} n=0"
    read_dim, tubes, violations = _parse_file(str(out), _read_lines(str(out)), "tubes",
                                              _tube_record)
    assert (read_dim, tubes, violations) == (dim, [], [])


@pytest.mark.parametrize("points, lines, wmin, wmax, rc", [
    # w^2 |P| |L| underflows first at w = 4.7e-156, but the counts printed
    # numpy's "overflow encountered in divide" before the refusal
    ("pts3.pts", "lines3.plc", "5e-324", "0.25", 4),
    # w |P| |L| stays normal down to 1e-310 while d / w overflowed; then
    # m_points refuses the cells of w = 1e-310
    ("pts2.pts", "lines2.plc", "1e-310", "1", 3),
])
def test_scan_b_at_tiny_scales_prints_no_warning(points, lines, wmin, wmax, rc, tmp_path):
    argv = ["scan-b", "-p", str(GOLDEN / points), "-l", str(GOLDEN / lines),
            f"--wmin={wmin}", f"--wmax={wmax}", "-o", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == rc


def test_anneal_skips_a_direction_that_overflows(tmp_path):
    # with t0 = 1e308 a rotated direction overflows; its nan unit vector
    # entered the state with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_argv("anneal", tmp_path / "out", "--t0=1e308")) == 0


def test_two_ends_on_tubes_shorter_than_a_window_exits_zero(tmp_path):
    # exited 3 with numpy's "attempt to get argmax of an empty sequence": a
    # tube's excision histogram held fewer bins than one window
    rng = np.random.default_rng(1)
    write_tubes(str(tmp_path / "short.tubes"),
                [Tube2D(rng.uniform(0.2, 0.8, 2), rng.normal(size=2), 1e-4, 1e-3)
                 for _ in range(30)])
    assert main(["two-ends", "-t", str(tmp_path / "short.tubes"), "--delta", "0.015625",
                 "--span", "0.25", "--rich-constant", "0.001",
                 "-o", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("argv", [
    # each ended in an _ArrayMemoryError traceback (exit 1) under a 4 GB
    # address-space limit
    ["gen", "vertical", "--dim", "3", "--delta", "1e-9"],
    ["gen", "vertical", "--dim", "2", "--delta", "1e-9"],
    ["gen", "plane", "--delta", "1e-9"],
    ["gen", "bush", "--dim", "3", "--delta", "1e-9"],
    ["gen", "bush", "--dim", "2", "--delta", "1e-9"],
    ["exponent", "--family", "pipeline_area", "--dim", "3", "--rungs", "64,128,1e12"],
    # exited 3 only through numpy's "Maximum allowed dimension exceeded"
    ["exponent", "--family", "anneal_distance", "--dim", "2", "--rungs", "3,4,5,1e308"],
    ["exponent", "--family", "anneal_triangle", "--dim", "2", "--rungs", "3,4,5,1e308"],
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
