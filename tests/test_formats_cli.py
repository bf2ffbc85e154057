import os
import subprocess
import sys

import numpy as np
import pytest

from heilbronn.cli import main
from heilbronn.configurations import generate_vertical
from heilbronn.formats import (
    FormatError,
    read_config,
    read_points,
    read_tubes,
    validate_file,
    write_config,
    write_points,
    write_tubes,
)
from heilbronn.tubes import Tube2D

from conftest import random_config

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class TestFormats:
    def test_points_roundtrip(self, tmp_path, rng):
        P = rng.uniform(0, 1, (37, 3))
        path = str(tmp_path / "a.pts")
        write_points(path, P)
        Q = read_points(path)
        assert np.array_equal(P, Q)

    def test_config_roundtrip(self, tmp_path):
        X = generate_vertical(1 / 8, 3)
        path = str(tmp_path / "a.plc")
        write_config(path, X)
        Y = read_config(path)
        assert len(Y) == len(X)
        assert np.array_equal(X.points(), Y.points())

    def test_tubes_roundtrip(self, tmp_path, rng):
        tubes = [Tube2D(rng.uniform(0, 1, 2), rng.normal(size=2), 0.01, 1.0)
                 for _ in range(9)]
        path = str(tmp_path / "a.tubes")
        write_tubes(path, tubes)
        back = read_tubes(path)
        assert back == tubes

    @pytest.mark.parametrize("dim", [2, 3])
    def test_empty_tubes_file_has_the_given_dimension(self, tmp_path, dim):
        path = str(tmp_path / "a.tubes")
        write_tubes(path, [], dim=dim)
        assert open(path).read() == f"tubes v1 dim={dim} n=0\n"
        assert validate_file(path) == [] and read_tubes(path) == []

    def test_tube_of_another_dimension_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="dimension 3"):
            write_tubes(str(tmp_path / "a.tubes"), [Tube2D([0.5, 0.5], [1, 0], 0.1, 1.0)],
                        dim=3)

    def test_wellformed_has_no_violations(self, tmp_path):
        X = generate_vertical(1 / 8, 2)
        path = str(tmp_path / "ok.plc")
        write_config(path, X)
        assert validate_file(path) == []

    def test_offline_point_flagged_with_line_number(self, tmp_path):
        path = str(tmp_path / "bad.plc")
        with open(path, "w") as fh:
            fh.write("plc v1 dim=2 n=2\n")
            fh.write("p 0 0 q 0 0 v 0 1\n")
            fh.write("p 0.501 0.5 q 0.5 0 v 0 1\n")  # 1e-3 off its line
        out = validate_file(path)
        assert len(out) == 1 and ":3:" in out[0] and "off its line" in out[0]

    def test_non_unit_direction_flagged(self, tmp_path):
        path = str(tmp_path / "bad2.plc")
        with open(path, "w") as fh:
            fh.write("plc v1 dim=2 n=1\n")
            fh.write("p 0 0 q 0 0 v 0 1.01\n")
        out = validate_file(path)
        assert len(out) == 1 and "not unit" in out[0]

    def test_count_mismatch_flagged(self, tmp_path):
        path = str(tmp_path / "bad3.plc")
        with open(path, "w") as fh:
            fh.write("plc v1 dim=2 n=5\n")
            fh.write("p 0 0 q 0 0 v 0 1\n")
        out = validate_file(path)
        assert any("declares n=5" in v for v in out)

    def test_unknown_tag(self, tmp_path):
        path = str(tmp_path / "huh.txt")
        with open(path, "w") as fh:
            fh.write("nope v1 dim=2 n=0\n")
        assert validate_file(path)

    def test_read_rejects_bad_file(self, tmp_path):
        path = str(tmp_path / "bad4.plc")
        with open(path, "w") as fh:
            fh.write("plc v1 dim=2 n=1\n")
            fh.write("p 0 0 q 0 0 v 0 1.5\n")
        with pytest.raises(FormatError):
            read_config(path)


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_gen_vertical_count(self, tmp_path):
        out = str(tmp_path / "x.plc")
        assert self.run("gen", "vertical", "--delta", "0.0625", "--dim", "3",
                        "-o", out) == 0
        cfg = read_config(out)
        assert len(cfg) == int(np.floor(1 / (2 * 0.0625))) ** 2

    def test_validate_exit_codes(self, tmp_path):
        out = str(tmp_path / "x.plc")
        self.run("gen", "vertical", "--delta", "0.125", "--dim", "2", "-o", out)
        assert self.run("validate", out) == 0
        bad = str(tmp_path / "bad.plc")
        with open(bad, "w") as fh:
            fh.write("plc v1 dim=2 n=1\np 0 0 q 0 0 v 0 1.5\n")
        assert self.run("validate", bad) == 3

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            self.run("no-such-command")
        assert exc.value.code == 2

    def test_missing_file_exit_three(self, tmp_path):
        assert self.run("dx", "-p", str(tmp_path / "none.plc"),
                        "-o", str(tmp_path / "o.csv")) == 3

    def test_dx_and_log(self, tmp_path):
        plc = str(tmp_path / "x.plc")
        out = str(tmp_path / "dx.csv")
        self.run("gen", "vertical", "--delta", "0.125", "--dim", "2", "-o", plc)
        assert self.run("dx", "-p", plc, "-o", out) == 0
        text = open(out).read()
        assert "0.25" in text
        log = open(out + ".log").read()
        assert "manifest_hash" in log and "wall_time_s" in log

    def test_scan_b_rows(self, tmp_path, rng):
        pts = str(tmp_path / "p.pts")
        plc = str(tmp_path / "l.plc")
        write_points(pts, rng.uniform(0, 1, (50, 3)))
        write_config(plc, random_config(50, 3, 1))
        out = str(tmp_path / "scan.csv")
        assert self.run("scan-b", "-p", pts, "-l", plc,
                        "--wmax", "0.25", "--wmin", "0.004", "-o", out) == 0
        rows = [l for l in open(out) if not l.startswith("#")]
        assert len(rows) == 7  # header + 6 dyadic rows

    def test_replay_byte_identical(self, tmp_path, rng):
        pts = str(tmp_path / "p.pts")
        plc = str(tmp_path / "l.plc")
        write_points(pts, rng.uniform(0, 1, (40, 3)))
        write_config(plc, random_config(40, 3, 2))
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        self.run("scan-b", "-p", pts, "-l", plc, "--wmax", "0.25",
                 "--wmin", "0.03", "-o", out1)
        self.run("scan-b", "-p", pts, "-l", plc, "--wmax", "0.25",
                 "--wmin", "0.03", "-o", out2)
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_two_ends_replay(self, tmp_path, rng):
        tub = str(tmp_path / "t.tubes")
        tubes = [Tube2D(rng.uniform(0.1, 0.9, 2), rng.normal(size=2), 2**-8, 1.0)
                 for _ in range(50)]
        write_tubes(tub, tubes)
        out1 = str(tmp_path / "te1.csv")
        out2 = str(tmp_path / "te2.csv")
        assert self.run("two-ends", "-t", tub, "--delta", str(2**-8),
                        "--span", "0.125", "-o", out1) == 0
        self.run("two-ends", "-t", tub, "--delta", str(2**-8),
                 "--span", "0.125", "-o", out2)
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_anneal_ledger_resume(self, tmp_path):
        out = str(tmp_path / "ann.plc")
        ledger = str(tmp_path / "ledger.csv")
        args = ["anneal", "--objective", "distance", "--n", "4", "--dim", "2",
                "--moves", "50", "--epochs", "3", "--seed", "5",
                "--ledger", ledger, "-o", out]
        assert self.run(*args) == 0
        rows = open(ledger).read().splitlines()
        assert len(rows) == 2
        assert self.run(*args) == 0  # replay hits the ledger and skips
        assert len(open(ledger).read().splitlines()) == 2

    def test_min_triangle_and_pipeline(self, tmp_path, rng):
        pts = str(tmp_path / "p.pts")
        write_points(pts, rng.uniform(0, 1, (64, 3)))
        out = str(tmp_path / "tri.csv")
        assert self.run("min-triangle", "-p", pts, "--method", "brute",
                        "-o", out) == 0
        out2 = str(tmp_path / "pipe.csv")
        assert self.run("pair-pipeline", "-p", pts, "-o", out2) == 0

    def test_exponent_command(self, tmp_path):
        out = str(tmp_path / "exp.csv")
        assert self.run("exponent", "--family", "vertical_count",
                        "--rungs", "0.125,0.0625,0.03125", "--dim", "3",
                        "-o", out) == 0
        text = open(out).read()
        assert "slope" in text

    def test_highlow_and_conc(self, tmp_path, rng):
        pts = str(tmp_path / "p.pts")
        plc = str(tmp_path / "l.plc")
        write_points(pts, rng.uniform(0, 1, (60, 3)))
        write_config(plc, random_config(60, 3, 5))
        out = str(tmp_path / "hl.csv")
        assert self.run("highlow-check", "-p", pts, "-l", plc,
                        "--delta", "0.0625", "--variant", "basic", "-o", out) == 0
        out2 = str(tmp_path / "conc.csv")
        assert self.run("conc", "-p", plc, "--mode", "config", "--u", "0.3",
                        "--v", "0.5", "--w", "0.5", "-o", out2) == 0

    def test_console_script_installed(self):
        res = subprocess.run([sys.executable, "-m", "heilbronn.cli", "--help"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "two-ends" in res.stdout


def _cli(*argv, timeout=300):
    """Run the CLI in a fresh process; (exit code, stderr)."""
    res = subprocess.run([sys.executable, "-m", "heilbronn.cli", *argv],
                         capture_output=True, text=True, timeout=timeout)
    return res.returncode, res.stderr


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


class TestHardenedInputs:
    def test_read_points_rejects_non_finite_with_line_number(self, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            path = _write(tmp_path / "p.pts",
                          f"pts v1 dim=2 n=2\n0.1 0.2\n0.3 {bad}\n")
            with pytest.raises(FormatError, match=r"p\.pts:3: non-finite"):
                read_points(path)

    def test_non_finite_plc_point_flagged(self, tmp_path):
        path = _write(tmp_path / "n.plc", "plc v1 dim=2 n=1\np nan 0.5 q 0.5 0 v 0 1\n")
        violations = validate_file(path)
        assert len(violations) == 1 and "n.plc:2: non-finite" in violations[0]

    @pytest.mark.parametrize("line", [
        "c nan 0.5 v 1 0 w 0.01 l 1",
        "c 0.5 0.5 v 1 0 w 0.01 l inf",
        "c 0.5 0.5 v 1 0 w nan l 1",
    ])
    def test_non_finite_tube_field_flagged(self, tmp_path, line):
        path = _write(tmp_path / "n.tubes", f"tubes v1 dim=2 n=1\n{line}\n")
        assert any("n.tubes:2: non-finite" in v for v in validate_file(path))

    def test_nan_points_exit_three(self, tmp_path):
        pts = _write(tmp_path / "nan.pts",
                     "pts v1 dim=2 n=4\n0.1 0.1\nnan 0.5\n0.9 0.2\n0.4 0.8\n")
        rc, err = _cli("min-triangle", "-p", pts, "-o", str(tmp_path / "t.csv"))
        assert rc == 3 and "nan.pts:3" in err and "Traceback" not in err
        rc, err = _cli("validate", pts)
        assert rc == 3 and "Traceback" not in err

    def test_nan_tube_centre_exit_three(self, tmp_path):
        tub = _write(tmp_path / "nan.tubes", "tubes v1 dim=2 n=2\n"
                     "c nan 0.5 v 1 0 w 0.01 l 1\nc 0.5 0.5 v 0 1 w 0.01 l 1\n")
        rc, err = _cli("validate", tub)
        assert rc == 3 and "Traceback" not in err
        rc, err = _cli("brush-check", "-t", tub, "-o", str(tmp_path / "b.csv"))
        assert rc == 3 and "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("argv", [
        ("conc", "--mode", "lines", "--u", "0.1", "--w", "0.2", "-p"),
        ("katz-tao", "--delta", "0.125", "-p"),
        ("double-count", "--w", "0.1", "-p"),
    ])
    def test_empty_configuration_exit_three(self, tmp_path, argv):
        plc = _write(tmp_path / "empty.plc", "plc v1 dim=3 n=0\n")
        rc, err = _cli(*argv, plc, "-o", str(tmp_path / "o.csv"))
        assert rc == 3 and "Traceback" not in err

    def test_brush_check_far_apart_tubes(self, tmp_path):
        # exited 3: the union volume keyed its cells over their bounding box,
        # too many cells for numpy's ravel_multi_index
        tub = _write(tmp_path / "corners.tubes", "tubes v1 dim=3 n=2\n"
                     "c 5e-06 5e-06 5e-06 v 1 0 0 w 1e-06 l 4e-06\n"
                     "c 0.999995 0.999995 0.999995 v 1 0 0 w 1e-06 l 4e-06\n")
        out = tmp_path / "b.csv"
        rc, err = _cli("brush-check", "-t", tub, "-o", str(out))
        assert rc == 0, err
        assert out.read_text().splitlines()[-1].startswith("3,2,1,6e-18,")

    @pytest.mark.parametrize("argv", [
        ("katz-tao", "--delta", "0.125", "-p"),
        ("brush-check", "-t"),
    ])
    def test_empty_tubes_exit_three(self, tmp_path, argv):
        tub = _write(tmp_path / "empty.tubes", "tubes v1 dim=2 n=0\n")
        rc, err = _cli(*argv, tub, "-o", str(tmp_path / "o.csv"))
        assert rc == 3 and "Traceback" not in err

    def test_conc_points_far_cells_do_not_collide(self, tmp_path):
        # two points 0.1 apart in the cells (0, 1000003) and (1, 0)
        pts = str(tmp_path / "p.pts")
        write_points(pts, np.array([[0.5e-7, 0.1000003 + 0.5e-7], [1.5e-7, 0.5e-7]]))
        out = str(tmp_path / "c.csv")
        rc, err = _cli("conc", "-p", pts, "--mode", "points", "--w", "1e-7", "-o", out)
        assert rc == 0, err
        rows = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert rows[-1].startswith("points,") and rows[-1].endswith(",1")

    @pytest.mark.parametrize("command", ["initial-est", "double-count"])
    def test_tiny_scale_rescales_in_float(self, tmp_path, capsys, command):
        # 1 / w passes the int64 range: the cube index used to overflow
        out = tmp_path / "t.csv"
        rc = main([command, "-p", os.path.join(GOLDEN, "lines3.plc"), "--w", "1e-19",
                   "-o", str(out)])
        assert rc == 0, capsys.readouterr().err
        row = out.read_text().splitlines()[-1].split(",")
        assert row[0] == "1e-19" and all(np.isfinite(float(x)) for x in row)
        if command == "double-count":  # every line and point is its own net member
            assert row == ["1e-19", "24", "2.4e-18", "1e-19"]

    @pytest.mark.parametrize("w", ["1e-160", "1e-300", "5e-324"])
    @pytest.mark.parametrize("plc", ["lines3.plc", "vertical3.plc"])
    def test_underflowing_scale_exits_four(self, tmp_path, capsys, w, plc):
        # w^2 underflows: a division by zero (or a silent inf) before
        rc = main(["initial-est", "-p", os.path.join(GOLDEN, plc), "--w", w,
                   "-o", str(tmp_path / "i.csv")])
        err = capsys.readouterr().err
        assert rc == 4 and "numerical failure" in err and "underflows" in err
        rc = main(["double-count", "-p", os.path.join(GOLDEN, plc), "--w", w,
                   "-o", str(tmp_path / "d.csv")])
        err = capsys.readouterr().err
        if w == "5e-324":  # no cube grid of that side fits the float range
            assert rc == 3 and "1 / scale overflows" in err
        else:
            assert rc == 0, err

    def test_conc_lines_2d_rejects_u_above_w(self, tmp_path):
        plc = str(tmp_path / "g.plc")
        assert main(["gen", "st-grid", "--count", "8", "-o", plc]) == 0
        rc, err = _cli("conc", "-p", plc, "--mode", "lines", "--u", "0.5",
                       "--w", "0.1", "-o", str(tmp_path / "c.csv"))
        assert rc == 3 and "u <= w" in err and "Traceback" not in err

    @pytest.mark.parametrize("w", ["-0.5", "0", "nan", "inf", "1.5"])
    def test_conc_lines_2d_rejects_bad_width(self, tmp_path, w):
        # the 3D counter already refused these; the 2D one printed a count
        plc = os.path.join(os.path.dirname(__file__), "golden", "lines2.plc")
        out = str(tmp_path / "c.csv")
        rc, err = _cli("conc", "-p", plc, "--mode", "lines", "--w", w, "-o", out)
        assert rc == 3 and "0 < w <= 1" in err and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("plc,u", [("lines3.plc", ["--u", "0.5"]), ("lines2.plc", [])])
    def test_conc_lines_width_just_above_one(self, tmp_path, plc, u):
        # a width within the 1e-9 slack above 1 counts; the 3D sweep's box
        # refused its half-extent (exit 3, "half-extents must be sorted")
        counts = []
        for w in ("1", "1.0000000001"):
            out = str(tmp_path / f"c{w}.csv")
            rc, err = _cli("conc", "-p", os.path.join(GOLDEN, plc), "--mode", "lines", *u,
                           "--w", w, "-o", out)
            assert rc == 0, err
            counts.append(int(open(out).read().splitlines()[-1].split(",")[-1]))
        assert counts[0] == counts[1] > 1

    @pytest.mark.parametrize("rich", ["nan", "inf", "-1", "0"])
    def test_two_ends_rejects_bad_rich_constant(self, tmp_path, rich):
        # nan wrote a nan threshold and -1 excised junk windows, both with exit 0
        tub = os.path.join(os.path.dirname(__file__), "golden", "pencil48.tubes")
        out = str(tmp_path / "te.csv")
        rc, err = _cli("two-ends", "-t", tub, "--delta", "0.015625", "--span", "0.25",
                       "--rich-constant", rich, "-o", out)
        assert rc == 3 and "rich_constant" in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_two_ends_rejects_spatial_tubes(self, tmp_path):
        # a numpy broadcasting message used to be all the user saw
        tub = os.path.join(os.path.dirname(__file__), "golden", "tubes3.tubes")
        out = str(tmp_path / "te.csv")
        rc, err = _cli("two-ends", "-t", tub, "--delta", "0.015625", "--span", "0.25",
                       "-o", out)
        assert rc == 3 and "planar (2D) tubes" in err and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ("scan-b", "--wmin", "0.125", "--wmax", "0.5"),
        ("highlow-check", "--delta", "0.125"),
    ])
    def test_points_and_lines_of_different_dimension(self, tmp_path, argv):
        # a numpy broadcasting message used to be all the user saw
        golden = os.path.join(os.path.dirname(__file__), "golden")
        out = str(tmp_path / "b.csv")
        rc, err = _cli(argv[0], "-p", os.path.join(golden, "pts2.pts"),
                       "-l", os.path.join(golden, "lines3.plc"), *argv[1:], "-o", out)
        assert rc == 3 and "points are 2D but lines are 3D" in err and "Traceback" not in err
        assert "broadcast" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ("--mode", "lines", "--w", "0.1"),
        ("--mode", "config", "--u", "0.1", "--w", "0.1"),
    ])
    def test_conc_missing_scale_exit_two(self, tmp_path, argv):
        plc = str(tmp_path / "v.plc")
        assert main(["gen", "vertical", "--delta", "0.125", "--dim", "3", "-o", plc]) == 0
        rc, err = _cli("conc", "-p", plc, *argv, "-o", str(tmp_path / "c.csv"))
        assert rc == 2 and "Traceback" not in err

    def test_read_points_empty_keeps_dimension(self, tmp_path):
        path = _write(tmp_path / "e.pts", "pts v1 dim=3 n=0\n")
        assert read_points(path).shape == (0, 3)

    @pytest.mark.parametrize("command,need,n", [
        ("min-triangle", 3, 0),
        ("min-triangle", 3, 2),
        ("pair-pipeline", 8, 0),
        ("pair-pipeline", 8, 7),
    ])
    def test_too_few_points_exit_three(self, tmp_path, command, need, n):
        rows = "".join(f"{0.1 * t} {0.05 * t * t}\n" for t in range(n))
        pts = _write(tmp_path / "few.pts", f"pts v1 dim=2 n={n}\n{rows}")
        rc, err = _cli(command, "-p", pts, "-o", str(tmp_path / "o.csv"))
        assert rc == 3 and "Traceback" not in err
        assert f"few.pts: {n} points" in err and f"at least {need}" in err

    @pytest.mark.parametrize("argv", [
        ("katz-tao", "--delta", "0", "-p", "plc"),
        ("katz-tao", "--delta", "-0.125", "-p", "plc"),
        ("katz-tao", "--delta", "0", "-p", "tubes"),
        ("plane-check", "--delta", "0", "-p", "plc"),
        ("plane-check", "--delta", "-0.125", "-p", "plc"),
        ("plane-check", "--delta", "2", "-p", "plc"),
        ("plane-check", "--delta", "nan", "-p", "plc"),
        ("gen", "katz-tao-tubes", "--delta", "0"),
        ("gen", "katz-tao-tubes", "--delta", "-0.125", "--dim", "2"),
    ])
    def test_scale_ladder_rejects_bad_delta(self, tmp_path, argv):
        # a ladder delta, 2 delta, 4 delta, ... never passes 1 from delta <= 0;
        # such a loop also grows its scale list without bound, so the timeout
        # is short
        files = {"plc": str(tmp_path / "v.plc"), "tubes": str(tmp_path / "t.tubes")}
        assert main(["gen", "vertical", "--delta", "0.25", "--dim", "3", "-o", files["plc"]]) == 0
        write_tubes(files["tubes"], [Tube2D([0.5, 0.5], [1, 0], 0.0625, 1.0)])
        argv = [files.get(a, a) for a in argv]
        rc, err = _cli(*argv, "-o", str(tmp_path / "o.out"), timeout=10)
        assert rc == 3 and "Traceback" not in err

    @pytest.mark.parametrize("delta", ["inf", "nan", "0", "-0.5"])
    def test_uniformize_rejects_bad_delta(self, tmp_path, delta):
        plc = str(tmp_path / "v.plc")
        assert main(["gen", "vertical", "--delta", "0.125", "--dim", "3", "-o", plc]) == 0
        rc, err = _cli("uniformize", "-p", plc, "--K", "2", f"--delta={delta}",
                       "-o", str(tmp_path / "u.plc"))
        assert rc == 3 and "Traceback" not in err and "delta" in err

    @pytest.mark.parametrize("K", ["inf", "nan"])
    def test_uniformize_rejects_non_finite_K(self, tmp_path, K):
        # inf certified scale 0 after a divide-by-zero warning; nan failed
        # with "cannot convert float NaN to integer"
        rc, err = _cli("uniformize", "-p", os.path.join(GOLDEN, "lines3.plc"), f"--K={K}",
                       "--delta", "0.3", "-o", str(tmp_path / "u.plc"))
        assert rc == 3 and "Traceback" not in err and f"finite K >= 2, got {K}" in err
        assert not os.path.exists(tmp_path / "u.plc")

    def test_uniformize_huge_K_separates_in_float(self, tmp_path):
        # the cube index P / K^-1 passed the int64 range: an invalid-cast warning
        rc, err = _cli("uniformize", "-p", os.path.join(GOLDEN, "lines3.plc"), "--K", "1e308",
                       "--delta", "0.3", "-o", str(tmp_path / "u.plc"))
        assert rc == 0 and err == ""

    def test_measure_kt_constant_rejects_zero_delta(self):
        code = ("from heilbronn.tubes import Tube3D, measure_kt_constant\n"
                "measure_kt_constant([Tube3D([0.5] * 3, [0, 0, 1], 0.1, 1.0)], 0.0, 1.0, 1.0)\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=10)
        assert res.returncode != 0 and "ValueError" in res.stderr


class TestBrushCheckGivenK:
    """A given K below the family's measured constant fails the hypothesis."""

    @pytest.mark.parametrize("argv", [
        ("tubes2.tubes", "--K", "1"),  # measured K is 2.125
        ("tubes3.tubes", "--t1", "0.5", "--t2", "1.5", "--K", "1.5"),  # measured K is 2.0
    ])
    def test_K_below_measured_exits_four(self, tmp_path, capsys, argv):
        out = str(tmp_path / "b.csv")
        rc = main(["brush-check", "-t", os.path.join(GOLDEN, argv[0]), *argv[1:], "-o", out])
        err = capsys.readouterr().err
        assert rc == 4 and "Katz-Tao hypothesis failed" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv,message", [
        (("--K", "0"), "K must be finite and positive"),  # was replaced by the measured K
        (("--K", "-1"), "K must be finite and positive"),  # was a hypothesis failure
        (("--K", "nan"), "K must be finite and positive"),  # wrote nan,nan
        (("--K", "inf"), "K must be finite and positive"),  # wrote a bound of 0
        (("--t1", "nan"), "exponents must be finite"),  # wrote nan
        (("--t2", "nan"), "exponents must be finite"),
        (("--eps", "nan"), "eps must be finite"),  # wrote nan
        (("--density", "nan"), "density must lie in (0, 1]"),  # OverflowError traceback
        (("--density", "0"), "density must lie in (0, 1]"),
        (("--density", "2"), "density must lie in (0, 1]"),  # was taken as a full shading
    ])
    def test_bad_brush_inputs_exit_three(self, tmp_path, capsys, argv, message):
        out = str(tmp_path / "b.csv")
        rc = main(["brush-check", "-t", os.path.join(GOLDEN, "tubes3.tubes"), *argv, "-o", out])
        err = capsys.readouterr().err
        assert rc == 3 and message in err
        assert not os.path.exists(out)


class TestExponentSum:
    """The hairbrush and well-spaced exponents alpha both divide by 2 (t1 + t2)."""

    @pytest.mark.parametrize("argv", [
        # a ZeroDivisionError traceback
        ("brush-check", "-t", "tubes3.tubes", "--t1", "1", "--t2", "-1"),
        ("highlow-check", "-p", "pts3.pts", "-l", "lines3.plc", "--delta", "0.125",
         "--variant", "wellspaced", "--t1", "1", "--t2", "-1", "--K", "100", "--A", "1000",
         "--C0", "100"),
        # a negative sum has no meaning for the bound either (this one exited 4)
        ("brush-check", "-t", "tubes3.tubes", "--t1", "0.5", "--t2", "-1.5", "--K", "4"),
    ])
    def test_t1_plus_t2_at_most_zero_exits_three(self, tmp_path, argv):
        argv = [os.path.join(GOLDEN, a) if a.endswith((".tubes", ".pts", ".plc")) else a
                for a in argv]
        out = str(tmp_path / "x.csv")
        rc, err = _cli(*argv, "-o", out)
        assert rc == 3 and "needs t1 + t2 > 0" in err and "Traceback" not in err
        assert not os.path.exists(out)


class TestHighlowPlanarFamily:
    """The refined, capped and well-spaced right-hand sides use the 3D box
    bound; a 2D line family is refused (basic and scan-b take both)."""

    @pytest.mark.parametrize("variant,name", [
        (("refined",), "refined"),
        (("capped", "--nu", "100", "--kappa", "1", "--M", "1000"), "capped"),
        (("wellspaced", "--K", "1000", "--A", "1e6", "--C0", "1000"), "well-spaced"),
    ])
    def test_2d_lines_exit_three(self, tmp_path, variant, name):
        out = str(tmp_path / "h.csv")
        rc, err = _cli("highlow-check", "-p", os.path.join(GOLDEN, "pts2.pts"),
                       "-l", os.path.join(GOLDEN, "lines2.plc"), "--delta", "0.125",
                       "--variant", *variant, "-o", out)
        assert rc == 3 and "Traceback" not in err
        assert f"the {name} high-low right-hand side needs a 3D line family, got dim=2" in err
        assert not os.path.exists(out)


class TestHighlowNonFinite:
    """Every high-low right-hand side refuses a parameter that is not finite."""

    @pytest.mark.parametrize("variant,name", [
        (("basic", "--eps", "nan"), "eps=nan"),  # wrote rhs nan, ratio inf
        (("refined", "--eps", "inf"), "eps=inf"),  # wrote rhs inf
        (("capped", "--M", "nan"), "M=nan"),  # wrote rhs nan, ratio inf
        (("capped", "--kappa", "nan"), "kappa=nan"),  # exited 4, hypotheses failed
        (("capped", "--nu", "nan", "--kappa", "1", "--M", "1000"), "nu=nan"),  # skipped theta
        (("wellspaced", "--t1", "nan"), "t1=nan"),  # wrote rhs nan, ratio inf
        (("wellspaced", "--K", "nan"), "K=nan"),
        (("wellspaced", "--C0", "nan"), "C0=nan"),
    ])
    def test_exit_three(self, tmp_path, variant, name):
        out = str(tmp_path / "h.csv")
        rc, err = _cli("highlow-check", "-p", os.path.join(GOLDEN, "pts3.pts"),
                       "-l", os.path.join(GOLDEN, "lines3.plc"), "--delta", "0.125",
                       "--variant", *variant, "-o", out)
        assert rc == 3 and "Traceback" not in err
        assert f"high-low parameters must be finite, got {name}" in err
        assert not os.path.exists(out)


class TestFormatErrorsCarryLine:
    @pytest.mark.parametrize("name,text,where", [
        ("a.pts", "pts v1 dim=2 n=2\n0.1 0.2\n0.3 zz\n", "a.pts:3: non-numeric"),
        ("a.plc", "plc v1 dim=2 n=1\np 0 zz q 0 0 v 0 1\n", "a.plc:2: non-numeric"),
        ("a.tubes", "tubes v1 dim=2 n=1\nc 0.5 zz v 1 0 w 0.01 l 1\n", "a.tubes:2: non-numeric"),
        ("b.pts", "pts v1 dim=x n=1\n0.1 0.2\n", "b.pts:1: dimension and count"),
        ("b.plc", "plc v1 dim=2 n=one\np 0 0 q 0 0 v 0 1\n", "b.plc:1: dimension and count"),
    ])
    def test_read_and_validate(self, tmp_path, name, text, where):
        # a bare float() or int() message used to be all the user saw
        path = _write(tmp_path / name, text)
        read = {"pts": read_points, "plc": read_config, "tubes": read_tubes}[name.split(".")[1]]
        with pytest.raises(FormatError, match=where):
            read(path)
        assert [where in v for v in validate_file(path)] == [True]
