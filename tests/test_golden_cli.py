"""Byte-for-byte CLI outputs on small fixed inputs.

The inputs and the expected outputs live in `tests/golden/`.  Each case runs
one command in process and compares the bytes it wrote with the recorded
file.  The commands are the ones whose box counters, greedy nets, dyadic
scale ladders and pairwise distances share code, so a refactor of those
primitives that changes any count, cover, scale or distance shows up here.

To record the expected outputs again (only when an output is meant to
change), run `PYTHONPATH=src python tests/test_golden_cli.py --record`.
"""

import sys
from pathlib import Path

import pytest

from heilbronn.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

UNIFORMIZE2 = ["uniformize", "-p", "lines2.plc", "--K", "2", "--delta", "0.3"]
UNIFORMIZE3 = ["uniformize", "-p", "lines3.plc", "--K", "2", "--delta", "0.3"]
HIGHLOW = ["highlow-check", "-p", "pts3.pts", "-l", "lines3.plc", "--delta", "0.125"]

# name -> (argv with input file names relative to GOLDEN, output suffix[, suffix
# of a second file the command writes next to its output, compared instead])
CASES = {
    "conc_points": (["conc", "-p", "pts3.pts", "--mode", "points", "--w", "0.25"], ".csv"),
    "conc_lines3": (["conc", "-p", "lines3.plc", "--mode", "lines", "--u", "0.125",
                     "--w", "0.25"], ".csv"),
    "conc_lines2": (["conc", "-p", "lines2.plc", "--mode", "lines", "--w", "0.125"], ".csv"),
    "conc_config": (["conc", "-p", "lines3.plc", "--mode", "config", "--u", "0.3",
                     "--v", "0.5", "--w", "0.5"], ".csv"),
    "katz_tao_plc": (["katz-tao", "-p", "lines3.plc", "--delta", "0.125"], ".csv"),
    "katz_tao_vertical": (["katz-tao", "-p", "vertical3.plc", "--delta", "0.125"], ".csv"),
    "katz_tao_tubes2": (["katz-tao", "-p", "tubes2.tubes", "--delta", "0.0625"], ".csv"),
    "katz_tao_tubes3": (["katz-tao", "-p", "tubes3.tubes", "--delta", "0.125"], ".csv"),
    "plane_check": (["plane-check", "-p", "lines3.plc", "--delta", "0.125",
                     "--gamma", "0.5"], ".csv"),
    "plane_check_vertical": (["plane-check", "-p", "vertical3.plc", "--delta", "0.125"], ".csv"),
    "highlow_basic": (HIGHLOW + ["--variant", "basic"], ".csv"),
    "highlow_refined": (HIGHLOW + ["--variant", "refined"], ".csv"),
    "highlow_capped": (HIGHLOW + ["--variant", "capped", "--nu", "100", "--kappa", "1",
                                  "--M", "1000"], ".csv"),
    "highlow_wellspaced": (HIGHLOW + ["--variant", "wellspaced", "--K", "1000",
                                      "--A", "1e6", "--C0", "1000"], ".csv"),
    "brush_check2": (["brush-check", "-t", "tubes2.tubes"], ".csv"),
    "brush_check2_half": (["brush-check", "-t", "tubes2.tubes", "--density", "0.5",
                           "--seed", "4"], ".csv"),
    "brush_check3": (["brush-check", "-t", "tubes3.tubes", "--t1", "0.5", "--t2", "1.5"],
                     ".csv"),
    # a given K skips the measurement and verifies the family against it
    "brush_check2_K4": (["brush-check", "-t", "tubes2.tubes", "--K", "4"], ".csv"),
    "brush_check3_K4": (["brush-check", "-t", "tubes3.tubes", "--t1", "0.5", "--t2", "1.5",
                         "--K", "4"], ".csv"),
    "gen_kt_tubes2": (["gen", "katz-tao-tubes", "--dim", "2", "--delta", "0.0625",
                       "--count", "16", "--seed", "3"], ".tubes"),
    "gen_kt_tubes3": (["gen", "katz-tao-tubes", "--dim", "3", "--delta", "0.125",
                       "--count", "12", "--seed", "5", "--t1", "0.5"], ".tubes"),
    "initial_est3": (["initial-est", "-p", "lines3.plc", "--w", "0.25"], ".csv"),
    "initial_est2": (["initial-est", "-p", "lines2.plc", "--w", "0.25"], ".csv"),
    "double_count3": (["double-count", "-p", "lines3.plc", "--w", "0.25"], ".csv"),
    "double_count2": (["double-count", "-p", "lines2.plc", "--w", "0.125"], ".csv"),
    # parallel lines on a 1/4 grid: at w = 0.25 neighbouring lines and grid
    # points sit exactly w apart, so the nets meet both the tie (a distance
    # equal to w does not block) and the parallel branch of the line metric
    "initial_est_vertical": (["initial-est", "-p", "vertical3.plc", "--w", "0.25"], ".csv"),
    "initial_est_vertical_half": (["initial-est", "-p", "vertical3.plc", "--w", "0.5"],
                                  ".csv"),
    "double_count_vertical": (["double-count", "-p", "vertical3.plc", "--w", "0.25"], ".csv"),
    "double_count_vertical_half": (["double-count", "-p", "vertical3.plc", "--w", "0.5"],
                                   ".csv"),
    "scan_b2": (["scan-b", "-p", "pts2.pts", "-l", "lines2.plc", "--wmin", "0.125",
                 "--wmax", "0.5"], ".csv"),
    "scan_b3": (["scan-b", "-p", "pts3.pts", "-l", "lines3.plc", "--wmin", "0.125",
                 "--wmax", "0.5"], ".csv"),
    "dx": (["dx", "-p", "lines3.plc"], ".csv"),
    "pair_pipeline": (["pair-pipeline", "-p", "pts3.pts"], ".csv"),
    # above the 120-point brute cut-over, so these reach the grid and apex passes
    "min_triangle_lattice12": (["min-triangle", "-p", "lattice12.pts"], ".csv"),
    "min_triangle_moment127": (["min-triangle", "-p", "moment127.pts"], ".csv"),
    "min_triangle_random300": (["min-triangle", "-p", "random300.pts"], ".csv"),
    "uniformize2": (UNIFORMIZE2, ".plc"),
    "uniformize2_cert": (UNIFORMIZE2, ".plc", ".cert.csv"),
    "uniformize3": (UNIFORMIZE3, ".plc"),
    "uniformize3_cert": (UNIFORMIZE3, ".plc", ".cert.csv"),
    "two_ends_exact": (["two-ends", "-t", "pencil48.tubes", "--delta", "0.015625",
                        "--span", "0.25", "--rich-constant", "0.1"], ".csv"),
    "two_ends_approx": (["two-ends", "-t", "pencil250.tubes", "--delta", "0.00390625",
                         "--span", "0.125", "--rich-constant", "0.05"], ".csv"),
    "anneal_distance": (["anneal", "--objective", "distance", "--n", "6", "--moves", "40",
                         "--epochs", "5", "--seed", "2"], ".plc"),
    "anneal_triangle": (["anneal", "--objective", "triangle", "--n", "6", "--moves", "40",
                         "--epochs", "3", "--seed", "0"], ".pts"),
    "exponent_vertical_count": (["exponent", "--family", "vertical_count", "--rungs",
                                 "0.25,0.125,0.0625", "--dim", "3"], ".csv"),
}


def _run(name: str, out_dir: Path) -> bytes:
    argv, suffix, *second = CASES[name]
    argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in argv]
    out = out_dir / f"{name}{suffix}"
    assert main(argv + ["-o", str(out)]) == 0
    return Path(f"{out}{second[0]}" if second else out).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert _run(name, tmp_path) == (GOLDEN / f"{name}.expected").read_bytes()


if __name__ == "__main__" and "--record" in sys.argv:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.expected").write_bytes(_run(case, Path(tmp)))
            print("recorded", case)
