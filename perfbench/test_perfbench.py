"""Tests of the benchmark's own machinery: `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

from check import compare, load_refs  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402


def _perturb_float(x: float) -> float:
    return x * (1 + 4e-16) if x else 1e-300


def test_identical_output_passes():
    ref = load_refs("triangles", 0)["min_fast_2d"]
    assert compare(json.loads(json.dumps(ref)), ref) == []


@pytest.mark.parametrize("op_id", ["min_fast_2d", "pipeline_1280", "close_pairs_1024"])
def test_perturbed_exact_output_is_caught(op_id):
    ref = load_refs("triangles", 0)[op_id]
    for key, value in ref["exact"].items():
        got = json.loads(json.dumps(ref))
        if isinstance(value, list):
            got["exact"][key][0] = _perturb_float(value[0])
        elif isinstance(value, float):
            got["exact"][key] = _perturb_float(value)
        elif isinstance(value, int):
            got["exact"][key] = value + 1
        else:
            got["exact"][key] = value[:-1] + ("0" if value[-1] != "0" else "1")
        assert compare(got, ref), f"{op_id}.{key} perturbation not caught"


def test_witness_index_change_is_caught():
    ref = load_refs("triangles", 0)["min_fast_3d"]
    got = json.loads(json.dumps(ref))
    got["exact"]["witness"][1] += 1
    assert compare(got, ref)


def test_one_byte_of_cli_csv_is_caught():
    ref = load_refs("triangles", 0)["cli_min_triangle"]
    got = json.loads(json.dumps(ref))
    got["exact"]["csv"] = got["exact"]["csv"].replace(",", ";", 1)
    assert compare(got, ref)


def test_approx_values_use_relative_tolerance():
    ref = load_refs("highlow", 0)["vertical_d16"]
    near = json.loads(json.dumps(ref))
    near["approx"]["b"][0] *= 1 + 1e-12
    assert compare(near, ref) == []
    far = json.loads(json.dumps(ref))
    far["approx"]["rhs_basic"] *= 1 + 1e-6
    assert compare(far, ref)


def test_missing_or_extra_key_is_caught():
    ref = load_refs("tubes", 0)["two_ends_approx_net"]
    got = json.loads(json.dumps(ref))
    del got["exact"]["rounds"]
    assert compare(got, ref)
    got = json.loads(json.dumps(ref))
    got["approx"]["extra"] = 1.0
    assert compare(got, ref)


def test_perturbed_library_output_fails_the_operation(tmp_path, monkeypatch):
    import workloads
    from heilbronn.triangles import TriangleWitness

    ops = dict(workloads.build("triangles", 0, str(tmp_path)))
    ref = load_refs("triangles", 0)["min_fast_2d"]
    assert compare(ops["min_fast_2d"](), ref) == []
    real = workloads.min_triangle_fast

    def perturbed(P):
        w = real(P)
        return TriangleWitness(indices=w.indices, area=_perturb_float(w.area))

    monkeypatch.setattr(workloads, "min_triangle_fast", perturbed)
    assert compare(ops["min_fast_2d"](), ref)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.metric_of.update({"a": "outer_s", "b": "inner_s"})
    # outer span 0..10 with children 1..3 and 4..8; one grandchild 5..6
    tr.spans = [("a", 0.0, 10.0, -1, "op"), ("b", 1.0, 3.0, 0, "op"),
                ("b", 4.0, 8.0, 0, "op"), ("a", 5.0, 6.0, 2, "op")]
    st = tr.self_times()
    assert st["outer_s"] == pytest.approx(4.0 + 1.0)
    assert st["inner_s"] == pytest.approx(2.0 + 3.0)


def test_install_makes_cross_module_calls_child_spans():
    script = """
import sys
sys.path[:0] = [%r, %r]
import numpy as np
from tracing import LAYER_METRICS, Tracer
tr = Tracer()
tr.install()
import heilbronn.incidence as inc
from heilbronn.configurations import generate_vertical
X = generate_vertical(0.25, 3)
inc.rhs_basic(0.25, X.points(), X.lines(), 3)
parent = {s[0]: tr.spans[s[3]][0] if s[3] >= 0 else None for s in tr.spans}
assert parent["concentration.m_points"] == "incidence.rhs_basic", parent
assert parent["concentration.m_lines"] == "incidence.rhs_basic", parent
assert parent["concentration.m_lines_sweep"] == "concentration.m_lines", parent
vals = tr.layer_metrics()
assert set(vals) | {"trace.overhead_frac"} == set(LAYER_METRICS), set(vals) ^ set(LAYER_METRICS)
assert vals["concentration.box_cells"] == len(X) * 1
print("ok")
""" % (HERE, SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tubes",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_laps_leave_spins_out_and_scale_by_nearby_spins(monkeypatch):
    import calibrate

    ref = calibrate.SPIN_REF_S
    spins = iter([(0.5 * ref, 0.0), (1.5 * ref, 0.0), (2.0 * ref, 0.0)])
    clock = iter([10.0, 11.0, 14.0, 15.0, 16.0, 17.0])  # spins run 10..11, 14..15, 16..17
    monkeypatch.setattr(calibrate, "spin", lambda: next(spins))
    monkeypatch.setattr(calibrate.time, "monotonic", lambda: next(clock))
    monkeypatch.setattr(calibrate, "WINDOW", 1)
    laps = calibrate.Laps(9.0, ref)
    for _ in range(3):
        laps.lap()
    assert laps.raw == [1.0, 3.0, 1.0]
    # segment i is scaled by the spin just before it and the one just after
    assert laps.scaled() == pytest.approx([1.0 / 0.75, 3.0 / 1.0, 1.0 / 1.75])
    monkeypatch.setattr(calibrate, "WINDOW", 3)
    mean = (1.0 + 0.5 + 1.5 + 2.0) / 4
    assert laps.scaled() == pytest.approx([1.0 / mean, 3.0 / mean, 1.0 / mean])


def test_every_layer_metric_has_unit_and_direction():
    for name, (unit, better) in LAYER_METRICS.items():
        assert unit and better in ("lower", "higher"), name
