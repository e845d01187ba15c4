"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
#: scratch space inside the checkout, like everything the benchmark writes
SCRATCH = run.WORK / "tests"
sys.path.insert(0, str(run.SRC))


def _scratch(name):
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _counts(measurement):
    return {k: v for k, (v, unit) in measurement.metrics.items() if unit != "s"}


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


def test_traced_counts_repeat_and_match_the_known_grid_reuse():
    first, second = (run.measure_traced("verify_default", 7, 0, smoke=True) for _ in range(2))
    assert _counts(first) == _counts(second)
    assert first.tally.failed == 0
    assert first.metrics["grid.diff_matrix.calls"][0] == 220
    assert first.metrics["grid.diff_matrix.distinct_ratio"][0] == 12 / 220


def test_transform_makes_no_diff_matrix_calls():
    m = run.measure_traced("transform_n2048", 7, 0, smoke=True)
    assert m.tally.failed == 0
    assert m.metrics["grid.diff_matrix.calls"][0] == 0
    # one quad per node for each of the two declared jumps
    assert m.metrics["kernels.quad.calls"][0] == 2 * 64


def test_tracer_uninstall_restores_every_binding():
    import funcoord.cli
    import funcoord.distributions
    import funcoord.grid
    import funcoord.kernels

    before = (funcoord.grid.diff_matrix, funcoord.kernels.diff_matrix, funcoord.kernels.quad)
    from_json = funcoord.distributions.GeneralizedFunction.__dict__["from_json"]
    t = tracer.Tracer()
    t.install()
    try:
        assert funcoord.kernels.diff_matrix is funcoord.grid.diff_matrix
        assert funcoord.grid.diff_matrix is not before[0]
    finally:
        t.uninstall()
    assert (funcoord.grid.diff_matrix, funcoord.kernels.diff_matrix, funcoord.kernels.quad) == before
    assert funcoord.distributions.GeneralizedFunction.__dict__["from_json"] is from_json


def test_transform_input_is_seeded_and_steps_on_a_node():
    a, b = workloads.TransformInput.draw(5, 64), workloads.TransformInput.draw(5, 64)
    assert a == b and a != workloads.TransformInput.draw(6, 64)
    assert a.step[0] in np.linspace(workloads.LO, workloads.HI, 64)
    assert sorted(q for _, q, _ in a.deltas) == [0, 1]
    doc = json.loads(a.to_json())
    k = int(np.flatnonzero(np.linspace(workloads.LO, workloads.HI, 64) == a.step[0])[0])
    bump = a.amp * math.exp(-((a.step[0] - a.centre) ** 2) / a.width**2)
    ramp = a.ramp[1] * max(a.step[0] - a.ramp[0], 0.0)
    assert doc["smooth"][k] == bump + 0.5 * a.step[1] + ramp


def _write_transform_output(out, spec, values):
    out.mkdir(parents=True)
    x = np.linspace(workloads.LO, workloads.HI, spec.n)
    rows = "".join(f"{float(xi)!r},{float(vi)!r}\n" for xi, vi in zip(x, values))
    (out / "transform.csv").write_text("x,value\n" + rows)
    (out / "transform_inverse.csv").write_text("x,value\n" + rows)


def test_transform_oracle_accepts_the_closed_form_and_rejects_an_error():
    scratch = _scratch("oracle")
    spec = workloads.TransformInput.draw(3, 64)
    x = np.linspace(workloads.LO, workloads.HI, spec.n)
    exact = [spec.image(xi) for xi in x]
    stdout = json.dumps({"rank": 64, "sigma_max": 1.0, "sigma_min": 0.1, "truncated": 0})
    _write_transform_output(scratch / "good", spec, exact)
    assert spec.check(workloads.Result(0, stdout, scratch / "good")) is None
    off = list(exact)
    off[10] += 1e-4
    _write_transform_output(scratch / "bad", spec, off)
    assert "closed form" in spec.check(workloads.Result(0, stdout, scratch / "bad"))
    assert spec.check(workloads.Result(0, "{}", scratch / "good")) is not None


@pytest.mark.xfail(
    strict=True,
    reason="known defect: scipy quad over [x0, inf) in kernels.apply is off by 4.2e-5 here "
    "while reporting 1e-8; it makes transform_n2048 (seed 234103140) fail its oracle, "
    "so that workload stays out of BENCHMARK.json until kernels.apply is fixed",
)
def test_gaussian_step_image_is_exact_far_right_of_the_step():
    from funcoord.distributions import GeneralizedFunction
    from funcoord.grid import make_uniform_grid
    from funcoord.kernels import apply, gaussian

    # the step node and the output node of transform_n2048 at seed 234103140
    x0, x = -1.1167562286272599, 5.929653150952614
    grid = make_uniform_grid(workloads.LO, workloads.HI, 64)
    f = GeneralizedFunction(grid, smooth=np.where(grid.nodes > x0, 1.0, 0.0), jumps=[(x0, 1.0)])
    value = apply(gaussian(), f, out_nodes=[x])[0]
    exact = 0.5 * math.sqrt(math.pi) * math.erfc(x0 - x)
    assert abs(value - exact) <= workloads.TRANSFORM_TOL


def test_without_the_source_tree_the_benchmark_fails_without_a_result():
    scratch = _scratch("no_source")
    bench = scratch / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        (bench / name).write_text((HERE / name).read_text())
    (scratch / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=scratch,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
