"""Command-line interface: exit codes, outputs, determinism."""

import filecmp
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from funcoord import (
    Kernel,
    KernelEvaluationError,
    discretize,
    gaussian,
    kernel_pde_residual,
    make_uniform_grid,
    residual_blocks,
    riccati_kernel,
)
from funcoord.cli import (
    COEFFICIENTS, INPUTS, SUITES, _write_table, _write_text, _written_rows, main,
)
from funcoord.grid import csv_blocks
from funcoord.kernels import _max_norm, _truncated_svd, table_csv


def run(argv):
    return main(argv)


def make_gf_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GRID_DOC = {"lo": -6.0, "hi": 6.0, "n": 64, "periodic": False}


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.asarray(rows)


def test_verify_fourier_suite(tmp_path):
    out = tmp_path / "reports"
    assert run(["verify", "--suite", "fourier", "--n", "32", "--out", str(out)]) == 0
    doc = json.loads((out / "suite_fourier.json").read_text())
    assert doc["passed"]
    report = doc["reports"][0]
    assert report["residuals"]["intertwine_max"] < 1e-8
    assert json.loads((out / "summary.json").read_text())["all_passed"]


def test_verify_all_suites_pass(tmp_path):
    assert run(["verify", "--suite", "all", "--out", str(tmp_path / "all")]) == 0


def test_inputs_declares_each_suite_and_the_residuals_it_reports(tmp_path):
    # the tolerance overrides a suite accepts are exactly the residuals its
    # reports carry, so no override is refused that a report would read
    assert set(SUITES) <= set(INPUTS)
    assert set(INPUTS) - set(SUITES) == {"verify", "transform", "residual"}
    assert run(["verify", "--suite", "all", "--out", str(tmp_path)]) == 0
    for suite in SUITES:
        doc = json.loads((tmp_path / f"suite_{suite}.json").read_text())
        reported = {key for report in doc["reports"] for key in report["residuals"]}
        # the theorem suite's tolerances are fixed: it declares none
        assert set(INPUTS[suite][2]) == (set() if suite == "theorem" else reported), suite


#: grid sizes from the smallest a grid takes to n = 1024, past each known defect's edge
GRID_LADDER = (8, 12, 16, 24, 28, 32, 33, 48, 64, 96, 128, 200, 224, 256, 512, 1024)


def _known_grid_size_defect(suite, n):
    """Why ``suite`` is known to fail at ``n`` (ROADMAP item 2), or a false value."""
    return {
        "fourier": n >= 224 and "the kernel self-check's fixed FD step exits 4 from n = 224 on",
        "product": n <= 28 and "score_bw2's band, counted in nodes, exits 1 up to n = 28",
        "riccati": n <= 12 and "the FD kernel-equation residual exits 1 at n = 8 and 12",
    }.get(suite)


@pytest.mark.parametrize("suite, n", [
    pytest.param(suite, n, id=f"{suite}-{n}", marks=[pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"ROADMAP item 2: {reason}",
    )] if (reason := _known_grid_size_defect(suite, n)) else [])
    for suite in SUITES if "n" in INPUTS[suite][0] for n in GRID_LADDER
])
def test_suites_that_read_n_pass_at_every_grid_size(tmp_path, suite, n):
    # a mended defect shows as an XPASS, which fails until its mark is dropped;
    # riccati skips its n x n table, which no check reads
    formats = ["--format", "json"] if suite == "riccati" else []
    argv = ["verify", "--suite", suite, "--n", str(n), *formats, "--out", str(tmp_path)]
    assert run(argv) == 0


def test_verify_rejects_small_grid(tmp_path):
    assert run(["verify", "--suite", "fourier", "--n", "4", "--out", str(tmp_path)]) == 2


def test_verify_rejects_unknown_suite(tmp_path):
    assert run(["verify", "--suite", "nope", "--out", str(tmp_path)]) == 2


def test_verify_exit_one_on_suite_failure(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tolerances": {"fourier.intertwine_max": 1e-300}}))
    code = run([
        "verify", "--suite", "fourier", "--config", str(config),
        "--out", str(tmp_path / "strict"),
    ])
    assert code == 1


def test_verify_rejects_negative_tolerance_override(tmp_path):
    config = tmp_path / "config.json"
    for value in (-1.0, 0):
        config.write_text(json.dumps({"tolerances": {"fourier.intertwine_max": value}}))
        assert run(["verify", "--suite", "fourier", "--config", str(config),
                    "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_verify_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run([
            "verify", "--suite", "fourier", "--suite", "theorem",
            "--seed", "7", "--out", str(out),
        ]) == 0
    comparison = filecmp.dircmp(a, b)
    assert not comparison.diff_files
    for name in ("suite_fourier.json", "suite_theorem.json", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_transform_delta_writes_gaussian_samples(tmp_path):
    gf = make_gf_json(tmp_path, "delta.json", {
        "smooth": None, "jumps": [], "singular": [[0.0, 0, 1.0]], "grid": GRID_DOC,
    })
    out = tmp_path / "tr"
    assert run(["transform", "--input", gf, "--kernel", "gaussian", "--out", str(out)]) == 0
    header, rows = read_csv(out / "transform.csv")
    assert header == ["x", "value"]
    assert np.max(np.abs(rows[:, 1] - np.exp(-rows[:, 0] ** 2))) < 1e-12


def test_transform_identity_kernel_is_passthrough(tmp_path):
    x = np.linspace(-6, 6, 64)
    smooth = list(np.sin(x))
    gf = make_gf_json(tmp_path, "smooth.json", {
        "smooth": smooth, "jumps": [], "singular": [], "grid": GRID_DOC,
    })
    out = tmp_path / "tr"
    assert run(["transform", "--input", gf, "--kernel", "identity", "--out", str(out)]) == 0
    _, rows = read_csv(out / "transform.csv")
    assert np.array_equal(rows[:, 1], np.asarray(smooth))


def test_transform_step_matches_erf(tmp_path):
    x = np.linspace(-6, 6, 64)
    smooth = list(np.where(x > 0, 1.0, np.where(x == 0, 0.5, 0.0)))
    gf = make_gf_json(tmp_path, "step.json", {
        "smooth": smooth, "jumps": [[0.0, 1.0]], "singular": [], "grid": GRID_DOC,
    })
    out = tmp_path / "tr"
    assert run(["transform", "--input", gf, "--kernel", "gaussian", "--out", str(out)]) == 0
    _, rows = read_csv(out / "transform.csv")
    target = (np.sqrt(np.pi) / 2) * (1 + erf(rows[:, 0]))
    assert np.max(np.abs(rows[:, 1] - target)) < 1e-7


def test_transform_rejects_jumps_on_a_periodic_grid(tmp_path, capsys):
    # the jump's image is integrated on the line while the smooth part goes
    # through the periodized table, so their sum is not the periodic transform
    x = -6.0 + 12.0 * np.arange(64) / 64
    gf = make_gf_json(tmp_path, "step.json", {
        "smooth": list(np.where(x > 0.1, 1.0, 0.0)), "jumps": [[0.1, 1.0]], "singular": [],
        "grid": {**GRID_DOC, "periodic": True},
    })
    out = tmp_path / "tr"
    assert run(["transform", "--input", gf, "--kernel", "gaussian", "--out", str(out)]) == 2
    assert "non-periodic grid" in capsys.readouterr().err
    assert not out.exists()


def test_transform_invert_prints_condition_report(tmp_path, capsys):
    x = np.linspace(-6, 6, 64)
    gf = make_gf_json(tmp_path, "smooth.json", {
        "smooth": list(np.exp(-x**2)), "jumps": [], "singular": [], "grid": GRID_DOC,
    })
    out = tmp_path / "tr"
    assert run(["transform", "--input", gf, "--kernel", "gaussian",
                "--invert", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert {"sigma_max", "sigma_min", "truncated", "rank"} <= set(printed)
    assert (out / "transform_inverse.csv").exists()


def test_transform_bad_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["transform", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
    # bytes that are not UTF-8 are a bad input too, not an I/O failure or a traceback
    bad.write_bytes(b"\xff\xfe{")
    assert run(["transform", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("field, value, message", [
    ("periodic", '"false"', "grid.periodic must be true or false, got 'false'"),
    ("n", "64.7", "grid.n must be an integer, got 64.7"),
    ("n", "true", "grid.n must be an integer, got True"),
    ("singular", "[[0.5, 1.7, 1.0]]", "singular order must be an integer, got 1.7"),
    ("jumps", "[[0.5, 1.5, 1.0]]", "jump order must be an integer, got 1.5"),
    ("sample", "NaN", "smooth must be a list of numbers; nan is not one"),
    ("sample", "-Infinity", "smooth must be a list of numbers; -inf is not one"),
    ("sample", "1e999", "smooth must be a list of numbers; inf is not one"),
    ("document", "[]", "the input must be a JSON object, got list"),
    ("grid", "[1, 2]", "grid must be an object, got [1, 2]"),
    ("lo", "null", "grid.lo must be a number, got None"),
    ("sample", "null", "smooth must be a list of numbers; None is not one"),
    ("smooth", '"abc"', "smooth must be a list of numbers; 'abc' is not one"),
    ("singular", "5", "singular entries must be a list, got 5"),
    ("singular", "[[0.0]]", "singular entry 0 must be [x0, order, weight], got [0.0]"),
    ("singular", "[5]", "singular entry 0 must be [x0, order, weight], got 5"),
    ("singular", "[[0.0, 1, 1.0, 7]]",
     "singular entry 0 must be [x0, order, weight], got [0.0, 1, 1.0, 7]"),
    ("singular", "[[0.0, 1, 1.0], [0.5, -1, 1.0]]",
     "singular order must be >= 0, got -1 in singular entry 1"),
    ("singular", "[[null, 1, 1.0]]", "singular entry 0 must have numbers as x0 and weight"),
    ("singular", "[[0.5, 1, Infinity]]", "singular entry 0 must have numbers as x0 and weight"),
    ("jumps", "[[0.5]]", "jump entry 0 must be [x0, order, weight] or [x0, weight], got [0.5]"),
    ("jumps", '[[0.5, "1"]]', "jump entry 0 must have numbers as x0 and weight"),
    # a value None leaves the field out
    ("grid", None, "grid must be an object, got None"),
    ("periodic", None, "grid.periodic must be true or false, got None"),
], ids=["periodic-text", "n-float", "n-bool", "singular-order", "jump-order", "nan", "-inf", "1e999",
        "document-array", "grid-array", "lo-null", "sample-null", "smooth-text", "singular-number",
        "singular-short", "singular-entry-number", "singular-long", "singular-negative-order",
        "singular-null-x0", "singular-inf-weight", "jump-short", "jump-text-height",
        "grid-missing", "periodic-missing"])
def test_transform_reads_its_input_strictly(tmp_path, capsys, field, value, message):
    # coercion would read "false" as a periodic grid (bool("false") is true),
    # 64.7 as 64 and the orders as 1, and write non-finite samples out; an
    # unchecked shape would end in a traceback, or read past a 4th element
    doc = {"smooth": [0.0] * 64, "jumps": [], "singular": [], "grid": {**GRID_DOC}}
    if value is None:
        del (doc["grid"] if field in ("periodic", "n", "lo") else doc)[field]
    elif field in ("periodic", "n", "lo"):
        doc["grid"][field] = "@"
    elif field == "sample":
        doc["smooth"][10] = "@"
    elif field == "document":
        doc = "@"
    else:
        doc[field] = "@"
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc).replace('"@"', value or ""))
    out = tmp_path / "tr"
    assert run(["transform", "--input", str(path), "--kernel", "gaussian", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["jump", "grid.N"])
def test_transform_rejects_keys_it_does_not_read(tmp_path, capsys, key):
    # a misspelt "jumps" would otherwise transform the step without its jump
    doc = {"smooth": [0.0] * 64, "jumps": [], "singular": [], "grid": {**GRID_DOC}}
    if key == "jump":
        doc["jump"] = [[0.0, 1.0]]
    else:
        doc["grid"]["N"] = 3
    gf = make_gf_json(tmp_path, "in.json", doc)
    out = tmp_path / "tr"
    assert run(["transform", "--input", gf, "--kernel", "gaussian", "--out", str(out)]) == 2
    assert f"unknown key {key!r} in the input" in capsys.readouterr().err
    assert not out.exists()


def test_transform_kernel_overflow_is_numerical_failure(tmp_path, capsys):
    # e^{x e^y} overflows on [-6, 6]^2: the smooth part's kernel table is
    # not finite, a numerical failure rather than a configuration error
    x = np.linspace(-6, 6, 16)
    gf = make_gf_json(tmp_path, "smooth.json", {
        "smooth": list(np.exp(-x**2)), "jumps": [], "singular": [],
        "grid": {"lo": -6.0, "hi": 6.0, "n": 16, "periodic": False},
    })
    with np.errstate(over="ignore"):
        code = run(["transform", "--input", gf, "--kernel", "exp_exp_plus",
                    "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert "is not finite at (x, y) = (" in err
    assert "np.float64" not in err


def test_transform_missing_file_is_io_error(tmp_path):
    assert run(["transform", "--input", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "o")]) == 3


def test_transform_invert_without_a_smooth_part_writes_nothing(tmp_path, capsys):
    # the rule is checked before the forward transform writes its files
    gf = make_gf_json(tmp_path, "delta.json", {
        "jumps": [], "singular": [[0.0, 0, 1.0]], "grid": GRID_DOC,
    })
    out = tmp_path / "tr"
    assert run(["transform", "--input", gf, "--kernel", "gaussian", "--invert",
                "--out", str(out)]) == 2
    assert "--invert needs a smooth part to invert" in capsys.readouterr().err
    assert not out.exists()


def test_residual_gaussian_first_order(tmp_path, capsys):
    out = tmp_path / "res"
    assert run(["residual", "1", "1", "--kernel", "gaussian", "--a", "1", "--b", "1",
                "--lo", "-6", "--hi", "6", "--n", "24", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["max_norm"] < 1e-10
    summary = json.loads((out / "residual.json").read_text())
    assert summary["max_norm"] < 1e-10
    header, rows = read_csv(out / "residual.csv")
    assert header == ["x", "y", "R"]
    assert rows.shape == (24 * 24, 3)


def joined_residual(*args, **kwargs):
    x, values = zip(*residual_blocks(*args, **kwargs))
    return np.concatenate(x), np.concatenate(values)


def test_streamed_residual_csv_equals_the_whole_field_written_at_once(tmp_path, capsys):
    # n = 300 streams the field in several row blocks; the one-pass writer
    # must give the bytes of the whole field written at once
    out = tmp_path / "res"
    assert run(["residual", "1", "1", "--kernel", "gaussian", "--a", "1", "--b", "1",
                "--lo", "-6", "--hi", "6", "--n", "300", "--out", str(out)]) == 0
    g = make_uniform_grid(-6.0, 6.0, 300)
    x, values = joined_residual(gaussian(), 1, 1, 1.0, 1.0, g, db=[lambda y: np.zeros(np.shape(y))])
    assert (out / "residual.csv").read_text() == "".join(
        csv_blocks(("x", "y", "R"), x, g.nodes, values)
    )
    assert json.loads(capsys.readouterr().out)["max_norm"] == np.max(np.abs(values))


def test_streamed_residual_csv_of_a_values_only_kernel(tmp_path):
    # a kernel without partials takes the banded finite-difference path,
    # which leaves its boundary-stencil rows out of the table
    g = make_uniform_grid(0.0, 1.0, 200)
    k = Kernel(id="values_only", eval=lambda x, y: np.exp(-np.asarray(x) * np.sin(y)))
    a, b = (lambda x: 1.0 + np.asarray(x)), np.cos
    path = tmp_path / "residual.csv"
    norm = _max_norm(_written_rows(path, residual_blocks(k, 2, 0, a, b, g), g.nodes))
    x, values = joined_residual(k, 2, 0, a, b, g)
    assert x.size == g.n - 4
    assert path.read_text() == "".join(csv_blocks(("x", "y", "R"), x, g.nodes, values))
    assert norm == kernel_pde_residual(k, 2, 0, a, b, g) == np.max(np.abs(values))


def test_streamed_residual_csv_is_removed_when_a_block_fails(tmp_path):
    # the kernel's x-partial overflows past x = 0.9, in a row block after
    # the first has been written
    g = make_uniform_grid(0.0, 1.0, 200)
    k = Kernel(
        id="overflow",
        eval=lambda x, y: np.ones(np.broadcast(x, y).shape),
        dx_n=lambda x, y, q: np.where(np.asarray(x) > 0.9, np.inf, 0.0) + 0 * np.asarray(y),
    )
    path = tmp_path / "residual.csv"
    rows = _written_rows(path, residual_blocks(k, 1, 0, 1.0, 1.0, g), g.nodes)
    next(rows)
    assert path.exists()
    with pytest.raises(KernelEvaluationError):
        _max_norm(rows)
    assert not path.exists()


def interrupted_after_one_block(g):
    yield g.nodes[:4], np.ones((4, g.n))
    raise KeyboardInterrupt


def test_streamed_residual_csv_is_removed_when_interrupted(tmp_path):
    g = make_uniform_grid(0.0, 1.0, 16)
    path = tmp_path / "residual.csv"
    rows = _written_rows(path, interrupted_after_one_block(g), g.nodes)
    next(rows)
    assert path.exists()
    with pytest.raises(KeyboardInterrupt):
        next(rows)
    assert os.listdir(tmp_path) == []


def test_streamed_residual_csv_is_removed_when_the_stream_is_closed(tmp_path):
    g = make_uniform_grid(0.0, 1.0, 16)
    path = tmp_path / "residual.csv"
    rows = _written_rows(path, residual_blocks(gaussian(), 1, 0, 1.0, 1.0, g), g.nodes)
    next(rows)
    assert path.exists()
    rows.close()
    assert os.listdir(tmp_path) == []


def test_residual_fourier_with_complex_coefficient(tmp_path, capsys):
    assert run(["residual", "1", "0", "--kernel", "fourier", "--a", "1", "--b=-iy",
                "--lo", "0", "--hi", "6.283185307179586", "--n", "16", "--periodic",
                "--out", str(tmp_path / "res")]) == 0
    assert json.loads(capsys.readouterr().out)["max_norm"] < 1e-10


def test_residual_exp_exp_minus_with_variable_coefficient(tmp_path, capsys):
    assert run(["residual", "1", "1", "--kernel", "exp_exp_minus", "--a", "x",
                "--b", "1", "--lo", "0", "--hi", "1", "--n", "16",
                "--out", str(tmp_path / "res")]) == 0
    assert json.loads(capsys.readouterr().out)["max_norm"] < 1e-10


def test_residual_fourier_second_order_squared_coefficient(tmp_path, capsys):
    assert run(["residual", "2", "0", "--kernel", "fourier", "--a", "1", "--b=-y^2",
                "--lo", "0", "--hi", "6.283185307179586", "--n", "16", "--periodic",
                "--out", str(tmp_path / "res")]) == 0
    assert json.loads(capsys.readouterr().out)["max_norm"] < 1e-8


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("kernel", ["gaussian", "translation_tgauss"])
def test_residual_of_a_translation_kernel_vanishes_at_high_orders(tmp_path, capsys, kernel, order):
    # w_x^(n) = (-1)^n w_y^(n) for w(x - y); with b = 1 differentiated
    # exactly (zero, not finite differences of a constant) nothing is left
    assert run(["residual", str(order), str(order), "--kernel", kernel,
                "--out", str(tmp_path / "res")]) == 0
    assert json.loads(capsys.readouterr().out)["max_norm"] <= 1e-12


def test_residual_unknown_coefficient(tmp_path):
    assert run(["residual", "1", "1", "--kernel", "gaussian", "--a", "nope",
                "--out", str(tmp_path / "res")]) == 2


def test_verify_riccati_exports_table_csv(tmp_path):
    out = tmp_path / "r"
    assert run(["verify", "--suite", "riccati", "--out", str(out)]) == 0
    lines = (out / "riccati_table.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,w"
    assert len(lines) == 1 + 64 * 64


def test_csv_round_trip_is_byte_identical(tmp_path):
    gf = make_gf_json(tmp_path, "delta.json", {
        "smooth": None, "jumps": [], "singular": [[0.5, 1, -0.25]], "grid": GRID_DOC,
    })
    out = tmp_path / "tr"
    assert run(["transform", "--input", gf, "--kernel", "gaussian", "--out", str(out)]) == 0
    # a complex 2-D field and the tabulated Riccati kernel
    assert run(["residual", "1", "0", "--kernel", "fourier", "--a", "1", "--b=-iy",
                "--lo", "0", "--hi", "6.283185307179586", "--n", "16", "--periodic",
                "--out", str(tmp_path / "res")]) == 0
    assert run(["verify", "--suite", "riccati", "--n", "16", "--out", str(tmp_path / "r")]) == 0
    for path, expected_header in [
        (out / "transform.csv", ["x", "value"]),
        (tmp_path / "res" / "residual.csv", ["x", "y", "re", "im"]),
        (tmp_path / "r" / "riccati_table.csv", ["x", "y", "w"]),
    ]:
        first = path.read_text()
        header, rows = read_csv(path)
        assert header == expected_header
        re_emitted = ",".join(header) + "\n" + "\n".join(
            ",".join(format(v, ".17g") for v in row) for row in rows
        ) + "\n"
        assert re_emitted == first


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, 0.1 + 0.2,
                     -np.nextafter(1.0, 2.0), 1e300])


def specials(shape, dtype=float):
    # nan, +-inf, -0.0, subnormals and values that need all 17 digits,
    # tiled over shape; a complex array pairs each with another
    values = np.empty(shape, dtype=dtype)
    values.real = np.resize(_SPECIAL, shape)
    if dtype is complex:
        values.imag = np.resize(_SPECIAL[::-1], shape)
    return values


def assert_reads_back(path, header, *columns):
    # each cell parses to its value bit for bit: repr tells -0.0 from 0.0
    # and prints every nan as nan
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == header
    cells = [[repr(float(c)) for c in line.split(",")] for line in lines[1:]]
    expected = [[repr(v) for v in row] for row in zip(*(np.ravel(c).tolist() for c in columns))]
    assert cells == expected


def value_columns(values):
    # a complex value is written as re, im
    return (values.real, values.imag) if np.iscomplexobj(values) else (values,)


def table_columns(x, y, values):
    # the x, y and value columns of an x-by-y table in row order
    return (np.repeat(x, len(y)), np.tile(y, len(x)), *value_columns(values))


@pytest.mark.parametrize("dtype, header", [(float, ["x", "value"]), (complex, ["x", "re", "im"])])
def test_transform_csv_reads_back_bit_exactly(tmp_path, monkeypatch, dtype, header):
    gf = make_gf_json(tmp_path, "delta.json", {
        "smooth": None, "jumps": [], "singular": [[0.5, 1, -0.25]], "grid": GRID_DOC,
    })
    values = specials(GRID_DOC["n"], dtype)
    monkeypatch.setattr("funcoord.cli.apply", lambda kernel, gf: values)
    assert run(["transform", "--input", gf, "--kernel", "gaussian", "--out", str(tmp_path)]) == 0
    x = make_uniform_grid(-6.0, 6.0, GRID_DOC["n"]).nodes
    assert_reads_back(tmp_path / "transform.csv", header, x, *value_columns(values))


def test_transform_inverse_csv_reads_back_bit_exactly(tmp_path):
    g = make_uniform_grid(-6.0, 6.0, GRID_DOC["n"])
    smooth = np.exp(-g.nodes**2) * np.sin(3 * g.nodes)
    gf = make_gf_json(tmp_path, "smooth.json", {
        "smooth": smooth.tolist(), "jumps": [], "singular": [], "grid": GRID_DOC,
    })
    assert run(["transform", "--input", gf, "--kernel", "gaussian", "--invert",
                "--threshold", "1e-8", "--out", str(tmp_path)]) == 0
    u, s, vh, _ = _truncated_svd(discretize(gaussian(), g).entries, 1e-8)
    recovered = vh.conj().T @ ((u.conj().T @ smooth) / s)
    assert_reads_back(tmp_path / "transform_inverse.csv", ["x", "value"], g.nodes, recovered)


def test_riccati_table_csv_reads_back_bit_exactly(tmp_path, monkeypatch):
    x = make_uniform_grid(0.0, 1.0, 16).nodes

    def fake_riccati(a, b, g0, grid):
        # its values on the node grid are the special values
        def values(xv, yv):
            assert np.array_equal(xv, x[:, None]) and np.array_equal(yv, x[None, :])
            return table
        return Kernel(id="riccati", eval=values)

    table = specials((16, 16))
    monkeypatch.setattr("funcoord.cli.riccati_kernel", fake_riccati)
    # the residual would reject the non-finite values; the table is under test
    monkeypatch.setattr("funcoord.cli.kernel_pde_residual", lambda *args, **kwargs: 0.0)
    assert run(["verify", "--suite", "riccati", "--n", "16", "--out", str(tmp_path)]) == 0
    columns = table_columns(x, x, table)
    assert_reads_back(tmp_path / "riccati_table.csv", ["x", "y", "w"], *columns)


def split_table(monkeypatch, cpus):
    # a table of 17 rows of 16 entries, split into ranges of at least two
    # rows, one per CPU of the cpus claimed available
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr("funcoord.cli._ROW_BLOCK", 32)
    return np.linspace(0.0, 1.0, 17), np.linspace(2.0, -1.0, 16), specials((17, 16))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_table_written_in_ranges_equals_the_joined_blocks(tmp_path, monkeypatch, cpus):
    x, y, table = split_table(monkeypatch, cpus)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    path = tmp_path / "riccati_table.csv"
    _write_table(path, ("x", "y", "w"), x, y, table)
    assert len(forks) == cpus - 1
    assert path.read_text() == "".join(csv_blocks(("x", "y", "w"), x, y, table))
    assert_reads_back(path, ["x", "y", "w"], *table_columns(x, y, table))
    assert os.listdir(tmp_path) == ["riccati_table.csv"]


def test_table_writer_leaves_no_file_and_no_child_when_a_child_fails(tmp_path, monkeypatch, capfd):
    x, y, table = split_table(monkeypatch, 3)
    parent = os.getpid()

    def blocks(*args):
        if os.getpid() != parent:
            raise RuntimeError("formatting failed in a child")
        return csv_blocks(*args)

    monkeypatch.setattr("funcoord.cli.csv_blocks", blocks)
    with pytest.raises(OSError, match="riccati_table.csv"):
        _write_table(tmp_path / "riccati_table.csv", ("x", "y", "w"), x, y, table)
    assert os.listdir(tmp_path) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # each failed child reports its cause on the process's stderr
    assert "formatting failed in a child" in capfd.readouterr().err


def test_text_writer_leaves_no_file_when_the_write_fails(tmp_path):
    # a lone surrogate has no UTF-8 encoding: the write fails after the
    # file is opened
    path = tmp_path / "suite_demo.json"
    with pytest.raises(UnicodeEncodeError):
        _write_text(path, "ok\ud800")
    assert os.listdir(tmp_path) == []
    _write_text(path, "ok\n")
    assert path.read_text(encoding="utf-8") == "ok\n"


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a threaded BLAS reduction (dot) sums in an order that moves with the
    # thread count; every report must hold the same bytes under 1 and 2 threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from funcoord.cli import main; sys.exit(main())",
             "verify", "--suite", "product", "--suite", "fourier", "--n", "128", "--seed", "7",
             "--out", str(tmp_path / threads)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(tmp_path / "1"))
    assert names == sorted(os.listdir(tmp_path / "2"))
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_verify_riccati_at_n512_prints_once_and_writes_the_joined_table(tmp_path):
    # block-buffered stdout holds the xdx suite's line while the riccati
    # table is written, with two or more CPUs by forked processes too, and
    # none of them may flush it again
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "r"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from funcoord.cli import main; sys.exit(main())",
         "verify", "--suite", "xdx", "--suite", "riccati", "--n", "512", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[PASS] xdx: xdx_intertwine", "[PASS] riccati: riccati_second_order", "summary: all passed",
    ]
    assert sorted(os.listdir(out)) == [
        "riccati_table.csv", "suite_riccati.json", "suite_xdx.json", "summary.json",
    ]
    grid = make_uniform_grid(0.0, 1.0, 512)
    kernel = riccati_kernel(1.0, COEFFICIENTS["y^2"].fn, COEFFICIENTS["y"].fn, grid)
    expected = table_csv(kernel, grid).encode()
    digest = hashlib.sha256((out / "riccati_table.csv").read_bytes()).hexdigest()
    assert digest == hashlib.sha256(expected).hexdigest()


@pytest.mark.parametrize("dtype, header", [(float, ["x", "y", "R"]),
                                           (complex, ["x", "y", "re", "im"])])
def test_residual_csv_reads_back_bit_exactly(tmp_path, monkeypatch, dtype, header):
    field = specials((24, 24), dtype)
    # two row blocks: the header goes before the first only
    blocks = lambda kernel, n, m, a, b, grid, db: iter([
        (grid.nodes[:5], field[:5]), (grid.nodes[5:], field[5:]),
    ])
    monkeypatch.setattr("funcoord.cli.residual_blocks", blocks)
    assert run(["residual", "1", "1", "--kernel", "gaussian", "--a", "1", "--b", "1",
                "--lo", "-6", "--hi", "6", "--n", "24", "--out", str(tmp_path)]) == 0
    x = make_uniform_grid(-6.0, 6.0, 24).nodes
    assert_reads_back(tmp_path / "residual.csv", header, *table_columns(x, x, field))


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 16, "suites": ["fourier"]}))
    out = tmp_path / "o"
    assert run(["verify", "--config", str(config), "--n", "32", "--out", str(out)]) == 0
    doc = json.loads((out / "suite_fourier.json").read_text())
    # 32 wavenumbers means the note mentions kappa up to 15
    assert any("15" in note for note in doc["reports"][0]["notes"])


def test_unknown_config_field_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_size": 16}))
    assert run(["verify", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("doc", [
    {"n": "64"}, {"threshold": "x"}, {"n": True}, {"seed": 1.5},
    {"periodic": "yes"}, {"suites": "fourier"}, {"formats": ["csv", 1]},
    {"tolerances": {"fourier.intertwine_max": True}},
])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert run(["verify", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    # a dict value is named by its key within the field
    [(field, value)] = doc.items()
    name = f"{field}.{next(iter(value))}" if isinstance(value, dict) else field
    assert repr(name) in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, message", [
    (["verify", "--suite", "product", "--hi=inf"], None,
     "config value 'hi' must be a finite number, got inf"),
    (["residual", "1", "1", "--lo=-inf"], None,
     "config value 'lo' must be a finite number, got -inf"),
    (["residual", "1", "1"], '{"lo": -1e999}',
     "config value 'lo' must be a finite number, got -inf"),
    # an int past a float's range, which float() cannot convert
    (["residual", "1", "1"], '{"lo": -1' + "0" * 400 + "}",
     "config value 'lo' must be a finite number, got -1000"),
    (["verify", "--suite", "product"], '{"tolerances": {"product.score_bw2": Infinity}}',
     "config value 'tolerances.product.score_bw2' must be a finite number, got inf"),
    (["transform"], '{"kernel": {"id": "dilation", "c": NaN}}',
     "config value 'kernel.c' must be a finite number, got nan"),
    (["transform"], '{"kernel": {"id": "dilation", "c": Infinity}}',
     "config value 'kernel.c' must be a finite number, got inf"),
    # one of lo / hi against the other's default: make_uniform_grid's rule, before any suite
    (["verify", "--suite", "derivative", "--suite", "product", "--lo", "7"], None,
     "need hi > lo, got [7.0, 6.0]"),
], ids=["hi-flag", "lo-flag", "lo-config", "lo-config-int", "tolerance", "kernel-nan", "kernel-inf",
        "lo-past-default-hi"])
def test_number_or_grid_outside_the_input_rule_writes_nothing(
        tmp_path, capsys, argv, config, message):
    # a non-finite number would otherwise run on into a numerical failure (exit 4),
    # turn a tolerance gate off, write an `Infinity` token or write nan samples
    if argv[0] == "transform":
        argv = [*argv, "--input", make_gf_json(tmp_path, "smooth.json", {
            "smooth": [0.0] * 64, "jumps": [], "singular": [], "grid": GRID_DOC,
        })]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_config_error(tmp_path, capsys):
    assert run(["verify", "--suite", "theorem", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["riccati.typo", "theorem.operator_residual", "nosuch.key"])
def test_tolerance_override_that_no_suite_reads_is_config_error(tmp_path, capsys, key):
    # riccati has no residual 'typo', theorem takes no overrides, and
    # 'nosuch' names no suite: each override would otherwise be ignored
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tolerances": {key: 1.0}}))
    code = run(["verify", "--suite", "riccati", "--suite", "theorem", "--config", str(config),
                "--out", str(tmp_path / "o")])
    assert code == 2
    assert key.split(".")[-1] in capsys.readouterr().err


def test_tolerance_override_for_an_unselected_suite_fails_before_any_suite_runs(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tolerances": {"riccati.kernel_equation_residual": 1e-30}}))
    out = tmp_path / "o"
    assert run(["verify", "--suite", "fourier", "--config", str(config), "--out", str(out)]) == 2
    assert "'riccati.kernel_equation_residual'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_residual_in_tolerance_override_fails_before_any_suite_runs(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tolerances": {"nonlinear.typo": 1.0}}))
    out = tmp_path / "o"
    assert run(["verify", "--suite", "all", "--config", str(config), "--out", str(out)]) == 2
    assert "'nonlinear.typo'" in capsys.readouterr().err
    assert not list(out.glob("suite_*.json")) and not (out / "summary.json").exists()


def test_unknown_residual_in_tolerance_override_names_the_residuals_reported(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tolerances": {"nonlinear.typo": 1.0}}))
    assert run(["verify", "--suite", "nonlinear", "--config", str(config),
                "--out", str(tmp_path / "o")]) == 2
    assert "['rank1_gap', 'tensor_residual']" in capsys.readouterr().err


def test_verify_rejects_a_kernel_flag_it_would_ignore(tmp_path, capsys):
    # every suite builds its own kernels, so verify has no --kernel to read
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "fourier", "--kernel", "exp_exp_plus",
             "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--kernel" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_verify_rejects_a_configured_kernel_it_would_ignore(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kernel": {"id": "multiplication", "a0": "nope"}}))
    assert run(["verify", "--suite", "fourier", "--config", str(config),
                "--out", str(tmp_path / "o")]) == 2
    assert "'kernel'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, config, reader, name", [
    (["verify", "--suite", "theorem", "--n", "64"], None, "suite 'theorem'", "n"),
    (["verify", "--suite", "nonlinear", "--n", "64"], None, "suite 'nonlinear'", "n"),
    (["verify", "--suite", "fourier", "--lo", "1", "--hi", "2", "--periodic"], None,
     "suite 'fourier'", "hi"),
    (["verify", "--suite", "xdx", "--lo", "0.2", "--hi", "0.8"], None, "suite 'xdx'", "hi"),
    (["verify", "--suite", "riccati", "--lo", "0.5"], None, "suite 'riccati'", "lo"),
    (["verify", "--suite", "fourier", "--threshold", "1e-8"], None, "suite 'fourier'", "threshold"),
    (["verify", "--suite", "all", "--threshold", "1e-8"], None, "suite 'fourier'", "threshold"),
    (["transform", "--kernel", "gaussian", "--n", "16", "--lo", "0", "--periodic"], None,
     "transform", "lo"),
    (["transform", "--kernel", "gaussian"],
     {"tolerances": {"fourier.intertwine_max": 1e-300}, "a": "x"}, "transform", "a"),
    (["residual", "1", "1", "--kernel", "gaussian", "--threshold", "0.5"], None,
     "residual", "threshold"),
    (["residual", "1", "1", "--kernel", "gaussian"], {"invert": True, "suites": ["fourier"]},
     "residual", "invert"),
    (["verify"], {"suites": [], "n": 64}, "verify", "n"),
    (["verify", "--suite", "fourier", "--format", "csv"], None, "suite 'fourier'", "formats"),
    (["transform", "--kernel", "gaussian", "--threshold", "0.5"], None, "transform", "threshold"),
])
def test_input_the_run_would_ignore_is_config_error(tmp_path, capsys, argv, config, reader, name):
    # each input is set but not read by the command or a selected suite, so
    # it fails by name before any output is written instead of being ignored
    if argv[0] == "transform":
        argv = [*argv, "--input", make_gf_json(tmp_path, "smooth.json", {
            "smooth": [0.0] * 64, "jumps": [], "singular": [], "grid": GRID_DOC,
        })]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    assert f"{reader} does not read {name!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kernel, name", [
    ({"id": "dilation", "c": "x"}, "c"),
    ({"id": "gaussian", "c": 2}, "c"),
    ({"id": "multiplication", "a0": 1}, "a0"),
    ({"id": "identity", "a0": "x"}, "a0"),
])
def test_kernel_parameter_is_checked(tmp_path, capsys, kernel, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kernel": kernel}))
    gf = make_gf_json(tmp_path, "smooth.json", {
        "smooth": [0.0] * 64, "jumps": [], "singular": [], "grid": GRID_DOC,
    })
    assert run(["transform", "--config", str(config), "--input", gf,
                "--out", str(tmp_path / "o")]) == 2
    assert f"'kernel.{name}'" in capsys.readouterr().err


def test_dilation_kernel_takes_its_constant_from_the_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kernel": {"id": "dilation", "c": -2}}))
    smooth = list(np.sin(np.linspace(-6, 6, 64)))
    gf = make_gf_json(tmp_path, "smooth.json", {
        "smooth": smooth, "jumps": [], "singular": [], "grid": GRID_DOC,
    })
    out = tmp_path / "tr"
    assert run(["transform", "--config", str(config), "--input", gf, "--out", str(out)]) == 0
    _, rows = read_csv(out / "transform.csv")
    assert np.array_equal(rows[:, 1], -2.0 * np.asarray(smooth))
    # --kernel names the kernel and keeps the config file's parameters, which
    # a kernel that does not take them rejects
    config.write_text(json.dumps({"kernel": {"id": "dilation", "c": 2.0}}))
    flagged = tmp_path / "flagged"
    assert run(["transform", "--config", str(config), "--kernel", "dilation", "--input", gf,
                "--out", str(flagged)]) == 0
    _, rows = read_csv(flagged / "transform.csv")
    assert np.array_equal(rows[:, 1], 2.0 * np.asarray(smooth))
    other = tmp_path / "other"
    assert run(["transform", "--config", str(config), "--kernel", "gaussian", "--input", gf,
                "--out", str(other)]) == 2
    assert "'kernel.c'" in capsys.readouterr().err
    assert not other.exists()


def test_verify_never_imports_scipy(tmp_path):
    # funcoord runs on numpy alone, jump quadrature included; seeded draws
    # come from the standard library, so numpy.random (and the hashlib that
    # its secrets import loads) stays out too, as does numpy.polynomial,
    # whose Hermite evaluation and Gauss-Legendre rule funcoord does itself
    script = (
        "import sys\n"
        "import funcoord.cli\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')], 'import'\n"
        "code = funcoord.cli.main(sys.argv[1:])\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')], 'run'\n"
        "unwanted = ('numpy.random', 'secrets', 'hashlib', 'numpy.polynomial')\n"
        "loaded = [m for m in unwanted if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    # at n = 512 the regularized inverse takes the sketched path
    x = np.linspace(-6, 6, 512)
    gf = make_gf_json(tmp_path, "smooth.json", {
        "smooth": list(np.exp(-x**2)), "jumps": [], "singular": [],
        "grid": {**GRID_DOC, "n": 512},
    })
    # the jumps of t e^{-t^2} have closed-form images, like the Gaussian's
    x = np.linspace(-6, 6, 64)
    step = make_gf_json(tmp_path, "step.json", {
        "smooth": list(np.where(x > 0.5, 1.0, 0.0)), "jumps": [[0.5, 1.0]], "singular": [],
        "grid": GRID_DOC,
    })
    x = np.linspace(0.0, 1.0, 64)
    kink = make_gf_json(tmp_path, "kink.json", {
        "smooth": list(np.where(x > 0.4, 1.0, 0.0) + np.maximum(x - 0.7, 0.0)),
        "jumps": [[0.4, 1.0], [0.7, 1, 1.0]], "singular": [],
        "grid": {"lo": 0.0, "hi": 1.0, "n": 64, "periodic": False},
    })
    cases = {
        "all": ["verify", "--suite", "all", "--seed", "7"],
        "n512": ["verify", "--suite", "derivative", "--suite", "product", "--suite", "xdx",
                 "--suite", "riccati", "--n", "512"],
        "invert": ["transform", "--input", gf, "--kernel", "gaussian", "--invert"],
        "tgauss_step": ["transform", "--input", step, "--kernel", "translation_tgauss"],
        # jump images under exp_exp come from funcoord's own Gauss-Legendre rule
        "exp_exp_kink": ["transform", "--input", kink, "--kernel", "exp_exp_minus"],
    }
    for name, argv in cases.items():
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--out", str(tmp_path / name)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, (name, proc.stderr)


def test_format_and_threshold_are_read_where_they_apply(tmp_path, capsys):
    # the riccati suite reads --format; transform reads --threshold under --invert
    out = tmp_path / "ric"
    assert run(["verify", "--suite", "riccati", "--format", "json", "--out", str(out)]) == 0
    assert not (out / "riccati_table.csv").exists() and (out / "suite_riccati.json").exists()
    x = np.linspace(-6, 6, 64)
    gf = make_gf_json(tmp_path, "smooth.json", {
        "smooth": list(np.exp(-x**2)), "jumps": [], "singular": [], "grid": GRID_DOC,
    })
    capsys.readouterr()
    assert run(["transform", "--input", gf, "--kernel", "gaussian", "--invert",
                "--threshold", "1e-6", "--out", str(tmp_path / "tr")]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] < 64


@pytest.mark.parametrize("how", ["transform", "residual", "residual_empty_flag", "config"])
def test_empty_format_list_is_config_error_and_writes_nothing(tmp_path, capsys, how):
    gf = make_gf_json(tmp_path, "delta.json", {
        "smooth": None, "jumps": [], "singular": [[0.0, 0, 1.0]], "grid": GRID_DOC,
    })
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"formats": []}))
    out = tmp_path / "o"
    argv = {
        "transform": ["transform", "--input", gf, "--kernel", "gaussian", "--format", ","],
        "residual": ["residual", "1", "1", "--kernel", "gaussian", "--format", ","],
        "residual_empty_flag": ["residual", "1", "1", "--kernel", "gaussian", "--format", ""],
        "config": ["residual", "1", "1", "--kernel", "gaussian", "--config", str(config)],
    }[how]
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "no output format" in captured.err and captured.out == ""
    assert not out.exists()


def test_transform_invert_applies_the_regularized_inverse(tmp_path, capsys):
    from funcoord import discretize, gaussian, invert, make_uniform_grid

    x = np.linspace(-6, 6, 64)
    smooth = np.exp(-x**2) * np.cos(2 * x)
    gf = make_gf_json(tmp_path, "smooth.json", {
        "smooth": list(smooth), "jumps": [], "singular": [], "grid": GRID_DOC,
    })
    out = tmp_path / "tr"
    assert run(["transform", "--input", gf, "--kernel", "gaussian", "--invert",
                "--threshold", "1e-6", "--out", str(out)]) == 0
    _, rows = read_csv(out / "transform_inverse.csv")
    w_inv, _ = invert(discretize(gaussian(), make_uniform_grid(-6, 6, 64)), 1e-6)
    expected = w_inv.entries @ smooth
    assert np.max(np.abs(rows[:, 1] - expected)) < 1e-9 * np.max(np.abs(expected))


def test_verify_riccati_never_imports_numpy_ma(tmp_path):
    # the riccati builder checks a(x) for zeros without numpy's set routines,
    # whose np.unique loads numpy.ma
    script = (
        "import sys\n"
        "import funcoord.cli\n"
        "code = funcoord.cli.main(sys.argv[1:])\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify", "--suite", "riccati", "--out", str(tmp_path / "r")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
