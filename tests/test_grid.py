"""Grid construction, quadrature, and differentiation matrices."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erf

from funcoord import (
    DomainError,
    UnsupportedOrderError,
    diff_matrix,
    make_uniform_grid,
)
from funcoord import grid as grid_module
from funcoord.cli import main
from funcoord.grid import OperatorMatrix, csv_text, derivative_symbol, fd_weights


def test_trapezoid_grid_nodes_and_weights():
    g = make_uniform_grid(0.0, 1.0, 11, periodic=False)
    assert_allclose(g.nodes, np.linspace(0, 1, 11), atol=0)
    expected = np.full(11, 0.1)
    expected[0] = expected[-1] = 0.05
    assert_allclose(g.weights, expected, atol=1e-16)


def test_periodic_grid_excludes_endpoint_equal_weights():
    g = make_uniform_grid(0.0, 2 * np.pi, 16, periodic=True)
    assert g.n == 16
    assert g.nodes[-1] < 2 * np.pi
    assert_allclose(g.weights, np.full(16, 2 * np.pi / 16), rtol=1e-15)


def test_weights_sum_to_measure():
    g = make_uniform_grid(-5.0, 5.0, 64, periodic=False)
    assert abs(g.weights.sum() - 10.0) < 1e-12 * 10.0


@settings(max_examples=30, deadline=None)
@given(
    lo=st.floats(-50, 50),
    span=st.floats(0.1, 100),
    n=st.integers(8, 80),
    periodic=st.booleans(),
)
def test_weights_partition_any_interval(lo, span, n, periodic):
    g = make_uniform_grid(lo, lo + span, n, periodic)
    assert abs(g.weights.sum() - span) <= 1e-12 * span
    assert np.all(np.diff(g.nodes) > 0)


@pytest.mark.parametrize("bad", [(0.0, 1.0, 7), (1.0, 1.0, 16), (2.0, 1.0, 16)])
def test_grid_rejects_bad_parameters(bad):
    lo, hi, n = bad
    with pytest.raises(DomainError):
        make_uniform_grid(lo, hi, n)


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_diff_of_constant_is_zero(periodic, q):
    g = make_uniform_grid(-1.0, 1.0, 24, periodic=periodic)
    d = diff_matrix(g, q).entries @ np.ones(24)
    # matrix entries grow like h^-q, so the achievable cancellation floor
    # rises with the order
    tol = 1e-12 if q <= 2 else 1e-8
    assert np.max(np.abs(d)) < tol


def test_spectral_first_derivative_of_sine():
    g = make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    d = diff_matrix(g, 1).entries @ np.sin(g.nodes)
    assert np.max(np.abs(d - np.cos(g.nodes))) < 1e-10


def test_spectral_second_derivative_of_sine():
    g = make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    d = diff_matrix(g, 2).entries @ np.sin(g.nodes)
    assert np.max(np.abs(d + np.sin(g.nodes))) < 1e-9


def test_first_derivative_composes_to_second():
    g = make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    d1 = diff_matrix(g, 1).entries
    d2 = diff_matrix(g, 2).entries
    phi = np.sin(g.nodes) + 0.3 * np.cos(3 * g.nodes)
    assert np.max(np.abs(d1 @ (d1 @ phi) - d2 @ phi)) < 1e-8


def test_quadrature_second_order_convergence():
    exact = np.sqrt(np.pi) * erf(6.0)
    errors = []
    for n in (9, 17, 33):
        g = make_uniform_grid(-6.0, 6.0, n, periodic=False)
        f = np.exp(-g.nodes**2)
        errors.append(abs(np.sum(g.weights * f) - exact))
    # at least 2nd order: each doubling divides the error by >= 4
    assert errors[1] <= errors[0] / 4.0
    assert errors[2] <= errors[1] / 4.0 or errors[2] < 1e-14


def test_fd_matrix_exact_on_cubics():
    g = make_uniform_grid(-2.0, 3.0, 20, periodic=False)
    x = g.nodes
    d1 = diff_matrix(g, 1).entries @ x**3
    assert np.max(np.abs(d1 - 3 * x**2)) < 1e-10
    d2 = diff_matrix(g, 2).entries @ x**3
    assert np.max(np.abs(d2 - 6 * x)) < 1e-9


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_fd_first_derivative_fourth_order(q):
    errs = []
    for n in (33, 65):
        g = make_uniform_grid(-1.0, 1.0, n, periodic=False)
        d = diff_matrix(g, q).entries @ np.sin(g.nodes)
        errs.append(np.max(np.abs(d - np.sin(g.nodes + q * np.pi / 2))))
    # halving h should shrink the error by about 2^4
    assert errs[1] < errs[0] / 10.0


def _dense_fd(g, q):
    # the matrix built whole: stencils placed in zero rows, then each
    # diagonal entry corrected by its full row's sum
    n, radius, p = g.n, grid_module._fd_radius(q), q + 5

    def stencil(size, at):
        return fd_weights(g.spacing * (np.arange(size) - at), 0.0, q)

    d = np.zeros((n, n))
    for i in range(radius, n - radius):
        d[i, i - radius : i + radius + 1] = stencil(2 * radius + 1, radius)
    for i in range(radius):
        d[i, :p] = stencil(p, i)
        d[n - 1 - i, n - p :] = stencil(p, p - 1 - i)
    d[np.arange(n), np.arange(n)] -= d.sum(axis=1)
    return d


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_banded_stencil_rows_equal_the_dense_rows_bit_for_bit(q):
    # sizes where interior rows of the dense matrix differ in their last
    # bits, because each row sum rounds by where its stencil sits
    for n in (9, 32, 200, 512, 513):
        g = make_uniform_grid(0.0, 1.0, n, periodic=False)
        dense = _dense_fd(g, q)
        assert np.array_equal(grid_module._fd_diff(g, q), dense)
        interior, edges = grid_module._fd_band(g, q)
        radius = grid_module._fd_radius(q)
        rows = np.arange(radius, n - radius)[:, None]
        assert np.array_equal(interior, dense[rows, rows + np.arange(-radius, radius + 1)])
        assert np.array_equal(edges, dense[[*range(radius), *range(n - radius, n)]])


def test_diff_matrix_order_validation():
    g = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    with pytest.raises(UnsupportedOrderError):
        diff_matrix(g, 0)
    with pytest.raises(UnsupportedOrderError):
        diff_matrix(g, 5)
    # periodic grids differentiate to any order spectrally
    gp = make_uniform_grid(0.0, 2 * np.pi, 16, periodic=True)
    diff_matrix(gp, 6)


@pytest.mark.parametrize("n", [8, 9, 32, 33, 64])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_circulant_spectral_build_matches_dense_fft_reference(n, q):
    g = make_uniform_grid(-1.5, 2.0, n, periodic=True)
    # the reference transforms every column of the identity
    mult = derivative_symbol(g, q)
    reference = np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real
    d = diff_matrix(g, q).entries
    assert np.max(np.abs(d - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("periodic", [True, False])
def test_equal_keys_share_read_only_entries(periodic):
    a = diff_matrix(make_uniform_grid(0.0, 1.0, 16, periodic), 2)
    b = diff_matrix(make_uniform_grid(0.0, 1.0, 16, periodic), 2)
    assert a is not b and a.entries is b.entries
    with pytest.raises(ValueError):
        a.entries[0, 0] = 1.0


def test_distinct_keys_do_not_share_entries():
    grids = [
        make_uniform_grid(0.0, 1.0, 16, periodic=True),
        make_uniform_grid(0.0, 1.0, 16, periodic=False),
        make_uniform_grid(1.0, 2.0, 16, periodic=True),  # same span, other lo
        make_uniform_grid(1.0, 2.0, 16, periodic=False),
        make_uniform_grid(0.0, 2.0, 16, periodic=True),
    ]
    entries = [diff_matrix(g, 1).entries for g in grids]
    assert len({id(e) for e in entries}) == len(grids)
    for g, e in zip(grids, entries):
        build = grid_module._spectral_diff if g.periodic else grid_module._fd_diff
        assert np.array_equal(e, build(g, 1))


def test_large_entries_are_freed_with_their_caller():
    # one n = 512 matrix (2 MiB) exceeds the cache's byte bound: it is built
    # for its caller and not kept once the caller drops it
    entries = diff_matrix(make_uniform_grid(0.0, 1.0, 512, periodic=False), 1).entries
    ref = weakref.ref(entries)
    del entries
    assert ref() is None
    # smaller entries are kept only while their total fits the bound
    for lo in range(4):
        diff_matrix(make_uniform_grid(lo, lo + 1.0, 256, periodic=True), 1)
    kept = sum(e.nbytes for e in grid_module._diff_cache.values())
    assert 0 < kept <= grid_module._DIFF_CACHE_BYTES


def test_verify_all_builds_each_differentiation_matrix_once(tmp_path, monkeypatch):
    builds = []
    for name in ("_spectral_diff", "_fd_diff"):
        def counted(g, q, build=getattr(grid_module, name)):
            builds.append((g.lo, g.hi, g.n, g.periodic, q))
            return build(g, q)

        monkeypatch.setattr(grid_module, name, counted)
    grid_module._diff_entries.cache_clear()
    assert main(["verify", "--suite", "all", "--seed", "7", "--out", str(tmp_path)]) == 0
    # the riccati residual reads the banded description of its q = 2
    # matrix, so only the other suites build dense ones
    assert len(builds) == len(set(builds)) == 11
    assert (0.0, 1.0, 64, False, 2) not in builds


def test_fd_weights_recover_taylor_coefficients():
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    w = fd_weights(x, 0.0, 1)
    assert_allclose(w, [1 / 12, -8 / 12, 0, 8 / 12, -1 / 12], atol=1e-13)


def test_operator_matrix_validation():
    g = make_uniform_grid(0.0, 1.0, 8, periodic=False)
    with pytest.raises(DomainError):
        OperatorMatrix(np.zeros((3, 4)))
    with pytest.raises(DomainError):
        OperatorMatrix(np.zeros((4, 4)), g)
    detached = OperatorMatrix(np.eye(3))
    assert detached.grid is None and detached.n == 3


def _reference_csv(names, *columns):
    # the plain writer: broadcast every column, then one row at a time
    header, cells = [], []
    for name, column in zip(names, np.broadcast_arrays(*columns)):
        if np.iscomplexobj(column):
            header += ["re", "im"]
            cells += [column.real.ravel().tolist(), column.imag.ravel().tolist()]
        else:
            header.append(name)
            cells.append(column.ravel().tolist())
    rows = (",".join("%.17g" % v for v in row) for row in zip(*cells))
    return "\n".join([",".join(header), *rows]) + "\n"


_RNG = np.random.default_rng(5)
_X, _Y = _RNG.standard_normal(64), _RNG.standard_normal(70)
_TABLE = _RNG.standard_normal((64, 70))
_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e-300, 0.1])
with np.errstate(invalid="ignore", over="ignore"):
    _SPECIAL_TABLE = np.outer(_SPECIAL, _SPECIAL[::-1])
_SPECIAL_COMPLEX = np.empty(_SPECIAL.size, dtype=complex)
_SPECIAL_COMPLEX.real, _SPECIAL_COMPLEX.imag = _SPECIAL[::-1], _SPECIAL


@pytest.mark.parametrize("names, columns", [
    (("x", "value"), (_X, _TABLE[:, 0])),
    (("x", "value"), (_X, _X + 1j * _TABLE[:, 1])),
    (("x", "y", "w"), (_X[:, None], _Y[None, :], _TABLE)),
    (("x", "y", "R"), (_X[:, None], _Y[None, :], _TABLE - 2j * _TABLE[::-1])),
    (("i", "j", "value"), (np.arange(64)[:, None], np.arange(70)[None, :], _TABLE)),
    (("x", "y", "w"), (_X[:3, None], _Y[None, :5], _TABLE[:3, :5])),
    (("w", "x", "v"), (_TABLE, _X[:, None], 2.0 * _TABLE)),
    (("y", "x"), (_Y[None, :], _X[:, None])),
    (("x", "y", "w"), (_X[:, None], _Y[None, :1], _TABLE[:, :1])),
    (("x", "y", "w"), (_SPECIAL[:, None], _SPECIAL[None, :], _SPECIAL_TABLE)),
    (("x", "value"), (_SPECIAL, _SPECIAL_COMPLEX)),
    (("t", "u", "v"), (_TABLE[:2, :12].reshape(2, 3, 4), _Y[:3, None], _X[:4])),
], ids=["1d", "1d-complex", "xyw", "xyw-complex", "ij-int", "xyw-small", "full-first",
        "no-full", "width-1", "special", "1d-special", "3d"])
def test_csv_text_matches_row_by_row_reference(names, columns):
    got = csv_text(names, *columns).split("\n")
    want = _reference_csv(names, *columns).split("\n")
    # report the first differing line, not a diff of the whole text
    first = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None and len(got) == len(want), (first, len(got), len(want))
