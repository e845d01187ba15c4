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
    derivative,
    diff_matrix,
    make_uniform_grid,
)
from funcoord import grid as grid_module
from funcoord import kernels as kernels_module
from funcoord import operators as operators_module
from funcoord import theorems as theorems_module
from funcoord.cli import main
from funcoord.grid import OperatorMatrix, csv_blocks, csv_text, derivative_symbol, fd_weights


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


@pytest.mark.parametrize("bad", [(0.0, 1.0, 7), (1.0, 1.0, 16), (2.0, 1.0, 16),
                                 (-np.inf, 6.0, 32), (0.0, np.inf, 32),
                                 # int(64.7) would build 64 nodes
                                 (0.0, 1.0, 64.7), (0.0, 1.0, True), (0.0, 1.0, "64"),
                                 # and 'false' would be a periodic grid
                                 (0.0, 1.0, 32, "false"), (0.0, 1.0, 32, 1)])
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(DomainError):
        make_uniform_grid(*bad)


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
    # the matrix built whole: each stencil corrected by its own sum, then
    # placed in zero rows
    n, radius, p = g.n, grid_module._fd_radius(q), q + 5

    def stencil(size, at):
        w = fd_weights(g.spacing * (np.arange(size) - at), 0.0, q)
        w[at] -= w.sum()
        return w

    d = np.zeros((n, n))
    for i in range(radius, n - radius):
        d[i, i - radius : i + radius + 1] = stencil(2 * radius + 1, radius)
    for i in range(radius):
        d[i, :p] = stencil(p, i)
        d[n - 1 - i, n - p :] = stencil(p, p - 1 - i)
    return d


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_banded_stencil_rows_equal_the_dense_rows_bit_for_bit(q):
    for n in (9, 32, 200, 512, 513):
        g = make_uniform_grid(0.0, 1.0, n, periodic=False)
        dense = _dense_fd(g, q)
        assert np.array_equal(diff_matrix(g, q).entries, dense)
        centre, left, right = grid_module._fd_band(g, q)
        radius, p = grid_module._fd_radius(q), q + 5
        assert np.array_equal(centre, dense[radius, : 2 * radius + 1])
        assert np.array_equal(left, dense[:radius, :p])
        assert np.array_equal(right, dense[n - radius :, n - p :])


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_stencils_depend_on_the_spacing_not_on_n(q):
    # both grids have h = 1/8: the band neither grows nor changes with n
    small = grid_module._fd_band(make_uniform_grid(0.0, 1.0, 9, periodic=False), q)
    large = grid_module._fd_band(make_uniform_grid(0.0, 512.0, 4097, periodic=False), q)
    for a, b in zip(small, large):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_diff_matrix_order_validation():
    g = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    with pytest.raises(UnsupportedOrderError):
        diff_matrix(g, 0)
    with pytest.raises(UnsupportedOrderError):
        diff_matrix(g, 5)
    # periodic grids differentiate to any order spectrally
    gp = make_uniform_grid(0.0, 2 * np.pi, 16, periodic=True)
    diff_matrix(gp, 6)


@pytest.mark.parametrize("n", [8, 9, 32, 33, 64, 513])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 7])
def test_circulant_spectral_build_matches_dense_fft_reference(n, q):
    g = make_uniform_grid(-1.5, 2.0, n, periodic=True)
    # the reference transforms every column of the identity
    mult = derivative_symbol(g, q)
    reference = np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real
    d = diff_matrix(g, q).entries
    assert np.max(np.abs(d - reference)) <= 1e-13 * np.max(np.abs(reference))
    # bit for bit, the circulant of the inverse DFT of the symbol
    column, i = np.fft.ifft(mult).real, np.arange(n)
    assert np.array_equal(d, column[(i[:, None] - i[None, :]) % n])


def _sample_values(g, tail, dtype):
    # one column per wavenumber k, plus a ramp
    x = g.nodes.reshape((g.n,) + (1,) * len(tail))
    k = np.arange(1, 1 + np.prod(tail, dtype=int)).reshape(tail)
    values = np.cos(2.0 * np.pi * k * (x - g.lo) / (g.hi - g.lo)) + x
    return values + 1j * np.sin(k * x) if dtype is complex else values


@pytest.mark.parametrize(
    "periodic, q", [(True, q) for q in range(1, 6)] + [(False, q) for q in range(1, 5)]
)
@pytest.mark.parametrize(
    "tail, dtype", [((), float), ((3,), float), ((3,), complex), ((2, 3), float)]
)
def test_derivative_equals_the_matrix_product(periodic, q, tail, dtype):
    for n in (16, 33):
        g = make_uniform_grid(-1.0, 2.0, n, periodic)
        values = _sample_values(g, tail, dtype)
        d = diff_matrix(g, q).entries
        expected = np.tensordot(d, values, axes=1)
        out = derivative(g, values, q)
        assert out.shape == values.shape and np.iscomplexobj(out) == (dtype is complex)
        # the roundoff of either sum scales with the sum of the term magnitudes
        scale = np.tensordot(np.abs(d), np.abs(values), axes=1)
        assert np.all(np.abs(out - expected) <= 1e-12 * scale)


def test_derivative_order_and_size_validation():
    g = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    gp = make_uniform_grid(0.0, 1.0, 16, periodic=True)
    for grid, q in ((g, 0), (gp, 0), (g, 5)):
        with pytest.raises(UnsupportedOrderError):
            derivative(grid, np.ones(16), q)
    # int(1.7) and int(True) would take a first derivative
    for grid, q in ((g, 1.7), (gp, 1.7), (g, True), (gp, True), (gp, -1)):
        with pytest.raises(DomainError):
            derivative(grid, np.ones(16), q)
    # a one-sided boundary stencil takes q + 5 nodes
    with pytest.raises(DomainError):
        derivative(make_uniform_grid(0.0, 1.0, 8, periodic=False), np.ones(8), 4)
    with pytest.raises(DomainError):
        derivative(g, np.ones(15), 1)


@pytest.mark.parametrize("q", [0, 5])
def test_finite_differences_take_orders_one_to_four(q):
    # a 7-point stencil of order 5 would not be 4th order
    g = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    for build in (grid_module._fd_band, grid_module._fd_rows):
        with pytest.raises(UnsupportedOrderError, match=f"orders 1 to 4, got {q}"):
            build(g, q)
        with pytest.raises(DomainError):
            build(g, q + 0.5)


@pytest.mark.parametrize("q", [-1, 1.5, True])
def test_derivative_symbol_takes_orders_by_the_order_rule(q):
    # (i kappa)^-1 would divide by the zero wavenumber
    with pytest.raises(DomainError):
        derivative_symbol(make_uniform_grid(0.0, 2 * np.pi, 16, periodic=True), q)


def test_large_entries_are_freed_with_their_caller():
    # an n = 512 matrix (2 MiB) lives only as long as its caller holds it
    entries = diff_matrix(make_uniform_grid(0.0, 1.0, 512, periodic=False), 1).entries
    ref = weakref.ref(entries)
    del entries
    assert ref() is None


def test_verify_all_builds_no_dense_difference_matrix(tmp_path, monkeypatch):
    calls = []

    def counted(name, build):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return build(*args, **kwargs)

        return wrapper

    # each name is patched in the modules that hold it; the suites hold neither
    assert not hasattr(theorems_module, "diff_matrix")
    assert not hasattr(theorems_module, "conjugate")
    for module in (grid_module, kernels_module):
        monkeypatch.setattr(module, "diff_matrix", counted("diff_matrix", grid_module.diff_matrix))
    monkeypatch.setattr(operators_module, "conjugate", counted("conjugate", operators_module.conjugate))
    monkeypatch.setattr(np, "kron", counted("kron", np.kron))
    assert main(["verify", "--suite", "all", "--seed", "7", "--out", str(tmp_path)]) == 0
    # every suite differentiates samples through grid.derivative or the band,
    # and the fourier check inverts its table in closed form
    assert calls == []


def test_grids_compare_and_hash_by_their_parameters():
    g = make_uniform_grid(-6.0, 6.0, 48, periodic=True)
    same = make_uniform_grid(-6, 6, 48, periodic=True)
    assert g is not same and g == same and hash(g) == hash(same)
    assert g != make_uniform_grid(-6.0, 6.0, 49, periodic=True)
    assert g != make_uniform_grid(-6.0, 6.0, 48, periodic=False)
    assert g != make_uniform_grid(-6.0, 7.0, 48, periodic=True)
    assert len({g, same}) == 1


def test_fd_weights_recover_taylor_coefficients():
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    w = fd_weights(x, 0.0, 1)
    assert_allclose(w, [1 / 12, -8 / 12, 0, 8 / 12, -1 / 12], atol=1e-13)
    # fd_weights(x, 0.0, True) would be a first derivative, -1 an IndexError
    for order in (-1, 1.5, True):
        with pytest.raises(DomainError):
            fd_weights(x, 0.0, order)


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


@pytest.mark.parametrize("names, x, y, values", [
    (("x", "value"), _X, None, _TABLE[:, 0]),
    (("x", "value"), _X, None, _X + 1j * _TABLE[:, 1]),
    (("x", "y", "w"), _X, _Y, _TABLE),
    (("x", "y", "R"), _X, _Y, _TABLE - 2j * _TABLE[::-1]),
    (("i", "j", "value"), np.arange(64), np.arange(70), _TABLE),
    (("x", "y", "w"), _X[:3], _Y[:5], _TABLE[:3, :5]),
    (("x", "y", "w"), _X, _Y[:1], _TABLE[:, :1]),
    (("x", "y", "w"), _SPECIAL, _SPECIAL, _SPECIAL_TABLE),
    (("x", "value"), _SPECIAL, None, _SPECIAL_COMPLEX),
    (("x", "y", "R"), _X[::2], _Y[::3], (_TABLE - 2j * _TABLE[::-1])[::2, ::3]),
], ids=["1d", "1d-complex", "xyw", "xyw-complex", "ij-int", "xyw-small", "width-1", "special",
        "1d-special", "xyw-complex-strided"])
def test_csv_text_matches_row_by_row_reference(names, x, y, values):
    if y is None:
        got = csv_text(names, x, values).split("\n")
        columns = (x, values)
    else:
        got = "".join(csv_blocks(names, x, y, values)).split("\n")
        columns = (x[:, None], y[None, :], values)
    want = _reference_csv(names, *columns).split("\n")
    # report the first differing line, not a diff of the whole text
    first = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None and len(got) == len(want), (first, len(got), len(want))


def test_csv_blocks_rejects_values_that_do_not_match_the_coordinates():
    with pytest.raises(DomainError):
        csv_text(("x", "value"), _X, _X[:-1])
    with pytest.raises(DomainError):
        next(csv_blocks(("x", "y", "w"), _X, _Y[:-1], _TABLE))
