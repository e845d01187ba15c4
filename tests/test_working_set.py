"""Working set of the large-grid layers, in units of one n x n float64 array.

Each layer keeps to a few n x n arrays: the residual fills one output array
block by block of rows and reads a tabulated kernel's own table, and
conjugation applies the regularized inverse in factored form and a
multiplication operator as a scaling. The peaks are traced with tracemalloc (numpy reports its
array buffers to it) after one warm-up call, so one-time allocations such
as caches and imports stay out.
"""

import tracemalloc

import numpy as np

from funcoord import (
    check_product_preservation,
    exp_exp,
    gaussian,
    kernel_pde_residual,
    make_uniform_grid,
    riccati_kernel,
)

N = 256


def peak_in_squares(fn) -> float:
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * N * N)


def test_xdx_residual_holds_few_squares():
    # one output array plus row blocks (six squares before row blocks)
    grid = make_uniform_grid(0.0, 1.0, N)
    y_grid = make_uniform_grid(-1.0, 1.0, N)
    peak = peak_in_squares(lambda: kernel_pde_residual(
        exp_exp(-1), 1, 1, lambda x: np.asarray(x), 1.0, grid, y_grid=y_grid,
        db=(lambda y: np.zeros(np.shape(y)),),
    ))
    assert peak <= 3.5


def test_riccati_residual_holds_few_squares():
    # the output array plus row blocks; the kernel's table is read in place
    # (3.63 squares when the kernel answered with a copy of it)
    grid = make_uniform_grid(0.0, 1.0, N)
    square = lambda y: np.asarray(y, dtype=float) ** 2
    kernel = riccati_kernel(1.0, square, lambda y: np.asarray(y, dtype=float), grid)
    db = (lambda y: 2.0 * np.asarray(y, dtype=float), lambda y: np.full(np.shape(y), 2.0))
    peak = peak_in_squares(lambda: kernel_pde_residual(kernel, 2, 0, 1.0, square, grid, db=db))
    assert peak <= 2.7


def test_product_conjugation_holds_few_squares():
    # W, the SVD factors and the result (4.33 squares with diag(a) formed,
    # 7.2 with the formed pseudo-inverse and two n^3 products)
    grid = make_uniform_grid(-6.0, 6.0, N)
    peak = peak_in_squares(lambda: check_product_preservation(
        lambda t: np.asarray(t, dtype=float), gaussian(), grid,
    ))
    assert peak <= 3.4
