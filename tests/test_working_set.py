"""Working set of the large-grid layers, in units of one n x n float64 array.

Each layer keeps to a few n x n arrays: the residual fills one output array
block by block of rows, and conjugation applies the regularized inverse in
factored form. The peaks are traced with tracemalloc (numpy reports its
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


def test_product_conjugation_holds_few_squares():
    # W, diag(a), the SVD factors and the result (7.2 squares with the
    # formed pseudo-inverse and two n^3 products)
    grid = make_uniform_grid(-6.0, 6.0, N)
    peak = peak_in_squares(lambda: check_product_preservation(
        lambda t: np.asarray(t, dtype=float), gaussian(), grid,
    ))
    assert peak <= 5.0
