"""Working set of the large-grid layers, in units of one n x n float64 array.

Each layer keeps to a few n x n arrays, and a check holds no n x n array
that it only reduces to a number: the residual streams its field block by
block of rows, reading a tabulated kernel's own table and the band of its
finite-difference matrix; the Nystrom table is filled block by block of
rows; conjugation applies the regularized inverse in factored form and a
multiplication operator as a scaling; and the product check reduces its
intertwining residual, and scores the conjugate's locality, one block of
rows at a time. The peaks are traced with tracemalloc (numpy reports its
array buffers to it) after one warm-up call, so one-time allocations such
as caches and imports stay out.
"""

import tracemalloc

import numpy as np
import pytest

from funcoord import (
    check_product_preservation,
    exp_exp,
    gaussian,
    kernel_pde_residual,
    make_uniform_grid,
    riccati_kernel,
)
from funcoord.kernels import kernel_table

N = 256


def peak_in_squares(fn, n: int = N) -> float:
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n)


def test_xdx_residual_holds_few_squares():
    # row blocks only (1.77 squares; 3.02 with the whole residual field
    # held, six before row blocks)
    grid = make_uniform_grid(0.0, 1.0, N)
    y_grid = make_uniform_grid(-1.0, 1.0, N)
    peak = peak_in_squares(lambda: kernel_pde_residual(
        exp_exp(-1), 1, 1, lambda x: np.asarray(x), 1.0, grid, y_grid=y_grid,
        db=(lambda y: np.zeros(np.shape(y)),),
    ))
    assert peak <= 2.2


def test_riccati_residual_holds_few_squares():
    # row blocks only: the kernel's table is read in place and differentiated
    # by its stencil rows (1.30 squares; 2.63 with the whole residual field
    # and the dense difference matrix held, 3.63 when the kernel also
    # answered with a copy of its table)
    grid = make_uniform_grid(0.0, 1.0, N)
    square = lambda y: np.asarray(y, dtype=float) ** 2
    kernel = riccati_kernel(1.0, square, lambda y: np.asarray(y, dtype=float), grid)
    db = (lambda y: 2.0 * np.asarray(y, dtype=float), lambda y: np.full(np.shape(y), 2.0))
    peak = peak_in_squares(lambda: kernel_pde_residual(kernel, 2, 0, 1.0, square, grid, db=db))
    assert peak <= 1.7


def test_product_conjugation_holds_few_squares():
    # W, the SVD factors and the result (4.33 squares with diag(a) formed,
    # 7.2 with the formed pseudo-inverse and two n^3 products)
    grid = make_uniform_grid(-6.0, 6.0, N)
    peak = peak_in_squares(lambda: check_product_preservation(
        lambda t: np.asarray(t, dtype=float), gaussian(), grid,
    ))
    assert peak <= 3.4


@pytest.mark.parametrize("a", [1.0, lambda t: np.asarray(t, dtype=float)], ids=["const_a", "var_a"])
def test_product_check_at_n512_holds_few_squares(a):
    # at n = 512 the SVD is sketched, so W is the one square held: the table
    # is filled by row blocks, the trivial case's residual is reduced block
    # by block and the conjugate is scored in factored form (1.19 squares
    # const_a, 1.79 var_a; 3.04 and 3.0 with the whole table's temporaries,
    # the residual's temporaries and the formed conjugate)
    n = 512
    grid = make_uniform_grid(-6.0, 6.0, n)
    peak = peak_in_squares(lambda: check_product_preservation(a, gaussian(), grid), n)
    assert peak <= 2.0


def test_nonperiodic_kernel_table_holds_few_squares():
    # the table plus one row block's temporaries (1.19 squares; 3.0 when the
    # whole table's differences and profile terms were held beside it)
    n = 512
    grid = make_uniform_grid(-6.0, 6.0, n)
    peak = peak_in_squares(lambda: kernel_table(gaussian(), grid.nodes, grid), n)
    assert peak <= 1.6
