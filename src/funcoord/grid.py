"""Discretization substrate: uniform grids, quadrature, differentiation.

Every other module operates on the types defined here. A :class:`Grid` is a
uniform discretization of an interval ``[lo, hi]``; periodic grids exclude
the right endpoint and carry equal (rectangle-rule) quadrature weights,
which are spectrally accurate for smooth periodic integrands. Non-periodic
grids include both endpoints and carry trapezoid weights.

A derivative of samples, :func:`derivative`, is spectral on periodic grids
(a Fourier multiplier) and otherwise 4th-order finite differences: three
stencils (:func:`_fd_band`), centred and one-sided at each edge, applied to
shifted slices (:func:`_fd_rows`); the kernel residual differences with
them on every grid, leaving the boundary rows out. Either keeps
differentiation error far below the transform errors probed by the
verification suites. :func:`diff_matrix` is its dense form, built from it:
the spectral matrix is circulant, filled from its first column, and the
finite-difference matrix is the derivative of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, UnsupportedOrderError

__all__ = [
    "Grid",
    "OperatorMatrix",
    "make_uniform_grid",
    "diff_matrix",
    "derivative",
    "fd_weights",
    "wavenumbers",
    "derivative_symbol",
    "csv_text",
    "csv_blocks",
]

#: minimum node count accepted by make_uniform_grid
MIN_NODES = 8

#: maximum derivative order supported on non-periodic grids
MAX_FD_ORDER = 4

#: entries per row block of the n x n layers filled or reduced by row blocks
_ROW_BLOCK = 1 << 14


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of an interval.

    Attributes
    ----------
    lo, hi : float
        Interval endpoints, ``hi > lo``.
    n : int
        Node count (>= 8).
    periodic : bool
        Periodic grids exclude ``hi``; spacing is ``(hi-lo)/n``.
        Non-periodic grids include both endpoints; spacing ``(hi-lo)/(n-1)``.
    nodes : ndarray
        Strictly increasing node coordinates, shape ``(n,)``.
    weights : ndarray
        Quadrature weights summing to ``hi - lo``.
    """

    lo: float
    hi: float
    n: int
    periodic: bool
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def spacing(self) -> float:
        span = self.hi - self.lo
        return span / self.n if self.periodic else span / (self.n - 1)

    def require_samples(self, values, name: str = "samples") -> np.ndarray:
        """Validate that ``values`` is a sample vector on this grid."""
        arr = np.asarray(values)
        if arr.shape != (self.n,):
            raise DomainError(
                f"{name} has shape {arr.shape}, expected ({self.n},) for this grid"
            )
        return arr


@dataclass
class OperatorMatrix:
    """Dense square matrix representing a discretized operator or kernel.

    The matrix acts on sample vectors of the grid it carries. ``grid`` may
    be ``None`` for detached matrices used in pure linear-algebra contexts
    (e.g. small inversion examples); whenever a grid is attached the matrix
    dimension must equal ``grid.n``.

    ``condition`` is populated by operations that performed a regularized
    inversion (see :func:`funcoord.operators.conjugate`).
    """

    entries: np.ndarray
    grid: Optional[Grid] = None
    condition: Optional["object"] = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise DomainError(f"operator matrix must be square, got {self.entries.shape}")
        if self.grid is not None and self.entries.shape[0] != self.grid.n:
            raise DomainError(
                f"matrix dimension {self.entries.shape[0]} does not match grid.n = {self.grid.n}"
            )

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def csv_text(names: Sequence[str], x, values) -> str:
    """CSV text of a sample column: the joined :func:`csv_blocks`."""
    return "".join(csv_blocks(names, x, None, values))


def csv_blocks(names: Sequence[str], x, y, values) -> Iterator[str]:
    """CSV of sampled values with 17-significant-digit numbers, which
    round-trip exactly, yielded as the header line and then texts of rows,
    each ending in a newline. A complex value expands to ``re,im``.

    With ``y`` None, ``values[i]`` is the sample at ``x[i]``: rows
    ``x,value`` in one text. Otherwise ``values[i, j]`` belongs to
    ``(x[i], y[j])``: one text per ``x``, of rows ``x,y,value``. Each
    coordinate is formatted once, and the values fill a row template
    with one ``%`` call per text."""
    values = np.asarray(values)
    is_complex = np.iscomplexobj(values)
    cell = "%.17g,%.17g" if is_complex else "%.17g"
    xs = ["%.17g" % v for v in np.asarray(x).tolist()]
    if values.shape != (len(xs),) + (() if y is None else (len(y),)):
        raise DomainError(f"values of shape {values.shape} do not match the coordinates")
    yield ",".join([*names[:-1], *(("re", "im") if is_complex else names[-1:])]) + "\n"
    if is_complex:
        # each row as re, im pairs, a view of contiguous input
        values = np.ascontiguousarray(values).view(values.real.dtype)
    if y is None:
        yield "".join("%s,%s\n" % (t, cell) for t in xs) % tuple(values.tolist())
        return
    ys = ["%.17g" % v for v in np.asarray(y).tolist()]
    for t, row in zip(xs, values):
        template = t + "," + (",%s\n%s," % (cell, t)).join(ys) + "," + cell + "\n"
        yield template % tuple(row.tolist())


def make_uniform_grid(lo: float, hi: float, n: int, periodic: bool = False) -> Grid:
    """Build a uniform grid with quadrature weights.

    Periodic grids use the rectangle rule (equal weights ``h``); non-periodic
    grids use the composite trapezoid rule (half weights at the endpoints).

    Raises
    ------
    DomainError
        If ``hi <= lo`` or ``n < 8``.
    """
    lo, hi = float(lo), float(hi)
    n = int(n)
    if not hi > lo:
        raise DomainError(f"need hi > lo, got [{lo}, {hi}]")
    if n < MIN_NODES:
        raise DomainError(f"need n >= {MIN_NODES}, got {n}")
    span = hi - lo
    if periodic:
        h = span / n
        nodes = lo + h * np.arange(n)
        weights = np.full(n, h)
    else:
        h = span / (n - 1)
        nodes = np.linspace(lo, hi, n)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Grid(lo=lo, hi=hi, n=n, periodic=periodic, nodes=nodes, weights=weights)


def fd_weights(nodes, x0: float, order: int) -> np.ndarray:
    """Finite-difference weights for the ``order``-th derivative at ``x0``.

    Classic Fornberg recursion on an arbitrary node set: returns ``w`` such
    that ``sum_k w[k] f(nodes[k])`` approximates ``f^(order)(x0)`` with
    accuracy ``len(nodes) - order`` (one better for symmetric stencils).
    """
    x = np.asarray(nodes, dtype=float)
    p = len(x)
    if order >= p:
        raise UnsupportedOrderError(
            f"{p} nodes cannot resolve derivative order {order}"
        )
    c = np.zeros((p, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, p):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def wavenumbers(grid: Grid) -> np.ndarray:
    """Signed wavenumbers of a periodic grid, in FFT bin order.

    For a grid on ``[0, 2*pi)`` these are the integers
    ``0, 1, ..., n/2-1, -n/2, ..., -1``.
    """
    if not grid.periodic:
        raise DomainError("wavenumbers are defined for periodic grids only")
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)


def derivative_symbol(grid: Grid, q: int) -> np.ndarray:
    """Fourier multiplier ``(i*kappa)^q`` of the order-``q`` spectral
    differentiation, including the even-``n`` Nyquist convention: the
    unpaired Nyquist mode gets multiplier 0 for odd ``q`` (the real
    differentiation matrix annihilates the sawtooth mode) and the usual
    real value for even ``q``.
    """
    mult = (1j * wavenumbers(grid)) ** q
    if grid.n % 2 == 0 and q % 2 == 1:
        mult[grid.n // 2] = 0.0
    return mult


def _circulant(c: np.ndarray) -> np.ndarray:
    """The circulant matrix ``C[i, j] = c[(i - j) mod n]`` with first
    column ``c``, as one strided copy: row ``i`` is the window at
    ``n - 1 - i`` of the reversed doubled column."""
    n = len(c)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((c, c))[::-1], n)
    return np.ascontiguousarray(windows[n - 1 :: -1])


def _fd_radius(q: int) -> int:
    """Interior stencil half-width of the order-``q`` finite-difference matrix."""
    return 2 if q <= 2 else 3


def _fd_band(grid: Grid, q: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """4th-order finite-difference operator of order ``q`` as its three
    stencils ``(centre, left, right)``, on offsets ``h * k`` from the node.

    ``centre`` (5 points for q <= 2, 7 for q in {3, 4}) is every interior
    row's stencil. ``left[i]`` is row ``i`` on the first q + 5 nodes and
    ``right[i]`` row ``n - radius + i`` on the last q + 5 nodes: one-sided
    windows, so that the boundary closure does not degrade the interior
    order. Each stencil's diagonal weight is corrected by the stencil's
    own sum, so constants differentiate to exactly zero. On a uniform grid
    the weights depend on the spacing and ``q`` only, not on ``n``.
    """
    radius, p = _fd_radius(q), q + 5
    if p > grid.n:
        raise DomainError(f"grid too small for derivative order {q}")

    def stencil(size: int, at: int) -> np.ndarray:
        weights = fd_weights(grid.spacing * (np.arange(size) - at), 0.0, q)
        weights[at] -= weights.sum()
        return weights

    edges = np.array([stencil(p, at) for at in [*range(radius), *range(p - radius, p)]])
    return stencil(2 * radius + 1, radius), edges[:radius], edges[radius:]


def _row_blocks(rows: int, cols: int) -> Iterator[Tuple[int, int]]:
    """Bounds ``(r0, r1)`` of consecutive row blocks of a rows x cols array,
    of at most ``_ROW_BLOCK`` entries each (or one row)."""
    step = max(1, _ROW_BLOCK // cols)
    return ((r0, min(r0 + step, rows)) for r0 in range(0, rows, step))


def _fd_rows(grid: Grid, q: int) -> Callable:
    """``(values, r0, r1) ->`` rows ``r0:r1`` of the 4th-order finite
    difference of order ``q`` of ``values``, of any shape ``(n, ...)``,
    along axis 0. The stencils of :func:`_fd_band` apply to shifted slices
    of ``values``: the centred one to interior rows, the one-sided ones,
    on the first and last q + 5 values, to the first and last ``radius``
    rows. A periodic grid's nodes are read as a non-periodic window."""
    (centre, left, right), n, radius, p = _fd_band(grid, q), grid.n, _fd_radius(q), q + 5

    def rows(values: np.ndarray, r0: int, r1: int) -> np.ndarray:
        flat = values.reshape(n, -1)
        out = np.empty((r1 - r0, flat.shape[1]), dtype=np.result_type(centre, flat))
        lo, hi = max(r0, radius), min(r1, n - radius)
        if lo < hi:
            acc = out[lo - r0 : hi - r0]
            np.multiply(centre[0], flat[lo - radius : hi - radius], out=acc)
            for k in range(1, 2 * radius + 1):
                acc += centre[k] * flat[lo - radius + k : hi - radius + k]
        for i in range(r0, min(r1, radius)):
            out[i - r0] = left[i] @ flat[:p]
        for i in range(max(r0, n - radius), r1):
            out[i - r0] = right[i - n + radius] @ flat[n - p :]
        return out.reshape((r1 - r0,) + values.shape[1:])

    return rows


def derivative(grid: Grid, values, q: int) -> np.ndarray:
    """Order-``q`` derivative of samples along axis 0: the product
    ``diff_matrix(grid, q).entries @ values``, without the matrix.

    On a periodic grid the derivative is the Fourier multiplier
    :func:`derivative_symbol` (real for real ``values``); otherwise it is
    the 4th-order finite difference of :func:`_fd_rows`, supported for
    ``q <= 4``.

    Raises
    ------
    UnsupportedOrderError
        If ``q < 1``, or ``q > 4`` on a non-periodic grid.
    DomainError
        If ``values`` does not have ``n`` rows, or a non-periodic grid has
        fewer than ``q + 5`` nodes.
    """
    q = int(q)
    if q < 1 or (q > MAX_FD_ORDER and not grid.periodic):
        raise UnsupportedOrderError(
            f"derivative order must be >= 1 (<= {MAX_FD_ORDER} on a non-periodic grid), got {q}"
        )
    values = np.asarray(values)
    if values.shape[:1] != (grid.n,):
        raise DomainError(f"values of shape {values.shape} do not have {grid.n} rows")
    if not grid.periodic:
        return _fd_rows(grid, q)(values, 0, grid.n)
    symbol = derivative_symbol(grid, q).reshape((grid.n,) + (1,) * (values.ndim - 1))
    out = np.fft.ifft(symbol * np.fft.fft(values, axis=0), axis=0)
    return out if np.iscomplexobj(values) else np.ascontiguousarray(out.real)


def diff_matrix(grid: Grid, q: int) -> OperatorMatrix:
    """Differentiation matrix of order ``q`` on ``grid``: the dense form of
    :func:`derivative`, with its order check.

    A periodic grid's spectral matrix is circulant, filled from its first
    column, the derivative of the first unit vector; a non-periodic grid's
    matrix is the derivative of the identity."""
    if grid.periodic:
        return OperatorMatrix(_circulant(derivative(grid, np.eye(1, grid.n)[0], q)), grid)
    return OperatorMatrix(derivative(grid, np.eye(grid.n), q), grid)
