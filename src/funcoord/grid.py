"""Discretization substrate: uniform grids, quadrature, differentiation.

Every other module operates on the types defined here. A :class:`Grid` is a
uniform discretization of an interval ``[lo, hi]``; periodic grids exclude
the right endpoint and carry equal (rectangle-rule) quadrature weights,
which are spectrally accurate for smooth periodic integrands. Non-periodic
grids include both endpoints and carry trapezoid weights.

Differentiation matrices are spectral on periodic grids and 4th-order
finite-difference stencils otherwise, so that differentiation error sits
far below the transform errors probed by the verification suites. The
spectral matrix is circulant: it is filled from its first column, the
inverse DFT of the derivative symbol. The entries of each matrix are
read-only and keyed by ``(lo, hi, n, periodic, q)``; a cache bounded by
bytes shares the recently used small ones between :func:`diff_matrix`
calls, while a large one lives only as long as its caller holds it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, UnsupportedOrderError

__all__ = [
    "Grid",
    "OperatorMatrix",
    "make_uniform_grid",
    "diff_matrix",
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


def csv_text(names: Sequence[str], *columns) -> str:
    """CSV text of named columns: the joined :func:`csv_blocks`."""
    return "".join(csv_blocks(names, *columns))


def csv_blocks(names: Sequence[str], *columns) -> Iterator[str]:
    """CSV of named columns with 17-significant-digit numbers, which
    round-trip exactly, yielded as the header line and then one text per
    block of rows, each ending in a newline. The columns broadcast against
    each other, rows follow C order, and a complex column expands to
    ``re,im``.

    A block holds the rows of one leading index of the broadcast table (a
    1-D table is one block). A column with fewer entries than the table,
    such as ``x[:, None]`` or ``y[None, :]``, is formatted once per entry
    and its text copied into each block's row template; the full-size
    columns fill that template with one ``%`` call per block."""
    header, parts = [], []
    for name, column in zip(names, map(np.asarray, columns)):
        if np.iscomplexobj(column):
            header += ["re", "im"]
            parts += [column.real, column.imag]
        else:
            header.append(name)
            parts.append(column)
    shape = np.broadcast_shapes(*(p.shape for p in parts))
    size, width = math.prod(shape), shape[-1]
    blocks = size // width
    # per column, the cell each block puts in its row template: the
    # placeholder, one text for every row, or one text per row
    cells, full = [], []
    for p in parts:
        if p.size == size:
            cells.append(["%.17g"] * blocks)
            full.append(np.broadcast_to(p, shape).reshape(blocks, width))
            continue
        text = np.array(["%.17g" % v for v in p.ravel().tolist()], dtype=object)
        text = np.broadcast_to(text.reshape(p.shape), shape).reshape(blocks, width)
        cells.append(text[:, 0].tolist() if text.strides[1] == 0 else text)
    yield ",".join(header) + "\n"
    for i in range(blocks):
        template = _block_template([c[i] for c in cells], width) + "\n"
        values = [f[i].tolist() for f in full]
        args = values[0] if len(values) == 1 else chain.from_iterable(zip(*values))
        yield template % tuple(args)


def _block_template(cells: list, width: int) -> str:
    """``width`` comma-separated rows joined by newlines. A cell is one
    string for every row, or an array or list of one string per row."""
    prefix, rows, pending = "", None, ""
    for k, cell in enumerate(cells):
        if k:
            pending += ","
        if isinstance(cell, str):
            pending += cell
        elif rows is None:
            prefix, rows, pending = pending, cell, ""
        else:
            rows, pending = map(add, map(add, rows, repeat(pending)), cell), ""
    if rows is None:
        return "\n".join(repeat(pending, width))
    # the text before the first and after the last per-row cell joins the rows
    return prefix + (pending + "\n" + prefix).join(rows) + pending


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


def _spectral_diff(grid: Grid, q: int) -> np.ndarray:
    """Spectral differentiation matrix on a periodic grid.

    Exact on every resolved trigonometric mode (see
    :func:`derivative_symbol` for the Nyquist convention). The matrix is
    circulant, filled from its first column, the inverse DFT of the symbol.
    """
    return _circulant(np.fft.ifft(derivative_symbol(grid, q)).real)


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


def _fd_band(grid: Grid, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """4th-order finite-difference matrix on a non-periodic grid, as a band
    ``(interior, edges)``: ``interior[k]`` is row ``radius + k`` on columns
    ``k .. k + 2 radius``, ``edges`` the first and last ``radius`` rows.

    Interior rows use centered stencils (5 points for q <= 2, 7 for
    q in {3, 4}); rows near the boundary use one-sided windows of q + 5
    points so the boundary closure does not degrade the interior order.
    On a uniform grid a row's weights depend only on where the row's node
    sits in its window, so the 2 * radius + 1 distinct stencils are
    computed once, on offsets ``h * k`` from the node. The diagonal is
    corrected to enforce exact zero row sums (constants differentiate to
    exactly zero), each sum taken over the row's n entries as numpy sums
    a dense row, so that band and dense matrix agree bit for bit.
    """
    n = grid.n
    radius = _fd_radius(q)
    p_boundary = q + 5
    if p_boundary > n:
        raise DomainError(f"grid too small for derivative order {q}")

    def stencil(size: int, at: int) -> np.ndarray:
        return fd_weights(grid.spacing * (np.arange(size) - at), 0.0, q)

    # row i of the dense matrix is the window padded[n - i : 2 n - i]
    padded = np.zeros(2 * n)
    padded[n - radius : n + radius + 1] = stencil(2 * radius + 1, radius)
    interior = np.tile(padded[n - radius : n + radius + 1], (n - 2 * radius, 1))
    windows = np.lib.stride_tricks.sliding_window_view(padded, n)[n - radius : radius : -1]
    interior[:, radius] -= windows.sum(axis=1)
    edges = np.zeros((2 * radius, n))
    for i in range(radius):
        edges[i, :p_boundary] = stencil(p_boundary, i)
        edges[-1 - i, n - p_boundary :] = stencil(p_boundary, p_boundary - 1 - i)
    edges[range(2 * radius), [*range(radius), *range(n - radius, n)]] -= edges.sum(axis=1)
    return interior, edges


def _fd_diff(grid: Grid, q: int) -> np.ndarray:
    """The dense matrix of :func:`_fd_band`."""
    interior, edges = _fd_band(grid, q)
    n, radius = grid.n, len(edges) // 2
    d = np.zeros((n, n))
    rows = np.arange(radius, n - radius)[:, None]
    d[rows, rows + np.arange(-radius, radius + 1)] = interior
    d[:radius], d[n - radius :] = edges[:radius], edges[radius:]
    return d


def _row_blocks(rows: int, cols: int) -> Iterator[Tuple[int, int]]:
    """Bounds ``(r0, r1)`` of consecutive row blocks of a rows x cols array,
    of at most ``_ROW_BLOCK`` entries each (or one row)."""
    step = max(1, _ROW_BLOCK // cols)
    return ((r0, min(r0 + step, rows)) for r0 in range(0, rows, step))


def diff_matrix(grid: Grid, q: int) -> OperatorMatrix:
    """Differentiation matrix of order ``q`` on ``grid``.

    Periodic grids get spectral differentiation (exact on resolved modes),
    filled from its circulant first column; non-periodic grids get
    4th-order stencils, supported for ``q <= 4``.

    Each call returns a new :class:`OperatorMatrix`, but its entries are
    read-only and may be shared with earlier calls of the same
    ``(lo, hi, n, periodic, q)``: copy them before writing.

    Raises
    ------
    UnsupportedOrderError
        If ``q < 1``, or ``q > 4`` on a non-periodic grid.
    """
    q = int(q)
    if q < 1:
        raise UnsupportedOrderError(f"derivative order must be >= 1, got {q}")
    if not grid.periodic and q > MAX_FD_ORDER:
        raise UnsupportedOrderError(
            f"non-periodic grids support derivative order <= {MAX_FD_ORDER}, got {q}"
        )
    return OperatorMatrix(_diff_entries(grid.lo, grid.hi, grid.n, grid.periodic, q), grid)


#: bytes of differentiation-matrix entries kept for reuse: the 12 of
#: ``verify --suite all`` at its default sizes take 302 KiB, one matrix at
#: n = 512 takes 2 MiB
_DIFF_CACHE_BYTES = 1 << 20

_diff_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()


def _diff_entries(lo: float, hi: float, n: int, periodic: bool, q: int) -> np.ndarray:
    """Read-only entries of :func:`diff_matrix`, keyed by value because a
    :class:`Grid` holds arrays and cannot be hashed.

    The cache is bounded by bytes, not by count: it keeps the most
    recently used entries whose sizes sum to at most ``_DIFF_CACHE_BYTES``,
    and an entry larger than that is never kept, so it is freed as soon as
    its caller drops it. ``_diff_entries.cache_clear()`` empties it."""
    key = (lo, hi, n, periodic, q)
    entries = _diff_cache.get(key)
    if entries is not None:
        _diff_cache.move_to_end(key)
        return entries
    grid = make_uniform_grid(lo, hi, n, periodic)
    entries = _spectral_diff(grid, q) if periodic else _fd_diff(grid, q)
    entries.setflags(write=False)
    if entries.nbytes <= _DIFF_CACHE_BYTES:
        _diff_cache[key] = entries
        while sum(e.nbytes for e in _diff_cache.values()) > _DIFF_CACHE_BYTES:
            _diff_cache.popitem(last=False)
    return entries


_diff_entries.cache_clear = _diff_cache.clear
