"""Coordinate-transformation kernels and their discrete machinery.

A :class:`Kernel` is a two-variable function ``w(x, y)`` whose Nystrom
discretization (quadrature weights absorbed into the columns) turns the
integral transform ``phi(x) = int w(x, y) phi~(y) dy`` into a dense
matrix-vector product. The catalog covers:

``fourier``          ``e^{ixy}`` — discretized on frequency-matched columns
                     so the matrix is the discrete Fourier transform up to
                     scaling.
``gaussian``         ``e^{-(x-y)^2}`` — the smoothing convolution used to
                     map generalized functions to smooth ones.
``translation_tgauss``
                     ``(x-y) e^{-(x-y)^2}`` — -1/2 the Gaussian's
                     x-derivative.
``exp_exp``          ``e^{x e^{+/- y}}``.
``multiplication``   ``a0(x) delta(x - y)`` — diagonal-only, never
                     evaluated pointwise.
``dilation``         ``c delta(x - y)`` — a constant ``factor``.

Partials come from one callable per axis (``dx_n``/``dy_n``) that answers
every order it is asked for or raises :class:`UnsupportedOrderError`; a
kernel without the callable takes finite differences of ``eval``. The
tabulated Riccati kernel has values on its nodes only, so its residual
takes differences along the grid instead. Translation kernels carry
their profile (``profile_n``) and derive their values and partials from
it; diagonal kernels carry only their ``factor``. :func:`kernel_table`
returns the Nystrom table (quadrature weights absorbed into the
columns), checked for non-finite entries.

Application integrates the declared jumps of a generalized function
exactly: in closed form for translation kernels, from their profile's
antiderivatives (the Gaussian's repeated erfc integrals, which its profile
gives at negative orders, and ``t e^{-t^2}``, which is -1/2 the Gaussian's
derivative), and by one vector-valued adaptive quadrature per jump for
every other kernel. scipy is imported only where that quadrature runs.

Inversion is always regularized (truncated SVD, by a randomized range
finder for matrices of low numerical rank); deconvolution against a
smoothing kernel is ill-posed, and the verification suites prefer residual
formulations (``A W = W B``) over explicit inverses wherever a candidate
``B`` is known.

Working rectangles matter: the Gaussian kernel wants a domain wide enough
that ``e^{-(x-y)^2}`` decays below ~1e-15 across half the interval
(e.g. ``[-6, 6]``); ``exp_exp`` is kept on ``[0, 1] x [-1, 1]`` to control
growth. Each test documents its domain choice.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .distributions import GeneralizedFunction
from .errors import (
    DomainError,
    KernelEvaluationError,
    RiccatiBlowupError,
    SingularTransformError,
    UnsupportedOrderError,
)
from .grid import (
    Grid,
    OperatorMatrix,
    _circulant,
    _fd_radius,
    _fd_rows,
    _row_blocks,
    csv_blocks,
    diff_matrix,  # unused here; the perfbench tracer test reads kernels.diff_matrix
    fd_weights,
    wavenumbers,
)

__all__ = [
    "Kernel",
    "ConditionReport",
    "fourier",
    "gaussian",
    "translation_tgauss",
    "exp_exp",
    "multiplication",
    "dilation",
    "discretize",
    "apply",
    "invert",
    "kernel_pde_residual",
    "residual_blocks",
    "riccati_kernel",
]

#: |g| beyond which the Riccati integration reports a blow-up
RICCATI_BLOWUP = 1.0e6

_SELF_CHECK_SEED = 20240811
_SELF_CHECK_POINTS = 100
_SELF_CHECK_TOL = 1.0e-6

#: columns of the first range-finder sketch of _truncated_svd, and its seed
_SKETCH_COLUMNS = 64
_SKETCH_SEED = 20240812

_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class ConditionReport:
    """Record of a regularized inversion: singular-value extremes, the
    number of truncated values and the effective rank kept."""

    sigma_max: float
    sigma_min: float
    truncated: int
    rank: int


@dataclass
class Kernel:
    """Closed-form (or tabulated) transformation kernel ``w(x, y)``.

    ``eval`` takes broadcastable arrays. ``dx_n``/``dy_n`` are the analytic
    partials ``(x, y, q) -> d^q w``: each answers every order ``q >= 1`` it
    is asked for, or raises :class:`UnsupportedOrderError`. A missing
    callable means centered finite differences of ``eval`` at every order
    along that axis. :func:`kernel_table` tabulates the kernel
    with quadrature weights absorbed and checks the table is finite.

    ``profile_n(t, q)`` marks a translation kernel ``f(x - y)``: it is the
    ``q``-th derivative of ``f``, from which values and partials derive and
    which periodizes the kernel on periodic grids; at ``q < 0`` it is the
    ``-q``-fold antiderivative from ``-inf``, which jump images need, or
    raises :class:`UnsupportedOrderError`. ``factor`` marks a diagonal
    kernel ``factor(x) delta(x - y)`` (``multiplication``; ``dilation`` is a
    constant factor). It has no pointwise values: discretization and
    application multiply by the factor, and every pointwise access raises
    :class:`DomainError`.
    """

    id: str
    eval: Optional[Callable] = None
    is_complex: bool = False
    dx_n: Optional[Callable] = None
    dy_n: Optional[Callable] = None
    factor: Optional[Callable] = None
    profile_n: Optional[Callable] = None
    frequency_columns: bool = False
    table: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # -- partial derivatives -------------------------------------------------

    def _analytic(self, axis: str, q: int) -> bool:
        """Whether the order-``q`` partial along ``axis`` is analytic."""
        return q == 0 or (self.dx_n if axis == "x" else self.dy_n) is not None

    def partial_x(self, x, y, q: int):
        return self._partial("x", x, y, q)

    def partial_y(self, x, y, q: int):
        return self._partial("y", x, y, q)

    def _partial(self, axis: str, x, y, q: int):
        if self.factor is not None:
            raise DomainError(f"diagonal kernel {self.id!r} has no pointwise values")
        if q == 0:
            return self.eval(x, y)
        if self._analytic(axis, q):
            return (self.dx_n if axis == "x" else self.dy_n)(x, y, q)
        return self._fd_partial(axis, x, y, q)

    def _fd_partial(self, axis: str, x, y, q: int):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if axis == "x":
            return _fd_derivative(lambda s: self.eval(s, y), q)(x)
        return _fd_derivative(lambda s: self.eval(x, s), q)(y)


def _fd_derivative(fn: Callable, q: int) -> Callable:
    """``q``-th derivative of ``fn`` on a centered stencil of q+4/q+5
    points; the step ``eps^(1/(q+4))`` balances truncation against
    roundoff for the q-th derivative."""
    p = q + 4 if (q + 4) % 2 == 1 else q + 5
    h = np.finfo(float).eps ** (1.0 / (q + 4))
    offsets = (np.arange(p) - p // 2) * h
    w = fd_weights(offsets, 0.0, q)

    def deriv(t):
        t = np.asarray(t, dtype=float)
        total = None
        for wk, dk in zip(w, offsets):
            term = wk * np.asarray(fn(t + dk))
            total = term if total is None else total + term
        return total

    return deriv


def _as_coefficient(c) -> Callable:
    """A coefficient as a callable: callables pass through, a constant
    becomes a function returning it (as a full array for array input)."""
    if callable(c):
        return c
    value = complex(c) if isinstance(c, complex) else float(c)
    return lambda t: np.full(np.shape(t), value) if np.ndim(t) else value


def _hermite(q: int, t):
    """Physicists' Hermite polynomial ``H_q(t)`` by Clenshaw's backward
    recurrence in numpy ``hermval``'s order (``0.0 - v`` included), so it
    matches ``hermval`` bit for bit; the forward three-term recurrence
    differs in the last bits from q = 3 on."""
    x2 = 2.0 * np.asarray(t, dtype=float)
    c0, c1 = (1.0, 0.0) if q == 0 else (0.0, 1.0)
    for k in range(q - 1, 0, -1):
        c0, c1 = 0.0 - c1 * (2 * k), c0 + c1 * x2
    return c0 + c1 * x2


# ---------------------------------------------------------------------------
# kernel catalog
# ---------------------------------------------------------------------------


def fourier() -> Kernel:
    """Oscillatory kernel ``e^{ixy}`` (complex).

    Discretization pairs the grid nodes with the grid's signed wavenumbers
    as column coordinates, so on ``[0, 2*pi)`` the matrix is the inverse
    discrete Fourier transform up to a uniform scale (columns are the
    sampled modes ``e^{i*kappa*x}``).
    """
    w = lambda x, y: np.exp(1j * np.asarray(x) * np.asarray(y))
    return Kernel(
        id="fourier",
        eval=w,
        is_complex=True,
        dx_n=lambda x, y, q: (1j * np.asarray(y)) ** q * w(x, y),
        dy_n=lambda x, y, q: (1j * np.asarray(x)) ** q * w(x, y),
        frequency_columns=True,
    )


def gaussian() -> Kernel:
    """Smoothing kernel ``e^{-(x-y)^2}``.

    All partial derivatives are analytic via Hermite polynomials:
    ``d^q/dy^q e^{-t^2} = H_q(t) e^{-t^2}`` with ``t = x - y``.

    The profile also takes negative orders: ``profile(t, -m)`` is the
    m-fold antiderivative ``int_{-inf}^t e^{-s^2} (t-s)^(m-1)/(m-1)! ds``,
    the repeated erfc integral ``(sqrt(pi)/2) i^(m-1)erfc(-t)``
    (Abramowitz & Stegun 7.2). :func:`apply` uses it for jumps.
    """

    def profile(t, q=0):
        t = np.asarray(t, dtype=float)
        if q == 0:
            return np.exp(-(t**2))
        if q < 0:
            # P_k = (t P_{k-1} + P_{k-2} / 2) / k from P_{-1} = e^{-t^2}
            # and P_0 = (sqrt(pi)/2) erfc(-t), where P_k = profile(t, -(k+1))
            before, value = np.exp(-(t**2)), math.sqrt(math.pi) / 2.0 * _erfc(-t)
            for k in range(1, -q):
                before, value = value, (t * value + before / 2.0) / k
            return value
        return (-1.0) ** q * _hermite(q, t) * np.exp(-(t**2))

    return _translation("gaussian", profile)


def translation_tgauss() -> Kernel:
    """Translation kernel ``t e^{-t^2}`` at ``t = x - y``.

    ``t e^{-t^2} = -1/2 d/dt e^{-t^2}``, so its profile is -1/2 the
    Gaussian profile one order up: analytic at every order, with the
    antiderivatives that give its jump images in closed form.
    """
    gauss = gaussian().profile_n
    return _translation("translation_tgauss", lambda t, q=0: -0.5 * gauss(t, q + 1))


def _translation(id: str, profile: Callable) -> Kernel:
    """Translation kernel ``f(x - y)`` from its profile ``profile(t, q) = f^(q)(t)``:
    values ``profile(x - y, 0)``, x-partials ``profile(x - y, q)`` and
    y-partials ``(-1)^q profile(x - y, q)``."""
    t = lambda x, y: np.asarray(x) - np.asarray(y)
    return Kernel(
        id=id,
        eval=lambda x, y: profile(t(x, y), 0),
        dx_n=lambda x, y, q: profile(t(x, y), q),
        dy_n=lambda x, y, q: (-1.0) ** q * profile(t(x, y), q),
        profile_n=profile,
    )


def exp_exp(sign: int) -> Kernel:
    """Kernel ``e^{x e^{sign*y}}`` with ``sign`` in {+1, -1}.

    Partials are analytic at every order. With ``z = x e^{sign*y}``, d/dy
    acts as ``sign * z d/dz``, and ``(z d/dz)^q e^z = T_q(z) e^z`` with the
    Touchard polynomial ``T_q(z) = sum_k S(q, k) z^k`` (Stirling numbers of
    the second kind), evaluated in Horner form.
    """
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    s = float(sign)

    def w(x, y):
        return np.exp(np.asarray(x) * np.exp(s * np.asarray(y)))

    def dxn(x, y, q):
        g = np.exp(s * np.asarray(y))
        return g**q * w(x, y)

    def dyn(x, y, q):
        z = np.asarray(x) * np.exp(s * np.asarray(y))
        # S(k, j) = j S(k-1, j) + S(k-1, j-1) up to k = q, then Horner on
        # T_q(z) = z (S(q, q) z^(q-1) + ... + S(q, 1)), where S(q, q) = 1
        stirling = [1]
        for k in range(1, q + 1):
            stirling = [0] + [j * (stirling[j] if j < k else 0) + stirling[j - 1]
                              for j in range(1, k + 1)]
        t = 1.0
        for c in reversed(stirling[1:q]):
            t = t * z + c
        return s**q * (t * z) * np.exp(z)

    return Kernel(
        id=f"exp_exp{'+' if sign > 0 else '-'}",
        eval=w,
        dx_n=dxn,
        dy_n=dyn,
    )


def multiplication(a0: Callable) -> Kernel:
    """Diagonal kernel ``a0(x) delta(x - y)`` — multiplication by ``a0``."""
    return Kernel(id="multiplication", factor=a0)


def dilation(c: float) -> Kernel:
    """Diagonal kernel ``c delta(x - y)`` — uniform scaling by ``c``."""
    return Kernel(id="dilation", factor=_as_coefficient(float(c)))


# ---------------------------------------------------------------------------
# discretization and application
# ---------------------------------------------------------------------------


def column_nodes(kernel: Kernel, grid: Grid) -> np.ndarray:
    """Source-coordinate values attached to the matrix columns.

    Plain kernels use the grid nodes; frequency-matched kernels (fourier)
    use the grid's signed wavenumbers, in FFT bin order.
    """
    if kernel.frequency_columns:
        return wavenumbers(grid)
    return grid.nodes


def kernel_table(kernel: Kernel, x_rows: np.ndarray, grid: Grid, dx_order: int = 0):
    """Nystrom table ``d^dx_order w(x_i, y_j) / dx^dx_order * weight_j``
    over the grid columns (quadrature weights absorbed into the columns).
    Raises :class:`KernelEvaluationError` at its first non-finite entry.

    On a periodic grid a translation kernel is evaluated with the profile
    *periodized* (wrapped differences plus the two neighboring images): the
    grid models a circle, and only the periodized profile makes the
    discretized transform genuinely translation-invariant there. Plain
    evaluation on a periodic grid would truncate the convolution at the
    wrap and silently break commutation with differentiation. Non-periodic
    grids and non-translation kernels evaluate the kernel as given.

    At the grid's own nodes that periodized table is circulant (its
    weights are equal), so only its first column is evaluated and the
    rest is a strided copy of it. Every other table is filled one block of
    rows at a time, so only one block's temporaries are held beside it.
    """
    cols = column_nodes(kernel, grid)
    periodized = kernel.profile_n is not None and grid.periodic
    span = grid.hi - grid.lo

    def entries(xs, ys):
        if not periodized:
            return kernel.partial_x(xs, ys, dx_order)
        delta = xs - ys
        wrapped = delta - span * np.round(delta / span)
        return sum(kernel.profile_n(wrapped + m * span, dx_order) for m in (-1, 0, 1))

    if periodized and np.array_equal(x_rows, cols):
        table = _circulant(entries(x_rows[:, None], cols[None, :1])[:, 0] * grid.weights[0])
        _require_finite(kernel.id, table, x_rows, cols)
        return table
    table = np.empty((len(x_rows), len(cols)), complex if kernel.is_complex else float)
    for r0, r1 in _row_blocks(len(x_rows), len(cols)):
        np.multiply(entries(x_rows[r0:r1, None], cols[None, :]), grid.weights, out=table[r0:r1])
        _require_finite(kernel.id, table[r0:r1], x_rows[r0:r1], cols)
    return table


def _require_finite(kernel_id: str, values: np.ndarray, x, y) -> None:
    """Raise :class:`KernelEvaluationError` at the first non-finite entry of
    a table whose entry ``[i, j]`` belongs to the point ``(x[i], y[j])``."""
    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise KernelEvaluationError(kernel_id, x[i], y[j])


def _self_check(kernel: Kernel, x_range, y_range) -> None:
    """Verify analytic first partials against centered finite differences
    at seeded random points of the working rectangle, on every axis with
    an analytic partial."""
    rng = random.Random(_SELF_CHECK_SEED)
    xs, ys = (
        np.array([rng.uniform(*span) for _ in range(_SELF_CHECK_POINTS)])
        for span in (x_range, y_range)
    )
    for axis in ("x", "y"):
        if not kernel._analytic(axis, 1):
            continue
        analytic = kernel._partial(axis, xs, ys, 1)
        numeric = kernel._fd_partial(axis, xs, ys, 1)
        scale = 1.0 + float(np.max(np.abs(analytic)))
        err = float(np.max(np.abs(analytic - numeric)))
        if not err <= _SELF_CHECK_TOL * scale:
            worst = int(np.argmax(np.abs(analytic - numeric)))
            raise KernelEvaluationError(
                kernel.id,
                xs[worst],
                ys[worst],
                message=(
                    f"analytic d/d{axis} of kernel {kernel.id!r} disagrees with "
                    f"finite differences by {err:.3e} (tolerance "
                    f"{_SELF_CHECK_TOL * scale:.3e})"
                ),
            )


def discretize(kernel: Kernel, grid: Grid) -> OperatorMatrix:
    """Nystrom discretization: ``entries[i, j] = w(x_i, y_j) * weight_j``.

    The matrix-vector product then approximates the integral transform.
    Diagonal kernels bypass quadrature entirely (the delta sifts): they
    produce plain diagonal matrices with no weights.
    """
    if kernel.factor is not None:
        factor = np.asarray(kernel.factor(grid.nodes), dtype=float)
        return OperatorMatrix(np.diag(factor), grid)

    cols = column_nodes(kernel, grid)
    _self_check(kernel, (grid.lo, grid.hi), (float(cols.min()), float(cols.max())))
    return OperatorMatrix(kernel_table(kernel, grid.nodes, grid), grid)


def quad(fn, lo, hi):
    """scipy's adaptive ``quad_vec`` of a vector-valued (real or complex)
    ``fn`` over ``[lo, hi]``, its error taken in the max norm; imported on
    first use so that importing funcoord does not load scipy."""
    from scipy.integrate import quad_vec

    return quad_vec(fn, lo, hi, norm="max")


def _jump_image(kernel: Kernel, x: np.ndarray, x0: float, order: int, hi: float):
    """``int_{x0} w(x, t) (t - x0)^order / order! dt`` at each of ``x``.

    A translation kernel ``f(x - t)`` is integrated to +infinity, which by
    Cauchy's formula for repeated integration is the (order+1)-fold
    antiderivative of ``f`` at ``x - x0``, the profile at a negative order
    (a profile without one raises :class:`UnsupportedOrderError`). Every
    other kernel is integrated to ``hi`` by one adaptive quadrature over
    the vector of all points at once.
    """
    if kernel.profile_n is not None:
        return kernel.profile_n(x - x0, -(order + 1))
    fact = math.factorial(order)
    image, _ = quad(lambda t: kernel.eval(x, t) * (t - x0) ** order / fact, x0, hi)
    return image


def apply(
    kernel: Kernel, f: GeneralizedFunction, out_nodes=None
) -> np.ndarray:
    """Transform a generalized function into a smooth sample vector.

    Three contributions:

    * the continuous remainder of the smooth part (declared jump structure
      subtracted) goes through the Nystrom matrix;
    * each declared jump ``(x0, k, h)`` contributes the exact integral
      ``h * int_{x0} w(x, y) (y - x0)^k / k! dy``: to +infinity in closed
      form for translation kernels, from their profile's antiderivatives
      (repeated erfc integrals for the Gaussian and ``t e^{-t^2}``), and
      to ``grid.hi`` by one vector-valued adaptive quadrature over all
      output points for every other kernel;
    * each delta term contributes ``a * (-1)^q * d^q/dy^q w(x, x0)``.

    ``out_nodes`` selects evaluation points other than the grid nodes
    (the quadrature always runs over ``f.grid``).
    """
    grid = f.grid
    if kernel.factor is not None:
        if out_nodes is not None:
            raise DomainError("diagonal kernels evaluate on the grid nodes only")
        if f.singular or f.jumps:
            raise UnsupportedOrderError(
                "diagonal kernels map smooth samples only; singular terms have "
                "no smooth image under a delta kernel"
            )
        smooth = f.smooth if f.smooth is not None else np.zeros(grid.n)
        return np.asarray(kernel.factor(grid.nodes), dtype=float) * smooth

    x = grid.nodes if out_nodes is None else np.asarray(out_nodes, dtype=float)
    dtype = complex if kernel.is_complex else float
    result = np.zeros(x.shape, dtype=dtype)

    if f.smooth is not None:
        result = result + kernel_table(kernel, x, grid) @ f.smooth_remainder()

    for x0, order, height in f.jumps:
        result = result + height * _jump_image(kernel, x, x0, order, grid.hi)

    for t in f.singular:
        result = result + t.a * (-1.0) ** t.q * kernel.partial_y(x, t.x0, t.q)

    return result


def invert(
    m: OperatorMatrix, threshold: float = 1.0e-10
) -> Tuple[OperatorMatrix, ConditionReport]:
    """Regularized pseudo-inverse ``V_r diag(1/s_r) U_r^H`` from the
    singular triplets :func:`_truncated_svd` keeps.

    Raises :class:`SingularTransformError` when nothing survives.
    """
    u, s, vh, report = _truncated_svd(m.entries, threshold)
    return OperatorMatrix((vh.conj().T / s) @ u.conj().T, m.grid), report


def _truncated_svd(a: np.ndarray, threshold: float = 1.0e-10):
    """The singular triplets of ``a`` with ``sigma >= threshold *
    sigma_max``, as ``(U_r, s_r, V_r^H, ConditionReport)``.

    A randomized range finder (Halko, Martinsson & Tropp 2011, Alg. 4.4:
    a seeded Gaussian sketch with two orthonormalized power iterations)
    computes the leading triplets, starting from 64 columns and doubling
    until some sigma falls below the cut. Once the sketch would exceed
    ``n/8`` columns, or the decay of its sigmas, continued geometrically,
    would not reach the cut by then, the full SVD is taken instead: small
    matrices and matrices of high rank are factored exactly. The report's
    ``sigma_min`` is the smallest singular value computed (of all ``n``
    on the exact path) and ``truncated = n - rank``. Raises
    :class:`SingularTransformError` when nothing survives.
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
    n = a.shape[1]
    sketched, k = None, _SKETCH_COLUMNS
    while sketched is None and k <= n // 8:
        u, s, vh = _sketched_svd(a, k)
        decay = s[-1] / s[0] if s[0] > 0 else 1.0
        if decay < threshold:
            sketched = u, s, vh
        elif decay ** (n / 8 / k) >= threshold:
            # the decay seen so far, continued geometrically, would not
            # reach the cut within n/8 columns
            break
        k *= 2
    u, s, vh = sketched or np.linalg.svd(a)
    # threshold cuts a descending spectrum, so the kept block is a prefix
    rank = int(np.count_nonzero(s >= threshold * s[0])) if s[0] > 0 else 0
    report = ConditionReport(
        sigma_max=float(s[0]), sigma_min=float(s[-1]), truncated=n - rank, rank=rank
    )
    if rank == 0:
        raise SingularTransformError(
            f"all {n} singular values fall below threshold {threshold}"
        )
    if rank < n:
        # copies, so that the full factors are freed on return
        u, vh = u[:, :rank].copy(), vh[:rank].copy()
    return u, s[:rank], vh, report


def _sketched_svd(a: np.ndarray, k: int):
    """SVD of ``a`` restricted to the range found by a seeded ``k``-column
    Gaussian sketch and two orthonormalized power iterations:
    ``(Q U_b, s, V^H)`` from the SVD ``U_b s V^H`` of ``Q^H a``."""
    omega = _gaussian_sketch(random.Random(_SKETCH_SEED), (a.shape[1], k))
    q, _ = np.linalg.qr(a @ omega)
    for _ in range(2):
        z, _ = np.linalg.qr((q.conj().T @ a).conj().T)
        q, _ = np.linalg.qr(a @ z)
    ub, s, vh = np.linalg.svd(q.conj().T @ a, full_matrices=False)
    return q @ ub, s, vh


def _gaussian_sketch(rng: random.Random, shape) -> np.ndarray:
    """Standard normal draws of the given shape from ``rng``'s bytes: pairs
    of 53-bit uniforms ``(u, v)`` in ``(0, 1]`` give the Box-Muller pair
    ``sqrt(-2 ln u) (cos 2 pi v, sin 2 pi v)``."""
    size = math.prod(shape)
    bits = np.frombuffer(rng.randbytes(8 * (size + size % 2)), dtype="<u8") >> np.uint64(11)
    u, v = (bits.reshape(2, -1) + 1.0) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u))
    angle = 2.0 * np.pi * v
    return np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))[:size].reshape(shape)


# ---------------------------------------------------------------------------
# kernel-equation residuals
# ---------------------------------------------------------------------------


def _coefficient_derivative(fn, order: int, db=None) -> Callable:
    """order-th derivative of a scalar coefficient: supplied analytically
    via ``db`` (db[j] = (j+1)-th derivative) or by centered differences."""
    if order == 0:
        return _as_coefficient(fn)
    if db is not None and len(db) >= order:
        return _as_coefficient(db[order - 1])
    return _fd_derivative(_as_coefficient(fn), order)


def residual_blocks(
    kernel: Kernel,
    n: int,
    m: int,
    a,
    b,
    grid: Grid,
    y_grid: Optional[Grid] = None,
    db: Optional[Sequence[Callable]] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Residual of the order-(n, m) kernel intertwining equation,

        R(x, y) = a(x) d^n w / dx^n - (-1)^n d^m (w(x, y) b(y)) / dy^m,

    on the grid rectangle, streamed as ``(x, R)`` pairs, one block of rows
    at a time, so the field is never held whole. The y side is the Leibniz
    expansion over the kernel's analytic y-partials, ``db`` optionally
    supplying analytic derivatives of ``b``; a kernel without ``dy_n``
    takes m = 0 only. The x side is analytic when the kernel supplies
    ``dx_n``; otherwise its table on the grid is differenced with the
    stencils of :func:`grid._fd_rows`, on every grid, and the boundary rows
    are left out. Arguments are checked on the call, finiteness per block.
    """
    n, m = int(n), int(m)
    if n < 0 or m < 0:
        raise DomainError("derivative orders must be nonnegative")
    if kernel.factor is not None:
        raise DomainError("diagonal kernels have no pointwise residual field")
    if not kernel._analytic("y", m):
        raise UnsupportedOrderError(
            f"kernel {kernel.id!r} has no analytic y-partials; it takes y-order 0 only, got {m}"
        )
    fd_x = not kernel._analytic("x", n)
    if fd_x and n > 4:
        raise UnsupportedOrderError(f"finite-difference path supports x-order <= 4, got {n}")
    yg = grid if y_grid is None else y_grid
    x = grid.nodes
    y = yg.nodes
    a_x = np.asarray(_as_coefficient(a)(x))
    b_fn = _as_coefficient(b)
    b_y = np.asarray(b_fn(y))
    sign = (-1.0) ** n

    # the kernel is tabulated once, as given (not periodized, so differenced
    # alike on every grid), and the rows without a centred stencil left out
    kept = (0, grid.n)
    if fd_x:
        table = kernel.eval(x[:, None], y[None, :])
        dx_rows = _fd_rows(grid, n)
        kept = (_fd_radius(n), grid.n - _fd_radius(n))
    if m:
        b_derivs = [
            np.asarray(_coefficient_derivative(b_fn, m - i, db)(y)) for i in range(m + 1)
        ]

    def blocks():
        for r0, r1 in _row_blocks(grid.n, yg.n):
            xs = x[r0:r1, None]
            # ---- a(x) * d^n w / dx^n
            lhs = a_x[r0:r1, None] * (
                dx_rows(table, r0, r1) if fd_x else kernel.partial_x(xs, y[None, :], n)
            )
            # ---- (-1)^n * d^m (w b) / dy^m
            if m == 0:
                rhs = (table[r0:r1] if fd_x else kernel.eval(xs, y[None, :])) * b_y[None, :]
            else:
                rhs = np.zeros_like(lhs)
                for i, bi in enumerate(b_derivs):
                    rhs = rhs + math.comb(m, i) * kernel.partial_y(xs, y[None, :], i) * bi[None, :]
            block = lhs - sign * rhs
            del lhs, rhs  # only the block outlives its step
            _require_finite(kernel.id, block, x[r0:r1], y)
            k0, k1 = max(kept[0], r0), min(kept[1], r1)
            if k0 < k1:
                yield x[k0:k1], block[k0 - r0 : k1 - r0]

    return blocks()


def kernel_pde_residual(*args, **kwargs) -> float:
    """Max norm of the kernel-equation residual: :func:`residual_blocks`,
    with the same arguments, reduced as its blocks stream by."""
    return _max_norm(residual_blocks(*args, **kwargs))


def _max_norm(blocks: Iterable[Tuple[np.ndarray, np.ndarray]]) -> float:
    """Largest ``|R|`` over the ``(x, R)`` blocks of :func:`residual_blocks`."""
    return max((float(np.max(np.abs(block))) for _, block in blocks), default=0.0)


# ---------------------------------------------------------------------------
# Riccati-built kernels
# ---------------------------------------------------------------------------


def riccati_kernel(a: Callable, b: Callable, g0: Callable, grid: Grid) -> Kernel:
    """Kernel ``e^{f(x,y)}`` whose log-slope ``g = df/dx`` solves

        dg/dx = b(y)/a(x) - g^2,    g(lo, y) = g0(y),

    integrated per column by the classical 4th-order Runge-Kutta method,
    with ``f`` recovered by cumulative trapezoid quadrature (``f(lo,.) = 0``).
    The result is tabulated on the grid rectangle, and the kernel is
    evaluated on its nodes only: any other argument raises
    :class:`DomainError`. On the full node grid, ``w(x[:, None],
    y[None, :])``, it returns the stored table itself, which is read-only;
    other node arguments are looked up in it. Raises
    :class:`RiccatiBlowupError` if ``|g|`` exceeds 1e6, reporting the
    blow-up location.
    """
    b_fn = _as_coefficient(b)
    g0_fn = _as_coefficient(g0)
    x = grid.nodes
    y = grid.nodes.copy()
    # a(x) at the points each Runge-Kutta step samples: x_i, x_i + h/2, x_i + h
    step = np.diff(x)
    a_at = [np.broadcast_to(np.asarray(_as_coefficient(a)(t), dtype=float), step.shape)
            for t in (x[:-1], x[:-1] + step / 2, x[:-1] + step)]
    if np.any(np.concatenate(a_at) == 0.0):
        raise DomainError("coefficient a(x) vanishes on the grid")

    b_vals = np.asarray(b_fn(y), dtype=float)
    g = np.asarray(g0_fn(y), dtype=float).copy()
    # the table holds the exponent f until the final in-place exp; f(lo, .) = 0
    values = np.empty((grid.n, grid.n))
    values[0] = 0.0

    def rhs(a_value, gv):
        return b_vals / a_value - gv**2

    for i, (h, a_left, a_mid, a_right) in enumerate(zip(step, *a_at)):
        k1 = rhs(a_left, g)
        k2 = rhs(a_mid, g + h / 2 * k1)
        k3 = rhs(a_mid, g + h / 2 * k2)
        k4 = rhs(a_right, g + h * k3)
        g_next = g + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.any(np.abs(g_next) > RICCATI_BLOWUP) or not np.all(np.isfinite(g_next)):
            bad = int(np.argmax(~np.isfinite(g_next) | (np.abs(g_next) > RICCATI_BLOWUP)))
            raise RiccatiBlowupError(float(x[i + 1]), float(y[bad]), float(g_next[bad]))
        # cumulative trapezoid rule, in scipy's cumulative_trapezoid's arithmetic
        values[i + 1] = values[i] + h * (g_next + g) / 2.0
        g = g_next
    np.exp(values, out=values)
    _require_finite("riccati", values, x, y)
    values.setflags(write=False)

    def w(xv, yv):
        xa, ya = np.asarray(xv, dtype=float), np.asarray(yv, dtype=float)
        if np.array_equal(xa, x[:, None]) and np.array_equal(ya, y[None, :]):
            # the full node grid: the table itself, not a copy of it
            return values
        # nodes are looked up on each argument's own shape, before broadcasting
        i = np.minimum(np.searchsorted(x, xa), grid.n - 1)
        j = np.minimum(np.searchsorted(y, ya), grid.n - 1)
        if not (np.array_equal(x[i], xa) and np.array_equal(y[j], ya)):
            raise DomainError("kernel 'riccati' is tabulated on its grid nodes only")
        out = values[i, j]
        return out if out.shape else float(out)

    return Kernel(id="riccati", eval=w, table=(x, y, values))


def table_csv(kernel: Kernel) -> str:
    """CSV text of a tabulated kernel as ``x,y,w`` triples (17 significant
    digits), from :func:`funcoord.grid.csv_blocks`. Raises
    :class:`DomainError` for kernels without a table."""
    if kernel.table is None:
        raise DomainError(f"kernel {kernel.id!r} carries no tabulation")
    return "".join(csv_blocks(("x", "y", "w"), *kernel.table))
