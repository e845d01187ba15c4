"""Executable verification suites for the transformation-law claims.

Each check returns a structured :class:`VerificationReport` — pass/fail,
labeled residual norms with their tolerances, optional condition report,
and free-form notes. ``passed`` is true iff every residual is within its
tolerance; threshold-exceedance assertions ("this residual must be large")
are encoded as hinge residuals ``max(0, threshold - value)`` gated at 0.

The suites cover:

* Fourier diagonalization of d/dx (and d^2/dx^2) on frequency-matched
  periodic grids;
* commutation of translation kernels with differentiation, in 1-D and on
  a 2-D tensor-product grid;
* the smoothing map from generalized to smooth solutions of constant-
  coefficient equations (single instances and a randomized property suite);
* impossibility of preserving multiplication operators except in the
  trivial cases, plus rank-1 (tensor-product) preservation;
* the sign of the ``e^{x e^{+/-y}}`` kernel in the variable-coefficient
  first-order intertwining equation;
* the quadratic-derivative tensor transformation law.

All randomness is seeded; two runs with the same configuration produce
bit-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .distributions import (
    GeneralizedFunction,
    TestFunction,
    apply_constant_coeff_operator,
    pair,
)
from .errors import DomainError, NotASolutionError, PreconditionError
from .grid import (
    Grid,
    _row_blocks,
    derivative_symbol,
    diff_matrix,
    make_uniform_grid,
    wavenumbers,
)
from .kernels import (
    ConditionReport,
    Kernel,
    _as_coefficient,
    _truncated_svd,
    apply,
    column_nodes,
    discretize,
    exp_exp,
    gaussian,
    kernel_pde_residual,
    kernel_table,
)
from .operators import conjugate, conjugate_factored, locality_score

__all__ = [
    "VerificationReport",
    "check_fourier_diagonalizes",
    "check_derivative_preservation",
    "smooth_from_generalized",
    "step_instance",
    "ramp_instance",
    "theorem_property_suite",
    "check_product_preservation",
    "check_xdx_intertwine",
    "check_nonlinear_tensor",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification suite.

    ``passed`` is derived: true iff every residual is <= its tolerance.
    """

    name: str
    passed: bool
    residuals: Mapping[str, float]
    tolerances: Mapping[str, float]
    condition: Optional[ConditionReport] = None
    notes: Sequence[str] = field(default_factory=tuple)

    @classmethod
    def build(cls, name, residuals, tolerances, condition=None, notes=()):
        missing = set(residuals) - set(tolerances)
        if missing:
            raise DomainError(f"residuals without tolerances: {sorted(missing)}")
        passed = all(residuals[k] <= tolerances[k] for k in residuals)
        return cls(
            name=name,
            passed=passed,
            residuals=dict(residuals),
            tolerances={k: tolerances[k] for k in residuals},
            condition=condition,
            notes=tuple(notes),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "condition": None if self.condition is None else asdict(self.condition),
            "notes": list(self.notes),
        }


#: default tolerance of each residual a check reports (the fourier check's
#: at order 1); the keys are the residual names a tolerance override may name
FOURIER_TOLERANCES = {"intertwine_max": 1.0e-8, "offband_defect_bw0": 1.0e-6}
DERIVATIVE_TOLERANCES = {
    "commutator_order1": 1.0e-6,
    "commutator_order1_rel": 1.0e-6,
    "commutator_order2": 1.0e-5,
    "partials_2d": 1.0e-5,
}
PRODUCT_TOLERANCES = {"aomega_residual": 1.0e-10, "score_defect_bw0": 1.0e-8, "score_bw2": 0.9}
XDX_TOLERANCES = {"minus_sign_residual": 1.0e-10, "plus_sign_exceeds_one": 0.0}
NONLINEAR_TOLERANCES = {"tensor_residual": 1.0e-5, "rank1_gap": 1.0e-8}


def _tolerances(defaults: dict, overrides: Optional[Mapping[str, float]]) -> dict:
    if not overrides:
        return dict(defaults)
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise DomainError(f"unknown tolerance keys: {sorted(unknown)}")
    merged = dict(defaults)
    for key, value in overrides.items():
        if not value > 0:
            raise DomainError(f"tolerance {key!r} must be positive, got {value}")
        merged[key] = float(value)
    return merged


# ---------------------------------------------------------------------------
# Fourier diagonalization
# ---------------------------------------------------------------------------


def check_fourier_diagonalizes(
    grid: Grid, order: int = 1, tolerances: Optional[Mapping[str, float]] = None
) -> VerificationReport:
    """The oscillatory kernel turns d^order/dx^order into multiplication.

    Requires a frequency-matched periodic grid on ``[0, 2*pi)`` so the
    discretized kernel is the inverse discrete Fourier transform up to
    scaling. Checks the intertwining identity ``A W = W B`` with
    ``B = diag((i*kappa)^order)`` and the band-0 locality of the explicitly
    conjugated operator. For even node counts the unpaired Nyquist mode
    follows the spectral-differentiation convention (multiplier 0 for odd
    orders); the note records it.
    """
    if not grid.periodic or abs(grid.lo) > 1e-12 or abs(grid.hi - 2 * np.pi) > 1e-12:
        raise PreconditionError(
            "fourier check needs a periodic grid on [0, 2*pi) so columns "
            "match integer wavenumbers"
        )
    defaults = dict(FOURIER_TOLERANCES)
    if order != 1:
        defaults["intertwine_max"] = 1.0e-7
    tol = _tolerances(defaults, tolerances)
    from .kernels import fourier as fourier_kernel

    A = diff_matrix(grid, order)
    W = discretize(fourier_kernel(), grid)
    symbol = derivative_symbol(grid, order)

    # W B with B = diag(symbol) is W with its columns scaled
    intertwine = float(np.max(np.abs(A.entries @ W.entries - W.entries * symbol)))
    conj = conjugate(A, W)
    score0 = locality_score(conj, 0)

    kappa = wavenumbers(grid)
    notes = [
        f"columns are the sampled modes exp(i*kappa*x), kappa in "
        f"[{kappa.min():.0f}, {kappa.max():.0f}] (FFT bin order)",
        f"diagonal multiplier is (i*kappa)^{order}",
    ]
    if grid.n % 2 == 0 and order % 2 == 1:
        notes.append(
            "even node count: the unpaired Nyquist mode carries multiplier 0 "
            "(sawtooth convention of the real spectral derivative)"
        )
    return VerificationReport.build(
        name=f"fourier_diagonalizes_order{order}",
        residuals={
            "intertwine_max": intertwine,
            "offband_defect_bw0": max(0.0, 1.0 - score0),
        },
        tolerances=tol,
        condition=conj.condition,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# derivative preservation by translation kernels
# ---------------------------------------------------------------------------


def _bandlimited_samples(grid: Grid) -> np.ndarray:
    """Three band-limited test vectors, one per column."""
    span = grid.hi - grid.lo
    x = grid.nodes
    k = 2.0 * np.pi / span
    s1, c2 = np.sin(k * x), np.cos(2.0 * k * x)
    return np.stack([s1, c2, s1 + 0.5 * c2], axis=1)


def check_derivative_preservation(
    kernel: Kernel,
    grid: Grid,
    tolerances: Optional[Mapping[str, float]] = None,
    axis_nodes_2d: int = 16,
) -> VerificationReport:
    """Translation kernels commute with differentiation.

    1-D: reports the worst commutator residual ``(D_q W - W D_q) phi`` over
    band-limited samples for orders 1 and 2 (absolute, and relative to
    ``|W phi|`` so the figure is invariant under rescaling the profile).
    2-D: the tensor-product kernel ``W (x) W`` against both partial
    derivative matrices on a small tensor grid.

    Needs a periodic grid wide enough that the profile decays across half
    the span; otherwise the truncated transform is not translation-
    invariant and the statement fails for reasons unrelated to the kernel.
    """
    if kernel.profile_n is None:
        raise PreconditionError(
            f"kernel {kernel.id!r} is not a translation kernel"
        )
    if not grid.periodic:
        raise PreconditionError("derivative-preservation check needs a periodic grid")
    tol = _tolerances(DERIVATIVE_TOLERANCES, tolerances)

    # each commutator acts on the test vectors as D (W phi) - W (D phi),
    # products with a block of three vectors, and is never formed itself
    W = discretize(kernel, grid).entries
    phi = _bandlimited_samples(grid)
    w_phi = W @ phi
    res = {}
    for order in (1, 2):
        D = diff_matrix(grid, order).entries
        num = np.max(np.abs(D @ w_phi - W @ (D @ phi)), axis=0)
        res[f"commutator_order{order}"] = float(np.max(num))
        if order == 1:
            res["commutator_order1_rel"] = float(np.max(num / np.max(np.abs(w_phi), axis=0)))

    # 2-D tensor-product variant: the product kernel f(x1-y1) f(x2-y2)
    # commutes with both partial-derivative operators.
    n2 = min(axis_nodes_2d, grid.n, 24)
    grid2 = make_uniform_grid(grid.lo, grid.hi, n2, periodic=True)
    W1 = discretize(kernel, grid2).entries
    D1 = diff_matrix(grid2, 1).entries
    eye = np.eye(n2)
    Wk = np.kron(W1, W1)
    span = grid2.hi - grid2.lo
    k = 2.0 * np.pi / span
    phi2 = np.outer(
        np.sin(k * grid2.nodes), np.cos(k * grid2.nodes)
    ).ravel()
    w_phi2 = Wk @ phi2
    worst = 0.0
    for Dax in (np.kron(D1, eye), np.kron(eye, D1)):
        worst = max(worst, float(np.max(np.abs(Dax @ w_phi2 - Wk @ (Dax @ phi2)))))
    res["partials_2d"] = worst

    return VerificationReport.build(
        name=f"derivative_preservation_{kernel.id}",
        residuals=res,
        tolerances=tol,
        notes=(
            f"1-D grid: periodic [{grid.lo}, {grid.hi}) with n = {grid.n}",
            f"2-D tensor grid: {n2} nodes per axis",
        ),
    )


# ---------------------------------------------------------------------------
# generalized -> smooth solutions
# ---------------------------------------------------------------------------


def _random_bump_test(rng, grid: Grid, max_order: int) -> TestFunction:
    span = grid.hi - grid.lo
    mu = rng.uniform(grid.lo + 0.3 * span, grid.hi - 0.3 * span)
    s = rng.uniform(span / 12.0, span / 8.0)
    profile = gaussian().profile_n

    def deriv(q):
        def fn(x):
            return profile((np.asarray(x) - mu) / s, q) / s**q

        return fn

    return TestFunction.from_callables(grid, [deriv(q) for q in range(max_order + 1)])


def _check_is_solution(L, u, v, seed: int) -> None:
    difference = apply_constant_coeff_operator(L, u) - v
    rng = random.Random(seed)
    max_order = difference.max_order
    for _ in range(10):
        phi = _random_bump_test(rng, u.grid, max_order)
        value = pair(difference, phi)
        if abs(value) > 1.0e-6:
            raise NotASolutionError(
                f"L u differs from v: pairing against a smooth test function "
                f"gives {value:.3e} (tolerance 1e-06)"
            )


def _smoothed_residual(L: Sequence, u: GeneralizedFunction, v: GeneralizedFunction, grid: Grid):
    """``(phi, max |L(D) phi - psi|)`` for ``phi``, ``psi`` the Gaussian
    transforms of ``u``, ``v`` on the nodes of ``grid``."""
    kernel = gaussian()
    phi = np.real(apply(kernel, u, out_nodes=grid.nodes))
    psi = np.real(apply(kernel, v, out_nodes=grid.nodes))

    Lphi = np.zeros_like(phi)
    for order, coeff in L:
        if order == 0:
            Lphi = Lphi + coeff * phi
        else:
            Lphi = Lphi + coeff * (diff_matrix(grid, int(order)).entries @ phi)
    return phi, float(np.max(np.abs(Lphi - psi)))


def smooth_from_generalized(
    L: Sequence,
    u: GeneralizedFunction,
    v: GeneralizedFunction,
    grid: Grid,
    seed: int = 0,
    tolerance: float = 1.0e-5,
    name: str = "smooth_from_generalized",
) -> VerificationReport:
    """Smoothing a generalized solution yields a smooth solution.

    Confirms that ``u`` solves ``L u = v`` in the distributional sense
    (pairing the difference against 10 seeded random bump test functions),
    then maps both sides through the Gaussian smoothing kernel and checks
    ``L(D) phi = psi`` pointwise on the evaluation grid.

    ``u`` and ``v`` live on their own (wide) quadrature grid; ``grid`` is
    the evaluation window, kept narrow so the 4th-order differentiation
    error stays below the stated tolerance. The report notes a smoothness
    proxy for phi (a bounded second-difference quotient).
    """
    _check_is_solution(L, u, v, seed)
    phi, residual = _smoothed_residual(L, u, v, grid)

    h = grid.spacing
    proxy = float(np.max(np.abs(np.diff(phi, 2))) / h**2)
    notes = (
        f"quadrature grid [{u.grid.lo}, {u.grid.hi}] n = {u.grid.n}; "
        f"evaluation window [{grid.lo}, {grid.hi}] n = {grid.n}",
        f"smoothness proxy max|second difference|/h^2 = {proxy:.6e} "
        "(bounded curvature evidences smoothness; reported, not gated)",
    )
    return VerificationReport.build(
        name=name,
        residuals={"operator_residual": residual},
        tolerances={"operator_residual": float(tolerance)},
        notes=notes,
    )


def step_instance(quad_grid: Optional[Grid] = None):
    """Canonical first-order instance: d/dx of the unit step is the delta.

    The step's smooth samples carry the declared value jump at 0 (with the
    midpoint value at an exact node hit), so the continuous remainder is
    identically zero and the transform of the step is exact up to adaptive
    quadrature error. Returns ``(L, u, v)``.
    """
    quad_grid = quad_grid or make_uniform_grid(-6.0, 6.0, 64, periodic=False)
    x = quad_grid.nodes
    smooth = np.where(x > 0, 1.0, np.where(x == 0, 0.5, 0.0))
    u = GeneralizedFunction(quad_grid, smooth=smooth, jumps=[(0.0, 1.0)])
    v = GeneralizedFunction(quad_grid, singular=[(0.0, 0, 1.0)])
    return [(1, 1.0)], u, v


def ramp_instance(quad_grid: Optional[Grid] = None):
    """Canonical second-order instance: d^2/dx^2 of ``|x|/2`` is the delta.

    ``|x|/2`` is declared as a slope jump of height 1 at 0; the remainder
    ``-x/2`` is linear, which 4th-order differentiation handles exactly.
    Returns ``(L, u, v)``.
    """
    quad_grid = quad_grid or make_uniform_grid(-6.0, 6.0, 64, periodic=False)
    x = quad_grid.nodes
    u = GeneralizedFunction(
        quad_grid, smooth=np.abs(x) / 2.0, jumps=[(0.0, 1, 1.0)]
    )
    v = GeneralizedFunction(quad_grid, singular=[(0.0, 0, 1.0)])
    return [(2, 1.0)], u, v


def _random_theorem_instance(rng, quad_grid: Grid):
    """Random (L, u, v): constant-coefficient L of order <= 2 applied to a
    generalized function with delta orders <= 1; v is defined as L u.

    Bump widths and centers keep both the samples and their spectra below
    1e-12 at the quadrature boundary / Nyquist frequency.
    """
    x = quad_grid.nodes
    smooth = np.zeros_like(x)
    for _ in range(rng.randrange(1, 4)):
        c = rng.uniform(-1.0, 1.0)
        mu = rng.uniform(-1.5, 1.5)
        s = rng.uniform(0.7, 1.4)
        smooth += c * np.exp(-(((x - mu) / s) ** 2))
    singular = []
    for _ in range(rng.randrange(0, 3)):
        singular.append((rng.uniform(-1.0, 1.0), rng.randrange(0, 2), rng.uniform(-1.0, 1.0)))
    u = GeneralizedFunction(quad_grid, smooth=smooth, singular=singular)

    orders = [int(q) for q in range(3) if rng.random() < 0.6]
    if not orders:
        orders = [1]
    L = [(q, rng.uniform(-1.0, 1.0)) for q in orders]
    if all(c == 0.0 for _, c in L):
        L[0] = (L[0][0], 1.0)
    v = apply_constant_coeff_operator(L, u)
    return L, u, v


def theorem_property_suite(
    count: int = 50,
    seed: int = 7,
    tolerance: float = 1.0e-5,
) -> VerificationReport:
    """Randomized instantiation of the generalized-to-smooth statement.

    Draws ``count`` seeded random (L, u, v) triples on a periodic
    quadrature grid (spectral differentiation keeps v accurate) and checks
    each as :func:`smooth_from_generalized` does; reports the worst
    residual. ``v`` is built as ``L u``, so the distributional check that
    ``u`` solves ``L u = v`` is skipped.
    """
    rng = random.Random(seed)
    quad_grid = make_uniform_grid(-6.0, 6.0, 64, periodic=True)
    # evaluation window kept narrow: the 4th-order differentiation error of
    # an order-2 operator on the transformed delta terms scales like h^4
    # and needs h <~ 0.02 to sit safely under the 1e-5 tolerance
    eval_grid = make_uniform_grid(-0.6, 0.6, 64, periodic=False)
    worst = 0.0
    passed_count = 0
    for _ in range(count):
        L, u, v = _random_theorem_instance(rng, quad_grid)
        _, res = _smoothed_residual(L, u, v, eval_grid)
        worst = max(worst, res)
        passed_count += int(res <= tolerance)
    return VerificationReport.build(
        name="theorem_property_suite",
        residuals={"worst_operator_residual": worst},
        tolerances={"worst_operator_residual": float(tolerance)},
        notes=(
            f"{passed_count}/{count} random instances within {tolerance:g}",
            f"seed = {seed}",
        ),
    )


# ---------------------------------------------------------------------------
# product preservation
# ---------------------------------------------------------------------------


def check_product_preservation(
    a,
    kernel: Kernel,
    grid: Grid,
    threshold: float = 1.0e-10,
    tolerances: Optional[Mapping[str, float]] = None,
) -> VerificationReport:
    """Multiplication operators stay local only in the trivial cases.

    Measures band-0/band-2 locality of the conjugate of ``M = diag(a(x))``
    under the kernel, never forming ``M`` as a matrix. Trivial cases
    (constant ``a``, or a diagonal multiplication kernel) are recognized
    through the zero intertwining residual ``diag(a) W - W diag(a)`` —
    there the conjugated operator *is* the verified candidate ``diag(a)``,
    which scores 1 at every bandwidth, and explicit
    (regularized) inversion is avoided; its truncation artifacts would
    otherwise pollute the locality figure. Non-trivial cases conjugate
    explicitly and attach the inversion's condition report; for the
    smoothing (gaussian) kernel with non-constant ``a`` the score is
    asserted to drop below 0.9 at bandwidth 2 (a calibrated artifact
    constant, not a derived value). The conjugate is scored in factored
    form, one block of rows at a time, and never formed.
    """
    a_fn = _as_coefficient(a)
    a_vals = np.asarray(a_fn(grid.nodes), dtype=float) * np.ones(grid.n)
    W = discretize(kernel, grid)

    a_scale = float(np.max(np.abs(a_vals))) or 1.0
    constant_a = float(np.max(a_vals) - np.min(a_vals)) <= 1.0e-13 * a_scale
    trivial = constant_a or kernel.factor is not None

    tol = _tolerances(PRODUCT_TOLERANCES, tolerances)

    notes = []
    if trivial:
        # candidate B = diag(a) on the source side; verified by the intertwining
        # residual, one block of rows at a time, then scored directly.
        b_vals = np.asarray(a_fn(column_nodes(kernel, grid)), dtype=float) * np.ones(grid.n)
        w = W.entries
        residual = max(
            float(np.max(np.abs(a_vals[r0:r1, None] * w[r0:r1] - w[r0:r1] * b_vals[None, :])))
            for r0, r1 in _row_blocks(grid.n, grid.n)
        )
        # a diagonal holds all its mass in band 0: it scores 1 at every bandwidth
        score0 = score2 = 1.0
        notes.append(
            "trivial case: conjugate equals the candidate diagonal verified by "
            "the intertwining residual; no inversion performed"
        )
        notes.append(f"locality score bw0 = {score0:.15f}, bw2 = {score2:.15f}")
        residuals = {
            "aomega_residual": residual,
            "score_defect_bw0": max(0.0, 1.0 - score0),
        }
        condition = None
    else:
        conj = conjugate_factored(a_vals, W, threshold)
        score0 = locality_score(conj, 0)
        score2 = locality_score(conj, 2)
        notes.append(
            "non-trivial case: explicit regularized conjugation; locality "
            "leaks across the whole matrix"
        )
        notes.append(f"locality score bw0 = {score0:.15f}, bw2 = {score2:.15f}")
        residuals = {}
        if kernel.id == "gaussian":
            residuals["score_bw2"] = score2
        condition = conj.condition

    variant = "const_a" if constant_a else "var_a"
    return VerificationReport.build(
        name=f"product_preservation_{kernel.id}_{variant}",
        residuals=residuals,
        tolerances=tol,
        condition=condition,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# variable-coefficient first-order intertwining (x d/dx example)
# ---------------------------------------------------------------------------


def check_xdx_intertwine(
    grid: Grid, tolerances: Optional[Mapping[str, float]] = None
) -> VerificationReport:
    """Which sign of ``e^{x e^{+/-y}}`` intertwines ``x d/dx`` with ``d/dx``.

    Evaluates the first-order kernel equation with ``a(x) = x, b = 1`` for
    both signs on the rectangle ``[grid.lo, grid.hi] x [-1, 1]``. The minus
    sign satisfies it identically; the plus sign leaves a residual
    ``2 x e^y w`` whose maximum must exceed 1. Requires the x-grid inside
    ``[0, 1]`` (growth control for the double exponential).
    """
    if grid.lo < -1.0e-12 or grid.hi > 1.0 + 1.0e-12:
        raise PreconditionError("x-grid must lie within [0, 1]")
    tol = _tolerances(XDX_TOLERANCES, tolerances)
    y_grid = make_uniform_grid(-1.0, 1.0, grid.n, periodic=False)
    a = lambda x: np.asarray(x)
    results = {}
    for sign in (-1, +1):
        results[sign] = kernel_pde_residual(
            exp_exp(sign), 1, 1, a, 1.0, grid, y_grid=y_grid, db=(_as_coefficient(0.0),)
        )
    notes = (
        f"residual of exp(x*e^(-y)): {results[-1]:.3e} (satisfies the equation)",
        f"residual of exp(x*e^(+y)): {results[+1]:.3e} = max of 2*x*e^y*w "
        "(does not satisfy it)",
        "satisfying sign: -1",
    )
    return VerificationReport.build(
        name="xdx_intertwine",
        residuals={
            "minus_sign_residual": results[-1],
            "plus_sign_exceeds_one": max(0.0, 1.0 - results[+1]),
        },
        tolerances=tol,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# nonlinear (quadratic-derivative) tensor transformation
# ---------------------------------------------------------------------------


def check_nonlinear_tensor(
    kernel: Kernel,
    phi_tilde,
    grid: Grid,
    threshold: float = 1.0e-10,
    tolerances: Optional[Mapping[str, float]] = None,
) -> VerificationReport:
    """Transformation law of the squared-derivative term.

    LHS: transform ``phi_tilde``, differentiate, square pointwise.
    RHS: the double quadrature of the transformed (1,2)-tensor,
    ``sum_jl d_x w(x, y_j) d_x w(x, y_l) w_j w_l phi~_j phi~_l``, which
    factors into ``(sum_j d_x w(x, y_j) w_j phi~_j)^2`` and is evaluated
    that way (fixed left-to-right accumulation per row).

    The suite also checks rank-1 (tensor-product) preservation: any
    two-sided transformation of a rank-1 matrix keeps rank 1, measured by
    the relative singular-value gap after conjugation.
    """
    phi_tilde = grid.require_samples(np.asarray(phi_tilde, dtype=float), "phi_tilde")
    tol = _tolerances(NONLINEAR_TOLERANCES, tolerances)
    D = diff_matrix(grid, 1).entries
    phi = np.real(apply(kernel, GeneralizedFunction(grid, smooth=phi_tilde)))
    lhs = (D @ phi) ** 2
    if kernel.factor is not None:
        # a diagonal kernel's tensor is c^2 times the square, for constant c
        c = np.asarray(kernel.factor(grid.nodes), dtype=float)
        if np.any(c != c.flat[0]):
            raise DomainError(
                "among diagonal kernels only a constant factor (dilation) "
                "supports the tensor check"
            )
        rhs = (c * (D @ phi_tilde)) ** 2
    else:
        rhs = (np.real(kernel_table(kernel, grid.nodes, grid, dx_order=1)) @ phi_tilde) ** 2
    tensor_residual = float(np.max(np.abs(lhs - rhs)))

    # rank-1 preservation: any invertible two-sided transformation of an
    # outer product keeps rank 1. When the kernel's own discretization is
    # honestly invertible it is used directly; a numerically rank-deficient
    # one (e.g. the smoothing kernel) would contaminate the singular
    # spectrum with pseudo-inverse roundoff amplified by cond^2, so the law
    # is then demonstrated with the well-conditioned shifted transform
    # sigma_max*I + W built from the same kernel.
    span = grid.hi - grid.lo
    k = 2.0 * np.pi / span
    left = 1.0 + 0.5 * np.cos(k * grid.nodes)
    right = np.sin(k * grid.nodes) + 2.0
    rank1 = np.outer(left, right)
    W = discretize(kernel, grid)
    u, s, vh, condition = _truncated_svd(W.entries, threshold)
    if condition.truncated == 0 and condition.sigma_max <= 1.0e6 * condition.sigma_min:
        # the regularized inverse, formed only where it is used
        mover = (vh.conj().T / s) @ u.conj().T
        rank1_note = "rank-1 check conjugated by the kernel transform itself"
    else:
        shifted = condition.sigma_max * np.eye(grid.n) + W.entries
        mover = np.linalg.inv(shifted)
        rank1_note = (
            "kernel transform is numerically rank-deficient; rank-1 law "
            "demonstrated with the shifted transform sigma_max*I + W"
        )
    moved = mover @ rank1 @ mover.conj().T
    sigma = np.linalg.svd(moved, compute_uv=False)
    rank1_gap = float(sigma[1] / sigma[0]) if sigma[0] > 0 else 0.0

    return VerificationReport.build(
        name=f"nonlinear_tensor_{kernel.id}",
        residuals={"tensor_residual": tensor_residual, "rank1_gap": rank1_gap},
        tolerances=tol,
        condition=condition,
        notes=(
            "RHS evaluated as the factored double quadrature",
            f"rank-1 gap sigma_2/sigma_1 = {rank1_gap:.3e}",
            rank1_note,
        ),
    )
