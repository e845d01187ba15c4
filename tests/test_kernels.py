"""Kernel catalog, discretization, application, inversion, residuals."""

import math
import random
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erf

from funcoord import (
    DomainError,
    GeneralizedFunction,
    Kernel,
    KernelEvaluationError,
    RiccatiBlowupError,
    SingularTransformError,
    UnsupportedOrderError,
    apply,
    diff_matrix,
    dilation,
    discretize,
    exp_exp,
    fourier,
    gaussian,
    invert,
    kernel_pde_residual,
    make_uniform_grid,
    multiplication,
    residual_blocks,
    riccati_kernel,
    translation_tgauss,
)
from funcoord.cli import KERNELS
from funcoord.grid import OperatorMatrix, _fd_rows
from funcoord.kernels import (
    _fd_radius,
    _gaussian_sketch,
    _hermite,
    _jump_image,
    _sketched_svd,
    _translation,
    _truncated_svd,
    kernel_table,
)


@pytest.fixture
def wide_grid():
    return make_uniform_grid(-6.0, 6.0, 64, periodic=False)


def test_gaussian_row_sums_reach_full_mass(wide_grid):
    w = discretize(gaussian(), wide_grid)
    sums = w.entries.sum(axis=1)
    # rows whose Gaussian fits well inside the domain integrate to sqrt(pi)
    interior = np.abs(wide_grid.nodes) <= 1.0
    assert np.max(np.abs(sums[interior] - np.sqrt(np.pi))) < 1e-6


def test_gaussian_matrix_symmetric_after_unweighting(wide_grid):
    w = discretize(gaussian(), wide_grid)
    values = w.entries / wide_grid.weights[None, :]
    assert np.max(np.abs(values - values.T)) < 1e-14


def test_hermite_matches_numpy_hermval_bit_for_bit():
    from numpy.polynomial.hermite import hermval

    t = np.linspace(-8.0, 8.0, 200_001)
    for q in range(10):
        expected = hermval(t, np.eye(q + 1)[q])
        assert np.array_equal(_hermite(q, t).view(np.uint64), expected.view(np.uint64)), q


def test_multiplication_kernel_is_plain_diagonal(wide_grid):
    a0 = lambda t: np.asarray(t) ** 2 + 1.0
    w = discretize(multiplication(a0), wide_grid)
    assert_allclose(w.entries, np.diag(a0(wide_grid.nodes)), atol=0)


def test_diagonal_kernel_never_evaluates_pointwise():
    k = multiplication(lambda t: t)
    with pytest.raises(DomainError):
        k.partial_y(0.0, 0.0, 0)


def test_dilation_equals_multiplication_by_the_constant(wide_grid):
    c = -2.0
    scaled = dilation(c)
    constant = multiplication(lambda t: np.full(np.shape(t), c))
    assert np.array_equal(
        discretize(scaled, wide_grid).entries, discretize(constant, wide_grid).entries
    )
    f = GeneralizedFunction(wide_grid, smooth=np.sin(wide_grid.nodes))
    assert np.array_equal(apply(scaled, f), apply(constant, f))
    with_delta = GeneralizedFunction(wide_grid, singular=[(0.0, 0, 1.0)])
    for k in (scaled, constant):
        with pytest.raises(UnsupportedOrderError):
            apply(k, with_delta)


def test_kernel_without_partials_takes_finite_differences_of_its_values():
    # w = (1 + y^2) e^{-sin(x) y} declares no partials: every order on
    # either axis is a finite difference of the values
    value = lambda x, y: (1.0 + np.asarray(y) ** 2) * np.exp(-np.sin(x) * np.asarray(y))
    k = Kernel(id="separable_exponent", eval=value)
    x = np.linspace(-1.0, 1.0, 9)
    y = np.linspace(-1.0, 1.0, 9)[::-1]
    w = k.eval(x, y)
    expected = (np.sin(x) * y + (np.cos(x) * y) ** 2) * w
    assert np.max(np.abs(k.partial_x(x, y, 2) - expected)) < 1e-6
    assert np.max(np.abs(k.partial_x(x, y, 1) + np.cos(x) * y * w)) < 1e-9
    d_y = (2.0 * y - np.sin(x) * (1.0 + y**2)) * np.exp(-np.sin(x) * y)
    assert np.max(np.abs(k.partial_y(x, y, 1) - d_y)) < 1e-9


#: a rectangle on which each pointwise registry kernel is used
WORKING_RECTANGLES = {
    "gaussian": ((-6.0, 6.0), (-6.0, 6.0)),
    "translation_tgauss": ((-6.0, 6.0), (-6.0, 6.0)),
    "fourier": ((0.0, 2 * np.pi), (-16.0, 15.0)),
    "exp_exp_plus": ((0.0, 1.0), (-1.0, 1.0)),
    "exp_exp_minus": ((0.0, 1.0), (-1.0, 1.0)),
}


def test_registry_kernels_answer_every_order_like_finite_differences():
    pointwise = {kid: make() for kid, (make, _) in KERNELS.items() if make().factor is None}
    assert set(pointwise) == set(WORKING_RECTANGLES)
    rng = np.random.default_rng(11)
    for kid, kernel in pointwise.items():
        (x0, x1), (y0, y1) = WORKING_RECTANGLES[kid]
        x, y = rng.uniform(x0, x1, 200), rng.uniform(y0, y1, 200)
        for axis in ("x", "y"):
            for q in range(1, 5):
                analytic = kernel._partial(axis, x, y, q)
                numeric = kernel._fd_partial(axis, x, y, q)
                scale = 1.0 + np.max(np.abs(analytic))
                assert np.max(np.abs(analytic - numeric)) < 1e-4 * scale, (kid, axis, q)


@pytest.mark.parametrize("sign", [+1, -1])
def test_exp_exp_y_partials_equal_the_closed_forms_bit_for_bit(sign):
    # the Touchard form s^q T_q(z) e^z against x s e^{sy} w and x e^{sy} (1 + x e^{sy}) w
    x = np.linspace(0.0, 1.0, 200)[:, None]
    y = np.linspace(-1.0, 1.0, 200)[None, :]
    g = np.exp(sign * y)
    w = np.exp(x * g)
    k = exp_exp(sign)
    assert np.array_equal(k.dy_n(x, y, 1).view(np.uint64), (x * sign * g * w).view(np.uint64))
    assert np.array_equal(k.dy_n(x, y, 2).view(np.uint64), (x * g * (1.0 + x * g) * w).view(np.uint64))


def test_self_check_catches_wrong_derivative(wide_grid):
    base = gaussian()
    broken = Kernel(
        id="broken",
        eval=base.eval,
        dx_n=lambda x, y, q: -base.dx_n(x, y, q),  # wrong sign
        dy_n=base.dy_n,
    )
    with pytest.raises(KernelEvaluationError):
        discretize(broken, wide_grid)


def test_discretize_rejects_nonfinite_kernel(wide_grid):
    with np.errstate(divide="ignore"):
        bad = Kernel(id="pole", eval=lambda x, y: 1.0 / (np.asarray(x) - np.asarray(y)))
        with pytest.raises(KernelEvaluationError):
            discretize(bad, wide_grid)


@pytest.mark.parametrize("make_kernel", [gaussian, translation_tgauss], ids=["gaussian", "t_gauss_kernel"])
@pytest.mark.parametrize("lo, hi, n", [(-6.0, 6.0, 48), (-2 * np.pi, 2 * np.pi, 64), (-5.0, 7.0, 45)])
@pytest.mark.parametrize("dx_order", [0, 1])
def test_periodic_translation_table_is_its_periodized_evaluation(make_kernel, lo, hi, n, dx_order):
    # on the grid's own nodes the table is copied from one circulant column;
    # it must equal the periodized profile evaluated at every pair of nodes,
    # up to the rounding of x_i - x_j (a few ulps of the coordinates)
    g = make_uniform_grid(lo, hi, n, periodic=True)
    k = make_kernel()
    table = kernel_table(k, g.nodes, g, dx_order)
    span = hi - lo
    delta = g.nodes[:, None] - g.nodes[None, :]
    wrapped = delta - span * np.round(delta / span)
    expected = sum(k.profile_n(wrapped + m * span, dx_order) for m in (-1, 0, 1)) * g.weights
    assert np.max(np.abs(table - expected)) <= 1e-14 * np.max(np.abs(expected))
    # off the nodes the table is still evaluated entry by entry
    shifted = g.nodes + 0.1
    off = kernel_table(k, shifted, g, dx_order)
    delta = shifted[:, None] - g.nodes[None, :]
    wrapped = delta - span * np.round(delta / span)
    expected = sum(k.profile_n(wrapped + m * span, dx_order) for m in (-1, 0, 1)) * g.weights
    assert np.array_equal(off, expected)


def test_apply_gaussian_to_delta(wide_grid):
    x0 = wide_grid.nodes[20]
    f = GeneralizedFunction(wide_grid, singular=[(x0, 0, 1.0)])
    out = apply(gaussian(), f)
    assert np.max(np.abs(out - np.exp(-((wide_grid.nodes - x0) ** 2)))) < 1e-12


def test_apply_gaussian_to_delta_derivative(wide_grid):
    f = GeneralizedFunction(wide_grid, singular=[(0.0, 1, 1.0)])
    out = apply(gaussian(), f)
    x = wide_grid.nodes
    assert np.max(np.abs(out - (-2 * x * np.exp(-(x**2))))) < 1e-10


def test_apply_gaussian_to_step_gives_erf(wide_grid):
    x = wide_grid.nodes
    smooth = np.where(x > 0, 1.0, np.where(x == 0, 0.5, 0.0))
    f = GeneralizedFunction(wide_grid, smooth=smooth, jumps=[(0.0, 1.0)])
    out = apply(gaussian(), f)
    target = (np.sqrt(np.pi) / 2) * (1 + erf(x))
    assert np.max(np.abs(out - target)) < 1e-7
    # far right of a step left of the centre, where adaptive quadrature over
    # [x0, inf) misses the exact value by 4.2e-5
    x0, xi = -1.1167562286272599, 5.929653150952614
    f = GeneralizedFunction(wide_grid, smooth=np.where(x > x0, 1.0, 0.0), jumps=[(x0, 1.0)])
    value = apply(gaussian(), f, out_nodes=[xi])[0]
    assert abs(value - np.sqrt(np.pi) / 2 * math.erfc(x0 - xi)) < 1e-12


@pytest.mark.parametrize("order", [1, 2])
def test_apply_gaussian_to_ramp_jumps(wide_grid, order):
    # H(t) t^k / k! at x0 maps to int_0^inf e^{-(d-s)^2} s^k / k! ds with
    # d = x - x0, integrated by parts into erf and exp terms
    x0 = -1.1167562286272599
    x = np.append(wide_grid.nodes, 5.929653150952614)
    d = x - x0
    half = (np.sqrt(np.pi) / 2) * (1 + erf(d))
    gauss = np.exp(-(d**2))
    target = d * half + gauss / 2 if order == 1 else (2 * d**2 + 1) / 4 * half + d * gauss / 4
    smooth = np.maximum(wide_grid.nodes - x0, 0.0) ** order / math.factorial(order)
    f = GeneralizedFunction(wide_grid, smooth=smooth, jumps=[(x0, order, 1.0)])
    out = apply(gaussian(), f, out_nodes=x)
    assert np.max(np.abs(out - target) / (1 + np.abs(target))) < 1e-12


def cos_gauss_profile(t, q=0):
    """cos(t) e^{-t^2}, without derivatives or antiderivatives."""
    if q != 0:
        raise UnsupportedOrderError(f"no order {q}")
    return np.cos(t) * np.exp(-(np.asarray(t) ** 2))


def _per_node_jump_image(kernel, x, x0, order, upper):
    """Reference: one scalar scipy quad per node, real and imaginary parts
    apart, at tolerances far below the tested bound."""
    from scipy.integrate import quad

    def part(xi, take):
        fn = lambda t: take(kernel.eval(xi, t) * (t - x0) ** order) / math.factorial(order)
        return quad(fn, x0, upper, epsabs=1e-12, epsrel=1e-12, limit=200)[0]

    return np.array([part(xi, np.real) + 1j * part(xi, np.imag) for xi in x])


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("case", ["fourier", "exp_exp"])
def test_jump_image_quadrature_matches_per_node_quad(case, order):
    # one vector-valued quad_vec over all nodes against scalar quad per node,
    # to hi: complex (fourier) and real (exp_exp)
    kernel, grid, x0 = {
        "fourier": (fourier(), make_uniform_grid(0.0, 2 * np.pi, 64, periodic=True), 1.3),
        "exp_exp": (exp_exp(-1), make_uniform_grid(0.0, 1.0, 64), 0.37),
    }[case]
    image = _jump_image(kernel, grid.nodes, x0, order, grid.hi)
    nodes = grid.nodes[::9]
    expected = _per_node_jump_image(kernel, nodes, x0, order, grid.hi)
    assert np.max(np.abs(image[::9] - expected)) <= 1e-10 * (1.0 + np.max(np.abs(image)))


def test_jump_image_of_a_profile_without_antiderivatives_raises(monkeypatch):
    # a translation kernel's jump images come from its profile alone
    def no_quadrature(*args):
        raise AssertionError("quadrature called")

    monkeypatch.setattr("funcoord.kernels.quad", no_quadrature)
    kernel = _translation("cos_gauss", cos_gauss_profile)
    with pytest.raises(UnsupportedOrderError):
        _jump_image(kernel, np.linspace(-6.0, 6.0, 64), -0.8, 0, 6.0)


def test_tgauss_profile_equals_the_hand_written_derivatives_bit_for_bit():
    # -1/2 of the Gaussian profile one order up is t e^{-t^2} and its first
    # derivative in the same floating-point values as the closed forms
    t = np.linspace(-8.0, 8.0, 200001)
    profile = translation_tgauss().profile_n
    assert np.array_equal(profile(t, 0), t * np.exp(-(t**2)))
    assert np.array_equal(profile(t, 1), (1 - 2 * t**2) * np.exp(-(t**2)))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_tgauss_jump_images_are_closed_form(order, monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature called")

    monkeypatch.setattr("funcoord.kernels.quad", no_quadrature)
    kernel, x0 = translation_tgauss(), -1.1167562286272599
    x = np.linspace(-6.0, 6.0, 64)[::7]
    image = _jump_image(kernel, x, x0, order, 6.0)
    expected = np.real(_per_node_jump_image(kernel, x, x0, order, np.inf))
    assert np.max(np.abs(image - expected)) <= 1e-10 * (1.0 + np.max(np.abs(image)))


def test_apply_is_linear(wide_grid):
    x = wide_grid.nodes
    f = GeneralizedFunction(wide_grid, smooth=np.exp(-(x**2)), singular=[(0.5, 1, 0.4)])
    g = GeneralizedFunction(wide_grid, smooth=np.cos(x), singular=[(-0.75, 0, 1.2)])
    k = gaussian()
    lhs = apply(k, f.scaled(2.5) + g.scaled(-0.5))
    rhs = 2.5 * apply(k, f) - 0.5 * apply(k, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_diagonal_kernel_smooth_only(wide_grid):
    f = GeneralizedFunction(wide_grid, smooth=np.sin(wide_grid.nodes))
    out = apply(dilation(3.0), f)
    assert_allclose(out, 3.0 * f.smooth, atol=0)
    with_delta = GeneralizedFunction(wide_grid, singular=[(0.0, 0, 1.0)])
    with pytest.raises(UnsupportedOrderError):
        apply(dilation(1.0), with_delta)


def test_apply_delta_derivative_without_y_partials_uses_finite_differences(wide_grid):
    # a kernel that carries only the values of f = t e^{-t^2}: the order-3
    # delta's image, (-1)^3 d^3/dy^3 f(x - y) = f^(3)(x - 0.3), comes from
    # finite differences of them
    f = GeneralizedFunction(wide_grid, singular=[(0.3, 3, 1.0)])
    t = wide_grid.nodes - 0.3
    expected = (-8.0 * t**4 + 24.0 * t**2 - 6.0) * np.exp(-(t**2))
    out = apply(Kernel(id="values_only", eval=translation_tgauss().eval), f)
    assert np.max(np.abs(out - expected)) < 1e-6 * (1.0 + np.max(np.abs(expected)))


def test_invert_identity_no_truncation(wide_grid):
    m = OperatorMatrix(np.eye(wide_grid.n), wide_grid)
    inv, report = invert(m, 1e-10)
    assert report.truncated == 0 and report.rank == wide_grid.n
    assert np.max(np.abs(inv.entries - np.eye(wide_grid.n))) < 1e-14


def test_invert_small_diagonal_exactly():
    m = OperatorMatrix(np.diag([2.0, 4.0]))
    inv, report = invert(m, 1e-10)
    assert_allclose(inv.entries, np.diag([0.5, 0.25]), atol=1e-15)
    assert report.sigma_max == 4.0 and report.sigma_min == 2.0


def test_invert_fourier_is_unitary_up_to_scale():
    g = make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    w = discretize(fourier(), g)
    inv, report = invert(w, 1e-10)
    assert report.truncated == 0
    assert np.max(np.abs(inv.entries @ w.entries - np.eye(32))) < 1e-8


def test_invert_threshold_validation(wide_grid):
    m = OperatorMatrix(np.eye(wide_grid.n), wide_grid)
    with pytest.raises(DomainError):
        invert(m, 0.0)
    with pytest.raises(SingularTransformError):
        invert(OperatorMatrix(np.zeros((8, 8))), 1e-10)


def test_dilation_inverse_matches_reciprocal_dilation(wide_grid):
    w = discretize(dilation(2.0), wide_grid)
    inv, _ = invert(w, 1e-10)
    expected = discretize(dilation(0.5), wide_grid)
    assert_allclose(np.diag(inv.entries), np.diag(expected.entries), rtol=0, atol=0)


def test_condition_report_round_trips():
    report = invert(OperatorMatrix(np.diag([2.0, 4.0])), 1e-10)[1]
    doc = asdict(report)
    assert set(doc) == {"sigma_max", "sigma_min", "truncated", "rank"}


@pytest.mark.parametrize("shape", [(512, 64), (7, 3)])
def test_gaussian_sketch_is_seeded_standard_normal(shape):
    draws = _gaussian_sketch(random.Random(3), shape)
    assert draws.shape == shape and np.all(np.isfinite(draws))
    assert np.array_equal(draws, _gaussian_sketch(random.Random(3), shape))
    if draws.size > 1000:
        # mean, variance and fourth moment of N(0, 1), within a few standard errors
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.03
        assert abs(np.mean(draws**4) - 3.0) < 0.15


def test_sketched_svd_keeps_the_exact_rank_and_sigmas():
    # the Gaussian's singular values fall below 1e-10 * sigma_max after a
    # few dozen, so a 64-column sketch resolves every one that is kept
    g = make_uniform_grid(-6.0, 6.0, 160, periodic=False)
    w = discretize(gaussian(), g).entries
    exact = np.linalg.svd(w, compute_uv=False)
    u, s, vh = _sketched_svd(w, 64)
    rank = int(np.count_nonzero(s >= 1e-10 * s[0]))
    assert rank == int(np.count_nonzero(exact >= 1e-10 * exact[0])) < 64
    assert np.max(np.abs(s[:rank] / exact[:rank] - 1.0)) < 1e-6
    # the factors are orthonormal and reproduce the kept part of w
    assert np.max(np.abs(u.T @ u - np.eye(64))) < 1e-12
    assert np.max(np.abs((u[:, :rank] * s[:rank]) @ vh[:rank] - w)) < 1e-9 * exact[0]


def test_truncated_svd_sketches_a_low_rank_kernel():
    # at n = 512 the 64-column sketch is within n/8, so it is taken
    g = make_uniform_grid(-6.0, 6.0, 512, periodic=False)
    w = discretize(gaussian(), g).entries
    exact = np.linalg.svd(w, compute_uv=False)
    u, s, vh, report = _truncated_svd(w, 1e-10)
    assert report.rank == int(np.count_nonzero(exact >= 1e-10 * exact[0])) == len(s)
    assert report.truncated == g.n - report.rank
    assert u.shape == (g.n, report.rank) and vh.shape == (report.rank, g.n)
    assert np.max(np.abs(s / exact[: report.rank] - 1.0)) < 1e-6
    # sigma_min is the smallest value the sketch computed, below the cut
    assert report.sigma_min < 1e-10 * report.sigma_max
    assert report.sigma_min != float(exact[-1])


@pytest.mark.parametrize("n", [128, 512])
def test_full_rank_matrix_takes_the_exact_path(n):
    rng = np.random.default_rng(n)
    a = np.eye(n) + 0.1 * rng.normal(size=(n, n)) / np.sqrt(n)
    u, s, vh, report = _truncated_svd(a, 1e-10)
    u0, s0, vh0 = np.linalg.svd(a)
    assert np.array_equal(u, u0) and np.array_equal(s, s0) and np.array_equal(vh, vh0)
    assert (report.rank, report.truncated, report.sigma_min) == (n, 0, float(s0[-1]))


# ---------------------------------------------------------------------------
# kernel intertwining-equation residuals
# ---------------------------------------------------------------------------


def residual_field(*args, **kwargs):
    """The x nodes and the residual rows of residual_blocks, joined."""
    x, values = zip(*residual_blocks(*args, **kwargs))
    return np.concatenate(x), np.concatenate(values)


def test_residual_gaussian_first_order(wide_grid):
    norm = kernel_pde_residual(gaussian(), 1, 1, 1.0, 1.0, wide_grid)
    assert norm < 1e-10


def test_residual_fourier_multiplication_form():
    g = make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    b = lambda y: -1j * np.asarray(y)
    norm = kernel_pde_residual(fourier(), 1, 0, 1.0, b, g)
    assert norm < 1e-10


def test_residual_exp_exp_signs():
    gx = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    gy = make_uniform_grid(-1.0, 1.0, 16, periodic=False)
    a = lambda x: np.asarray(x)
    minus = kernel_pde_residual(exp_exp(-1), 1, 1, a, 1.0, gx, y_grid=gy)
    plus = kernel_pde_residual(exp_exp(+1), 1, 1, a, 1.0, gx, y_grid=gy)
    assert minus < 1e-10
    assert plus > 1.0


def test_residual_translation_kernel_identically_zero():
    g = make_uniform_grid(-4.0, 4.0, 24, periodic=False)
    norm = kernel_pde_residual(translation_tgauss(), 1, 1, 1.0, 1.0, g)
    assert norm < 1e-12
    # a kernel without partials differentiates its table along x, and on
    # the y side takes order 0 only: with b = 0 the field is d w / dx
    profile = lambda t: np.cos(t) * np.exp(-(t**2) / 4)
    plain = Kernel(id="plain", eval=lambda x, y: profile(np.asarray(x) - np.asarray(y)))
    x, values = residual_field(plain, 1, 0, 1.0, 0.0, g)
    t = x[:, None] - g.nodes[None, :]
    exact = -(np.sin(t) + t / 2 * np.cos(t)) * np.exp(-(t**2) / 4)
    assert x.size == g.n - 4 and np.max(np.abs(values - exact)) < 1e-2
    with pytest.raises(UnsupportedOrderError):
        kernel_pde_residual(plain, 1, 1, 1.0, 1.0, g)


def test_residual_separable_exponent_family():
    # w = e^{-c(x) y} with c'(x) = 1/a(x) solves the first-order
    # multiplication form
    g = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    b = lambda y: np.asarray(y)
    w = lambda x, y: np.exp(-np.arctan(x) * np.asarray(y))
    k = Kernel(
        id="separable_exponent",
        eval=w,
        dx_n=lambda x, y, q: -(1.0 / (1.0 + np.asarray(x) ** 2)) * np.asarray(y) * w(x, y),
    )
    a = lambda x: 1.0 + np.asarray(x) ** 2
    norm = kernel_pde_residual(k, 1, 0, a, b, g)
    assert norm < 1e-12


def test_residual_interior_mask_on_fd_path():
    g = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    k = riccati_kernel(1.0, lambda y: np.zeros(np.shape(y)), 0.0, g)
    x, values = residual_field(k, 2, 0, 1.0, 0.0, g)
    # boundary-stencil rows are excluded from the x side only (m = 0)
    assert np.array_equal(x, g.nodes[2:-2]) and values.shape == (g.n - 4, g.n)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("periodic", [False, True])
def test_banded_rows_equal_the_matrix_product(q, periodic):
    # the residual's row products; a periodic grid's nodes are differenced
    # as the non-periodic grid on the same nodes is
    g = make_uniform_grid(0.0, 1.0, 40, periodic=periodic)
    d = diff_matrix(make_uniform_grid(0.0, g.nodes[-1], 40, periodic=False), q).entries
    table = np.exp(np.outer(g.nodes, np.linspace(-1.0, 1.0, 7)))
    dense = d @ table
    # the roundoff of either sum scales with the sum of the term magnitudes
    scale = np.max(np.abs(d) @ np.abs(table))
    # row blocks that start and end in the boundary rows and in the interior
    for r0, r1 in [(0, 40), (0, 2), (1, 9), (5, 36), (30, 40), (38, 39)]:
        rows = _fd_rows(g, q)(table, r0, r1)
        assert np.max(np.abs(rows - dense[r0:r1])) < 1e-12 * scale


def test_values_only_residual_on_a_periodic_grid_is_the_x_partial():
    # the table is the kernel as given, not periodized, so a spectral
    # x-derivative of it would ring; the edge stencils' rows are left out
    g = make_uniform_grid(-4.0, 4.0, 64, periodic=True)
    k = Kernel(id="values_only", eval=lambda x, y: np.cos(x - y) * np.exp(-((x - y) ** 2) / 4))
    x, values = residual_field(k, 1, 0, 1.0, 0.0, g)
    t = x[:, None] - g.nodes[None, :]
    exact = -(np.sin(t) + t / 2 * np.cos(t)) * np.exp(-(t**2) / 4)
    assert values.shape == (60, 64) and np.array_equal(x, g.nodes[2:-2])
    assert np.max(np.abs(values - exact)) < 1e-3


def test_residual_row_blocks_match_the_dense_formula():
    # a kernel without analytic partials takes finite differences along x
    # and y-order 0; n = 200 splits the field into several row blocks
    g = make_uniform_grid(0.0, 1.0, 200, periodic=False)
    yg = make_uniform_grid(-1.0, 1.0, 150, periodic=False)
    k = Kernel(
        id="separable_exponent",
        eval=lambda x, y: (1.0 + 0.5 * np.asarray(y) ** 2) * np.exp(-x * np.sin(y)),
    )
    a = lambda x: 1.0 + np.asarray(x)
    b = lambda y: np.cos(np.asarray(y))
    blocks = list(residual_blocks(k, 2, 0, a, b, g, y_grid=yg))
    assert len(blocks) > 1
    x, values = (np.concatenate(parts) for parts in zip(*blocks))
    norm = kernel_pde_residual(k, 2, 0, a, b, g, y_grid=yg)
    w = k.eval(g.nodes[:, None], yg.nodes[None, :])
    dense = a(g.nodes)[:, None] * (diff_matrix(g, 2).entries @ w) - w * b(yg.nodes)[None, :]
    rx = _fd_radius(2)
    expected = dense[rx : g.n - rx]
    assert values.shape == expected.shape
    assert np.array_equal(x, g.nodes[rx : g.n - rx])
    assert np.max(np.abs(values - expected)) < 1e-10 * np.max(np.abs(dense))
    assert norm == np.max(np.abs(values))


# ---------------------------------------------------------------------------
# Riccati-built kernels
# ---------------------------------------------------------------------------


def test_riccati_reproduces_separable_exponential():
    g = make_uniform_grid(0.0, 1.0, 64, periodic=False)
    y2 = lambda y: np.asarray(y) ** 2
    k = riccati_kernel(1.0, y2, lambda y: np.asarray(y), g)
    table = k.table[2]
    assert np.max(np.abs(table - np.exp(np.outer(g.nodes, g.nodes)))) < 1e-12
    norm = kernel_pde_residual(k, 2, 0, 1.0, y2, g, db=[lambda y: 2 * np.asarray(y)])
    assert norm < 1e-6


def test_riccati_answers_the_full_node_grid_with_its_table():
    g = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    k = riccati_kernel(1.0, lambda y: np.asarray(y) ** 2, lambda y: np.asarray(y), g)
    x, y, table = k.table
    assert k.eval(x[:, None], y[None, :]) is table
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    # any other on-node call is answered by lookup into the same table
    assert np.array_equal(k.eval(x[::-1, None], y[None, :3]), table[::-1, :3])
    assert k.eval(x[2], y[5]) == table[2, 5]


def test_riccati_zero_data_gives_unit_kernel():
    g = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    k = riccati_kernel(1.0, 0.0, 0.0, g)
    assert np.max(np.abs(k.table[2] - 1.0)) < 1e-14


def test_riccati_fixed_point_gives_plain_exponential():
    g = make_uniform_grid(0.0, 1.0, 64, periodic=False)
    k = riccati_kernel(1.0, 1.0, 1.0, g)
    norm = kernel_pde_residual(k, 2, 0, 1.0, 1.0, g)
    assert norm < 1e-8


def test_riccati_blowup_reports_location():
    g = make_uniform_grid(0.0, 3.0, 64, periodic=False)
    with pytest.raises(RiccatiBlowupError) as err:
        # dg/dx = -1 - g^2 from g(0) = 0 is -tan(x): pole at pi/2
        riccati_kernel(1.0, -1.0, 0.0, g)
    assert 1.3 < err.value.x < 1.8


def test_riccati_rejects_vanishing_coefficient():
    g = make_uniform_grid(-1.0, 1.0, 16, periodic=False)
    with pytest.raises(DomainError):
        riccati_kernel(lambda x: np.asarray(x), 1.0, 0.0, g)


def test_riccati_is_evaluated_on_its_nodes_only():
    g = make_uniform_grid(0.0, 1.0, 32, periodic=False)
    k = riccati_kernel(1.0, lambda y: np.asarray(y) ** 2, lambda y: np.asarray(y), g)
    x, y, table = k.table
    # scattered node pairs are looked up in the table exactly
    i, j = np.array([0, 31, 7, 7, 20]), np.array([5, 0, 31, 7, 13])
    assert np.array_equal(k.eval(x[i], y[j]), table[i, j])
    for xv, yv in [(0.515, y[3]), (x[3], 0.335), (x[:4], y[:4] + 1e-9), (-1.0, y[0])]:
        with pytest.raises(DomainError, match="riccati"):
            k.eval(xv, yv)
    # finite differences of the values would step off the nodes
    with pytest.raises(DomainError, match="riccati"):
        k.partial_x(x[3], y[3], 1)


def test_tabulated_kernel_exports_csv_triples():
    from funcoord.kernels import table_csv

    g = make_uniform_grid(0.0, 1.0, 8, periodic=False)
    k = riccati_kernel(1.0, 0.0, 0.0, g)
    text = table_csv(k)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,w"
    assert len(lines) == 1 + 8 * 8
    x, y, w = (float(v) for v in lines[1].split(","))
    assert (x, y, w) == (0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        table_csv(gaussian())


# ---------------------------------------------------------------------------
# translation-kernel commutation at the matrix level
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_kernel", [gaussian, translation_tgauss], ids=["gaussian", "t_gauss_kernel"])
def test_translation_kernels_commute_with_differentiation(make_kernel):
    g = make_uniform_grid(-6.0, 6.0, 48, periodic=True)
    w = discretize(make_kernel(), g).entries
    d = diff_matrix(g, 1).entries
    phi = np.sin(2 * np.pi * g.nodes / 12.0)
    assert np.max(np.abs((d @ w - w @ d) @ phi)) < 1e-6
