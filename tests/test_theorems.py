"""Verification suites: structure, outcomes, determinism."""

import numpy as np
import pytest

from funcoord import (
    DomainError,
    GeneralizedFunction,
    NotASolutionError,
    PreconditionError,
    check_derivative_preservation,
    check_fourier_diagonalizes,
    check_nonlinear_tensor,
    check_product_preservation,
    check_xdx_intertwine,
    conjugate,
    diff_matrix,
    dilation,
    discretize,
    exp_exp,
    fourier,
    gaussian,
    locality_score,
    make_uniform_grid,
    multiplication,
    residual_blocks,
    smooth_from_generalized,
    theorem_property_suite,
)
from funcoord import theorems as theorems_module
from funcoord.grid import OperatorMatrix, derivative
from funcoord.kernels import _translation
from funcoord.theorems import VerificationReport, ramp_instance, step_instance


def fourier_grid(n):
    return make_uniform_grid(0.0, 2 * np.pi, n, periodic=True)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_passed_iff_within_tolerance():
    ok = VerificationReport.build("demo", {"r": 0.5}, {"r": 1.0})
    bad = VerificationReport.build("demo", {"r": 2.0}, {"r": 1.0})
    assert ok.passed and not bad.passed


def test_report_requires_tolerance_per_residual():
    with pytest.raises(DomainError):
        VerificationReport.build("demo", {"r": 0.5}, {})


def test_tolerance_override_validation():
    g = fourier_grid(16)
    # an unknown key is named together with the residuals the check reports
    with pytest.raises(DomainError, match=r"'no_such_key'.*\['intertwine_max', 'offband_defect_bw0'\]"):
        check_fourier_diagonalizes(g, tolerances={"no_such_key": 1.0})
    with pytest.raises(DomainError):
        check_fourier_diagonalizes(g, tolerances={"intertwine_max": -1.0})
    # an infinite tolerance turns its gate off, and json.dumps writes it as Infinity
    with pytest.raises(DomainError, match="must be a positive finite number, got inf"):
        check_fourier_diagonalizes(g, tolerances={"intertwine_max": float("inf")})


# ---------------------------------------------------------------------------
# fourier diagonalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 32])
def test_fourier_diagonalizes_first_order(n):
    report = check_fourier_diagonalizes(fourier_grid(n))
    assert report.passed
    assert report.residuals["intertwine_max"] < 1e-8
    assert report.residuals["offband_defect_bw0"] < 1e-6


def test_fourier_diagonalizes_second_order():
    report = check_fourier_diagonalizes(fourier_grid(64), order=2)
    assert report.passed
    assert report.residuals["intertwine_max"] < 1e-7


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [16, 32, 33, 64])
def test_fourier_closed_form_conjugate_matches_the_svd_conjugate(monkeypatch, n, order):
    # the dense reference: diff_matrix conjugated through the truncated SVD,
    # formed and scored, where the check scores it in closed form
    grid = fourier_grid(n)
    W = discretize(fourier(), grid)
    report = check_fourier_diagonalizes(grid, order=order)
    reference = conjugate(diff_matrix(grid, order), W)
    want_defect = max(0.0, 1.0 - locality_score(reference, 0))
    assert abs(report.residuals["offband_defect_bw0"] - want_defect) <= 1e-12
    got, want = report.condition, reference.condition
    assert abs(got.sigma_max - want.sigma_max) <= 1e-12 * want.sigma_max
    assert abs(got.sigma_min - want.sigma_min) <= 1e-12 * want.sigma_max
    assert (got.truncated, got.rank) == (want.truncated, want.rank) == (0, n)
    assert not hasattr(theorems_module, "OperatorMatrix")
    # the derivative's defect is 0 up to rounding, where a score that is too
    # high reads 0 as well: a random operator added to it gives a defect
    # well inside (0, 1)
    d = diff_matrix(grid, order).entries
    extra = np.random.default_rng(n).standard_normal((n, n)) * np.max(np.abs(d))
    monkeypatch.setattr(theorems_module, "derivative", lambda g, f, q: derivative(g, f, q) + extra @ f)
    perturbed = check_fourier_diagonalizes(grid, order=order).residuals["offband_defect_bw0"]
    want_defect = 1.0 - locality_score(conjugate(OperatorMatrix(d + extra, grid), W), 0)
    assert 0.01 < want_defect < 0.99
    assert abs(perturbed - want_defect) <= 1e-12


def test_fourier_requires_matched_grid():
    with pytest.raises(PreconditionError):
        check_fourier_diagonalizes(make_uniform_grid(0.0, 2 * np.pi, 32, periodic=False))
    with pytest.raises(PreconditionError):
        check_fourier_diagonalizes(make_uniform_grid(0.0, 1.0, 32, periodic=True))


# ---------------------------------------------------------------------------
# derivative preservation
# ---------------------------------------------------------------------------


def test_derivative_preservation_gaussian():
    grid = make_uniform_grid(-6.0, 6.0, 48, periodic=True)
    report = check_derivative_preservation(gaussian(), grid)
    assert report.passed
    assert report.residuals["commutator_order1"] < 1e-6
    assert report.residuals["partials_2d"] < 1e-5


@pytest.mark.parametrize("n2", [8, 16])
def test_derivative_check_by_axis_derivatives_matches_the_dense_kron_form(monkeypatch, n2):
    # a table that is no translation kernel's, so that no commutator vanishes
    def table(kernel, grid):
        rng = np.random.default_rng(grid.n)
        return OperatorMatrix(rng.standard_normal((grid.n, grid.n)), grid)

    monkeypatch.setattr(theorems_module, "discretize", table)
    grid = make_uniform_grid(-6.0, 6.0, 48, periodic=True)
    report = check_derivative_preservation(gaussian(), grid, axis_nodes_2d=n2)

    W, phi = table(None, grid).entries, theorems_module._bandlimited_samples(grid)
    for order in (1, 2):
        D = diff_matrix(grid, order).entries
        dense = np.max(np.abs(D @ W @ phi - W @ D @ phi))
        assert abs(report.residuals[f"commutator_order{order}"] - dense) <= 1e-12 * dense

    # the 2-D reference: W (x) W and both partials as Kronecker products
    grid2 = make_uniform_grid(-6.0, 6.0, n2, periodic=True)
    W1, D1, eye = table(None, grid2).entries, diff_matrix(grid2, 1).entries, np.eye(n2)
    Wk = np.kron(W1, W1)
    k = 2.0 * np.pi / 12.0
    phi2 = np.outer(np.sin(k * grid2.nodes), np.cos(k * grid2.nodes)).ravel()
    kron = max(
        np.max(np.abs(Dax @ Wk @ phi2 - Wk @ Dax @ phi2))
        for Dax in (np.kron(D1, eye), np.kron(eye, D1))
    )
    assert kron > 1.0
    assert abs(report.residuals["partials_2d"] - kron) <= 1e-12 * kron


def test_derivative_preservation_rejects_non_translation():
    grid = make_uniform_grid(-6.0, 6.0, 48, periodic=True)
    with pytest.raises(PreconditionError):
        check_derivative_preservation(exp_exp(-1), grid)
    with pytest.raises(PreconditionError):
        check_derivative_preservation(gaussian(), make_uniform_grid(-6, 6, 48))


def test_derivative_preservation_scale_invariant_relative_residual():
    grid = make_uniform_grid(-6.0, 6.0, 48, periodic=True)
    results = []
    for c in (1.0, 3.5):
        k = _translation("scaled_gauss", lambda t, q=0, c=c: c * gaussian().profile_n(t, q))
        rep = check_derivative_preservation(k, grid)
        results.append(rep.residuals["commutator_order1_rel"])
    assert abs(results[0] - results[1]) < 1e-10


# ---------------------------------------------------------------------------
# generalized -> smooth
# ---------------------------------------------------------------------------


def eval_window():
    return make_uniform_grid(-0.8, 0.8, 64, periodic=False)


def test_step_instance_first_order():
    L, u, v = step_instance()
    report = smooth_from_generalized(L, u, v, eval_window(), tolerance=1e-6)
    assert report.passed
    assert any("smoothness proxy" in note for note in report.notes)
    # L(D) phi is the transform under the kernel with profile f', so both
    # sides are the same closed form
    assert report.residuals["operator_residual"] == 0.0


def test_ramp_instance_second_order():
    L, u, v = ramp_instance()
    report = smooth_from_generalized(L, u, v, eval_window(), tolerance=1e-5)
    assert report.passed
    # what remains is the quadrature grid's truncation of the remainder -x/2
    assert report.residuals["operator_residual"] < 1e-9


def test_ramp_transform_against_quadrature_oracle():
    # independent oracle: brute-force quadrature of the kernel against |y|/2
    from scipy.integrate import quad

    _, u, _ = ramp_instance()
    x_eval = np.array([-0.5, -0.1, 0.0, 0.3, 0.7])
    from funcoord import apply

    phi = apply(gaussian(), u, out_nodes=x_eval)
    for xi, value in zip(x_eval, phi):
        oracle, _ = quad(
            lambda y, xi=xi: np.exp(-((xi - y) ** 2)) * abs(y) / 2.0,
            -np.inf,
            np.inf,
        )
        assert abs(value - oracle) < 1e-7


def test_zero_solution_zero_residual():
    g = make_uniform_grid(-6.0, 6.0, 64, periodic=False)
    zero = GeneralizedFunction(g, smooth=np.zeros(64))
    report = smooth_from_generalized([(1, 1.0)], zero, zero, eval_window())
    assert report.passed
    assert report.residuals["operator_residual"] == 0.0


def test_non_solution_is_rejected():
    L, u, v = step_instance()
    wrong = v.scaled(2.0)
    with pytest.raises(NotASolutionError):
        smooth_from_generalized(L, u, wrong, eval_window())


def test_property_suite_all_instances_pass():
    report = theorem_property_suite(count=50, seed=7, tolerance=1e-5)
    assert report.passed
    assert report.notes[0].startswith("50/50")


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_property_suite_residuals_are_rounding_errors(seed):
    # no finite differences: each instance's residual is rounding alone
    report = theorem_property_suite(count=50, seed=seed, tolerance=1e-5)
    assert report.residuals["worst_operator_residual"] < 1e-12


# ---------------------------------------------------------------------------
# product preservation
# ---------------------------------------------------------------------------


def product_grid():
    return make_uniform_grid(-6.0, 6.0, 64, periodic=False)


def test_product_constant_coefficient_is_trivially_local():
    report = check_product_preservation(1.0, gaussian(), product_grid())
    assert report.passed
    assert report.residuals["aomega_residual"] < 1e-10
    assert report.residuals["score_defect_bw0"] < 1e-8


def test_product_multiplication_kernel_is_trivially_local():
    ident = lambda t: np.asarray(t)
    x2p1 = lambda t: np.asarray(t) ** 2 + 1.0
    report = check_product_preservation(ident, multiplication(x2p1), product_grid())
    assert report.passed
    assert report.residuals["score_defect_bw0"] < 1e-8


def test_product_nonconstant_under_smoothing_is_nonlocal():
    ident = lambda t: np.asarray(t)
    report = check_product_preservation(ident, gaussian(), product_grid())
    assert report.passed
    assert report.residuals["score_bw2"] < 0.9
    assert report.condition is not None and report.condition.truncated > 0


def test_product_scores_monotone_in_bandwidth():
    from funcoord import conjugate, discretize, locality_score
    from funcoord.grid import OperatorMatrix

    g = product_grid()
    conj = conjugate(
        OperatorMatrix(np.diag(g.nodes), g), discretize(gaussian(), g)
    )
    scores = [locality_score(conj, b) for b in (0, 2, 5, 10, 63)]
    assert all(s2 >= s1 for s1, s2 in zip(scores, scores[1:]))


# ---------------------------------------------------------------------------
# variable-coefficient intertwining
# ---------------------------------------------------------------------------


def test_xdx_intertwine_sign_resolution():
    report = check_xdx_intertwine(make_uniform_grid(0.0, 1.0, 32, periodic=False))
    assert report.passed
    assert report.residuals["minus_sign_residual"] < 1e-10
    assert report.residuals["plus_sign_exceeds_one"] == 0.0
    assert any("satisfying sign: -1" in note for note in report.notes)


def test_xdx_requires_unit_interval():
    with pytest.raises(PreconditionError):
        check_xdx_intertwine(make_uniform_grid(0.0, 2.0, 32, periodic=False))


def test_xdx_residual_vanishes_where_x_is_zero():
    # both signs annihilate the residual along x = 0 (the coefficient and
    # the y-derivative both carry a factor x)
    gx = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    gy = make_uniform_grid(-1.0, 1.0, 16, periodic=False)
    zero = lambda y: np.zeros(np.shape(y))
    for sign in (-1, +1):
        blocks = residual_blocks(
            exp_exp(sign), 1, 1, lambda x: np.asarray(x), 1.0, gx,
            y_grid=gy, db=(zero,),
        )
        rows = [values[x == 0.0] for x, values in blocks]
        row = np.concatenate(rows)
        assert len(row) == 1
        assert np.max(np.abs(row)) == 0.0


# ---------------------------------------------------------------------------
# nonlinear tensor
# ---------------------------------------------------------------------------


def test_nonlinear_tensor_zero_input():
    g = make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    report = check_nonlinear_tensor(gaussian(), np.zeros(32), g)
    assert report.residuals["tensor_residual"] == 0.0


def test_nonlinear_tensor_identity_kernel():
    g = make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    report = check_nonlinear_tensor(
        dilation(1.0), np.sin(g.nodes), g,
        tolerances={"tensor_residual": 1e-9},
    )
    assert report.passed


def test_nonlinear_tensor_gaussian():
    g = make_uniform_grid(-2 * np.pi, 2 * np.pi, 64, periodic=True)
    report = check_nonlinear_tensor(gaussian(), np.sin(g.nodes), g)
    assert report.passed
    assert report.residuals["tensor_residual"] < 1e-5
    assert report.residuals["rank1_gap"] < 1e-8


def test_nonlinear_tensor_rejects_multiplication_kernel():
    g = make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    with pytest.raises(DomainError):
        check_nonlinear_tensor(multiplication(lambda t: t), np.sin(g.nodes), g)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_reports_are_bit_identical_across_runs():
    first = check_fourier_diagonalizes(fourier_grid(32)).to_dict()
    second = check_fourier_diagonalizes(fourier_grid(32)).to_dict()
    assert first == second
    suite_a = theorem_property_suite(count=10, seed=3).to_dict()
    suite_b = theorem_property_suite(count=10, seed=3).to_dict()
    assert suite_a == suite_b
