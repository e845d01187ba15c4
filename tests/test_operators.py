"""Conjugation, metric transforms, locality scoring."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from funcoord import (
    DomainError,
    Metric,
    MetricDegeneracyError,
    conjugate,
    diff_matrix,
    dilation,
    discretize,
    fourier,
    gaussian,
    invert,
    locality_score,
    make_uniform_grid,
    multiplication,
    transform_metric,
)
from funcoord.grid import OperatorMatrix, derivative_symbol
from funcoord.operators import FactoredMatrix, conjugate_factored


def random_well_conditioned(rng, n, spread=(0.5, 2.0)):
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(*spread, n)) @ q2


def random_spd(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T


def test_conjugate_by_identity_is_identity():
    g = make_uniform_grid(0.0, 2 * np.pi, 16, periodic=True)
    a = diff_matrix(g, 1)
    w = OperatorMatrix(np.eye(16), g)
    out = conjugate(a, w)
    assert np.max(np.abs(out.entries - a.entries)) < 1e-12
    assert out.condition is not None and out.condition.truncated == 0


def test_conjugate_by_fourier_diagonalizes_derivative():
    g = make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    a = diff_matrix(g, 1)
    w = discretize(fourier(), g)
    out = conjugate(a, w)
    target = np.diag(derivative_symbol(g, 1))
    assert np.max(np.abs(out.entries - target)) < 1e-8
    assert locality_score(out, 0) > 1 - 1e-6


def test_conjugate_by_gaussian_preserves_derivative():
    # domain wide enough that the profile decays across half the span AND
    # every mode survives the truncation threshold
    g = make_uniform_grid(-6.0, 6.0, 32, periodic=True)
    a = diff_matrix(g, 1)
    w = discretize(gaussian(), g)
    out = conjugate(a, w)
    assert np.max(np.abs(out.entries - a.entries)) < 1e-6


@pytest.mark.parametrize("n", [64, 512])
def test_conjugate_applies_a_diagonal_as_a_scaling(n):
    # scaling by a equals the product with diag(a) entry for entry, on the
    # exact (n = 64) and the sketched (n = 512) inverse alike
    g = make_uniform_grid(-6.0, 6.0, n)
    w = discretize(gaussian(), g)
    a = g.nodes ** 2 + 1.0
    scaled = conjugate(a, w)
    formed = conjugate(OperatorMatrix(np.diag(a), g), w)
    assert np.array_equal(scaled.entries, formed.entries)
    assert scaled.grid is g and scaled.condition == formed.condition
    with pytest.raises(DomainError):
        conjugate(a[:-1], w)


def test_conjugation_is_functorial():
    rng = np.random.default_rng(5)
    n = 16
    a = OperatorMatrix(rng.normal(size=(n, n)))
    w1 = OperatorMatrix(random_well_conditioned(rng, n))
    w2 = OperatorMatrix(random_well_conditioned(rng, n))
    once = conjugate(conjugate(a, w1), w2)
    both = conjugate(a, OperatorMatrix(w1.entries @ w2.entries))
    assert np.max(np.abs(once.entries - both.entries)) < 1e-6


def test_conjugation_preserves_spectrum():
    rng = np.random.default_rng(9)
    n = 16
    a = OperatorMatrix(rng.normal(size=(n, n)))
    w = OperatorMatrix(random_well_conditioned(rng, n))
    eig_a = np.sort_complex(np.linalg.eigvals(a.entries))
    eig_c = np.sort_complex(np.linalg.eigvals(conjugate(a, w).entries))
    assert np.max(np.abs(eig_a - eig_c)) < 1e-6


def test_transform_metric_orthogonal_invariance():
    rng = np.random.default_rng(2)
    n = 12
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    g = Metric(OperatorMatrix(np.eye(n)))
    out = transform_metric(g, OperatorMatrix(q))
    assert np.max(np.abs(out.matrix.entries - np.eye(n))) < 1e-12


def test_transform_metric_dilation_scales_squared():
    grid = make_uniform_grid(0.0, 1.0, 8, periodic=False)
    g = Metric(OperatorMatrix(np.eye(8), grid))
    w = discretize(dilation(3.0), grid)
    out = transform_metric(g, w)
    assert_allclose(out.matrix.entries, 9.0 * np.eye(8), atol=1e-13)


def test_transform_metric_inner_product_invariance():
    rng = np.random.default_rng(7)
    n = 16
    for _ in range(5):
        g = Metric(OperatorMatrix(random_spd(rng, n)))
        w = OperatorMatrix(random_well_conditioned(rng, n))
        gt = transform_metric(g, w)
        phi_t, psi_t = rng.normal(size=n), rng.normal(size=n)
        phi, psi = w.entries @ phi_t, w.entries @ psi_t
        lhs = phi_t @ gt.matrix.entries @ psi_t
        rhs = phi @ g.matrix.entries @ psi
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_transform_metric_pseudo_inverse_round_trip():
    rng = np.random.default_rng(4)
    n = 12
    g = Metric(OperatorMatrix(random_spd(rng, n)))
    w = OperatorMatrix(random_well_conditioned(rng, n))
    gt = transform_metric(g, w)
    w_inv, _ = invert(w, 1e-10)
    back = transform_metric(gt, w_inv)
    assert np.max(np.abs(back.matrix.entries - g.matrix.entries)) < 1e-8


def test_metric_validation():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(MetricDegeneracyError):
        Metric(OperatorMatrix(bad))
    indefinite = np.diag([1.0, -1.0])
    with pytest.raises(MetricDegeneracyError):
        Metric(OperatorMatrix(indefinite))


def test_transform_metric_detects_degeneracy():
    g = Metric(OperatorMatrix(np.eye(8)))
    rank_deficient = OperatorMatrix(np.diag([1.0] * 6 + [0.0, 0.0]))
    with pytest.raises(MetricDegeneracyError):
        transform_metric(g, rank_deficient)


def test_locality_score_reference_values():
    assert locality_score(OperatorMatrix(np.diag([1.0, 2.0, 3.0, 4.0])), 0) == 1.0
    assert locality_score(OperatorMatrix(np.ones((4, 4))), 0) == pytest.approx(0.25)
    tri = np.diag(np.ones(6)) + np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
    assert locality_score(OperatorMatrix(tri), 1) == 1.0
    assert locality_score(OperatorMatrix(np.zeros((4, 4))), 0) == 1.0
    # int(1.7) would score band 1
    for bandwidth in (-1, 1.7, True):
        with pytest.raises(DomainError):
            locality_score(OperatorMatrix(np.eye(4)), bandwidth)


def test_locality_score_periodic_distance():
    g = make_uniform_grid(0.0, 2 * np.pi, 8, periodic=True)
    corner = np.zeros((8, 8))
    corner[0, 7] = 1.0  # adjacent on the circle
    assert locality_score(OperatorMatrix(corner, g), 1) == 1.0
    assert locality_score(OperatorMatrix(corner.copy()), 1) == 0.0


def test_locality_score_monotone_in_bandwidth():
    rng = np.random.default_rng(12)
    m = OperatorMatrix(rng.normal(size=(10, 10)))
    scores = [locality_score(m, b) for b in range(10)]
    assert all(s2 >= s1 for s1, s2 in zip(scores, scores[1:]))
    assert scores[-1] == pytest.approx(1.0)


def test_locality_invariant_under_multiplication_conjugation():
    g = make_uniform_grid(-2.0, 2.0, 12, periodic=False)
    w = discretize(multiplication(lambda t: np.asarray(t) ** 2 + 1.0), g)
    # banded operators keep their band exactly under diagonal conjugation
    tri = np.diag(np.arange(1.0, 13.0))
    tri += np.diag(np.ones(11), 1)
    conj = conjugate(OperatorMatrix(tri, g), w)
    assert abs(locality_score(OperatorMatrix(tri, g), 1) - locality_score(conj, 1)) < 1e-10
    diag = OperatorMatrix(np.diag(g.nodes), g)
    assert abs(locality_score(conjugate(diag, w), 0) - 1.0) < 1e-10


def _masked_locality(entries, bandwidth, periodic):
    """The band-mass fraction by an explicit distance mask."""
    n = entries.shape[0]
    i, j = np.indices((n, n))
    dist = np.abs(i - j)
    if periodic:
        dist = np.minimum(dist, n - dist)
    mass = np.abs(entries) ** 2
    return mass[dist <= bandwidth].sum() / mass.sum()


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", [8, 9, 33])
def test_locality_score_by_diagonals_equals_the_mask_formula(periodic, n):
    rng = np.random.default_rng(n)
    g = make_uniform_grid(0.0, 1.0, n, periodic=periodic)
    for entries in (rng.normal(size=(n, n)), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))):
        for bw in (0, 1, 2, n // 2 - 1, n // 2, n // 2 + 1, n - 1, n + 5):
            score = locality_score(OperatorMatrix(entries, g), bw)
            assert score == pytest.approx(_masked_locality(entries, bw, periodic), rel=1e-13)


@pytest.mark.parametrize("kind", ["well_conditioned", "gaussian"])
def test_conjugate_applies_the_pseudo_inverse_in_factored_form(kind):
    # against the formed product; the gaussian keeps sigmas down to 1e-6 of
    # sigma_max, so both sides carry roundoff amplified up to 1e6
    g = make_uniform_grid(-6.0, 6.0, 64, periodic=False)
    if kind == "gaussian":
        w, threshold, tol = discretize(gaussian(), g), 1e-6, 1e-9
    else:
        w, threshold, tol = OperatorMatrix(random_well_conditioned(np.random.default_rng(3), 64), g), 1e-10, 1e-13
    a = OperatorMatrix(np.diag(g.nodes), g)
    conj = conjugate(a, w, threshold)
    w_inv, report = invert(w, threshold)
    formed = w_inv.entries @ a.entries @ w.entries
    assert conj.condition == report
    assert np.max(np.abs(conj.entries - formed)) < tol * np.max(np.abs(formed))


@pytest.mark.parametrize("n, periodic", [(512, False), (200, True), (64, False)])
def test_factored_locality_equals_the_formed_conjugates(n, periodic):
    # scored block by block of rows, the conjugate is never formed; n = 512
    # takes the sketched SVD and many row blocks, n = 64 one block
    g = make_uniform_grid(-6.0, 6.0, n, periodic=periodic)
    w = discretize(gaussian(), g)
    a = g.nodes.copy()
    factored = conjugate_factored(a, w)
    assert isinstance(factored, FactoredMatrix) and factored.left.shape[0] == n
    formed = conjugate(a, w)
    assert np.array_equal(formed.entries, factored.left @ factored.right)
    assert formed.condition == factored.condition
    for bw in (0, 2, 5):
        expected = locality_score(formed, bw)
        assert abs(locality_score(factored, bw) - expected) <= 1e-14 * expected
