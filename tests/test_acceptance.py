"""Acceptance suite: every criterion at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line (run with ``pytest -v``
or ``-s`` to see them). All runs are desk scale: n <= 64 in 1-D, n <= 16
per axis in 2-D, each criterion well under 10 s on one core.

Domain choices are part of the record:

* smoothing-kernel quadrature lives on [-6, 6] (profile tails < 1e-15
  across half the span);
* evaluation windows for pointwise operator residuals are narrow
  ([-0.8, 0.8] or [-0.6, 0.6] at n = 64) so 4th-order differentiation
  error sits below the stated tolerances;
* periodic translation checks use spans the test samples actually close
  over (the squared-derivative check uses sin on [-2pi, 2pi)).
"""

import numpy as np
from scipy.special import erf

import funcoord as fc
from funcoord.cli import main as cli_main
from funcoord.grid import OperatorMatrix
from funcoord.theorems import ramp_instance, step_instance


def criterion(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_fourier_locality():
    grid = fc.make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    report = fc.check_fourier_diagonalizes(grid, order=1)
    ok = (
        report.residuals["intertwine_max"] < 1e-8
        and report.residuals["offband_defect_bw0"] < 1e-6
    )
    criterion("1 fourier diagonalizes d/dx (n=32): residual < 1e-8, "
              "band-0 score > 1 - 1e-6", ok)


def test_criterion_2_derivative_preservation():
    grid = fc.make_uniform_grid(-6.0, 6.0, 48, periodic=True)
    ok = True
    for kernel in (fc.gaussian(), fc.translation_tgauss()):
        report = fc.check_derivative_preservation(kernel, grid, axis_nodes_2d=16)
        ok = ok and report.residuals["commutator_order1"] < 1e-6
        ok = ok and report.residuals["partials_2d"] < 1e-5
    criterion("2 translation kernels commute with d/dx (1-D < 1e-6, "
              "2-D partials < 1e-5)", ok)


def test_criterion_3_step_and_ramp_instances():
    eval_grid = fc.make_uniform_grid(-0.8, 0.8, 64, periodic=False)
    L, u, v = step_instance()
    phi = np.real(fc.apply(fc.gaussian(), u, out_nodes=eval_grid.nodes))
    closed_form = (np.sqrt(np.pi) / 2.0) * (1.0 + erf(eval_grid.nodes))
    pointwise = float(np.max(np.abs(phi - closed_form)))
    first = fc.smooth_from_generalized(L, u, v, eval_grid, tolerance=1e-6)
    L2, u2, v2 = ramp_instance()
    second = fc.smooth_from_generalized(L2, u2, v2, eval_grid, tolerance=1e-5)
    ok = pointwise < 1e-7 and first.passed and second.passed
    criterion("3 step -> (sqrt(pi)/2)(1+erf) within 1e-7, residual < 1e-6; "
              "ramp second-order < 1e-5", ok)


def test_criterion_4_theorem_property_suite():
    report = fc.theorem_property_suite(count=50, seed=7, tolerance=1e-5)
    ok = report.passed and report.notes[0].startswith("50/50")
    criterion("4 property suite: 50/50 seeded random instances < 1e-5", ok)


def test_criterion_5_product_impossibility():
    grid = fc.make_uniform_grid(-6.0, 6.0, 64, periodic=False)
    ident = lambda t: np.asarray(t)
    trivial_const = fc.check_product_preservation(1.0, fc.gaussian(), grid)
    trivial_mult = fc.check_product_preservation(
        ident, fc.multiplication(lambda t: np.asarray(t) ** 2 + 1.0), grid
    )
    nonlocal_case = fc.check_product_preservation(ident, fc.gaussian(), grid)
    tensor_grid = fc.make_uniform_grid(-2 * np.pi, 2 * np.pi, 64, periodic=True)
    rank1 = fc.check_nonlinear_tensor(fc.gaussian(), np.sin(tensor_grid.nodes), tensor_grid)
    ok = (
        trivial_const.residuals["score_defect_bw0"] < 1e-8
        and trivial_mult.residuals["score_defect_bw0"] < 1e-8
        and nonlocal_case.residuals["score_bw2"] < 0.9
        and rank1.residuals["rank1_gap"] < 1e-8
    )
    criterion("5 product locality: trivial scores > 1 - 1e-8, smoothing of "
              "a(x)=x scores < 0.9 at band 2, rank-1 gap < 1e-8", ok)


def test_criterion_6_kernel_equation_residuals():
    wide = fc.make_uniform_grid(-6.0, 6.0, 64, periodic=False)
    gaussian_res = fc.kernel_pde_residual(fc.gaussian(), 1, 1, 1.0, 1.0, wide)

    fgrid = fc.make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    fourier_res = fc.kernel_pde_residual(
        fc.fourier(), 1, 0, 1.0, lambda y: -1j * np.asarray(y), fgrid
    )

    gx = fc.make_uniform_grid(0.0, 1.0, 32, periodic=False)
    gy = fc.make_uniform_grid(-1.0, 1.0, 32, periodic=False)
    zero = lambda y: np.zeros(np.shape(y))
    a = lambda x: np.asarray(x)
    minus = fc.kernel_pde_residual(fc.exp_exp(-1), 1, 1, a, 1.0, gx, y_grid=gy, db=(zero,))
    plus = fc.kernel_pde_residual(fc.exp_exp(+1), 1, 1, a, 1.0, gx, y_grid=gy, db=(zero,))

    ok = (
        gaussian_res < 1e-10
        and fourier_res < 1e-10
        and minus < 1e-10
        and plus > 1.0
    )
    criterion("6 kernel-equation residuals: gaussian/fourier/exp(x e^-y) "
              "< 1e-10, exp(x e^+y) > 1 (sign discrepancy on record)", ok)


def test_criterion_7_riccati_kernel():
    grid = fc.make_uniform_grid(0.0, 1.0, 64, periodic=False)
    y2 = lambda y: np.asarray(y) ** 2
    kernel = fc.riccati_kernel(1.0, y2, lambda y: np.asarray(y), grid)
    res = fc.kernel_pde_residual(
        kernel, 2, 0, 1.0, y2, grid, db=[lambda y: 2 * np.asarray(y)]
    )
    criterion("7 slope-equation kernel (b=y^2, g0=y) reproduces e^{xy}: "
              "second-order residual < 1e-6", res < 1e-6)


def test_criterion_8_nonlinear_tensor():
    grid_id = fc.make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    ident = fc.check_nonlinear_tensor(fc.dilation(1.0), np.sin(grid_id.nodes), grid_id)
    grid_g = fc.make_uniform_grid(-2 * np.pi, 2 * np.pi, 64, periodic=True)
    gauss = fc.check_nonlinear_tensor(fc.gaussian(), np.sin(grid_g.nodes), grid_g)

    # independent oracle for the gaussian case: differentiate-then-square on
    # a transform computed by brute-force quadrature
    from scipy.integrate import quad

    sub = grid_g.nodes[20:44]
    phi_oracle = np.array([
        quad(lambda y, xi=xi: np.exp(-((xi - y) ** 2)) * np.sin(y), -np.pi * 4, np.pi * 4)[0]
        for xi in sub
    ])
    gf = fc.GeneralizedFunction(grid_g, smooth=np.sin(grid_g.nodes))
    phi_lib = np.real(fc.apply(fc.gaussian(), gf))[20:44]
    oracle_gap = float(np.max(np.abs(phi_lib - phi_oracle)))

    ok = (
        ident.residuals["tensor_residual"] < 1e-9
        and gauss.residuals["tensor_residual"] < 1e-5
        and oracle_gap < 1e-7
    )
    criterion("8 squared-derivative tensor law: identity < 1e-9, "
              "smoothing kernel < 1e-5 (quadrature oracle agrees)", ok)


def test_criterion_9_transformation_law_coherence():
    rng = np.random.default_rng(7)
    n = 16
    worst_invariance = 0.0
    worst_spectrum = 0.0
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        G = fc.Metric(OperatorMatrix(q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T))
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        W = OperatorMatrix(q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2)
        Gt = fc.transform_metric(G, W)
        phi_t, psi_t = rng.normal(size=n), rng.normal(size=n)
        lhs = phi_t @ Gt.matrix.entries @ psi_t
        rhs = (W.entries @ phi_t) @ G.matrix.entries @ (W.entries @ psi_t)
        worst_invariance = max(worst_invariance, abs(lhs - rhs) / max(1.0, abs(rhs)))

        A = OperatorMatrix(rng.normal(size=(n, n)))
        eig_a = np.sort_complex(np.linalg.eigvals(A.entries))
        eig_c = np.sort_complex(np.linalg.eigvals(fc.conjugate(A, W).entries))
        worst_spectrum = max(worst_spectrum, float(np.max(np.abs(eig_a - eig_c))))
    ok = worst_invariance < 1e-8 and worst_spectrum < 1e-6
    criterion("9 transformation laws cohere: inner-product invariance < 1e-8 "
              "(20 seeded draws), spectrum preserved < 1e-6", ok)


def test_criterion_10_determinism(tmp_path):
    dirs = []
    for label in ("first", "second"):
        out = tmp_path / label
        code = cli_main(["verify", "--suite", "all", "--seed", "7", "--out", str(out)])
        assert code == 0
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in names
    )
    assert sorted(p.name for p in dirs[1].iterdir()) == names
    criterion("10 two 'verify --suite all --seed 7' runs emit byte-identical "
              "JSON reports", identical)
