"""Generalized functions: pairing, differentiation, canonical form."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from funcoord import (
    DomainError,
    GeneralizedFunction,
    TestFunction,
    UnsupportedOrderError,
    apply_constant_coeff_operator,
    differentiate,
    make_uniform_grid,
    pair,
)


def bump_test_function(grid, max_order, mu=0.0, s=1.0):
    """Gaussian bump with analytic derivatives (Hermite recursion)."""
    from numpy.polynomial.hermite import hermval

    def deriv(q):
        def fn(x):
            t = (np.asarray(x) - mu) / s
            coefs = np.zeros(q + 1)
            coefs[q] = 1.0
            return (-1.0 / s) ** q * hermval(t, coefs) * np.exp(-(t**2))

        return fn

    return TestFunction(grid, [deriv(q) for q in range(max_order + 1)])


@pytest.fixture
def wide_grid():
    # odd count puts a node exactly at 0, where the step's midpoint value
    # keeps the quadrature clean
    return make_uniform_grid(-6.0, 6.0, 65, periodic=False)


def heaviside(grid, height=1.0):
    x = grid.nodes
    smooth = height * np.where(x > 0, 1.0, np.where(x == 0, 0.5, 0.0))
    return GeneralizedFunction(grid, smooth=smooth, jumps=[(0.0, height)])


def test_delta_sifts(wide_grid):
    f = GeneralizedFunction(wide_grid, singular=[(0.0, 0, 1.0)])
    phi = bump_test_function(wide_grid, 0)
    assert abs(pair(f, phi) - phi.values[wide_grid.n // 2]) < 1e-14


def test_delta_derivative_sign_convention(wide_grid):
    f = GeneralizedFunction(wide_grid, singular=[(0.0, 1, 1.0)])
    phi = bump_test_function(wide_grid, 1, mu=0.4)
    expected = -phi.derivative_at(1, 0.0)
    assert abs(pair(f, phi) - expected) < 1e-14


def test_step_pairs_to_half_gaussian_integral(wide_grid):
    f = heaviside(wide_grid)
    phi = TestFunction(wide_grid, [lambda x: np.exp(-np.asarray(x) ** 2)])
    assert abs(pair(f, phi) - np.sqrt(np.pi) / 2) < 1e-8


@pytest.mark.parametrize("periodic", [False, True])
def test_delta_derivative_off_the_nodes_pairs_to_the_exact_derivative(periodic):
    # the test function is evaluated at x0, not interpolated from samples
    grid = make_uniform_grid(-6.0, 6.0, 65 - periodic, periodic=periodic)
    x0, mu = 0.123, 0.4
    assert np.min(np.abs(grid.nodes - x0)) > 0.05
    f = GeneralizedFunction(grid, singular=[(x0, 1, 1.0)])
    exact = -2.0 * (x0 - mu) * np.exp(-((x0 - mu) ** 2))
    assert abs(pair(f, bump_test_function(grid, 1, mu=mu)) + exact) < 1e-14


def test_pair_of_a_delta_derivative_loads_no_scipy():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from funcoord import GeneralizedFunction, TestFunction, make_uniform_grid, pair\n"
        "g = make_uniform_grid(-6.0, 6.0, 65, periodic=False)\n"
        "f = GeneralizedFunction(g, singular=[(0.123, 1, 1.0)])\n"
        "phi = TestFunction(g, [lambda x: np.exp(-np.asarray(x) ** 2),\n"
        "                       lambda x: -2 * np.asarray(x) * np.exp(-np.asarray(x) ** 2)])\n"
        "pair(f, phi)\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_pair_requires_derivative_orders(wide_grid):
    f = GeneralizedFunction(wide_grid, singular=[(0.0, 2, 1.0)])
    phi = bump_test_function(wide_grid, 1)
    with pytest.raises(DomainError):
        pair(f, phi)


@pytest.mark.parametrize("q", [True, -1, 1.5])
def test_test_function_derivatives_take_orders_by_the_order_rule(wide_grid, q):
    # fns[True] would be the first derivative
    with pytest.raises(DomainError):
        bump_test_function(wide_grid, 1).derivative_at(q, 0.0)


def test_pair_linearity(wide_grid):
    rng = np.random.default_rng(11)
    smooth = np.exp(-wide_grid.nodes**2)
    f = GeneralizedFunction(wide_grid, smooth=smooth, singular=[(0.5625, 1, 0.7)])
    g = GeneralizedFunction(wide_grid, smooth=np.cos(wide_grid.nodes), singular=[(-1.125, 0, -0.3)])
    phi = bump_test_function(wide_grid, 1, mu=0.2, s=1.5)
    alpha, beta = rng.normal(), rng.normal()
    combined = f.scaled(alpha) + g.scaled(beta)
    lhs = pair(combined, phi)
    rhs = alpha * pair(f, phi) + beta * pair(g, phi)
    assert abs(lhs - rhs) < 1e-12


def test_differentiate_delta_raises_order(wide_grid):
    f = GeneralizedFunction(wide_grid, singular=[(0.0, 0, 1.0)])
    df = differentiate(f)
    assert df.smooth is None
    assert df.singular == ((0.0, 1, 1.0),)


def test_differentiate_step_gives_delta_and_zero_smooth(wide_grid):
    f = heaviside(wide_grid)
    df = differentiate(f)
    assert df.singular == ((0.0, 0, 1.0),)
    assert np.max(np.abs(df.smooth)) == 0.0
    assert df.jumps == ()


def test_differentiate_smooth_sine():
    g = make_uniform_grid(0.0, 2 * np.pi, 32, periodic=True)
    f = GeneralizedFunction(g, smooth=np.sin(g.nodes))
    df = differentiate(f)
    assert np.max(np.abs(df.smooth - np.cos(g.nodes))) < 1e-10


def test_differentiate_respects_order_cap(wide_grid):
    f = GeneralizedFunction(wide_grid, singular=[(0.0, 8, 1.0)])
    with pytest.raises(UnsupportedOrderError):
        differentiate(f)


def test_integration_by_parts():
    g = make_uniform_grid(-6.0, 6.0, 64, periodic=True)
    smooth = np.exp(-g.nodes**2) * g.nodes
    f = GeneralizedFunction(g, smooth=smooth, singular=[(0.75, 0, 0.8)])
    phi = bump_test_function(g, 2, mu=0.3, s=1.2)
    lhs = pair(differentiate(f), phi)
    dphi = TestFunction(g, phi.fns[1:])
    rhs = -pair(f, dphi)
    assert abs(lhs - rhs) < 1e-8


def test_canonical_form_merges_and_drops():
    g = make_uniform_grid(-6.0, 6.0, 16, periodic=False)
    f = GeneralizedFunction(
        g,
        singular=[(1.0, 0, 0.5), (1.0, 0, 0.5), (2.0, 1, 0.3), (2.0, 1, -0.3)],
    )
    assert f.singular == ((1.0, 0, 1.0),)
    # canonicalization is idempotent
    again = GeneralizedFunction(g, singular=f.singular)
    assert again.singular == f.singular


def test_jumps_and_delta_terms_have_one_canonical_form():
    g = make_uniform_grid(-6.0, 6.0, 16, periodic=False)
    entries = [(2.0, 1, 0.3), (1.0, 0, 0.5), (2.0, 1, -0.3), (-1.0, 2, 0.25), (1.0, 0, 0.5)]
    f = GeneralizedFunction(g, smooth=np.zeros(16), singular=entries, jumps=entries)
    assert f.singular == f.jumps == ((-1.0, 2, 0.25), (1.0, 0, 1.0))
    # a jump may be a pair of order 0; a delta term may not
    assert GeneralizedFunction(g, smooth=np.zeros(16), jumps=[(1.0, 0.5)]).jumps == ((1.0, 0, 0.5),)
    with pytest.raises(DomainError, match=r"singular entry 0 must be \[x0, order, weight\]"):
        GeneralizedFunction(g, singular=[(1.0, 0.5)])
    for kind in ("singular", "jumps"):
        for entry in [(1.0,), (1.0, 0, 0.5, 7), (1.0, 1.5, 0.5), (1.0, True, 0.5), (1.0, -1, 0.5)]:
            with pytest.raises(DomainError, match="entry 0"):
                GeneralizedFunction(g, smooth=np.zeros(16), **{kind: [entry]})
    with pytest.raises(UnsupportedOrderError, match="order 9 exceeds cap 8 in singular entry 1"):
        GeneralizedFunction(g, singular=[(1.0, 8, 1.0), (1.0, 9, 1.0)])
    assert GeneralizedFunction(g, smooth=np.zeros(16), jumps=[(1.0, 9, 1.0)]).jumps == ((1.0, 9, 1.0),)


def test_singular_point_must_be_interior():
    g = make_uniform_grid(0.0, 1.0, 16, periodic=False)
    with pytest.raises(DomainError):
        GeneralizedFunction(g, singular=[(0.0, 0, 1.0)])
    with pytest.raises(DomainError):
        GeneralizedFunction(g, singular=[(1.5, 0, 1.0)])


def test_operator_identity_and_step(wide_grid):
    f = heaviside(wide_grid)
    same = apply_constant_coeff_operator([(0, 1.0)], f)
    assert_allclose(same.smooth, f.smooth, atol=0)
    assert same.jumps == f.jumps

    d = apply_constant_coeff_operator([(1, 1.0)], f)
    assert d.singular == ((0.0, 0, 1.0),)
    assert np.max(np.abs(d.smooth)) == 0.0


def test_second_derivative_of_kink_is_weighted_delta():
    g = make_uniform_grid(-6.0, 6.0, 64, periodic=False)
    c = g.nodes[40]  # exact node keeps the declared structure sample-exact
    u = GeneralizedFunction(
        g, smooth=np.abs(g.nodes - c), jumps=[(c, 1, 2.0)]
    )
    d2 = apply_constant_coeff_operator([(2, 1.0)], u)
    assert d2.singular == ((c, 0, 2.0),)
    assert np.max(np.abs(d2.smooth)) < 1e-11
    # cross-check by pairing: (2 delta_c, phi) = 2 phi(c)
    phi = bump_test_function(g, 0, mu=c, s=1.0)
    assert abs(pair(d2, phi) - 2.0) < 1e-9


def test_operator_rejects_function_coefficients(wide_grid):
    f = heaviside(wide_grid)
    with pytest.raises(DomainError):
        apply_constant_coeff_operator([(1, lambda x: x)], f)


@pytest.mark.parametrize("term", [(1.7, 1.0), (True, 1.0), (-1, 1.0), (1, True),
                                  (1, float("nan")), (1, float("inf"))],
                         ids=["order-float", "order-bool", "order-negative", "coeff-bool",
                              "coeff-nan", "coeff-inf"])
def test_operator_terms_follow_the_input_rules(term):
    # orders as _canonical reads them (an integer, not a bool, >= 0), real and
    # finite coefficients: int(1.7) would make the first term a first derivative
    f = GeneralizedFunction(make_uniform_grid(-1.0, 1.0, 16), singular=[(0.0, 0, 1.0)])
    with pytest.raises(DomainError):
        apply_constant_coeff_operator([term], f)


def test_from_json_reads_order0_jumps_as_pairs_and_higher_orders_as_triples():
    # the form transform reads: an order-0 jump is a pair, an order-2 jump a triple
    doc = """{
      "smooth": [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.5, 2.0],
      "jumps": [[1.125, 2, 0.5], [0.0, 1.0]],
      "singular": [[0.5625, 1, -0.25]],
      "grid": {"lo": -2.0, "hi": 2.0, "n": 9, "periodic": false}
    }"""
    f = GeneralizedFunction.from_json(doc)
    assert f.grid == make_uniform_grid(-2.0, 2.0, 9, periodic=False)
    assert_allclose(f.smooth, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.5, 2.0], atol=0)
    assert f.singular == ((0.5625, 1, -0.25),)
    assert f.jumps == ((0.0, 0, 1.0), (1.125, 2, 0.5))


def test_jumps_require_smooth_part(wide_grid):
    with pytest.raises(DomainError):
        GeneralizedFunction(wide_grid, jumps=[(0.0, 1.0)])
