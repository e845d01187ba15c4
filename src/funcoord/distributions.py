"""Generalized functions: smooth samples plus weighted delta derivatives.

A :class:`GeneralizedFunction` is a smooth part (samples on a grid) plus a
finite list of singular terms ``a * D^q delta(x - x0)``. The pairing sign
convention is the standard distributional one,

    (D^q delta_{x0}, phi) = (-1)^q phi^(q)(x0),

consistent with repeated integration by parts.

Delta terms are never discretized as spike vectors; they stay symbolic and
are consumed analytically by :func:`pair` and by kernel application.

Smooth parts may additionally declare known discontinuities: a jump
annotation ``(x0, order, height)`` states that the ``order``-th derivative
of the smooth part jumps by ``height`` at ``x0`` (order 0 is a plain value
jump, order 1 a slope kink, ...). Declared structure is what lets
:func:`differentiate` emit the correct delta terms instead of finite-
differencing across a discontinuity, and lets kernel application integrate
the discontinuous piece exactly. Detecting jumps numerically from samples
is deliberately out of scope. Periodic grids take no jumps: a jump's image
is integrated on the line, which the periodized kernel table does not match.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, UnsupportedOrderError
from .grid import Grid, derivative, make_uniform_grid

__all__ = [
    "DEFAULT_ORDER_CAP",
    "SingularTerm",
    "GeneralizedFunction",
    "TestFunction",
    "pair",
    "differentiate",
    "apply_constant_coeff_operator",
]

#: cap on delta-derivative orders
DEFAULT_ORDER_CAP = 8


@dataclass(frozen=True)
class SingularTerm:
    """One summand ``a * D^q delta(x - x0)``."""

    x0: float
    q: int
    a: float

    def __post_init__(self):
        if self.q < 0:
            raise DomainError(f"derivative order must be >= 0, got {self.q}")


def _step(t, at_zero=0.5):
    """Unit step samples with midpoint value at an exact node hit."""
    out = np.where(t > 0, 1.0, 0.0)
    return np.where(t == 0, at_zero, out)


def _ramp(t, order: int):
    """``H(t) t^order / order!`` — the one-sided monomial whose ``order``-th
    derivative jumps by one at t = 0."""
    t = np.asarray(t, dtype=float)
    if order == 0:
        return _step(t)
    return np.where(t > 0, t, 0.0) ** order / math.factorial(order)


@dataclass(frozen=True)
class GeneralizedFunction:
    """Distribution on a grid: optional smooth samples + singular terms.

    Parameters
    ----------
    grid : Grid
    smooth : array or None
        Samples of the regular part on ``grid.nodes``.
    singular : sequence of SingularTerm
        Canonicalized on construction: terms with identical ``(x0, q)``
        merge, exact-zero weights drop; orders above
        :data:`DEFAULT_ORDER_CAP` raise :class:`UnsupportedOrderError`.
    jumps : sequence of (x0, order, height)
        Declared discontinuities of the smooth part (see module docstring).
        Pairs ``(x0, height)`` are accepted and mean ``order = 0``. A
        periodic grid takes none.
    """

    grid: Grid
    smooth: Optional[np.ndarray] = None
    singular: tuple = ()
    jumps: tuple = ()

    def __post_init__(self):
        if self.smooth is not None:
            arr = np.asarray(self.smooth, dtype=float)
            self.grid.require_samples(arr, "smooth part")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, "smooth", arr)
        terms = []
        for t in self.singular:
            if not isinstance(t, SingularTerm):
                t = SingularTerm(float(t[0]), int(t[1]), float(t[2]))
            terms.append(t)
        object.__setattr__(self, "singular", _canonical_terms(terms))
        jumps = []
        for j in self.jumps:
            if len(j) == 2:
                x0, order, height = float(j[0]), 0, float(j[1])
            else:
                x0, order, height = float(j[0]), int(j[1]), float(j[2])
            if order < 0:
                raise DomainError(f"jump order must be >= 0, got {order}")
            jumps.append((x0, order, height))
        if jumps and self.smooth is None:
            raise DomainError("jump annotations require a smooth part")
        if jumps and self.grid.periodic:
            raise DomainError("jump annotations need a non-periodic grid")
        object.__setattr__(self, "jumps", _canonical_jumps(jumps))
        for x0 in [t.x0 for t in self.singular] + [j[0] for j in self.jumps]:
            if not (self.grid.lo < x0 < self.grid.hi):
                raise DomainError(
                    f"singular point {x0} not strictly inside ({self.grid.lo}, {self.grid.hi})"
                )

    # -- structure helpers -------------------------------------------------

    @property
    def max_order(self) -> int:
        return max((t.q for t in self.singular), default=0)

    def declared_structure(self, nodes) -> np.ndarray:
        """Samples of the declared step/ramp structure at ``nodes``."""
        nodes = np.asarray(nodes, dtype=float)
        out = np.zeros_like(nodes)
        for x0, order, height in self.jumps:
            out += height * _ramp(nodes - x0, order)
        return out

    def smooth_remainder(self) -> Optional[np.ndarray]:
        """Smooth part minus declared structure — continuous by contract."""
        if self.smooth is None:
            return None
        if not self.jumps:
            return self.smooth
        return self.smooth - self.declared_structure(self.grid.nodes)

    # -- linear-space operations -------------------------------------------

    def scaled(self, c: float) -> "GeneralizedFunction":
        return GeneralizedFunction(
            grid=self.grid,
            smooth=None if self.smooth is None else c * self.smooth,
            singular=[SingularTerm(t.x0, t.q, c * t.a) for t in self.singular],
            jumps=[(x0, order, c * h) for x0, order, h in self.jumps],
        )

    def __add__(self, other: "GeneralizedFunction") -> "GeneralizedFunction":
        if other.grid is not self.grid and not _same_grid(self.grid, other.grid):
            raise DomainError("cannot add generalized functions on different grids")
        if self.smooth is None:
            smooth = other.smooth
        elif other.smooth is None:
            smooth = self.smooth
        else:
            smooth = self.smooth + other.smooth
        return GeneralizedFunction(
            grid=self.grid,
            smooth=smooth,
            singular=list(self.singular) + list(other.singular),
            jumps=list(self.jumps) + list(other.jumps),
        )

    def __sub__(self, other: "GeneralizedFunction") -> "GeneralizedFunction":
        return self + other.scaled(-1.0)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """JSON form: {"smooth": [...], "jumps": [[x0,h] | [x0,q,h]], ...}.

        Order-0 jumps serialize as pairs, higher orders as triples.
        """
        doc = {
            "smooth": None if self.smooth is None else [float(v) for v in self.smooth],
            "jumps": [
                [x0, h] if order == 0 else [x0, order, h]
                for x0, order, h in self.jumps
            ],
            "singular": [[t.x0, t.q, t.a] for t in self.singular],
            "grid": {
                "lo": self.grid.lo,
                "hi": self.grid.hi,
                "n": self.grid.n,
                "periodic": self.grid.periodic,
            },
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GeneralizedFunction":
        """Read :meth:`to_json` output strictly: ``grid.periodic`` must be a
        boolean, ``grid.n`` and every order an integer, and every number
        finite, or :class:`DomainError` names the field or number."""
        doc = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)
        g = doc["grid"]
        singular = [tuple(t) for t in doc.get("singular", [])]
        jumps = [tuple(j) for j in doc.get("jumps", [])]
        if not isinstance(g["periodic"], bool):
            raise DomainError(f"grid.periodic must be true or false, got {g['periodic']!r}")
        counts = [("grid.n", g["n"])] + [("singular order", t[1]) for t in singular]
        for name, value in counts + [("jump order", j[1]) for j in jumps if len(j) == 3]:
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        grid = make_uniform_grid(g["lo"], g["hi"], g["n"], g["periodic"])
        return cls(grid=grid, smooth=doc.get("smooth"), singular=singular, jumps=jumps)


def _finite_number(literal: str) -> float:
    """A JSON number literal as a float; a non-finite one raises DomainError."""
    value = float(literal)
    if not math.isfinite(value):
        raise DomainError(f"number {literal} in the input is not finite")
    return value


def _same_grid(a: Grid, b: Grid) -> bool:
    return (
        a.lo == b.lo and a.hi == b.hi and a.n == b.n and a.periodic == b.periodic
    )


def _merged(pairs) -> list:
    """``(key, weight)`` pairs with equal keys' weights summed, zero sums
    dropped, sorted by key."""
    merged: dict = {}
    for key, weight in pairs:
        merged[key] = merged.get(key, 0.0) + weight
    return sorted((key, w) for key, w in merged.items() if w != 0.0)


def _canonical_terms(terms) -> tuple:
    for t in terms:
        if t.q > DEFAULT_ORDER_CAP:
            raise UnsupportedOrderError(
                f"delta-derivative order {t.q} exceeds cap {DEFAULT_ORDER_CAP}"
            )
    return tuple(SingularTerm(*key, a) for key, a in _merged(((t.x0, t.q), t.a) for t in terms))


def _canonical_jumps(jumps) -> tuple:
    return tuple(key + (h,) for key, h in _merged((j[:2], j[2]) for j in jumps))


@dataclass(frozen=True)
class TestFunction:
    """Test function given by its derivatives: ``fns[q]`` is the callable
    q-th derivative, order 0 the function itself. ``values`` samples it on
    the grid once; derivative values at any point are evaluated exactly.
    """

    __test__ = False  # not a pytest class despite the name

    grid: Grid
    fns: Sequence[Callable]
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fns", tuple(self.fns))
        if not self.fns:
            raise DomainError("test function must supply order-0 values")
        values = np.asarray(self.fns[0](self.grid.nodes), dtype=float)
        object.__setattr__(self, "values", self.grid.require_samples(values, "test function"))

    def derivative_at(self, q: int, x0: float) -> float:
        if not 0 <= q < len(self.fns):
            raise DomainError(f"test function lacks derivative order {q}")
        return float(self.fns[q](x0))


def pair(f: GeneralizedFunction, test: TestFunction) -> float:
    """Dual pairing ``(f, test)``.

    Quadrature of ``smooth * test`` plus, for each singular term,
    ``a * (-1)^q * test^(q)(x0)`` with the derivative value evaluated
    from the supplied callable. Raises :class:`DomainError` if the test
    function lacks a required derivative order.
    """
    if not _same_grid(f.grid, test.grid):
        raise DomainError("generalized function and test function use different grids")
    total = 0.0
    if f.smooth is not None:
        total += float(np.sum(f.grid.weights * f.smooth * test.values))
    for t in f.singular:
        total += t.a * (-1.0) ** t.q * test.derivative_at(t.q, t.x0)
    return total


def differentiate(f: GeneralizedFunction) -> GeneralizedFunction:
    """Distributional derivative.

    The declared step/ramp structure is subtracted before
    :func:`grid.derivative` so the remainder is smooth; each order-0 jump
    then emits a delta term of matching weight, higher-order jump
    annotations drop one order, and every singular term's order increases
    by one.
    """
    new_singular = []
    for t in f.singular:
        if t.q + 1 > DEFAULT_ORDER_CAP:
            raise UnsupportedOrderError(
                f"differentiation would exceed delta-order cap {DEFAULT_ORDER_CAP}"
            )
        new_singular.append(SingularTerm(t.x0, t.q + 1, t.a))

    new_smooth = None
    new_jumps = []
    if f.smooth is not None:
        new_smooth = derivative(f.grid, f.smooth_remainder(), 1)
        for x0, order, height in f.jumps:
            if order == 0:
                new_singular.append(SingularTerm(x0, 0, height))
            else:
                new_smooth = new_smooth + height * _ramp(f.grid.nodes - x0, order - 1)
                new_jumps.append((x0, order - 1, height))

    return GeneralizedFunction(
        grid=f.grid,
        smooth=new_smooth,
        singular=new_singular,
        jumps=new_jumps,
    )


def apply_constant_coeff_operator(
    L: Sequence, f: GeneralizedFunction
) -> GeneralizedFunction:
    """Apply ``sum_q c_q d^q/dx^q`` with constant coefficients ``c_q``.

    ``L`` is a sequence of ``(order, coefficient)`` pairs; coefficients must
    be numbers. The result is returned in canonical form.
    """
    terms = []
    for order, coeff in L:
        order = int(order)
        if order < 0:
            raise DomainError(f"operator order must be >= 0, got {order}")
        if not isinstance(coeff, (int, float, np.integer, np.floating)):
            raise DomainError("coefficients must be constants")
        terms.append((order, float(coeff)))
    if not terms:
        raise DomainError("operator has no terms")

    max_order = max(order for order, _ in terms)
    derivatives = [f]
    for _ in range(max_order):
        derivatives.append(differentiate(derivatives[-1]))

    result = None
    for order, coeff in terms:
        piece = derivatives[order].scaled(coeff)
        result = piece if result is None else result + piece
    return result
