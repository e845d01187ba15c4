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

Both kinds of declared structure, delta terms ``(x0, q, a)`` and jumps
``(x0, order, height)``, have one canonical form, built by :func:`_canonical`:
a sorted tuple of ``(x0, order, weight)`` triples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, UnsupportedOrderError
from .grid import Grid, _is, _order, derivative, make_uniform_grid

__all__ = [
    "DEFAULT_ORDER_CAP",
    "GeneralizedFunction",
    "TestFunction",
    "pair",
    "differentiate",
    "apply_constant_coeff_operator",
]

#: cap on delta-derivative orders
DEFAULT_ORDER_CAP = 8


def _step(t):
    """Unit step samples with midpoint value at an exact node hit."""
    return np.where(t > 0, 1.0, np.where(t == 0, 0.5, 0.0))


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
    singular : list or tuple of (x0, q, a)
        Delta terms ``a * D^q delta(x - x0)``; orders above
        :data:`DEFAULT_ORDER_CAP` raise :class:`UnsupportedOrderError`.
    jumps : list or tuple of (x0, order, height)
        Declared discontinuities of the smooth part (see module docstring).
        Pairs ``(x0, height)`` are accepted and mean ``order = 0``. A
        periodic grid takes none.

    Both are stored in the canonical form of :func:`_canonical`.
    """

    grid: Grid
    smooth: Optional[np.ndarray] = None
    singular: tuple = ()
    jumps: tuple = ()

    def __post_init__(self):
        if self.smooth is not None:
            arr = self.grid.require_samples(np.array(self.smooth, dtype=float), "smooth part")
            arr.setflags(write=False)
            object.__setattr__(self, "smooth", arr)
        object.__setattr__(self, "singular", _canonical("singular", self.singular, self.grid))
        object.__setattr__(self, "jumps", _canonical("jump", self.jumps, self.grid))
        if self.jumps and self.smooth is None:
            raise DomainError("jump annotations require a smooth part")
        if self.jumps and self.grid.periodic:
            raise DomainError("jump annotations need a non-periodic grid")

    # -- structure helpers -------------------------------------------------

    @property
    def max_order(self) -> int:
        return max((q for _, q, _ in self.singular), default=0)

    def smooth_remainder(self) -> Optional[np.ndarray]:
        """Smooth part minus its declared step/ramp structure — continuous by contract."""
        if self.smooth is None or not self.jumps:
            return self.smooth
        x = self.grid.nodes
        return self.smooth - sum(h * _ramp(x - x0, order) for x0, order, h in self.jumps)

    # -- linear-space operations -------------------------------------------

    def scaled(self, c: float) -> "GeneralizedFunction":
        return GeneralizedFunction(self.grid, None if self.smooth is None else c * self.smooth,
                                   [(x0, q, c * a) for x0, q, a in self.singular],
                                   [(x0, order, c * h) for x0, order, h in self.jumps])

    def __add__(self, other: "GeneralizedFunction") -> "GeneralizedFunction":
        if other.grid != self.grid:
            raise DomainError("cannot add generalized functions on different grids")
        if self.smooth is None:
            smooth = other.smooth
        elif other.smooth is None:
            smooth = self.smooth
        else:
            smooth = self.smooth + other.smooth
        return GeneralizedFunction(self.grid, smooth, self.singular + other.singular,
                                   self.jumps + other.jumps)

    def __sub__(self, other: "GeneralizedFunction") -> "GeneralizedFunction":
        return self + other.scaled(-1.0)

    # -- JSON input ---------------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "GeneralizedFunction":
        """Read ``{"grid": {"lo", "hi", "n", "periodic"}, "smooth": [...], "jumps":
        [[x0, h] | [x0, q, h], ...], "singular": [[x0, q, a], ...]}`` strictly, only
        ``grid`` required and no other key: the document and ``grid`` must be objects,
        ``grid.lo``, ``grid.hi`` and every ``smooth`` item numbers, ``grid.n`` an integer,
        ``grid.periodic`` a boolean and every entry of the form :func:`_canonical` reads, each
        number by :func:`grid._is`, or :class:`DomainError` names the key, field, item or entry."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise DomainError(f"the input must be a JSON object, got {type(doc).__name__}")
        g = doc.get("grid")
        if not isinstance(g, dict):
            raise DomainError(f"grid must be an object, got {g!r}")
        unknown = sorted({*doc} - {"grid", "smooth", "jumps", "singular"}) + sorted(
            f"grid.{key}" for key in {*g} - {"lo", "hi", "n", "periodic"})
        if unknown:
            raise DomainError(f"unknown key {unknown[0]!r} in the input")
        for name, kind, what in (("lo", Real, "a number"), ("hi", Real, "a number"),
                                 ("n", Integral, "an integer"),
                                 ("periodic", bool, "true or false")):
            if not _is(g.get(name), kind):
                raise DomainError(f"grid.{name} must be {what}, got {g.get(name)!r}")
        smooth = doc.get("smooth")
        bad = [v for v in smooth if not _is(v, Real)] if isinstance(smooth, list) else [smooth]
        if smooth is not None and bad:
            raise DomainError(f"smooth must be a list of numbers; {bad[0]!r} is not one")
        grid = make_uniform_grid(g["lo"], g["hi"], g["n"], g["periodic"])
        return cls(grid=grid, smooth=smooth, singular=doc.get("singular", []),
                   jumps=doc.get("jumps", []))


def _canonical(kind: str, entries, grid: Grid) -> tuple:
    """The ``kind`` ('singular' or 'jump') ``entries`` as a sorted tuple of
    ``(x0, order, weight)`` triples: equal ``(x0, order)`` merge, zero sums
    drop. A jump may be the pair ``(x0, weight)``, of order 0. A delta order
    above :data:`DEFAULT_ORDER_CAP` raises :class:`UnsupportedOrderError`, and
    any other malformed entry, or an ``x0`` not strictly inside ``grid``,
    :class:`DomainError`, naming the entry."""
    if not isinstance(entries, (list, tuple)):
        raise DomainError(f"{kind} entries must be a list, got {entries!r}")
    pairs = kind == "jump"
    form = "[x0, order, weight]" + (" or [x0, weight]" if pairs else "")
    merged: dict = {}
    for k, entry in enumerate(entries):
        where = f"{kind} entry {k}"
        if not isinstance(entry, (list, tuple)) or len(entry) not in (3, 2 if pairs else 3):
            raise DomainError(f"{where} must be {form}, got {entry!r}")
        x0, order, weight = entry if len(entry) == 3 else (entry[0], 0, entry[1])
        if not (_is(x0, Real) and _is(weight, Real)):
            raise DomainError(f"{where} must have numbers as x0 and weight, got {entry!r}")
        if not grid.lo < x0 < grid.hi:
            raise DomainError(f"{where} has x0 = {x0}, not strictly inside ({grid.lo}, {grid.hi})")
        order = _order(order, f"{kind} order", f" in {where}")
        if kind == "singular" and order > DEFAULT_ORDER_CAP:
            raise UnsupportedOrderError(f"delta-derivative order {order} exceeds cap "
                                        f"{DEFAULT_ORDER_CAP} in {where}")
        key = (float(x0), order)
        merged[key] = merged.get(key, 0.0) + float(weight)
    return tuple(sorted(key + (w,) for key, w in merged.items() if w != 0.0))


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
        if _order(q) >= len(self.fns):
            raise DomainError(f"test function lacks derivative order {q}")
        return float(self.fns[q](x0))


def pair(f: GeneralizedFunction, test: TestFunction) -> float:
    """Dual pairing ``(f, test)``.

    Quadrature of ``smooth * test`` plus, for each singular term,
    ``a * (-1)^q * test^(q)(x0)`` with the derivative value evaluated
    from the supplied callable. Raises :class:`DomainError` if the test
    function lacks a required derivative order.
    """
    if f.grid != test.grid:
        raise DomainError("generalized function and test function use different grids")
    total = 0.0
    if f.smooth is not None:
        total += float(np.sum(f.grid.weights * f.smooth * test.values))
    for x0, q, a in f.singular:
        total += a * (-1.0) ** q * test.derivative_at(q, x0)
    return total


def differentiate(f: GeneralizedFunction) -> GeneralizedFunction:
    """Distributional derivative.

    The declared step/ramp structure is subtracted before
    :func:`grid.derivative` so the remainder is smooth; each order-0 jump
    then emits a delta term of matching weight, higher-order jump
    annotations drop one order, and every singular term's order increases
    by one.
    """
    # a term raised past DEFAULT_ORDER_CAP fails in the result's canonical form
    new_singular = [(x0, q + 1, a) for x0, q, a in f.singular]

    # only a smooth part has jumps
    new_smooth = None if f.smooth is None else derivative(f.grid, f.smooth_remainder(), 1)
    new_jumps = []
    for x0, order, height in f.jumps:
        if order == 0:
            new_singular.append((x0, 0, height))
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

    ``L`` is a sequence of ``(order, coefficient)`` pairs, each order an integer
    >= 0 and each coefficient a real number. The result is in canonical form.
    """
    terms = []
    for order, coeff in L:
        if not _is(coeff, Real):
            raise DomainError(f"coefficients must be real constants, got {coeff!r}")
        terms.append((_order(order, "operator order"), float(coeff)))
    if not terms:
        raise DomainError("operator has no terms")

    derivatives = [f]
    for _ in range(max(order for order, _ in terms)):
        derivatives.append(differentiate(derivatives[-1]))
    pieces = [derivatives[order].scaled(coeff) for order, coeff in terms]
    return sum(pieces[1:], pieces[0])
