"""External per-layer tracer for funcoord.

The tracer times each layer from outside, at the calls into its public
functions: it rebinds every listed function in each ``funcoord`` module
namespace that holds it (the modules import each other's functions with
``from .x import y``, so one rebinding per module is needed). Spans stay
in memory until the benchmark writes them out.

A layer's self time is its span's duration minus the time covered by its
wrapped child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: wrapped functions, named ``<module>.<attribute path>`` after the layers
TRACED = (
    "grid.make_uniform_grid",
    "grid.diff_matrix",
    "grid.fd_weights",
    "distributions.GeneralizedFunction.from_json",
    "distributions.differentiate",
    "distributions.pair",
    "distributions.apply_constant_coeff_operator",
    "distributions.TestFunction.derivative_at",
    "kernels.discretize",
    "kernels.kernel_table",
    "kernels._self_check",
    "kernels.apply",
    "kernels.quad",  # scipy's quad as bound in funcoord.kernels
    "kernels.invert",
    "kernels.kernel_pde_residual",
    "kernels.riccati_kernel",
    "kernels.table_csv",
    "operators.conjugate",
    "operators.locality_score",
    "theorems.check_fourier_diagonalizes",
    "theorems.check_derivative_preservation",
    "theorems.smooth_from_generalized",
    "theorems.theorem_property_suite",
    "theorems.check_product_preservation",
    "theorems.check_xdx_intertwine",
    "theorems.check_nonlinear_tensor",
    "cli.cmd_verify",
    "cli.cmd_transform",
)

#: functions whose returned matrices are summed into ``<name>.out_bytes``
OUT_BYTES = ("grid.diff_matrix", "kernels.discretize", "kernels.invert")


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    invocation: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: bool = False
    out_bytes: int = 0
    key: Optional[tuple] = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _out_bytes(result: Any) -> int:
    matrix = result[0] if isinstance(result, tuple) else result
    return int(matrix.entries.nbytes)


def _diff_matrix_key(grid, q, *_, **__) -> tuple:
    return (grid.lo, grid.hi, grid.n, grid.periodic, int(q))


class Tracer:
    """Span recorder that can rebind the :data:`TRACED` functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.invocation = 0
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        keyed = name == "grid.diff_matrix"
        sized = name in OUT_BYTES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.invocation, 0.0)
            if keyed:
                span.key = _diff_matrix_key(*args, **kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if sized:
                span.out_bytes = _out_bytes(result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded funcoord module."""
        importlib.import_module("funcoord.cli")
        modules = [m for k, m in sys.modules.items() if k == "funcoord" or k.startswith("funcoord.")]
        for name in TRACED:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"funcoord.{module_name}")
            if len(path) == 2:  # a method: rebind it once, on its class
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._rebind(cls, path[1], raw, new)
                continue
            original = getattr(owner, path[0])
            wrapped = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, original, wrapped)

    def _rebind(self, owner: Any, attr: str, original: Any, new: Any) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def records(self) -> List[list]:
        """Spans as ``[name, start, end, parent, invocation, error]`` rows."""
        return [[s.name, s.start, s.end, s.parent, s.invocation, s.error] for s in self.spans]


def layer_metrics(passes: List[List[Span]], bytes_written: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of traced passes: counts from the first pass (they
    repeat exactly), self times as the median over passes."""
    first = passes[0]
    calls, errors = dict.fromkeys(TRACED, 0), dict.fromkeys(TRACED, 0)
    for s in first:
        calls[s.name] += 1
        errors[s.name] += s.error
    self_s = [dict.fromkeys(TRACED, 0.0) for _ in passes]
    for totals, spans in zip(self_s, passes):
        for s in spans:
            totals[s.name] += s.self_s
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (median(t[name] for t in self_s), "s")
        metrics[f"{name}.errors"] = (errors[name], "count")
    builds = [s.key for s in first if s.name == "grid.diff_matrix"]
    metrics["grid.diff_matrix.distinct_ratio"] = (
        len(set(builds)) / len(builds) if builds else 0.0,
        "1",
    )
    for name in OUT_BYTES:
        metrics[f"{name}.out_bytes"] = (sum(s.out_bytes for s in first if s.name == name), "B")
    metrics["cli.bytes_written"] = (bytes_written, "B")
    return metrics
