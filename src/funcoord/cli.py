"""Command-line interface: configure grids and kernels, run verification
suites, transform generalized functions, and export residual fields.

Commands
--------
``verify``     run verification suites, write one JSON report per suite and
               an aggregate summary; exit 0 iff everything passed.
``transform``  apply the configured kernel to a generalized function read
               from JSON; write samples as CSV and JSON. ``--invert``
               additionally applies the regularized inverse transform and
               prints its condition report.
``residual``   evaluate the kernel intertwining-equation residual for given
               derivative orders and registry coefficients; write the field
               as CSV and a JSON summary.

Each command and verify suite reads only the inputs :data:`INPUTS` lists for
it; setting any other, by flag or config file, is a configuration error.

Exit codes: 0 success, 1 suite failure, 2 configuration error, 3 I/O error,
4 numerical failure (a non-finite kernel value, a singular transform, a
Riccati blow-up or a degenerate metric).

Coefficient functions come from a fixed named registry (no expression
parser); kernels are selected by id. All floating-point output uses 17
significant digits so emitted files round-trip bit-exactly, and every
randomized draw is controlled by ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .distributions import GeneralizedFunction
from .errors import DomainError, FuncoordError
from .grid import _ROW_BLOCK, Grid, _is, csv_blocks, csv_text, make_uniform_grid
from .kernels import (
    Kernel,
    _as_coefficient,
    _max_norm,
    _truncated_svd,
    apply,
    dilation,
    discretize,
    exp_exp,
    fourier,
    gaussian,
    kernel_pde_residual,
    multiplication,
    residual_blocks,
    riccati_kernel,
    translation_tgauss,
)
from .theorems import (
    DERIVATIVE_TOLERANCES,
    FOURIER_TOLERANCES,
    NONLINEAR_TOLERANCES,
    PRODUCT_TOLERANCES,
    XDX_TOLERANCES,
    VerificationReport,
    _tolerances,
    check_derivative_preservation,
    check_fourier_diagonalizes,
    check_nonlinear_tensor,
    check_product_preservation,
    check_xdx_intertwine,
    ramp_instance,
    smooth_from_generalized,
    step_instance,
    theorem_property_suite,
)

__all__ = ["main", "RunConfig", "COEFFICIENTS", "KERNELS", "SUITES", "INPUTS"]

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


class ConfigError(FuncoordError, ValueError):
    """Invalid CLI configuration."""


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NamedCoefficient:
    """Registry coefficient: callable plus its analytic derivative of every
    order, ``derivative(q)`` for ``q >= 1``."""

    name: str
    fn: Callable
    derivative: Callable[[int], Callable]


def _polynomial(name: str, fn: Callable, *derivs: Callable) -> NamedCoefficient:
    """A polynomial coefficient: ``derivs`` up to its degree, zero past it."""
    zero = _as_coefficient(0.0)
    return NamedCoefficient(name, fn, lambda q: derivs[q - 1] if q <= len(derivs) else zero)


_ident = lambda t: np.asarray(t, dtype=float)
_exp_minus = lambda t: np.exp(-np.asarray(t, dtype=float))

COEFFICIENTS: Dict[str, NamedCoefficient] = {
    c.name: c
    for c in [
        _polynomial("1", _as_coefficient(1.0)),
        _polynomial("x", _ident, _as_coefficient(1.0)),
        _polynomial("x^2", lambda t: _ident(t) ** 2,
                    lambda t: 2.0 * _ident(t), _as_coefficient(2.0)),
        _polynomial("y", _ident, _as_coefficient(1.0)),
        _polynomial("y^2", lambda t: _ident(t) ** 2,
                    lambda t: 2.0 * _ident(t), _as_coefficient(2.0)),
        NamedCoefficient("e^y", np.exp, lambda q: np.exp),
        NamedCoefficient("e^-y", _exp_minus,
                         lambda q: _exp_minus if q % 2 == 0 else lambda t: -_exp_minus(t)),
        _polynomial("-iy", lambda t: -1j * _ident(t), _as_coefficient(-1j)),
        _polynomial("-y^2", lambda t: -(_ident(t) ** 2),
                    lambda t: -2.0 * _ident(t), _as_coefficient(-2.0)),
    ]
}


def _coefficient(name: str) -> NamedCoefficient:
    if name not in COEFFICIENTS:
        raise ConfigError(
            f"unknown coefficient {name!r}; registry: {sorted(COEFFICIENTS)}"
        )
    return COEFFICIENTS[name]


#: kernel id -> (factory taking the parameters as keywords, {parameter: type})
KERNELS: Dict[str, Tuple[Callable, Dict[str, type]]] = {
    "gaussian": (gaussian, {}),
    "fourier": (fourier, {}),
    "identity": (lambda: dilation(1.0), {}),
    "dilation": (lambda c=1.0: dilation(c), {"c": float}),
    "multiplication": (lambda a0="1": multiplication(_coefficient(a0).fn), {"a0": str}),
    "exp_exp_plus": (lambda: exp_exp(+1), {}),
    "exp_exp_minus": (lambda: exp_exp(-1), {}),
    "translation_tgauss": (translation_tgauss, {}),
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Resolved run configuration (config file merged with flag overrides)."""

    lo: Optional[float] = None
    hi: Optional[float] = None
    n: Optional[int] = None
    periodic: Optional[bool] = None
    kernel: Dict = field(default_factory=lambda: {"id": "gaussian"})
    suites: List[str] = field(default_factory=lambda: ["all"])
    tolerances: Dict[str, float] = field(default_factory=dict)
    out: str = "funcoord-out"
    formats: List[str] = field(default_factory=lambda: ["csv", "json"])
    seed: int = 7
    threshold: float = 1.0e-10
    invert: bool = False
    a: str = "1"
    b: str = "1"

    def validate(self, command: str, given: Iterable[str]) -> "RunConfig":
        """Check the values; reject each field in ``given`` (those the user
        set) that the command or a selected suite does not read."""
        for key, hint in get_type_hints(RunConfig).items():
            _check_type(key, getattr(self, key), hint)
        for s in self.suites:
            if s != "all" and s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}; registry: {list(SUITES)}")
        # 'all' expands to every suite; keep declared order, drop duplicates
        self.suites = list(dict.fromkeys(
            t for s in self.suites for t in (SUITES if s == "all" else [s])
        ))
        # a verify run reads a field only if every selected suite reads it
        for name in (self.suites if command == "verify" else []) or [command]:
            reads = {*RUN_WIDE, *INPUTS[command][0], *INPUTS[name][0]}
            if command == "transform" and not self.invert:
                reads.discard("threshold")  # only the inverse transform reads it
            unread = ", ".join(repr(key) for key in sorted(set(given) - reads))
            if unread:
                what = f"suite {name!r}" if name in SUITES else command
                raise ConfigError(f"{what} does not read {unread}; it reads {sorted(reads)}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.seed < 0:
            # random.Random seeds with |seed|, so -s would repeat the draws of s
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        kid = self.kernel.get("id")
        if not isinstance(kid, str) or kid not in KERNELS:
            raise ConfigError(f"unknown kernel {kid!r}; registry: {sorted(KERNELS)}")
        types = KERNELS[kid][1]
        for name in sorted(set(self.kernel) - {"id"}):
            if name not in types:
                raise ConfigError(
                    f"unknown kernel parameter 'kernel.{name}'; {kid!r} takes {sorted(types)}"
                )
            _check_type(f"kernel.{name}", self.kernel[name], types[name])
        for key, value in self.tolerances.items():
            suite, dot, residual = key.partition(".")
            declared = INPUTS[suite][2] if suite in SUITES else {}
            if not dot or not declared:
                raise ConfigError(
                    f"tolerance override {key!r} names no suite that takes overrides; "
                    "use '<suite>.<residual>' (the theorem suite takes none)"
                )
            if suite not in self.suites:
                raise ConfigError(
                    f"tolerance override {key!r} is for suite {suite!r}, which this run "
                    f"does not select; it runs {self.suites}"
                )
            try:  # the suite's own check of its overrides, run before any suite
                _tolerances(declared, {residual: value})
            except DomainError as exc:
                raise ConfigError(f"tolerance override {key!r}: {exc}") from exc
        if not self.formats:
            raise ConfigError("no output format given; choose csv, json or both")
        for fmt in self.formats:
            if fmt not in ("csv", "json"):
                raise ConfigError(f"unknown output format {fmt!r}")
        for name in (self.a, self.b):
            _coefficient(name)
        return self

    def make_kernel(self) -> Kernel:
        params = {k: v for k, v in self.kernel.items() if k != "id"}
        return KERNELS[self.kernel["id"]][0](**params)


def _check_type(key: str, value, hint) -> None:
    """Raise :class:`ConfigError` unless a config value, from a flag or the
    config file, fits its field's annotation by :func:`grid._is`:
    ``Optional`` admits None, a number is finite and no bool, an int passes
    as a float, and list items and dict values (each named by its key) are
    checked against their own annotations."""
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return
        hint = args[0]
        args = get_args(hint)
    kind = get_origin(hint) or hint
    if not _is(value, (int, float) if kind is float else kind):
        what = "a finite number" if kind is float else kind.__name__
        raise ConfigError(f"config value {key!r} must be {what}, got {value!r}")
    if args and kind in (list, dict):
        for name, item in value.items() if kind is dict else enumerate(value):
            _check_type(f"{key}.{name}" if kind is dict else key, item, args[-1])


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(doc) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return doc


def _resolve_config(args) -> RunConfig:
    """The config file's fields overridden by the flags given, validated
    for the command; every field either sets counts as set by the user."""
    doc = _load_config(getattr(args, "config", None))
    kernel = doc.get("kernel", {})
    # a flag not given leaves no attribute, and each flag's dest is its field
    doc.update((k, v) for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__)
    if "kernel" in vars(args):
        # --kernel replaces the id only; validate checks the config's parameters against it
        doc["kernel"] = {**kernel, "id": args.kernel} if isinstance(kernel, dict) else kernel
    return RunConfig(**doc).validate(args.command, doc)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_fourier(config: RunConfig, tol: dict, grid: Grid) -> List[VerificationReport]:
    return [check_fourier_diagonalizes(grid, order=1, tolerances=tol)]


def _suite_derivative(config: RunConfig, tol: dict, grid: Grid) -> List[VerificationReport]:
    return [
        check_derivative_preservation(gaussian(), grid, tolerances=tol),
        check_derivative_preservation(translation_tgauss(), grid, tolerances=tol),
    ]


def _suite_theorem(config: RunConfig, tol: dict, grid: Grid) -> List[VerificationReport]:
    L, u, v = step_instance()
    first = smooth_from_generalized(
        L, u, v, grid, seed=config.seed, tolerance=1.0e-6,
        name="theorem_step_first_order",
    )
    L2, u2, v2 = ramp_instance()
    second = smooth_from_generalized(
        L2, u2, v2, grid, seed=config.seed, tolerance=1.0e-5,
        name="theorem_ramp_second_order",
    )
    suite = theorem_property_suite(count=50, seed=config.seed, tolerance=1.0e-5)
    return [first, second, suite]


def _suite_product(config: RunConfig, tol: dict, grid: Grid) -> List[VerificationReport]:
    x2p1 = lambda t: np.asarray(t, dtype=float) ** 2 + 1.0
    return [
        check_product_preservation(1.0, gaussian(), grid, config.threshold, tol),
        check_product_preservation(_ident, multiplication(x2p1), grid, config.threshold, tol),
        check_product_preservation(_ident, gaussian(), grid, config.threshold, tol),
    ]


def _suite_xdx(config: RunConfig, tol: dict, grid: Grid) -> List[VerificationReport]:
    return [check_xdx_intertwine(grid, tolerances=tol)]


def _suite_nonlinear(
    config: RunConfig, tol: dict, grid_id: Grid, grid_g: Grid
) -> List[VerificationReport]:
    ident = check_nonlinear_tensor(
        dilation(1.0), np.sin(grid_id.nodes), grid_id, config.threshold,
        tolerances={"tensor_residual": 1.0e-9, **tol},
    )
    gauss = check_nonlinear_tensor(
        gaussian(), np.sin(grid_g.nodes), grid_g, config.threshold, tolerances=tol
    )
    return [ident, gauss]


RICCATI_TOLERANCES = {"kernel_equation_residual": 1.0e-6}


def _suite_riccati(config: RunConfig, tol: dict, grid: Grid) -> List[VerificationReport]:
    y2 = COEFFICIENTS["y^2"]
    kernel = riccati_kernel(1.0, y2.fn, COEFFICIENTS["y"].fn, grid)
    if "csv" in config.formats:
        x = grid.nodes
        _write_table(Path(config.out) / "riccati_table.csv", ("x", "y", "w"), x, x,
                     kernel.eval(x[:, None], x[None, :]))
    residual = kernel_pde_residual(kernel, 2, 0, 1.0, y2.fn, grid)
    return [
        VerificationReport.build(
            name="riccati_second_order",
            residuals={"kernel_equation_residual": residual},
            tolerances=_tolerances(RICCATI_TOLERANCES, tol),
            notes=(
                "slope data b = y^2, g0 = y reproduces the separable kernel "
                "e^{x y}; residual of a d^2 w/dx^2 = w b on interior nodes",
            ),
        )
    ]


#: suite -> check(config, {residual: override} of its '<suite>.<residual>'
#: tolerance overrides, *its default grids), returning its reports
SUITES: Dict[str, Callable] = {
    "fourier": _suite_fourier,
    "derivative": _suite_derivative,
    "theorem": _suite_theorem,
    "product": _suite_product,
    "xdx": _suite_xdx,
    "nonlinear": _suite_nonlinear,
    "riccati": _suite_riccati,
}

#: the RunConfig fields that make up a grid, in make_uniform_grid's order
GRID_FIELDS = ("lo", "hi", "n", "periodic")

#: fields that apply to the whole run, whatever the command
RUN_WIDE = ("out", "seed")

#: verify suite or command -> (the RunConfig fields it reads besides
#: RUN_WIDE, its default grids as (lo, hi, n, periodic), its default
#: tolerance per residual). Setting a field that the command, or a selected
#: suite, does not read is a configuration error; a grid field that is set
#: replaces the default; a tolerance override '<suite>.<residual>' may name
#: only a residual the suite declares (the theorem suite declares none).
INPUTS: Dict[str, Tuple[Tuple[str, ...], Tuple[tuple, ...], Dict[str, float]]] = {
    "verify": (("suites", "tolerances"), (), {}),
    "fourier": (("n",), ((0.0, 2.0 * np.pi, 32, True),), FOURIER_TOLERANCES),
    "derivative": (GRID_FIELDS, ((-6.0, 6.0, 48, True),), DERIVATIVE_TOLERANCES),
    "theorem": ((), ((-0.8, 0.8, 64, False),), {}),
    "product": ((*GRID_FIELDS, "threshold"), ((-6.0, 6.0, 64, False),), PRODUCT_TOLERANCES),
    "xdx": (("n",), ((0.0, 1.0, 32, False),), XDX_TOLERANCES),
    "nonlinear": (("threshold",), ((0.0, 2.0 * np.pi, 32, True),
                                   (-2.0 * np.pi, 2.0 * np.pi, 64, True)), NONLINEAR_TOLERANCES),
    "riccati": (("n", "formats"), ((0.0, 1.0, 64, False),), RICCATI_TOLERANCES),
    "transform": (("kernel", "invert", "threshold", "formats"), (), {}),
    "residual": (("kernel", "a", "b", "formats", *GRID_FIELDS), ((-6.0, 6.0, 32, False),), {}),
}


def _grids(config: RunConfig, name: str) -> List[Grid]:
    """The default grids of a suite or command, each grid field the config
    sets in the default's place (validation lets it be set only if read)."""
    return [
        make_uniform_grid(*(
            default if getattr(config, key) is None else getattr(config, key)
            for key, default in zip(GRID_FIELDS, spec)
        ))
        for spec in INPUTS[name][1]
    ]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


@contextmanager
def _created(path: Path) -> Iterator:
    """``path``, its directory made, open for text; a failure inside, an
    interrupt or an unfinished generator too, removes the file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with path.open("w", encoding="utf-8") as fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    with _created(path) as fh:
        fh.write(text)


def _write_table(path: Path, names: Sequence[str], x, y, values) -> None:
    """Write the joined :func:`csv_blocks` of ``values[i, j]`` at ``(x[i], y[j])``, each
    range of rows (of at least ``_ROW_BLOCK`` entries) after the first formatted by
    a forked child, one per CPU; a failed write leaves no table and no part file."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    ranges = max(1, min(cpus, len(x) // -(-_ROW_BLOCK // max(1, len(y)))))
    rows = [slice(len(x) * k // ranges, len(x) * (k + 1) // ranges) for k in range(ranges)]
    parts = [path.with_name(f".{path.name}.part{k}") for k in range(1, ranges)]
    children = []
    try:
        with _created(path) as fh:
            for part, r in zip(parts, rows[1:]):
                if not (pid := os.fork()):
                    try:  # the child leaves through _exit only: no unwinding, no flush
                        with part.open("w", encoding="utf-8") as out:
                            out.writelines(islice(csv_blocks(names, x[r], y, values[r]), 1, None))
                        os._exit(0)
                    except BaseException:
                        import traceback  # the cause goes to fd 2, past sys.stderr's buffer

                        os.write(2, traceback.format_exc().encode())
                    finally:
                        os._exit(1)
                children.append(pid)
            fh.writelines(csv_blocks(names, x[rows[0]], y, values[rows[0]]))
            fh.flush()
            for part, pid in zip(parts, children):
                if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT).si_status:  # reaped below
                    raise OSError(f"a process writing rows of {path} failed")
                with part.open("rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
    finally:
        for pid in children:
            os.waitpid(pid, 0)
        for part in parts:
            part.unlink(missing_ok=True)


def _written_rows(path: Path, blocks, y: np.ndarray) -> Iterator:
    """Pass on the residual's ``(x, R)`` row blocks, each once its rows are
    written to the CSV file ``path``; a failed or unfinished stream removes it."""
    with _created(path) as fh:
        for k, (x, r) in enumerate(blocks):
            # the header goes before the first block only
            fh.writelines(islice(csv_blocks(("x", "y", "R"), x, y, r), k > 0, None))
            yield x, r


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(config: RunConfig) -> int:
    """Run the selected suites in declared order; write per-suite reports
    and an aggregate summary; exit 0 iff everything passed."""
    out = Path(config.out)
    summary = {"suites": {}, "all_passed": True, "seed": config.seed}
    grids = [_grids(config, suite) for suite in config.suites]  # every one before any write
    for suite, suite_grids in zip(config.suites, grids):
        tol = {key.partition(".")[2]: value for key, value in config.tolerances.items()
               if key.partition(".")[0] == suite}
        reports = SUITES[suite](config, tol, *suite_grids)
        passed = all(r.passed for r in reports)
        summary["suites"][suite] = passed
        summary["all_passed"] = summary["all_passed"] and passed
        doc = {"suite": suite, "passed": passed, "reports": [r.to_dict() for r in reports]}
        _write_text(out / f"suite_{suite}.json", _dump_json(doc))
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {suite}: {r.name}")
    _write_text(out / "summary.json", _dump_json(summary))
    print(f"summary: {'all passed' if summary['all_passed'] else 'FAILURES'}")
    return EXIT_OK if summary["all_passed"] else EXIT_SUITE_FAILURE


def cmd_transform(config: RunConfig, input_path: str) -> int:
    """Apply the configured kernel to a generalized function from JSON."""
    try:  # an OSError is main's: exit 3
        gf = GeneralizedFunction.from_json(Path(input_path).read_text(encoding="utf-8"))
    except (FuncoordError, ValueError) as exc:
        raise ConfigError(f"invalid generalized-function JSON: {exc}") from exc
    if config.invert and gf.smooth is None:
        raise ConfigError("--invert needs a smooth part to invert")

    kernel = config.make_kernel()
    values = apply(kernel, gf)
    out = Path(config.out)
    x = gf.grid.nodes
    if "csv" in config.formats:
        _write_text(out / "transform.csv", csv_text(("x", "value"), x, values))
    if "json" in config.formats:
        doc = {
            "kernel": config.kernel,
            "x": [float(v) for v in x],
            "value": [float(v) for v in np.real(values)],
        }
        if np.iscomplexobj(values):
            doc["value_im"] = [float(v) for v in np.imag(values)]
        _write_text(out / "transform.json", _dump_json(doc))

    if config.invert:
        # V_r (s_r^-1 (U_r^H f)): the regularized inverse, never formed
        u, s, vh, report = _truncated_svd(discretize(kernel, gf.grid).entries, config.threshold)
        recovered = vh.conj().T @ ((u.conj().T @ gf.smooth) / s)
        if "csv" in config.formats:
            _write_text(out / "transform_inverse.csv", csv_text(("x", "value"), x, recovered))
        print(_dump_json(asdict(report)), end="")
    return EXIT_OK


def cmd_residual(config: RunConfig, n: int, m: int) -> int:
    """Evaluate the kernel-equation residual field for orders (n, m), in
    one pass that writes its CSV and keeps its max norm."""
    [grid] = _grids(config, "residual")
    kernel = config.make_kernel()
    a = COEFFICIENTS[config.a]
    b = COEFFICIENTS[config.b]
    db = [b.derivative(q) for q in range(1, m + 1)]
    blocks = residual_blocks(kernel, n, m, a.fn, b.fn, grid, db=db)
    out = Path(config.out)
    if "csv" in config.formats:
        blocks = _written_rows(out / "residual.csv", blocks, grid.nodes)
    max_norm = _max_norm(blocks)
    summary = {
        "kernel": config.kernel,
        "n": n,
        "m": m,
        "a": config.a,
        "b": config.b,
        "max_norm": float(max_norm),
        "sign_convention": (
            "residual = a(x) d^n w/dx^n - (-1)^n d^m(w b)/dy^m; pick the sign "
            "of b accordingly (registry carries -iy and -y^2 for the "
            "oscillatory-kernel cases)"
        ),
    }
    if "json" in config.formats:
        _write_text(out / "residual.json", _dump_json(summary))
    print(_dump_json({"max_norm": float(max_norm)}), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcoord",
        description="coordinate-transformation verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--n", type=int, help="node count (>= 8)")
        p.add_argument("--lo", type=float, help="left endpoint")
        p.add_argument("--hi", type=float, help="right endpoint")
        p.add_argument("--periodic", action="store_true", help="periodic grid")
        p.add_argument("--threshold", type=float, help="SVD truncation threshold")
        p.add_argument("--seed", type=int, help="seed for randomized draws")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", dest="formats", metavar="FORMAT",
                       type=lambda text: [f.strip() for f in text.split(",") if f.strip()],
                       help="comma-separated outputs: csv,json")
        return p

    # verify takes no --kernel: every suite builds its own kernels
    verify = add_command("verify", "run verification suites")
    verify.add_argument("--suite", dest="suites", metavar="SUITE", action="append",
                        help="suite id or 'all' (repeatable)")

    transform = add_command("transform", "transform a generalized function")
    transform.add_argument("--kernel", help="kernel id", choices=sorted(KERNELS))
    transform.add_argument("--input", required=True, help="generalized-function JSON file")
    transform.add_argument(
        "--invert", action="store_true",
        help="also apply the regularized inverse and print its condition report",
    )

    residual = add_command("residual", "kernel-equation residual field")
    residual.add_argument("--kernel", help="kernel id", choices=sorted(KERNELS))
    # distinct dest names: --n is the grid size, these are derivative orders
    residual.add_argument("dx_order", type=int, help="x-derivative order")
    residual.add_argument("dy_order", type=int, help="y-derivative order")
    residual.add_argument("--a", help="coefficient a(x) registry name")
    residual.add_argument("--b", help="coefficient b(y) registry name")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "transform":
            return cmd_transform(config, args.input)
        return cmd_residual(config, args.dx_order, args.dy_order)
    except FuncoordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # numerical failures are the FuncoordErrors that are ArithmeticErrors
        return EXIT_NUMERICAL if isinstance(exc, ArithmeticError) else EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
