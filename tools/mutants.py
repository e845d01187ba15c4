"""Mutation sweep: run the verify suites on copies of the source that each
carry one known fault, and print which suites catch it.

    python3 tools/mutants.py

The tree at ``HEAD`` is exported with ``compare_outputs.export``. Each
mutant is a list of exact text patches ``(file, old, new)`` under
``src/funcoord``; the old text must occur exactly once in its file, or the
sweep stops. The unmutated export runs first as a
control and must pass every suite of every command in ``COMMANDS``. Each
mutant then runs those commands on its own patched copy, and the script
prints the suites that failed under it, or that it SURVIVES when every
command still passes. It exits 0 when every mutant is caught, 1 while any
survives and 2 when the export, a patch or the control fails.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

from compare_outputs import export, run, shown

#: the verify runs of each tree; compare_outputs.run appends "--out out"
COMMANDS: List[List[str]] = [
    ["verify", "--suite", "all", "--seed", "7"],
    ["verify", "--suite", "fourier", "--suite", "derivative", "--suite", "product",
     "--suite", "xdx", "--suite", "riccati", "--n", "128", "--seed", "7"],
]

#: mutant -> its patches (file under src/funcoord, old text, new text)
MUTANTS: Dict[str, List[Tuple[str, str, str]]] = {
    "finite-difference stencil radius one less": [
        ("grid.py", "return 2 if q <= 2 else 3", "return 1 if q <= 2 else 2"),
    ],
    "riccati table by Euler steps": [
        ("kernels.py", "g_next = g + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)", "g_next = g + h * k1"),
        ("kernels.py", "values[i + 1] = values[i] + h * g + h * h / 6.0 * (k1 + k2 + k3)",
         "values[i + 1] = values[i] + h * g"),
    ],
    "kernel residual sign flipped": [
        ("kernels.py", "block = lhs - sign * rhs", "block = lhs + sign * rhs"),
    ],
    "no Nyquist zeroing in derivative_symbol": [
        ("grid.py", "    if grid.n % 2 == 0 and q % 2 == 1:\n        mult[grid.n // 2] = 0.0\n", ""),
    ],
    "gaussian antiderivative recurrence without the 1/2": [
        ("kernels.py", "(t * value + before / 2.0) / k", "(t * value + before) / k"),
    ],
    "no quadrature weight in kernel_table": [
        ("kernels.py", "[:, 0] * grid.weights[0])", "[:, 0])"),
        ("kernels.py", "np.multiply(entries(x_rows[r0:r1, None], cols[None, :]), grid.weights,",
         "np.multiply(entries(x_rows[r0:r1, None], cols[None, :]), 1.0,"),
    ],
}


class PatchError(Exception):
    """A patch whose old text does not occur exactly once."""


def patched(source: Path, dest: Path, patches: List[Tuple[str, str, str]]) -> Path:
    """A copy of the tree ``source`` at ``dest`` with ``patches`` applied."""
    shutil.copytree(source / "src", dest / "src")
    for name, old, new in patches:
        path = dest / "src" / "funcoord" / name
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise PatchError(f"{name}: {old!r} occurs {text.count(old)} times, not once")
        path.write_text(text.replace(old, new), encoding="utf-8")
    return dest


def verified(tree: Path, cwd: Path) -> Tuple[bool, List[str]]:
    """Whether every command in ``COMMANDS`` passes on ``tree``, and one line
    per command: its exit code and the suites that failed in it, with a
    last entry for a run that stopped before its summary."""
    passed, lines = True, []
    for c, command in enumerate(COMMANDS):
        result = run(tree, command, cwd / str(c))
        names = result["digests"]
        failed = sorted(name[len("out/suite_"):-len(".json")] for name in names
                        if name.startswith("out/suite_") and name.endswith(".json")
                        and not shown(result, name)["passed"])
        if "out/summary.json" not in names:
            failed.append(f"(stopped, exit {result['exit']}, before the summary)")
        passed = passed and result["exit"] == 0
        lines.append(f"    {' '.join(command)}: exit {result['exit']}, "
                     f"failing: {', '.join(failed) or 'none'}")
    return passed, lines


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="funcoord-mutants-") as tmp:
        source, runs = Path(tmp) / "export", Path(tmp) / "runs"
        try:
            export("HEAD", source)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export HEAD: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        trees = {}
        for k, (name, patches) in enumerate(MUTANTS.items()):
            try:
                trees[name] = patched(source, Path(tmp) / "mutants" / str(k), patches)
            except PatchError as exc:
                print(f"error: mutant {name!r} does not apply: {exc}", file=sys.stderr)
                return 2
        passed, lines = verified(source, runs / "control")
        print(f"[{'pass' if passed else 'FAIL'}] control", *lines, sep="\n")
        if not passed:
            print("error: the unmutated tree fails; no mutant can be judged", file=sys.stderr)
            return 2
        survivors = []
        for k, (name, tree) in enumerate(trees.items()):
            passed, lines = verified(tree, runs / str(k))
            print(f"[{'SURVIVES' if passed else 'caught'}] {name}", *lines, sep="\n")
            if passed:
                survivors.append(name)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survive"
          + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
