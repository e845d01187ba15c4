"""Compare what two funcoord source trees print and write for a fixed list of
command lines.

    python3 tools/compare_outputs.py [--parent REV]

The tree at ``REV`` (default ``HEAD``) is exported with ``git archive`` and
compared with the working tree that holds this script, uncommitted edits
included. Each invocation runs once per tree, from a fresh directory of its
own, with a relative ``--out``, so no path differs between the two runs. For
each invocation the script prints both exit codes and every stdout, stderr or
output file whose sha256 differs (or that only one tree wrote). A differing
JSON file, CSV file or stdout is shown by value: each leaf whose ``repr``
moved, by its key path (a CSV file or a stdout that is not JSON by its line
numbers), old and new. It exits 0 when nothing differs, 1 when something does
and 2 when the export fails.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO = Path(__file__).resolve().parents[1]

#: a generalized function on 32 nodes of [-6, 6]: smooth samples and a delta
_X = [-6.0 + 12.0 * i / 31 for i in range(32)]
GF = {
    "smooth": [math.exp(-x * x) * math.cos(2.0 * x) for x in _X],
    "jumps": [],
    "singular": [[0.0, 1, 0.5]],
    "grid": {"lo": -6.0, "hi": 6.0, "n": 32, "periodic": False},
}

#: the same grid with declared structure: a jump given as a pair, a jump
#: triple of order 2, delta terms of orders 0-2, and entries that merge
#: (at -1.0 and 0.5) or cancel (at 1.0 and 3.0)
STRUCTURED = {
    "smooth": [math.exp(-x * x) * math.cos(2.0 * x) + (x > -1.0) + 0.125 * max(x - 2.0, 0.0) ** 2
               for x in _X],
    "jumps": [[-1.0, 0.5], [2.0, 2, 0.25], [-1.0, 0, 0.5], [1.0, 1, 0.75], [1.0, 1, -0.75]],
    "singular": [[0.5, 0, 1.0], [-0.5, 1, -0.5], [1.5, 2, 0.125], [0.5, 0, 0.25],
                 [3.0, 1, 0.3], [3.0, 1, -0.3]],
    "grid": GF["grid"],
}

#: 32 nodes of [0, 1], where exp_exp is kept, with a jump given as a pair,
#: an order-1 jump and a delta: every jump image comes from the quadrature
_U = [i / 31 for i in range(32)]
UNIT = {
    "smooth": [math.cos(3.0 * u) + (u > 0.3) + 0.5 * max(u - 0.6, 0.0) for u in _U],
    "jumps": [[0.3, 1.0], [0.6, 1, 0.5]],
    "singular": [[0.45, 0, 0.25]],
    "grid": {"lo": 0.0, "hi": 1.0, "n": 32, "periodic": False},
}

#: files each run directory holds before the invocation starts
INPUT_FILES = {
    "gf.json": json.dumps(GF),
    "structured.json": json.dumps(STRUCTURED),
    "unit.json": json.dumps(UNIT),
    "delta_only.json": json.dumps({k: v for k, v in GF.items() if k != "smooth"}),
    "no_periodic.json": json.dumps({**GF, "grid": {"lo": -6.0, "hi": 6.0, "n": 32}}),
    "theorem_override.json": json.dumps({"tolerances": {"theorem.operator_residual": 1.0}}),
    # json.dumps writes the non-standard token Infinity
    "infinite_tolerance.json": json.dumps({"tolerances": {"product.score_bw2": math.inf}}),
}

#: the compared command lines; each gets "--out out" appended, except the
#: --help runs, which write nothing
INVOCATIONS: List[List[str]] = [
    ["verify", "--suite", "all", "--seed", "7"],
    # the benchmark's verify --n 512 run, and its fourier run, which exits 4
    ["verify", "--suite", "derivative", "--suite", "product", "--suite", "xdx",
     "--suite", "riccati", "--n", "512", "--seed", "7"],
    ["verify", "--suite", "fourier", "--n", "512", "--seed", "7"],
    ["verify", "--suite", "riccati", "--format", "json"],
    ["residual", "1", "1", "--kernel", "gaussian", "--n", "32"],
    # the streamed residual writer over 16 row blocks
    ["residual", "1", "1", "--kernel", "gaussian", "--n", "512"],
    ["transform", "--input", "gf.json", "--kernel", "gaussian", "--invert",
     "--threshold", "1e-8"],
    ["transform", "--input", "structured.json", "--kernel", "gaussian"],
    ["transform", "--input", "structured.json", "--kernel", "translation_tgauss"],
    # jump images under kernels without a profile
    ["transform", "--input", "unit.json", "--kernel", "exp_exp_minus"],
    ["transform", "--input", "unit.json", "--kernel", "exp_exp_plus"],
    # configuration errors: each exits 2 with its message on stderr
    ["verify", "--suite", "fourier", "--format", "csv"],
    ["verify", "--suite", "theorem", "--config", "theorem_override.json"],
    ["verify", "--suite", "nope"],
    ["verify", "--suite", "fourier", "--kernel", "gaussian"],
    # non-finite numbers, by flag and in a config file
    ["verify", "--suite", "product", "--hi=inf"],
    ["verify", "--suite", "product", "--config", "infinite_tolerance.json"],
    # transform inputs it rejects: a missing file exits 3, the other two exit 2
    ["transform", "--input", "absent.json", "--kernel", "gaussian"],
    ["transform", "--input", "delta_only.json", "--kernel", "gaussian", "--invert"],
    ["transform", "--input", "no_periodic.json", "--kernel", "gaussian"],
    ["--help"],
    ["verify", "--help"],
    ["transform", "--help"],
    ["residual", "--help"],
]

CLI = "import sys; from funcoord.cli import main; sys.exit(main())"

#: the outputs shown by value when they differ: stdout, JSON and CSV files
SHOWN = ("<stdout>", ".json", ".csv")


def export(rev: str, dest: Path) -> None:
    """Write the tree at ``rev`` into ``dest`` through ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=True,
    )
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)


def parsed(data: bytes):
    """``data`` read as JSON, or else as its list of lines."""
    text = data.decode("utf-8", "replace")
    try:
        return json.loads(text)
    except ValueError:
        return text.splitlines()


def leaves(value, path: str = "") -> Iterator[Tuple[str, object]]:
    """``(key path, value)`` of every leaf of a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def moved_values(old, new) -> List[str]:
    """``path: old -> new`` for each leaf whose ``repr`` differs, or that
    only one side has, in the order the leaves appear."""
    before, after = dict(leaves(old)), dict(leaves(new))
    lines = []
    for path in [*before, *(p for p in after if p not in before)]:
        a, b = (repr(side[path]) if path in side else "absent" for side in (before, after))
        if a != b:
            lines.append(f"{path}: {a} -> {b}")
    return lines


def run(tree: Path, argv: List[str], cwd: Path) -> Dict[str, object]:
    """Run one invocation of ``tree``'s CLI in the fresh directory ``cwd``;
    return its exit code, its stdout, ``cwd`` and the sha256 of its streams
    and of every file it left in ``cwd``, by name relative to ``cwd``."""
    cwd.mkdir(parents=True)
    for name, text in INPUT_FILES.items():
        (cwd / name).write_text(text, encoding="utf-8")
    if "--help" not in argv:
        argv = [*argv, "--out", "out"]
    # the help text wraps to COLUMNS, and only the tree's own src is imported
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(tree / "src"), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *argv], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600,
    )
    digests = {
        str(path.relative_to(cwd)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(cwd.rglob("*")) if path.is_file()
    }
    digests["<stdout>"] = hashlib.sha256(proc.stdout).hexdigest()
    digests["<stderr>"] = hashlib.sha256(proc.stderr).hexdigest()
    return {"exit": proc.returncode, "digests": digests, "stdout": proc.stdout, "dir": cwd}


def shown(side: Dict[str, object], name: str):
    """The :func:`parsed` stdout or output file ``name`` of a :func:`run`."""
    return parsed(side["stdout"] if name == "<stdout>" else (side["dir"] / name).read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    differences = 0
    with tempfile.TemporaryDirectory(prefix="funcoord-compare-") as tmp:
        parent = Path(tmp) / "parent"
        try:
            export(args.parent, parent)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export {args.parent!r}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        for k, invocation in enumerate(INVOCATIONS):
            old = run(parent, invocation, Path(tmp) / "runs" / "parent" / str(k))
            new = run(REPO, invocation, Path(tmp) / "runs" / "tree" / str(k))
            moved = [
                name for name in sorted(set(old["digests"]) | set(new["digests"]))
                if old["digests"].get(name) != new["digests"].get(name)
            ]
            same = not moved and old["exit"] == new["exit"]
            differences += not same
            print(f"[{'same' if same else 'DIFF'}] {' '.join(invocation)}: "
                  f"exit {old['exit']} -> {new['exit']}")
            for name in moved:
                both = name.endswith(SHOWN) and name in old["digests"] and name in new["digests"]
                lines = moved_values(shown(old, name), shown(new, name)) if both else []
                if not lines:
                    # a file only one tree wrote, or that differs in bytes only
                    before, after = (side["digests"].get(name, "absent")[:12] for side in (old, new))
                    lines = [f"sha256 {before} -> {after}"]
                for line in lines:
                    print(f"    {name} {line}")
    print(f"{differences} of {len(INVOCATIONS)} invocations differ from {args.parent}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
