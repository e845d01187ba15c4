"""Benchmark of the funcoord command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify_default --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --smoke             # each workload once, tiny sizes

``--trace 0`` runs the workload's ``funcoord`` invocations as real
processes, one at a time from this one process (a closed loop with one
client: the next invocation starts only after the previous one exited). It
reports the end-to-end metrics:

* ``setup_s``: median wall time of a fresh interpreter that imports
  ``funcoord.cli`` and exits, which every invocation pays;
* ``wall_s``: median wall time of one pass, the workload's invocations run
  back to back, failed ones timed like the others;
* ``peak_rss_mb``: median over passes of the largest child max-RSS;
* ``fail_ratio`` (printed, and ``failed / attempted`` in the result line):
  invocations that exit nonzero or fail the output check, over those
  attempted. It is 0 on healthy workloads, so it is not a bounded metric.

``--trace 1`` runs the same invocations in this process through
``funcoord.cli.main`` with the layers wrapped by :mod:`tracer`, alternating
with untraced passes to measure the tracing overhead, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``correct`` is false
when an invocation exited 0 but its output failed the oracle; an
invocation that exits nonzero is counted in ``failed`` only. Everything
the benchmark writes stays under ``.bench_work/`` in the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS, Invocation, Result, tree_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: the installed ``funcoord`` console script, spelled out for a source tree
CLI = [sys.executable, "-c", "import sys; from funcoord.cli import main; sys.exit(main())"]
SETUP = [sys.executable, "-c", "import funcoord.cli"]

MIN_PASSES = 3
#: no new pass starts after this many seconds, whatever ``--seconds`` says,
#: and a child is killed after CHILD_TIMEOUT_S, so a run ends within 180 s
HARD_LIMIT_S = 90.0
CHILD_TIMEOUT_S = 40

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

Metrics = Dict[str, Tuple[float, str]]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def limit_threads() -> dict:
    """Cap the BLAS and OpenMP thread counts of this process and its
    children at ``nproc``; return the values as read and as used."""
    nproc = len(os.sched_getaffinity(0))
    read = {var: os.environ.get(var) for var in THREAD_VARS}
    for var, value in read.items():
        try:
            wanted = int(value) if value else nproc
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return {"nproc": nproc, "threads_read": read, "threads_used": {v: os.environ[v] for v in THREAD_VARS}}


def _git_commit() -> Optional[str]:
    """HEAD commit read from ``.git`` without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "funcoord_commit": _git_commit(),
        "funcoord_source_sha256": tree_digest(SRC / "funcoord", "*.py"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        **threads,
    }


# ---------------------------------------------------------------------------
# one measured run
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # exited 0 with output that fails the oracle
    reasons: Dict[str, int] = field(default_factory=dict)

    def add(self, reason: Optional[str], exit_code: Optional[int]) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.wrong += exit_code == 0
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


@dataclass
class Measurement:
    workload: str
    work: Path
    metrics: Metrics
    tally: Tally
    lines: List[str]
    samples: dict


def _workdir(name: str, seed: int, trace: int) -> Path:
    work = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    return work


def _more(done: int, start: float, seconds: float, smoke: bool) -> bool:
    if done == 0:
        return True
    if smoke:
        return False
    elapsed = perf_counter() - start
    return elapsed < HARD_LIMIT_S and (elapsed < seconds or done < MIN_PASSES)


def _describe(values: List[float], unit: str, what: str) -> str:
    spread = ""
    if len(values) > 1:
        q1, _, q3 = quantiles(values, n=4)
        spread = f", quartiles {q1:.4f}-{q3:.4f}"
    return f"{median(values):.4f} {unit} (median of {len(values)} {what}{spread})"


def _last_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1].strip()[:160] if lines else ""


@dataclass
class Child:
    exit_code: int
    seconds: float
    maxrss_kib: int
    stdout: str
    stderr: str


def _spawn(cmd: List[str], env: dict, work: Path) -> Child:
    """Run one child process to its end, timed, with its max RSS."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        status = None
        try:
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(CHILD_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
        finally:
            signal.alarm(0)
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        seconds,
        usage.ru_maxrss,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def _check(tally: Tally, inv: Invocation, exit_code: Optional[int], stdout: str, stderr: str) -> None:
    reason = inv.check(Result(exit_code, stdout, inv.out))
    if reason is not None and exit_code != 0 and _last_line(stderr):
        reason = f"{reason}: {_last_line(stderr)}"
    tally.add(reason, exit_code)


def measure(name: str, seed: int, seconds: float, smoke: bool) -> Measurement:
    """End-to-end metrics from real ``funcoord`` processes."""
    work = _workdir(name, seed, 0)
    invocations = WORKLOADS[name](seed, work, smoke)
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    _spawn(SETUP, env, work)  # untimed: byte-compiles and fills the page cache

    tally, setups, walls, peaks = Tally(), [], [], []
    start = perf_counter()
    while _more(len(walls), start, seconds, smoke):
        # one import before each pass, so that set-up and passes are sampled
        # over the same stretch of the host's varying speed
        setups.append(_spawn(SETUP, env, work).seconds)
        shutil.rmtree(work / "out", ignore_errors=True)
        children = []
        for inv in invocations:
            children.append(_spawn(CLI + inv.argv, env, work))
            _check(tally, inv, children[-1].exit_code, children[-1].stdout, children[-1].stderr)
        walls.append(sum(c.seconds for c in children))
        peaks.append(max(c.maxrss_kib for c in children) / 1024.0)
    shutil.rmtree(work / "out", ignore_errors=True)

    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (median(peaks), "MiB"),
    }
    lines = [
        f"[{name}] seed {seed}: closed loop, 1 client, {len(walls)} passes of "
        f"{len(invocations)} invocation(s), each a fresh process",
        f"  setup_s      {_describe(setups, 's', 'imports')}",
        f"  wall_s       {_describe(walls, 's', 'passes')}",
        f"  fail_ratio   {tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted} invocations)",
        f"  peak_rss_mb  {_describe(peaks, 'MiB', 'passes')}",
    ]
    samples = {"setup_s": setups, "wall_s": walls, "peak_rss_mb": peaks}
    return Measurement(name, work, metrics, tally, lines, samples)


def _main_in_process(cli, argv: List[str]) -> Optional[int]:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported as a failed invocation, with its traceback
        traceback.print_exc()
        return None


def _in_process_pass(cli, invocations: List[Invocation], work: Path, tally: Tally, tracer=None) -> float:
    shutil.rmtree(work / "out", ignore_errors=True)
    wall = 0.0
    for inv in invocations:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.invocation += 1
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _main_in_process(cli, inv.argv)
        wall += perf_counter() - start
        _check(tally, inv, code, out.getvalue(), err.getvalue())
    return wall


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def measure_traced(name: str, seed: int, seconds: float, smoke: bool) -> Measurement:
    """Per-layer metrics from in-process passes with the layers wrapped."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import funcoord.cli as cli
    from tracer import Tracer, layer_metrics

    work = _workdir(name, seed, 1)
    invocations = WORKLOADS[name](seed, work, smoke)
    tracer, tally = Tracer(), Tally()
    untraced, traced, passes = [], [], []
    written = 0
    start = perf_counter()
    while _more(len(traced), start, seconds, smoke):
        untraced.append(_in_process_pass(cli, invocations, work, tally))
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(_in_process_pass(cli, invocations, work, tally, tracer))
        finally:
            tracer.uninstall()
        passes.append(tracer.spans[first:])
        if len(passes) == 1:
            written = _tree_bytes(work / "out")
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "spans.json").write_text(json.dumps(tracer.records()), encoding="utf-8")

    # the first untraced pass also pays one-time lazy set-up
    base = untraced[1:] or untraced
    overhead = median(traced) / median(base) - 1.0
    metrics = layer_metrics(passes, written)
    lines = [
        f"[{name}] seed {seed}: traced in process, {len(traced)} traced and "
        f"{len(untraced)} untraced passes; {len(tracer.spans)} spans in {work / 'spans.json'}",
        f"  tracing overhead {overhead:+.1%} (pass {median(traced):.4f} s traced, "
        f"{median(base):.4f} s untraced)",
    ]
    width = max(len(k) for k in metrics)
    lines += [f"  {k:<{width}}  {v:.6g} {unit}" for k, (v, unit) in metrics.items()]
    samples = {"traced_pass_s": traced, "untraced_pass_s": untraced, "overhead": overhead}
    return Measurement(name, work, metrics, tally, lines, samples)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def result_line(measurements: List[Measurement], prefixed: bool) -> str:
    metrics = {}
    for m in measurements:
        for key, (value, unit) in m.metrics.items():
            metrics[f"{m.workload}.{key}" if prefixed else key] = {"value": value, "unit": unit}
    doc = {
        "correct": all(m.tally.wrong == 0 for m in measurements),
        "attempted": sum(m.tally.attempted for m in measurements),
        "failed": sum(m.tally.failed for m in measurements),
        "metrics": metrics,
    }
    return json.dumps(doc)


def _verdict(m: Measurement) -> str:
    if not m.tally.reasons:
        return "  output check: all outputs correct"
    parts = [f"{count}x {reason}" for reason, count in m.tally.reasons.items()]
    kind = "WRONG OUTPUT" if m.tally.wrong else "failures"
    return f"  output check: {kind}: " + "; ".join(parts)


def _save(m: Measurement, args, env: dict) -> None:
    doc = {
        "workload": m.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.metrics.items()},
        "samples": m.samples,
        "attempted": m.tally.attempted,
        "failed": m.tally.failed,
        "wrong": m.tally.wrong,
        "failures": m.tally.reasons,
        "env": env,
    }
    (m.work / "result.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def smoke(env: dict) -> int:
    """Run every workload once at a tiny size, untraced and traced twice;
    check that every metric named in BENCHMARK.json is printed with its
    unit and that traced counts repeat exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for kind, run, traced in (("end_to_end", measure, False), ("per_layer", measure_traced, True)):
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        for name in WORKLOADS:
            runs = [run(name, 7, 0, True) for _ in range(2 if traced else 1)]
            for m in runs:
                print("\n".join(m.lines + [_verdict(m)]))
            line = result_line(runs[:1], prefixed=False)
            print(line)
            printed = {k: v["unit"] for k, v in json.loads(line)["metrics"].items()}
            if printed != wanted:
                problems.append(f"{name} {kind}: printed {printed}, BENCHMARK.json names {wanted}")
            if traced:
                counts = [{k: v for k, (v, unit) in m.metrics.items() if unit != "s"} for m in runs]
                if counts[0] != counts[1]:
                    problems.append(f"{name}: traced counts differ between two runs")
    print(json.dumps({"env": env}))
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="each workload once at a tiny size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "funcoord" / "cli.py").is_file():
        print(f"error: no funcoord source tree at {SRC}", file=sys.stderr)
        return 2

    env = fingerprint(limit_threads())
    if args.smoke:
        return smoke(env)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = measure_traced if args.trace else measure
    measurements = []
    for name in names:
        m = run(name, args.seed, args.seconds, smoke=False)
        _save(m, args, env)
        print("\n".join(m.lines + [_verdict(m)]), flush=True)
        measurements.append(m)
    if len(measurements) > 1 and not args.trace:
        print(f"{'workload':<16} {'setup_s':>9} {'wall_s':>9} {'fail_ratio':>10} {'peak_rss_mb':>11}  check")
        for m in measurements:
            t = m.tally
            print(
                f"{m.workload:<16} {m.metrics['setup_s'][0]:>9.4f} {m.metrics['wall_s'][0]:>9.4f} "
                f"{t.failed / t.attempted:>10.4f} {m.metrics['peak_rss_mb'][0]:>11.2f}  "
                f"{'wrong output' if t.wrong else 'ok' if not t.failed else 'failures'}"
            )
    print(json.dumps({"env": env}))
    print(result_line(measurements, prefixed=len(measurements) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
