"""The benchmark's command lines (perfbench/workloads.py) must stay
accepted by the CLI: every invocation of every workload parses and passes
config validation."""

import importlib.util
import sys
from pathlib import Path

import pytest

from funcoord.cli import _build_parser, _resolve_config


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("funcoord_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("smoke", [True, False])
@pytest.mark.parametrize("name", ["verify_default", "verify_n512", "transform_n2048"])
def test_every_benchmark_invocation_passes_config_validation(tmp_path, name, smoke):
    invocations = load_workloads().WORKLOADS[name](7, tmp_path, smoke)
    assert invocations
    for invocation in invocations:
        _resolve_config(_build_parser().parse_args(invocation.argv))
