"""The benchmark's external tracer (perfbench/tracer.py) rebinds funcoord
functions by name; every name it lists must exist, and uninstalling must
restore the original bindings."""

import importlib.util
import sys
from pathlib import Path

import funcoord.cli  # noqa: F401  (loads every funcoord module)


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("funcoord_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every attribute of every funcoord module and of the classes they
    define, as ``{(owner name, attribute): object}``."""
    out = {}
    for name, module in sys.modules.items():
        if name == "funcoord" or name.startswith("funcoord."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for member, raw in vars(value).items():
                        out[(f"{name}.{attr}", member)] = raw
    return out


def resolve(dotted):
    module_name, *path = dotted.split(".")
    obj = sys.modules[f"funcoord.{module_name}"]
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_tracer_wraps_every_traced_name_and_restores_bindings():
    tracer_module = load_tracer()
    before = bindings()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        unwrapped = [n for n in tracer_module.TRACED if not hasattr(resolve(n), "__wrapped__")]
        assert not unwrapped
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
