"""The mutation sweep (tools/mutants.py) applies each patch only where its
old text occurs exactly once in its file; a refactor that rewrites a patched
line must update the patch with it."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_patch_occurs_once_in_its_source_file(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # mutants imports compare_outputs
    mutants = importlib.import_module("mutants")
    counts = {
        (name, file, old): (ROOT / "src" / "funcoord" / file).read_text(encoding="utf-8").count(old)
        for name, patches in mutants.MUTANTS.items()
        for file, old, _ in patches
    }
    assert counts and {key: count for key, count in counts.items() if count != 1} == {}
