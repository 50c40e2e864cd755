"""Guards for the benchmark's tooling: the traced run wraps library functions
by module and name, so a rename under ``src/`` must fail here, not only in
``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.TARGETS and not missing, missing


def test_counted_grid_classes_resolve():
    # the traced run also counts grid bounds built by patching the
    # ``__init__`` of each ``bounding`` class it names
    import re

    from infocalc import bounding

    names = set(re.findall(r"\bbounding\.([A-Z]\w*)", TRACING.read_text()))
    assert names >= {"GridBound", "GridLowerBound"}, names
    assert all(isinstance(getattr(bounding, name, None), type) for name in names), names
