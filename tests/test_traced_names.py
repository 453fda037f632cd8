"""Every name the benchmark's tracer wraps still exists where it looks.

``benchmarks/tracing.py`` replaces names in the package's module namespaces
from outside (``cli.run_batch``, ``pipeline.propagate``, ...), so renaming
or deleting one breaks every traced benchmark run. This checks them here,
with the tracer's own list.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for boundary in tracing.BOUNDARIES:
        where = f"{boundary.module.__name__}.{boundary.name}"
        target = getattr(boundary.module, boundary.name, None)
        assert callable(target), where
        for method in boundary.methods:
            assert callable(getattr(target, method, None)), f"{where}.{method}"
    # installing and removing every boundary puts the originals back
    originals = [getattr(b.module, b.name) for b in tracing.BOUNDARIES]
    with tracing.Tracer(0):
        pass
    assert [getattr(b.module, b.name) for b in tracing.BOUNDARIES] == originals
