"""Every function the benchmark tracer wraps must exist in guekit.

perfbench/tracer.py fails a traced job when a name in its SPAN_GROUPS is
missing; checking the names here turns such a deletion or rename into a
test failure instead of a failed benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _span_groups():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPAN_GROUPS


def test_every_traced_function_exists():
    missing = [
        f"{module_name}.{func}"
        for module_name, table in _span_groups().items()
        for func in table
        if not callable(getattr(importlib.import_module(module_name), func, None))
    ]
    assert missing == []
