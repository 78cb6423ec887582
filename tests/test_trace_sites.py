"""The benchmark's per-layer tracing finds every name it wraps.

perfbench/tracer.py wraps package functions at the module that calls
them (``from .x import y`` bindings). A call moved to another module, or
a renamed function, silently drops that layer's metrics; this test turns
such a move into a failure.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_span_has_a_call_site():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Installed(tracer.Tracer()).absent == []
