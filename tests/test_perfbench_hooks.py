"""The benchmark's tracer still finds a function to hook for every per-layer
metric.

``perfbench/tracer.py`` hooks emnav functions by name and reports a metric
whose every hook target is gone as null.  Renaming or deleting one of those
functions fails here in milliseconds, rather than in the benchmark's own
self-test after a full traced run of every workload.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_has_a_live_hook():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        metrics = tracer_module.layer_metrics([], tracer.hooked, {})
    finally:
        tracer.uninstall()
    assert [name for name, value in metrics.items() if value is None] == []
