"""The benchmark's trace table names ``pcar`` functions and methods by
string. A deletion or rename that leaves one of them dangling would make
``perfbench/run.py --trace 1`` fail with a ``KeyError``; this test fails
first. It reads ``perfbench/layers.py`` and does not change it."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).parents[1] / "perfbench" / "layers.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layers  # dataclasses look their module up here
    spec.loader.exec_module(layers)
    return layers.TARGETS


def test_every_trace_target_resolves():
    targets = _trace_targets()
    assert targets
    missing = []
    for t in targets:
        module_name, _, class_name = t.owner.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            # the tracer wraps the class's own attribute, not an inherited one
            found = class_name in vars(owner) and t.attr in vars(getattr(owner, class_name))
        else:
            found = hasattr(owner, t.attr)
        if not found:
            missing.append(t.name)
    assert missing == []
