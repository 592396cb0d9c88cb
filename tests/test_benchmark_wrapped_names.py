"""The benchmark's traced mode wraps codec and store functions by name.

``perfbench/layers.py`` looks each ``(owner, attribute)`` up with
``getattr`` when a run starts, so a rename in the program would only
surface there.  This imports the module and resolves every name.
"""

import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        layers = importlib.import_module("layers")
        for owner, attr, _span in layers.CALLS:
            assert callable(getattr(owner, attr, None)), (owner, attr)
        for owner, attr, _span in layers.ASYNC_CALLS:
            assert inspect.iscoroutinefunction(getattr(owner, attr, None)), \
                (owner, attr)
    finally:
        # The benchmark's flat module names (inputs, loadgen, ...) must
        # not shadow anything for the rest of the session.
        for name in set(sys.modules) - before:
            module = sys.modules[name]
            if str(PERFBENCH) in str(getattr(module, "__file__", "")):
                del sys.modules[name]
