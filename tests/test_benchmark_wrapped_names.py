"""The benchmark's traced mode wraps codec and store functions by name.

``perfbench/layers.py`` looks each ``(owner, attribute)`` up with
``getattr`` when a run starts, so a rename in the program would only
surface there.  A refactor that stops *calling* a wrapped name would be
quieter still: its layer would read 0 ms (or the dedup ratio 1.0) and no
run would fail.  These tests import the module, resolve every name, and
check that a store put and a get still reach the names each layer is
measured by.
"""

import collections
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        yield importlib.import_module("layers")
    finally:
        # The benchmark's flat module names (inputs, loadgen, ...) must
        # not shadow anything for the rest of the session.
        for name in set(sys.modules) - before:
            module = sys.modules[name]
            if str(PERFBENCH) in str(getattr(module, "__file__", "")):
                del sys.modules[name]


def test_every_wrapped_name_resolves(layers):
    for owner, attr, _span in layers.CALLS:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    for owner, attr, _span in layers.ASYNC_CALLS:
        assert inspect.iscoroutinefunction(getattr(owner, attr, None)), \
            (owner, attr)


def test_a_put_and_a_get_reach_the_wrapped_names(layers, monkeypatch,
                                                  small_jpeg):
    calls = collections.Counter()

    def counting(fn, span):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, span in layers.CALLS:
        monkeypatch.setattr(owner, attr, counting(getattr(owner, attr), span))

    store = layers.blockstore.BlockStore()
    store.put_file("photo.jpg", small_jpeg)
    for span in ("core.compress", "jpeg.parse", "jpeg.huffman_decode",
                 "core.arith_encode", "core.container_write",
                 "core.decompress_chunk"):
        assert calls[span] >= 1, f"a put no longer reaches {span}"

    calls.clear()
    assert store.get_file("photo.jpg") == small_jpeg
    for span in ("storage.get_chunk", "core.decompress_chunk",
                 "core.arith_decode", "jpeg.huffman_encode"):
        assert calls[span] >= 1, f"a get no longer reaches {span}"
