"""The benchmark's traced mode with the codec on worker processes.

``perfbench/layers.py`` wraps codec and store functions by name in the
server process while a window is open.  A pooled store sends its jobs to
the workers by name with raw bytes, so the wrapped closures never travel:
a put and a get run while a window is open, the store layer still shows
in the window's spans, and the codec layer, which ran in the workers,
does not.
"""

from repro.storage.blockstore import BlockStore
from repro.storage.workers import shared_pool

from tests.test_benchmark_wrapped_names import layers  # noqa: F401 (fixture)


def test_a_pooled_put_and_get_run_inside_a_traced_window(layers,  # noqa: F811
                                                          small_jpeg):
    tracer = layers.Tracer()
    store = BlockStore(chunk_size=1024, codec=shared_pool())
    tracer.begin("load")
    try:
        store.put_file("photo.jpg", small_jpeg)
        got = b"".join(store.stream_range("photo.jpg", 0, len(small_jpeg)))
    finally:
        tracer.end()
    names = {span[layers.NAME] for span in tracer.spans}
    assert got == small_jpeg
    assert {"storage.put_file", "storage.get_chunk"} <= names
    assert not {name for name in names if name.startswith(("core.", "jpeg."))}
