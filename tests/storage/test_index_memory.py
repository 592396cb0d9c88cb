"""The chunk index holds metadata, never payloads.

Every read fetches its payload from the backend, so the RAM a recovered
store keeps does not grow with the bytes it stores: memory is bounded by
configuration, not by how much data the store holds.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.storage.blockstore import open_durable_store

pytestmark = pytest.mark.durability

CHUNK = 256 * 1024


def test_recovered_store_keeps_chunk_payloads_out_of_ram(tmp_path):
    # Random bytes do not compress: 2 MiB of input is ~2 MiB of Deflate
    # chunk payload on disk.
    data = np.random.default_rng(7).bytes(2 * 1024 * 1024)
    store = open_durable_store(str(tmp_path), chunk_size=CHUNK)
    store.put_file("noise.bin", data)
    payload = store.stored_bytes
    assert payload >= len(data)
    store.journal.close()
    del store
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recovered = open_durable_store(str(tmp_path), chunk_size=CHUNK)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert recovered.stored_bytes == payload
    assert retained < payload // 10, (retained, payload)
    assert recovered.get_file("noise.bin") == data
    recovered.journal.close()
