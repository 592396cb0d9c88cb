"""Property tests on the chunking of the content-addressing layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import split_chunks


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=4096), st.integers(1, 600))
def test_split_partitions_exactly(data, chunk_size):
    chunks = split_chunks(data, chunk_size)
    assert b"".join(chunks) == data
    assert all(len(c) <= chunk_size for c in chunks)
    assert all(len(c) == chunk_size for c in chunks[:-1])
