"""D6 fixture: the codec is driven through the one encode pipeline and the
decode session."""

from repro.core.lepton import compress
from repro.core.session import DecodeSession


def compress_by_pipeline(data):
    return compress(data).payload


def decompress_by_session(payload):
    session = DecodeSession()
    pieces = list(session.write(payload))
    pieces.extend(session.finish())
    return b"".join(pieces)
