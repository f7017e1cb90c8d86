"""Streamed decode parity: the streaming decoder and ``decompress_bytes``
verify and decode chunks through the same guarded chunk decoder, so a
corrupt chunk raises the same exception type and message on both paths.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core import container as fmt
from repro.core.codecs import get_codec
from repro.core.compressor import compress_bytes, decompress_bytes
from repro.core.incremental import StreamingDecompressor
from repro.errors import ChecksumError, ReproError

#: A frame-sized feed, smaller than one chunk payload.
PIECE = 4096


def _stream_decode(blob: bytes) -> bytes:
    dec = StreamingDecompressor(total_len=len(blob))
    chunks = []
    for pos in range(0, len(blob), PIECE):
        chunks += dec.feed(blob[pos : pos + PIECE])
    dec.finish()
    return b"".join(data for _, data in chunks)


@pytest.fixture
def v3_container(rng) -> tuple[bytes, bytes]:
    data = np.cumsum(rng.normal(scale=0.01, size=9_000)).tobytes()
    blob = compress_bytes(data, get_codec("dpratio"), fcm="restart")
    info = fmt.inspect_container(blob)
    assert info.version == 3 and info.fcm_restart
    assert info.chunk_crcs is not None and info.n_chunks >= 4
    return data, blob


def _corrupt(blob: bytes, k: int, where: str) -> bytes:
    """Flip one byte of chunk ``k``: its stored CRC or its payload."""
    info = fmt.inspect_container(blob)
    n = info.n_chunks
    if where == "crc":
        # No chunk index or codec table here: the CRC table ends where
        # the payloads begin.
        offset = info.payload_offset - 4 * n + 4 * k
        assert struct.unpack_from("<I", blob, offset)[0] == info.chunk_crcs[k]
    else:
        offset = info.payload_offset + sum(info.chunk_sizes[:k]) + 3
    buf = bytearray(blob)
    buf[offset] ^= 0x5A
    return bytes(buf)


def _error_of(decode) -> tuple[type, str]:
    with pytest.raises(ReproError) as excinfo:
        decode()
    return type(excinfo.value), str(excinfo.value)


def test_intact_stream_roundtrips(v3_container):
    data, blob = v3_container
    assert _stream_decode(blob) == data


@pytest.mark.parametrize("where", ["crc", "payload"])
def test_corrupt_chunk_raises_the_engine_error(v3_container, where):
    _, blob = v3_container
    k = 2
    bad = _corrupt(blob, k, where)
    streamed = _error_of(lambda: _stream_decode(bad))
    assert streamed == _error_of(lambda: decompress_bytes(bad))
    assert streamed[0] is ChecksumError
    assert streamed[1].startswith(f"chunk {k} (container bytes ")
