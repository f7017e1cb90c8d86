"""Two's-complement <-> magnitude-sign ("zigzag") representation change.

The paper's DIFFMS stage stores integer differences in magnitude-sign
format so that both small positive values (many leading ``0`` bits) and
small negative values (many leading ``1`` bits) become values with only
leading zeros.  The forward map is::

    ms = (d << 1) ^ (d >>_signed (w - 1))

where the right shift is an arithmetic shift that replicates the sign
bit, i.e. the sign ends up in the least-significant bit position.  The
map is a bijection on w-bit words; the inverse is::

    d = (ms >> 1) ^ -(ms & 1)

Both directions are implemented purely with unsigned arithmetic (modulo
2^w), which is what the reference CPU/GPU codes do as well.
"""

from __future__ import annotations

import numpy as np

_UNSIGNED_FOR_BITS = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}
_SIGNED_FOR_BITS = {8: np.int8, 16: np.int16, 32: np.int32, 64: np.int64}


def _check_words(words: np.ndarray, word_bits: int) -> np.dtype:
    if word_bits not in _UNSIGNED_FOR_BITS:
        raise ValueError(f"unsupported word size: {word_bits} bits")
    expected = np.dtype(_UNSIGNED_FOR_BITS[word_bits])
    if words.dtype != expected:
        raise ValueError(f"expected dtype {expected}, got {words.dtype}")
    return expected


def zigzag_encode(words: np.ndarray, word_bits: int) -> np.ndarray:
    """Map unsigned words holding two's-complement values to magnitude-sign.

    Values near zero (in the signed sense) map to small unsigned values:
    0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...
    """
    _check_words(words, word_bits)
    signed = words.view(_SIGNED_FOR_BITS[word_bits])
    out = (signed >> (word_bits - 1)).view(words.dtype)
    out ^= words << words.dtype.type(1)
    return out


def zigzag_decode(words: np.ndarray, word_bits: int) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    _check_words(words, word_bits)
    one = words.dtype.type(1)
    # -(ms & 1) as an unsigned all-ones/all-zeros mask, built in place
    # (large batches pay page faults for every fresh temporary).
    out = words & one
    np.negative(out, out=out)
    out ^= words >> one
    return out
