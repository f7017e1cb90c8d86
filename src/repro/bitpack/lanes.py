"""Word-lane kernels for fixed-width MSB-first bit packing.

These kernels produce/consume the exact byte stream of the historical
``np.unpackbits``/``np.packbits`` bit-matrix implementation (MSB-first,
zero-padded final byte) while touching O(n·width/64) machine words
instead of O(n·width) bytes.  They are the hot path of MPLG, RZE, RAZE
and RARE; golden-format tests pin the layout, so any change here must
stay byte-identical.

Layouts and strategy
--------------------
``width % 8 == 0``
    The stream is the big-endian bytes of each value: a reshape + column
    slice, no bit arithmetic at all.
``width < 8``
    Pairs of values are merged (``(a << w) | b``) until the merged width
    is a multiple of 8, then the byte path serialises the merged values.
``9 <= width <= 49`` (non-aligned)
    *Chained-value lanes*: each value is top-aligned in a ``uint64`` lane
    and OR-chained with its successors (log2 rounds of doubling) until
    every lane holds at least ``width - 1 + win`` leading stream bits.
    Every ``win``-bit output window then comes from a single gather and
    a single left shift — the window is the top ``win`` bits of
    ``chain[v0] << r0``.
``50 <= width <= 63``
    Windows of 32 bits overlap at most two values (``win <= width``), so
    two gathers, two single shifts, and an OR build each window.

Unpacking mirrors this with *window tables*: ``W[j]`` holds the 64 (or
32) stream bits starting at 32-bit (or 16-bit) lane boundary ``j``,
built in a single strided big-endian ``astype`` over the padded stream.
Whenever ``off_max + width <= window_bits`` every value is one gather
plus two shifts; that covers all of ``word_bits == 32`` (a 31-bit value
at a 32-bit boundary spans at most 62 bits) and ``width <= 33`` for
64-bit words.  Only 64-bit words at ``width >= 34`` need a second
gather for the spill lane — and its shift is made single and defined by
pointing non-spilling values at the zero pad lane.

Index/shift plans do not grow with the stream.  Each plan is built once
per width (and window grain) for one *segment* of :data:`SEGMENT`
values and marked read-only, so the kernels are thread-safe.  A call on
``n <= SEGMENT`` values uses the plan's first entries; a longer stream
is gathered one segment at a time with the same plan, shifted by the
segment's base.  That is exact because every plan is periodic with a
power-of-two period of at most 64 values (the point where value and
window boundaries realign), which divides the segment: every segment
starts on a whole window.  Cached bytes are bounded by the number of
widths times one segment, whatever the counts seen.  Offset computations
use float64 division, which is exact for the operand ranges involved
(total bit counts far below 2**52).
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np

_U16 = np.uint16
_U32 = np.uint32
_U64 = np.uint64

_LITTLE = sys.byteorder == "little"

#: Pre-built dtypes, keyed by itemsize (dtype construction costs ~0.3us
#: per call — real money for 16 KiB chunks).
_BE = {k: np.dtype(f">u{k}") for k in (1, 2, 4, 8)}
_NATIVE = {32: np.dtype("u4"), 64: np.dtype("u8")}

#: Values per plan segment: a power of two, and a multiple of every
#: plan's period (at most 64 values).  Plans hold one segment, so the
#: caches below hold at most a few MiB with every width built
#: (``tests/bitpack/test_lanes_cache.py`` pins the bound).
SEGMENT = 4096


def _freeze(arrays: tuple) -> tuple:
    """Mark cached plan arrays read-only (plans are shared across threads)."""
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return arrays


def _chain_rounds(width: int, win: int) -> int:
    """Doubling rounds so a lane covers ``width - 1 + win`` stream bits."""
    rounds = 0
    covered = width
    while min(covered, 64) < width - 1 + win:
        covered *= 2
        rounds += 1
    return rounds


def _window_plan(width: int, win: int) -> tuple[np.ndarray, np.ndarray]:
    """Origin value ``v0`` and in-value bit offset ``r0`` of each ``win``-bit
    window of one segment."""
    bit0 = np.arange(SEGMENT * width // win, dtype=np.float64) * float(win)
    v0f = np.floor_divide(bit0, float(width))
    return v0f.astype(np.intp), (bit0 - v0f * float(width)).astype(_U64)


@lru_cache(maxsize=None)
def _single_gather_pack_plan(width: int, win: int):
    """``(v0, r0)`` per window: the window is the top bits of ``chain[v0] << r0``."""
    return _freeze(_window_plan(width, win))


@lru_cache(maxsize=None)
def _pair_pack_plan(width: int):
    """``(v0, r0, q)`` for 32-bit windows with ``width >= 32``: the window
    is ``(tv[v0] << r0) | (tv[v0 + 1] >> q)`` over top-aligned values."""
    v0, r0 = _window_plan(width, 32)
    return _freeze((v0, r0, _U64(width) - r0))


@lru_cache(maxsize=None)
def _boundary_unpack_plan(width: int, grain: int, idx_dtype: str):
    """Window index and in-window offset per value at ``grain``-bit boundaries."""
    bitpos = np.arange(SEGMENT, dtype=_U64) * _U64(width)
    q0 = (bitpos // _U64(grain)).astype(np.intp)
    off = (bitpos % _U64(grain)).astype(np.dtype(idx_dtype))
    return _freeze((q0, off))


@lru_cache(maxsize=None)
def _two_lane_unpack_plan(width: int):
    """Two-gather plan over 64-bit lanes (widths 34..63 of 64-bit words).

    Values that do not spill past their base lane aim their spill gather
    at index ``-1``: the zero pad lane that ends every lane table (and
    every segment view of it), so the spill shift is a single
    always-defined right shift (< 64) instead of a split pair.
    """
    bitpos = np.arange(SEGMENT, dtype=_U64) * _U64(width)
    l0 = (bitpos // _U64(64)).astype(np.intp)
    off = (bitpos % _U64(64)).astype(_U64)
    spills = off > _U64(64 - width)
    l1 = np.where(spills, l0 + 1, -1)
    ts = np.where(spills, _U64(128 - width) - off, _U64(0))
    return _freeze((l0, l1, off, ts))


def _gather_shift(table, index, shifts, n_out: int, table_step: int, shift):
    """``shift(table[index], shifts)`` for ``n_out`` outputs, by segment.

    ``index``/``shifts`` hold one segment's plan; segment ``s`` gathers
    from ``table[s * table_step:]`` into outputs ``[s * seg, (s+1) * seg)``
    (``seg = len(index)``), and the last one uses a prefix of the plan.
    A negative index counts from the end of the whole table.
    """
    seg = len(index)
    if n_out <= seg:
        out = table[index[:n_out]]
        shift(out, shifts[:n_out], out=out)
        return out
    out = np.empty(n_out, dtype=table.dtype)
    for s, lo in enumerate(range(0, n_out, seg)):
        part = out[lo : lo + seg]
        k = len(part)
        table[s * table_step :].take(index[:k], out=part, mode="wrap")
        shift(part, shifts[:k], out=part)
    return out


def _extract_top(acc: np.ndarray, win: int, nbytes: int) -> bytes:
    """Serialise the top ``win`` bits of each u64 lane, MSB-first."""
    if win == 32:
        if _LITTLE:
            out = acc.view(_U32)[1::2].byteswap()
        else:
            out = acc.view(_U32)[0::2]
    else:
        if _LITTLE:
            out = acc.view(_U16)[3::4].byteswap()
        else:
            out = acc.view(_U16)[0::4]
    return out.tobytes()[:nbytes]


def _pack_aligned(words: np.ndarray, width: int, word_bits: int) -> bytes:
    wbytes = width // 8
    if wbytes in (1, 2, 4, 8):
        # The stream is each value's low wbytes, big-endian: a single
        # truncating (and byteswapping) astype.
        return words.astype(_BE[wbytes]).tobytes()
    word_bytes = word_bits // 8
    be = words.astype(words.dtype.newbyteorder(">"), copy=False)
    return be.view(np.uint8).reshape(len(words), word_bytes)[:, word_bytes - wbytes :].tobytes()


def _pack_sub_byte(words: np.ndarray, width: int, nbytes: int) -> bytes:
    """width < 8: merge value pairs until the merged width is byte-aligned."""
    vals = words.astype(_U64) & _U64((1 << width) - 1)
    w = width
    while w % 8:
        if len(vals) & 1:
            vals = np.append(vals, _U64(0))
        vals = (vals[0::2] << _U64(w)) | vals[1::2]
        w *= 2
    be = vals.astype(">u8").view(np.uint8).reshape(len(vals), 8)
    return be[:, 8 - w // 8 :].tobytes()[:nbytes]


def pack_lanes(words: np.ndarray, width: int, word_bits: int) -> bytes:
    """Pack the low ``width`` bits of each word, MSB-first, zero-padded.

    Bits above ``width`` are discarded.  Byte-identical to the reference
    bit-matrix implementation for every ``(width, word_bits, len)``.
    """
    n = len(words)
    if n == 0 or width == 0:
        return b""
    nbytes = (n * width + 7) // 8
    if width % 8 == 0:
        return _pack_aligned(words, width, word_bits)
    if width < 8:
        return _pack_sub_byte(words, width, nbytes)
    if width <= 49:
        win = 32 if width <= 33 else 16
        rounds = _chain_rounds(width, win)
        pad = (1 << rounds) - 1
        chain = np.empty(n + pad, dtype=_U64)
        chain[:n] = words
        np.left_shift(chain[:n], _U64(64 - width), out=chain[:n])
        chain[n:] = 0
        step, span = 1, width
        for _ in range(rounds):
            tail = chain[step:] >> _U64(span)
            np.bitwise_or(tail, chain[: len(tail)], out=tail)
            chain = tail
            step <<= 1
            span <<= 1
        v0, r0 = _single_gather_pack_plan(width, win)
        acc = _gather_shift(chain, v0, r0, -(-(n * width) // win), SEGMENT,
                            np.left_shift)
        return _extract_top(acc, win, nbytes)
    # 50..63: 32-bit windows overlap at most two values.
    v0, r0, q = _pair_pack_plan(width)
    n_win = -(-(n * width) // 32)
    tvp = np.empty(n + 1, dtype=_U64)
    tvp[:n] = words
    np.left_shift(tvp[:n], _U64(64 - width), out=tvp[:n])
    tvp[n] = 0
    acc = _gather_shift(tvp, v0, r0, n_win, SEGMENT, np.left_shift)
    spill = _gather_shift(tvp[1:], v0, q, n_win, SEGMENT, np.right_shift)
    np.bitwise_or(acc, spill, out=acc)
    return _extract_top(acc, 32, nbytes)


#: Zero padding shared by every window table (read-only, never resized).
_PAD = np.zeros(32, dtype=np.uint8)
_PAD.flags.writeable = False


def _window_table(raw: np.ndarray, need: int, stride: int, dtype, extra: int = 0) -> np.ndarray:
    """``dtype``-sized big-endian stream windows every ``stride`` bytes.

    ``W[j]`` is the stream's bytes ``[j*stride, j*stride + itemsize)``
    interpreted big-endian; bytes past ``need`` read as zero.  Built as
    one strided byteswapping ``astype`` over the zero-padded stream.
    ``extra`` appends that many additional trailing (zero) windows.
    """
    win_bytes = dtype().itemsize
    m = -(-need // stride) + extra
    total = (m - 1) * stride + win_bytes
    buf = np.concatenate((raw[:need], _PAD[: total - need]))
    be = np.ndarray(shape=(m,), dtype=_BE[win_bytes], buffer=buf, strides=(stride,))
    return be.astype(dtype)


def _unpack_aligned(raw: np.ndarray, count: int, width: int, word_bits: int, dtype) -> np.ndarray:
    wbytes = width // 8
    if wbytes in (1, 2, 4, 8):
        # The stream is contiguous big-endian wbytes values: one
        # widening (and byteswapping) astype.
        return raw[: count * wbytes].view(_BE[wbytes]).astype(dtype)
    word_bytes = word_bits // 8
    rows = np.zeros((count, word_bytes), dtype=np.uint8)
    rows[:, word_bytes - wbytes :] = raw[: count * wbytes].reshape(count, wbytes)
    return rows.reshape(-1).view(_BE[word_bytes]).astype(dtype)


def unpack_lanes(raw: np.ndarray, count: int, width: int, word_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`; ``raw`` must hold >= packed bytes."""
    dtype = _NATIVE[word_bits]
    if count == 0 or width == 0:
        return np.zeros(count, dtype=dtype)
    need = (count * width + 7) // 8
    if width % 8 == 0:
        return _unpack_aligned(raw, count, width, word_bits, dtype)
    if word_bits == 32 and width <= 17:
        # 32-bit windows at 16-bit grain hold any value: off(<=15)+width<=32.
        windows = _window_table(raw, need, 2, _U32)
        q0, off = _boundary_unpack_plan(width, 16, "u4")
        vals = _gather_shift(windows, q0, off, count, SEGMENT * width // 16,
                             np.left_shift)
        np.right_shift(vals, _U32(32 - width), out=vals)
        return vals
    if word_bits == 32:
        # 18..31: 64-bit windows at 32-bit grain, off(<=31)+width<=62.
        # After the left shift the value sits in the window's top 32
        # bits; the final right shift reads that (strided) half and
        # lands in a fresh contiguous uint32 array.
        windows = _window_table(raw, need, 4, _U64)
        q0, off = _boundary_unpack_plan(width, 32, "u8")
        vals = _gather_shift(windows, q0, off, count, SEGMENT * width // 32,
                             np.left_shift)
        top = vals.view(_U32)[1::2] if _LITTLE else vals.view(_U32)[0::2]
        return top >> _U32(32 - width)
    if width <= 33:
        # 64-bit windows at 32-bit grain hold any value: off(<=31)+width<=64.
        windows = _window_table(raw, need, 4, _U64)
        q0, off = _boundary_unpack_plan(width, 32, "u8")
        vals = _gather_shift(windows, q0, off, count, SEGMENT * width // 32,
                             np.left_shift)
        np.right_shift(vals, _U64(64 - width), out=vals)
        return vals
    # 34..63: base lane + spill lane (non-spilling values read the pad lane).
    lanes = _window_table(raw, need, 8, _U64, extra=1)
    l0, l1, off, ts = _two_lane_unpack_plan(width)
    step = SEGMENT * width // 64
    vals = _gather_shift(lanes, l0, off, count, step, np.left_shift)
    np.right_shift(vals, _U64(64 - width), out=vals)
    spill = _gather_shift(lanes, l1, ts, count, step, np.right_shift)
    np.bitwise_or(vals, spill, out=vals)
    return vals
