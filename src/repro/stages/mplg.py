"""Enhanced MPLG: per-subchunk elimination of common leading zero bits.

The second (and final) stage of SPspeed and DPspeed (paper §3.1,
Figure 3).  Each 16 KiB chunk is divided into 32 subchunks of 512 bytes;
within a subchunk, the number of leading zero bits of the *maximum* value
is eliminated from every value, and the truncated values are concatenated
at a fixed width so that each value remains independently decodable.

Enhancement from the paper: if the subchunk maximum has no leading zeros
(MPLG would be ineffective), an extra two's-complement to magnitude-sign
conversion is applied first.  The conversion is meaningless semantically
but fast, reversible, and often produces a few leading zeros where there
were none.  One flag bit per subchunk records whether it was applied.

Payload layout: ``u32`` word count, ``u8`` tail length, the tail bytes
(input bytes past the last whole word), then one entry per subchunk —
a header byte (bit 7 is the magnitude-sign flag, bits 0-6 hold the kept
bit width, 0..word_bits) followed by the packed values.

Execution is one block kernel per direction, whatever the block size (a
per-chunk call is a block of one).  Whole subchunks pack to whole bytes,
so subchunks that share a width (encode) or a header byte (decode) are
packed or unpacked together in one kernel call, across every chunk of the
block.  Only a ragged final subchunk runs on its own.  The per-subchunk
loop is kept as the reference (``_force_serial``), and it is the only
path for subchunk sizes whose payloads are not whole bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.bitpack import (
    count_leading_zeros,
    pack_words,
    packed_size_bytes,
    unpack_words,
    words_to_bytes,
    zigzag_decode,
    zigzag_encode,
)
from repro.errors import CorruptDataError
from repro.stages import ByteLike, Stage

SUBCHUNK_BYTES = 512

_FLAG_MS = 0x80
_WIDTH_MASK = 0x7F

#: Word count and tail length that open every payload.
_PREFIX = struct.Struct("<IB")


class MPLG(Stage):
    """Common-leading-zero-bit elimination with per-subchunk widths."""

    name = "mplg"

    def __init__(self, word_bits: int = 32, subchunk_bytes: int = SUBCHUNK_BYTES) -> None:
        if word_bits not in (32, 64):
            raise ValueError("MPLG operates at 32- or 64-bit granularity")
        if subchunk_bytes % (word_bits // 8) != 0:
            raise ValueError("subchunk size must be a whole number of words")
        self.word_bits = word_bits
        self.subchunk_bytes = subchunk_bytes
        self._words_per_subchunk = subchunk_bytes // (word_bits // 8)
        self._dtype = np.dtype(f"<u{word_bits // 8}")
        # The block kernels need whole-byte subchunk payloads (step % 8 == 0
        # words ⟹ no pad bits ⟹ same-width payloads concatenate seamlessly).
        # Tests flip _force_serial to pin block/serial byte-identity.
        self._force_serial = self._words_per_subchunk % 8 != 0

    # The four entry points share the block kernels; a per-chunk call is
    # a block of one, and never re-enters the (separately traced) batch
    # methods.
    def encode(self, data: ByteLike) -> bytes:
        return self._encode_block([data])[0]

    def decode(self, data: ByteLike) -> bytes:
        return self._decode_block([data])[0]

    def encode_batch(self, chunks: list) -> list[bytes]:
        return self._encode_block(chunks)

    def decode_batch(self, payloads: list) -> list[bytes]:
        return self._decode_block(payloads)

    # -- per-subchunk reference -------------------------------------------

    def _encode_subchunk(self, sub: np.ndarray) -> bytes:
        flag = 0
        leading = int(count_leading_zeros(sub.max(keepdims=True), self.word_bits)[0])
        if leading == 0:
            sub = zigzag_encode(sub, self.word_bits)
            leading = int(count_leading_zeros(sub.max(keepdims=True), self.word_bits)[0])
            flag = _FLAG_MS
        width = self.word_bits - leading
        return bytes([flag | width]) + pack_words(sub, width, self.word_bits)

    def _decode_subchunk(self, buf: bytes, pos: int, end: int, count: int):
        """Decode the ``count``-word subchunk at ``buf[pos:end]``; returns
        the words and the position after the subchunk."""
        if pos >= end:
            raise CorruptDataError("truncated MPLG subchunk header")
        header = buf[pos]
        width = header & _WIDTH_MASK
        if width > self.word_bits:
            raise CorruptDataError(f"MPLG width {width} exceeds word size")
        stop = pos + 1 + packed_size_bytes(count, width)
        if stop > end:
            raise CorruptDataError("truncated MPLG subchunk payload")
        vals = unpack_words(buf[pos + 1 : stop], count, width, self.word_bits)
        if header & _FLAG_MS:
            vals = zigzag_decode(vals, self.word_bits)
        return vals, stop

    def _encode_serial(self, data: ByteLike) -> bytes:
        raw = np.frombuffer(data, dtype=np.uint8)
        n_words = len(raw) // self._dtype.itemsize
        body = raw[: n_words * self._dtype.itemsize].view(self._dtype)
        tail = raw[n_words * self._dtype.itemsize :].tobytes()
        step = self._words_per_subchunk
        parts = [_PREFIX.pack(n_words, len(tail)), tail]
        for start in range(0, n_words, step):
            sub = body[start : start + step].astype(self._dtype.newbyteorder("="))
            parts.append(self._encode_subchunk(sub))
        return b"".join(parts)

    def _decode_serial(self, data: ByteLike) -> bytes:
        buf = bytes(data)
        n_words, tail, pos = _prefix(buf, 0, len(buf))
        step = self._words_per_subchunk
        words = []
        for start in range(0, n_words, step):
            vals, pos = self._decode_subchunk(buf, pos, len(buf), min(step, n_words - start))
            words.append(vals)
        if pos != len(buf):
            raise CorruptDataError("unexpected trailing bytes in MPLG payload")
        return words_to_bytes(np.concatenate(words) if words else np.empty(0, self._dtype), tail)

    # -- block kernels ----------------------------------------------------

    def _encode_block(self, chunks: list) -> list[bytes]:
        """Encode every chunk of a block with one pack call per width.

        Widths and magnitude-sign flags are computed for every whole
        subchunk of the block at once; each width group is packed in one
        call and written to its members' wire positions with one row-wise
        assignment through a sliding-window view of the output.
        """
        if self._force_serial:
            return [self._encode_serial(chunk) for chunk in chunks]
        wb = self.word_bits
        step = self._words_per_subchunk
        sub_bytes = step // 8
        itemsize = self._dtype.itemsize
        raws = [np.frombuffer(chunk, dtype=np.uint8) for chunk in chunks]
        n_words = [len(raw) // itemsize for raw in raws]
        n_full = [n // step for n in n_words]
        # One fresh (subchunks, step) grid: magnitude-sign rows are
        # patched in place without touching the caller's buffers.
        subs = np.empty((sum(n_full), step), dtype=self._dtype)
        row = 0
        for raw, k in zip(raws, n_full):
            subs[row : row + k] = raw[: k * step * itemsize].view(self._dtype).reshape(k, step)
            row += k
        clz = count_leading_zeros(subs.max(axis=1), wb)
        widths = (np.uint8(wb) - clz).astype(np.intp)
        flags = np.zeros(len(subs), dtype=np.uint8)
        needs_ms = clz == 0
        if needs_ms.any():
            converted = zigzag_encode(subs[needs_ms].reshape(-1), wb).reshape(-1, step)
            subs[needs_ms] = converted
            widths[needs_ms] = wb - count_leading_zeros(converted.max(axis=1), wb)
            flags[needs_ms] = _FLAG_MS
        # Per chunk: the prefix and tail, the whole subchunks, then the
        # ragged final subchunk (encoded on its own).
        heads, rests = [], []
        for raw, n, k in zip(raws, n_words, n_full):
            tail = raw[n * itemsize :].tobytes()
            heads.append(_PREFIX.pack(n, len(tail)) + tail)
            rest = raw[k * step * itemsize : n * itemsize].view(self._dtype)
            rests.append(self._encode_subchunk(rest.astype(subs.dtype)) if len(rest) else b"")
        sizes = 1 + widths * sub_bytes
        ends = np.concatenate(([0], np.cumsum(sizes)))
        row_starts = np.cumsum([0] + n_full)
        body_sizes = ends[row_starts[1:]] - ends[row_starts[:-1]]
        chunk_sizes = [len(h) + int(b) + len(r) for h, b, r in zip(heads, body_sizes, rests)]
        chunk_starts = np.cumsum([0] + chunk_sizes)
        out = np.empty(int(chunk_starts[-1]), dtype=np.uint8)
        body_starts = []
        for c, (head, rest) in enumerate(zip(heads, rests)):
            start = int(chunk_starts[c])
            body_start = start + len(head)
            out[start:body_start] = np.frombuffer(head, dtype=np.uint8)
            out[int(chunk_starts[c + 1]) - len(rest) : int(chunk_starts[c + 1])] = (
                np.frombuffer(rest, dtype=np.uint8)
            )
            body_starts.append(body_start - int(ends[row_starts[c]]))
        header_pos = ends[:-1] + np.repeat(body_starts, n_full)
        out[header_pos] = flags | widths.astype(np.uint8)
        for width, members in _groups(widths):
            size = width * sub_bytes
            if not size:
                continue
            packed = pack_words(subs[members].reshape(-1), width, wb)
            _windows(out, size)[header_pos[members] + 1] = (
                np.frombuffer(packed, dtype=np.uint8).reshape(-1, size)
            )
        return [
            out[chunk_starts[c] : chunk_starts[c + 1]].tobytes() for c in range(len(chunks))
        ]

    def _decode_block(self, payloads: list) -> list[bytes]:
        """Decode every payload of a block with one unpack call per header byte.

        One walk over the joined payloads visits every whole-subchunk
        header (each payload length depends on its width, so the walk is
        sequential).  Subchunks sharing a header byte are then gathered,
        unpacked (and magnitude-sign decoded) together, and scattered back
        to their rows.  Any structural fault raises
        :class:`CorruptDataError`; a fault in one payload may surface as
        a different message than its own decode gives, and the engine
        re-runs a failing block per chunk for attribution.
        """
        if self._force_serial:
            return [self._decode_serial(payload) for payload in payloads]
        wb = self.word_bits
        step = self._words_per_subchunk
        sub_bytes = step // 8
        flat = b"".join(payloads)
        header_pos: list[int] = []
        chunks = []  # per payload: (whole subchunks, ragged final words, tail)
        end = 0
        for payload in payloads:
            base, end = end, end + memoryview(payload).nbytes
            n_words, tail, pos = _prefix(flat, base, end)
            n_full, ragged = divmod(n_words, step)
            if pos + n_full > end:
                raise CorruptDataError("truncated MPLG payload: too few subchunk headers")
            try:
                for _ in range(n_full):
                    width = flat[pos] & _WIDTH_MASK
                    if width > wb:
                        raise CorruptDataError(f"MPLG width {width} exceeds word size")
                    header_pos.append(pos)
                    pos += 1 + width * sub_bytes
            except IndexError:
                raise CorruptDataError("truncated MPLG subchunk payload") from None
            if pos > end:
                raise CorruptDataError("truncated MPLG subchunk payload")
            extra = np.empty(0, dtype=self._dtype)
            if ragged:
                extra, pos = self._decode_subchunk(flat, pos, end, ragged)
            if pos != end:
                raise CorruptDataError("unexpected trailing bytes in MPLG payload")
            chunks.append((n_full, extra, tail))
        rows = np.empty((len(header_pos), step), dtype=self._dtype)
        if header_pos:
            data = np.frombuffer(flat, dtype=np.uint8)
            starts = np.array(header_pos, dtype=np.intp)
            headers = data[starts]
            starts += 1
            for header, members in _groups(headers):
                size = (header & _WIDTH_MASK) * sub_bytes
                packed = _windows(data, size)[starts[members]] if size else data[:0]
                vals = unpack_words(packed.reshape(-1), len(members) * step,
                                    header & _WIDTH_MASK, wb)
                if header & _FLAG_MS:
                    vals = zigzag_decode(vals, wb)
                rows[members] = vals.reshape(-1, step)
        out = []
        row = 0
        for n_full, extra, tail in chunks:
            chunk = rows[row : row + n_full].tobytes()
            row += n_full
            if len(extra) or tail:
                chunk += words_to_bytes(extra, tail)
            out.append(chunk)
        return out


def _groups(keys: np.ndarray):
    """Yield ``(key, positions)`` for each distinct key of ``keys``."""
    if not len(keys):
        return
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(order)]
    for lo, hi in zip(bounds, bounds[1:]):
        members = order[lo:hi]
        yield int(keys[members[0]]), members


def _windows(buf: np.ndarray, size: int) -> np.ndarray:
    """Overlapping view whose row ``i`` is ``buf[i : i + size]``."""
    return np.ndarray((len(buf) - size + 1, size), dtype=np.uint8, buffer=buf,
                      strides=(1, 1))


def _prefix(buf: bytes, base: int, end: int) -> tuple[int, bytes, int]:
    """Word count, tail bytes and first-subchunk position of the payload
    at ``buf[base:end]``."""
    if end - base < _PREFIX.size:
        raise CorruptDataError("truncated MPLG payload header")
    n_words, tail_len = _PREFIX.unpack_from(buf, base)
    pos = base + _PREFIX.size + tail_len
    if pos > end:
        raise CorruptDataError("truncated MPLG payload tail")
    return n_words, buf[base + _PREFIX.size : pos], pos
