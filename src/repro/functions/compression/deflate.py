"""DEFLATE-shaped compressor: LZ77 tokens entropy-coded with canonical
Huffman codes.

The container format is simplified relative to RFC 1951 (single block,
byte-aligned header carrying the two code-length tables) but the pipeline
— hash-chain LZ77 at a compression level, canonical Huffman over a
literal/length alphabet plus a distance alphabet — is the real algorithm,
and compress/decompress round-trips exactly.  Work units: ``lz_byte`` and
``lz_match_search`` from the match finder plus ``huffman_symbol`` per
emitted symbol.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

from ...core.work import WorkUnits
from . import huffman, lz77

# Literal/length alphabet: 0-255 literals, 256 = end-of-block,
# 257-284 length buckets (like DEFLATE's length codes).
END_OF_BLOCK = 256
LENGTH_BASE = [3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 24, 32, 48, 64, 96, 128, 192, 258]
LITLEN_ALPHABET = 257 + len(LENGTH_BASE)
# Distance buckets, powers of two up to the 32 KiB window.
DIST_BASE = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
             384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288,
             16384, 24576, 32768]
DIST_ALPHABET = len(DIST_BASE)

MAGIC = b"RPDF"


@dataclass
class CompressionResult:
    payload: bytes
    original_size: int
    work: WorkUnits

    @property
    def compressed_size(self) -> int:
        return len(self.payload)

    @property
    def ratio(self) -> float:
        if self.compressed_size == 0:
            return float("inf")
        return self.original_size / self.compressed_size


def _extra_bits(bases: List[int], end: int) -> List[int]:
    """Extra bits per bucket: enough to span up to the next bucket's base."""
    return [max(0, (upper - base - 1).bit_length())
            for base, upper in zip(bases, bases[1:] + [end])]


_LENGTH_EXTRA_BITS = _extra_bits(LENGTH_BASE, 259)
_DIST_EXTRA_BITS = _extra_bits(DIST_BASE, 32769)


def _length_bucket(length: int) -> Tuple[int, int, int]:
    """(symbol, extra_bits, extra_value) for a match length."""
    index = bisect_right(LENGTH_BASE, length) - 1
    if index < 0:
        raise ValueError(f"length {length} below minimum match")
    return 257 + index, _LENGTH_EXTRA_BITS[index], length - LENGTH_BASE[index]


def _distance_bucket(distance: int) -> Tuple[int, int, int]:
    index = bisect_right(DIST_BASE, distance) - 1
    if index < 0:
        raise ValueError(f"distance {distance} below 1")
    return index, _DIST_EXTRA_BITS[index], distance - DIST_BASE[index]


def compress(data: bytes, level: int = 9) -> CompressionResult:
    """Compress ``data``; returns payload + work-unit accounting."""
    lz = lz77.compress(data, level=level)
    litlen_symbols: List[Tuple[int, int, int]] = []  # (symbol, extra_bits, extra)
    dist_symbols: List[Tuple[int, int, int]] = []
    for token in lz.tokens:
        if isinstance(token, lz77.Literal):
            litlen_symbols.append((token.byte, 0, 0))
        else:
            symbol, bits, extra = _length_bucket(token.length)
            litlen_symbols.append((symbol, bits, extra))
            dist_symbols.append(_distance_bucket(token.distance))
    litlen_symbols.append((END_OF_BLOCK, 0, 0))

    litlen_freq: dict = {}
    for symbol, _, _ in litlen_symbols:
        litlen_freq[symbol] = litlen_freq.get(symbol, 0) + 1
    dist_freq: dict = {}
    for symbol, _, _ in dist_symbols:
        dist_freq[symbol] = dist_freq.get(symbol, 0) + 1

    litlen_lengths = huffman.code_lengths(litlen_freq)
    dist_lengths = huffman.code_lengths(dist_freq)
    litlen_codes = huffman.canonical_codes(litlen_lengths)
    dist_codes = huffman.canonical_codes(dist_lengths)

    writer = huffman.BitWriter()
    dist_iter = iter(dist_symbols)
    emitted = 0
    # A code and its extra bits are adjacent in the stream: one write each.
    for symbol, extra_bits, extra in litlen_symbols:
        code, length = litlen_codes[symbol]
        writer.write((code << extra_bits) | extra, length + extra_bits)
        emitted += 1
        if symbol >= 257:
            dist_symbol, dist_extra_bits, dist_extra = next(dist_iter)
            dcode, dlength = dist_codes[dist_symbol]
            writer.write((dcode << dist_extra_bits) | dist_extra,
                         dlength + dist_extra_bits)
            emitted += 1

    header = (
        MAGIC
        + struct.pack("<IB", len(data), level)
        + huffman.serialize_lengths(litlen_lengths, LITLEN_ALPHABET)
        + huffman.serialize_lengths(dist_lengths, DIST_ALPHABET)
    )
    payload = header + writer.getvalue()
    work = lz.work_units().add("huffman_symbol", float(emitted))
    return CompressionResult(payload=payload, original_size=len(data), work=work)


def decompress(payload: bytes) -> Tuple[bytes, WorkUnits]:
    """Invert :func:`compress`; returns (data, work units of inflation)."""
    if payload[:4] != MAGIC:
        raise ValueError("not a repro-deflate payload")
    original_size, _level = struct.unpack("<IB", payload[4:9])
    offset = 9
    litlen_lengths = huffman.deserialize_lengths(payload[offset:offset + LITLEN_ALPHABET])
    offset += LITLEN_ALPHABET
    dist_lengths = huffman.deserialize_lengths(payload[offset:offset + DIST_ALPHABET])
    offset += DIST_ALPHABET
    reader = huffman.BitReader(payload[offset:])
    litlen_decoder = huffman.Decoder(litlen_lengths)
    dist_decoder = huffman.Decoder(dist_lengths) if dist_lengths else None

    out = bytearray()
    symbols = 0
    while True:
        symbol = litlen_decoder.decode(reader)
        symbols += 1
        if symbol == END_OF_BLOCK:
            break
        if symbol < 256:
            out.append(symbol)
            continue
        index = symbol - 257
        extra_bits = _LENGTH_EXTRA_BITS[index]
        length = LENGTH_BASE[index] + (reader.read_bits(extra_bits) if extra_bits else 0)
        if dist_decoder is None:
            raise ValueError("match token but no distance table")
        dist_symbol = dist_decoder.decode(reader)
        symbols += 1
        dextra_bits = _DIST_EXTRA_BITS[dist_symbol]
        distance = DIST_BASE[dist_symbol] + (
            reader.read_bits(dextra_bits) if dextra_bits else 0
        )
        start = len(out) - distance
        if start < 0:
            raise ValueError("distance before stream start")
        for i in range(length):
            out.append(out[start + i])
    if len(out) != original_size:
        raise ValueError(f"size mismatch: header {original_size}, got {len(out)}")
    work = WorkUnits({"huffman_symbol": float(symbols), "mem_stream_byte": float(len(out))})
    return bytes(out), work
