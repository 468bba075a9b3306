"""Tests for LZ77, Huffman, and the DEFLATE pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.compression import deflate, huffman, lz77


def _reference_lz77(data, level):
    """The hash-chain matcher with every probe compared in full, byte by
    byte: the oracle for ``lz77.compress``'s tokens and probe count."""
    max_chain = lz77.LEVEL_MAX_CHAIN[level]
    n = len(data)

    def hash3(p):
        return (data[p] << 10) ^ (data[p + 1] << 5) ^ data[p + 2]

    tokens, head, prev, probes, pos = [], {}, {}, 0, 0
    while pos < n:
        best_length = best_distance = 0
        if pos + lz77.MIN_MATCH <= n:
            key = hash3(pos)
            candidate, chain = head.get(key), 0
            while candidate is not None and chain < max_chain:
                distance = pos - candidate
                if distance > lz77.WINDOW_SIZE:
                    break
                probes += 1
                chain += 1
                length = 0
                limit = min(lz77.MAX_MATCH, n - pos)
                while length < limit and data[candidate + length] == data[pos + length]:
                    length += 1
                if length > best_length:
                    best_length, best_distance = length, distance
                    if length >= lz77.MAX_MATCH:
                        break
                candidate = prev.get(candidate)
            prev[pos] = head.get(key)
            head[key] = pos
        if best_length >= lz77.MIN_MATCH:
            tokens.append(lz77.Match(best_length, best_distance))
            end = pos + best_length
            for p in range(pos + 1, min(end, n - lz77.MIN_MATCH + 1)):
                key = hash3(p)
                prev[p] = head.get(key)
                head[key] = p
            pos = end
        else:
            tokens.append(lz77.Literal(data[pos]))
            pos += 1
    return tokens, probes


def _reference_bits(writes):
    """Bit-at-a-time MSB-first packing: the oracle for ``BitWriter``."""
    out, position = bytearray(), 0
    for code, length in writes:
        for shift in range(length - 1, -1, -1):
            if position == 0:
                out.append(0)
            if (code >> shift) & 1:
                out[-1] |= 1 << (7 - position)
            position = (position + 1) % 8
    bit_length = (len(out) - 1) * 8 + (position or 8) if out else 0
    return bytes(out), bit_length


_LEVELS = st.sampled_from(sorted(lz77.LEVEL_MAX_CHAIN))
# Repetitive inputs: a short unit repeated with a noisy tail, or a walk
# over a two-letter alphabet; both keep long hash chains busy.
_REPETITIVE = st.one_of(
    st.tuples(
        st.binary(min_size=1, max_size=12), st.integers(1, 80), st.binary(max_size=40)
    ).map(lambda parts: parts[0] * parts[1] + parts[2]),
    st.lists(st.sampled_from(b"ab"), max_size=600).map(bytes),
)


class TestLz77AgainstReference:
    @given(_REPETITIVE | st.binary(max_size=600), _LEVELS)
    @settings(max_examples=150, deadline=None)
    def test_tokens_and_probes_match_reference(self, data, level):
        result = lz77.compress(data, level=level)
        assert (result.tokens, result.chain_probes) == _reference_lz77(data, level)

    @pytest.mark.parametrize("level", sorted(lz77.LEVEL_MAX_CHAIN))
    def test_long_runs_and_window_edge(self, level):
        # Runs past MAX_MATCH, and candidates beyond the 32 KiB window.
        rng = np.random.default_rng(level)
        data = (
            b"z" * 700
            + bytes(rng.integers(0, 4, size=lz77.WINDOW_SIZE + 900, dtype=np.uint8))
            + b"z" * 700
        )
        result = lz77.compress(data, level=level)
        assert (result.tokens, result.chain_probes) == _reference_lz77(data, level)


class TestLz77:
    def test_all_literals_for_unique_bytes(self):
        result = lz77.compress(bytes(range(200)), level=9)
        assert all(isinstance(t, lz77.Literal) for t in result.tokens)

    def test_repetition_produces_matches(self):
        result = lz77.compress(b"abcabcabcabcabc", level=9)
        assert any(isinstance(t, lz77.Match) for t in result.tokens)

    def test_roundtrip(self):
        data = b"the quick brown fox " * 50
        result = lz77.compress(data, level=9)
        assert lz77.decompress(result.tokens) == data

    def test_level_validation(self):
        with pytest.raises(ValueError):
            lz77.compress(b"x", level=2)

    def test_higher_level_probes_more(self):
        data = (b"abcdefgh" * 64 + b"abcdefghijklmnop" * 32) * 4
        fast = lz77.compress(data, level=1)
        best = lz77.compress(data, level=9)
        assert best.chain_probes >= fast.chain_probes

    def test_work_units(self):
        result = lz77.compress(b"aaaaaaaaaa", level=9)
        units = result.work_units()
        assert units.get("lz_byte") == 10.0

    def test_match_length_capped(self):
        result = lz77.compress(b"a" * 1000, level=9)
        for token in result.tokens:
            if isinstance(token, lz77.Match):
                assert token.length <= lz77.MAX_MATCH

    def test_decompress_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            lz77.decompress([lz77.Match(3, 10)])

    @given(st.binary(min_size=0, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        result = lz77.compress(data, level=6)
        assert lz77.decompress(result.tokens) == data


class TestHuffman:
    def test_single_symbol(self):
        lengths = huffman.code_lengths({65: 10})
        assert lengths == {65: 1}

    def test_empty(self):
        assert huffman.code_lengths({}) == {}

    def test_more_frequent_gets_shorter_code(self):
        lengths = huffman.code_lengths({0: 100, 1: 10, 2: 10, 3: 1})
        assert lengths[0] <= lengths[3]

    def test_kraft_inequality(self):
        frequencies = {i: (i + 1) ** 2 for i in range(40)}
        lengths = huffman.code_lengths(frequencies)
        assert sum(2.0 ** -l for l in lengths.values()) <= 1.0 + 1e-9

    def test_canonical_codes_prefix_free(self):
        lengths = huffman.code_lengths({i: i + 1 for i in range(10)})
        codes = huffman.canonical_codes(lengths)
        items = [(format(code, f"0{length}b")) for code, length in codes.values()]
        for a in items:
            for b in items:
                if a != b:
                    assert not b.startswith(a) or len(b) == len(a)

    def test_bitwriter_reader_roundtrip(self):
        writer = huffman.BitWriter()
        writer.write(0b101, 3)
        writer.write(0b0110, 4)
        reader = huffman.BitReader(writer.getvalue())
        assert reader.read_bits(3) == 0b101
        assert reader.read_bits(4) == 0b0110

    @given(st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 20)),
                    max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_bitwriter_matches_bit_at_a_time_reference(self, writes):
        writer = huffman.BitWriter()
        for code, length in writes:
            writer.write(code, length)
        assert (writer.getvalue(), writer.bit_length) == _reference_bits(writes)

    def test_reader_eof(self):
        reader = huffman.BitReader(b"")
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_decoder_roundtrip(self):
        frequencies = {i: 50 - i for i in range(20)}
        lengths = huffman.code_lengths(frequencies)
        codes = huffman.canonical_codes(lengths)
        writer = huffman.BitWriter()
        symbols = [3, 7, 1, 19, 0, 3]
        huffman.encode_symbols(symbols, codes, writer)
        reader = huffman.BitReader(writer.getvalue())
        decoder = huffman.Decoder(lengths)
        assert [decoder.decode(reader) for _ in symbols] == symbols

    def test_serialize_lengths_roundtrip(self):
        lengths = {0: 3, 5: 2, 7: 3}
        header = huffman.serialize_lengths(lengths, 10)
        assert huffman.deserialize_lengths(header) == lengths

    def test_serialize_rejects_outside_alphabet(self):
        with pytest.raises(ValueError):
            huffman.serialize_lengths({11: 2}, 10)


class TestDeflate:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"aaaaaaaaaaaaaaaaaaaaaaaa",
            b"the quick brown fox jumps over the lazy dog " * 30,
            bytes(range(256)),
        ],
    )
    def test_roundtrip(self, data):
        result = deflate.compress(data, level=9)
        out, _ = deflate.decompress(result.payload)
        assert out == data

    def test_text_compresses_well(self):
        data = b"hello world, this is quite repetitive text. " * 100
        result = deflate.compress(data, level=9)
        assert result.ratio > 5.0

    def test_random_data_does_not_compress(self):
        rng = np.random.default_rng(0)
        data = bytes(rng.integers(0, 256, size=4096, dtype=np.uint8))
        result = deflate.compress(data, level=9)
        assert result.ratio < 1.1

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deflate.decompress(b"NOPE" + b"\x00" * 600)

    def test_work_units_present(self):
        result = deflate.compress(b"abc" * 100, level=9)
        assert result.work.get("lz_byte") == 300.0
        assert result.work.get("huffman_symbol") > 0

    def test_level_changes_effort(self):
        data = (b"abcdefgh" * 50 + b"zyxw" * 25) * 8
        fast = deflate.compress(data, level=1)
        best = deflate.compress(data, level=9)
        assert best.work.get("lz_match_search") >= fast.work.get("lz_match_search")
        assert best.compressed_size <= fast.compressed_size * 1.05

    @given(st.binary(min_size=0, max_size=600))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data):
        result = deflate.compress(data, level=6)
        out, _ = deflate.decompress(result.payload)
        assert out == data
