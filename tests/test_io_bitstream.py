"""Unit and property tests for the bit-packed writer/reader."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.io import BitReader, BitWriter


class TestBitWriter:
    def test_empty_writer_produces_empty_payload(self):
        assert BitWriter().getvalue() == b""
        assert len(BitWriter()) == 0

    def test_single_bit(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.getvalue() == b"\x01"
        assert writer.bit_length == 1

    def test_width_zero_writes_nothing(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert len(writer) == 0

    def test_value_too_wide_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(8, 3)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 4)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(0, -1)

    def test_bit_length_tracks_partial_bytes(self):
        writer = BitWriter()
        writer.write(5, 3)
        assert writer.bit_length == 3
        writer.write(1, 13)
        assert writer.bit_length == 16
        assert len(writer.getvalue()) == 2

    def test_final_byte_zero_padded(self):
        writer = BitWriter()
        writer.write(1, 1)
        (byte,) = writer.getvalue()
        assert byte == 1  # high bits padded with zeros

    def test_write_bytes_roundtrip(self):
        writer = BitWriter()
        writer.write_bytes(b"abc")
        reader = BitReader(writer.getvalue())
        assert reader.read_bytes(3) == b"abc"

    def test_write_bits_bulk(self):
        writer = BitWriter()
        writer.write_bits([1, 2, 3], 4)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(3, 4) == [1, 2, 3]


class TestBitReader:
    def test_read_past_end_raises(self):
        reader = BitReader(b"\x01")
        reader.read(8)
        with pytest.raises(EOFError):
            reader.read(1)

    def test_remaining_bits(self):
        reader = BitReader(b"\xff\xff")
        assert reader.remaining_bits == 16
        reader.read(5)
        assert reader.remaining_bits == 11

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00").read(-2)

    def test_read_bit(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 1):
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in range(4)] == [1, 0, 1, 1]


class TestVarintInBitstream:
    def test_small_value_single_byte(self):
        writer = BitWriter()
        writer.write_uvarint(5)
        assert len(writer.getvalue()) == 1

    def test_large_value_roundtrip(self):
        writer = BitWriter()
        writer.write_uvarint(2**40 + 17)
        assert BitReader(writer.getvalue()).read_uvarint() == 2**40 + 17

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_uvarint(-1)

    def test_unaligned_varint(self):
        writer = BitWriter()
        writer.write(3, 3)
        writer.write_uvarint(300)
        reader = BitReader(writer.getvalue())
        assert reader.read(3) == 3
        assert reader.read_uvarint() == 300


@given(
    st.lists(
        st.integers(min_value=1, max_value=32).flatmap(
            lambda w: st.tuples(
                st.integers(min_value=0, max_value=(1 << w) - 1), st.just(w)
            )
        ),
        max_size=200,
    )
)
def test_arbitrary_sequences_roundtrip(items):
    """Any sequence of (value, width) pairs survives a write/read cycle."""
    writer = BitWriter()
    for value, width in items:
        writer.write(value, width)
    reader = BitReader(writer.getvalue())
    for value, width in items:
        assert reader.read(width) == value


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=50))
def test_varint_sequences_roundtrip(values):
    writer = BitWriter()
    for value in values:
        writer.write_uvarint(value)
    reader = BitReader(writer.getvalue())
    for value in values:
        assert reader.read_uvarint() == value


@given(st.binary(max_size=300))
def test_bytes_roundtrip(data):
    writer = BitWriter()
    writer.write_bytes(data)
    assert BitReader(writer.getvalue()).read_bytes(len(data)) == data


@given(
    st.integers(min_value=0, max_value=23),
    st.binary(max_size=300),
    st.integers(min_value=0, max_value=7),
)
def test_bulk_bytes_match_per_byte_reference(offset, data, tail_bits):
    """write_bytes/read_bytes at any bit offset equal the per-byte
    ``write(b, 8)`` / ``read(8)`` loop, bit for bit."""
    bulk, reference = BitWriter(), BitWriter()
    for writer in (bulk, reference):
        writer.write((1 << offset) - 1, offset)
    bulk.write_bytes(data)
    for byte in data:
        reference.write(byte, 8)
    for writer in (bulk, reference):
        writer.write((1 << tail_bits) - 1, tail_bits)
    assert bulk.bit_length == reference.bit_length
    payload = bulk.getvalue()
    assert payload == reference.getvalue()

    reader, oracle = BitReader(payload), BitReader(payload)
    reader.read(offset)
    oracle.read(offset)
    assert reader.read_bytes(len(data)) == bytes(
        oracle.read(8) for _ in range(len(data))
    )
    assert reader.read(tail_bits) == oracle.read(tail_bits)
    assert reader.remaining_bits == oracle.remaining_bits


def test_read_bytes_past_end_rejected():
    reader = BitReader(b"\xff\xff")
    reader.read(3)
    with pytest.raises(EOFError):
        reader.read_bytes(2)
    assert reader.read_bytes(1) == b"\xff"
