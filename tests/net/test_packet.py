"""Unit tests for packets and wire-size accounting."""

import pytest

from repro.net.packet import HEADER_BYTES, Packet, payload_size


class TestPayloadSize:
    def test_none_is_free(self):
        assert payload_size(None) == 0

    def test_bool_is_one_byte(self):
        assert payload_size(True) == 1

    def test_small_int_is_four_bytes(self):
        assert payload_size(1000) == 4
        assert payload_size(-1000) == 4

    def test_large_int_is_eight_bytes(self):
        assert payload_size(2**40) == 8
        assert payload_size(-(2**40)) == 8

    def test_boundary_int_sizes(self):
        assert payload_size(2**31 - 1) == 4
        assert payload_size(2**31) == 8
        assert payload_size(-(2**31)) == 4

    def test_float_is_four_bytes(self):
        assert payload_size(3.14) == 4

    def test_string_utf8_length(self):
        assert payload_size("abc") == 3
        assert payload_size("é") == 2

    def test_bytes_length(self):
        assert payload_size(b"\x00" * 7) == 7

    def test_sequences_sum_elements(self):
        assert payload_size([1, 2, 3]) == 12
        assert payload_size((True, 1.0)) == 5

    def test_mapping_sums_values_only(self):
        assert payload_size({"key_name_is_free": 5}) == 4

    def test_nested_structures(self):
        assert payload_size({"a": [1, [2, 3]], "b": "xy"}) == 14

    def test_nested_int_sequences_at_the_32_bit_boundary(self):
        inside = (2**31 - 1, -(2**31))
        outside = (2**31, -(2**31) - 1)
        assert payload_size(inside) == 8
        assert payload_size(outside) == 16
        assert payload_size([inside, (outside, [2**31 - 1])]) == 8 + 16 + 4
        assert payload_size((True, (1, False), [2**31, 1.0])) == 1 + 5 + 12

    def test_int_subclasses_in_sequences_size_like_the_general_path(self):
        class Tagged(int):
            pass

        assert payload_size((Tagged(2**31), Tagged(5))) == 12

    def test_object_with_wire_size(self):
        class Sized:
            def wire_size(self):
                return 11

        assert payload_size(Sized()) == 11

    def test_unknown_object_raises(self):
        with pytest.raises(TypeError):
            payload_size(object())


class TestPacket:
    def test_size_computed_from_payload(self):
        packet = Packet(src=1, dst=2, kind="x", payload={"v": 7})
        assert packet.size_bytes == HEADER_BYTES + 4

    def test_explicit_size_respected(self):
        packet = Packet(src=1, dst=2, kind="x", size_bytes=50)
        assert packet.size_bytes == 50

    def test_explicit_size_below_header_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=1, dst=2, kind="x", size_bytes=HEADER_BYTES - 1)

    def test_seq_unique(self):
        packets = [Packet(src=0, dst=1, kind="x") for _ in range(10)]
        assert len({p.seq for p in packets}) == 10
