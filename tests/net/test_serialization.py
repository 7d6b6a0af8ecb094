"""Wire-format tests, including a full hypothesis roundtrip property."""

import pytest
from hypothesis import given, strategies as st

from repro.net.serialization import (
    FixedWidthList,
    SerializationError,
    deserialize_message,
    serialize_message,
    serialized_size,
)

message_values = st.recursive(
    st.one_of(
        st.integers(min_value=-(2**512), max_value=2**512),
        st.booleans(),
        st.text(max_size=40),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=8),
    max_leaves=40,
)


class TestRoundtrip:
    @pytest.mark.parametrize("value", [
        0, 1, -1, 255, 256, -256, 2**256, -(2**256),
        True, False, None, "", "hello", "unicode: é中",
        [], [1, 2, 3], [1, [2, [3, [True, None, "x"]]]],
    ])
    def test_cases(self, value):
        assert deserialize_message(serialize_message(value)) == value

    @given(message_values)
    def test_roundtrip_property(self, value):
        restored = deserialize_message(serialize_message(value))
        assert restored == _tuples_to_lists(value)

    def test_tuples_become_lists(self):
        assert deserialize_message(serialize_message((1, 2))) == [1, 2]

    def test_fixed_width_list_keeps_its_width(self):
        value = [[7, FixedWidthList([0, 1, 2**64 - 1], 8)], "x"]
        restored = deserialize_message(serialize_message(value))
        assert restored == value
        assert type(restored[0][1]) is FixedWidthList
        assert restored[0][1].width == 8


class TestSizes:
    def test_small_int_size(self):
        # Tag(1) + sign(1) + length(4) + one magnitude byte.
        assert serialized_size(7) == 7

    def test_int_size_grows_with_magnitude(self):
        assert serialized_size(2**100) > serialized_size(2**10)

    def test_fixed_width_size_depends_on_shape_only(self):
        # Tag(1) + count(4) + width(4) + 32 bytes per element.
        for values in ([1, 2], [2**255, 2**256 - 1]):
            assert serialized_size(FixedWidthList(values, 32)) == 9 + 64

    def test_size_matches_serialization(self):
        for value in (12345, "abc", [1, "x", None]):
            assert serialized_size(value) == len(serialize_message(value))


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(SerializationError, match="unsupported"):
            serialize_message(3.14)

    def test_unsupported_nested_type(self):
        with pytest.raises(SerializationError, match="unsupported"):
            serialize_message([1, {"a": 2}])

    def test_truncated_input(self):
        wire = serialize_message(123456789)
        with pytest.raises(SerializationError, match="truncated"):
            deserialize_message(wire[:-1])

    def test_trailing_bytes(self):
        wire = serialize_message(5) + b"\x00"
        with pytest.raises(SerializationError, match="trailing"):
            deserialize_message(wire)

    @pytest.mark.parametrize("values,width,match", [
        ([256], 1, "does not fit"),
        ([-1], 4, "non-negative int"),
        ([True], 4, "non-negative int"),
        ([1], 0, "width"),
    ])
    def test_fixed_width_encoding_refuses(self, values, width, match):
        with pytest.raises(SerializationError, match=match):
            serialize_message(FixedWidthList(values, width))

    def test_fixed_width_zero_width_refused(self):
        with pytest.raises(SerializationError, match="zero-width"):
            deserialize_message(b"W" + bytes(8))

    def test_unknown_tag(self):
        with pytest.raises(SerializationError, match="unknown"):
            deserialize_message(b"Z")

    def test_empty_input(self):
        with pytest.raises(SerializationError, match="no type tag"):
            deserialize_message(b"")


def _tuples_to_lists(value):
    if isinstance(value, (list, tuple)):
        return [_tuples_to_lists(v) for v in value]
    return value
