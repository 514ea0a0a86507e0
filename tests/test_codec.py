import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridecrypt.codec import (
    PAYLOAD_BYTES,
    BlockParams,
    decode_signed,
    decompose,
    encode_signed,
    recompose,
    weighted_difference,
)
from ridecrypt.errors import CapacityError
from ridecrypt.protocol import RideContext

params_strategy = st.builds(
    BlockParams,
    block_bits=st.integers(1, 8),
    num_blocks=st.integers(1, 6),
)


class TestBlockParams:
    def test_weights_are_powers_of_the_base(self):
        p = BlockParams(2, 4)
        assert [p.weight(j) for j in range(4)] == [1, 4, 16, 64]
        assert p.base == 4
        assert p.capacity == 256

    @pytest.mark.parametrize("bits,count", [(0, 1), (9, 1), (2, 0), (8, 8)])
    def test_invalid_parameters_rejected(self, bits, count):
        with pytest.raises(ValueError):
            BlockParams(bits, count)

    def test_weight_index_out_of_range(self):
        with pytest.raises(ValueError):
            BlockParams(2, 4).weight(4)


def _capacity_fault(call, *args):
    """The :class:`CapacityError` message a call raises, or None."""
    try:
        call(*args)
    except CapacityError as exc:
        return str(exc)
    return None


class TestLayout:
    """``positions``, ``weights`` and ``split`` against their definitions:
    the protocol's labels, ``weight`` and per-coordinate ``decompose``."""

    def test_hand_example(self):
        p = BlockParams(2, 2)
        assert p.positions(2) == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert p.weights == (1, 4)
        assert p.split([6, 9]) == [2, 1, 1, 2]

    @given(params=params_strategy, dim=st.integers(1, 4))
    def test_positions_are_the_context_labels(self, params, dim):
        ctx = RideContext(0, 0, params, dim)
        assert params.positions(dim) == ctx.labels
        assert len(params.positions(dim)) == ctx.total_blocks

    @given(params=params_strategy)
    def test_weights_are_weight(self, params):
        assert len(params.weights) == params.num_blocks
        for j, weight in enumerate(params.weights):
            assert weight == params.weight(j)

    @given(params=params_strategy, data=st.data())
    def test_split_is_decompose_concatenated(self, params, data):
        vector = data.draw(
            st.lists(st.integers(0, params.capacity - 1), min_size=1, max_size=4)
        )
        expected = [block for value in vector for block in decompose(value, params)]
        assert params.split(vector) == expected
        assert len(expected) == len(params.positions(len(vector)))

    @given(params=params_strategy, data=st.data())
    def test_split_faults_as_decompose_at_the_first_misfit(self, params, data):
        value = st.integers(-2 * params.capacity, 2 * params.capacity)
        vector = data.draw(st.lists(value, min_size=1, max_size=4))
        faults = [_capacity_fault(decompose, v, params) for v in vector]
        first = next((fault for fault in faults if fault), None)
        assert _capacity_fault(params.split, vector) == first

    @given(params=params_strategy, data=st.data())
    def test_runs_of_split_recompose_to_the_vector(self, params, data):
        vector = data.draw(
            st.lists(st.integers(0, params.capacity - 1), min_size=1, max_size=4)
        )
        runs = list(params.runs(params.split(vector)))
        assert [recompose(run, params) for run in runs] == vector
        if params.num_blocks > 1:
            with pytest.raises(ValueError):
                list(params.runs(params.split(vector) + [0]))

    @given(params=params_strategy, dim=st.integers(1, 4))
    def test_runs_of_positions_are_each_coordinates_blocks(self, params, dim):
        runs = list(params.runs(params.positions(dim)))
        assert len(runs) == dim
        blocks = range(params.num_blocks)
        assert runs == [tuple((i, j) for j in blocks) for i in range(dim)]


class TestDecompose:
    def test_hand_example(self):
        assert decompose(27, BlockParams(2, 4)) == (3, 2, 1, 0)

    def test_zero_gives_all_zero_blocks(self):
        assert decompose(0, BlockParams(3, 5)) == (0, 0, 0, 0, 0)

    def test_value_too_large(self):
        with pytest.raises(CapacityError):
            decompose(256, BlockParams(2, 4))

    def test_negative_value(self):
        with pytest.raises(CapacityError):
            decompose(-1, BlockParams(2, 4))


class TestRecompose:
    def test_hand_example(self):
        assert recompose([3, 2, 1, 0], BlockParams(2, 4)) == 27

    def test_all_zero(self):
        assert recompose([0, 0, 0], BlockParams(4, 3)) == 0

    def test_block_out_of_range(self):
        with pytest.raises(ValueError):
            recompose([4, 0], BlockParams(2, 2))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            recompose([1, 2, 3], BlockParams(2, 4))


@given(params=params_strategy, data=st.data())
def test_round_trip_value(params, data):
    value = data.draw(st.integers(0, params.capacity - 1))
    assert recompose(decompose(value, params), params) == value


@given(params=params_strategy, data=st.data())
def test_round_trip_blocks(params, data):
    blocks = data.draw(
        st.lists(
            st.integers(0, params.base - 1),
            min_size=params.num_blocks,
            max_size=params.num_blocks,
        )
    )
    assert decompose(recompose(blocks, params), params) == tuple(blocks)


def test_round_trip_bulk():
    rng = random.Random(1234)
    for params in [BlockParams(1, 8), BlockParams(2, 4), BlockParams(4, 4)]:
        for _ in range(2000):
            value = rng.randrange(params.capacity)
            assert recompose(decompose(value, params), params) == value


class TestWeightedDifference:
    def test_negative_difference(self):
        assert weighted_difference(0, 3, 0, BlockParams(2, 4)) == -3

    def test_equal_values_cancel(self):
        p = BlockParams(3, 4)
        for j in range(4):
            assert weighted_difference(5, 5, j, p) == 0

    def test_scaled_by_weight(self):
        assert weighted_difference(3, 1, 2, BlockParams(2, 4)) == 32

    def test_range_checks(self):
        with pytest.raises(ValueError):
            weighted_difference(4, 0, 0, BlockParams(2, 4))
        with pytest.raises(ValueError):
            weighted_difference(0, -1, 0, BlockParams(2, 4))


@given(
    params=params_strategy,
    data=st.data(),
)
def test_weighted_difference_antisymmetric(params, data):
    q = data.draw(st.integers(0, params.base - 1))
    b = data.draw(st.integers(0, params.base - 1))
    j = data.draw(st.integers(0, params.num_blocks - 1))
    assert weighted_difference(q, b, j, params) == -weighted_difference(b, q, j, params)


@given(params=params_strategy, data=st.data())
def test_weighted_differences_telescope(params, data):
    """Summing per-block weighted differences reproduces the coordinate
    difference, the identity the matching party aggregates with."""
    blocks = st.lists(
        st.integers(0, params.base - 1),
        min_size=params.num_blocks,
        max_size=params.num_blocks,
    )
    a = data.draw(blocks)
    b = data.draw(blocks)
    total = sum(
        weighted_difference(x, y, j, params) for j, (x, y) in enumerate(zip(a, b))
    )
    assert total == recompose(a, params) - recompose(b, params)


class TestSignedPayloadWire:
    def test_zero(self):
        assert encode_signed(0) == b"\x00" * PAYLOAD_BYTES

    def test_minus_one_is_all_ones(self):
        assert encode_signed(-1) == b"\xff" * PAYLOAD_BYTES

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode_signed(b"\x00" * 7)

    def test_bulk_round_trip(self):
        rng = random.Random(99)
        for _ in range(100_000):
            value = rng.randrange(-(2**62), 2**62)
            assert decode_signed(encode_signed(value)) == value

    @given(st.integers(-(2**63), 2**63 - 1))
    def test_round_trip(self, value):
        assert decode_signed(encode_signed(value)) == value

    @given(st.binary(min_size=PAYLOAD_BYTES, max_size=PAYLOAD_BYTES))
    def test_every_eight_byte_string_decodes(self, data):
        assert encode_signed(decode_signed(data)) == data
