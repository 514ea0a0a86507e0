"""Block decomposition of embedding coordinates and payload byte encoding.

Every coordinate is split into ``num_blocks`` little-endian blocks of
``block_bits`` bits each, with positional weights ``(2**block_bits)**j``;
:class:`BlockParams` owns that layout for every party: the (coordinate,
block) positions, coordinate-major, their weights, a vector's blocks
and the per-coordinate runs of any values laid out in that order.
The quantity that actually travels inside a ciphertext is a weighted
difference of two blocks, serialized as a fixed 8-byte two's-complement
integer so that XOR unmasking is bit-exact for every parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, read_int

# Wire width of one signed payload, independent of block parameters.
PAYLOAD_BYTES = 8


@dataclass(frozen=True)
class BlockParams:
    """Block geometry: ``block_bits`` bits per block, ``num_blocks`` blocks
    per coordinate, each read with ``read_int`` and stored as an ``int``."""

    block_bits: int
    num_blocks: int

    def __post_init__(self) -> None:
        for name, value in (("block_bits", self.block_bits), ("num_blocks", self.num_blocks)):
            object.__setattr__(self, name, read_int(name, value))
        if not 1 <= self.block_bits <= 8:
            raise ValueError(f"block_bits must be in 1..8, got {self.block_bits}")
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")
        # Keeps every payload, including the top-weight difference, inside
        # the signed 64-bit wire format.
        if self.block_bits * self.num_blocks > 62:
            raise ValueError(
                f"block_bits * num_blocks must be <= 62, got "
                f"{self.block_bits * self.num_blocks}"
            )

    @property
    def base(self) -> int:
        """Number of distinct block values, 2**block_bits."""
        return 1 << self.block_bits

    @property
    def capacity(self) -> int:
        """Exclusive upper bound on representable coordinates."""
        return 1 << (self.block_bits * self.num_blocks)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Positional weight of each block index, ``base**j``."""
        return tuple(self.base**j for j in range(self.num_blocks))

    def weight(self, block_index: int) -> int:
        """Positional weight of block ``block_index`` (little-endian)."""
        if not 0 <= block_index < self.num_blocks:
            raise ValueError(f"block index {block_index} out of range")
        return self.weights[block_index]

    def positions(self, dim: int) -> tuple[tuple[int, int], ...]:
        """Every (coordinate, block index) position of a ``dim``-vector,
        coordinate-major: the order of :meth:`split` and of every message
        and match."""
        return tuple((i, j) for i in range(dim) for j in range(self.num_blocks))

    def split(self, vector: Sequence[int]) -> list[int]:
        """Every block of ``vector``, flat, in :meth:`positions` order.
        Raises :func:`decompose`'s :class:`CapacityError` at the first
        coordinate that does not fit."""
        if vector and (min(vector) < 0 or max(vector) >= self.capacity):
            for value in vector:
                decompose(value, self)
        bits, mask = self.block_bits, self.base - 1
        shifts = range(0, bits * self.num_blocks, bits)
        return [value >> shift & mask for value in vector for shift in shifts]

    def runs(self, values: Iterable) -> Iterator[tuple]:
        """``values`` in :meth:`positions` order, one coordinate's
        ``num_blocks`` at a time; a partial last run raises ``ValueError``."""
        return zip(*[iter(values)] * self.num_blocks, strict=True)


def decompose(value: int, params: BlockParams) -> tuple[int, ...]:
    """Split ``value`` into blocks, least significant first."""
    if value < 0 or value >= params.capacity:
        raise CapacityError(
            f"value {value} does not fit {params.num_blocks} blocks of "
            f"{params.block_bits} bits"
        )
    bits = params.block_bits
    mask = (1 << bits) - 1
    return tuple([(value >> (j * bits)) & mask for j in range(params.num_blocks)])


def recompose(blocks: Sequence[int], params: BlockParams) -> int:
    """Inverse of :func:`decompose`."""
    if len(blocks) != params.num_blocks:
        raise ValueError(
            f"expected {params.num_blocks} blocks, got {len(blocks)}"
        )
    value = 0
    for j, block in enumerate(blocks):
        if not 0 <= block < params.base:
            raise ValueError(f"block {block} at index {j} out of range")
        value += block << (j * params.block_bits)
    return value


def weighted_difference(
    candidate: int, block: int, block_index: int, params: BlockParams
) -> int:
    """Signed, weight-scaled difference ``(candidate - block) * w_j``."""
    base = params.base
    if not 0 <= candidate < base:
        raise ValueError(f"candidate {candidate} out of range for {params}")
    if not 0 <= block < base:
        raise ValueError(f"block {block} out of range for {params}")
    return (candidate - block) * params.weight(block_index)


def encode_signed(value: int) -> bytes:
    """Serialize a signed payload as 8 bytes, two's complement, little-endian."""
    return value.to_bytes(PAYLOAD_BYTES, "little", signed=True)


def decode_signed(data: bytes) -> int:
    """Inverse of :func:`encode_signed`. Every 8-byte string decodes."""
    if len(data) != PAYLOAD_BYTES:
        raise ValueError(f"expected {PAYLOAD_BYTES} bytes, got {len(data)}")
    return int.from_bytes(data, "little", signed=True)
