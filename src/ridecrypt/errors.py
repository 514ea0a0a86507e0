"""Exception types shared across the package, and its one integer reader."""

from operator import index


def read_int(name: str, value) -> int:
    """``value`` read with ``operator.index``, so integers and int-likes
    such as numpy integers pass; anything else raises ``ValueError``
    naming the field ``name`` rather than being truncated."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None


class CapacityError(ValueError):
    """A value does not fit the configured block capacity (or the graph is too
    large for the chosen block parameters)."""


class ProtocolFault(RuntimeError):
    """The matching pipeline saw something an honest execution cannot produce,
    e.g. a driver ciphertext that matches no rider entry."""


class PrfCollisionError(ProtocolFault):
    """Two distinct PRF inputs produced the same output.

    Matching correctness rests on this never happening at 128-bit output
    width; it is treated as a hard fault, never resolved silently.
    """


class LedgerFault(RuntimeError):
    """The difference ledger received data inconsistent with an honest run
    (non-divisible payload, empty candidate interval, out-of-range block)."""
