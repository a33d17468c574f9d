"""Fixed-universe element sets backed by integer bitmasks.

Every set-valued quantity in this package (subsets of a group, vertex
sets of a graph, fragments, atoms, cuts) is an ``ElementSet``: a bitmask
over a universe ``{0, ..., universe-1}``.  Hot loops work on the raw
``.mask`` integers; this class is the hashable, order-able wrapper used
at API boundaries.

``randrange_draws`` is the one seeded-draw primitive: the values a loop of
``random.Random.randrange`` calls over one range returns, as one numpy
vector read from the generator's own ``getrandbits`` words.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

import numpy as np


def mask_of(indices: Iterable[int], universe: int) -> int:
    """Pack indices into a bitmask, validating the range."""
    m = 0
    for i in indices:
        if not 0 <= i < universe:
            raise ValueError(f"element {i} outside universe 0..{universe - 1}")
        m |= 1 << i
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Iterate set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def randrange_draws(rng: random.Random, start: int, stop: int, count: int) -> np.ndarray:
    """``[rng.randrange(start, stop) for _ in range(count)]`` as an int64
    vector, for a width ``stop - start`` of 1 to 2^32 - 1.

    ``randrange`` takes r = word >> (32 - k) from each of ``rng``'s 32-bit
    words, with k the width's bit length, and rejects r >= width; one
    ``getrandbits(32 * m)`` call returns the next m words, the first in its
    low bits.  A batch is sized from the expected rejection rate, so a
    second one is rarely needed.  ``rng`` ends past the words drawn.
    """
    width = stop - start
    if not 0 < width < 1 << 32:
        raise ValueError(f"randrange_draws needs a width of 1 to 2^32 - 1, not {width}")
    shift = 32 - width.bit_length()
    cost = (1 << width.bit_length()) / width  # expected words per draw
    out, got = [np.zeros(0, dtype=np.uint32)], 0
    while got < count:
        m = int((count - got) * cost * 1.1) + 64
        r = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4") >> shift
        out.append(r[r < width][:count - got])
        got += len(out[-1])
    return np.concatenate(out).astype(np.int64) + start


class ElementSet:
    """Immutable subset of ``{0, ..., universe-1}``."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: int, elements: Iterable[int] | int = ()):
        if universe <= 0:
            raise ValueError("universe size must be positive")
        object.__setattr__(self, "universe", universe)
        if isinstance(elements, int):
            if elements < 0 or elements >> universe:
                raise ValueError("mask has bits outside the universe")
            mask = elements
        else:
            mask = mask_of(elements, universe)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    # -- set algebra ---------------------------------------------------

    def _coerce(self, other: "ElementSet") -> int:
        if not isinstance(other, ElementSet):
            raise TypeError(f"expected ElementSet, got {type(other).__name__}")
        if other.universe != self.universe:
            raise ValueError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )
        return other.mask

    def __and__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.universe, self.mask & self._coerce(other))

    def __or__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.universe, self.mask | self._coerce(other))

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.universe, self.mask & ~self._coerce(other))

    def __xor__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.universe, self.mask ^ self._coerce(other))

    def complement(self) -> "ElementSet":
        full = (1 << self.universe) - 1
        return ElementSet(self.universe, full ^ self.mask)

    def issubset(self, other: "ElementSet") -> bool:
        return self.mask & ~self._coerce(other) == 0

    def isdisjoint(self, other: "ElementSet") -> bool:
        return self.mask & self._coerce(other) == 0

    # -- container protocol --------------------------------------------

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.universe and (self.mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def indices(self) -> tuple[int, ...]:
        return tuple(bits_of(self.mask))

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.universe == other.universe
            and self.mask == other.mask
        )

    def __lt__(self, other: "ElementSet") -> bool:
        # canonical order: by bitmask value
        return self.mask < self._coerce(other)

    def __hash__(self) -> int:
        return hash((self.universe, self.mask))

    def __repr__(self) -> str:
        return f"ElementSet({self.universe}, {{{', '.join(map(str, self))}}})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, universe: int) -> "ElementSet":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: int) -> "ElementSet":
        return cls(universe, (1 << universe) - 1)

    @classmethod
    def singleton(cls, universe: int, i: int) -> "ElementSet":
        return cls(universe, mask_of((i,), universe))
