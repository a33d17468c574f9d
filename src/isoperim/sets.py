"""Fixed-universe element sets backed by integer bitmasks.

Every set-valued quantity in this package (subsets of a group, vertex
sets of a graph, fragments, atoms, cuts) is an ``ElementSet``: a bitmask
over a universe ``{0, ..., universe-1}``.  Hot loops work on the raw
``.mask`` integers; this class is the hashable, order-able wrapper used
at API boundaries.

``randrange_draws`` is the one seeded-draw primitive: the values a loop of
``random.Random.randrange`` calls returns, as one numpy vector.
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


def randrange_draws(rng: random.Random, ranges, count: int) -> np.ndarray:
    """``[rng.randrange(*ranges[i % len(ranges)]) for i in range(count)]``
    as an int64 vector, leaving ``rng`` in the state that loop leaves it in.
    ``ranges`` holds one or two ``(start, stop)`` pairs, each of width at
    most 2^32 - 1.

    The words are ``rng``'s own ``genrand_uint32`` stream, read from a numpy
    ``MT19937`` set to its state.  A range of width w takes them as CPython's
    ``_randbelow`` does: r = word >> (32 - k) with k = w.bit_length(),
    rejected while r >= w.  With two ranges, the range a word serves (its
    phase) follows from the words before it: a word both accept flips the
    phase, a word only one accepts sets the phase after it, and a word
    neither accepts keeps it.  So the phase after a word is the phase set by
    the last setting word, flipped by the parity of the flips since.
    """
    spans = [(start, stop - start) for start, stop in ranges]
    if len(spans) not in (1, 2):
        raise ValueError(f"randrange_draws takes one or two ranges, not {len(spans)}")
    for _, width in spans:
        if width <= 0:
            raise ValueError(f"empty range for randrange_draws: {spans}")
        if width.bit_length() > 32:
            raise ValueError(f"range width {width} needs more than 32 bits")
    starts = np.array([start for start, _ in spans], dtype=np.int64)
    widths = np.array([[width] for _, width in spans], dtype=np.uint64)
    shifts = np.array([[32 - width.bit_length()] for _, width in spans], dtype=np.uint64)
    # expected words per draw, averaged over the ranges
    cost = sum((1 << width.bit_length()) / width for _, width in spans) / len(spans)
    words = np.random.MT19937()
    state = rng.getstate()[1]
    words.state = {"bit_generator": "MT19937",
                   "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]}}
    out, got, used = [np.zeros(0, dtype=np.int64)], 0, 0
    while got < count:
        need = count - got
        r = words.random_raw(int(need * cost * 1.1) + 64) >> shifts
        size = r.shape[1]
        accept = r < widths
        if len(spans) == 1:
            phase = np.zeros(size, dtype=np.intp)
        else:
            phase = _phases(accept, got % 2)
        at = np.flatnonzero(accept[phase, np.arange(size)])[:need]
        out.append(r[phase[at], at].astype(np.int64) + starts[phase[at]])
        got += len(at)
        # a short batch is used up, and the next one carries on
        used += int(at[-1]) + 1 if got == count else size
    if used:
        rng.getrandbits(32 * used)
    return np.concatenate(out)


def _phases(accept: np.ndarray, first: int) -> np.ndarray:
    """The range (0 or 1) each word serves, from the two ranges' accept
    flags (2 x words) and the range of the first word."""
    flips = np.cumsum(accept[0] & accept[1])
    sets = np.flatnonzero(accept[0] ^ accept[1])
    # index of the last setting word at or before each word, or -1
    last = np.full(accept.shape[1], -1, dtype=np.intp)
    last[sets] = sets
    np.maximum.accumulate(last, out=last)
    seen = last >= 0
    # only range 0 accepting moves to range 1, only range 1 back to range 0
    base = np.where(seen, accept[0, last], first)
    after = base ^ ((flips - np.where(seen, flips[last], 0)) & 1)
    return np.concatenate(([first], after[:-1])).astype(np.intp)


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
