"""The group catalog used by sweeps, plus fast per-group scan machinery.

The manifest pins the sweep universe: every abelian group of order at
most 16 (one spec per isomorphism class) and the non-abelian groups
reachable from the named families.  ``GroupScan`` preprocesses one group
so that generation tests and connectivity scans run at sweep speed, and
so that products and powers of many sets run as a few numpy operations
over its translation tables.  It adds no second copy of a primitive:
Cayley rows are ``groups.elem_mul_mask``, ``hull`` and the table
``hulls`` of every <M> come from ``groups.closure_mask`` alone, the
sweep's image tables are slices of ``right``, the ``nibbles`` that
``products`` reads four elements of A at a time are OR tables of
``left``, and ``iso._Reducer`` reduces its blocks, every subset of every
S.  ``scan`` goes through ``subset_scan``, which reads only the subsets
that pass its closure filter and reduces its chunks by |X| class
instead, so the sweep and ``scan`` are two kernels that check each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from . import iso
from .groups import FiniteGroup, closure_mask, elem_mul_mask, inverse_mask, make_group
from .iso import _Reducer, or_table, subset_scan

# products read A four elements at a time
_NIBBLE = 4
_NIBBLE_MASK = (1 << _NIBBLE) - 1


@dataclass(frozen=True)
class CatalogEntry:
    spec: str
    name: str


@lru_cache(maxsize=1)
def load_manifest() -> tuple[CatalogEntry, ...]:
    text = resources.files("isoperim").joinpath("catalog_manifest.json").read_text()
    data = json.loads(text)
    return tuple(CatalogEntry(g["spec"], g["name"]) for g in data["groups"])


@lru_cache(maxsize=64)
def build(spec: str) -> FiniteGroup:
    return make_group(spec)


def entries(max_order: int) -> tuple[CatalogEntry, ...]:
    """Catalog entries of order <= max_order, in manifest order."""
    return tuple(e for e in load_manifest() if build(e.spec).order <= max_order)


def frobenius21() -> FiniteGroup:
    """The nonabelian group of order 21 (Z7 with Z3 acting by x -> 2x)."""
    def mul(a, b):
        (x1, y1), (x2, y2) = a, b
        return ((x1 + pow(2, y1, 7) * x2) % 7, (y1 + y2) % 3)

    elems = [(x, y) for x in range(7) for y in range(3)]
    pos = {e: i for i, e in enumerate(elems)}
    tbl = [[pos[mul(a, b)] for b in elems] for a in elems]
    return FiniteGroup(tbl, name="F21")


class GroupScan:
    """Per-group preprocessing for sweeps over subsets S containing 1.

    All subset arguments are raw bitmasks with bit 0 (the identity) set.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.n = group.order
        tbl = np.array(group.table, dtype=np.int64)
        self._bitcol = (np.uint32(1) << tbl.astype(np.uint32))

    def subsets_with_identity(self):
        """All masks S with 1 in S, ascending."""
        return range(1, 1 << self.n, 2)

    def rows(self, smask: int) -> list[int]:
        """Cayley adjacency rows for S: rows[x] = mask of x*S."""
        return [elem_mul_mask(self.group, x, smask) for x in range(self.n)]

    def hull(self, smask: int) -> int:
        """Mask of <S>."""
        return closure_mask(self.group, smask)

    def generates(self, smask: int) -> bool:
        """<S> = G, read from ``hulls`` (groups of order at most 16)."""
        return int(self.hulls[smask]) == (1 << self.n) - 1

    # -- translation tables: every mask at once, groups of order <= 16 --

    def _table(self, gens) -> np.ndarray:
        if self.n > 16:
            raise ValueError("translation tables fit groups of order at most 16")
        # or_table doubles along its first axis: one row per mask, then
        # transposed so that each element's column is contiguous
        return np.ascontiguousarray(or_table(np.zeros_like(gens[0]), gens).T)

    @cached_property
    def left(self) -> np.ndarray:
        """left[x, B] = mask of x*B, for every mask B (uint32, n x 2^n)."""
        return self._table(self._bitcol.T)

    @cached_property
    def right(self) -> np.ndarray:
        """right[y, A] = mask of A*y, for every mask A (uint32, n x 2^n)."""
        return self._table(self._bitcol)

    @cached_property
    def hulls(self) -> np.ndarray:
        """hulls[M] = mask of <M>, for every mask M (uint32, 2^n).  With j
        the top bit of M, <M> = <<M - {j}> u {j}>: each bit j closes every
        distinct subgroup below it once."""
        if self.n > 16:
            raise ValueError("translation tables fit groups of order at most 16")
        h = np.empty(1 << self.n, dtype=np.uint32)
        h[0] = 1
        for j in range(self.n):
            subs, which = np.unique(h[:1 << j], return_inverse=True)
            closed = [closure_mask(self.group, x | 1 << j) for x in subs.tolist()]
            h[1 << j:2 << j] = np.array(closed, dtype=np.uint32)[which]
        return h

    @cached_property
    def inverses(self) -> np.ndarray:
        """inverses[M] = mask of M^-1, for every mask M (uint32, 2^n)."""
        return self._table(self._bitcol[0, self.group.inv])

    @cached_property
    def conjugates(self) -> np.ndarray:
        """conjugates[a, x] = index of a^-1*x*a (n x n)."""
        t = np.array(self.group.table)
        return t[t[list(self.group.inv)], np.arange(self.n)[:, None]]

    def seminormal_witness(self, smask: int) -> int | None:
        """Least a with x*S = S*(a^-1 x a) for every x, from the columns
        ``left[:, S]`` and ``right[:, S]``: 0 when S is normal, None when
        S is neither (``groups.seminormality``).  Order at most 16."""
        fits = (self.right[:, smask][self.conjugates] == self.left[:, smask]).all(axis=1)
        a = int(fits.argmax())
        return a if fits[a] else None

    @cached_property
    def nibbles(self) -> np.ndarray:
        """nibbles[q, c << n | B] = mask of C*B, where C holds the elements
        4q + j for the set bits j of the nibble c (uint32, ceil(n/4) x
        16 * 2^n): one ``or_table`` over every run of four rows of
        ``left`` at once, the last run padded with empty rows."""
        runs = -(-self.n // _NIBBLE)
        rows = np.zeros((runs * _NIBBLE, 1 << self.n), dtype=np.uint32)
        rows[:self.n] = self.left
        gens = rows.reshape(runs, _NIBBLE, -1).swapaxes(0, 1)
        table = or_table(np.zeros_like(gens[0]), gens)
        return np.ascontiguousarray(table.swapaxes(0, 1)).reshape(runs, -1)

    def products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Masks of A*B for uint32 vectors of masks, pair by pair: the OR
        over the nibbles of A of ``nibbles``' entry for (nibble, B).  The
        gather index is built in one reused buffer, so a call allocates
        little beyond its output."""
        out = np.zeros(len(a), dtype=np.uint32)
        idx = np.empty(len(a), dtype=np.uint32)
        for q, table in enumerate(self.nibbles):
            np.right_shift(a, _NIBBLE * q, out=idx)
            idx &= _NIBBLE_MASK
            idx <<= self.n
            idx |= b
            out |= table.take(idx)
        return out

    def powers(self, b: np.ndarray):
        """Yield ``(j, |B^j|, growing)`` for j = 1, 2, ... over a uint32
        vector of masks B, while some B^j still grows; ``growing`` marks the
        B with |B| < |B^2| < ... < |B^j|.  Once B^j stops growing it stays
        the same size for good."""
        cur = b
        size = np.bitwise_count(cur).astype(np.int64)
        growing = np.ones(len(b), dtype=bool)
        j = 1
        while growing.any():
            yield j, size, growing
            cur = self.products(cur, b)
            nxt = np.bitwise_count(cur).astype(np.int64)
            growing = growing & (nxt != size)
            size = nxt
            j += 1

    def scan(self, smask: int, ks: tuple[int, ...], *, rev: bool = False,
             collect: str = "alpha"):
        """Pinned connectivity scan of Cay(G, S) or its reverse."""
        # the reverse graph of Cay(G, S) is Cay(G, S^-1)
        rows = self.rows(inverse_mask(self.group, smask) if rev else smask)
        return subset_scan(rows, self.n, ks, pin0=True, collect=collect)

    def image_table(self, rev: bool = False) -> np.ndarray:
        """T[s, y] = mask of X_y*s (X_y*s^-1 if rev), over the pinned sets
        X_y = {1} u {x : bit x-1 of y}: the odd columns of ``right``, as a
        fresh copy."""
        rows = self.group.inv if rev else slice(None)
        return np.ascontiguousarray(self.right[rows, 1::2])

    def sweep(self, ks: tuple[int, ...], collect: str, rev: bool = False):
        """Pinned connectivity scans of Cay(G, S), or of its reverse, for
        every S containing 1.

        Yields ``(smask, {k: ScanResult})`` in the ascending order of
        ``subsets_with_identity()``; each result equals
        ``scan(smask, ks, rev=rev, collect=collect)`` at the levels
        "none", "alpha" and "atoms".  The image of X under S is the OR of
        ``image_table(rev)[s]`` over s in S.  The low bits of S index a
        table of partial images built once; each block ORs in the image
        of the high bits and ``iso._Reducer``, the sweep's own kernel,
        reduces every row (one S) to one key per X.  A block holds at most
        ``2**iso._CHUNK_BITS`` (S, X) entries, as a ``subset_scan`` chunk
        does, which bounds memory.  The reverse sweep
        builds its own table from the inverses and never reads forward
        results, so comparing the two directions checks something.  Groups
        of order at most 16.
        """
        if collect not in ("none", "alpha", "atoms"):
            raise ValueError(f"sweep collects 'none', 'alpha' or 'atoms', not {collect!r}")
        free = self.n - 1
        t = self.image_table(rev)
        lo = min(free, max(0, iso._CHUNK_BITS - free))
        low = or_table(t[0], t[1:lo + 1])
        blk = np.empty_like(low)
        reduce = _Reducer(low.shape, self.n, ks, collect, pin=True)

        def highs(first, count):
            # OR of t[first + j] over the set bits j of h, for h ascending;
            # acc[i] is the OR over the set bits j >= i of h
            acc = [np.uint32(0)] * (count + 1)
            yield acc[0]
            for h in range(1, 1 << count):
                p = (h & -h).bit_length() - 1
                acc[:p + 1] = [acc[p + 1] | t[first + p]] * (p + 1)
                yield acc[0]

        smask = 1
        for base in highs(lo + 1, free - lo):
            np.bitwise_or(low, base, out=blk)
            for res in reduce(blk):
                yield smask, res
                smask += 2
