"""The group catalog used by sweeps, plus fast per-group scan machinery.

The manifest pins the sweep universe: every abelian group of order at
most 16 (one spec per isomorphism class) and the non-abelian groups
reachable from the named families.  ``GroupScan`` preprocesses one group
so that per-subset Cayley rows, generation tests and connectivity scans
run at sweep speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from .groups import FiniteGroup, inverse_mask, make_group
from .iso import ScanResult, or_table, subset_scan
from .sets import bits_of

_BLOCK_BITS = 16  # GroupScan.sweep reduces at most 2^16 (S, X) entries at once


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
        idx = list(bits_of(smask))
        return np.bitwise_or.reduce(self._bitcol[:, idx], axis=1).tolist()

    def hull(self, smask: int) -> int:
        """Mask of <S> for S containing the identity."""
        rows = self.rows(smask)
        t = smask
        frontier = smask
        while frontier:
            add = 0
            for v in bits_of(frontier):
                add |= rows[v]
            frontier = add & ~t
            t |= frontier
        return t

    @cached_property
    def maximal_subgroups(self) -> tuple[int, ...]:
        """Masks of the maximal subgroups of G.  Every subgroup is a join of
        cyclic subgroups, so closing the cyclic ones under joins finds all."""
        subs = {self.hull(1 | 1 << x) for x in range(self.n)}
        new = subs
        while new:
            new = {self.hull(a | b) for a in new for b in subs} - subs
            subs |= new
        proper = [h for h in subs if h != (1 << self.n) - 1]
        return tuple(h for h in proper
                     if not any(o != h and h & ~o == 0 for o in proper))

    def generates(self, smask: int) -> bool:
        """<S> = G, i.e. no maximal subgroup contains S."""
        return all(smask & ~m for m in self.maximal_subgroups)

    def power_steps_to_full(self, smask: int) -> int | None:
        """Smallest j with S^j = G (S contains 1), or None if <S> != G."""
        full = (1 << self.n) - 1
        rows = self.rows(smask)
        t = smask
        if t == full:
            return 1
        frontier = smask
        j = 1
        while True:
            add = 0
            for v in bits_of(frontier):
                add |= rows[v]
            new = t | add
            j += 1
            if new == full:
                return j
            if new == t:
                return None
            frontier = new & ~t
            t = new

    def scan(self, smask: int, ks: tuple[int, ...], *, rev: bool = False,
             collect: str = "alpha"):
        """Pinned connectivity scan of Cay(G, S) or its reverse."""
        # the reverse graph of Cay(G, S) is Cay(G, S^-1)
        rows = self.rows(inverse_mask(self.group, smask) if rev else smask)
        return subset_scan(rows, self.n, ks, pin0=True, collect=collect)

    def image_table(self, rev: bool = False) -> np.ndarray:
        """T[s, y] = mask of X_y*s (X_y*s^-1 if rev), over the pinned sets
        X_y = {1} u {x : bit x-1 of y}."""
        cols = self._bitcol[:, self.group.inv] if rev else self._bitcol
        return np.ascontiguousarray(or_table(cols[0], cols[1:]).T)

    def sweep(self, ks: tuple[int, ...], collect: str, rev: bool = False):
        """Pinned connectivity scans of Cay(G, S), or of its reverse, for
        every S containing 1.

        Yields ``(smask, {k: ScanResult})`` in the ascending order of
        ``subsets_with_identity()``; each result equals
        ``scan(smask, ks, rev=rev, collect=collect)`` at the levels
        "none", "alpha" and "atoms".  The image of X under S is the OR of
        ``image_table(rev)[s]`` over s in S.  The low bits of S index a
        table of partial images built once; each block ORs in the image
        of the high bits and reduces every row (one S) in a single pass.
        A block holds at most ``2**_BLOCK_BITS`` (S, X) entries, which
        bounds memory.  The reverse sweep builds its own table from the
        inverses and never reads forward results, so comparing the two
        directions checks something.  Groups of order at most 16.
        """
        if collect not in ("none", "alpha", "atoms"):
            raise ValueError(f"sweep collects 'none', 'alpha' or 'atoms', not {collect!r}")
        n = self.n
        if n > 16:
            raise ValueError("sweep keys fit groups of order at most 16")
        free = n - 1
        t = self.image_table(rev)
        lo = min(free, max(0, _BLOCK_BITS - free))
        low = or_table(t[0], t[1:lo + 1])
        # key = 16 |XS \ X| + |X| - 1 (mod 256) orders X by boundary, then
        # size, so one row minimum carries kappa and alpha.  X is feasible
        # for k when |X| >= k and |XS| <= n - k; the others get key 255,
        # above every feasible key (boundary < 15).
        pcx = np.bitwise_count(np.arange(1 << free, dtype=np.uint32)) + np.uint8(1)
        offset = np.uint8(15) * pcx + np.uint8(1)
        limit = {k: np.where(pcx >= k, n - k, 0).astype(np.uint8) for k in ks}
        blk = np.empty_like(low)
        pc, key, kk = (np.empty(low.shape, dtype=np.uint8) for _ in range(3))
        flag = np.empty(low.shape, dtype=bool)

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
            np.bitwise_count(blk, out=pc)
            np.multiply(pc, 16, out=key)
            np.subtract(key, offset, out=key)
            out = [{} for _ in range(1 << lo)]
            for k in ks:
                np.greater(pc, limit[k], out=flag)
                np.negative(flag.view(np.uint8), out=kk)
                np.bitwise_or(kk, key, out=kk)
                m = kk.min(axis=1)
                if collect != "none":
                    np.less_equal(kk, (m | 15)[:, None], out=flag)
                    # a row holds at most 2^15 entries, so uint16 counts them
                    counts = np.add.reduce(flag.view(np.uint8), axis=1,
                                           dtype=np.uint16).tolist()
                if collect == "atoms":
                    np.equal(kk, m[:, None], out=flag)
                    flag[m == 0xFF] = False
                    at = np.flatnonzero(flag)
                    xs = ((at & ((1 << free) - 1)) << 1 | 1).tolist()
                    ends = [0, *np.cumsum(np.bincount(at >> free, minlength=len(m))).tolist()]
                for i, v in enumerate(m.tolist()):
                    if v == 0xFF:
                        res = ScanResult(False, n - 2 * k + 1, None, None, None, None)
                    elif collect == "none":
                        res = ScanResult(True, v >> 4, None, None, None, None)
                    else:
                        found = tuple(xs[ends[i]:ends[i + 1]]) if collect == "atoms" else None
                        res = ScanResult(True, v >> 4, (v & 15) + 1, found, None, counts[i])
                    out[i][k] = res
            for res in out:
                yield smask, res
                smask += 2
