"""Exact isoperimetric connectivity: kappa_k, fragments, atoms, omega.

The k-th connectivity of a reflexive graph is the minimum boundary size
|Gamma(X) \\ X| over finite X with |X| >= k and at least k vertices
outside Gamma(X).  Minimizers are k-fragments; minimum-cardinality
minimizers are k-atoms.  When no X qualifies the graph is non
k-separable and kappa_k = |V| - 2k + 1 by convention, with every
k-subset counting as a fragment and an atom.

Everything here is exact.  ``subset_scan`` rests on the closure lemma:
every k-fragment X is closed, X = V \\ (V \\ XB)B^-1, that is no vertex v
outside X has vB inside XB; otherwise X u {v} would be feasible with the
same image and a boundary one smaller.  So the scan reads only sets that
pass a closure filter built once per call.  The free vertices split into
two halves, and a set y of one half is kept unless some vertex of that
half outside y has its row inside y's image; a closed X has a kept set on
either side.  ``or_table`` builds every image table, here and in the
catalog sweeps, by doubling over the power set; one vectorized test
against a cached set-by-vertex matrix filters each half's table.  A chunk
is the outer OR of as many kept sets of the high half as fit in 2^16
cells against every kept set of the low half (image and popcount buffers
of about 320 KB, within a 2 MB L2 cache), both in popcount order, so that
a (row class, column class) block is a rectangle and |X| is the sum of
the two classes.  Split by s = |X|, kappa_k is the least min |XB| - s
over the classes s >= k, and since |XB| <= |V| - k is the feasibility
bound, a class is feasible exactly when its minimum is; so one popcount
and two ``minimum.reduceat`` per chunk give kappa and alpha, and
fragments are counted and listed only in the blocks of a chunk that can
still tie.  For vertex-transitive graphs the scan can be pinned to
subsets containing vertex 0, which loses nothing: translating a
qualifying set by a graph automorphism preserves its boundary size.
``_Reducer``, the kernel of the catalog sweeps (``GroupScan.sweep``),
still reads every subset: it reduces each row of a block (one S) to one
key per subset, whose row minimum gives kappa and alpha, and fragments
and atoms come from the same keys.

Single-graph queries scan only what they return.  ``kappa`` (below the
flow threshold), ``alpha``, ``atoms``, ``omega`` and ``classify`` read
cached atoms-level records, scanned at collect "atoms": no fragment is
listed.  One scan serves the pair k = 2j - 1, 2j (each with 2k - 1 <= |V|)
and is cached per (graph, pair, sign), since the queries ask for kappa_1
and kappa_2 together and a scan for both costs little more than one for
either.  Above 16 vertices a vertex-transitive graph's records are
scanned through vertex 0 and their few atoms expanded by the
translations.  ``profile``, ``fragments`` and the ``check_*``
functions read the full profile, scanned at collect "all" and never
pinned, since mapping every fragment by every translation costs far more
than the half of the scan that pinning saves; it takes kappa, alpha, the
atoms and omega from the same record builder.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .digraph import FWD, REV, Digraph, GraphError, image_mask, _k_subset_masks
from .groups import FiniteGroup, GroupError, closure_mask, subgroup_as_group
from .sets import ElementSet, bits_of, randrange_draws

# at most 2^16 subsets per chunk (as many kept sets of the high half as fit
# against all of the low half's): an image (uint32) and a popcount
# (uint8) buffer, about 320 KB, L2-sized.  GroupScan.sweep's blocks hold as
# many (S, X) pairs, in about 1 MB of image tables and key buffers, which
# 2^17 would double.
_CHUNK_BITS = 16
_EXHAUSTIVE_CAP = 24
_INEQUALITY_CAP = 20  # verify_isoperimetric_inequality holds 2^n arrays
_FLOW_THRESHOLD = 20  # above this, kappa_1 goes through max-flow


@lru_cache(maxsize=None)
def _pc_of_indices(bits: int) -> np.ndarray:
    """The popcount of every y < 2^bits (uint8)."""
    return np.bitwise_count(np.arange(1 << bits, dtype=np.uint32))


def or_table(base, gens) -> np.ndarray:
    """uint32 table with ``out[y] = base | OR of gens[j] over the set bits j
    of y``.  ``base`` and every ``gens[j]`` are int masks or uint32 arrays
    of one shape; the table doubles along its first axis, one slice per gen."""
    out = np.empty((1 << len(gens), *np.shape(base)), dtype=np.uint32)
    out[0] = base
    for j, gen in enumerate(gens):
        np.bitwise_or(out[:1 << j], gen, out=out[1 << j:2 << j])
    return out


class ScanResult(NamedTuple):
    separable: bool
    kappa: int
    alpha: int | None
    atom_masks: tuple[int, ...] | None
    frag_masks: tuple[int, ...] | None
    frag_count: int | None


@lru_cache(maxsize=None)
def _small_columns(bits: int, t: int) -> tuple[int, ...]:
    """The few y < 2^bits with fewer than t bits set."""
    return tuple(y for j in range(t) for y in _k_subset_masks(bits, j))


def _check_ks(n: int, ks: tuple[int, ...]) -> None:
    if any(k < 1 or 2 * k - 1 > n for k in ks):
        raise ValueError(f"kappa_k needs 1 <= k and 2k - 1 <= {n}, not ks={ks!r}")


class _Reducer:
    """Reduces 2-D uint32 blocks of images XB to ``ScanResult`` fields:
    the kernel of ``catalog.GroupScan.sweep``.

    Each row of a block is one scan; column y holds the image of X = y,
    or ``y << 1 | 1`` when ``pin`` keeps vertex 0 in X.  Each (row, k)
    minimises the key ``(|XB| - |X|) << w | (|X| - 1)``, uint8 with w = 4
    up to 16 vertices and uint16 with w = 5 above, or the maximum when X
    is infeasible (|X| < k, or fewer than k vertices outside XB).  The
    buffers, allocated once, hold ``~key``: a multiply by the feasibility
    flags sends an infeasible X to 0, and the row maximum is ~(min key).
    """

    def __init__(self, shape: tuple[int, int], n: int, ks: tuple[int, ...],
                 collect: str, pin: bool):
        _check_ks(n, ks)
        self.n, self.ks, self.collect, self.pin = n, ks, collect, pin
        self.bits = shape[1].bit_length() - 1
        self.w, dtype = (4, np.uint8) if n <= 16 else (5, np.uint16)
        self.top = np.iinfo(dtype).max
        self.size = _pc_of_indices(self.bits) + pin  # |X|
        # a row's fragment count is at most its column count
        self.count_dtype = np.uint16 if self.bits < 16 else np.uint32
        self.pc = np.empty(shape, dtype=np.uint8)
        self.key = np.empty(shape, dtype=dtype)
        # with one k, ~key is masked in place and the flags overwrite |XB|
        one = len(ks) == 1
        self.kk = self.key if one else np.empty(shape, dtype=dtype)
        self.flag = self.pc.view(bool) if one else np.empty(shape, dtype=bool)

    def _masks(self, m: np.ndarray) -> list[tuple[int, ...]]:
        """Per row, the flagged X, ascending; none where no X is feasible."""
        self.flag[m == 0] = False
        at = np.flatnonzero(self.flag)  # 2-D np.nonzero is many times slower
        per_row = np.bincount(at >> self.bits, minlength=len(m)).tolist()
        pin = self.pin
        xs = iter(((at & ((1 << self.bits) - 1)) << pin | pin).tolist())
        return [tuple(islice(xs, count)) for count in per_row]

    def __call__(self, img: np.ndarray) -> list[dict[int, ScanResult]]:
        """Per row of ``img``, the result of each k over the row's X."""
        pc, key, kk, flag = self.pc, self.key, self.kk, self.flag
        n, w, top, collect = self.n, self.w, self.top, self.collect
        low = (1 << w) - 1
        np.bitwise_count(img, out=pc)
        # ~key = -1 - key = 2^w (|X| - |XB|) - |X|, mod 2^8 or 2^16
        np.subtract(self.size, pc, out=key, dtype=key.dtype)
        np.multiply(key, 1 << w, out=key)
        np.subtract(key, self.size, out=key)
        out: list[dict[int, ScanResult]] = [{} for _ in range(len(img))]
        for k in self.ks:
            np.less_equal(pc, n - k, out=flag)
            if k > self.pin:
                flag[:, _small_columns(self.bits, k - self.pin)] = False
            np.multiply(key, flag.view(np.uint8), out=kk)
            m = kk.max(axis=1)
            counts = atoms = frags = [None] * len(m)
            if collect != "none":
                # fragments: key <= kappa << w | low, that is ~key >= m & ~low
                np.greater_equal(kk, (m & (top - low))[:, None], out=flag)
                counts = np.add.reduce(flag.view(np.uint8), axis=1,
                                       dtype=self.count_dtype).tolist()
            if collect == "all":
                frags = self._masks(m)
            if collect in ("atoms", "all"):
                np.equal(kk, m[:, None], out=flag)
                atoms = self._masks(m)
            nonsep = ScanResult(False, n - 2 * k + 1, None, None, None, None)
            for i, v in enumerate(m.tolist()):
                v = top - v
                alpha = None if collect == "none" else (v & low) + 1
                out[i][k] = nonsep if v == top else ScanResult(
                    True, v >> w, alpha, atoms[i], frags[i], counts[i])
        return out


@lru_cache(maxsize=None)
def _classes(bits: int) -> tuple[np.ndarray, list[int]]:
    """The y < 2^bits ordered by popcount, ascending within a popcount,
    and the bounds of the popcount classes 0..bits in that order."""
    pc = _pc_of_indices(bits)
    order = np.argsort(pc, kind="stable")
    return order, np.searchsorted(pc[order], np.arange(bits + 2)).tolist()


class _Half(NamedTuple):
    """The sets y of one half of the free vertices that pass the closure
    filter, in popcount order."""

    img: np.ndarray  # the image of each y (uint32), ``rows[0]`` included when pinned
    xs: np.ndarray  # y as a vertex mask (uint32), vertex 0 included when pinned
    starts: list[int]  # where each nonempty popcount class begins ...
    sizes: list[int]  # ... and the |X| it adds


@lru_cache(maxsize=None)
def _half_layout(bits: int, shift: int,
                 pin: int) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """For the sets y of ``bits`` vertices in ``_classes(bits)`` order:
    the class bounds and that order, the y-by-bit matrix ``outside[j, y]``
    (bit j of y clear), and the vertex masks ``y << shift | pin``."""
    order, bounds = _classes(bits)
    # uint16, not int64, keeps the temporaries small at 12 bits
    bit = np.left_shift(1, np.arange(bits, dtype=np.uint16))[:, None]
    outside = (order.astype(np.uint16) & bit) == 0
    return bounds, order, outside, (order << shift | pin).astype(np.uint32)


def _closed_half(base: int, gens: Sequence[int], shift: int, pin: int) -> _Half:
    """The sets y of the vertices whose rows are ``gens`` (bit j of y is
    vertex j + ``shift``) that no vertex outside y can join for free: y is
    dropped when some j outside y has ``gens[j]`` inside y's image,
    ``base`` OR the rows of y.  ``pin`` is 1 when vertex 0, below
    ``shift``, belongs to every y."""
    bounds, order, outside, xs = _half_layout(len(gens), shift, pin)
    img = or_table(base, gens)[order]
    g = np.array(gens, dtype=np.uint32)[:, None]
    joins = ((g | img) == img) & outside
    kept = np.flatnonzero(~joins.any(axis=0))
    bd = np.searchsorted(kept, bounds).tolist()
    cs = [c for c in range(len(gens) + 1) if bd[c] < bd[c + 1]]
    return _Half(img[kept], xs[kept], [bd[c] for c in cs], [c + pin for c in cs])


def _closed_halves(rows: Sequence[int], n: int, pin: int) -> tuple[_Half, _Half]:
    """The kept sets of the low half (the first ceil(m/2) of the m free
    vertices) and of the high half.  A set is kept when no vertex of its
    half outside it has its row inside its image, taken with ``rows[0]``
    when pinned; every closed X meets each half in a kept set, though not
    every pair of kept sets is closed."""
    free = rows[1:n] if pin else rows[:n]
    la = (len(free) + 1) // 2
    base = rows[0] if pin else 0
    return (_closed_half(base, free[:la], pin, pin),
            _closed_half(base, free[la:], la + pin, 0))


def subset_scan(
    rows: Sequence[int],
    n: int,
    ks: tuple[int, ...],
    *,
    pin0: bool = False,
    collect: str = "all",
) -> dict[int, ScanResult]:
    """Scan every subset X (optionally only X containing vertex 0) that
    can be a fragment.

    ``rows`` must be reflexive adjacency masks.  Returns per requested
    (distinct) k the exact connectivity data at the ``collect`` level: "none" (kappa
    and separability), "alpha" (plus atom cardinality and fragment
    count), "atoms" (plus atom masks), "all" (plus every fragment mask),
    masks ascending.  A k outside 1 <= k, 2k - 1 <= n raises ``ValueError``.

    Every fragment X is closed: no v outside X has vB inside XB, since
    X u {v} would be feasible with the same image and a boundary one
    smaller.  The same holds for the minimisers through vertex 0 of a
    pinned scan, and a feasible X that is not closed grows into a closed
    one, so the closed X give the same kappa, alpha and fragments as all
    X.  The m free vertices split into a low half (the first ceil(m/2))
    and a high half.  A closed X meets each half in a set y that no
    vertex of that half outside y can join for free, its row inside the
    image of y (with ``rows[0]`` when pinned); ``_closed_halves`` keeps
    those y, in popcount order, and the scan reads only their pairs.

    The kept sets of the high half are the rows, those of the low half
    the columns.  A chunk is as many rows, of any class, as fit in
    2^``_CHUNK_BITS`` cells against every column: one outer OR, one
    popcount, and a ``minimum.reduceat`` along the columns and one along
    the rows give the least |XB| of each (row class, column class)
    block, whose anti-diagonals are the |X| classes.  Since |XB| <= n - k
    is the feasibility bound, a class is feasible exactly when its
    minimum is, and the chunk's kappa_k is the least ``min |XB| - |X|``
    over the feasible classes with |X| >= k.  A chunk whose kappa exceeds
    the running one is dropped; otherwise fragments are counted only in
    the blocks that hold their class minimum, and masks listed only from
    the classes that attain kappa (atoms from the least such class, when
    it does not exceed the running alpha).  The masks are sorted at the
    end.  ``catalog.GroupScan.sweep`` has no such filter: its
    ``_Reducer`` reads every subset.
    """
    if collect not in ("none", "alpha", "atoms", "all"):
        raise ValueError(f"unknown collect level {collect!r}")
    if len(set(ks)) != len(ks):
        raise ValueError(f"repeated k in {ks!r}")
    _check_ks(n, ks)
    # a column per kept set of the low half, a row per kept set of the high
    ch, rh = _closed_halves(rows, n, int(pin0))
    width, height = len(ch.xs), len(rh.xs)
    per = max(1, (1 << _CHUNK_BITS) // width)  # rows per chunk
    img = np.empty((min(per, height), width), dtype=np.uint32)
    pc = np.empty(img.shape, dtype=np.uint8)
    col = {size: c for c, size in enumerate(ch.sizes)}  # the column class of each size
    col_bd = ch.starts + [width]
    row_bd = rh.starts + [height]
    diag = np.add.outer(rh.sizes, ch.sizes)  # |X| of each block
    runs: dict[int, list] = {}  # k -> [kappa, alpha, count, atom arrays, fragment arrays]

    def found(s):
        # the blocks of class s whose least |XB| is cm[s], with those X flagged
        if s not in hits:
            hits[s] = []
            for i in range(i0, i1):
                c = col.get(s - rh.sizes[i])
                if c is not None and grid[i - i0][c] == cm[s]:
                    at = (slice(max(row_bd[i], r0) - r0, min(row_bd[i + 1], r1) - r0),
                          slice(col_bd[c], col_bd[c + 1]))
                    hits[s].append((at, pc[at] == cm[s]))
        return hits[s]

    def listed(s):
        # the masks X of class s with |XB| = cm[s]
        if s not in lists:
            lists[s] = np.concatenate([(row_xs[rs, None] | ch.xs[cs])[hit]
                                       for (rs, cs), hit in found(s)])
        return lists[s]

    def tally(s):
        # how many X of class s have |XB| = cm[s]
        if s not in counts:
            counts[s] = sum(int(np.count_nonzero(hit)) for _, hit in found(s))
        return counts[s]

    for r0 in range(0, height, per):
        r1 = min(r0 + per, height)
        i0 = bisect_right(rh.starts, r0) - 1
        i1 = bisect_left(rh.starts, r1)
        row_xs = rh.xs[r0:r1]
        np.bitwise_or(rh.img[r0:r1, None], ch.img, out=img[:r1 - r0])
        np.bitwise_count(img[:r1 - r0], out=pc[:r1 - r0])
        grid = np.minimum.reduceat(
            np.minimum.reduceat(pc[:r1 - r0], ch.starts, axis=1),
            [max(st, r0) - r0 for st in rh.starts[i0:i1]], axis=0)
        # class s holds the chunk's X with |X| = s, and cm[s] is its least |XB|
        cm = np.full(n + 1, 255, dtype=np.uint8)
        np.minimum.at(cm, diag[i0:i1], grid)
        cm = cm.tolist()
        grid, hits, lists, counts = None if collect == "none" else grid.tolist(), {}, {}, {}
        for k in ks:
            feasible = [s for s in range(k, n + 1) if cm[s] <= n - k]
            if not feasible:
                continue
            kap, al = min((cm[s] - s, s) for s in feasible)
            run = runs.get(k)
            if run is None or kap < run[0]:
                run = runs[k] = [kap, al, 0, [], []]
            elif kap > run[0]:
                continue
            if collect == "none":
                continue
            if al < run[1]:
                run[1], run[3] = al, []
            if collect in ("atoms", "all") and al == run[1]:
                run[3].append(listed(al))
            attain = [s for s in feasible if cm[s] - s == kap]
            if collect == "all":
                run[4] += [listed(s) for s in attain]
            run[2] += sum(tally(s) for s in attain)

    def masks(arrays):
        return tuple(np.sort(np.concatenate(arrays)).tolist())

    out: dict[int, ScanResult] = {}
    for k in ks:
        if k not in runs:
            out[k] = ScanResult(False, n - 2 * k + 1, None, None, None, None)
            continue
        kap, alpha, frag_count, atoms, frags = runs[k]
        out[k] = ScanResult(
            True, kap, None if collect == "none" else alpha,
            masks(atoms) if collect in ("atoms", "all") else None,
            masks(frags) if collect == "all" else None,
            None if collect == "none" else frag_count)
    return out


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsoProfile:
    """Connectivity record for one (k, sign) of a graph.

    For non-separable graphs ``fragments``/``atoms`` are None and the
    convention values apply: every k-subset is a fragment and an atom.
    """

    k: int
    sign: str
    separable: bool
    kappa: int
    alpha: int
    omega: int
    atoms: tuple[ElementSet, ...] | None
    fragments: tuple[ElementSet, ...] | None
    fragments_count: int


def _require_scannable(g: Digraph, k: int) -> None:
    if k < 1:
        raise GraphError("k must be >= 1")
    if not g.reflexive:
        raise GraphError("isoperimetric quantities need a reflexive graph")
    if g.n < 2 * k - 1:
        raise GraphError(f"kappa_{k} undefined: need at least {2 * k - 1} vertices")


def _translate_mask(mask: int, perm: Sequence[int]) -> int:
    out = 0
    m = mask
    while m:
        low = m & -m
        out |= 1 << perm[low.bit_length() - 1]
        m ^= low
    return out


def _expand_by_translation(
    masks: Sequence[int], translations: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    seen = set()
    for perm in translations:
        for m in masks:
            seen.add(_translate_mask(m, perm))
    return tuple(sorted(seen))


class _AtomRecord(NamedTuple):
    """kappa_k, alpha_k, the k-atom masks (ascending) and omega_k of one
    (graph, k, sign); ``atom_masks`` is None for a non-separable graph."""

    separable: bool
    kappa: int
    alpha: int
    omega: int
    atom_masks: tuple[int, ...] | None


def _atom_record(g: Digraph, k: int, res: ScanResult, pinned: bool) -> _AtomRecord:
    """The atoms-level record from a scan at collect "atoms" or "all".  A
    pinned scan found the atoms through vertex 0; every atom translates
    onto one of those, so their translates are all the atoms."""
    n = g.n
    if not res.separable:
        return _AtomRecord(False, res.kappa, k, math.comb(n - 1, k - 1), None)
    atom_masks = res.atom_masks
    if pinned:
        atom_masks = _expand_by_translation(atom_masks, g.translations)
    per_vertex = [0] * n
    for m in atom_masks:
        for v in bits_of(m):
            per_vertex[v] += 1
    return _AtomRecord(True, res.kappa, res.alpha, min(per_vertex), atom_masks)


@lru_cache(maxsize=128)
def _atoms_impl(g: Digraph, j: int, sign: str) -> dict[int, _AtomRecord]:
    # one scan for k = 2j - 1 and 2j; pinning halves it, and the few
    # atoms expand cheaply
    pin = g.transitive and g.n > 16
    ks = tuple(k for k in (2 * j - 1, 2 * j) if 2 * k - 1 <= g.n)
    res = subset_scan(g.rows_for(sign), g.n, ks, pin0=pin, collect="atoms")
    return {k: _atom_record(g, k, res[k], pin) for k in ks}


@lru_cache(maxsize=128)
def _profile_impl(g: Digraph, k: int, sign: str) -> IsoProfile:
    # unpinned: expanding every fragment by every translation costs far
    # more than the half of the scan that pinning saves
    res = subset_scan(g.rows_for(sign), g.n, (k,), collect="all")[k]
    rec = _atom_record(g, k, res, False)
    n = g.n
    if not rec.separable:
        return IsoProfile(k=k, sign=sign, separable=False, kappa=rec.kappa,
                          alpha=rec.alpha, omega=rec.omega, atoms=None,
                          fragments=None, fragments_count=math.comb(n, k))
    frag_masks = res.frag_masks
    return IsoProfile(
        k=k,
        sign=sign,
        separable=True,
        kappa=rec.kappa,
        alpha=rec.alpha,
        omega=rec.omega,
        atoms=tuple(ElementSet(n, m) for m in rec.atom_masks),
        fragments=tuple(ElementSet(n, m) for m in frag_masks),
        fragments_count=len(frag_masks),
    )


def _require_exhaustive(g: Digraph, k: int) -> None:
    _require_scannable(g, k)
    if g.n > _EXHAUSTIVE_CAP:
        raise GraphError(
            f"exhaustive enumeration is capped at {_EXHAUSTIVE_CAP} vertices "
            f"(graph has {g.n}); refusing to approximate"
        )


def _atoms_level(g: Digraph, k: int, sign: str) -> _AtomRecord:
    """The cached atoms-level record (enumerative; |V| capped at 24)."""
    _require_exhaustive(g, k)
    return _atoms_impl(g, (k + 1) // 2, sign)[k]


def profile(g: Digraph, k: int, sign: str = FWD) -> IsoProfile:
    """Full exact connectivity profile (enumerative; |V| capped at 24)."""
    _require_exhaustive(g, k)
    return _profile_impl(g, k, sign)


def kappa(g: Digraph, k: int, sign: str = FWD) -> int:
    """kappa_k, exact.  k=1 on graphs above 20 vertices goes through flow."""
    if k == 1 and g.n > _FLOW_THRESHOLD:
        _require_scannable(g, k)
        from .menger import kappa1_flow
        from .digraph import reverse

        return kappa1_flow(g if sign == FWD else reverse(g))
    return _atoms_level(g, k, sign).kappa


def fragments(g: Digraph, k: int, sign: str = FWD) -> Iterator[ElementSet]:
    """All k-fragments in increasing bitmask order (streamed when the
    graph is non-separable and the convention lists every k-subset)."""
    p = profile(g, k, sign)
    if p.separable:
        return iter(p.fragments)
    n = g.n
    return (ElementSet(n, m) for m in _k_subset_masks(n, k))


def atoms(g: Digraph, k: int, sign: str = FWD) -> tuple[int, tuple[ElementSet, ...]]:
    """(alpha_k, all k-atoms).  Non-separable graphs list every k-subset."""
    rec = _atoms_level(g, k, sign)
    masks = rec.atom_masks if rec.separable else _k_subset_masks(g.n, k)
    return rec.alpha, tuple(ElementSet(g.n, m) for m in masks)


def omega(g: Digraph, k: int, sign: str = FWD) -> int:
    """Minimum over vertices of the number of k-atoms containing it."""
    return _atoms_level(g, k, sign).omega


def alpha(g: Digraph, k: int, sign: str = FWD) -> int:
    return _atoms_level(g, k, sign).alpha


# ---------------------------------------------------------------------------
# subset classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetInvariants:
    """Connectivity invariants of a generating-or-not subset S with 1 in S.

    Quantities live in the subgroup generated by S.  ``kappa2``/``mu``
    are None when that subgroup has fewer than 3 elements.
    """

    delta: int
    kappa1: int
    kappa2: int | None
    mu: int | None
    cauchy: bool
    vosper: bool
    two_separable: bool
    generates: bool
    hull_order: int


def cayley_in_hull(g: FiniteGroup, s: ElementSet) -> tuple[Digraph, FiniteGroup]:
    """Cay(<S>, S): the Cayley graph of S inside the subgroup it generates."""
    from .digraph import cayley_graph

    if 0 not in s:
        raise GroupError("subset invariants need the identity in S")
    hull = closure_mask(g, s.mask)
    if hull == (1 << g.order) - 1:
        return cayley_graph(g, s), g
    sub, elems = subgroup_as_group(g, ElementSet(g.order, hull))
    pos = {e: i for i, e in enumerate(elems)}
    s_sub = ElementSet(sub.order, [pos[e] for e in s])
    return cayley_graph(sub, s_sub), sub


def classify(g: FiniteGroup, s: ElementSet) -> SubsetInvariants:
    """Cauchy/Vosper classification and the defect of S (inside <S>)."""
    graph, hull_group = cayley_in_hull(g, s)
    n = graph.n
    delta = len(s)
    k1 = kappa(graph, 1)
    if n >= 3:
        r2 = _atoms_level(graph, 2, FWD)
        k2, mu, two_sep = r2.kappa, r2.kappa - delta, r2.separable
    else:
        k2 = mu = None
        two_sep = False
    vosper = (not two_sep) or (k2 is not None and k2 >= delta)
    return SubsetInvariants(
        delta=delta,
        kappa1=k1,
        kappa2=k2,
        mu=mu,
        cauchy=(k1 == delta - 1),
        vosper=vosper,
        two_separable=two_sep,
        generates=(n == g.order),
        hull_order=n,
    )


# ---------------------------------------------------------------------------
# structural checks (each returns a CheckResult instead of asserting)
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    ok: bool
    checked: int
    counterexamples: list[dict]

    def __bool__(self) -> bool:
        return self.ok


def _frag_env(g: Digraph, k: int, sign: str):
    """(kappa, fragment masks, fragment mask set) for one sign."""
    p = profile(g, k, sign)
    if not p.separable:
        return p.kappa, None, None
    masks = tuple(f.mask for f in p.fragments)
    return p.kappa, masks, frozenset(masks)


def check_duality(g: Digraph, k: int) -> CheckResult:
    """kappa_k == kappa_-k, plus the boundary identities linking every
    forward fragment X to its far side X^wedge."""
    _require_scannable(g, k)
    pf = profile(g, k, FWD)
    pr = profile(g, k, REV)
    ces: list[dict] = []
    checked = 1
    if pf.kappa != pr.kappa:
        ces.append({"what": "kappa mismatch", "fwd": pf.kappa, "rev": pr.kappa})
    if pf.separable and not ces:
        full = (1 << g.n) - 1
        rows_f = g.rows
        rows_r = g.in_rows
        rev_frags = frozenset(f.mask for f in pr.fragments)
        for frag in pf.fragments:
            checked += 1
            xm = frag.mask
            gx = image_mask(rows_f, xm)
            wedge = full & ~gx
            bnd = gx & ~xm
            bnd_rev = image_mask(rows_r, wedge) & ~wedge
            back = full & ~image_mask(rows_r, wedge)
            if bnd_rev != bnd or back != xm or wedge not in rev_frags:
                ces.append(
                    {
                        "what": "fragment duality failure",
                        "fragment": frag.indices(),
                        "boundary": sorted(ElementSet(g.n, bnd)),
                        "reverse_boundary_of_wedge": sorted(ElementSet(g.n, bnd_rev)),
                        "wedge_is_reverse_fragment": wedge in rev_frags,
                    }
                )
    return CheckResult(not ces, checked, ces)


def check_submodularity(
    g: Digraph, samples: int | None = None, seed: int = 0
) -> CheckResult:
    """|bd(X u Y)| + |bd(X n Y)| <= |bd(X)| + |bd(Y)| over set pairs: every
    pair up to 8 vertices, or ``samples`` seeded ``randrange`` pairs (at
    most 32 vertices)."""
    if not g.reflexive:
        raise GraphError("submodularity check needs a reflexive graph")
    n, rows = g.n, g.rows
    full = (1 << n) - 1

    def bnd(m: int) -> int:
        return (image_mask(rows, m) & ~m).bit_count()

    if samples is None:
        if n > 8:
            raise GraphError("exhaustive pair check capped at 8 vertices")
        pairs = (
            (x, y) for x in range(1, full + 1) for y in range(1, full + 1)
        )
    else:
        draws = randrange_draws(random.Random(seed), 1, full + 1, 2 * samples)
        pairs = zip(draws[0::2].tolist(), draws[1::2].tolist())
    checked = 0
    for x, y in pairs:
        checked += 1
        if bnd(x | y) + bnd(x & y) > bnd(x) + bnd(y):
            return CheckResult(
                False,
                checked,
                [{"X": sorted(ElementSet(n, x)), "Y": sorted(ElementSet(n, y))}],
            )
    return CheckResult(True, checked, [])


def check_fragment_intersection(g: Digraph, k: int) -> CheckResult:
    """Closure of fragments under union/intersection, and the atom laws:
    an atom meeting a fragment in >= k points lies inside it, so distinct
    atoms share at most k-1 points (when alpha_k <= alpha_-k)."""
    _require_scannable(g, k)
    sep, _ = _separable(g, k)
    if not sep:
        raise GraphError("fragment intersection needs a k-separable graph")
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    kap, masks, frag_set = _frag_env(g, k, FWD)
    ces: list[dict] = []
    checked = 0
    wedge_of = {m: full & ~image_mask(rows, m) for m in masks}
    for x in masks:
        for y in masks:
            inter = x & y
            if inter.bit_count() < k:
                continue
            if x.bit_count() - inter.bit_count() + k > wedge_of[y].bit_count():
                continue
            checked += 1
            if inter not in frag_set or (x | y) not in frag_set:
                ces.append(
                    {
                        "what": "union/intersection not fragments",
                        "X": sorted(ElementSet(n, x)),
                        "Y": sorted(ElementSet(n, y)),
                    }
                )
    pf = profile(g, k, FWD)
    pr = profile(g, k, REV)
    a_fwd = pf.alpha
    a_rev = pr.alpha if pr.separable else k
    if a_fwd <= a_rev:
        atom_masks = [a.mask for a in pf.atoms]
        for i, a in enumerate(atom_masks):
            for b in atom_masks[i + 1 :]:
                checked += 1
                if (a & b).bit_count() > k - 1:
                    ces.append(
                        {
                            "what": "distinct atoms overlap too much",
                            "A": sorted(ElementSet(n, a)),
                            "B": sorted(ElementSet(n, b)),
                        }
                    )
            for f in masks:
                if (a & f).bit_count() >= k:
                    checked += 1
                    if a & ~f:
                        ces.append(
                            {
                                "what": "atom not inside fragment it meets",
                                "A": sorted(ElementSet(n, a)),
                                "F": sorted(ElementSet(n, f)),
                            }
                        )
    return CheckResult(not ces, checked, ces)


def _separable(g: Digraph, k: int) -> tuple[bool, int]:
    p = profile(g, k, FWD)
    return p.separable, p.kappa


def check_overlap_bounds(g: Digraph, k: int) -> CheckResult:
    """Boundary/image bounds for ordered fragment pairs (A, F) with
    |A| <= |F^wedge| and |A n F| >= k-1 (needs k >= 2)."""
    if k < 2:
        raise GraphError("overlap bounds need k >= 2")
    _require_scannable(g, k)
    sep, kap = _separable(g, k)
    if not sep:
        raise GraphError("overlap bounds need a k-separable graph")
    kap_prev = kappa(g, k - 1)
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    _, masks, _ = _frag_env(g, k, FWD)
    ces: list[dict] = []
    checked = 0
    img_of = {m: image_mask(rows, m) for m in masks}
    for a in masks:
        ia = img_of[a]
        wa = full & ~ia
        ba = ia & ~a
        for f in masks:
            iff = img_of[f]
            wf = full & ~iff
            if a.bit_count() > wf.bit_count():
                continue
            if (a & f).bit_count() < k - 1:
                continue
            checked += 1
            bf = iff & ~f
            ok = (
                (a & bf).bit_count() <= (ba & wf).bit_count()
                and (ia & iff).bit_count() <= (a & f).bit_count() + kap
                and (wf & ~wa).bit_count() <= (a & ~f).bit_count() + kap - kap_prev
            )
            if not ok:
                ces.append(
                    {
                        "A": sorted(ElementSet(n, a)),
                        "F": sorted(ElementSet(n, f)),
                    }
                )
    return CheckResult(not ces, checked, ces)


def check_dual_order(g: Digraph, k: int) -> CheckResult:
    """X subset-of Y iff Y^wedge subset-of X^wedge, over fragment pairs."""
    _require_scannable(g, k)
    sep, _ = _separable(g, k)
    if not sep:
        raise GraphError("dual order check needs a k-separable graph")
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    _, masks, _ = _frag_env(g, k, FWD)
    wedge_of = {m: full & ~image_mask(rows, m) for m in masks}
    ces: list[dict] = []
    checked = 0
    for x in masks:
        for y in masks:
            checked += 1
            if (x & ~y == 0) != (wedge_of[y] & ~wedge_of[x] == 0):
                ces.append(
                    {"X": sorted(ElementSet(n, x)), "Y": sorted(ElementSet(n, y))}
                )
    return CheckResult(not ces, checked, ces)


def verify_isoperimetric_inequality(g: Digraph, k: int, sign: str = FWD) -> bool:
    """|Gamma(X)| >= min(|V|-k+1, |X|+kappa_k) for every |X| >= k, and
    kappa_k is largest with that property when the graph is separable."""
    _require_scannable(g, k)
    if g.n > _INEQUALITY_CAP:
        raise GraphError(
            f"inequality sweep materializes 2^n arrays; capped at {_INEQUALITY_CAP}")
    rows = g.rows_for(sign)
    n = g.n
    res = subset_scan(rows, n, (k,), collect="none")[k]
    kap = res.kappa
    pc_x = _pc_of_indices(n).astype(np.int16)
    pc_img = np.bitwise_count(or_table(0, rows)).astype(np.int16)
    rel = pc_x >= k
    holds = bool(
        np.all(pc_img[rel] >= np.minimum(n - k + 1, pc_x[rel] + kap))
    )
    if not holds:
        return False
    if res.separable:
        # maximality: some qualifying X attains |Gamma(X)| = |X| + kappa <= n - k
        attains = rel & (pc_img == pc_x + kap) & (pc_img <= n - k)
        return bool(attains.any())
    return True
