"""Reflexive directed graphs with vertex-boundary calculus.

Adjacency is one bitmask per vertex, so the image of a set is a short
OR-loop and whole-powerset scans (see :mod:`isoperim.iso`) stay cheap.
"""

from __future__ import annotations

import json
import random
from typing import Iterable, Sequence

import numpy as np

from .groups import FiniteGroup, GroupError, elem_mul_mask
from .sets import ElementSet, bits_of

FWD = "fwd"
REV = "rev"


class GraphError(ValueError):
    """Raised for malformed graphs or invalid graph arguments."""


def _check_sign(sign: str) -> None:
    if sign not in (FWD, REV):
        raise GraphError(f"sign must be '{FWD}' or '{REV}', got {sign!r}")


class Digraph:
    """Directed graph on vertices 0..n-1 with bitmask adjacency rows.

    ``rows[u]`` holds the successors of u.  ``translations``, when given
    (the Cayley constructor does), carries vertex permutations acting as
    automorphisms, one per vertex, with ``translations[a][0] == a``; they
    are checked at construction, so they prove the graph vertex-transitive
    and ``transitive`` is derived from them.  Graphs are equal when their
    rows and ``translations`` are, since atoms records pinned under the
    translations are cached apart from those of the plain graph.
    """

    __slots__ = ("n", "rows", "translations", "_in_rows", "_reflexive", "_hash")

    def __init__(
        self,
        rows: Sequence[int],
        *,
        translations: tuple[tuple[int, ...], ...] | None = None,
    ):
        n = len(rows)
        if n == 0:
            raise GraphError("graph needs at least one vertex")
        full = (1 << n) - 1
        for u, r in enumerate(rows):
            if r < 0 or r & ~full:
                raise GraphError(f"adjacency row {u} has bits outside 0..{n - 1}")
        rows = tuple(int(r) for r in rows)
        if translations is not None:
            translations = _checked_translations(rows, translations)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "translations", translations)
        object.__setattr__(self, "_hash", hash((rows, translations)))
        object.__setattr__(self, "_in_rows", None)
        object.__setattr__(
            self, "_reflexive", all((r >> v) & 1 for v, r in enumerate(self.rows))
        )

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    @property
    def transitive(self) -> bool:
        """Vertex-transitive, as proved by the checked translations."""
        return self.translations is not None

    @property
    def reflexive(self) -> bool:
        return self._reflexive

    @property
    def in_rows(self) -> tuple[int, ...]:
        cached = self._in_rows
        if cached is None:
            n = self.n
            acc = [0] * n
            for u, r in enumerate(self.rows):
                bit = 1 << u
                for v in bits_of(r):
                    acc[v] |= bit
            cached = tuple(acc)
            object.__setattr__(self, "_in_rows", cached)
        return cached

    def rows_for(self, sign: str) -> tuple[int, ...]:
        _check_sign(sign)
        return self.rows if sign == FWD else self.in_rows

    def has_arc(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def arcs(self) -> Iterable[tuple[int, int]]:
        for u, r in enumerate(self.rows):
            for v in bits_of(r):
                yield (u, v)

    def min_out_valency(self) -> int:
        return min(r.bit_count() for r in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self._hash == other._hash
            and self.rows == other.rows
            and self.translations == other.translations
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        tag = ", transitive" if self.transitive else ""
        return f"Digraph(n={self.n}, arcs={sum(r.bit_count() for r in self.rows)}{tag})"


def _checked_translations(rows: tuple[int, ...], perms) -> tuple[tuple[int, ...], ...]:
    """``perms`` as a tuple of tuples; GraphError unless each perms[a] is a
    permutation p of the vertices with p[0] == a and rows[p[u]] == p(rows[u])."""
    n = len(rows)
    try:
        perms = tuple(map(tuple, perms))
        p = np.array(perms, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"translations must be {n} vertex permutations: {exc}") from exc
    ident = np.arange(n)
    if p.shape != (n, n) or (p[:, 0] != ident).any() or (np.sort(p, axis=1) != ident).any():
        raise GraphError(
            f"translations must be {n} vertex permutations p_a with p_a[0] == a"
        )
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), np.uint8)
    adj = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")
    # arc (u, v) must map to arc (p[u], p[v]); blocks of translations
    # keep the n^3 gather near 2^20 entries
    step = max(1, (1 << 20) // (n * n))
    for lo in range(0, n, step):
        q = p[lo:lo + step]
        if (adj.take(q[:, :, None] * n + q[:, None, :]) != adj).any():
            raise GraphError("a translation is not an automorphism of the graph")
    return perms


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def cayley_graph(g: FiniteGroup, s: ElementSet) -> Digraph:
    """Cay(G, S): arc (x, y) iff x^-1 y in S.  Requires identity in S."""
    if s.universe != g.order:
        raise GroupError(
            f"universe mismatch: S lives in 0..{s.universe - 1}, group order {g.order}"
        )
    if 0 not in s:
        raise GraphError("Cayley construction requires the identity in S")
    rows = [elem_mul_mask(g, x, s.mask) for x in range(g.order)]
    return Digraph(rows, translations=g.table)


def reverse(g: Digraph) -> Digraph:
    """The reverse graph; translations keep acting as automorphisms."""
    return Digraph(g.in_rows, translations=g.translations)


def reflexive_closure(g: Digraph) -> Digraph:
    rows = [r | (1 << v) for v, r in enumerate(g.rows)]
    return Digraph(rows, translations=g.translations)


def random_reflexive_digraph(
    rng: random.Random, n: int, p: float | None = None
) -> Digraph:
    """Seeded random digraph with all loops; arc density p (drawn if None)."""
    if p is None:
        p = rng.uniform(0.15, 0.85)
    rows = []
    for u in range(n):
        row = 1 << u
        for v in range(n):
            if v != u and rng.random() < p:
                row |= 1 << v
        rows.append(row)
    return Digraph(rows)


# ---------------------------------------------------------------------------
# boundary calculus
# ---------------------------------------------------------------------------


def image_mask(rows: Sequence[int], xmask: int) -> int:
    out = 0
    for v in bits_of(xmask):
        out |= rows[v]
    return out


def _as_mask(g: Digraph, x: ElementSet) -> int:
    if x.universe != g.n:
        raise GraphError(
            f"universe mismatch: set lives in 0..{x.universe - 1}, graph has {g.n} vertices"
        )
    return x.mask


def image(g: Digraph, x: ElementSet, sign: str = FWD) -> ElementSet:
    """Gamma(X) (or reverse image for sign='rev')."""
    return ElementSet(g.n, image_mask(g.rows_for(sign), _as_mask(g, x)))


def boundary(g: Digraph, x: ElementSet, sign: str = FWD) -> ElementSet:
    """Vertex boundary: the image of X minus X itself."""
    xm = _as_mask(g, x)
    return ElementSet(g.n, image_mask(g.rows_for(sign), xm) & ~xm)


def co_complement(g: Digraph, x: ElementSet, sign: str = FWD) -> ElementSet:
    """The far side of X: vertices outside X and its (reverse) image."""
    xm = _as_mask(g, x)
    full = (1 << g.n) - 1
    return ElementSet(g.n, full & ~(xm | image_mask(g.rows_for(sign), xm)))


def _k_subset_masks(n: int, k: int):
    """All k-subset masks of 0..n-1 in increasing bitmask order (Gosper)."""
    if k == 0:
        yield 0
        return
    if k > n:
        return
    x = (1 << k) - 1
    limit = 1 << n
    while x < limit:
        yield x
        u = x & -x
        v = x + u
        x = v | (((x ^ v) // u) >> 2)


def is_k_separable(g: Digraph, k: int) -> tuple[bool, ElementSet | None]:
    """Whether some X has |X| >= k and |far side| >= k, with a witness.

    Scanning k-subsets suffices: shrinking X only grows its far side.
    """
    if k < 1:
        raise GraphError("k must be >= 1")
    if not g.reflexive:
        raise GraphError("separability is defined for reflexive graphs")
    n, rows = g.n, g.rows
    for xm in _k_subset_masks(n, k):
        if n - image_mask(rows, xm).bit_count() >= k:
            return True, ElementSet(n, xm)
    return False, None


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def to_payload(g: Digraph) -> dict:
    return {
        "n": g.n,
        "arcs": [[u, v] for u, v in g.arcs()],
        "reflexive": g.reflexive,
    }


def from_payload(data: dict) -> Digraph:
    try:
        n, arcs, declared = data["n"], data["arcs"], data["reflexive"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph payload: {exc}") from exc
    if type(declared) is not bool:
        raise GraphError(f"graph payload needs reflexive true or false, not {declared!r}")
    if type(n) is not int or n < 1:
        raise GraphError(f"graph needs a positive integer vertex count, not {n!r}")
    if not isinstance(arcs, list):
        raise GraphError(f"graph payload needs a list of arcs, not {arcs!r}")
    rows = [0] * n
    for arc in arcs:
        if not isinstance(arc, list) or list(map(type, arc)) != [int, int]:
            raise GraphError(f"arc {arc!r} is not a pair of vertex numbers")
        u, v = arc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"arc ({u}, {v}) outside vertex range 0..{n - 1}")
        rows[u] |= 1 << v
    g = Digraph(rows)
    if g.reflexive != declared:
        raise GraphError(
            f"payload declares reflexive={declared} but the arcs say {g.reflexive}"
        )
    return g


def save_graph(g: Digraph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_payload(g), fh, sort_keys=True)
        fh.write("\n")


def load_graph(path: str) -> Digraph:
    with open(path) as fh:
        return from_payload(json.load(fh))
