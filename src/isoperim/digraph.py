"""Reflexive directed graphs with vertex-boundary calculus.

Adjacency is one bitmask per vertex, so the image of a set is a short
OR-loop and whole-powerset scans (see :mod:`isoperim.iso`) stay cheap.
"""

from __future__ import annotations

import json
import random
from typing import Iterable, Sequence

from .groups import FiniteGroup, GroupError
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

    ``rows[u]`` holds the successors of u.  ``transitive`` marks graphs
    known to be vertex-transitive (set by the Cayley constructor);
    ``translations`` then carries vertex permutations acting as
    automorphisms, one per vertex, with ``translations[a][0] == a``.
    """

    __slots__ = ("n", "rows", "transitive", "translations", "_in_rows", "_reflexive")

    def __init__(
        self,
        rows: Sequence[int],
        *,
        transitive: bool = False,
        translations: tuple[tuple[int, ...], ...] | None = None,
    ):
        n = len(rows)
        if n == 0:
            raise GraphError("graph needs at least one vertex")
        full = (1 << n) - 1
        for u, r in enumerate(rows):
            if r < 0 or r & ~full:
                raise GraphError(f"adjacency row {u} has bits outside 0..{n - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(int(r) for r in rows))
        object.__setattr__(self, "transitive", transitive)
        object.__setattr__(self, "translations", translations)
        object.__setattr__(self, "_in_rows", None)
        object.__setattr__(
            self, "_reflexive", all((r >> v) & 1 for v, r in enumerate(self.rows))
        )

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

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

    def out_neighbors(self, v: int) -> ElementSet:
        return ElementSet(self.n, self.rows[v])

    def in_neighbors(self, v: int) -> ElementSet:
        return ElementSet(self.n, self.in_rows[v])

    def has_arc(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def arcs(self) -> Iterable[tuple[int, int]]:
        for u, r in enumerate(self.rows):
            for v in bits_of(r):
                yield (u, v)

    def min_out_valency(self) -> int:
        return min(r.bit_count() for r in self.rows)

    def min_in_valency(self) -> int:
        return min(r.bit_count() for r in self.in_rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        tag = ", transitive" if self.transitive else ""
        return f"Digraph(n={self.n}, arcs={sum(r.bit_count() for r in self.rows)}{tag})"


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
    sm = s.mask
    rows = []
    for x in range(g.order):
        row = 0
        tx = g.table[x]
        for e in bits_of(sm):
            row |= 1 << tx[e]
        rows.append(row)
    return Digraph(rows, transitive=True, translations=g.table)


def reverse(g: Digraph) -> Digraph:
    """The reverse graph; translations keep acting as automorphisms."""
    return Digraph(
        g.in_rows, transitive=g.transitive, translations=g.translations
    )


def reflexive_closure(g: Digraph) -> Digraph:
    rows = [r | (1 << v) for v, r in enumerate(g.rows)]
    return Digraph(rows, transitive=g.transitive, translations=g.translations)


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
        n = int(data["n"])
        arcs = data["arcs"]
        declared = bool(data["reflexive"])
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph payload: {exc}") from exc
    if n < 1:
        raise GraphError("graph needs at least one vertex")
    rows = [0] * n
    for arc in arcs:
        u, v = int(arc[0]), int(arc[1])
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
