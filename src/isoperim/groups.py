"""Finite group arithmetic on dense element indices.

A group of order n is a validated multiplication table over elements
0..n-1 with the identity normalized to index 0.  Subsets of the group
are ``ElementSet`` bitmasks, so set products, closures and stabilizers
are tight mask loops.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .sets import ElementSet, bits_of


class GroupError(ValueError):
    """Raised when a table fails the group axioms or an argument is invalid."""


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[x][y]`` is the index of x*y; the identity is element 0.
    Instances are immutable and hashable, so they can key caches.
    """

    __slots__ = ("name", "order", "table", "inv", "_abelian", "_hash")

    identity = 0

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G"):
        tbl = tuple(tuple(int(v) for v in row) for row in table)
        _validate_table(tbl)
        e = _find_identity(tbl)
        if e != 0:
            tbl = _relabel_identity(tbl, e)
        object.__setattr__(self, "table", tbl)
        object.__setattr__(self, "order", len(tbl))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "inv", _inverse_table(tbl))
        object.__setattr__(self, "_abelian", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inverse(self, x: int) -> int:
        return self.inv[x]

    def order_of(self, x: int) -> int:
        """Multiplicative order of an element."""
        k, y = 1, x
        while y != 0:
            y = self.table[y][x]
            k += 1
        return k

    @property
    def abelian(self) -> bool:
        cached = self._abelian
        if cached is None:
            t = self.table
            n = self.order
            cached = all(
                t[x][y] == t[y][x] for x in range(n) for y in range(x + 1, n)
            )
            object.__setattr__(self, "_abelian", cached)
        return cached

    def full_set(self) -> ElementSet:
        return ElementSet.full(self.order)

    def subset(self, elements: Iterable[int] | int) -> ElementSet:
        return ElementSet(self.order, elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.table)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


# ---------------------------------------------------------------------------
# table validation
# ---------------------------------------------------------------------------

_FULL_ASSOC_LIMIT = 64
_ASSOC_SAMPLES = 20_000


def _validate_table(tbl: tuple[tuple[int, ...], ...]) -> None:
    n = len(tbl)
    if n == 0:
        raise GroupError("empty multiplication table")
    ref = frozenset(range(n))
    for i, row in enumerate(tbl):
        if len(row) != n:
            raise GroupError(f"table is not square: row {i} has length {len(row)}")
        if frozenset(row) != ref:
            raise GroupError(f"not a Latin square: row {i} is not a permutation")
    for j in range(n):
        if frozenset(tbl[i][j] for i in range(n)) != ref:
            raise GroupError(f"not a Latin square: column {j} is not a permutation")
    if _find_identity(tbl) is None:
        raise GroupError("missing identity: no element acts as two-sided unit")
    if n <= _FULL_ASSOC_LIMIT:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(0xA55)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(_ASSOC_SAMPLES)
        )
    for x, y, z in triples:
        if tbl[tbl[x][y]][z] != tbl[x][tbl[y][z]]:
            raise GroupError(f"non-associative: ({x}*{y})*{z} != {x}*({y}*{z})")


def _find_identity(tbl) -> int | None:
    n = len(tbl)
    for e in range(n):
        if all(tbl[e][x] == x and tbl[x][e] == x for x in range(n)):
            return e
    return None


def _relabel_identity(tbl, e: int):
    # transposition 0 <-> e keeps every other label
    def s(x: int) -> int:
        return 0 if x == e else (e if x == 0 else x)

    n = len(tbl)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[s(x)][s(y)] = s(tbl[x][y])
    return tuple(tuple(r) for r in out)


def _inverse_table(tbl) -> tuple[int, ...]:
    n = len(tbl)
    inv = [0] * n
    for x in range(n):
        for y in range(n):
            if tbl[x][y] == 0:
                if tbl[y][x] != 0:
                    raise GroupError(f"element {x} has no two-sided inverse")
                inv[x] = y
                break
    return tuple(inv)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic order must be >= 1")
    tbl = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(tbl, name=f"Z{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 rotations, n..2n-1 reflections."""
    if n < 1:
        raise GroupError("dihedral parameter must be >= 1")
    m = 2 * n
    tbl = [[0] * m for _ in range(m)]
    for a in range(n):
        for b in range(n):
            tbl[a][b] = (a + b) % n
            tbl[a][n + b] = n + (a + b) % n
            tbl[n + a][b] = n + (a - b) % n
            tbl[n + a][n + b] = (a - b) % n
    return FiniteGroup(tbl, name=f"D{n}")


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("symmetric degree must be >= 1")
    if n > 5:
        raise GroupError("symmetric degree capped at 5 (order 120)")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    tbl = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(tbl, name=f"S{n}")


_QUAT_UNITS = {  # (u, v) -> (sign, w) for u, v in e,i,j,k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def quaternion_group() -> FiniteGroup:
    """Q8: index 2u+s encodes (-1)^s * unit u with units e,i,j,k."""
    tbl = [[0] * 8 for _ in range(8)]
    for u in range(4):
        for s1 in range(2):
            for v in range(4):
                for s2 in range(2):
                    s3, w = _QUAT_UNITS[(u, v)]
                    tbl[2 * u + s1][2 * v + s2] = 2 * w + ((s1 + s2 + s3) % 2)
    return FiniteGroup(tbl, name="Q8")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    n = na * nb
    tbl = [[0] * n for _ in range(n)]
    for xa in range(na):
        for xb in range(nb):
            x = xa * nb + xb
            row = tbl[x]
            ra, rb = a.table[xa], b.table[xb]
            for ya in range(na):
                base = ra[ya] * nb
                for yb in range(nb):
                    row[ya * nb + yb] = base + rb[yb]
    return FiniteGroup(tbl, name=f"{a.name}x{b.name}")


# ---------------------------------------------------------------------------
# group-spec grammar
# ---------------------------------------------------------------------------


def _parse_spec(text: str, pos: int) -> tuple[FiniteGroup, int]:
    rest = text[pos:]
    for head in ("cyclic:", "dihedral:", "symmetric:", "quaternion:"):
        if rest.startswith(head):
            start = pos + len(head)
            end = start
            while end < len(text) and text[end].isdigit():
                end += 1
            if end == start:
                raise GroupError(f"expected an integer after {head!r} in {text!r}")
            n = int(text[start:end])
            if head == "cyclic:":
                return cyclic_group(n), end
            if head == "dihedral:":
                return dihedral_group(n), end
            if head == "symmetric:":
                return symmetric_group(n), end
            if n != 8:
                raise GroupError("only quaternion:8 is supported")
            return quaternion_group(), end
    if rest.startswith("product:"):
        first, end = _parse_spec(text, pos + len("product:"))
        if end >= len(text) or text[end] != ",":
            raise GroupError(f"product needs two comma-separated specs in {text!r}")
        second, end = _parse_spec(text, end + 1)
        return direct_product(first, second), end
    if rest.startswith("table:"):
        path = text[pos + len("table:"):]
        with open(path) as fh:
            data = json.load(fh)
        g = _group_from_table_payload(data)
        return g, len(text)
    raise GroupError(f"unrecognized group spec at {text[pos:]!r}")


def _group_from_table_payload(data) -> FiniteGroup:
    if isinstance(data, dict):
        table = data.get("table")
        if table is None:
            raise GroupError('table payload must contain a "table" key')
        if "order" in data and len(table) != data["order"]:
            raise GroupError("declared order does not match the table size")
        name = data.get("name", "table")
    else:
        table = data
        name = "table"
    return FiniteGroup(table, name=name)


def make_group(spec) -> FiniteGroup:
    """Build a validated group from a spec string, a table, or a payload dict.

    Spec grammar: ``cyclic:<n>``, ``dihedral:<n>``, ``symmetric:<n>``,
    ``quaternion:8``, ``product:<spec>,<spec>``, ``table:<path>``.
    """
    if isinstance(spec, str):
        g, end = _parse_spec(spec, 0)
        if end != len(spec):
            raise GroupError(f"trailing characters in group spec: {spec[end:]!r}")
        return g
    if isinstance(spec, dict):
        return _group_from_table_payload(spec)
    return FiniteGroup(spec, name="table")


# ---------------------------------------------------------------------------
# mask-level kernels (internal)
# ---------------------------------------------------------------------------


def elem_mul_mask(g: FiniteGroup, x: int, bmask: int) -> int:
    """Mask of x*B."""
    row = g.table[x]
    out = 0
    for b in bits_of(bmask):
        out |= 1 << row[b]
    return out


def mask_mul_elem(g: FiniteGroup, amask: int, y: int) -> int:
    """Mask of A*y."""
    t = g.table
    out = 0
    for a in bits_of(amask):
        out |= 1 << t[a][y]
    return out


def product_mask(g: FiniteGroup, amask: int, bmask: int) -> int:
    out = 0
    for a in bits_of(amask):
        out |= elem_mul_mask(g, a, bmask)
    return out


def inverse_mask(g: FiniteGroup, smask: int) -> int:
    inv = g.inv
    out = 0
    for s in bits_of(smask):
        out |= 1 << inv[s]
    return out


def closure_mask(g: FiniteGroup, smask: int) -> int:
    """Mask of the subgroup generated by S (identity for empty S).

    Breadth first from s = S u {1}: each new element x adds x*s, so the
    result is the union of the powers s^j, which in a finite group is <S>.
    """
    s = smask | 1
    h = frontier = s
    while frontier:
        add = 0
        for x in bits_of(frontier):
            add |= elem_mul_mask(g, x, s)
        frontier = add & ~h
        h |= frontier
    return h


def is_subgroup_mask(g: FiniteGroup, hmask: int) -> bool:
    if not (hmask & 1):
        return False
    for x in bits_of(hmask):
        if elem_mul_mask(g, x, hmask) & ~hmask:
            return False
    return True


def normality_witness(g: FiniteGroup, hmask: int) -> int | None:
    """First x with x*H*x^-1 != H, or None when H is normal: times x on
    the right, x*H*x^-1 = H says x*H = H*x, so only translates are compared."""
    for x in range(g.order):
        if elem_mul_mask(g, x, hmask) != mask_mul_elem(g, hmask, x):
            return x
    return None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _check_universe(g: FiniteGroup, s: ElementSet, what: str) -> int:
    if s.universe != g.order:
        raise GroupError(
            f"universe mismatch: {what} lives in 0..{s.universe - 1}, "
            f"group has order {g.order}"
        )
    return s.mask


def minkowski_product(g: FiniteGroup, a: ElementSet, b: ElementSet) -> ElementSet:
    """The set product AB = {x*y : x in A, y in B}."""
    am = _check_universe(g, a, "A")
    bm = _check_universe(g, b, "B")
    return ElementSet(g.order, product_mask(g, am, bm))


def subgroup_generated(g: FiniteGroup, s: ElementSet) -> ElementSet:
    """<S>, the subgroup generated by S; <{}> is the trivial subgroup."""
    sm = _check_universe(g, s, "S")
    return ElementSet(g.order, closure_mask(g, sm))


def stabilizers(g: FiniteGroup, x: ElementSet) -> tuple[ElementSet, ElementSet]:
    """Left and right stabilizer subgroups ({a : aX=X}, {a : Xa=X})."""
    xm = _check_universe(g, x, "X")
    if not xm:
        raise GroupError("stabilizer of the empty set is degenerate")
    left = right = 0
    for a in range(g.order):
        if elem_mul_mask(g, a, xm) == xm:
            left |= 1 << a
        if mask_mul_elem(g, xm, a) == xm:
            right |= 1 << a
    return ElementSet(g.order, left), ElementSet(g.order, right)


@dataclass(frozen=True)
class CosetDecomposition:
    subgroup: ElementSet
    parts: tuple[ElementSet, ...]
    side: str  # "left" or "right"


def coset_decomposition(
    g: FiniteGroup, a: ElementSet, h: ElementSet, side: str = "left"
) -> CosetDecomposition:
    """Partition A by its nonempty intersections with (left|right) H-cosets."""
    am = _check_universe(g, a, "A")
    hm = _check_universe(g, h, "H")
    if side not in ("left", "right"):
        raise GroupError(f"side must be 'left' or 'right', got {side!r}")
    if not is_subgroup_mask(g, hm):
        raise GroupError("H is not a subgroup")
    parts = []
    rest = am
    while rest:
        x = (rest & -rest).bit_length() - 1
        coset = elem_mul_mask(g, x, hm) if side == "left" else mask_mul_elem(g, hm, x)
        parts.append(ElementSet(g.order, rest & coset))
        rest &= ~coset
    return CosetDecomposition(ElementSet(g.order, hm), tuple(parts), side)


def quotient_group(
    g: FiniteGroup, h: ElementSet
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """G/H for a normal subgroup H, plus the projection map as a tuple."""
    hm = _check_universe(g, h, "H")
    if not is_subgroup_mask(g, hm):
        raise GroupError("H is not a subgroup")
    w = normality_witness(g, hm)
    if w is not None:
        raise GroupError(f"H is not normal: {w}*H*{w}^-1 != H")
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for x in range(g.order):
        if x in coset_of:
            continue
        idx = len(reps)
        reps.append(x)
        for y in bits_of(elem_mul_mask(g, x, hm)):
            coset_of[y] = idx
    k = len(reps)
    tbl = [[coset_of[g.table[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    q = FiniteGroup(tbl, name=f"{g.name}/H{len(h)}")
    proj = tuple(coset_of[x] for x in range(g.order))
    return q, proj


def subgroup_as_group(
    g: FiniteGroup, h: ElementSet
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The subgroup H as a group of its own, plus the embedding index -> G."""
    hm = _check_universe(g, h, "H")
    if not is_subgroup_mask(g, hm):
        raise GroupError("H is not a subgroup")
    elems = tuple(bits_of(hm))
    pos = {e: i for i, e in enumerate(elems)}
    tbl = [[pos[g.table[x][y]] for y in elems] for x in elems]
    return FiniteGroup(tbl, name=f"{g.name}|{len(elems)}"), elems


def min_subgroup_order(g: FiniteGroup) -> int | float:
    """p(G): the smallest order >= 2 of a subgroup (inf for the trivial group).

    For a finite group this is the smallest prime dividing |G|: every
    prime divisor yields a subgroup of that order, and any subgroup of
    order >= 2 has order divisible by some prime >= the smallest one.
    """
    n = g.order
    if n == 1:
        return math.inf
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _literal_progression_ratios(g: FiniteGroup, smask: int):
    """Yield every r with S = {r^j, ..., r^(j+|S|-1)} for some j."""
    m = smask.bit_count()
    for r in range(g.order):
        powers = [0]
        y = r
        while y != 0:
            powers.append(y)
            y = g.table[y][r]
        o = len(powers)
        if m > o:
            continue
        span = 0
        for p in powers:
            span |= 1 << p
        if smask & ~span:
            continue
        for j in range(o):
            cand = 0
            for t in range(m):
                cand |= 1 << powers[(j + t) % o]
            if cand == smask:
                yield r
                break


def progression_ratios(
    g: FiniteGroup, s: ElementSet, translated: bool = False
) -> tuple[int, ...]:
    """All ratios r making S an r-progression (optionally up to translation)."""
    sm = _check_universe(g, s, "S")
    if not sm:
        raise GroupError("progression test needs a nonempty set")
    if not translated:
        return tuple(_literal_progression_ratios(g, sm))
    found = set()
    for a in range(g.order):
        ai = g.inv[a]
        found.update(_literal_progression_ratios(g, elem_mul_mask(g, ai, sm)))
        found.update(_literal_progression_ratios(g, mask_mul_elem(g, sm, ai)))
    return tuple(sorted(found))


def detect_progression(
    g: FiniteGroup, s: ElementSet, translated: bool = False
) -> int | None:
    """Smallest ratio r such that S = {r^j, ..., r^(j+|S|-1)}, else None.

    With ``translated=True`` a left or right translate of S may be the
    progression instead of S itself.
    """
    ratios = progression_ratios(g, s, translated=translated)
    return ratios[0] if ratios else None


class SeminormalityResult(NamedTuple):
    kind: str  # "normal" | "semi-normal" | "neither"
    witness: int | None


def seminormality(g: FiniteGroup, s: ElementSet) -> SeminormalityResult:
    """Classify S as normal, semi-normal (with witness a), or neither.

    S is semi-normal when some a has x*S*x^-1 = S*(a^-1 x a x^-1) for
    every x; times x on the right, that is x*S = S*(a^-1 x a), which
    compares translates of S only.  For a = 1 it reads x*S = S*x, which
    is normality, so the least a that fits is 1 exactly when S is normal.
    """
    sm = _check_universe(g, s, "S")
    n = g.order
    t, inv = g.table, g.inv
    left = [elem_mul_mask(g, x, sm) for x in range(n)]
    right = [mask_mul_elem(g, sm, x) for x in range(n)]
    for a in range(n):
        ai = inv[a]
        if all(right[t[t[ai][x]][a]] == left[x] for x in range(n)):
            if a == 0:
                return SeminormalityResult("normal", None)
            return SeminormalityResult("semi-normal", a)
    return SeminormalityResult("neither", None)
