"""Minimal rigidity: (2,3)-pebble game, Henneberg extensions, enumeration.

A graph is minimally rigid when |E| = 2n - 3 and no vertex subset spans more
edges than 2n' - 3.  Such graphs are exactly those reachable from K2 by
0-extensions (add a degree-2 vertex) and 1-extensions (subdivide an edge
against an apex), which is what the search policy walks over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import TYPE_CHECKING

from .graphs import CanonicalCode, Graph, canonical_code, decode_int

if TYPE_CHECKING:
    from fractions import Fraction


class GuardError(ValueError):
    """An enumeration or counting call exceeded its configured size guard."""


class InvalidExtensionError(ValueError):
    """Extension arguments do not describe a legal move on the given graph."""


ZERO = "zero"
ONE = "one"


@dataclass(frozen=True)
class Extension:
    """A Henneberg move: kind 'zero' adds z on pair {v,w}; kind 'one' picks an
    apex u, removes edge vw and adds z adjacent to u, v, w."""

    kind: str
    apex: int | None
    pair: tuple[int, int]


def is_minimally_rigid(g: Graph) -> bool:
    """(2,3)-pebble game: all edges independent and |E| = 2n - 3."""
    n = g.n
    edges = g.edges()
    if len(edges) != 2 * n - 3:
        return False
    pebbles = [2] * n
    out = [0] * n  # bitmask of directed edges

    def pull(root: int, avoid: int) -> bool:
        # search the orientation for a free pebble, reversing the path to root
        parent = {root: -1}
        stack = [root]
        while stack:
            a = stack.pop()
            m = out[a]
            while m:
                b = m & -m
                m ^= b
                w = b.bit_length() - 1
                if w in parent or w == avoid:
                    continue
                parent[w] = a
                if pebbles[w] > 0:
                    pebbles[w] -= 1
                    pebbles[root] += 1
                    while parent[w] >= 0:
                        p = parent[w]
                        out[p] &= ~(1 << w)
                        out[w] |= 1 << p
                        w = p
                    return True
                stack.append(w)
        return False

    for u, v in edges:
        while pebbles[u] + pebbles[v] < 4:
            if not (pull(u, v) or pull(v, u)):
                return False
        pebbles[u] -= 1
        out[u] |= 1 << v
    return True


# ---------------------------------------------------------------------------
# extensions and the shared slot order


@lru_cache(maxsize=None)
def enumerate_slots(k: int) -> tuple[Extension, ...]:
    """All candidate moves on a k-vertex state, in the fixed order shared
    with the policy: the 0-extension block first (pairs lexicographic), then
    1-extension slots by apex ascending, pair lexicographic.  Contains
    C(k,2)*(k-1) slots; a 1-extension slot is only valid when its pair is an
    edge of the concrete graph."""
    slots = []
    pairs = [(v, w) for v in range(k) for w in range(v + 1, k)]
    for v, w in pairs:
        slots.append(Extension(ZERO, None, (v, w)))
    for u in range(k):
        for v, w in pairs:
            if u != v and u != w:
                slots.append(Extension(ONE, u, (v, w)))
    return tuple(slots)


def slot_is_valid(g: Graph, ext: Extension) -> bool:
    return ext.kind == ZERO or g.has_edge(*ext.pair)


def enumerate_extensions(g: Graph) -> list[Extension]:
    """Valid moves on g, in slot order."""
    return [e for e in enumerate_slots(g.n) if slot_is_valid(g, e)]


def apply_extension(g: Graph, ext: Extension) -> Graph:
    """Apply a Henneberg move; the new vertex gets label n."""
    v, w = ext.pair
    if not (0 <= v < w < g.n):
        raise InvalidExtensionError(f"pair {ext.pair} out of range for n={g.n}")
    if ext.kind == ZERO:
        if ext.apex is not None:
            raise InvalidExtensionError("0-extension takes no apex")
        return g.add_vertex((v, w))
    if ext.kind == ONE:
        u = ext.apex
        if u is None or not 0 <= u < g.n or u in (v, w):
            raise InvalidExtensionError(f"bad apex {u} for pair {ext.pair}")
        if not g.has_edge(v, w):
            raise InvalidExtensionError(f"pair {ext.pair} is not an edge")
        return g.remove_edge(v, w).add_vertex((u, v, w))
    raise InvalidExtensionError(f"unknown kind {ext.kind!r}")


# ---------------------------------------------------------------------------
# enumeration by closure under extensions


def k2() -> Graph:
    return Graph.complete(2)


def _child_classes(g: Graph, kinds: tuple[str, ...]) -> dict[CanonicalCode, str]:
    """The isomorphism class of each child of g under the given move kinds,
    each labelled once, mapped to the kind of its first producer in slot
    order."""
    classes: dict[CanonicalCode, str] = {}
    for ext in enumerate_extensions(g):
        if ext.kind in kinds:
            classes.setdefault(canonical_code(apply_extension(g, ext)), ext.kind)
    return classes


def enumerate_minimally_rigid(n: int, max_n: int = 10,
                              kinds: tuple[str, ...] = (ZERO, ONE)) -> set[CanonicalCode]:
    """Isomorphism classes on n vertices reachable from K2 by the given move
    kinds, as canonical codes; with both kinds, all minimally rigid graphs."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > max_n:
        raise GuardError(f"n={n} exceeds guard {max_n}")
    level = {canonical_code(k2())}
    for k in range(2, n):
        nxt: set[CanonicalCode] = set()
        for cc in level:
            nxt.update(_child_classes(decode_int(cc.code, cc.n), kinds))
        level = nxt
    return level


def enumerate_zero_ext_constructible(n: int, max_n: int = 9) -> int:
    """Number of isomorphism classes reachable from K2 by 0-extensions only."""
    return len(enumerate_minimally_rigid(n, max_n, kinds=(ZERO,)))


def prop1_lower_bound(n: int) -> Fraction:
    """Exact lower bound (n-2)!/(n*2^(n-2)) on the number of 0-extension
    constructible classes on n vertices."""
    from fractions import Fraction  # loads decimal; only `enumerate --mode zero-only` needs it

    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return Fraction(factorial(n - 2), n * (1 << (n - 2)))


# ---------------------------------------------------------------------------
# peeling and one-step impact


def peel_to_core(g: Graph, core: Graph) -> tuple[bool, list[int] | None]:
    """Search for a sequence of degree-2 deletions (inverse 0-extensions)
    taking g to a graph isomorphic to core.  Greedy deletion can dead-end,
    so this backtracks over the deletion order, memoizing failed states by
    their isomorphism class.  A state is labelled only when that can matter:
    at the core's size, once some state has failed, and when it fails.

    Returns (found, witness); the witness lists deleted vertices by their
    labels in the original graph."""
    if g.n < core.n:
        return (False, None)
    core_cc = canonical_code(core)
    dead: set[CanonicalCode] = set()

    def descend(h: Graph, names: list[int]) -> list[int] | None:
        if h.n == core.n:
            return [] if canonical_code(h) == core_cc else None
        if dead and canonical_code(h) in dead:
            return None
        for v in range(h.n):
            if h.degree(v) == 2:
                tail = descend(h.delete_vertex(v), names[:v] + names[v + 1:])
                if tail is not None:
                    return [names[v]] + tail
        dead.add(canonical_code(h))
        return None

    witness = descend(g, list(range(g.n)))
    return (witness is not None, witness)


@dataclass(frozen=True)
class ImpactRow:
    code: int
    kind: str
    value: int


@dataclass(frozen=True)
class ImpactResult:
    best_code: CanonicalCode
    best_value: int
    rows: tuple[ImpactRow, ...]


def extension_impact(g: Graph, reward, kinds: tuple[str, ...] = (ZERO, ONE)) -> ImpactResult:
    """Score every child of g under the selected extension kinds, one row per
    isomorphism class in code order, with the kind of the class's first
    producer in slot order.  `reward` must offer `values(codes)`, which
    scores all the classes in one batch; ties for the best go to the smaller
    code."""
    children = _child_classes(g, kinds)
    if not children:
        raise ValueError("graph has no children under the selected kinds")
    codes = sorted(children)
    values = dict(zip(codes, reward.values(codes)))
    best = min(values, key=lambda cc: (-values[cc], cc))
    return ImpactResult(best_code=best, best_value=values[best],
                        rows=tuple(ImpactRow(code=cc.code, kind=children[cc], value=v)
                                   for cc, v in values.items()))
