"""NAC-colorings: red/blue edge colorings where every cycle is monochromatic
or carries at least two edges of each color.

Equivalent component criterion used throughout: a surjective coloring is NAC
iff no red edge joins two vertices of one blue component and no blue edge
joins two vertices of one red component.  (A violating cycle has exactly one
edge of some color; the rest of the cycle connects that edge's endpoints in
the other color, and conversely.)
"""

from __future__ import annotations

from .graphs import Graph
from .rigidity import GuardError

NAC_GUARD = 34  # default refusal bound on |E|: a count walks 2^(|E|-1) colorings


def _norm_edge(e: tuple[int, int]) -> tuple[int, int]:
    u, v = e
    return (u, v) if u < v else (v, u)


def _component_masks(n: int, edges) -> list[int]:
    comp = [1 << v for v in range(n)]
    for u, v in edges:
        cu, cv = comp[u], comp[v]
        if cu == cv:
            continue
        merged = cu | cv
        m = merged
        while m:
            b = m & -m
            comp[b.bit_length() - 1] = merged
            m ^= b
    return comp


def is_nac_coloring(g: Graph, red) -> bool:
    """Check the component criterion for the coloring with the given red set."""
    all_edges = set(g.edges())
    red_set = {_norm_edge(e) for e in red}
    if not red_set <= all_edges:
        raise ValueError(f"red edges {sorted(red_set - all_edges)} not in graph")
    if not red_set or red_set == all_edges:
        return False  # not surjective
    blue_set = all_edges - red_set
    comp_blue = _component_masks(g.n, blue_set)
    for u, v in red_set:
        if comp_blue[u] >> v & 1:
            return False
    comp_red = _component_masks(g.n, red_set)
    for u, v in blue_set:
        if comp_red[u] >> v & 1:
            return False
    return True


def _survivors(edges, i: int, own: list[int], other: list[int],
               own_edges: tuple, other_edges: tuple) -> int:
    """Colorings of edges[i + 1:] that survive once edges[i] takes the own
    color, given each vertex's component bitmask per color and the edges
    colored so far.  A merge builds a new `own`, so no argument changes."""
    u, v = edges[i]
    if other[u] >> v & 1:
        return 0  # endpoints already joined in the other color
    cu, cv = own[u], own[v]
    if cu != cv:
        merged = cu | cv
        # only the grown component can trap an other-colored edge
        for x, y in other_edges:
            if merged >> x & merged >> y & 1:
                return 0
        own = [merged if c & merged else c for c in own]
    own_edges += ((u, v),)
    i += 1
    if i == len(edges):
        return 1
    return (_survivors(edges, i, own, other, own_edges, other_edges)
            + _survivors(edges, i, other, own, other_edges, own_edges))


def count_nac(g: Graph, max_edges: int = NAC_GUARD) -> int:
    """Number of NAC-colorings up to swapping the colors.

    The first edge is pinned red, which breaks the swap symmetry, and the
    remaining 2^(|E|-1) assignments are walked depth first by `_survivors`,
    one level per edge, which returns the colorings that survive below it.
    Components are vertex bitmasks; a merge copies them rather than being
    undone, and a shared prefix builds them once.  A branch dies as soon as
    some edge joins two vertices already connected in the other color,
    which is exactly when the first non-monochromatic cycle short of two
    edges per color appears.  Edges are ordered so each prefix spans an
    induced subgraph on a vertex prefix, making every cycle constraint fire
    as early as possible.
    """
    m = g.edge_count
    if m > max_edges:
        raise GuardError(f"|E|={m} exceeds guard {max_edges}")
    if m < 2:
        return 0
    edges = sorted(g.edges(), key=lambda e: (e[1], e[0]))
    singletons = [1 << v for v in range(g.n)]
    # the all-red leaf survives every check but is not surjective
    return _survivors(edges, 0, singletons, singletons, (), ()) - 1
