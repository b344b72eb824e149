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


def _connectivity_first(g: Graph) -> list[int]:
    """Vertices in placement order: each step places the unplaced vertex with
    the most placed neighbours, ties going to the higher degree, then to the
    lower label."""
    rows = g.rows
    order: list[int] = []
    placed = 0
    for _ in range(g.n):
        v = min((v for v in range(g.n) if not placed >> v & 1),
                key=lambda v: (-(rows[v] & placed).bit_count(), -g.degree(v), v))
        order.append(v)
        placed |= 1 << v
    return order


def _survivors(edges, i: int, own: list[int], other: list[int],
               own_adj: list[int], other_adj: list[int]) -> int:
    """Colorings of edges[i + 1:] that survive once edges[i] takes the own
    color, given each vertex's component bitmask and neighbour bitmask per
    color over the edges colored so far.  A step builds new lists, so no
    argument changes."""
    u, v = edges[i]
    if other[u] >> v & 1:
        return 0  # endpoints already joined in the other color
    cu, cv = own[u], own[v]
    if cu != cv:
        # only an other-colored edge from cu to cv can be trapped by the merge
        m = cu
        while m:
            b = m & -m
            if other_adj[b.bit_length() - 1] & cv:
                return 0
            m ^= b
        merged = cu | cv
        own = [merged if c & merged else c for c in own]
    i += 1
    if i == len(edges):
        return 1
    own_adj = own_adj.copy()
    own_adj[u] |= 1 << v
    own_adj[v] |= 1 << u
    return (_survivors(edges, i, own, other, own_adj, other_adj)
            + _survivors(edges, i, other, own, other_adj, own_adj))


def count_nac(g: Graph, max_edges: int = NAC_GUARD) -> int:
    """Number of NAC-colorings up to swapping the colors.

    The graph is relabeled in `_connectivity_first` order and its edges are
    sorted by larger, then smaller endpoint, so every cycle constraint fires
    early whatever the input labels.  The first edge is pinned red, which
    breaks the swap symmetry, and the remaining 2^(|E|-1) assignments are
    walked depth first by `_survivors`, one level per edge, which returns the
    colorings that survive below it.  Components and neighbourhoods are
    vertex bitmasks; a step copies them rather than being undone, and a
    shared prefix builds them once.  A branch dies as soon as some edge joins
    two vertices already connected in the other color, which is exactly when
    the first non-monochromatic cycle short of two edges per color appears:
    either the new edge's endpoints are joined in the other color, or the
    merge it causes traps an other-colored edge, which must run between the
    two merged components, so a merge tests only those crossing edges.
    """
    m = g.edge_count
    if m > max_edges:
        raise GuardError(f"|E|={m} exceeds guard {max_edges}")
    if m < 2:
        return 0
    order = _connectivity_first(g)
    relabeled = g.permuted([order.index(v) for v in range(g.n)])
    edges = sorted(relabeled.edges(), key=lambda e: (e[1], e[0]))
    singletons = [1 << v for v in range(g.n)]
    # the all-red leaf survives every check but is not surjective
    return _survivors(edges, 0, singletons, singletons, [0] * g.n, [0] * g.n) - 1
