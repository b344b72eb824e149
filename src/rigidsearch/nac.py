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


def count_nac(g: Graph, max_edges: int = NAC_GUARD) -> int:
    """Number of NAC-colorings up to swapping the colors.

    The first edge is pinned red, which breaks the swap symmetry, and the
    remaining 2^(|E|-1) assignments are walked depth first so the component
    state of a shared prefix is built once.  Components are vertex bitmasks
    merged incrementally; a branch dies as soon as some edge joins two
    vertices already connected in the other color, which is exactly when the
    first non-monochromatic cycle short of two edges per color appears.
    Edges are ordered so each prefix spans an induced subgraph on a vertex
    prefix, making every cycle constraint fire as early as possible.
    """
    m = g.edge_count
    if m > max_edges:
        raise GuardError(f"|E|={m} exceeds guard {max_edges}")
    if m < 2:
        return 0
    edges = sorted(g.edges(), key=lambda e: (e[1], e[0]))
    comp_red = [1 << v for v in range(g.n)]
    comp_blue = [1 << v for v in range(g.n)]
    red_edges: list[tuple[int, int]] = []
    blue_edges: list[tuple[int, int]] = []
    leaves = 0

    def merge(comp: list[int], u: int, v: int) -> tuple[int, int] | None:
        cu, cv = comp[u], comp[v]
        if cu == cv:
            return None
        merged = cu | cv
        b = merged
        while b:
            low = b & -b
            comp[low.bit_length() - 1] = merged
            b ^= low
        return (cu, cv)

    def unmerge(comp: list[int], saved: tuple[int, int]) -> None:
        for old in saved:
            b = old
            while b:
                low = b & -b
                comp[low.bit_length() - 1] = old
                b ^= low

    def assign(i: int, u: int, v: int, own: list[int], other: list[int],
               own_edges: list[tuple[int, int]], other_edges: list[tuple[int, int]]) -> None:
        nonlocal leaves
        if other[u] >> v & 1:
            return  # endpoints already joined in the other color
        saved = merge(own, u, v)
        if saved is not None:
            # the merge may trap an other-colored edge inside the grown component
            for x, y in other_edges:
                if own[x] >> y & 1:
                    unmerge(own, saved)
                    return
        own_edges.append((u, v))
        descend(i + 1)
        own_edges.pop()
        if saved is not None:
            unmerge(own, saved)

    def descend(i: int) -> None:
        nonlocal leaves
        if i == m:
            leaves += 1
            return
        u, v = edges[i]
        assign(i, u, v, comp_red, comp_blue, red_edges, blue_edges)
        assign(i, u, v, comp_blue, comp_red, blue_edges, red_edges)

    u0, v0 = edges[0]
    assign(0, u0, v0, comp_red, comp_blue, red_edges, blue_edges)
    # the all-red leaf survives every check but is not surjective
    return leaves - 1
