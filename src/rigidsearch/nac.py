"""NAC-colorings: red/blue edge colorings where every cycle is monochromatic
or carries at least two edges of each color.

Equivalent component criterion used throughout: a surjective coloring is NAC
iff no red edge joins two vertices of one blue component and no blue edge
joins two vertices of one red component.  (A violating cycle has exactly one
edge of some color; the rest of the cycle connects that edge's endpoints in
the other color, and conversely.)

`count_nac` counts by frontier dynamic programming over these components
(frontier-based search: Kawahara, Inoue, Iwashita & Minato, IEICE Trans.
Fundamentals E100-A(9), 2017, on the connectivity-partition DP of Sekine,
Imai & Tani, ISAAC 1995), so its cost follows the number of distinct frontier
states, not the number of colorings.  That number grows with the frontier's
width, so the vertices are placed in a greedy min-frontier order.
"""

from __future__ import annotations

from .graphs import Graph
from .rigidity import GuardError

# The fixed bound on |E| for NAC counting.  The frontier DP does not need it,
# but it keeps NAC work at the sizes the published records cover (n <= 18).
NAC_GUARD = 34


def _placement_order(g: Graph) -> list[int]:
    """Vertices in placement order, chosen to keep the frontier small.

    The frontier is the placed vertices that still have an unplaced
    neighbour.  Each step places, among the unplaced vertices with a placed
    neighbour, the one that leaves the fewest frontier vertices, ties going to
    more placed neighbours, then to the higher degree, then to the higher
    label.  Only when no unplaced vertex has a placed neighbour (at the start,
    and at each further component) does it place the unplaced vertex of
    highest degree, the higher label on ties.  So in a connected graph every
    vertex after the first has a placed neighbour.  (The higher label wins
    ties because on canonically labelled graphs, which a search counts, it
    gives fewer frontier states than the lower one.)
    """
    n, rows = g.n, g.rows
    degree = [r.bit_count() for r in rows]
    order: list[int] = []
    placed = 0
    reached = 0  # unplaced vertices with a placed neighbour
    for _ in range(n):
        free = ~placed
        # each key ends with its vertex, so the largest key names the choice
        if reached:
            # placing u drops each placed neighbour whose last unplaced
            # neighbour it is, and adds u if it keeps an unplaced neighbour
            last = sum(1 << w for w in order if (rows[w] & free).bit_count() == 1)
            v = max(((r & last).bit_count() - (r & free != 0), (r & placed).bit_count(),
                     degree[u], u) for u, r in enumerate(rows) if reached >> u & 1)[-1]
        else:
            v = max((degree[u], u) for u in range(n) if free >> u & 1)[-1]
        order.append(v)
        placed |= 1 << v
        reached = (reached | rows[v]) & ~placed
    return order


def count_nac(g: Graph) -> int:
    """Number of NAC-colorings up to swapping the colors.

    Vertices are placed in `_placement_order`, which keeps the frontier
    small, and placing a vertex colors its edges to earlier vertices.  The
    frontier is the placed vertices that still have an unplaced neighbour.  A
    state holds, for each color, the partition of the frontier into
    components of that color, and the pairs of its classes that an edge of
    the other color joins, which must never merge.  An edge dies if its ends
    already share a class of the other color, or if it would merge two
    own-color classes that such a pair forbids.  Once a vertex has no
    unplaced neighbour it leaves the frontier: a class left without frontier
    vertices can never grow, so it and its pairs are dropped, and equal
    states merge by adding their counts.  A state is a flat tuple with four
    masks for each frontier vertex, in placement order: its red class, its
    blue class, and the union of the red and of the blue classes that those
    may not merge with.  Each frontier vertex owns one mask bit, the lowest
    that no other frontier vertex owns when it is placed, so a mask is as
    wide as the frontier, not the graph.  The colorings of a placed vertex's
    edges are expanded one earlier neighbour at a time.  The first edge,
    between the first two placed vertices, is pinned red, which breaks the
    swap symmetry; the placement order makes them adjacent.
    """
    m = g.edge_count
    if m > NAC_GUARD:
        raise GuardError(f"NAC counting is limited to |E| <= {NAC_GUARD}, got |E|={m}")
    if m < 2:
        return 0
    n = g.n
    at = [0] * n
    for i, v in enumerate(_placement_order(g)):
        at[v] = i
    rows = g.permuted(at).rows  # vertex i is the i-th placed

    states = {(): 1}  # state -> colorings of the placed edges reaching it
    frontier: list[int] = []
    bit = [0] * n  # the mask bit each frontier vertex owns
    for t in range(n):
        taken = sum(bit[u] for u in frontier)
        tb = bit[t] = ~taken & taken + 1
        # an earlier neighbour's bit and the place of its four masks
        back = [(bit[u], 4 * i) for i, u in enumerate(frontier) if rows[t] >> u & 1]
        kept = [u for u in frontier + [t] if rows[u] >> t > 1]
        keep = sum(bit[u] for u in kept)
        stay = [(bit[u], 4 * frontier.index(u)) for u in kept if u != t]
        new: dict[tuple, int] = {}
        while states:  # popping frees each state once it is expanded
            state, count = states.popitem()
            # (red, red_ban, blue, blue_ban): the union of the classes t
            # joins per color so far, and of the classes those may not
            # merge with
            partial = [(0, 0, 0, 0)]
            for ub, i in back:
                r, b, rb, bb = state[i:i + 4]
                grown = []
                for red, red_ban, blue, blue_ban in partial:
                    if not (blue & ub or r & red_ban):
                        grown.append((red | r, red_ban | rb, blue, blue_ban | b))
                    # the first edge, from vertex 1 to vertex 0, is pinned red
                    if t != 1 and not (red & ub or b & blue_ban):
                        grown.append((red, red_ban | r, blue | b, blue_ban | bb))
                partial = grown
            for red, red_ban, blue, blue_ban in partial:
                red |= tb
                blue |= tb
                masks = []
                for xb, i in stay:
                    # t's classes replace those it joined; a class that one
                    # of those may not merge with may not merge with t's
                    # class either
                    if red & xb:
                        r, rb = red, red_ban
                    else:
                        r = state[i]
                        rb = state[i + 2] | red if red_ban & xb else state[i + 2]
                    if blue & xb:
                        b, bb = blue, blue_ban
                    else:
                        b = state[i + 1]
                        bb = state[i + 3] | blue if blue_ban & xb else state[i + 3]
                    masks += (r & keep, b & keep, rb & keep, bb & keep)
                if keep & tb:
                    masks += (red & keep, blue & keep, red_ban & keep, blue_ban & keep)
                key = tuple(masks)
                new[key] = new.get(key, 0) + count
        states = new
        frontier = kept
    # the all-red coloring survives every check but is not surjective
    return states[()] - 1
