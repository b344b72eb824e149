"""Labeled simple graphs on 0..n-1 stored as adjacency bit rows.

The integer code of a graph concatenates the bits of the upper triangle of
its adjacency matrix (diagonal excluded), row 0 first, most significant bit
first, read as an unsigned integer of n(n-1)/2 bits.  Python integers are
arbitrary precision, so codes for any n round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence


class Graph:
    """Immutable simple graph; ``rows[v]`` is the neighbor bitmask of v."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        self.n = n
        self.rows = rows

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        m = self.rows[v]
        while m:
            b = m & -m
            yield b.bit_length() - 1
            m ^= b

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.rows[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u, v))
                m >>= 1
                v += 1
        return out

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def remove_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def add_vertex(self, neighbors: Iterable[int]) -> "Graph":
        """Append vertex n adjacent to ``neighbors``."""
        z = self.n
        rows = list(self.rows) + [0]
        for u in neighbors:
            rows[u] |= 1 << z
            rows[z] |= 1 << u
        return Graph(z + 1, tuple(rows))

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v and relabel the remaining vertices, order preserved."""
        low = (1 << v) - 1
        rows = []
        for u in range(self.n):
            if u == v:
                continue
            r = self.rows[u]
            rows.append((r & low) | ((r >> (v + 1)) << v))
        return Graph(self.n - 1, tuple(rows))

    def permuted(self, perm: list[int]) -> "Graph":
        """Relabel: vertex v becomes perm[v]."""
        perm = [int(p) for p in perm]
        rows = [0] * self.n
        for u in range(self.n):
            m = self.rows[u]
            ru = 0
            while m:
                b = m & -m
                ru |= 1 << perm[b.bit_length() - 1]
                m ^= b
            rows[perm[u]] = ru
        return Graph(self.n, tuple(rows))

    def reach(self, src: int, allowed: int) -> int:
        """Mask of the vertices reachable from mask src inside mask allowed."""
        rows = self.rows
        seen = frontier = src & allowed
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= rows[b.bit_length() - 1]
                m ^= b
            frontier = nxt & allowed & ~seen
            seen |= frontier
        return seen

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


# ---------------------------------------------------------------------------
# integer codec


def encode_int(g: Graph) -> int:
    """Upper-triangle bits of the adjacency matrix as one unsigned integer."""
    return _encode_under(g.rows, g.n, range(g.n))


def decode_int(x: int, n: int) -> Graph:
    """Inverse of encode_int for a given vertex count."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    nbits = n * (n - 1) // 2
    if x < 0 or x.bit_length() > nbits:
        raise ValueError(f"code {x} does not fit in {nbits} bits (n={n})")
    rows = [0] * n
    pos = nbits
    for u in range(n - 1):
        for v in range(u + 1, n):
            pos -= 1
            if x >> pos & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def infer_n(x: int) -> int:
    """Smallest n whose upper triangle holds the code's bits."""
    if x < 0:
        raise ValueError("code must be nonnegative")
    n = 1
    while n * (n - 1) // 2 < x.bit_length():
        n += 1
    return n


# ---------------------------------------------------------------------------
# local vertex features


def triangles_at(g: Graph, v: int) -> int:
    """Number of triangles through v."""
    t = 0
    m = g.rows[v]
    while m:
        b = m & -m
        t += (g.rows[b.bit_length() - 1] & g.rows[v]).bit_count()
        m ^= b
    return t // 2


def ldp(g: Graph, v: int) -> tuple[float, float, float, float, float]:
    """Local degree profile: (deg, min, max, mean, std) over neighbor degrees.

    The four neighbor statistics are defined as 0 when deg(v) <= 1, so the
    two vertices of the base state K2 carry constant features.
    """
    deg = g.degree(v)
    if deg <= 1:
        return (float(deg), 0.0, 0.0, 0.0, 0.0)
    ds = [g.degree(u) for u in g.neighbors(v)]
    mean = sum(ds) / deg
    var = sum((d - mean) ** 2 for d in ds) / deg
    return (float(deg), float(min(ds)), float(max(ds)), mean, var ** 0.5)


def clustering(g: Graph, v: int) -> float:
    """Fraction of neighbor pairs joined by an edge; 0 when deg(v) <= 1."""
    deg = g.degree(v)
    if deg <= 1:
        return 0.0
    return 2.0 * triangles_at(g, v) / (deg * (deg - 1))


# ---------------------------------------------------------------------------
# canonical form

class CanonicalCode(NamedTuple):
    n: int
    code: int


def _refine(rows: tuple[int, ...], colors: list[int]) -> list[int]:
    """Iterated neighborhood refinement to compact ranks.  Any order-preserving
    relabeling of the input colors gives the same output."""
    n = len(rows)
    ncolors = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            m = rows[v]
            nb = []
            while m:
                b = m & -m
                nb.append(colors[b.bit_length() - 1])
                m ^= b
            nb.sort()
            sigs.append((colors[v], tuple(nb)))
        ordered = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(ordered)}
        colors = [rank[s] for s in sigs]
        if len(ordered) == ncolors:
            return colors
        ncolors = len(ordered)


def _degree_colors(rows: tuple[int, ...]) -> list[int]:
    return [r.bit_count() for r in rows]


def _individualize(colors: list[int], v: int) -> list[int]:
    """Give v a fresh color just below its current cell."""
    out = [2 * c + 1 for c in colors]
    out[v] = 2 * colors[v]
    return out


def _encode_under(rows: tuple[int, ...], n: int, colors: Sequence[int]) -> int:
    # colors discrete: vertex v gets new label colors[v]
    inv = [0] * n
    for v in range(n):
        inv[colors[v]] = v
    x = 0
    for i in range(n - 1):
        ri = rows[inv[i]]
        for j in range(i + 1, n):
            x = (x << 1) | (ri >> inv[j] & 1)
    return x


def _orbit(v: int, gens: list[list[int]], path: list[int]) -> set[int]:
    """Orbit of v under the automorphisms in gens that fix path pointwise."""
    fixing = [gamma for gamma in gens if all(gamma[u] == u for u in path)]
    orbit, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for gamma in fixing:
            if gamma[u] not in orbit:
                orbit.add(gamma[u])
                stack.append(gamma[u])
    return orbit


def _search(g: Graph) -> tuple[int, list[int], int]:
    """Individualization-refinement with automorphism pruning: (code, labeling, |Aut|).

    Refine color classes, branch on the vertices of the first non-singleton
    cell and keep the leaf of smallest code.  Two leaves with equal codes
    give an automorphism.  A node explores one child per orbit of the
    automorphisms found that fix its path, and below a non-first child of a
    first-path node a leaf equal to the first leaf ends the child: its
    subtree is an image of the first child's.  Pruned subtrees repeat the
    codes of explored ones, so the minimum is that of the full tree, and
    |Aut| is the product of the first child's orbit sizes along the first
    path (McKay & Piperno, Practical graph isomorphism, II, 2014).
    """
    rows, n = g.rows, g.n
    first = best = None  # (code, colors) of the first and the smallest leaf
    gens: list[list[int]] = []
    aut = 1

    def descend(colors: list[int], path: list[int], on_first: bool) -> bool:
        """Explore one node; True once a leaf equals the first leaf."""
        nonlocal first, best, aut
        cell_of: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cell_of.setdefault(c, []).append(v)
        target = None
        for c in sorted(cell_of):
            if len(cell_of[c]) > 1:
                target = cell_of[c]
                break
        if target is None:
            code = _encode_under(rows, n, colors)
            if first is None:
                first = best = (code, colors)
                return False
            inv = [0] * n
            for v in range(n):
                inv[colors[v]] = v
            for ref_code, ref_colors in (first, best):
                if code == ref_code:
                    gens.append([inv[c] for c in ref_colors])
                    return code == first[0]
            if code < best[0]:
                best = (code, colors)
            return False
        explored: set[int] = set()
        for w in target:
            if explored & _orbit(w, gens, path):
                continue
            explored.add(w)
            child = _refine(rows, _individualize(colors, w))
            if descend(child, path + [w], on_first and w == target[0]) and not on_first:
                return True
        if on_first:
            aut *= len(_orbit(target[0], gens, path))
        return False

    descend(_refine(rows, _degree_colors(rows)), [], True)
    return (*best, aut)


def canonical_code(g: Graph) -> CanonicalCode:
    """Isomorphism-invariant (n, code): code of the canonically relabeled graph.
    The search tree's leaf set is isomorphism invariant, so equal canonical
    codes characterize isomorphic graphs."""
    return CanonicalCode(g.n, _search(g)[0])


def automorphism_count(g: Graph) -> int:
    """Number of adjacency-preserving permutations, from the same search."""
    return _search(g)[2]


# ---------------------------------------------------------------------------
# structural report


@dataclass(frozen=True)
class StructuralReport:
    min_degree: int
    max_degree: int
    triangle_free: bool
    every_vertex_in_triangle: bool
    hamiltonian: bool
    chromatic_number: int


def is_hamiltonian(g: Graph) -> bool:
    """Backtracking Hamiltonian-cycle search with connectivity pruning."""
    n = g.n
    if n < 3:
        return False
    if any(r.bit_count() < 2 for r in g.rows):
        return False
    # a cycle alternates sides, so a bipartite graph needs equal sides (a
    # connected one has only one 2-coloring; a disconnected one no cycle)
    colors = _two_coloring(g)
    if colors is not None and 2 * sum(colors) != n:
        return False
    rows = g.rows
    full = (1 << n) - 1

    def extend(cur: int, visited: int) -> bool:
        if visited == full:
            return bool(rows[cur] & 1)  # close the cycle at vertex 0
        rest = full & ~visited
        # all unvisited vertices must be reachable from cur through unvisited
        if g.reach(rows[cur], rest) != rest:
            return False
        m = rows[cur] & rest
        while m:
            b = m & -m
            v = b.bit_length() - 1
            if extend(v, visited | b):
                return True
            m ^= b
        return False

    return extend(0, 1)


def _two_coloring(g: Graph) -> list[int] | None:
    """A 0/1 color per vertex with no edge inside a color, or None if g is
    not bipartite.  The first vertex of each component gets color 0."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def _colorable(g: Graph, k: int) -> bool:
    n = g.n
    order = sorted(range(n), key=lambda v: -g.degree(v))
    rows = g.rows
    assign = [-1] * n

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        seen = 0
        for u in g.neighbors(v):
            if assign[u] >= 0:
                seen |= 1 << assign[u]
        limit = min(k, used + 1)  # first use of a fresh color is canonical
        for c in range(limit):
            if seen >> c & 1:
                continue
            assign[v] = c
            if place(i + 1, max(used, c + 1)):
                return True
            assign[v] = -1
        return False

    return place(0, 0)


def chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    if g.edge_count == 0:
        return 1
    if _two_coloring(g) is not None:
        return 2
    k = 3
    while not _colorable(g, k):
        k += 1
    return k


def structural_report(g: Graph) -> StructuralReport:
    """Degree, triangle, Hamiltonicity and coloring summary of a graph."""
    degs = [g.degree(v) for v in range(g.n)]
    tri = [triangles_at(g, v) for v in range(g.n)]
    return StructuralReport(
        min_degree=min(degs) if degs else 0,
        max_degree=max(degs) if degs else 0,
        triangle_free=all(t == 0 for t in tri),
        every_vertex_in_triangle=all(t > 0 for t in tri),
        hamiltonian=is_hamiltonian(g),
        chromatic_number=chromatic_number(g),
    )
