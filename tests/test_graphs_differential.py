"""The graph code against test-local copies of the code it replaced: the
ranked color sources `_degree_colors` and `_individualize`, the search that
used them, and the Hamiltonian search before it skipped bipartite graphs
with unequal sides; and the Hamiltonian and connectivity walks against brute
force and breadth-first search.  Every answer must be equal, not close."""

from itertools import permutations

import numpy as np

from rigidsearch.graphs import (Graph, _degree_colors, _encode_under,
                                _individualize, _orbit, _refine, _search,
                                _two_coloring, automorphism_count,
                                canonical_code, decode_int, is_hamiltonian)
from rigidsearch.rigidity import enumerate_minimally_rigid

from conftest import NAC_COMPARISON, NAC_RECORDS, SPHERE_RECORDS

# --- reference: the color sources as they were, returning compact ranks


def ref_degree_colors(rows):
    degs = [r.bit_count() for r in rows]
    rank = {d: i for i, d in enumerate(sorted(set(degs)))}
    return [rank[d] for d in degs]


def ref_individualize(colors, v):
    out = [2 * c + 1 for c in colors]
    out[v] = 2 * colors[v]
    ordered = sorted(set(out))
    rank = {c: i for i, c in enumerate(ordered)}
    return [rank[c] for c in out]


def ref_search(g):
    """The pruned search as it was, on the ranked color sources:
    (code, labeling, |Aut|)."""
    rows, n = g.rows, g.n
    first = best = None
    gens = []
    aut = 1

    def descend(colors, path, on_first):
        nonlocal first, best, aut
        cell_of = {}
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
        explored = set()
        for w in target:
            if explored & _orbit(w, gens, path):
                continue
            explored.add(w)
            child = _refine(rows, ref_individualize(colors, w))
            if descend(child, path + [w], on_first and w == target[0]) and not on_first:
                return True
        if on_first:
            aut *= len(_orbit(target[0], gens, path))
        return False

    descend(_refine(rows, ref_degree_colors(rows)), [], True)
    return (*best, aut)


# --- references for the walks


def ref_is_hamiltonian(g):
    """Permutation brute force over the cycles through vertex 0."""
    n = g.n
    if n < 3:
        return False
    for rest in permutations(range(1, n)):
        cycle = (0, *rest)
        if all(g.has_edge(cycle[i], cycle[(i + 1) % n]) for i in range(n)):
            return True
    return False


def backtracking_is_hamiltonian(g):
    """The backtracking search with connectivity pruning, without the
    bipartite side check."""
    n = g.n
    if n < 3:
        return False
    if any(r.bit_count() < 2 for r in g.rows):
        return False
    rows = g.rows
    full = (1 << n) - 1

    def extend(cur, visited):
        if visited == full:
            return bool(rows[cur] & 1)
        rest = full & ~visited
        if g.reach(rows[cur], rest) != rest:
            return False
        m = rows[cur] & rest
        while m:
            b = m & -m
            if extend(b.bit_length() - 1, visited | b):
                return True
            m ^= b
        return False

    return extend(0, 1)


def ref_reach(g, src, allowed):
    """Breadth-first search inside `allowed` from the vertices of `src`."""
    seen = {v for v in range(g.n) if (src & allowed) >> v & 1}
    queue = list(seen)
    while queue:
        u = queue.pop(0)
        for v in g.neighbors(u):
            if allowed >> v & 1 and v not in seen:
                seen.add(v)
                queue.append(v)
    return sum(1 << v for v in seen)


def book(p):
    """K2 plus p apexes, each joined to both ends of the K2."""
    return Graph.from_edges(p + 2, [(0, 1)] + [(i, a) for a in range(2, p + 2)
                                               for i in (0, 1)])


def classes(n_max):
    return [decode_int(cc.code, cc.n) for n in range(2, n_max + 1)
            for cc in sorted(enumerate_minimally_rigid(n))]


def random_graphs(count, n_max, seed):
    """Seeded graphs on 0..n_max vertices over the full range of densities."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(0, n_max + 1))
        p = float(rng.uniform(0.1, 0.9))
        out.append(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                        if rng.random() < p]))
    return out


def test_unranked_colors_refine_like_the_ranked_ones():
    graphs = classes(8)
    assert len(graphs) == 1 + 1 + 1 + 3 + 13 + 70 + 608
    for g in graphs:
        rows = g.rows
        base = _refine(rows, _degree_colors(rows))
        assert base == _refine(rows, ref_degree_colors(rows))
        for v in range(g.n):
            assert (_refine(rows, _individualize(base, v))
                    == _refine(rows, ref_individualize(base, v)))


def assert_matches_ranked_search(graphs):
    for g in graphs:
        code, labeling, aut = ref_search(g)
        assert canonical_code(g).code == code
        assert _search(g)[1] == labeling
        assert automorphism_count(g) == aut


def test_search_matches_the_ranked_search_on_books():
    graphs = [book(p) for p in range(6, 17)]
    rng = np.random.default_rng(8)
    assert_matches_ranked_search(graphs + [g.permuted(list(rng.permutation(g.n)))
                                           for g in graphs])


def test_search_matches_the_ranked_search_on_certificates():
    certs = [(n, code) for n, (code, _) in NAC_RECORDS.items()]
    certs += [(n, code) for n, (code, _) in NAC_COMPARISON.items()]
    certs += [(n, code) for n, code, _ in SPHERE_RECORDS]
    assert_matches_ranked_search([decode_int(code, n) for n, code in certs])


def test_hamiltonian_matches_brute_force_on_every_class():
    graphs = classes(7)
    answers = [is_hamiltonian(g) for g in graphs]
    assert answers == [ref_is_hamiltonian(g) for g in graphs]
    assert True in answers and False in answers


def test_hamiltonian_matches_brute_force_on_random_graphs():
    graphs = random_graphs(150, 8, seed=21)
    answers = [is_hamiltonian(g) for g in graphs]
    assert answers == [ref_is_hamiltonian(g) for g in graphs]
    assert True in answers and False in answers
    assert any(g.n >= 3 and g.reach(1, (1 << g.n) - 1) != (1 << g.n) - 1 for g in graphs)
    assert any(1 in [g.degree(v) for v in range(g.n)] for g in graphs)


def test_hamiltonian_matches_the_backtracking_on_certificates():
    certs = [(n, code) for family in (NAC_RECORDS, NAC_COMPARISON)
             for n, (code, _) in family.items()]
    certs += [(n, code) for n, code, _ in SPHERE_RECORDS]
    assert len(certs) == 16
    unequal = 0
    for n, code in certs:
        g = decode_int(code, n)
        assert is_hamiltonian(g) == backtracking_is_hamiltonian(g), (n, code)
        colors = _two_coloring(g)
        unequal += colors is not None and 2 * sum(colors) != n
    assert unequal == 8  # the certificates the side check decides


def test_walks_match_breadth_first_search():
    rng = np.random.default_rng(4)
    for g in random_graphs(300, 9, seed=5):
        full = (1 << g.n) - 1
        assert (g.reach(1, full) == full) == (g.n == 0 or ref_reach(g, 1, full) == full)
        for _ in range(4):
            src, allowed = (int(rng.integers(0, full + 1)) for _ in range(2))
            assert g.reach(src, allowed) == ref_reach(g, src, allowed)
