"""`count_nac`, a frontier DP with tuple states, against three test-local
counters it replaced: the same DP with packed-int states (`packed_count_nac`),
the connectivity-first depth-first counter (`survivors_count`) and the
merge/unmerge counter before it (`ref_count_nac`).  Every count must match
exactly, on every class up to eight vertices, on the record and comparison
certificates from 13 to 18 vertices, on the children of the 13-vertex record,
on the graphs of seeded rollouts, and (for the packed DP) on sparse,
disconnected and random graphs."""

import numpy as np
import pytest

from rigidsearch.cem import rollouts
from rigidsearch.graphs import Graph, canonical_code, decode_int
from rigidsearch.nac import NAC_GUARD, _placement_order, count_nac
from rigidsearch.policy import init_params
from rigidsearch.rigidity import (GuardError, apply_extension, enumerate_extensions,
                                  enumerate_minimally_rigid)

from conftest import NAC_COMPARISON, NAC_RECORDS, SPARSE_GRAPHS, random_graphs

# --- reference: the same frontier DP with each state packed into one int,
# unpacked into four lists per state, and the edges of a placed vertex
# colored by a recursive closure


def packed_count_nac(g: Graph) -> int:
    m = g.edge_count
    if m > NAC_GUARD:
        raise GuardError(f"|E|={m} exceeds guard {NAC_GUARD}")
    if m < 2:
        return 0
    n = g.n
    rows = _placed(g).rows

    def place(k: int, red: int, red_ban: int, blue: int, blue_ban: int) -> None:
        if k < len(back):
            u = back[k]
            k += 1
            if not (blue >> u & 1 or red_of[u] & red_ban):
                place(k, red | red_of[u], red_ban | red_ban_of[u],
                      blue, blue_ban | blue_of[u])
            if t != 1 and not (red >> u & 1 or blue_of[u] & blue_ban):
                place(k, red, red_ban | red_of[u],
                      blue | blue_of[u], blue_ban | blue_ban_of[u])
            return
        red |= tb
        blue |= tb
        key = 0
        for x in kept:
            if red >> x & 1:
                r, rb = red, red_ban
            else:
                r = red_of[x]
                rb = red_ban_of[x] | red if red_ban >> x & 1 else red_ban_of[x]
            if blue >> x & 1:
                b, bb = blue, blue_ban
            else:
                b = blue_of[x]
                bb = blue_ban_of[x] | blue if blue_ban >> x & 1 else blue_ban_of[x]
            key = (((key << n | r & keep) << n | b & keep) << n | rb & keep) << n | bb & keep
        new[key] = new.get(key, 0) + count

    full = (1 << n) - 1
    states = {0: 1}
    frontier: list[int] = []
    for t in range(n):
        tb = 1 << t
        back = [u for u in frontier if rows[t] >> u & 1]
        kept = [u for u in frontier + [t] if rows[u] >> t > 1]
        keep = sum(1 << u for u in kept)
        new = {}
        for key, count in states.items():
            red_of = [0] * n
            blue_of = [0] * n
            red_ban_of = [0] * n
            blue_ban_of = [0] * n
            for x in reversed(frontier):
                blue_ban_of[x] = key & full
                key >>= n
                red_ban_of[x] = key & full
                key >>= n
                blue_of[x] = key & full
                key >>= n
                red_of[x] = key & full
                key >>= n
            place(0, 0, 0, 0, 0)
        states = new
        frontier = kept
    return states[0] - 1

# --- reference: the connectivity-first depth-first counter, copying its
# component and neighbour bitmasks on each step


def _survivors(edges, i, own, other, own_adj, other_adj):
    """Colorings of edges[i + 1:] that survive once edges[i] takes the own
    color, given each vertex's component bitmask and neighbour bitmask per
    color over the edges colored so far."""
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


def _placed(g: Graph) -> Graph:
    """g relabeled so that vertex i is the i-th of `_placement_order`."""
    at = [0] * g.n
    for i, v in enumerate(_placement_order(g)):
        at[v] = i
    return g.permuted(at)


def survivors_count(g: Graph, max_edges: int = NAC_GUARD) -> int:
    m = g.edge_count
    if m > max_edges:
        raise GuardError(f"|E|={m} exceeds guard {max_edges}")
    if m < 2:
        return 0
    edges = sorted(_placed(g).edges(), key=lambda e: (e[1], e[0]))
    singletons = [1 << v for v in range(g.n)]
    return _survivors(edges, 0, singletons, singletons, [0] * g.n, [0] * g.n) - 1


# --- reference: the counter before that, merging and undoing in place


def ref_count_nac(g: Graph, max_edges: int = NAC_GUARD) -> int:
    m = g.edge_count
    if m > max_edges:
        raise GuardError(f"|E|={m} exceeds guard {max_edges}")
    if m < 2:
        return 0
    edges = sorted(g.edges(), key=lambda e: (e[1], e[0]))
    comp_red = [1 << v for v in range(g.n)]
    comp_blue = [1 << v for v in range(g.n)]
    red_edges = []
    blue_edges = []
    leaves = 0

    def merge(comp, u, v):
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

    def unmerge(comp, saved):
        for old in saved:
            b = old
            while b:
                low = b & -b
                comp[low.bit_length() - 1] = old
                b ^= low

    def assign(i, u, v, own, other, own_edges, other_edges):
        if other[u] >> v & 1:
            return
        saved = merge(own, u, v)
        if saved is not None:
            for x, y in other_edges:
                if own[x] >> y & 1:
                    unmerge(own, saved)
                    return
        own_edges.append((u, v))
        descend(i + 1)
        own_edges.pop()
        if saved is not None:
            unmerge(own, saved)

    def descend(i):
        nonlocal leaves
        if i == m:
            leaves += 1
            return
        u, v = edges[i]
        assign(i, u, v, comp_red, comp_blue, red_edges, blue_edges)
        assign(i, u, v, comp_blue, comp_red, blue_edges, red_edges)

    u0, v0 = edges[0]
    assign(0, u0, v0, comp_red, comp_blue, red_edges, blue_edges)
    return leaves - 1


def test_every_class_up_to_eight_vertices():
    graphs = [decode_int(cc.code, cc.n)
              for n in range(3, 9) for cc in enumerate_minimally_rigid(n)]
    assert len(graphs) == 696
    counts = [count_nac(g) for g in graphs]
    assert counts == [packed_count_nac(g) for g in graphs]
    assert counts == [survivors_count(g) for g in graphs]
    assert counts == [ref_count_nac(g) for g in graphs]


CERTIFICATES = [pytest.param(n, code, count, id=f"{family}-{n}")
                for family, certs in (("record", NAC_RECORDS), ("comparison", NAC_COMPARISON))
                for n, (code, count) in certs.items() if n <= 15]


@pytest.mark.parametrize("n,code,count", CERTIFICATES)
def test_certificates_under_given_and_seeded_labels(n, code, count):
    g = decode_int(code, n)
    shuffled = g.permuted(list(np.random.default_rng(n).permutation(n)))
    assert shuffled != g
    for h in (g, shuffled):
        assert count_nac(h) == packed_count_nac(h) == count
        assert survivors_count(h) == ref_count_nac(h) == count


LARGE = [pytest.param(n, code, count, id=f"{family}-{n}")
         for family, certs in (("record", NAC_RECORDS), ("comparison", NAC_COMPARISON))
         for n, (code, count) in certs.items() if n >= 16]


@pytest.mark.parametrize("n,code,count", LARGE)
def test_large_certificates_under_given_labels(n, code, count):
    g = decode_int(code, n)
    assert count_nac(g) == packed_count_nac(g) == count
    assert survivors_count(g) == ref_count_nac(g) == count


def test_children_of_the_13_vertex_record():
    g = decode_int(NAC_RECORDS[13][0], 13)
    children = {}
    for ext in enumerate_extensions(g):
        child = apply_extension(g, ext)
        children.setdefault(canonical_code(child), child)
    assert len(children) == 185
    for cc, child in children.items():
        count = count_nac(child)
        assert count_nac(decode_int(cc.code, cc.n)) == count, cc
        assert packed_count_nac(child) == count, cc
        assert survivors_count(child) == count, cc
        # the reference is label-dependent only in speed
        assert ref_count_nac(_placed(child)) == count, cc


@pytest.mark.parametrize("n,count", [(10, 200), (13, 100)])
def test_rollout_graphs(n, count):
    params = init_params("gin", n, seed=n)
    traces = rollouts(params, n, [np.random.default_rng((n, i)) for i in range(count)])
    graphs = {}
    for tr in traces:
        # the labels a rollout built, and the canonical ones a search counts on
        graphs.setdefault(tr.graph.rows, tr.graph)
        canonical = decode_int(tr.code.code, n)
        graphs.setdefault(canonical.rows, canonical)
    assert len(graphs) > 100
    for g in graphs.values():
        count = count_nac(g)
        assert packed_count_nac(g) == count, g.edges()
        assert survivors_count(g) == ref_count_nac(g) == count, g.edges()


def test_guard_boundary():
    g = Graph.complete(9).remove_edge(0, 1)  # 35 edges
    for counter in (count_nac, packed_count_nac, survivors_count, ref_count_nac):
        assert counter(g.remove_edge(2, 3)) == 0
        with pytest.raises(GuardError):
            counter(g)


def test_sparse_disconnected_and_random_graphs():
    graphs = [Graph.from_edges(*case.values) for case in SPARSE_GRAPHS]
    graphs += random_graphs()
    counted = 0
    for g in graphs:
        if g.edge_count > NAC_GUARD:
            continue  # test_guard_boundary pins the guard for both counters
        assert count_nac(g) == packed_count_nac(g), (g.n, g.edges())
        counted += 1
    assert counted > 100
