"""`count_nac` against a test-local copy of the merge/unmerge counter it
replaced: every count must match exactly, on every class up to eight
vertices, on the record and comparison certificates under their given labels
and a seeded relabeling, and on the graphs of seeded rollouts."""

import numpy as np
import pytest

from rigidsearch.cem import rollouts
from rigidsearch.graphs import Graph, decode_int
from rigidsearch.nac import NAC_GUARD, count_nac
from rigidsearch.policy import init_params
from rigidsearch.rigidity import GuardError, enumerate_minimally_rigid

from conftest import NAC_COMPARISON, NAC_RECORDS

# --- reference: the counter as it was, merging and undoing in place


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
    assert [count_nac(g) for g in graphs] == [ref_count_nac(g) for g in graphs]


CERTIFICATES = [pytest.param(n, code, count, id=f"{family}-{n}")
                for family, certs in (("record", NAC_RECORDS), ("comparison", NAC_COMPARISON))
                for n, (code, count) in certs.items() if n <= 15]


@pytest.mark.parametrize("n,code,count", CERTIFICATES)
def test_certificates_under_given_and_seeded_labels(n, code, count):
    g = decode_int(code, n)
    shuffled = g.permuted(list(np.random.default_rng(n).permutation(n)))
    assert shuffled != g
    for h in (g, shuffled):
        assert count_nac(h) == ref_count_nac(h) == count


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
        assert count_nac(g) == ref_count_nac(g), g.edges()


def test_guard_boundary():
    g = decode_int(NAC_RECORDS[13][0], 13)
    assert count_nac(g, max_edges=g.edge_count) == ref_count_nac(g) == NAC_RECORDS[13][1]
    for counter in (count_nac, ref_count_nac):
        with pytest.raises(GuardError):
            counter(g, max_edges=g.edge_count - 1)
