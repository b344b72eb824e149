"""The min-frontier order `count_nac` places vertices in, and the published
counts of the n = 16-18 certificates under three labelings."""

import functools

import numpy as np
import pytest

from rigidsearch.cem import rollouts
from rigidsearch.graphs import Graph, canonical_code, decode_int
from rigidsearch.nac import _placement_order, count_nac
from rigidsearch.policy import init_params
from rigidsearch.rigidity import apply_extension, enumerate_extensions, enumerate_minimally_rigid

from conftest import NAC_COMPARISON, NAC_RECORDS, random_graphs


def test_order_is_a_connected_permutation():
    graphs = [decode_int(cc.code, cc.n)
              for n in range(3, 9) for cc in enumerate_minimally_rigid(n)]
    graphs += [decode_int(code, n) for n, (code, _) in NAC_RECORDS.items()]
    for g in graphs:
        order = _placement_order(g)
        assert sorted(order) == list(range(g.n))
        assert g.reach(1, (1 << g.n) - 1) == (1 << g.n) - 1
        placed = 1 << order[0]
        for v in order[1:]:
            assert g.rows[v] & placed, (g.edges(), order)
            placed |= 1 << v


def min_frontier_order(g: Graph) -> list[int]:
    """The order's rule, recounting the frontier from scratch at each step."""
    n, rows = g.n, g.rows
    order: list[int] = []
    placed = 0

    def frontier_after(v: int) -> int:
        now = placed | 1 << v
        return sum(1 for u in range(n) if now >> u & 1 and rows[u] & ~now)

    for _ in range(n):
        unplaced = [v for v in range(n) if not placed >> v & 1]
        reached = [v for v in unplaced if rows[v] & placed]
        if reached:
            v = min(reached, key=lambda v: (frontier_after(v), -(rows[v] & placed).bit_count(),
                                            -g.degree(v), -v))
        else:
            v = min(unplaced, key=lambda v: (-g.degree(v), -v))
        order.append(v)
        placed |= 1 << v
    return order


def _search_traffic() -> list[Graph]:
    """Graphs a search counts: the final graphs of untrained rollouts at the
    default initialization, and the child classes of the 13-vertex record,
    each as built and canonically labelled."""
    built = []
    for n in (10, 13):
        params = init_params("gin", n, seed=(0, 0, 2**30 + 1))
        traces = rollouts(params, n, [np.random.default_rng((0, 1, i)) for i in range(150)])
        built += [(tr.graph, tr.code) for tr in traces]
    record = decode_int(NAC_RECORDS[13][0], 13)
    children = {}
    for ext in enumerate_extensions(record):
        child = apply_extension(record, ext)
        children.setdefault(canonical_code(child), child)
    assert len(children) == 185
    built += [(child, cc) for cc, child in children.items()]
    graphs: dict[tuple[int, ...], Graph] = {}
    for g, cc in built:
        graphs.setdefault(g.rows, g)
        canonical = decode_int(cc.code, cc.n)
        graphs.setdefault(canonical.rows, canonical)
    return list(graphs.values())


@functools.cache
def _order_graphs() -> list[Graph]:
    graphs = [decode_int(cc.code, cc.n)
              for n in range(3, 9) for cc in enumerate_minimally_rigid(n)]
    graphs += [decode_int(code, n)
               for certs in (NAC_RECORDS, NAC_COMPARISON) for n, (code, _) in certs.items()]
    return graphs + random_graphs() + _search_traffic()


def test_order_matches_the_min_frontier_rule():
    for g in _order_graphs():
        assert _placement_order(g) == min_frontier_order(g), g.edges()


def test_second_vertex_is_a_neighbour_of_the_first():
    # count_nac pins the edge between the first two placed vertices red
    for g in _order_graphs():
        if g.edge_count:
            order = _placement_order(g)
            assert g.has_edge(order[0], order[1]), (g.edges(), order)


def test_order_of_a_path_starts_inside_and_empties_the_frontier():
    # 1 and 2 have the highest degree and 2 the higher label; placing 3 then
    # leaves one frontier vertex (2), placing 1 two (2 and 1)
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert _placement_order(g) == [2, 3, 1, 0]


LARGE = [pytest.param(n, code, count, id=f"{family}-{n}")
         for family, certs in (("record", NAC_RECORDS), ("comparison", NAC_COMPARISON))
         for n, (code, count) in certs.items() if n >= 16]


@pytest.mark.parametrize("n,code,count", LARGE)
def test_large_certificates_under_three_labelings(n, code, count):
    g = decode_int(code, n)
    canonical = decode_int(canonical_code(g).code, n)
    shuffled = g.permuted(list(np.random.default_rng(n).permutation(n)))
    assert len({g, canonical, shuffled}) == 3
    for h in (g, canonical, shuffled):
        assert count_nac(h) == count
