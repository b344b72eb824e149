"""The connectivity-first order `count_nac` places vertices in, and the
published counts of the n = 16-18 certificates under three labelings."""

import numpy as np
import pytest

from rigidsearch.graphs import Graph, canonical_code, decode_int
from rigidsearch.nac import _connectivity_first, count_nac
from rigidsearch.rigidity import enumerate_minimally_rigid

from conftest import NAC_COMPARISON, NAC_RECORDS


def test_order_is_a_connected_permutation():
    graphs = [decode_int(cc.code, cc.n)
              for n in range(3, 9) for cc in enumerate_minimally_rigid(n)]
    graphs += [decode_int(code, n) for n, (code, _) in NAC_RECORDS.items()]
    for g in graphs:
        order = _connectivity_first(g)
        assert sorted(order) == list(range(g.n))
        assert g.is_connected()
        placed = 1 << order[0]
        for v in order[1:]:
            assert g.rows[v] & placed, (g.edges(), order)
            placed |= 1 << v


def tuple_key_order(g: Graph) -> list[int]:
    """The order's rule as first written: a tuple key per step."""
    rows = g.rows
    order: list[int] = []
    placed = 0
    for _ in range(g.n):
        v = min((v for v in range(g.n) if not placed >> v & 1),
                key=lambda v: (-(rows[v] & placed).bit_count(), -g.degree(v), v))
        order.append(v)
        placed |= 1 << v
    return order


def test_order_matches_the_tuple_key_rule():
    graphs = [decode_int(cc.code, cc.n)
              for n in range(3, 9) for cc in enumerate_minimally_rigid(n)]
    graphs += [decode_int(code, n)
               for certs in (NAC_RECORDS, NAC_COMPARISON) for n, (code, _) in certs.items()]
    rng = np.random.default_rng(7)
    for _ in range(300):  # random graphs, many of them disconnected
        n = int(rng.integers(1, 19))
        density = rng.random()
        graphs.append(Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]))
    for g in graphs:
        assert _connectivity_first(g) == tuple_key_order(g), g.edges()


def test_order_of_a_path_breaks_ties_by_degree_then_label():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert _connectivity_first(g) == [1, 2, 0, 3]


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
