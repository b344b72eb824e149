from itertools import combinations

import pytest

from rigidsearch.graphs import Graph, decode_int
from rigidsearch.nac import NAC_GUARD, count_nac
from rigidsearch.rigidity import GuardError, enumerate_minimally_rigid

from conftest import SPARSE_GRAPHS
from reference import is_nac_coloring


def naive_count(g):
    """Reference counter: test every red subset with is_nac_coloring,
    counting color-swapped pairs once."""
    edges = g.edges()
    total = 0
    for r in range(1, len(edges)):
        for reds in combinations(edges, r):
            if is_nac_coloring(g, set(reds)):
                total += 1
    assert total % 2 == 0
    return total // 2


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestIsNacColoring:
    def test_non_surjective_rejected(self):
        g = cycle(4)
        assert not is_nac_coloring(g, set())
        assert not is_nac_coloring(g, set(g.edges()))

    def test_triangle_has_none(self):
        g = Graph.complete(3)
        for e in g.edges():
            assert not is_nac_coloring(g, {e})

    def test_four_cycle_balanced_split(self):
        g = cycle(4)
        assert is_nac_coloring(g, {(0, 1), (1, 2)})
        assert is_nac_coloring(g, {(0, 1), (2, 3)})
        # An almost-monochromatic cycle has a single red edge on a blue path.
        assert not is_nac_coloring(g, {(0, 1)})

    def test_unordered_edges_accepted(self):
        g = cycle(4)
        assert is_nac_coloring(g, {(1, 0), (2, 1)})

    def test_foreign_edge_rejected(self):
        with pytest.raises(ValueError):
            is_nac_coloring(cycle(4), {(0, 2)})

    def test_swap_symmetry(self):
        g = decode_int(list(enumerate_minimally_rigid(6))[0].code, 6)
        edges = set(g.edges())
        for r in range(1, len(edges)):
            for reds in combinations(sorted(edges), r):
                assert is_nac_coloring(g, set(reds)) == is_nac_coloring(
                    g, edges - set(reds))


class TestCountNac:
    def test_small_graphs_match_reference(self):
        assert count_nac(Graph.complete(3)) == naive_count(Graph.complete(3))
        assert count_nac(cycle(4)) == naive_count(cycle(4))
        assert count_nac(cycle(5)) == naive_count(cycle(5))
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert count_nac(path) == naive_count(path)

    def test_bipartite_core_matches_reference(self, k33):
        assert count_nac(k33) == naive_count(k33)

    def test_all_small_rigid_classes_match_reference(self):
        for n in (4, 5, 6):
            for cc in enumerate_minimally_rigid(n):
                g = decode_int(cc.code, cc.n)
                assert count_nac(g) == naive_count(g), cc

    def test_rigid_with_zero_count_exists(self):
        # 0-extending a triangle twice yields graphs with no NAC coloring.
        counts = [count_nac(decode_int(cc.code, 5))
                  for cc in enumerate_minimally_rigid(5)]
        assert 0 in counts

    def test_fan_has_none(self):
        # Every triangle must be monochromatic, and the fan's triangles all
        # share the base edge, so every coloring is monochromatic.
        for n in (4, 5, 6, 7):
            edges = [(0, 1)] + [(0, j) for j in range(2, n)] + [
                (1, j) for j in range(2, n)]
            g = Graph.from_edges(n, edges)
            assert count_nac(g) == 0

    def test_guard(self):
        assert NAC_GUARD == 34
        g = Graph.complete(9).remove_edge(0, 1)  # 35 edges
        assert count_nac(g.remove_edge(2, 3)) == 0
        with pytest.raises(GuardError, match=r"limited to \|E\| <= 34, got \|E\|=35"):
            count_nac(g)


class TestNotMinimallyRigid:
    """`verify` accepts any code, so the counter must be exact beyond Laman
    graphs; each case is checked against the brute-force enumeration."""

    @pytest.mark.parametrize("n,edges", SPARSE_GRAPHS)
    def test_sparse_graphs_match_reference(self, n, edges):
        g = Graph.from_edges(n, edges)
        assert count_nac(g) == naive_count(g)

    @pytest.mark.parametrize("g", [
        pytest.param(Graph.complete(5), id="K5"),
        pytest.param(Graph.from_edges(6, [(0, 1)] + [(i, j) for i in range(3) for j in range(3, 6)]),
                     id="K33-plus-an-edge"),
    ])
    def test_more_than_2n_minus_3_edges(self, g):
        assert g.edge_count > 2 * g.n - 3
        assert count_nac(g) == naive_count(g)
