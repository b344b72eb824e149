import math

import numpy as np
import pytest

from rigidsearch.cli import main
from rigidsearch.graphs import (CanonicalCode, Graph, _degree_colors,
                                _encode_under, _individualize, _refine, _search,
                                automorphism_count, canonical_code,
                                chromatic_number, clustering, decode_int,
                                encode_int, infer_n, is_hamiltonian, ldp,
                                structural_report, triangles_at)
from rigidsearch.rigidity import enumerate_minimally_rigid

from conftest import NAC_COMPARISON, NAC_RECORDS, SPHERE_RECORDS


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def book(p):
    """K2 plus p apexes, each joined to both ends of the K2."""
    return Graph.from_edges(p + 2, [(0, 1)] + [(i, a) for a in range(2, p + 2)
                                               for i in (0, 1)])


def reference_search(g):
    """The unpruned search tree: (minimum leaf code, number of leaves with
    that code).  Aut acts freely on the leaves and any two leaves with equal
    codes differ by an automorphism, so the number is |Aut|."""
    rows, n = g.rows, g.n
    best = [None, 0]

    def descend(colors):
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            code = _encode_under(rows, n, colors)
            if best[0] is None or code < best[0]:
                best[:] = [code, 1]
            elif code == best[0]:
                best[1] += 1
            return
        for v in target:
            descend(_refine(rows, _individualize(colors, v)))

    descend(_refine(rows, _degree_colors(rows)))
    return best[0], best[1]


class TestGraph:
    def test_empty_and_complete(self):
        assert Graph.from_edges(4, []).edge_count == 0
        assert Graph.complete(4).edge_count == 6
        assert Graph.complete(1).n == 1

    def test_edges_sorted_and_membership(self):
        g = Graph.from_edges(4, [(2, 3), (0, 2), (1, 0)])
        assert g.edges() == [(0, 1), (0, 2), (2, 3)]
        assert g.has_edge(2, 0) and not g.has_edge(1, 2)
        assert g.degree(0) == 2 and g.degree(3) == 1
        assert list(g.neighbors(0)) == [1, 2]

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_add_remove_edge(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert g.has_edge(1, 0)
        assert not g.remove_edge(0, 1).has_edge(0, 1)

    def test_add_delete_vertex(self):
        g = Graph.complete(3).add_vertex([0, 2])
        assert g.n == 4 and g.degree(3) == 2 and g.has_edge(3, 0)
        h = Graph.complete(4).delete_vertex(1)
        assert h.n == 3 and h.edge_count == 3

    def test_permuted_preserves_structure(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        h = g.permuted([3, 1, 0, 2])
        assert h.edge_count == g.edge_count
        assert sorted(h.degree(v) for v in range(4)) == sorted(
            g.degree(v) for v in range(4))

    def test_connectivity(self):
        assert Graph.complete(3).reach(1, 0b111) == 0b111
        assert Graph.from_edges(4, [(0, 1), (2, 3)]).reach(1, 0b1111) != 0b1111
        assert Graph.complete(1).reach(1, 0b1) == 0b1

    def test_equality_and_hash(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph.from_edges(3, [(0, 2)])


class TestCodec:
    def test_triangle_is_seven(self):
        assert encode_int(Graph.complete(3)) == 7
        assert decode_int(7, 3) == Graph.complete(3)
        assert infer_n(7) == 3

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10000):
            n = int(rng.integers(2, 12))
            bits = n * (n - 1) // 2
            x = int(rng.integers(0, 2 ** min(bits, 62)))
            assert encode_int(decode_int(x, n)) == x

    def test_upper_triangle_row_order(self):
        # Row 0 occupies the most significant bits: on 3 vertices, bit
        # weights are 4 for 01, 2 for 02, 1 for 12.
        assert encode_int(Graph.from_edges(3, [(0, 1)])) == 4
        assert encode_int(Graph.from_edges(3, [(0, 2)])) == 2
        assert encode_int(Graph.from_edges(3, [(1, 2)])) == 1

    def test_code_too_large_for_n(self):
        with pytest.raises(ValueError):
            decode_int(8, 3)

    def test_infer_n_minimal(self):
        assert infer_n(1) == 2
        assert infer_n(63) == 4
        assert infer_n(64) == 5

    def test_certificate_popcounts_match_edge_counts(self):
        # Minimally rigid graphs have exactly 2n - 3 edges, so each
        # certificate integer must have exactly that many set bits.
        for n, (code, _) in {**NAC_RECORDS, **NAC_COMPARISON}.items():
            assert code.bit_count() == 2 * n - 3
        for n, code, _ in SPHERE_RECORDS:
            assert code.bit_count() == 2 * n - 3


class TestLocalFeatures:
    def test_triangles(self):
        assert triangles_at(Graph.complete(4), 0) == 3
        assert triangles_at(cycle(5), 2) == 0

    def test_ldp_isolated_and_leaf(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert ldp(g, 2) == (0, 0, 0, 0, 0)
        assert ldp(g, 0) == (1, 0, 0, 0, 0)

    def test_ldp_star_center(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert ldp(g, 0) == (3, 1, 1, 1.0, 0.0)

    def test_clustering(self):
        assert clustering(Graph.complete(4), 1) == 1.0
        assert clustering(cycle(4), 0) == 0.0
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert clustering(g, 0) == pytest.approx(1 / 3)


class TestCanonical:
    def test_isomorphic_graphs_share_code(self):
        rng = np.random.default_rng(3)
        g = decode_int(17918609956344, 10)
        base = canonical_code(g)
        for _ in range(25):
            perm = list(rng.permutation(g.n))
            assert canonical_code(g.permuted(perm)) == base

    def test_distinguishes_nonisomorphic(self):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_code(path) != canonical_code(star)

    def test_canonical_code_is_reachable(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)])
        cc = canonical_code(g)
        assert isinstance(cc, CanonicalCode)
        assert canonical_code(decode_int(cc.code, cc.n)) == cc

    def test_labeling_is_permutation(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        lab = _search(g)[1]
        assert sorted(lab) == list(range(6))
        assert encode_int(g.permuted(lab)) == canonical_code(g).code

    def test_regular_graphs_needing_individualization(self):
        # Two distinct cubic graphs on 6 vertices: the prism and K_{3,3}.
        prism = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0),
                                     (3, 4), (4, 5), (5, 3),
                                     (0, 3), (1, 4), (2, 5)])
        k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
        assert canonical_code(prism) != canonical_code(k33)
        perm = [4, 2, 0, 5, 1, 3]
        assert canonical_code(prism.permuted(perm)) == canonical_code(prism)

    def test_automorphism_counts(self, k33):
        assert automorphism_count(Graph.complete(3)) == 6
        assert automorphism_count(Graph.complete(4)) == 24
        assert automorphism_count(cycle(5)) == 10
        assert automorphism_count(k33) == 72
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert automorphism_count(path) == 2


class TestPrunedSearch:
    def assert_matches_reference(self, g):
        code, aut = reference_search(g)
        assert canonical_code(g) == CanonicalCode(g.n, code)
        assert automorphism_count(g) == aut
        lab = _search(g)[1]
        assert encode_int(g.permuted(lab)) == code

    def test_every_class_up_to_eight(self):
        rng = np.random.default_rng(11)
        total = 0
        for n in range(2, 9):
            for cc in sorted(enumerate_minimally_rigid(n)):
                g = decode_int(cc.code, cc.n).permuted(list(rng.permutation(n)))
                self.assert_matches_reference(g)
                total += 1
        assert total == 1 + 1 + 1 + 3 + 13 + 70 + 608

    def test_fixture_certificates(self):
        certs = [(n, code) for n, (code, _) in NAC_RECORDS.items()]
        certs += [(n, code) for n, (code, _) in NAC_COMPARISON.items()]
        certs += [(n, code) for n, code, _ in SPHERE_RECORDS]
        assert len(certs) == 16
        for n, code in certs:
            self.assert_matches_reference(decode_int(code, n))

    def test_book_family(self):
        rng = np.random.default_rng(5)
        for p in range(2, 17):
            g = book(p)
            assert automorphism_count(g) == 2 * math.factorial(p)
            h = g.permuted(list(rng.permutation(g.n)))
            assert canonical_code(h) == canonical_code(g)
            assert automorphism_count(h) == 2 * math.factorial(p)
            if p <= 6:
                self.assert_matches_reference(h)

    def test_cycle_unions(self):
        # Unions of cycles are 2-regular, so refinement leaves every vertex
        # in one cell that holds several orbits; the search must then find
        # the smallest leaf outside the first child's subtree.
        def partitions(n, lo=3):
            if n == 0:
                yield []
            for k in range(lo, n + 1):
                for rest in partitions(n - k, k):
                    yield [k] + rest

        rng = np.random.default_rng(0)
        for n in range(6, 12):
            for parts in partitions(n):
                edges, off = [], 0
                for k in parts:
                    edges += [(off + i, off + (i + 1) % k) for i in range(k)]
                    off += k
                g = Graph.from_edges(n, edges)
                for _ in range(3):
                    self.assert_matches_reference(g.permuted(list(rng.permutation(n))))

    def test_search_with_symmetric_rollouts_finishes(self, capsys, tmp_path):
        # First-generation rollouts at n=13 include graphs with large
        # equitable cells, which an unpruned search tree cannot finish.
        code = main(["search", "--reward", "nac", "--n", "13", "--m", "50",
                     "--generations", "1", "--seed", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("best 13 ")


class TestStructure:
    def test_hamiltonian(self, k33):
        assert is_hamiltonian(cycle(6))
        assert is_hamiltonian(Graph.complete(5))
        assert is_hamiltonian(k33)
        assert not is_hamiltonian(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        assert not is_hamiltonian(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3),
                                                       (0, 4), (1, 2), (3, 4)]))

    def test_chromatic_number(self, k33):
        assert chromatic_number(Graph.from_edges(3, [])) == 1
        assert chromatic_number(k33) == 2
        assert chromatic_number(cycle(5)) == 3
        assert chromatic_number(Graph.complete(4)) == 4
        assert chromatic_number(cycle(6)) == 2

    def test_structural_report(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        rep = structural_report(g)
        assert rep.min_degree == 1 and rep.max_degree == 3
        assert not rep.triangle_free
        assert not rep.every_vertex_in_triangle
        assert not rep.hamiltonian
        assert rep.chromatic_number == 3

    def test_triangle_flags(self):
        rep = structural_report(Graph.complete(4))
        assert rep.every_vertex_in_triangle and not rep.triangle_free
        rep = structural_report(cycle(4))
        assert rep.triangle_free and not rep.every_vertex_in_triangle
