from fractions import Fraction

import pytest

from rigidsearch.graphs import Graph, canonical_code, decode_int
from rigidsearch.rewards import CachedReward
from rigidsearch.rigidity import (Extension, GuardError,
                                  InvalidExtensionError, ONE, ZERO,
                                  apply_extension, enumerate_extensions,
                                  enumerate_minimally_rigid, enumerate_slots,
                                  enumerate_zero_ext_constructible,
                                  extension_impact, is_minimally_rigid, k2,
                                  peel_to_core, prop1_lower_bound,
                                  slot_is_valid)

from conftest import NAC_COMPARISON, NAC_RECORDS, SPHERE_RECORDS


class TestPebbleGame:
    def test_small_positives(self):
        assert is_minimally_rigid(k2())
        assert is_minimally_rigid(Graph.complete(3))
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert is_minimally_rigid(g)

    def test_wrong_edge_count(self):
        assert not is_minimally_rigid(Graph.complete(4))
        assert not is_minimally_rigid(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))

    def test_right_count_wrong_distribution(self):
        # 2n - 3 edges with a K4 inside: the subgraph violates sparsity.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                 (2, 3), (3, 4), (4, 5), (5, 0)])
        assert not is_minimally_rigid(g)

    def test_disconnected(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert not is_minimally_rigid(g)

    def test_certificates_are_minimally_rigid(self):
        for n, (code, _) in {**NAC_RECORDS, **NAC_COMPARISON}.items():
            assert is_minimally_rigid(decode_int(code, n))
        for n, code, _ in SPHERE_RECORDS:
            assert is_minimally_rigid(decode_int(code, n))


class TestSlots:
    def test_slot_count_formula(self):
        for k in range(2, 8):
            assert len(enumerate_slots(k)) == k * (k - 1) * (k - 1) // 2

    def test_fixed_order(self):
        assert enumerate_slots(3) == (
            Extension(ZERO, None, (0, 1)), Extension(ZERO, None, (0, 2)),
            Extension(ZERO, None, (1, 2)), Extension(ONE, 0, (1, 2)),
            Extension(ONE, 1, (0, 2)), Extension(ONE, 2, (0, 1)))

    def test_validity(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert slot_is_valid(g, Extension(ZERO, None, (0, 2)))
        assert slot_is_valid(g, Extension(ONE, 2, (0, 1)))
        assert not slot_is_valid(g, Extension(ONE, 1, (0, 2)))  # 0-2 not an edge

    def test_enumerate_extensions_matches_validity(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        exts = enumerate_extensions(g)
        assert len(exts) == sum(
            slot_is_valid(g, s) for s in enumerate_slots(g.n))
        assert all(isinstance(e, Extension) for e in exts)


class TestApplyExtension:
    def test_zero_extension(self):
        g = apply_extension(k2(), Extension(ZERO, None, (0, 1)))
        assert g == Graph.complete(3)

    def test_one_extension_moves_edge(self):
        g = Graph.complete(3)
        h = apply_extension(g, Extension(ONE, 2, (0, 1)))
        assert h.n == 4
        assert not h.has_edge(0, 1)
        assert h.has_edge(3, 0) and h.has_edge(3, 1) and h.has_edge(3, 2)
        assert is_minimally_rigid(h)

    def test_extensions_preserve_minimal_rigidity(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        for ext in enumerate_extensions(g):
            assert is_minimally_rigid(apply_extension(g, ext))

    def test_invalid_extension_rejected(self):
        with pytest.raises(InvalidExtensionError):
            apply_extension(Graph.from_edges(3, [(0, 1), (1, 2)]),
                            Extension(ONE, 1, (0, 2)))
        with pytest.raises(InvalidExtensionError):
            apply_extension(k2(), Extension(ZERO, None, (0, 0)))


class TestEnumeration:
    def test_closure_counts(self):
        expected = {3: 1, 4: 1, 5: 3, 6: 13, 7: 70}
        for n, count in expected.items():
            assert len(enumerate_minimally_rigid(n)) == count

    def test_closure_members_are_minimally_rigid(self):
        for cc in enumerate_minimally_rigid(6):
            assert is_minimally_rigid(decode_int(cc.code, cc.n))

    def test_guard(self):
        with pytest.raises(GuardError):
            enumerate_minimally_rigid(11)
        with pytest.raises(GuardError):
            enumerate_zero_ext_constructible(10)

    def test_zero_constructible_counts(self):
        assert enumerate_zero_ext_constructible(3) == 1
        assert enumerate_zero_ext_constructible(4) == 1
        assert enumerate_zero_ext_constructible(5) == 3
        assert enumerate_zero_ext_constructible(6) == 11

    def test_zero_constructible_below_total(self):
        # Up to 5 vertices every class is 0-extension constructible; from 6
        # on, some classes need 1-extensions.
        assert enumerate_zero_ext_constructible(5) == len(
            enumerate_minimally_rigid(5))
        for n in (6, 7):
            assert enumerate_zero_ext_constructible(n) < len(
                enumerate_minimally_rigid(n))

    def test_lower_bound_factorial_formula(self):
        assert prop1_lower_bound(3) == Fraction(1, 6)
        assert prop1_lower_bound(7) == Fraction(15, 28)
        # Superexponential growth: the bound eventually dwarfs K^n.
        assert prop1_lower_bound(30) > 3.0 ** 30


class TestPeeling:
    def test_peel_record_to_bipartite_core(self, k33):
        code, _ = NAC_RECORDS[13]
        ok, witness = peel_to_core(decode_int(code, 13), k33)
        assert ok
        assert len(witness) == 13 - 6
        assert len(set(witness)) == len(witness)

    def test_peel_self(self, k33):
        ok, witness = peel_to_core(k33, k33)
        assert ok and witness == []

    def test_peel_failure(self, k33):
        # A graph with no degree-2 vertex and more vertices than the core.
        ok, witness = peel_to_core(Graph.complete(7), k33)
        assert not ok and witness is None

    def test_peel_witness_is_valid_deletion_order(self, k33):
        code, _ = NAC_RECORDS[15]
        g = decode_int(code, 15)
        ok, witness = peel_to_core(g, k33)
        assert ok
        labels = list(range(g.n))
        for v in witness:
            idx = labels.index(v)
            assert g.degree(idx) == 2
            g = g.delete_vertex(idx)
            labels.pop(idx)
        assert canonical_code(g) == canonical_code(k33)


class TestExtensionImpact:
    def test_k2_zero_only(self):
        from rigidsearch.nac import count_nac

        res = extension_impact(k2(), CachedReward("nac", count_nac), (ZERO,))
        assert len(res.rows) == 1
        assert res.best_code == canonical_code(Graph.complete(3))
        assert res.best_value == 0

    def test_rows_are_deduplicated_classes(self):
        from rigidsearch.nac import count_nac

        g = Graph.complete(3)
        res = extension_impact(g, CachedReward("nac", count_nac))
        seen = {row.code for row in res.rows}
        assert len(seen) == len(res.rows)
        children = {canonical_code(apply_extension(g, e)).code
                    for e in enumerate_extensions(g)}
        assert seen == children

    def test_rows_sorted_and_best_consistent(self):
        from rigidsearch.nac import count_nac

        g = decode_int(list(enumerate_minimally_rigid(6))[0].code, 6)
        res = extension_impact(g, CachedReward("nac", count_nac))
        codes = [row.code for row in res.rows]
        assert codes == sorted(codes)
        best = max(row.value for row in res.rows)
        assert res.best_value == best
        best_codes = [row.code for row in res.rows if row.value == best]
        assert res.best_code.code == min(best_codes)


@pytest.mark.slow
class TestLargeClosure:
    def test_nine_vertex_closure_matches_matrix_filter(self):
        # same extension-free cross-check as the acceptance suite, one size up
        import numpy as np

        from test_acceptance import _tight_classes_by_matrix_filter

        classes = enumerate_minimally_rigid(9)
        assert len(classes) == 7222
        assert _tight_classes_by_matrix_filter(9, np.random.default_rng(99)) \
            == classes

    def test_nine_vertex_classes_are_sound(self):
        classes = enumerate_minimally_rigid(9)
        assert len(classes) == 7222
        for cc in classes:
            g = decode_int(cc.code, 9)
            assert is_minimally_rigid(g)
            assert canonical_code(g) == cc
