"""`extension_impact`, which scores every child class in one
`CachedReward.values` batch, against a test-local copy of the per-child loop
it replaced (`per_child_impact`).  Rows, best graph and best value must match
exactly with the nac reward on K2, K3, every class at seven vertices and the
13-vertex record, under each selection of extension kinds."""

import pytest

from rigidsearch import graphs, rigidity
from rigidsearch.graphs import Graph, canonical_code, decode_int
from rigidsearch.nac import count_nac
from rigidsearch.rewards import CachedReward
from rigidsearch.rigidity import (ONE, ZERO, ImpactResult, ImpactRow, apply_extension,
                                  enumerate_extensions, enumerate_minimally_rigid,
                                  extension_impact, k2)

from conftest import NAC_RECORDS

KINDS = {"zero": (ZERO,), "one": (ONE,), "both": (ZERO, ONE)}


def per_child_impact(g, reward, kinds):
    """Children deduplicated by class, the first producer in slot order
    keeping its kind; each class canonicalized again and looked up on its own
    in code order, and the first maximum kept."""
    children = {}
    for ext in enumerate_extensions(g):
        if ext.kind not in kinds:
            continue
        child = apply_extension(g, ext)
        cc = canonical_code(child)
        if cc not in children:
            children[cc] = (child, ext.kind)
    if not children:
        raise ValueError("graph has no children under the selected kinds")
    rows = []
    best = None
    for cc in sorted(children):
        child, kind = children[cc]
        value = reward.value(canonical_code(child))
        rows.append(ImpactRow(code=cc.code, kind=kind, value=value))
        if best is None or value > best[1]:
            best = (child, value)
    return ImpactResult(best_graph=best[0], best_value=best[1], rows=tuple(rows))


def nac_reward():
    return CachedReward("nac", count_nac)


def assert_same_impact(g, kinds):
    want = per_child_impact(g, nac_reward(), kinds)
    got = extension_impact(g, nac_reward(), kinds)
    assert got.rows == want.rows
    assert got.best_graph == want.best_graph
    assert got.best_value == want.best_value


@pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS)
@pytest.mark.parametrize("g", [k2(), Graph.complete(3)], ids=["k2", "k3"])
def test_smallest_graphs(g, kinds):
    if kinds == (ONE,) and g.n == 2:
        # K2's one edge has no apex to subdivide against
        for impact in (per_child_impact, extension_impact):
            with pytest.raises(ValueError, match="no children"):
                impact(g, nac_reward(), kinds)
        return
    assert_same_impact(g, kinds)


@pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS)
def test_every_class_at_seven_vertices(kinds):
    codes = sorted(enumerate_minimally_rigid(7))
    assert len(codes) == 70
    for cc in codes:
        assert_same_impact(decode_int(cc.code, cc.n), kinds)


@pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS)
def test_thirteen_vertex_record(kinds):
    assert_same_impact(decode_int(NAC_RECORDS[13][0], 13), kinds)


def test_one_canonical_labeling_per_extension_and_one_batch(monkeypatch):
    """78 zero-moves on the record: each child is labeled once in
    `rigidity`, and no labeling search runs anywhere else."""
    g = decode_int(NAC_RECORDS[13][0], 13)
    labelings, searches = [], []
    label, search = rigidity.canonical_code, graphs._search
    monkeypatch.setattr(rigidity, "canonical_code", lambda h: labelings.append(h) or label(h))
    monkeypatch.setattr(graphs, "_search", lambda h: searches.append(h) or search(h))
    reward = nac_reward()
    batches = []
    values = reward.values
    reward.values = lambda codes: batches.append(list(codes)) or values(codes)
    res = extension_impact(g, reward, (ZERO,))
    zero_moves = [e for e in enumerate_extensions(g) if e.kind == ZERO]
    assert len(labelings) == len(searches) == len(zero_moves) == 78
    assert len(batches) == 1
    assert [cc.code for cc in batches[0]] == [row.code for row in res.rows]
