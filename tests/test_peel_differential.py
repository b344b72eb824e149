"""Differential test: `peel_to_core` against a test-local copy of the version
that labelled every visited state.  The found flag and the witness must be
identical, on graphs that peel (the NAC records and comparisons to K33, book
graphs to a triangle) and on seeded Henneberg graphs where greedy deletion
dead-ends, so that the memo of failed states is filled and consulted."""

import pytest

from rigidsearch import rigidity
from rigidsearch.graphs import Graph, canonical_code, decode_int
from rigidsearch.rigidity import peel_to_core

from conftest import NAC_COMPARISON, NAC_RECORDS


def ref_peel_to_core(g, core):
    """The peel search as it was, plus the number of failed states."""
    if g.n < core.n:
        return (False, None), 0
    core_cc = canonical_code(core)
    dead = set()

    def descend(h, names):
        cc = canonical_code(h)
        if h.n == core.n:
            return [] if cc == core_cc else None
        if cc in dead:
            return None
        for v in range(h.n):
            if h.degree(v) == 2:
                tail = descend(h.delete_vertex(v), names[:v] + names[v + 1:])
                if tail is not None:
                    return [names[v]] + tail
        dead.add(cc)
        return None

    witness = descend(g, list(range(g.n)))
    return (witness is not None, witness), len(dead)


K33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
K3 = Graph.complete(3)


def book(n):
    """K2 plus n - 2 apexes, each joined to both ends of the K2."""
    return Graph.from_edges(n, [(0, 1)] + [(i, a) for a in range(2, n) for i in (0, 1)])


# Henneberg graphs grown from K2 with seeded random moves (a 1-extension
# with probability 0.3), on which greedy deletion dead-ends: (n, code, core,
# failed states of the reference search).
DEAD_ENDS = [
    (10, 6511347914818, K3, 12),
    (10, 23692484835344, K3, 7),
    (8, 263212704, K33, 4),
]


def cases():
    for family, certs in (("record", NAC_RECORDS), ("comparison", NAC_COMPARISON)):
        for n, (code, _) in certs.items():
            yield pytest.param(decode_int(code, n), K33, id=f"{family}-{n}")
    for n in range(7, 11):
        yield pytest.param(book(n), K3, id=f"book-{n}")
    for n, code, core, _ in DEAD_ENDS:
        yield pytest.param(decode_int(code, n), core, id=f"dead-end-{code}")
    yield pytest.param(K33, K33, id="self")
    yield pytest.param(K3, K33, id="too-small")


@pytest.mark.parametrize("g,core", list(cases()))
def test_peel_matches_reference(g, core):
    assert peel_to_core(g, core) == ref_peel_to_core(g, core)[0]


@pytest.mark.parametrize("n,code,core,failed", DEAD_ENDS)
def test_dead_end_graphs_backtrack(n, code, core, failed):
    g = decode_int(code, n)
    assert ref_peel_to_core(g, core) == ((False, None), failed)


def test_a_peel_that_never_fails_labels_only_at_the_core(monkeypatch):
    calls = []
    original = rigidity.canonical_code

    def counting(h):
        calls.append(h.n)
        return original(h)

    monkeypatch.setattr(rigidity, "canonical_code", counting)
    code, _ = NAC_RECORDS[13]
    found, witness = peel_to_core(decode_int(code, 13), K33)
    assert found and len(witness) == 7
    assert calls == [6, 6]      # the core, then the state the deletions reach
