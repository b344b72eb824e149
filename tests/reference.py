"""Reference implementations that only the tests use.

`is_nac_coloring` checks one coloring by the component criterion that the
docstring of `rigidsearch.nac` states; `tests/test_nac.py` counts NAC
colorings by brute force with it, against `count_nac`.
"""

from rigidsearch.graphs import Graph


def _norm_edge(e: tuple[int, int]) -> tuple[int, int]:
    u, v = e
    return (u, v) if u < v else (v, u)


def _component_masks(n: int, edges) -> list[int]:
    comp = [1 << v for v in range(n)]
    for u, v in edges:
        cu, cv = comp[u], comp[v]
        if cu == cv:
            continue
        merged = cu | cv
        m = merged
        while m:
            b = m & -m
            comp[b.bit_length() - 1] = merged
            m ^= b
    return comp


def is_nac_coloring(g: Graph, red) -> bool:
    """Check the component criterion for the coloring with the given red set."""
    all_edges = set(g.edges())
    red_set = {_norm_edge(e) for e in red}
    if not red_set <= all_edges:
        raise ValueError(f"red edges {sorted(red_set - all_edges)} not in graph")
    if not red_set or red_set == all_edges:
        return False  # not surjective
    blue_set = all_edges - red_set
    comp_blue = _component_masks(g.n, blue_set)
    for u, v in red_set:
        if comp_blue[u] >> v & 1:
            return False
    comp_red = _component_masks(g.n, red_set)
    for u, v in blue_set:
        if comp_red[u] >> v & 1:
            return False
    return True
