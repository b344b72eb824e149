import os

# One BLAS thread, as the command line sets it, before anything imports
# numpy: the tests' matmuls are small, and a pool only burns a second core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from rigidsearch.graphs import Graph


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


# Record certificates bundled as verification fixtures: vertex count ->
# (graph code, exact NAC-coloring count).
NAC_RECORDS = {
    13: (1817372602634323920930, 3125),
    14: (2178541080686613138604444182, 7521),
    15: (35514488197670496374812652340870, 15963),
    16: (88454699302609837679256749570852374, 37496),
    17: (43646696667421322394332935806613331125984, 88257),
    18: (44879647396852278983534873867663098247119872, 199719),
}

# Independently constructed comparison family with known NAC counts.
NAC_COMPARISON = {
    13: (170363797095532441635376, 2923),
    14: (1395360292174978547951223617, 7063),
    15: (22859454182150718848230338095108, 14127),
    16: (749023707617915212187976649078898721, 35133),
    17: (49086874595737144883235931874747612135940, 70267),
}

# Spherical realization-count record certificates: (n, code, count); the
# same entries are served by the bundled stub-oracle table.
SPHERE_RECORDS = [
    (15, 2000828459594098240497450525056, 278528),
    (15, 22185205662832118156851245393968, 278528),
    (16, 676317030175026185879559871219632902, 819200),
    (17, 1708810961581179146514778090735835808768, 2228224),
    (18, 5717703424785600896298030199603140199580763136, 6127616),
]

# Best NAC count over all one-vertex extensions of the 13-vertex record.
BEST_CHILD_OF_NAC_13 = 6656

# Graphs that are not minimally rigid, which `verify` accepts as any code:
# (n, edges), each a sparse or disconnected case.
SPARSE_GRAPHS = [
    pytest.param(1, [], id="one-vertex"),
    pytest.param(4, [], id="no-edges"),
    pytest.param(3, [(0, 2)], id="one-edge"),
    pytest.param(6, [(1, 3), (3, 4), (4, 1), (3, 5)], id="isolated-vertices"),
    pytest.param(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)],
                 id="triangle-and-four-cycle"),
    pytest.param(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5), (5, 6), (6, 7), (7, 4)],
                 id="two-components"),
    pytest.param(9, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (6, 7), (7, 8)], id="forest"),
]


def random_graphs() -> list[Graph]:
    """300 seeded random graphs on 1-18 vertices at random densities, many
    of them disconnected."""
    rng = np.random.default_rng(7)
    graphs = []
    for _ in range(300):
        n = int(rng.integers(1, 19))
        density = rng.random()
        graphs.append(Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]))
    return graphs


@pytest.fixture
def k33():
    return Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
