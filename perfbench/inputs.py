"""Benchmark inputs: the published certificates with their known values, and
the seeded extras (book graphs, random certificates, random relabelings).

Everything here is a pure function of the workload seed, so one seed always
gives the same certificates and relabelings.  Graphs are built and encoded
here, without the program's code, so a change to the program cannot change
its own inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations


# NAC-count record certificates: n -> (code, exact NAC-coloring count).
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

# NAC records known to peel to K33 by degree-2 deletions.
PEELS_TO_K33 = (13, 15, 16)

# Spherical realization-count records, served by the bundled stub table:
# (n, code, sphere count); each has degrees 3..4, is Hamiltonian and
# 3-chromatic.
SPHERE_RECORDS = (
    (15, 2000828459594098240497450525056, 278528),
    (15, 22185205662832118156851245393968, 278528),
    (16, 676317030175026185879559871219632902, 819200),
    (17, 1708810961581179146514778090735835808768, 2228224),
    (18, 5717703424785600896298030199603140199580763136, 6127616),
)

# Best NAC count over the 0-extension children of the 13-vertex record.
IMPACT_CODE, IMPACT_N = NAC_RECORDS[13][0], 13
IMPACT_CHILDREN, IMPACT_BEST = 57, 6656

# Book graphs K2 + p apexes, n = p + 2: |Aut| = 2 * p!, and deleting all
# but one apex peels them to a triangle.
BOOK_SIZES = (7, 8, 9, 10)

# Random certificates: count and size, small enough that NAC counting and
# canonical labeling stay well under a second for every seed.
RANDOM_CERTS, RANDOM_N = 4, 12


def encode(n: int, edges) -> int:
    """The certificate integer: upper-triangle adjacency bits, row by row,
    most significant bit first."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    x = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            x = x << 1 | ((i, j) in adj)
    return x


def decode(n: int, code: int) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    return [p for k, p in enumerate(pairs) if code >> (len(pairs) - 1 - k) & 1]


def book(n: int) -> int:
    return encode(n, [(0, 1)] + [(a, v) for v in range(2, n) for a in (0, 1)])


def book_automorphisms(n: int) -> int:
    return 2 * math.factorial(n - 2)


def random_certificate(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a minimally rigid graph grown from K2 by Henneberg moves
    drawn uniformly: a 0-extension joins a new vertex to two old ones, a
    1-extension subdivides an edge and joins the new vertex to a third."""
    edges = [(0, 1)]
    for new in range(2, n):
        moves = [((), pair) for pair in combinations(range(new), 2)]
        moves += [((e,), (*e, u)) for e in edges for u in range(new) if u not in e]
        removed, joins = rng.choice(moves)
        edges = [e for e in edges if e not in removed] + [(v, new) for v in joins]
    return edges


@dataclass(frozen=True)
class Relabeled:
    """A certificate and one random relabeling of it."""
    n: int
    code: int
    relabeled_code: int
    nac: int | None        # known NAC count, or None when only invariance is checked


def relabelings(seed: int) -> list[Relabeled]:
    """The seeded random certificates plus the two 13-vertex certificates,
    each with one seeded random relabeling."""
    rng = random.Random(seed)
    graphs = [(RANDOM_N, random_certificate(rng, RANDOM_N), None)
              for _ in range(RANDOM_CERTS)]
    for code, nac in (NAC_RECORDS[13], NAC_COMPARISON[13]):
        graphs.append((13, decode(13, code), nac))
    out = []
    for n, edges, nac in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [(perm[u], perm[v]) for u, v in edges]
        out.append(Relabeled(n, encode(n, edges), encode(n, moved), nac))
    return out
