"""Reward evaluation with isomorphism-class caching and two-stage screening.

Rewards are functions of the isomorphism class, so values are cached by
canonical code and isomorphic population members cost one evaluation (and at
most one oracle round trip).  Screening scores the whole population with a
cheap surrogate (typically the m-Bezout upper bound) and spends the
expensive main reward only on the top fraction.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

from .graphs import CanonicalCode, Graph, decode_int
from .nac import NAC_GUARD, count_nac
from .oracle import INVARIANTS, ConfigError, in_order, open_oracle, oracle_query


class CachedReward:
    """Evaluator over canonical codes with a per-run cache.  `batch(fn,
    items)` scores the misses of one lookup, in input order."""

    def __init__(self, name: str, fn: Callable[[Graph], int], batch=in_order):
        self.name = name
        self.fn = fn
        self.batch = batch
        self.cache: dict[CanonicalCode, int] = {}
        self.misses = 0

    def values(self, codes: Sequence[CanonicalCode]) -> list[int]:
        """One value per code, scoring each distinct miss once in one batch."""
        todo = list(dict.fromkeys(cc for cc in codes if cc not in self.cache))
        self.misses += len(todo)
        scored = self.batch(self.fn, [decode_int(cc.code, cc.n) for cc in todo])
        self.cache.update(zip(todo, scored))
        return [self.cache[cc] for cc in codes]

    def value(self, cc: CanonicalCode) -> int:
        return self.values([cc])[0]


def needs_oracle(reward: str, rho_main: float = 1.0) -> bool:
    """Whether a run queries the oracle: an oracle reward or m-Bezout screening."""
    return reward in INVARIANTS or rho_main < 1


def check_nac_guard(reward: str, nac_guard: int, edges: int) -> None:
    """Refuse a nac reward whose guard is below the edge count of every graph it will score."""
    if reward == "nac" and nac_guard < edges:
        raise ConfigError(f"nac_guard {nac_guard} is below |E|={edges}")


REWARDS = ("nac", *INVARIANTS)


def make_reward(name: str, oracle=None, nac_guard: int = NAC_GUARD) -> CachedReward:
    """nac counts in process; plane/sphere/mbezout go through the oracle."""
    if needs_oracle(name) and oracle is None:
        raise ConfigError(f"reward {name!r} needs --oracle or --oracle-table")
    if name == "nac":
        return CachedReward("nac", lambda g: count_nac(g, max_edges=nac_guard))
    if name in INVARIANTS:
        return CachedReward(name, lambda g: oracle_query(oracle, name, g), oracle.map)
    raise ValueError(f"unknown reward {name!r}")


@contextmanager
def open_rewards(reward: str, rho_main: float = 1.0, oracle: str | None = None,
                 table: str | None = None, procs: int = 1, nac_guard: int = NAC_GUARD):
    """Yield (main, surrogate); oracle workers start only if needs_oracle holds."""
    if not needs_oracle(reward, rho_main):
        oracle = table = None
    with open_oracle(oracle, table, procs) as client:
        yield (make_reward(reward, client, nac_guard=nac_guard),
               make_reward("mbezout", client) if rho_main < 1 else None)


def two_stage_select(
    codes: Sequence[CanonicalCode],
    surrogate: CachedReward | None,
    main: CachedReward,
    rho_main: float,
) -> list[tuple[int, int]]:
    """Pick ceil(rho_main * len(codes)) members by descending surrogate score
    and evaluate the main reward on them.  rho_main = 1 evaluates everyone
    and never touches the surrogate.  Returns (population index, main value)
    pairs; surrogate ties break toward the smaller canonical code, then the
    earlier population slot.
    """
    if not 0 < rho_main <= 1:
        raise ValueError(f"rho_main must be in (0, 1], got {rho_main}")
    idxs = list(range(len(codes)))
    if rho_main < 1:
        if surrogate is None:
            raise ValueError("rho_main < 1 needs a surrogate reward")
        scores = surrogate.values(codes)
        idxs.sort(key=lambda i: (-scores[i], codes[i], i))
        idxs = sorted(idxs[: math.ceil(rho_main * len(codes))])
    return list(zip(idxs, main.values([codes[i] for i in idxs])))
