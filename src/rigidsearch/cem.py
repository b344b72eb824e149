"""Deep cross-entropy search over Henneberg constructions.

Each generation keeps the surviving constructions, fills the population with
fresh policy rollouts from K2, screens and evaluates rewards, fits the policy
to the elite (state, action) pairs with an entropy-regularized cross-entropy
loss, and stops early once the stream of newly discovered isomorphism
classes dries up.
"""

from __future__ import annotations

import csv
import ctypes  # numpy has loaded it already
import dataclasses
import functools
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import yaml  # at import, not in _RunDir, which runs while oracle workers start up

from .common import FLAT_VARIANT, GIN_VARIANT, VARIANTS, write_csv
from .graphs import CanonicalCode, Graph, canonical_code
from .oracle import OracleError
from .policy import (PolicyParams, action_counts, action_distribution, adam_step,
                     extend_to_n, flat_output_dim, init_params, load_params,
                     loss_and_gradients, open_weights, sample_action, save_params)
from .rewards import (REWARDS, CachedReward, ConfigError, check_nac_bound, needs_oracle,
                      open_rewards, two_stage_select)
from .rigidity import Extension, apply_extension, k2


# Calibrated eta0 anchors (see README): largest value on the grid
# {0.5, 0.8, 1.1, 1.4} whose trained policy (m=1000, 40 generations, seed 0)
# regenerates its best class with frequency >= 1/1000 over 10000 fresh
# rollouts at that n; log-interpolated in the size of the largest slot space
# a run of target n scores, clamped beyond the anchor range.  Oracle rewards
# reuse the NAC anchors: desk-scale calibration has no live solver to train
# against, and the entropy budget is a property of the action space.
ETA0_ANCHORS: dict[int, float] = {7: 1.4, 8: 1.4, 10: 0.8}


def default_eta0(n: int) -> float:
    """Interpolate the calibrated anchors log-linearly in action-space size."""
    ns = sorted(ETA0_ANCHORS)
    if n <= ns[0]:
        return ETA0_ANCHORS[ns[0]]
    if n >= ns[-1]:
        return ETA0_ANCHORS[ns[-1]]
    for lo, hi in zip(ns, ns[1:]):
        if lo <= n <= hi:
            x, x0, x1 = (math.log(flat_output_dim(v)) for v in (n, lo, hi))
            w = (x - x0) / (x1 - x0)
            return ETA0_ANCHORS[lo] * (1 - w) + ETA0_ANCHORS[hi] * w
    raise AssertionError


@dataclass
class CemConfig:
    reward: str = "nac"
    n: int = 10
    m: int = 1000
    generations: int | None = None      # 500 for nac, 250 otherwise
    rho_elite: float = 0.064
    rho_surv: float = 0.016
    rho_main: float | None = None       # 1.0 for nac, 0.256 otherwise
    eta0: float | None = None           # calibrated default per n
    alpha: float = 6.0
    beta: float = 7.0
    epochs: int = 4
    lr: float = 5e-4
    early_stop: int | None = None       # m // 4 for nac, m // 2 otherwise
    seed: int = 0
    policy: str = GIN_VARIANT
    oracle: str | None = None
    oracle_table: str | None = None
    oracle_procs: int = 1
    init_weights: str | None = None
    out: str | None = None
    target: int | None = None           # optional: stop once best >= target


def resolve_config(cfg: CemConfig) -> CemConfig:
    """Fill reward-dependent defaults and validate every field."""
    out = dataclasses.replace(cfg)
    if out.reward not in REWARDS:
        raise ConfigError(f"unknown reward {out.reward!r}")
    if out.generations is None:
        out.generations = 500 if out.reward == "nac" else 250
    if out.rho_main is None:
        out.rho_main = 1.0 if out.reward == "nac" else 0.256
    if out.early_stop is None:
        out.early_stop = out.m // 4 if out.reward == "nac" else out.m // 2
    if out.eta0 is None:
        out.eta0 = default_eta0(out.n)
    if out.n < 3:
        raise ConfigError(f"need n >= 3, got {out.n}")
    check_nac_bound(out.reward, 2 * out.n - 3)
    if out.m < 1:
        raise ConfigError(f"need m >= 1, got {out.m}")
    if not 0 < out.rho_surv <= out.rho_elite <= 1:
        raise ConfigError("need 0 < rho_surv <= rho_elite <= 1")
    if not 0 < out.rho_main <= 1:
        raise ConfigError("need 0 < rho_main <= 1")
    if out.generations < 1:
        raise ConfigError("need generations >= 1")
    # alpha < 0 would lift eta above eta0 and then turn it negative
    if out.epochs < 0 or out.lr <= 0 or out.eta0 < 0 or out.alpha < 0 \
            or not all(map(math.isfinite, (out.lr, out.eta0, out.alpha, out.beta))):
        raise ConfigError("epochs, lr, eta0, alpha, beta out of range")
    if out.early_stop < 0:
        raise ConfigError("early_stop must be >= 0")
    if out.policy not in VARIANTS:
        raise ConfigError(f"unknown policy {out.policy!r}")
    if out.oracle and out.oracle_table:
        raise ConfigError("give either --oracle or --oracle-table, not both")
    if out.oracle_procs < 1:
        raise ConfigError("need oracle_procs >= 1")
    if needs_oracle(out.reward, out.rho_main) and not (out.oracle or out.oracle_table):
        raise ConfigError(f"reward {out.reward!r} (or rho_main < 1) needs an oracle")
    return out


def entropy_coefficient(t: int, eta0: float, alpha: float, beta: float) -> float:
    """Eq. 5: eta0 / (1 + alpha * ln(1 + t * exp(-beta)))."""
    if t < 1:
        raise ValueError(f"generations are 1-based, got t={t}")
    return eta0 / (1.0 + alpha * math.log(1.0 + t * math.exp(-beta)))


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Tell glibc's allocator, once per process, to keep freed memory.

    glibc hands the top of the heap back to the kernel once 128 KiB lie free
    there, and each policy forward frees arrays of 70-300 KB that the next
    one faults back in.  Setting the trim threshold freezes glibc's moving
    mmap threshold, so that is raised to its cap as well.  Results do not
    depend on where arrays live.  Without glibc's mallopt this does nothing."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no handle on the C library
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None or not hasattr(libc, "gnu_get_libc_version"):
        return  # the parameter numbers above are glibc's
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)  # twice that, as glibc's moving rule keeps it


# ---------------------------------------------------------------------------
# rollouts


@dataclass
class RolloutTrace:
    pairs: tuple[tuple[Graph, Extension], ...]
    graph: Graph
    code: CanonicalCode
    reward: int | None = None


def rollouts(params: PolicyParams, n: int, rngs) -> list[RolloutTrace]:
    """Sample one construction K2 -> G_n per generator, all in lockstep.

    At each step the rollouts are grouped by their current labelled state:
    a group shares one policy forward, each member draws its move from its
    own generator, members drawing the same move share the child graph, and
    each distinct final graph is canonicalized once.  A rollout consumes
    only its own generator, so every trace equals the one a lone rollout
    with that generator would give.  A generator shared between rollouts
    would be consumed in a different order, so one appearing twice raises
    ValueError; call `rollout` in a loop for a shared generator."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    rngs = list(rngs)
    if len({id(r) for r in rngs}) < len(rngs):
        raise ValueError("the same generator appears twice; use rollout in a loop")
    states = [k2()] * len(rngs)
    pairs: list[list[tuple[Graph, Extension]]] = [[] for _ in rngs]
    for _ in range(n - 2):
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, g in enumerate(states):
            groups.setdefault(g.rows, []).append(i)
        for members in groups.values():
            g = states[members[0]]
            dist = action_distribution(params, g)
            children: dict[Extension, Graph] = {}
            for i in members:
                ext = sample_action(dist, rngs[i])
                if ext not in children:
                    children[ext] = apply_extension(g, ext)
                pairs[i].append((g, ext))
                states[i] = children[ext]
    codes: dict[tuple[int, ...], CanonicalCode] = {}
    for g in states:
        if g.rows not in codes:
            codes[g.rows] = canonical_code(g)
    return [RolloutTrace(tuple(p), g, codes[g.rows]) for p, g in zip(pairs, states)]


def rollout(params: PolicyParams, n: int, rng) -> RolloutTrace:
    """Sample one construction K2 -> G_n from the policy."""
    return rollouts(params, n, [rng])[0]


@dataclass
class GenerationStats:
    t: int
    best: int
    cutoff: int
    new_noniso: int
    eta: float
    evals: int
    seconds: float


@dataclass
class RunState:
    params: PolicyParams
    survivors: list[RolloutTrace] = field(default_factory=list)
    seen: set[CanonicalCode] = field(default_factory=set)
    best_value: int | None = None
    best_code: CanonicalCode | None = None
    hit_generation: int | None = None
    completed: int = 0


# stream tags keeping derived RNG seeds disjoint: rollout streams use
# (seed, t, i) with i < m; training and init use i >= 2**30
_TRAIN_STREAM = 1 << 30
_INIT_STREAM = (1 << 30) + 1


def _seeded_rollouts(params: PolicyParams, n: int, seed: int, t: int, start: int,
                     stop: int) -> list[RolloutTrace]:
    """Lockstep traces under the generators (seed, t, i), start <= i < stop;
    a search generation t >= 1 and a frozen-policy evaluation t = 0."""
    return rollouts(params, n, [np.random.default_rng((seed, t, i))
                                for i in range(start, stop)])


def _train(params: PolicyParams, dataset, eta: float, epochs: int, lr: float, rng) -> None:
    """Per-state Adam steps: each epoch visits the distinct states of the
    elite dataset in shuffled order, one update per state's action counts."""
    groups = action_counts(dataset)
    keys = sorted(groups)
    for _ in range(epochs):
        order = rng.permutation(len(keys))
        for j in order:
            _, grads = loss_and_gradients(params, {keys[j]: groups[keys[j]]}, eta)
            adam_step(params, grads, lr)


def run_generation(state: RunState, cfg: CemConfig, main: CachedReward,
                   surrogate: CachedReward | None) -> GenerationStats:
    """One Algorithm-1 generation; mutates state in place, but only after
    the reward calls, so a generation they abort leaves state untouched."""
    t = state.completed + 1
    start = time.monotonic()
    population = list(state.survivors)
    population += _seeded_rollouts(state.params, cfg.n, cfg.seed, t, len(population), cfg.m)
    codes = [tr.code for tr in population]
    fresh = {c for c in codes if c not in state.seen}

    misses_before = main.misses
    selected = two_stage_select(codes, surrogate, main, cfg.rho_main)
    evals = main.misses - misses_before
    for i, value in selected:
        population[i].reward = value

    ranked = sorted(selected, key=lambda iv: (-iv[1], codes[iv[0]], iv[0]))
    n_elite = int(cfg.m * cfg.rho_elite)
    n_surv = int(cfg.m * cfg.rho_surv)
    elites = ranked[:n_elite]
    cutoff = elites[-1][1] if elites else 0

    top_i, top_val = ranked[0]
    if state.best_value is None or top_val > state.best_value:
        state.best_value = top_val
        state.best_code = codes[top_i]
        state.hit_generation = t
    elif top_val == state.best_value and codes[top_i] < state.best_code:
        state.best_code = codes[top_i]

    eta = entropy_coefficient(t, cfg.eta0, cfg.alpha, cfg.beta)
    dataset = [pair for i, _ in elites for pair in population[i].pairs]
    if dataset and cfg.epochs > 0:
        train_rng = np.random.default_rng((cfg.seed, t, _TRAIN_STREAM))
        _train(state.params, dataset, eta, cfg.epochs, cfg.lr, train_rng)

    state.survivors = [population[i] for i, _ in ranked[:n_surv]]
    state.seen |= fresh
    state.completed = t
    return GenerationStats(t=t, best=state.best_value, cutoff=cutoff,
                           new_noniso=len(fresh), eta=eta, evals=evals,
                           seconds=time.monotonic() - start)


# Earlier generations never stop a run: an untrained policy can be collapsed
# onto a few classes and recover once trained (n=13, seed 0: 46, 101, then 967
# new classes).  Using `t` alone, a resumed run stops where a whole one does.
EARLY_STOP_FROM = 3


def early_stop_check(history: list[GenerationStats], threshold: int) -> bool:
    """Stop once the latest generation, from `EARLY_STOP_FROM` on, discovered
    strictly fewer new isomorphism classes than the threshold."""
    if not history:
        raise ValueError("no completed generations")
    return history[-1].t >= EARLY_STOP_FROM and history[-1].new_noniso < threshold


# ---------------------------------------------------------------------------
# run driver and artifacts


CSV_COLUMNS = ("t", "best", "cutoff", "new_noniso", "eta_t", "evals", "seconds")


@dataclass
class RunResult:
    best_value: int
    best_code: CanonicalCode
    stats: list[GenerationStats]


KEEP_CHECKPOINTS = 3


class _RunDir:
    """Writes the run directory: config, generations.csv, best.txt and the
    latest KEEP_CHECKPOINTS checkpoint-<t> files.  It keeps what the
    directory holds of generations <= `kept` and drops the rest: a resume
    passes the generations its checkpoint completed and continues the
    directory, a fresh run passes -1 and keeps nothing of an old run."""

    def __init__(self, path: str | None, cfg: CemConfig, kept: int):
        self.path = path
        if not path:
            return
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, "config"), "w", encoding="utf-8") as fh:
            yaml.safe_dump(dataclasses.asdict(cfg), fh, sort_keys=True)
        rows = list(csv.reader(self._lines("generations.csv")))[1:]
        write_csv(os.path.join(path, "generations.csv"), CSV_COLUMNS,
                  (r for r in rows if int(r[0]) <= kept))
        best = self._lines("best.txt")
        if best:
            with open(os.path.join(path, "best.txt"), "w", encoding="utf-8") as fh:
                fh.writelines(b for b in best if int(b.split()[-1]) <= kept)
        for name in os.listdir(path):
            t = name.removeprefix("checkpoint-")
            if t != name and t.isdigit() and int(t) > kept:
                os.remove(os.path.join(path, name))

    def _lines(self, name: str) -> list[str]:
        try:
            with open(os.path.join(self.path, name), encoding="utf-8", newline="") as fh:
                return fh.readlines()
        except FileNotFoundError:
            return []

    def append(self, s: GenerationStats, improved: CanonicalCode | None) -> None:
        """A generations.csv row, and a best.txt line for an improved best."""
        if not self.path:
            return
        if improved is not None:
            with open(os.path.join(self.path, "best.txt"), "a", encoding="utf-8") as fh:
                fh.write(f"{improved.n} {improved.code} {s.best} {s.t}\n")
        with open(os.path.join(self.path, "generations.csv"), "a", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(
                [s.t, s.best, s.cutoff, s.new_noniso, f"{s.eta:.12g}", s.evals, f"{s.seconds:.3f}"])

    def checkpoint(self, state: RunState) -> None:
        if not self.path:
            return
        save_checkpoint(os.path.join(self.path, f"checkpoint-{state.completed}"), state)
        old = os.path.join(self.path, f"checkpoint-{state.completed - KEEP_CHECKPOINTS}")
        if os.path.exists(old):
            os.remove(old)


def _trace_to_record(tr: RolloutTrace) -> dict:
    actions = [[e.kind, -1 if e.apex is None else e.apex, e.pair[0], e.pair[1]]
               for _, e in tr.pairs]
    return {"actions": actions, "n": tr.graph.n, "reward": tr.reward}


def _trace_from_record(rec: dict) -> RolloutTrace:
    g = k2()
    pairs = []
    for kind, apex, v, w in rec["actions"]:
        ext = Extension(kind, None if apex < 0 else apex, (v, w))
        pairs.append((g, ext))
        g = apply_extension(g, ext)
    assert g.n == rec["n"]
    return RolloutTrace(tuple(pairs), g, canonical_code(g), rec["reward"])


def save_checkpoint(path: str, state: RunState) -> None:
    """A weight file with one extra metadata array: generation counter,
    survivor traces, and the discovery set.  Rollout RNG streams are derived
    from (seed, generation, index), so the counter is the whole RNG state.
    Checkpoints load as plain weight files."""
    meta = {
        "completed": state.completed,
        "survivors": [_trace_to_record(tr) for tr in state.survivors],
        "seen": [[cc.n, str(cc.code)] for cc in sorted(state.seen)],
        "best_value": state.best_value,
        "best_code": [state.best_code.n, str(state.best_code.code)] if state.best_code else None,
        "hit_generation": state.hit_generation,
    }
    buf = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    save_params(state.params, path, extra={"run.meta": buf})


def load_checkpoint(path: str) -> RunState:
    with open_weights(path) as data:
        if "run.meta" not in data:
            raise ValueError(f"{path} is not a checkpoint (no run metadata)")
        meta = json.loads(bytes(data["run.meta"].tobytes()).decode())
    state = RunState(params=load_params(path))
    state.completed = meta["completed"]
    state.survivors = [_trace_from_record(r) for r in meta["survivors"]]
    state.best_value = meta["best_value"]
    if meta["best_code"]:
        state.best_code = CanonicalCode(meta["best_code"][0], int(meta["best_code"][1]))
    state.hit_generation = meta["hit_generation"]
    state.seen = {CanonicalCode(n, int(c)) for n, c in meta["seen"]}
    return state


def _sized(params: PolicyParams, n: int) -> PolicyParams:
    """The weights, extended to target n if they were trained for fewer
    vertices; flat-mlp weights are sized to their n_max and cannot be."""
    if params.n_max >= n:
        return params
    if params.variant == FLAT_VARIANT:
        raise ConfigError(f"flat-mlp weights for n_max={params.n_max} cannot be "
                          f"extended to n={n}; use weights for n >= {n}")
    return extend_to_n(params, n)


def _start(cfg: CemConfig, resume_from: str | None) -> RunState:
    """The state a fresh, warm-started or resumed run starts from, under one
    rule: a checkpoint comes from a run at cfg.n, the weights are of
    cfg.policy, and weights for fewer vertices are extended to cfg.n."""
    if resume_from and cfg.init_weights:
        raise ConfigError("give either --resume or --init-weights, not both")
    if resume_from:
        state = load_checkpoint(resume_from)
    elif cfg.init_weights:
        state = RunState(params=load_params(cfg.init_weights))
    else:
        state = RunState(params=init_params(cfg.policy, cfg.n, seed=(cfg.seed, 0, _INIT_STREAM)))
    if state.best_code is not None and state.best_code.n != cfg.n:
        raise ConfigError(f"{resume_from} is from a run at n={state.best_code.n}, not "
                          f"n={cfg.n}; warm-start another size with --init-weights")
    if state.params.variant != cfg.policy:
        raise ConfigError(
            f"weights are for policy {state.params.variant!r}, config says {cfg.policy!r}")
    state.params = _sized(state.params, cfg.n)
    return state


def run(cfg: CemConfig, resume_from: str | None = None, log=None) -> RunResult:
    """Full search: loops run_generation until the generation budget, the
    early-stop rule, or the optional target value ends it."""
    _keep_freed_heap()
    cfg = resolve_config(cfg)
    state = _start(cfg, resume_from)
    with open_rewards(cfg.reward, cfg.rho_main, cfg.oracle, cfg.oracle_table,
                      cfg.oracle_procs) as (main, surrogate):
        rundir = _RunDir(cfg.out, cfg, state.completed if resume_from else -1)
        history: list[GenerationStats] = []
        while state.completed < cfg.generations:
            best_before = (state.best_value, state.best_code)
            try:
                stats = run_generation(state, cfg, main, surrogate)
            except OracleError:
                rundir.checkpoint(state)
                raise
            history.append(stats)
            improved = (state.best_value, state.best_code) != best_before
            rundir.append(stats, state.best_code if improved else None)
            rundir.checkpoint(state)
            if log:
                log(stats)
            if (cfg.target is not None and state.best_value >= cfg.target) \
                    or (cfg.early_stop and early_stop_check(history, cfg.early_stop)):
                break
        assert state.best_code is not None
        return RunResult(best_value=state.best_value, best_code=state.best_code, stats=history)


# ---------------------------------------------------------------------------
# deployment evaluation and schedule study


# Most frozen-policy rollouts advanced in lockstep at once: the traces a
# search generation holds at the default m.
EVAL_CHUNK = 1000


@dataclass
class DeployResult:
    best_value: int
    best_code: CanonicalCode
    histogram: dict[int, int]
    distinct: int
    attempts: int
    complete: bool


def check_deploy(n: int, count: int, patience: int) -> None:
    """Refuse a `deploy_eval` setting that cannot run, before any worker starts."""
    if n < 3:
        raise ConfigError(f"need n >= 3, got {n}")
    if count < 1 or patience < 1:
        raise ConfigError(f"need count >= 1 and patience >= 1, got {count} and {patience}")


def deploy_eval(params: PolicyParams, n: int, reward: CachedReward,
                count: int = 10000, seed: int = 0, patience: int = 5000) -> DeployResult:
    """Roll out the frozen policy until `count` distinct isomorphism classes
    are collected, evaluate the reward on each, and report the maximum with
    the value histogram.  Stops early (saturation) after `patience`
    consecutive rollouts produce no new class."""
    _keep_freed_heap()
    check_deploy(n, count, patience)
    params = _sized(params, n)
    codes: set[CanonicalCode] = set()
    attempts = 0
    stale = 0
    while len(codes) < count and stale < patience:
        # each rollout raises len(codes) or stale by at most one, so a chunk
        # this size ends no later than the stopping point
        chunk = min(EVAL_CHUNK, count - len(codes), patience - stale)
        for tr in _seeded_rollouts(params, n, seed, 0, attempts, attempts + chunk):
            before = len(codes)
            codes.add(tr.code)
            attempts += 1
            stale = 0 if len(codes) > before else stale + 1
    ordered = sorted(codes)
    values = dict(zip(ordered, reward.values(ordered)))
    best_cc = min(values, key=lambda cc: (-values[cc], cc))
    return DeployResult(
        best_value=values[best_cc],
        best_code=best_cc,
        histogram=dict(sorted(Counter(values.values()).items())),
        distinct=len(codes),
        attempts=attempts,
        complete=len(codes) >= count,
    )


def regeneration_frequency(params: PolicyParams, n: int, reward: CachedReward,
                           target_value: int, rollouts: int = 10000,
                           seed: int = 0) -> float:
    """Fraction of policy rollouts whose graph attains target_value; the
    eta0 calibration accepts an eta once this reaches 1/1000 after training.
    """
    params = _sized(params, n)
    hits = 0
    for start in range(0, rollouts, EVAL_CHUNK):
        traces = _seeded_rollouts(params, n, seed, 0, start, min(start + EVAL_CHUNK, rollouts))
        hits += reward.values([tr.code for tr in traces]).count(target_value)
    return hits / rollouts


def schedule_study(cfg: CemConfig, schedules: list[str], seeds: list[int],
                   out_csv: str | None = None) -> list[tuple[str, int, int, int]]:
    """Run the search once per (schedule, seed) and collect best-vs-generation
    curves.  Schedule specs, each a setting of Eq. 5: 'eq5' (cfg as given),
    'none' (eta0 = 0) or 'constant:<eta>' (eta0 = eta, alpha = 0).  Returns
    rows (schedule, seed, generation, best); optionally writes them as CSV.
    """
    rows: list[tuple[str, int, int, int]] = []
    for spec in schedules:
        if spec == "eq5" or spec == "none":
            overrides = {"eta0": 0.0} if spec == "none" else {}
        elif spec.startswith("constant:"):
            overrides = {"eta0": float(spec.split(":", 1)[1]), "alpha": 0.0}
        else:
            raise ConfigError(f"unknown schedule spec {spec!r}")
        for seed in seeds:
            sub = dataclasses.replace(cfg, **overrides, seed=seed, out=None)
            result = run(sub)
            rows.extend((spec, seed, s.t, s.best) for s in result.stats)
    if out_csv:
        write_csv(out_csv, ("schedule", "seed", "generation", "best"), rows)
    return rows
