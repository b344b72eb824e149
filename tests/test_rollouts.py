"""Lockstep rollouts against a test-local copy of the one-at-a-time rollout
loop they replaced: traces, frozen-policy evaluation and the forward count
must match exactly."""

from collections import Counter

import numpy as np
import pytest

from rigidsearch import cem
from rigidsearch.cem import (CemConfig, DeployResult, RunState, deploy_eval,
                             regeneration_frequency, resolve_config, rollout,
                             rollouts, run_generation)
from rigidsearch.graphs import canonical_code
from rigidsearch.policy import (FLAT_VARIANT, GIN_VARIANT, action_distribution,
                                extend_to_n, init_params, sample_action)
from rigidsearch.rewards import make_reward
from rigidsearch.rigidity import apply_extension, k2

# --- reference: the loops as they were, one rollout at a time


def ref_rollout(params, n, rng):
    g = k2()
    pairs = []
    while g.n < n:
        dist = action_distribution(params, g)
        ext = sample_action(dist, rng)
        pairs.append((g, ext))
        g = apply_extension(g, ext)
    return pairs, g, canonical_code(g)


def ref_deploy_eval(params, n, reward, count, seed, patience):
    if params.n_max < n:
        params = extend_to_n(params, n)
    codes = set()
    attempts = 0
    stale = 0
    while len(codes) < count and stale < patience:
        rng = np.random.default_rng((seed, 0, attempts))
        before = len(codes)
        codes.add(ref_rollout(params, n, rng)[2])
        attempts += 1
        stale = 0 if len(codes) > before else stale + 1
    values = {cc: reward.value(cc) for cc in sorted(codes)}
    best_cc = min(values, key=lambda cc: (-values[cc], cc))
    return DeployResult(
        best_value=values[best_cc],
        best_code=best_cc,
        histogram=dict(sorted(Counter(values.values()).items())),
        distinct=len(codes),
        attempts=attempts,
        complete=len(codes) >= count,
    )


def ref_regeneration_frequency(params, n, reward, target_value, count, seed):
    hits = 0
    for i in range(count):
        rng = np.random.default_rng((seed, 0, i))
        if reward.value(ref_rollout(params, n, rng)[2]) == target_value:
            hits += 1
    return hits / count


def assert_trace_matches(tr, ref):
    pairs, graph, code = ref
    assert len(tr.pairs) == len(pairs)
    for (g, ext), (ref_g, ref_ext) in zip(tr.pairs, pairs):
        assert g.n == ref_g.n and g.rows == ref_g.rows
        assert ext == ref_ext
    assert tr.graph.n == graph.n and tr.graph.rows == graph.rows
    assert tr.code == code


# --- traces


ROLLOUTS = 50


@pytest.mark.parametrize("variant", [GIN_VARIANT, FLAT_VARIANT])
@pytest.mark.parametrize("n", [5, 8, 10])
def test_lockstep_traces_match_sequential_loop(variant, n):
    params = init_params(variant, n, seed=n)
    seeds = [(n, 1, i) for i in range(ROLLOUTS)]
    traces = rollouts(params, n, [np.random.default_rng(s) for s in seeds])
    assert len(traces) == ROLLOUTS
    for tr, s in zip(traces, seeds):
        assert_trace_matches(tr, ref_rollout(params, n, np.random.default_rng(s)))
    # a lone rollout is the one-generator case
    assert_trace_matches(rollout(params, n, np.random.default_rng(seeds[0])),
                         ref_rollout(params, n, np.random.default_rng(seeds[0])))


def test_repeated_generator_is_rejected():
    params = init_params(GIN_VARIANT, 6, seed=0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="twice"):
        rollouts(params, 6, [rng, np.random.default_rng(1), rng])


def test_no_generators_no_traces():
    assert rollouts(init_params(GIN_VARIANT, 6, seed=0), 6, []) == []


def test_rejects_target_below_three():
    with pytest.raises(ValueError):
        rollouts(init_params(GIN_VARIANT, 6, seed=0), 2, [np.random.default_rng(0)])


# --- one forward per distinct state


def test_generation_scores_each_distinct_state_once(monkeypatch):
    cfg = resolve_config(CemConfig(reward="nac", n=8, m=120, generations=2,
                                   seed=5, early_stop=0))
    state = RunState(params=init_params(GIN_VARIANT, cfg.n, seed=5))
    run_generation(state, cfg, make_reward("nac"), None)
    assert state.survivors  # generation 2 rolls out only m - len(survivors)

    frozen = state.params.copy()
    first = len(state.survivors)
    refs = [ref_rollout(frozen, cfg.n, np.random.default_rng((cfg.seed, 2, i)))
            for i in range(first, cfg.m)]
    per_step = [{pairs[j][0].rows for pairs, _, _ in refs} for j in range(cfg.n - 2)]
    finals = {g.rows for _, g, _ in refs}

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(cem, name, wrapper)

    counted("action_distribution", cem.action_distribution)
    counted("canonical_code", cem.canonical_code)
    run_generation(state, cfg, make_reward("nac"), None)
    assert calls["action_distribution"] == sum(len(s) for s in per_step)
    assert calls["action_distribution"] < len(refs) * (cfg.n - 2)
    assert calls["canonical_code"] == len(finals)


# --- frozen-policy evaluation


def counting_rollouts(monkeypatch):
    """Patch cem.rollouts to count the traces drawn."""
    drawn = []
    original = cem.rollouts

    def wrapper(params, n, rngs):
        traces = original(params, n, rngs)
        drawn.append(len(traces))
        return traces

    monkeypatch.setattr(cem, "rollouts", wrapper)
    return drawn


@pytest.mark.parametrize("chunk", [None, 7])
def test_deploy_eval_stops_on_count_like_sequential_loop(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(cem, "EVAL_CHUNK", chunk)
    params = init_params(GIN_VARIANT, 8, seed=3)
    ref = ref_deploy_eval(params, 8, make_reward("nac"), 120, 4, 10000)
    drawn = counting_rollouts(monkeypatch)
    res = deploy_eval(params, 8, make_reward("nac"), count=120, seed=4,
                      patience=10000)
    assert res == ref
    assert res.complete
    assert sum(drawn) == res.attempts  # nothing drawn past the stop
    assert res.attempts > 120 and res.attempts % cem.EVAL_CHUNK


@pytest.mark.parametrize("chunk", [None, 7])
def test_deploy_eval_stops_on_patience_like_sequential_loop(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(cem, "EVAL_CHUNK", chunk)
    params = init_params(GIN_VARIANT, 6, seed=2)
    ref = ref_deploy_eval(params, 5, make_reward("nac"), 100, 1, 300)
    drawn = counting_rollouts(monkeypatch)
    res = deploy_eval(params, 5, make_reward("nac"), count=100, seed=1,
                      patience=300)
    assert res == ref
    assert not res.complete
    assert sum(drawn) == res.attempts
    assert res.attempts > 300 and res.attempts % cem.EVAL_CHUNK


@pytest.mark.parametrize("chunk", [None, 7])
def test_regeneration_frequency_matches_sequential_loop(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(cem, "EVAL_CHUNK", chunk)
    params = init_params(GIN_VARIANT, 6, seed=1)
    reward = make_reward("nac")
    values = Counter(reward.value(ref_rollout(params, 6, np.random.default_rng((2, 0, i)))[2])
                     for i in range(50))
    target = values.most_common(1)[0][0]
    drawn = counting_rollouts(monkeypatch)
    freq = regeneration_frequency(params, 6, reward, target, rollouts=50, seed=2)
    assert freq == ref_regeneration_frequency(params, 6, reward, target, 50, 2)
    assert 0 < freq < 1
    assert sum(drawn) == 50
