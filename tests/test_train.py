"""Training groups the elite pairs by state once: `cem._train` against a
test-local copy of the loop it replaced, which grouped the pairs by state
and had `loss_and_gradients` group each batch again.  The weights and Adam
moments after training must be identical."""

import numpy as np
import pytest

from rigidsearch import cem
from rigidsearch.policy import (FLAT_VARIANT, GIN_VARIANT, action_counts, adam_step,
                                init_params, loss_and_gradients)


def ref_train(params, dataset, eta, epochs, lr, rng):
    groups = {}
    for g, ext in dataset:
        groups.setdefault((g.n, g.rows), []).append((g, ext))
    keys = sorted(groups)
    for _ in range(epochs):
        for j in rng.permutation(len(keys)):
            _, grads = loss_and_gradients(params, groups[keys[j]], eta)
            adam_step(params, grads, lr)


def elite_dataset(params, n, seed):
    rngs = [np.random.default_rng((seed, 1, i)) for i in range(40)]
    return [pair for tr in cem.rollouts(params, n, rngs) for pair in tr.pairs]


@pytest.mark.parametrize("variant", [GIN_VARIANT, FLAT_VARIANT])
@pytest.mark.parametrize("eta", [0.0, 0.8])
def test_train_matches_the_grouping_it_replaced(variant, eta):
    params = init_params(variant, 8, seed=5)
    dataset = elite_dataset(params, 8, seed=5)
    a, b = params.copy(), params.copy()
    cem._train(a, dataset, eta, 2, 5e-4, np.random.default_rng(9))
    ref_train(b, dataset, eta, 2, 5e-4, np.random.default_rng(9))
    assert a.adam_t == b.adam_t > 0
    for store in ("tensors", "adam_m", "adam_v"):
        x, y = getattr(a, store), getattr(b, store)
        for name in x:
            assert np.array_equal(x[name], y[name]), (store, name)


def test_train_passes_each_state_grouped(monkeypatch):
    params = init_params(GIN_VARIANT, 7, seed=2)
    dataset = elite_dataset(params, 7, seed=2)
    batches = []

    def recorded(params, batch, eta):
        batches.append(batch)
        return loss_and_gradients(params, batch, eta)

    monkeypatch.setattr(cem, "loss_and_gradients", recorded)
    cem._train(params, dataset, 0.3, 1, 5e-4, np.random.default_rng(0))
    grouped = action_counts(dataset)
    assert len(batches) == len(grouped)
    assert all(isinstance(b, dict) and len(b) == 1 for b in batches)
    assert sorted(key for b in batches for key in b) == sorted(grouped)


def test_grouped_and_listed_batches_give_identical_floats():
    params = init_params(GIN_VARIANT, 8, seed=3)
    dataset = elite_dataset(params, 8, seed=3)
    loss, grads = loss_and_gradients(params, dataset, 0.5)
    loss2, grads2 = loss_and_gradients(params, action_counts(dataset), 0.5)
    assert loss == loss2
    assert all(np.array_equal(grads[k], grads2[k]) for k in grads)
