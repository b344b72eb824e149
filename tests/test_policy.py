import os
import re
from unittest import mock

import numpy as np
import pytest

from rigidsearch import policy
from rigidsearch.graphs import Graph, decode_int
from rigidsearch.policy import (EMBED_DIM, FEATURE_DIM, FLAT_VARIANT,
                                GIN_VARIANT, SLOT_DIM, _adjacency, action_distribution,
                                adam_step, build_features, extend_to_n,
                                flat_input_dim, flat_input_vector,
                                flat_output_dim, gin_forward, init_params,
                                load_params, loss_and_gradients,
                                param_shapes, sample_action, save_params)
from rigidsearch.rigidity import (Extension, ONE, ZERO, apply_extension,
                                  enumerate_extensions, enumerate_slots, k2,
                                  slot_is_valid)


def rollout_states(n, seed=0, n_max=None, variant=GIN_VARIANT):
    """A construction path K2 -> G_n, returning the visited states."""
    rng = np.random.default_rng(seed)
    params = init_params(variant, n_max or n, seed=seed)
    g = k2()
    states = [g]
    while g.n < n:
        dist = action_distribution(params, g)
        g = apply_extension(g, sample_action(dist, rng))
        states.append(g)
    return params, states


class TestFeatures:
    def test_shape(self):
        params = init_params(GIN_VARIANT, 6, seed=1)
        feats = build_features(Graph.complete(3), params)
        assert feats.shape == (3, FEATURE_DIM)

    def test_k2_rows(self):
        params = init_params(GIN_VARIANT, 4, seed=1)
        feats = build_features(k2(), params)
        # Degree 1, neighbor stats zeroed, step embedding shared, zero
        # clustering: both vertices carry identical features.
        assert np.array_equal(feats[0], feats[1])
        assert feats[0, 0] == 1

    def test_step_embedding_selected_by_size(self):
        params = init_params(GIN_VARIANT, 6, seed=1)
        emb = params.tensors["step_embed"]
        f3 = build_features(Graph.complete(3), params)
        assert np.allclose(f3[:3, 5:7], emb[1])

    def test_bounds(self):
        params = init_params(GIN_VARIANT, 6, seed=1)
        with pytest.raises(ValueError):
            build_features(Graph.complete(7), params)


class TestDistribution:
    def test_probabilities_over_all_slots(self):
        params, states = rollout_states(6, seed=2)
        for g in states[:-1]:
            dist = action_distribution(params, g)
            assert len(dist.slots) == len(enumerate_slots(g.n))
            assert dist.probs.shape == (len(dist.slots),)
            assert dist.probs.sum() == pytest.approx(1.0)
            assert np.all(dist.probs > 0)

    @pytest.mark.parametrize("variant", [GIN_VARIANT, FLAT_VARIANT])
    def test_valid_mask_matches_slots(self, variant):
        checked = 0
        for n in (5, 8, 10):
            for seed in range(3):
                params, states = rollout_states(n, seed=seed, variant=variant)
                for g in states[:-1]:
                    dist = action_distribution(params, g)
                    assert dist.valid.dtype == bool
                    assert dist.valid.tolist() == [slot_is_valid(g, s) for s in dist.slots]
                    checked += 1
        assert checked == 3 * (3 + 6 + 8)

    @pytest.mark.parametrize("variant", [GIN_VARIANT, FLAT_VARIANT])
    def test_one_adjacency_per_state(self, variant):
        params, states = rollout_states(8, seed=1, variant=variant)
        rng = np.random.default_rng(2)
        data = [(g, sample_action(action_distribution(params, g), rng)) for g in states[:-1]]
        data += data[:2]  # repeated states are grouped and scored once
        with mock.patch.object(policy, "_adjacency", wraps=_adjacency) as spy:
            action_distribution(params, states[3])
            assert spy.call_count == 1
            spy.reset_mock()
            loss_and_gradients(params, data, 0.5)
            assert spy.call_count == len(states) - 1
            spy.reset_mock()
            with pytest.raises(ValueError):  # out of range: refused before any array
                action_distribution(params, decode_int(206970129631, 10))
            assert spy.call_count == 0

    def test_entropy_of_full_softmax(self):
        params = init_params(GIN_VARIANT, 5, seed=0)
        dist = action_distribution(params, Graph.complete(3))
        manual = -float(np.sum(dist.probs * np.log(dist.probs)))
        assert dist.entropy == pytest.approx(manual)

    def test_index_of(self):
        params = init_params(GIN_VARIANT, 5, seed=0)
        dist = action_distribution(params, Graph.complete(3))
        for i, slot in enumerate(dist.slots):
            assert dist.index_of(slot) == i


class TestSampling:
    def test_samples_are_valid_extensions(self):
        params = init_params(GIN_VARIANT, 7, seed=3)
        rng = np.random.default_rng(0)
        g = apply_extension(k2(), Extension(ZERO, None, (0, 1)))
        valid = set(enumerate_extensions(g))
        for _ in range(200):
            assert sample_action(action_distribution(params, g), rng) in valid

    def test_sampling_is_deterministic_given_rng(self):
        params, states = rollout_states(7, seed=4)
        g = states[2]
        dist = action_distribution(params, g)
        a = sample_action(dist, np.random.default_rng(9))
        b = sample_action(dist, np.random.default_rng(9))
        assert a == b

    def test_k2_single_slot(self):
        params = init_params(GIN_VARIANT, 4, seed=0)
        dist = action_distribution(params, k2())
        assert len(dist.slots) == 1
        assert sample_action(dist, np.random.default_rng(0)) == Extension(
            ZERO, None, (0, 1))


class TestEquivariance:
    def test_probabilities_commute_with_relabeling(self):
        rng = np.random.default_rng(11)
        params, states = rollout_states(7, seed=11)
        for g in states[:-1]:
            dist = action_distribution(params, g)
            perm = [int(p) for p in rng.permutation(g.n)]
            pdist = action_distribution(params, g.permuted(perm))
            for slot, p in zip(dist.slots, dist.probs):
                v, w = sorted((perm[slot.pair[0]], perm[slot.pair[1]]))
                image = Extension(slot.kind,
                                  None if slot.apex is None else perm[slot.apex],
                                  (v, w))
                q = pdist.probs[pdist.index_of(image)]
                assert abs(p - q) <= 1e-9


class TestLossAndGradients:
    @staticmethod
    def dataset(params, n=6, seed=5, size=12):
        rng = np.random.default_rng(seed)
        out = []
        g = k2()
        while len(out) < size:
            if g.n >= n:
                g = k2()
            dist = action_distribution(params, g)
            ext = sample_action(dist, rng)
            out.append((g, ext))
            g = apply_extension(g, ext)
        return out

    def test_loss_is_mean_nll_when_eta_zero(self):
        params = init_params(GIN_VARIANT, 6, seed=6)
        data = self.dataset(params)
        loss, _ = loss_and_gradients(params, data, 0.0)
        nll = 0.0
        for g, ext in data:
            dist = action_distribution(params, g)
            nll -= float(np.log(dist.probs[dist.index_of(ext)]))
        assert loss == pytest.approx(nll / len(data))

    def test_entropy_lowers_loss(self):
        params = init_params(GIN_VARIANT, 6, seed=6)
        data = self.dataset(params)
        l0, _ = loss_and_gradients(params, data, 0.0)
        l1, _ = loss_and_gradients(params, data, 0.7)
        assert l1 < l0

    def test_gradient_shapes_cover_all_tensors(self):
        params = init_params(GIN_VARIANT, 6, seed=6)
        _, grads = loss_and_gradients(params, self.dataset(params), 0.5)
        assert set(grads) == set(params.tensors)
        for name, g in grads.items():
            assert g.shape == params.tensors[name].shape

    def test_finite_difference_spot_check(self):
        params = init_params(GIN_VARIANT, 5, seed=7)
        data = self.dataset(params, n=5, seed=7, size=6)
        for eta in (0.0, 0.8):
            loss, grads = loss_and_gradients(params, data, eta)
            rng = np.random.default_rng(1)
            for name in ("head.W1", "gin0.W1", "step_embed", "gin1.eps"):
                t = params.tensors[name]
                flat_idx = int(rng.integers(t.size))
                idx = np.unravel_index(flat_idx, t.shape)
                h = 1e-5
                old = t[idx]
                t[idx] = old + h
                lp, _ = loss_and_gradients(params, data, eta)
                t[idx] = old - h
                lm, _ = loss_and_gradients(params, data, eta)
                t[idx] = old
                num = (lp - lm) / (2 * h)
                ana = grads[name][idx]
                assert abs(ana - num) / max(abs(ana), abs(num), 1e-5) < 1e-4


class TestAdam:
    def test_step_decreases_loss(self):
        params = init_params(GIN_VARIANT, 6, seed=8)
        data = TestLossAndGradients.dataset(params, seed=8)
        l0, grads = loss_and_gradients(params, data, 0.0)
        for _ in range(20):
            _, grads = loss_and_gradients(params, data, 0.0)
            adam_step(params, grads, 5e-4)
        l1, _ = loss_and_gradients(params, data, 0.0)
        assert l1 < l0
        assert params.adam_t == 20

    def test_moments_updated_in_place(self):
        params = init_params(GIN_VARIANT, 5, seed=8)
        data = TestLossAndGradients.dataset(params, n=5, seed=8, size=4)
        _, grads = loss_and_gradients(params, data, 0.0)
        adam_step(params, grads, 1e-3)
        assert any(np.any(m != 0) for m in params.adam_m.values())


class TestPersistence:
    def test_round_trip(self, tmp_path):
        params = init_params(GIN_VARIANT, 7, seed=9)
        p = tmp_path / "w.npz"
        save_params(params, str(p))
        back = load_params(str(p))
        assert back.variant == params.variant
        assert back.n_max == params.n_max
        assert back.adam_t == params.adam_t
        for k, v in params.tensors.items():
            assert np.array_equal(back.tensors[k], v)

    def test_missing_tensor_rejected(self, tmp_path):
        params = init_params(GIN_VARIANT, 5, seed=9)
        p = tmp_path / "w.npz"
        save_params(params, str(p))
        data = dict(np.load(str(p)))
        del data["t.head.W1"]
        np.savez(str(p), **data)
        with pytest.raises(ValueError):
            load_params(str(p))

    def test_interrupted_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        params = init_params(GIN_VARIANT, 5, seed=9)
        old, new = tmp_path / "checkpoint-1", tmp_path / "checkpoint-2"
        save_params(params, str(old))
        before = old.read_bytes()
        during = []

        def cut_short(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            during.append(sorted(os.listdir(tmp_path)))
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", cut_short)
        for path in (old, new):
            with pytest.raises(OSError, match="disk full"):
                save_params(params, str(path))
        assert old.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["checkpoint-1"]
        # the partial file never carries a name `checkpoint-<t>` matches
        for names in during:
            assert [n for n in names if re.fullmatch(r"checkpoint-\d+", n)] == ["checkpoint-1"]

    def test_extend_to_n(self):
        params = init_params(GIN_VARIANT, 6, seed=10)
        wider = extend_to_n(params, 9)
        assert wider.n_max == 9
        emb = wider.tensors["step_embed"]
        assert emb.shape == param_shapes(GIN_VARIANT, 9)["step_embed"]
        assert np.array_equal(emb[:4], params.tensors["step_embed"])
        assert np.array_equal(emb[4], emb[3])
        assert np.array_equal(emb[6], emb[3])
        # The original is untouched and the wide policy scores big states.
        assert params.tensors["step_embed"].shape[0] == 4
        g = decode_int(206970129631, 10)
        with pytest.raises(ValueError):
            action_distribution(params, g)

    def test_extend_rejects_flat(self):
        params = init_params(FLAT_VARIANT, 6, seed=10)
        with pytest.raises(ValueError):
            extend_to_n(params, 8)


class TestFlatVariant:
    def test_input_encoding(self):
        g = Graph.complete(3)
        vec = flat_input_vector(_adjacency(g), 6)
        assert vec.shape == (flat_input_dim(6),)
        assert vec.sum() == 3

    def test_distribution_over_current_slots(self):
        params = init_params(FLAT_VARIANT, 6, seed=12)
        g = apply_extension(k2(), Extension(ZERO, None, (0, 1)))
        dist = action_distribution(params, g)
        assert len(dist.slots) == len(enumerate_slots(g.n))
        assert dist.probs.sum() == pytest.approx(1.0)

    def test_output_head_is_maximal_slot_list(self):
        assert flat_output_dim(6) == len(enumerate_slots(5))

    def test_gradients_match_finite_differences(self):
        params = init_params(FLAT_VARIANT, 5, seed=13)
        data = TestLossAndGradients.dataset(params, n=5, seed=13, size=6)
        loss, grads = loss_and_gradients(params, data, 0.4)
        t = params.tensors["flat.W1"]
        idx = (3, 5)
        h = 1e-5
        old = t[idx]
        t[idx] = old + h
        lp, _ = loss_and_gradients(params, data, 0.4)
        t[idx] = old - h
        lm, _ = loss_and_gradients(params, data, 0.4)
        t[idx] = old
        num = (lp - lm) / (2 * h)
        assert abs(grads["flat.W1"][idx] - num) / max(
            abs(num), abs(grads["flat.W1"][idx]), 1e-5) < 1e-4

    def test_wrong_variant_weights_rejected_for_extension(self):
        params = init_params(FLAT_VARIANT, 6, seed=12)
        g = decode_int(206970129631, 10)
        with pytest.raises(ValueError):
            action_distribution(params, g)


class TestGinForward:
    def test_embedding_shape(self):
        params = init_params(GIN_VARIANT, 6, seed=14)
        g = Graph.complete(4)
        h, _ = gin_forward(params, g, _adjacency(g))
        assert h.shape == (4, EMBED_DIM)

    def test_slot_dim_constant(self):
        assert SLOT_DIM == 69
