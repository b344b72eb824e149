"""Differential test: the scoring code against a test-local copy of the
per-variant forward and gradient code it replaced, with the per-variant
inputs of that code: a float adjacency and a slot representation that each
walk the edges, a flat input vector placed through a pair -> position table,
and a flat-variant mask checked slot by slot.  Logits, validity masks,
losses and every gradient array must be bit-identical.  The backward pass's
gather of slot gradients onto vertices is also checked on its own against
the three `np.add.at` scatters it replaced."""

import numpy as np
import pytest

from rigidsearch.policy import (EMBED_DIM, FLAT_VARIANT, GAMMA_DIM, GIN_LAYERS,
                                GIN_VARIANT, _adjacency, _logit_grad_terms, _vertex_grads,
                                action_distribution, build_features, flat_input_dim,
                                flat_input_vector, flat_output_dim, gin_forward,
                                init_params, loss_and_gradients, sample_action,
                                slot_representation)
from rigidsearch.rigidity import ONE, ZERO, apply_extension, enumerate_slots, k2

# --- reference: the forward and gradient code as it was written per variant


def ref_dense_adj(g):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def ref_slot_representation(g, h):
    """Slot matrix, scatter indices and validity mask, from its own
    boolean adjacency."""
    k = g.n
    slots = enumerate_slots(k)
    a_idx = np.array([k if e.apex is None else e.apex for e in slots])
    v_idx = np.array([e.pair[0] for e in slots])
    w_idx = np.array([e.pair[1] for e in slots])
    is_one = np.array([e.kind == ONE for e in slots])
    hp = np.vstack([h, np.zeros((1, h.shape[1]))])
    phi = hp[a_idx] + hp[v_idx] + hp[w_idx]
    psi = (hp[v_idx] + hp[w_idx]) * is_one[:, None]
    adj = np.zeros((k + 1, k + 1), dtype=bool)
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = True
    e_vw = adj[v_idx, w_idx]
    among = adj[a_idx, v_idx].astype(int) + adj[a_idx, w_idx].astype(int) + e_vw
    valid = ~is_one | e_vw
    gamma = np.zeros((len(slots), GAMMA_DIM))
    gamma[:, 0] = is_one & ~e_vw
    gamma[:, 1] = ~is_one
    for j, cnt in enumerate((1, 2, 3)):
        gamma[:, 2 + j] = is_one & e_vw & (among == cnt)
    rep = np.hstack([phi, psi, gamma])
    aux = {"a_idx": a_idx, "v_idx": v_idx, "w_idx": w_idx,
           "is_one": is_one, "valid": valid}
    return rep, aux


def ref_scatter(dphi, dpsi, k):
    """Vertex gradients by three sequential scatters: each slot's dphi to
    its apex, then dphi + dpsi to v, then to w; the empty apex is row k."""
    slots = enumerate_slots(k)
    a_idx = np.array([k if e.apex is None else e.apex for e in slots])
    v_idx = np.array([e.pair[0] for e in slots])
    w_idx = np.array([e.pair[1] for e in slots])
    dhp = np.zeros((k + 1, dphi.shape[1]))
    np.add.at(dhp, a_idx, dphi)
    np.add.at(dhp, v_idx, dphi + dpsi)
    np.add.at(dhp, w_idx, dphi + dpsi)
    return dhp[:k]


def ref_triangle_positions(n_max):
    pos = {}
    i = 0
    for u in range(n_max):
        for v in range(u + 1, n_max):
            pos[(u, v)] = i
            i += 1
    return pos


def ref_flat_input_vector(g, n_max):
    x = np.zeros(flat_input_dim(n_max))
    pos = ref_triangle_positions(n_max)
    for u, v in g.edges():
        x[pos[(u, v)]] = 1.0
    return x


def ref_gin_forward(params, g):
    t = params.tensors
    feats = build_features(g, params)
    adj = ref_dense_adj(g)
    h = feats
    layers = []
    for l in range(GIN_LAYERS):
        eps = t[f"gin{l}.eps"]
        s = (1.0 + eps) * h + adj @ h
        z1 = s @ t[f"gin{l}.W1"] + t[f"gin{l}.b1"]
        a1 = np.maximum(z1, 0.0)
        out = a1 @ t[f"gin{l}.W2"] + t[f"gin{l}.b2"]
        layers.append({"h_in": h, "s": s, "z1": z1, "a1": a1})
        h = out
    return h, {"adj": adj, "layers": layers}


def ref_head_forward(params, rep):
    t = params.tensors
    z1 = rep @ t["head.W1"] + t["head.b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ t["head.W2"] + t["head.b2"]
    a2 = np.maximum(z2, 0.0)
    logits = (a2 @ t["head.W3"] + t["head.b3"])[:, 0]
    return logits, {"rep": rep, "z1": z1, "a1": a1, "z2": z2, "a2": a2}


def ref_flat_present(n_max, k):
    table = {e: i for i, e in enumerate(enumerate_slots(n_max - 1))}
    return np.array([table[e] for e in enumerate_slots(k)])


def ref_flat_forward(params, g):
    t = params.tensors
    x = ref_flat_input_vector(g, params.n_max)
    z1 = x @ t["flat.W1"] + t["flat.b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ t["flat.W2"] + t["flat.b2"]
    a2 = np.maximum(z2, 0.0)
    full = a2 @ t["flat.W3"] + t["flat.b3"]
    present = ref_flat_present(params.n_max, g.n)
    return full[present], {"x": x, "z1": z1, "a1": a1, "z2": z2, "a2": a2,
                           "present": present}


def ref_logits_and_valid(params, g):
    if params.variant == FLAT_VARIANT:
        logits, _ = ref_flat_forward(params, g)
        valid = np.array([e.kind == ZERO or g.has_edge(*e.pair)
                          for e in enumerate_slots(g.n)])
        return logits, valid
    h, _ = ref_gin_forward(params, g)
    rep, aux = ref_slot_representation(g, h)
    logits, _ = ref_head_forward(params, rep)
    return logits, aux["valid"]


def ref_gin_pair_grads(params, g, action_counts, eta, grads):
    t = params.tensors
    h, cache = ref_gin_forward(params, g)
    rep, aux = ref_slot_representation(g, h)
    logits, hcache = ref_head_forward(params, rep)
    loss, dz, _ = _logit_grad_terms(logits, action_counts, eta)

    dz2d = dz[:, None]
    grads["head.W3"] += hcache["a2"].T @ dz2d
    grads["head.b3"] += dz2d.sum(axis=0)
    da2 = dz2d @ t["head.W3"].T
    dzz2 = da2 * (hcache["z2"] > 0)
    grads["head.W2"] += hcache["a1"].T @ dzz2
    grads["head.b2"] += dzz2.sum(axis=0)
    da1 = dzz2 @ t["head.W2"].T
    dzz1 = da1 * (hcache["z1"] > 0)
    grads["head.W1"] += rep.T @ dzz1
    grads["head.b1"] += dzz1.sum(axis=0)
    drep = dzz1 @ t["head.W1"].T

    k = g.n
    dphi = drep[:, :EMBED_DIM]
    dpsi = drep[:, EMBED_DIM:2 * EMBED_DIM] * aux["is_one"][:, None]
    dhp = np.zeros((k + 1, EMBED_DIM))
    np.add.at(dhp, aux["a_idx"], dphi)
    np.add.at(dhp, aux["v_idx"], dphi + dpsi)
    np.add.at(dhp, aux["w_idx"], dphi + dpsi)
    dh = dhp[:k]

    adj = cache["adj"]
    for l in range(GIN_LAYERS - 1, -1, -1):
        lc = cache["layers"][l]
        grads[f"gin{l}.W2"] += lc["a1"].T @ dh
        grads[f"gin{l}.b2"] += dh.sum(axis=0)
        da1 = dh @ t[f"gin{l}.W2"].T
        dz1 = da1 * (lc["z1"] > 0)
        grads[f"gin{l}.W1"] += lc["s"].T @ dz1
        grads[f"gin{l}.b1"] += dz1.sum(axis=0)
        ds = dz1 @ t[f"gin{l}.W1"].T
        grads[f"gin{l}.eps"] += (ds * lc["h_in"]).sum()
        dh = (1.0 + t[f"gin{l}.eps"]) * ds + adj @ ds

    grads["step_embed"][g.n - 2] += dh[:, 5:7].sum(axis=0)
    return loss


def ref_flat_pair_grads(params, g, action_counts, eta, grads):
    t = params.tensors
    logits, cache = ref_flat_forward(params, g)
    loss, dz, _ = _logit_grad_terms(logits, action_counts, eta)
    dfull = np.zeros(flat_output_dim(params.n_max))
    dfull[cache["present"]] = dz
    grads["flat.W3"] += np.outer(cache["a2"], dfull)
    grads["flat.b3"] += dfull
    da2 = dfull @ t["flat.W3"].T
    dz2 = da2 * (cache["z2"] > 0)
    grads["flat.W2"] += np.outer(cache["a1"], dz2)
    grads["flat.b2"] += dz2
    da1 = dz2 @ t["flat.W2"].T
    dz1 = da1 * (cache["z1"] > 0)
    grads["flat.W1"] += np.outer(cache["x"], dz1)
    grads["flat.b1"] += dz1
    return loss


def ref_loss_and_gradients(params, dataset, eta):
    groups = {}
    for g, ext in dataset:
        key = (g.n, g.rows)
        if key not in groups:
            groups[key] = (g, {})
        idx = enumerate_slots(g.n).index(ext)
        counts = groups[key][1]
        counts[idx] = counts.get(idx, 0) + 1
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    pair_grads = ref_flat_pair_grads if params.variant == FLAT_VARIANT else ref_gin_pair_grads
    total = 0.0
    for g, counts in groups.values():
        total += pair_grads(params, g, counts, eta, grads)
    n = len(dataset)
    for name in grads:
        grads[name] /= n
    return total / n, grads


# --- the comparison


N = 8
ROLLOUTS = 20


def perturbed_params(variant, seed):
    """Seeded weights with nonzero biases and GIN eps, so every term of the
    forward pass and its gradient carries weight."""
    params = init_params(variant, N, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    for name, t in params.tensors.items():
        if name.endswith(".eps") or ".b" in name:
            t += rng.normal(0.0, 0.1, t.shape)
    return params


def rollout_pairs(params, seed):
    rng = np.random.default_rng(seed)
    g = k2()
    pairs = []
    while g.n < N:
        ext = sample_action(action_distribution(params, g), rng)
        pairs.append((g, ext))
        g = apply_extension(g, ext)
    return pairs


@pytest.mark.parametrize("variant", [GIN_VARIANT, FLAT_VARIANT])
def test_scoring_matches_reference_bit_for_bit(variant):
    params = perturbed_params(variant, seed=21)
    states = 0
    for seed in range(ROLLOUTS):
        pairs = rollout_pairs(params, seed)
        for g, _ in pairs:
            dist = action_distribution(params, g)
            logits, valid = ref_logits_and_valid(params, g)
            assert np.array_equal(dist.logits, logits)
            assert np.array_equal(dist.valid, valid)
            states += 1
        # a repeated state exercises the multiplicity grouping
        dataset = pairs + pairs[:2]
        for eta in (0.0, 0.8):
            loss, grads = loss_and_gradients(params, dataset, eta)
            ref_loss, ref_grads = ref_loss_and_gradients(params, dataset, eta)
            assert loss == ref_loss
            assert set(grads) == set(ref_grads)
            for name in grads:
                assert np.array_equal(grads[name], ref_grads[name]), name
    assert states == ROLLOUTS * (N - 2)


def test_inputs_from_one_adjacency_match_reference():
    params = perturbed_params(GIN_VARIANT, seed=22)
    for seed in range(ROLLOUTS):
        for g, _ in rollout_pairs(params, seed):
            adj = _adjacency(g)
            assert np.array_equal(flat_input_vector(adj, N), ref_flat_input_vector(g, N))
            h, cache = gin_forward(params, g, adj)
            ref_h, ref_cache = ref_gin_forward(params, g)
            assert np.array_equal(cache["agg"], ref_cache["adj"])
            assert np.array_equal(h, ref_h)
            assert np.array_equal(slot_representation(h, adj), ref_slot_representation(g, h)[0])


def signed_grads(rng, shape):
    """Signed values from 1e-8 to 1e3 in magnitude, a tenth of them zeros
    of either sign."""
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 3, shape)
    zero = rng.random(shape) < 0.1
    x[zero] = rng.choice([0.0, -0.0], zero.sum())
    return x


@pytest.mark.parametrize("k", [*range(2, 10), 12, 15, 17])
def test_vertex_grads_match_add_at_scatter_bit_for_bit(k):
    rng = np.random.default_rng(k)
    is_one = np.array([e.kind == ONE for e in enumerate_slots(k)])
    shape = (len(is_one), EMBED_DIM)
    for case in range(200 if k < 10 else 3):
        dphi = signed_grads(rng, shape)
        # psi is zeroed for 0-extension slots, and in some cases cancels phi
        dpsi = (-dphi if case % 4 == 3 else signed_grads(rng, shape)) * is_one[:, None]
        got, want = _vertex_grads(dphi, dpsi, k), ref_scatter(dphi, dpsi, k)
        assert got.shape == want.shape == (k, EMBED_DIM)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (k, case)
