"""Extension-scoring policy: a GIN encoder over vertex features feeding a
shared MLP that scores every candidate move, softmaxed into a distribution.

Vertex input is [LDP; step embedding; clustering] (8 numbers).  Three GIN
layers with sum aggregation produce 32-dim embeddings h_v; a slot
(apex, {v, w}) is represented as [h_apex + h_v + h_w; h_v + h_w; gamma] with
h of the empty apex zero and the pair-sum block zeroed for 0-extensions.
gamma one-hot encodes slot type: invalid, 0-extension, or a 1-extension
whose triple spans 1, 2 or 3 edges.  Scores of *all* slots, invalid ones
included, go through one softmax; sampling resamples invalid draws.

Everything runs in float64 numpy with hand-derived gradients, checked in the
tests against central finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, clustering, ldp
from .rigidity import ONE, Extension, enumerate_slots, slot_is_valid

FEATURE_DIM = 8
EMBED_DIM = 32
GIN_HIDDEN = 128
GIN_LAYERS = 3
HEAD_HIDDEN = 128
GAMMA_DIM = 5
SLOT_DIM = 2 * EMBED_DIM + GAMMA_DIM
FLAT_HIDDEN = 128

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

FORMAT_VERSION = 1

MAX_RESAMPLE = 32  # invalid draws rejected before sampling the valid mass

GIN_VARIANT = "gin"
FLAT_VARIANT = "flat-mlp"


@dataclass
class PolicyParams:
    variant: str
    n_max: int
    tensors: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int = 0

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            variant=self.variant,
            n_max=self.n_max,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            adam_m={k: v.copy() for k, v in self.adam_m.items()},
            adam_v={k: v.copy() for k, v in self.adam_v.items()},
            adam_t=self.adam_t,
        )


def _mlp_shapes(prefix: str, dims: list[int]) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(len(dims) - 1):
        shapes[f"{prefix}.W{i + 1}"] = (dims[i], dims[i + 1])
        shapes[f"{prefix}.b{i + 1}"] = (dims[i + 1],)
    return shapes


def flat_input_dim(n_max: int) -> int:
    return n_max * (n_max - 1) // 2


def flat_output_dim(n_max: int) -> int:
    k = n_max - 1  # largest state a policy for target n_max ever scores
    return k * (k - 1) // 2 * (k - 1)


def param_shapes(variant: str, n_max: int) -> dict[str, tuple[int, ...]]:
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    if variant == GIN_VARIANT:
        shapes: dict[str, tuple[int, ...]] = {}
        for l in range(GIN_LAYERS):
            in_dim = FEATURE_DIM if l == 0 else EMBED_DIM
            shapes.update(_mlp_shapes(f"gin{l}", [in_dim, GIN_HIDDEN, EMBED_DIM]))
            shapes[f"gin{l}.eps"] = ()
        shapes["step_embed"] = (n_max - 2, 2)  # rows are lambda_k, k = 2..n_max-1
        shapes.update(_mlp_shapes("head", [SLOT_DIM, HEAD_HIDDEN, HEAD_HIDDEN, 1]))
        return shapes
    if variant == FLAT_VARIANT:
        return _mlp_shapes(
            "flat", [flat_input_dim(n_max), FLAT_HIDDEN, FLAT_HIDDEN, flat_output_dim(n_max)])
    raise ValueError(f"unknown policy variant {variant!r}")


def init_params(variant: str, n_max: int, seed=0) -> PolicyParams:
    """Glorot-uniform weights, zero biases and eps, std-0.01 step embeddings."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(variant, n_max).items():
        if name == "step_embed":
            tensors[name] = rng.normal(0.0, 0.01, shape)
        elif name.endswith(".eps") or len(shape) < 2:
            tensors[name] = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            tensors[name] = rng.uniform(-limit, limit, shape)
    zeros = lambda: {k: np.zeros_like(v) for k, v in tensors.items()}
    return PolicyParams(variant, n_max, tensors, zeros(), zeros(), 0)


# ---------------------------------------------------------------------------
# forward passes


def _check_state_size(params: PolicyParams, k: int) -> None:
    if not 2 <= k <= params.n_max - 1:
        raise ValueError(f"state size {k} outside policy range [2, {params.n_max - 1}]")


def build_features(g: Graph, params: PolicyParams) -> np.ndarray:
    """(k, 8) matrix of [LDP; lambda_k; clustering] rows."""
    k = g.n
    _check_state_size(params, k)
    lam = params.tensors["step_embed"][k - 2]
    feats = np.zeros((k, FEATURE_DIM))
    for v in range(k):
        feats[v, :5] = ldp(g, v)
        feats[v, 5:7] = lam
        feats[v, 7] = clustering(g, v)
    return feats


def _dense_adj(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def _mlp_forward(t: dict[str, np.ndarray], prefix: str, x: np.ndarray, depth: int):
    """`depth` Linear layers with ReLU between them (none after the last) on
    the rows of x; returns the output and the (input, pre-activation) cache
    of every layer."""
    cache = []
    z = x
    for i in range(1, depth + 1):
        a = x if i == 1 else np.maximum(z, 0.0)
        z = a @ t[f"{prefix}.W{i}"] + t[f"{prefix}.b{i}"]
        cache.append((a, z))
    return z, cache


def _mlp_backward(t: dict[str, np.ndarray], prefix: str, cache, dout: np.ndarray,
                  grads: dict[str, np.ndarray]) -> np.ndarray:
    """Accumulate the weight gradients of an _mlp_forward pass into grads and
    return d/dx."""
    d = dout
    for i in range(len(cache), 0, -1):
        a_in = cache[i - 1][0]
        # one row: each entry is a single product, and np.outer skips the
        # slow non-BLAS matmul loop numpy takes for that shape
        grads[f"{prefix}.W{i}"] += a_in.T @ d if len(a_in) > 1 else np.outer(a_in, d)
        grads[f"{prefix}.b{i}"] += d.sum(axis=0)
        d = d @ t[f"{prefix}.W{i}"].T
        if i > 1:
            d = d * (cache[i - 2][1] > 0)
    return d


def gin_forward(params: PolicyParams, g: Graph):
    """Vertex embeddings (k, 32) plus the caches backprop needs."""
    t = params.tensors
    adj = _dense_adj(g)
    h = build_features(g, params)
    layers = []
    for l in range(GIN_LAYERS):
        s = (1.0 + t[f"gin{l}.eps"]) * h + adj @ h
        out, mlp = _mlp_forward(t, f"gin{l}", s, 2)
        layers.append((h, mlp))
        h = out
    return h, {"adj": adj, "layers": layers}


@lru_cache(maxsize=None)
def _slot_arrays(k: int):
    """Index arrays aligned with enumerate_slots(k); empty apex points at the
    padded zero row k."""
    slots = enumerate_slots(k)
    a_idx = np.array([k if e.apex is None else e.apex for e in slots])
    v_idx = np.array([e.pair[0] for e in slots])
    w_idx = np.array([e.pair[1] for e in slots])
    is_one = np.array([e.kind == ONE for e in slots])
    return slots, a_idx, v_idx, w_idx, is_one


def slot_representation(params: PolicyParams, g: Graph, h: np.ndarray):
    """(S, 69) slot matrix in the shared slot order, plus scatter metadata."""
    k = g.n
    slots, a_idx, v_idx, w_idx, is_one = _slot_arrays(k)
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


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


@dataclass
class ActionDistribution:
    k: int  # state size; the slots are enumerate_slots(k)
    valid: np.ndarray
    probs: np.ndarray
    logits: np.ndarray

    @property
    def slots(self) -> tuple[Extension, ...]:
        return enumerate_slots(self.k)

    def index_of(self, ext: Extension) -> int:
        return _slot_index_table(self.k)[ext]

    @property
    def entropy(self) -> float:
        p = self.probs
        return float(-(p * np.log(np.where(p > 0, p, 1.0))).sum())


# --- flat-MLP ablation ------------------------------------------------------


@lru_cache(maxsize=None)
def _triangle_positions(n_max: int) -> dict[tuple[int, int], int]:
    pos = {}
    i = 0
    for u in range(n_max):
        for v in range(u + 1, n_max):
            pos[(u, v)] = i
            i += 1
    return pos


@lru_cache(maxsize=None)
def _slot_index_table(k: int) -> dict[Extension, int]:
    return {e: i for i, e in enumerate(enumerate_slots(k))}


@lru_cache(maxsize=None)
def _flat_present(n_max: int, k: int) -> np.ndarray:
    """Positions of the k-state slots inside the fixed maximal slot list."""
    table = _slot_index_table(n_max - 1)
    return np.array([table[e] for e in enumerate_slots(k)])


def flat_input_vector(g: Graph, n_max: int) -> np.ndarray:
    x = np.zeros(flat_input_dim(n_max))
    pos = _triangle_positions(n_max)
    for u, v in g.edges():
        x[pos[(u, v)]] = 1.0
    return x


# ---------------------------------------------------------------------------
# scoring


def _forward(params: PolicyParams, g: Graph):
    """Logits of every slot of g, `valid()`, which returns the slots'
    validity mask, and `backward(dz, grads)`, which accumulates the
    parameter gradients of d(loss)/d(logits) = dz.  Training never asks
    for the mask, so the flat variant builds it only on demand.

    The flat-MLP ablation is a plain MLP on the zero-padded adjacency bits
    with one logit per slot of the maximal slot list; slots absent at the
    current size carry no probability mass.  It is deliberately not
    permutation equivariant."""
    t = params.tensors
    if params.variant == FLAT_VARIANT:
        _check_state_size(params, g.n)
        x = flat_input_vector(g, params.n_max)[None, :]
        full, cache = _mlp_forward(t, "flat", x, 3)
        present = _flat_present(params.n_max, g.n)

        def valid():
            return np.array([slot_is_valid(g, e) for e in enumerate_slots(g.n)])

        def backward(dz, grads):
            dfull = np.zeros_like(full)
            dfull[0, present] = dz
            _mlp_backward(t, "flat", cache, dfull, grads)

        return full[0, present], valid, backward

    h, gin_cache = gin_forward(params, g)
    rep, aux = slot_representation(params, g, h)
    out, head_cache = _mlp_forward(t, "head", rep, 3)

    def backward(dz, grads):
        drep = _mlp_backward(t, "head", head_cache, dz[:, None], grads)
        # scatter slot-rep gradients back onto vertex embeddings
        k = g.n
        dphi = drep[:, :EMBED_DIM]
        dpsi = drep[:, EMBED_DIM:2 * EMBED_DIM] * aux["is_one"][:, None]
        dhp = np.zeros((k + 1, EMBED_DIM))
        np.add.at(dhp, aux["a_idx"], dphi)
        np.add.at(dhp, aux["v_idx"], dphi + dpsi)
        np.add.at(dhp, aux["w_idx"], dphi + dpsi)
        dh = dhp[:k]
        adj = gin_cache["adj"]
        for l in range(GIN_LAYERS - 1, -1, -1):
            h_in, mlp = gin_cache["layers"][l]
            ds = _mlp_backward(t, f"gin{l}", mlp, dh, grads)
            grads[f"gin{l}.eps"] += (ds * h_in).sum()
            dh = (1.0 + t[f"gin{l}.eps"]) * ds + adj @ ds
        # only the step-embedding columns of the input features are learnable
        grads["step_embed"][k - 2] += dh[:, 5:7].sum(axis=0)

    return out[:, 0], lambda: aux["valid"], backward


def action_distribution(params: PolicyParams, g: Graph) -> ActionDistribution:
    """Softmax over every slot of the current state, invalid ones included."""
    logits, valid, _ = _forward(params, g)
    return ActionDistribution(g.n, valid(), _softmax(logits), logits)


def sample_action(dist: ActionDistribution, rng) -> Extension:
    """Draw from the full softmax; invalid draws are rejected and retried up
    to MAX_RESAMPLE times, after which the valid mass is renormalized and
    sampled."""
    cum = np.cumsum(dist.probs)
    last = len(cum) - 1
    for _ in range(MAX_RESAMPLE):
        i = min(int(np.searchsorted(cum, rng.random(), side="right")), last)
        if dist.valid[i]:
            return dist.slots[i]
    w = dist.probs * dist.valid
    total = w.sum()
    if total <= 0.0:
        raise ValueError("no valid slot carries probability mass")
    cum = np.cumsum(w / total)
    i = min(int(np.searchsorted(cum, rng.random(), side="right")), len(cum) - 1)
    return dist.slots[i]


# ---------------------------------------------------------------------------
# loss and gradients


def _logit_grad_terms(logits: np.ndarray, action_counts: dict[int, int], eta: float):
    """Loss and d/dlogits of sum_a c_a * (-log p_a) - eta * c_tot * H(p)."""
    z = logits - logits.max()
    logp = z - np.log(np.exp(z).sum())
    p = np.exp(logp)
    c_tot = sum(action_counts.values())
    ent = float(-(p * logp).sum())
    loss = -sum(c * logp[a] for a, c in action_counts.items()) - eta * c_tot * ent
    dz = c_tot * p.copy()
    for a, c in action_counts.items():
        dz[a] -= c
    dz += eta * c_tot * p * (logp + ent)
    return float(loss), dz, ent


def loss_and_gradients(params: PolicyParams, dataset, eta: float):
    """Mean NLL of the taken actions minus eta times the mean full-softmax
    entropy, over all dataset items; returns (loss, grad dict).

    Items are (state, action) pairs or (state, step, action) triples; the
    step of a state is its vertex count.  States repeated across items are
    processed once with multiplicities."""
    if not dataset:
        raise ValueError("empty training batch")
    groups: dict[tuple, tuple[Graph, dict[int, int]]] = {}
    for item in dataset:
        g, ext = item[0], item[-1]
        if len(item) == 3 and item[1] != g.n:
            raise ValueError(f"step {item[1]} does not match state size {g.n}")
        key = (g.n, g.rows)
        if key not in groups:
            groups[key] = (g, {})
        idx = _slot_index_table(g.n)[ext]
        counts = groups[key][1]
        counts[idx] = counts.get(idx, 0) + 1
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    total = 0.0
    for g, counts in groups.values():
        logits, _, backward = _forward(params, g)
        loss, dz, _ = _logit_grad_terms(logits, counts, eta)
        backward(dz, grads)
        total += loss
    n = len(dataset)
    for name in grads:
        grads[name] /= n
    return total / n, grads


def adam_step(params: PolicyParams, grads: dict[str, np.ndarray], lr: float) -> None:
    """One in-place Adam update (beta1=0.9, beta2=0.999, eps=1e-8)."""
    params.adam_t += 1
    t = params.adam_t
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, g in grads.items():
        m = params.adam_m[name]
        v = params.adam_v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        params.tensors[name] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# persistence and transfer


def save_params(params: PolicyParams, path, extra: dict | None = None) -> None:
    """Versioned npz container: named tensors, Adam moments, JSON manifest.
    `extra` arrays are stored verbatim and ignored by load_params."""
    meta = {
        "format_version": FORMAT_VERSION,
        "variant": params.variant,
        "n_max": params.n_max,
        "adam_t": params.adam_t,
    }
    arrays = {f"t.{k}": v for k, v in params.tensors.items()}
    arrays.update({f"m.{k}": v for k, v in params.adam_m.items()})
    arrays.update({f"v.{k}": v for k, v in params.adam_v.items()})
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if extra:
        arrays.update(extra)
    if hasattr(path, "write"):
        np.savez(path, **arrays)
    else:
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)


def load_params(path) -> PolicyParams:
    with np.load(path if hasattr(path, "read") else str(path)) as data:
        if "meta" not in data:
            raise ValueError("weight file has no manifest")
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported weight format {meta.get('format_version')}")
        variant, n_max = meta["variant"], int(meta["n_max"])
        expected = param_shapes(variant, n_max)
        tensors, adam_m, adam_v = {}, {}, {}
        for name, shape in expected.items():
            for prefix, dest in (("t", tensors), ("m", adam_m), ("v", adam_v)):
                key = f"{prefix}.{name}"
                if key not in data:
                    raise ValueError(f"weight file missing tensor {key}")
                arr = np.asarray(data[key], dtype=float)
                if arr.shape != shape:
                    raise ValueError(
                        f"{key} has shape {arr.shape}, expected {shape}")
                dest[name] = arr
    return PolicyParams(variant, n_max, tensors, adam_m, adam_v, int(meta["adam_t"]))


def extend_to_n(params: PolicyParams, n: int) -> PolicyParams:
    """Transfer a policy trained for smaller targets to target size n by
    copying the last step embedding into each new row (fresh Adam moments)."""
    if params.variant != GIN_VARIANT:
        raise ValueError("flat-mlp weights are sized to n_max and cannot be extended")
    if n < params.n_max:
        raise ValueError(f"cannot shrink policy from n_max={params.n_max} to {n}")
    out = params.copy()
    while out.n_max < n:
        emb = out.tensors["step_embed"]
        out.tensors["step_embed"] = np.vstack([emb, emb[-1:]])
        out.adam_m["step_embed"] = np.vstack(
            [out.adam_m["step_embed"], np.zeros((1, 2))])
        out.adam_v["step_embed"] = np.vstack(
            [out.adam_v["step_embed"], np.zeros((1, 2))])
        out.n_max += 1
    return out
