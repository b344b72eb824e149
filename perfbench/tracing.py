"""Spans and counters around rigidsearch's layer functions, recorded from
the benchmark's side.

`LAYERS` lists the public functions each layer exposes, at the names their
callers look them up, with the span name each call records.  A traced unit
replaces every one of them with a wrapper that records a span (id, name,
start, end, parent id, attributes) and the counters that belong to that
boundary; everything stays in memory until `Tracer.dump` writes it out.
Nothing under src/ is touched: the wrappers live only in the benchmark's
child process.

The untraced path installs nothing but `FirstGeneration`, one timestamp at
the first generation, which ends the set-up phase of a search.
"""

from __future__ import annotations

import importlib
import json
import os
import time

import oracle_worker

# (module, attribute, span name).  Module-level names are patched in the
# module whose code calls them, because `from x import f` copies the name.
LAYERS = (
    ("rigidsearch.cli", "main", "cli.main"),
    ("rigidsearch.cem", "run_generation", "cem.generation"),
    ("rigidsearch.cem", "rollout", "cem.rollout"),
    ("rigidsearch.cem", "save_checkpoint", "cem.checkpoint"),
    ("rigidsearch.cem", "action_distribution", "policy.forward"),
    ("rigidsearch.cem", "loss_and_gradients", "policy.loss"),
    ("rigidsearch.cem", "adam_step", "policy.adam"),
    ("rigidsearch.cem", "two_stage_select", "rewards.select"),
    ("rigidsearch.cem", "canonical_code", "graphs.canonical"),
    ("rigidsearch.rigidity", "canonical_code", "graphs.canonical"),
    ("rigidsearch.graphs", "canonical_code", "graphs.canonical"),
    ("rigidsearch.cli", "canonical_code", "graphs.canonical"),
    ("rigidsearch.cli", "automorphism_count", "graphs.aut"),
    ("rigidsearch.cli", "structural_report", "graphs.structure"),
    ("rigidsearch.rewards", "count_nac", "nac.count.canonical"),
    ("rigidsearch.cli", "count_nac", "nac.count.given"),
    ("rigidsearch.cem", "apply_extension", "rigidity.apply"),
    ("rigidsearch.rigidity", "apply_extension", "rigidity.apply"),
    ("rigidsearch.cli", "is_minimally_rigid", "rigidity.pebble"),
    ("rigidsearch.cli", "peel_to_core", "rigidity.peel"),
    ("rigidsearch.cli", "extension_impact", "rigidity.impact"),
    ("rigidsearch.oracle", "OraclePool.__init__", "oracle.spawn"),
    ("rigidsearch.oracle", "OraclePool.query", "oracle.query"),
    ("rigidsearch.oracle", "OracleClient.query", "oracle.client"),
    ("rigidsearch.rewards", "CachedReward.value", "rewards.lookup"),
)

# Spans too frequent and too short to be worth a record; they keep counters.
_COUNT_ONLY = {"rewards.lookup"}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def layer_codes() -> dict:
    """Code object of every layer function -> its span name."""
    out = {}
    for module, attr, span in LAYERS:
        owner, name = _resolve(module, attr)
        fn = getattr(owner, name)
        code = getattr(fn, "__wrapped__", fn).__code__
        prev = out.get(code, span)
        # one function traced under two names (count_nac) keeps their stem
        out[code] = span if prev == span else os.path.commonprefix([prev, span]).rstrip(".")
    return out


def innermost_layer(frame, codes: dict) -> str:
    """Span name of the innermost layer function on the given stack."""
    while frame is not None:
        span = codes.get(frame.f_code)
        if span is not None:
            return span
        frame = frame.f_back
    return "benchmark"


class FirstGeneration:
    """Records when the first generation starts, and nothing else."""

    def __init__(self):
        self.first_generation: float | None = None
        owner, name = _resolve("rigidsearch.cem", "run_generation")
        original = getattr(owner, name)

        def run_generation(*args, **kwargs):
            if self.first_generation is None:
                self.first_generation = time.monotonic()
            return original(*args, **kwargs)

        run_generation.__wrapped__ = original
        setattr(owner, name, run_generation)


class Tracer:
    """In-memory spans and counters for one benchmark unit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []      # (id, name, start, end, parent, attrs)
        self.counters: dict[str, float] = {}
        self.stack: list[int] = []
        self._next_id = 0
        self._roles: dict[int, str] = {}  # id(CachedReward) -> main | surrogate
        self._states: set = set()         # labelled states of this generation
        for module, attr, span in LAYERS:
            owner, name = _resolve(module, attr)
            setattr(owner, name, self._wrap(span, getattr(owner, name)))

    def count(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    @property
    def first_generation(self) -> float | None:
        for _, name, start, *_ in self.spans:
            if name == "cem.generation":
                return start
        return None

    def _wrap(self, span: str, fn):
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        if span in _COUNT_ONLY:
            def counted(*args, **kwargs):
                before(args)
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        def wrapper(*args, **kwargs):
            attrs = before(args) if before else None
            sid = self._next_id
            self._next_id += 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(span + ".errors")
                raise
            finally:
                end = time.monotonic()
                self.stack.pop()
                self.spans.append((sid, span, start, end, parent, attrs))
            if after:
                after(args, result, attrs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # per-boundary attributes and counters -----------------------------------

    def _before_cem_generation(self, args):
        self._states = set()

    def _after_cem_generation(self, args, result, attrs):
        self.count("policy.forward.distinct", len(self._states))

    def _before_policy_forward(self, args):
        g = args[1]
        self._states.add((g.n, g.rows))
        return {"k": g.n}

    def _after_cem_checkpoint(self, args, result, attrs):
        self.count("cem.checkpoint.bytes", os.path.getsize(args[0]))

    def _after_nac_count_canonical(self, args, result, attrs):
        self.count("nac.colorings", result)

    _after_nac_count_given = _after_nac_count_canonical

    def _before_rewards_select(self, args):
        _, surrogate, main, _ = args
        self._roles[id(main)] = "main"
        if surrogate is not None:
            self._roles[id(surrogate)] = "surrogate"

    def _before_rewards_lookup(self, args):
        reward, cc = args
        role = self._roles.get(id(reward), "main")
        self.count(f"rewards.{role}.lookups")
        if cc in reward.cache:
            self.count(f"rewards.{role}.hits")

    def _before_oracle_query(self, args):
        return {"procs": len(args[0].clients)}

    def _after_oracle_query(self, args, result, attrs):
        _, invariant, n, code = args
        if result != oracle_worker.values(n, code)[invariant]:
            self.count("oracle.mismatches")

    def _before_oracle_client(self, args):
        return {"stub": "rigidsearch.stub_oracle" in args[0].command}

    # output -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "counters": self.counters,
                       "spans": self.spans}, fh)
