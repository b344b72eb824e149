import csv
import dataclasses
import math
import os

import numpy as np
import pytest
import yaml

from rigidsearch.cem import (CemConfig, ConfigError, DeployResult,
                             GenerationStats, RunState, default_eta0,
                             deploy_eval, early_stop_check,
                             entropy_coefficient, eta_at, load_checkpoint,
                             regeneration_frequency, resolve_config, rollout,
                             run, run_generation, save_checkpoint,
                             schedule_study)
from rigidsearch.graphs import canonical_code, decode_int
from rigidsearch.policy import init_params, load_params
from rigidsearch.rewards import make_reward
from rigidsearch.rigidity import is_minimally_rigid


def quick_cfg(**kw):
    base = dict(reward="nac", n=6, m=50, generations=3, seed=0, early_stop=0)
    base.update(kw)
    return CemConfig(**base)


class TestConfig:
    def test_reward_conditional_defaults(self):
        nac = resolve_config(CemConfig(reward="nac", n=8))
        assert (nac.generations, nac.rho_main, nac.early_stop) == (500, 1.0, 250)
        sph = resolve_config(CemConfig(reward="sphere", n=8, oracle="true"))
        assert (sph.generations, sph.rho_main, sph.early_stop) == (250, 0.256, 500)

    def test_early_stop_default_scales_with_m(self):
        # A generation finds at most m new classes, so a fixed threshold
        # above m would end every run after its first generation.
        nac = resolve_config(CemConfig(reward="nac", n=8, m=200))
        assert nac.early_stop == 50
        sph = resolve_config(CemConfig(reward="sphere", n=8, m=200, oracle="true"))
        assert sph.early_stop == 100

    def test_explicit_values_kept(self):
        cfg = resolve_config(CemConfig(reward="nac", n=8, generations=9,
                                       rho_main=0.5, early_stop=7,
                                       oracle="true", eta0=0.3))
        assert (cfg.generations, cfg.rho_main, cfg.early_stop, cfg.eta0) == (
            9, 0.5, 7, 0.3)

    def test_eta0_default_interpolates(self):
        cfg = resolve_config(CemConfig(reward="nac", n=9))
        lo = min(default_eta0(8), default_eta0(10))
        hi = max(default_eta0(8), default_eta0(10))
        assert lo <= cfg.eta0 <= hi

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            resolve_config(CemConfig(n=2))
        with pytest.raises(ConfigError):
            resolve_config(CemConfig(reward="girth"))
        with pytest.raises(ConfigError):
            resolve_config(CemConfig(rho_elite=0.01, rho_surv=0.05))
        with pytest.raises(ConfigError):
            resolve_config(CemConfig(rho_main=0.0))
        with pytest.raises(ConfigError):
            resolve_config(CemConfig(reward="plane"))  # no oracle
        with pytest.raises(ConfigError):
            resolve_config(CemConfig(oracle="x", oracle_table="y"))
        with pytest.raises(ConfigError):
            resolve_config(CemConfig(policy="transformer"))

    def test_nac_with_screening_needs_oracle_for_surrogate(self):
        with pytest.raises(ConfigError):
            resolve_config(CemConfig(reward="nac", rho_main=0.5))

    def test_nac_guard_must_admit_the_edge_count(self):
        # every graph at n has 2n - 3 edges
        assert resolve_config(CemConfig(reward="nac", n=10, nac_guard=17)).nac_guard == 17
        with pytest.raises(ConfigError, match="nac_guard 16"):
            resolve_config(CemConfig(reward="nac", n=10, nac_guard=16))
        # only a NAC reward counts colorings
        resolve_config(CemConfig(reward="sphere", n=10, nac_guard=16, oracle="true"))


class TestSchedule:
    def test_known_value(self):
        assert entropy_coefficient(1, 1, 6, 7) == pytest.approx(
            0.994561, abs=1e-6)

    def test_strictly_decreasing(self):
        vals = [entropy_coefficient(t, 1.0, 6, 7) for t in range(1, 501)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_scales_with_eta0(self):
        assert entropy_coefficient(5, 2.0, 6, 7) == pytest.approx(
            2 * entropy_coefficient(5, 1.0, 6, 7))

    def test_generations_are_one_based(self):
        with pytest.raises(ValueError):
            entropy_coefficient(0, 1, 6, 7)

    def test_schedule_variants(self):
        cfg = resolve_config(quick_cfg(eta0=0.8, schedule="constant"))
        assert eta_at(cfg, 1) == eta_at(cfg, 100) == 0.8
        cfg = resolve_config(quick_cfg(eta0=0.8, schedule="none"))
        assert eta_at(cfg, 3) == 0.0
        cfg = resolve_config(quick_cfg(eta0=0.8, schedule="eq5"))
        assert eta_at(cfg, 2) == entropy_coefficient(2, 0.8, 6, 7)


class TestRollout:
    def test_reaches_target_size_minimally_rigid(self):
        params = init_params("gin", 8, seed=0)
        tr = rollout(params, 8, np.random.default_rng(0))
        assert tr.graph.n == 8
        assert is_minimally_rigid(tr.graph)
        assert len(tr.pairs) == 6
        assert tr.code == canonical_code(tr.graph)

    def test_deterministic_under_seeded_stream(self):
        params = init_params("gin", 7, seed=1)
        a = rollout(params, 7, np.random.default_rng((3, 1, 5)))
        b = rollout(params, 7, np.random.default_rng((3, 1, 5)))
        assert a.code == b.code
        assert a.pairs == b.pairs

    def test_pairs_replay_to_graph(self):
        from rigidsearch.rigidity import apply_extension

        params = init_params("gin", 7, seed=2)
        tr = rollout(params, 7, np.random.default_rng(4))
        g = tr.pairs[0][0]
        for state, ext in tr.pairs:
            assert state == g
            g = apply_extension(g, ext)
        assert g == tr.graph


class TestRunGeneration:
    def test_accounting(self):
        cfg = resolve_config(quick_cfg())
        state = RunState(params=init_params("gin", 6, seed=0))
        main = make_reward("nac")
        stats = run_generation(state, cfg, main, None)
        assert stats.t == 1
        assert stats.evals == stats.new_noniso == len(state.seen)
        assert len(state.survivors) == int(cfg.m * cfg.rho_surv)
        assert state.best_value == max(main.cache.values())
        assert stats.best == state.best_value
        assert stats.cutoff <= stats.best

    def test_survivors_rank_highest(self):
        cfg = resolve_config(quick_cfg(m=60))
        state = RunState(params=init_params("gin", 6, seed=0))
        main = make_reward("nac")
        run_generation(state, cfg, main, None)
        values = sorted(main.cache.values(), reverse=True)
        floor = values[len(state.survivors) - 1]
        assert all(tr.reward >= floor for tr in state.survivors)

    def test_seen_growth_only_counts_new_classes(self):
        cfg = resolve_config(quick_cfg())
        state = RunState(params=init_params("gin", 6, seed=0))
        main = make_reward("nac")
        s1 = run_generation(state, cfg, main, None)
        seen_before = len(state.seen)
        s2 = run_generation(state, cfg, main, None)
        assert len(state.seen) == seen_before + s2.new_noniso

    def test_early_stop_check_is_strict(self):
        mk = lambda new: GenerationStats(1, 0, 0, new, 0.0, 0, 0.0)
        assert early_stop_check([mk(249)], 250)
        assert not early_stop_check([mk(250)], 250)
        with pytest.raises(ValueError):
            early_stop_check([], 250)


class TestRun:
    def test_finds_known_optimum(self):
        # Exhaustive search over the 13 six-vertex classes gives max 15.
        res = run(quick_cfg(m=100, generations=8, target=15))
        assert res.best_value == 15
        assert res.stopped_early
        assert is_minimally_rigid(res.best_graph)

    def test_rerun_is_identical(self, tmp_path):
        cfg = quick_cfg(m=60, generations=3)
        ra = run(dataclasses.replace(cfg, out=str(tmp_path / "a")))
        rb = run(dataclasses.replace(cfg, out=str(tmp_path / "b")))
        rows_a = list(csv.reader(open(tmp_path / "a" / "generations.csv")))
        rows_b = list(csv.reader(open(tmp_path / "b" / "generations.csv")))
        # Identical modulo the wall-clock column.
        assert [r[:-1] for r in rows_a] == [r[:-1] for r in rows_b]
        assert (tmp_path / "a" / "best.txt").read_text() == \
            (tmp_path / "b" / "best.txt").read_text()
        assert ra.best_code == rb.best_code

    def test_run_dir_artifacts(self, tmp_path):
        out = tmp_path / "run"
        res = run(quick_cfg(out=str(out)))
        snap = yaml.safe_load((out / "config").read_text())
        assert snap["m"] == 50 and snap["reward"] == "nac"
        assert snap["generations"] == 3  # resolved defaults echoed
        rows = list(csv.reader(open(out / "generations.csv")))
        assert rows[0] == ["t", "best", "cutoff", "new_noniso", "eta_t",
                           "evals", "seconds"]
        assert len(rows) == 4
        best_lines = (out / "best.txt").read_text().splitlines()
        n, code, value, gen = best_lines[-1].split()
        assert (int(n), int(code)) == (res.best_code.n, res.best_code.code)
        assert int(value) == res.best_value
        assert os.path.exists(out / "checkpoint-3")

    def test_early_stop_threshold_ends_run(self):
        res = run(quick_cfg(generations=50, early_stop=500))
        assert res.stopped_early
        assert len(res.stats) == 1  # 50 rollouts can't discover 500 classes

    def test_best_lines_record_improvements(self, tmp_path):
        out = tmp_path / "run"
        run(quick_cfg(m=80, generations=5, out=str(out)))
        lines = (out / "best.txt").read_text().splitlines()
        values = [int(l.split()[2]) for l in lines]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = resolve_config(quick_cfg())
        state = RunState(params=init_params("gin", 6, seed=0))
        main = make_reward("nac")
        run_generation(state, cfg, main, None)
        p = str(tmp_path / "ck")
        save_checkpoint(p, state)
        back = load_checkpoint(p)
        assert back.completed == state.completed
        assert back.best_value == state.best_value
        assert back.best_code == state.best_code
        assert back.seen == state.seen
        assert [tr.code for tr in back.survivors] == [
            tr.code for tr in state.survivors]
        assert [tr.reward for tr in back.survivors] == [
            tr.reward for tr in state.survivors]

    def test_checkpoint_is_a_weight_file(self, tmp_path):
        state = RunState(params=init_params("gin", 6, seed=3))
        p = str(tmp_path / "ck")
        save_checkpoint(p, state)
        params = load_params(p)
        assert params.n_max == 6
        assert np.array_equal(params.tensors["head.W1"],
                              state.params.tensors["head.W1"])

    def test_resume_matches_straight_run(self, tmp_path):
        cfg = quick_cfg(m=60, generations=4)
        full = run(cfg)
        half = run(dataclasses.replace(cfg, generations=2,
                                       out=str(tmp_path / "r")))
        resumed = run(dataclasses.replace(cfg, generations=4),
                      resume_from=str(tmp_path / "r" / "checkpoint-2"))
        assert [s.t for s in resumed.stats] == [3, 4]
        assert resumed.best_code == full.best_code
        assert [s.new_noniso for s in resumed.stats] == [
            s.new_noniso for s in full.stats[2:]]

    def test_old_checkpoints_pruned(self, tmp_path):
        out = tmp_path / "run"
        run(quick_cfg(generations=5, out=str(out)))
        names = sorted(f for f in os.listdir(out) if f.startswith("checkpoint"))
        assert names == ["checkpoint-3", "checkpoint-4", "checkpoint-5"]


class TestDeployEval:
    def test_saturation_at_tiny_size(self):
        params = init_params("gin", 6, seed=0)
        res = deploy_eval(params, 3, make_reward("nac"), count=10,
                          seed=0, patience=20)
        assert isinstance(res, DeployResult)
        assert res.distinct == 1
        assert not res.complete
        assert res.best_value == 0
        assert res.histogram == {0: 1}

    def test_full_collection(self):
        params = init_params("gin", 6, seed=0)
        res = deploy_eval(params, 5, make_reward("nac"), count=3,
                          seed=0, patience=500)
        assert res.complete and res.distinct == 3

    def test_extends_weights_when_needed(self):
        params = init_params("gin", 4, seed=0)
        res = deploy_eval(params, 5, make_reward("nac"), count=2,
                          seed=0, patience=200)
        assert res.distinct >= 2

    def test_regeneration_frequency(self):
        params = init_params("gin", 5, seed=0)
        reward = make_reward("nac")
        freq = regeneration_frequency(params, 5, reward, 0,
                                      rollouts=50, seed=0)
        assert 0.0 <= freq <= 1.0


class TestScheduleStudy:
    def test_rows_cover_grid(self, tmp_path):
        cfg = quick_cfg(m=30, generations=2, eta0=0.9)
        out = tmp_path / "study.csv"
        rows = schedule_study(cfg, ["eq5", "none", "constant:0.5"], [0, 1],
                              out_csv=str(out))
        assert {r[0] for r in rows} == {"eq5", "none", "constant:0.5"}
        assert {r[1] for r in rows} == {0, 1}
        assert all(r[3] >= 0 for r in rows)
        written = list(csv.reader(open(out)))
        assert written[0] == ["schedule", "seed", "generation", "best"]
        assert len(written) == len(rows) + 1

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            schedule_study(quick_cfg(), ["linear:2"], [0])