import math

import pytest

from rigidsearch.graphs import Graph, canonical_code, decode_int
from rigidsearch.oracle import OracleClient, bundled_stub_table, stub_oracle_command
from rigidsearch.oracle import ConfigError
from rigidsearch.rewards import (CachedReward, make_reward, needs_oracle, open_rewards,
                                 two_stage_select)
from rigidsearch.rigidity import enumerate_minimally_rigid


def counting_reward(name="probe", fn=None):
    calls = []
    def wrapped(g):
        calls.append(g)
        return fn(g) if fn else g.edge_count
    r = CachedReward(name, wrapped)
    r.calls = calls
    return r


class TestCachedReward:
    def test_isomorphic_inputs_share_one_evaluation(self):
        r = counting_reward()
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        h = g.permuted([3, 2, 1, 0])
        assert r.values([canonical_code(g), canonical_code(h)]) == [3, 3]
        assert r.misses == 1 and len(r.calls) == 1

    def test_value_by_code(self):
        r = counting_reward()
        cc = canonical_code(Graph.complete(3))
        assert r.value(cc) == 3
        assert r.value(cc) == 3
        assert r.misses == 1

    def test_evaluates_canonical_representative(self):
        seen = []
        r = CachedReward("probe", lambda g: seen.append(g) or 0)
        g = Graph.from_edges(3, [(1, 2), (0, 2)])
        r.value(canonical_code(g))
        assert seen[0] == decode_int(canonical_code(g).code, 3)


class TestMakeReward:
    def test_nac(self):
        r = make_reward("nac")
        assert r.name == "nac"
        assert r.value(canonical_code(Graph.complete(3))) == 0

    def test_nac_guard_is_forwarded(self):
        from rigidsearch.rigidity import GuardError

        r = make_reward("nac", nac_guard=3)
        with pytest.raises(GuardError):
            r.value(canonical_code(Graph.complete(4)))

    def test_oracle_rewards_need_oracle(self):
        for name in ("plane", "sphere", "mbezout"):
            with pytest.raises(ValueError):
                make_reward(name)

    def test_oracle_reward_without_oracle_is_config_error(self):
        from rigidsearch.cem import ConfigError

        with pytest.raises(ConfigError, match="reward 'sphere' needs --oracle or --oracle-table"):
            make_reward("sphere")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_reward("girth")

    def test_oracle_reward_round_trip(self):
        with OracleClient(stub_oracle_command(bundled_stub_table())) as client:
            r = make_reward("sphere", client)
            assert r.value(canonical_code(Graph.complete(3))) == 2
            assert r.value(canonical_code(decode_int(206970129631, 10))) == 1536


class TestTwoStageSelect:
    def setup_method(self):
        self.codes = sorted(enumerate_minimally_rigid(6))

    def test_full_evaluation_skips_surrogate(self):
        surrogate = counting_reward("surrogate")
        main = counting_reward("main")
        out = two_stage_select(self.codes, surrogate, main, 1.0)
        assert len(out) == len(self.codes)
        assert surrogate.misses == 0 and len(surrogate.calls) == 0
        assert main.misses == len(self.codes)

    def test_selection_size_is_ceiling(self):
        surrogate = counting_reward("surrogate", fn=lambda g: g.rows[0])
        main = counting_reward("main")
        out = two_stage_select(self.codes, surrogate, main, 0.256)
        assert len(out) == math.ceil(0.256 * len(self.codes))

    def test_selects_highest_surrogate_scores(self):
        score = {cc: i for i, cc in enumerate(self.codes)}
        surrogate = CachedReward("surrogate",
                                 lambda g: score[canonical_code(g)])
        main = counting_reward("main")
        out = two_stage_select(self.codes, surrogate, main, 0.5)
        picked = {i for i, _ in out}
        k = math.ceil(0.5 * len(self.codes))
        assert picked == set(range(len(self.codes) - k, len(self.codes)))

    def test_duplicate_codes_cost_one_main_evaluation(self):
        codes = [self.codes[0]] * 5
        main = counting_reward("main")
        out = two_stage_select(codes, None, main, 1.0)
        assert len(out) == 5
        assert main.misses == 1

    def test_results_sorted_by_population_index(self):
        surrogate = counting_reward("surrogate", fn=lambda g: g.rows[0])
        main = counting_reward("main")
        out = two_stage_select(self.codes, surrogate, main, 0.3)
        idxs = [i for i, _ in out]
        assert idxs == sorted(idxs)

    def test_rho_main_validation(self):
        main = counting_reward("main")
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                two_stage_select(self.codes, None, main, bad)

    def test_surrogate_required_when_screening(self):
        main = counting_reward("main")
        with pytest.raises(ValueError):
            two_stage_select(self.codes, None, main, 0.5)


class TestNeedsOracle:
    @pytest.mark.parametrize("reward,rho_main,want", [
        ("nac", 1.0, False), ("nac", 0.5, True), ("plane", 1.0, True),
        ("sphere", 0.256, True), ("mbezout", 1.0, True)])
    def test_oracle_rewards_and_screening(self, reward, rho_main, want):
        assert needs_oracle(reward, rho_main) is want

    def test_default_is_no_screening(self):
        assert not needs_oracle("nac")
        assert needs_oracle("sphere")


class TestOpenRewards:
    @pytest.mark.parametrize("flags", [{"oracle": "/no/such/worker"},
                                       {"table": "/no/such/table"}])
    def test_nac_without_screening_starts_no_worker(self, flags):
        with open_rewards("nac", **flags) as (main, surrogate):
            assert surrogate is None
            assert main.value(canonical_code(Graph.complete(3))) == 0

    def test_nac_guard_is_forwarded(self):
        from rigidsearch.rigidity import GuardError

        with open_rewards("nac", nac_guard=3) as (main, _):
            with pytest.raises(GuardError):
                main.value(canonical_code(Graph.complete(4)))

    def test_oracle_reward_queries_the_table(self):
        with open_rewards("sphere", table=bundled_stub_table()) as (main, surrogate):
            assert surrogate is None
            assert main.value(canonical_code(decode_int(206970129631, 10))) == 1536

    def test_screening_adds_the_mbezout_surrogate(self):
        with open_rewards("nac", 0.5, table=bundled_stub_table(), procs=2) as (main, surrogate):
            assert main.name == "nac"
            assert surrogate.name == "mbezout"
            assert surrogate.value(canonical_code(decode_int(206970129631, 10))) == 1536

    @pytest.mark.parametrize("reward,rho_main", [("plane", 1.0), ("nac", 0.5)])
    def test_missing_oracle_is_config_error(self, reward, rho_main):
        with pytest.raises(ConfigError, match="needs --oracle or --oracle-table"):
            with open_rewards(reward, rho_main):
                pytest.fail("the block must not run")
