"""Batch lookups: `CachedReward.values` scores its misses in one batch, and an
`OraclePool` keeps one request in flight per worker.  No test here bounds a
time; concurrency shows as a worker that answers only while another one is
busy too."""

import shlex
import sys
import threading
import time

import pytest

from rigidsearch.graphs import encode_int
from rigidsearch.oracle import (OracleClient, OracleDomainError, OraclePool,
                                OracleTransportError, bundled_stub_table,
                                stub_oracle_command)
from rigidsearch.rewards import CachedReward, make_reward, two_stage_select
from rigidsearch.rigidity import enumerate_minimally_rigid

# Answers a request only once another worker process has one too: each
# request leaves a marker named after this pid in DIR, then waits up to 10 s
# for a marker of another pid.  The value is 1 + code % 1000.
# Usage: barrier_worker.py DIR
BARRIER_WORKER = """\
import os, sys, time
marks = sys.argv[1]
for line in sys.stdin:
    open(os.path.join(marks, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if set(os.listdir(marks)) - {str(os.getpid())}:
            code = int(line.split()[2])
            sys.stdout.write(f"OK {1 + code % 1000}\\n")
            break
        time.sleep(0.01)
    else:
        sys.stdout.write("ERR no other worker busy\\n")
    sys.stdout.flush()
"""


def command(script, *args):
    return " ".join(shlex.quote(str(a)) for a in (sys.executable, script, *args))


@pytest.fixture
def codes6():
    return sorted(enumerate_minimally_rigid(6))


class TestConcurrentDispatch:
    def test_two_workers_serve_one_batch_at_once(self, tmp_path, codes6):
        script, marks = tmp_path / "barrier_worker.py", tmp_path / "marks"
        script.write_text(BARRIER_WORKER)
        marks.mkdir()
        with OraclePool(command(script, marks), 2) as pool:
            reward = make_reward("sphere", pool)
            codes = codes6[:4]
            assert reward.values(codes) == [1 + cc.code % 1000 for cc in codes]
            assert reward.misses == 4
            assert all(c.request_count for c in pool.clients)

    def test_pool_map_runs_one_thread_per_client(self):
        both = threading.Barrier(2, timeout=10)

        def square_with_another_call_running(x):
            both.wait()
            return x * x

        with OraclePool(stub_oracle_command(bundled_stub_table()), 2) as pool:
            assert pool.map(square_with_another_call_running, range(6)) == [
                x * x for x in range(6)]

    def test_client_map_is_in_order(self):
        with OracleClient(stub_oracle_command(bundled_stub_table())) as client:
            seen = []
            assert client.map(lambda x: seen.append(x) or -x, [3, 1, 2]) == [-3, -1, -2]
            assert seen == [3, 1, 2]


class TestRequestAccounting:
    @pytest.mark.parametrize("procs", [1, 2, 3])
    def test_every_miss_is_one_pool_query(self, monkeypatch, tmp_path, codes6, procs):
        table = tmp_path / "table.txt"
        table.write_text("".join(
            f"6 {cc.code} sphere {cc.code % 97}\n6 {cc.code} mbezout {cc.code % 89}\n"
            for cc in codes6))
        calls = []
        query = OraclePool.query

        def counted(self, invariant, n, code):
            calls.append((invariant, code))
            return query(self, invariant, n, code)

        monkeypatch.setattr(OraclePool, "query", counted)
        population = codes6 + codes6[::2] + codes6[:3]
        with OraclePool(stub_oracle_command(str(table)), procs) as pool:
            surrogate = make_reward("mbezout", pool)
            main = make_reward("sphere", pool)
            selected = two_stage_select(population, surrogate, main, 0.5)
            assert len(calls) == surrogate.misses + main.misses == pool.request_count
            assert surrogate.misses == len(codes6)
            assert main.misses == len({population[i] for i, _ in selected})
            assert [v for _, v in selected] == [population[i].code % 97 for i, _ in selected]


class TestBatchErrors:
    def test_earliest_failure_in_input_order_raises(self):
        def fn(x):
            if x == 3:
                time.sleep(0.2)       # finishes after item 5 has failed
                raise KeyError(3)
            if x == 5:
                raise KeyError(5)
            return x

        with OraclePool(stub_oracle_command(bundled_stub_table()), 2) as pool:
            with pytest.raises(KeyError) as info:
                pool.map(fn, range(20))
        assert info.value.args == (3,)

    def test_items_after_a_failure_do_not_start(self):
        started = []

        def fn(x):
            started.append(x)
            if x == 0:
                raise KeyError(0)
            time.sleep(0.01)
            return x

        with OraclePool(stub_oracle_command(bundled_stub_table()), 2) as pool:
            with pytest.raises(KeyError):
                pool.map(fn, range(50))
        assert len(started) < 50

    def test_unknown_graph_is_domain_error(self, codes6):
        with OraclePool(stub_oracle_command(bundled_stub_table()), 2) as pool:
            reward = make_reward("sphere", pool)
            with pytest.raises(OracleDomainError):
                reward.values(codes6[:4])

    def test_dead_worker_is_transport_error(self, codes6):
        with OraclePool([sys.executable, "-c", "pass"], 2) as pool:
            reward = make_reward("sphere", pool)
            with pytest.raises(OracleTransportError):
                reward.values(codes6[:4])


class TestCachedValues:
    def test_values_in_input_order_with_each_miss_scored_once(self, codes6):
        scored = []
        reward = CachedReward("probe", lambda g: scored.append(encode_int(g)) or g.rows[-1])
        codes = [codes6[2], codes6[0], codes6[2], codes6[1], codes6[0]]
        first = reward.values(codes)
        assert scored == [codes6[i].code for i in (2, 0, 1)]
        assert reward.misses == 3
        assert reward.values(codes[::-1]) == first[::-1]
        assert reward.misses == 3 and len(scored) == 3
        assert [reward.value(cc) for cc in codes] == first

    def test_batch_gets_only_the_misses(self, codes6):
        batches = []

        def batch(fn, items):
            batches.append(len(items))
            return [fn(g) for g in items]

        reward = CachedReward("probe", lambda g: g.edge_count, batch)
        reward.values(codes6[:3])
        reward.values(codes6[:5] + codes6[:5])
        reward.values(codes6[:5])
        assert batches == [3, 2, 0]
