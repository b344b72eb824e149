import io
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from rigidsearch import stub_oracle
from rigidsearch.graphs import Graph, decode_int
from rigidsearch.oracle import (OracleClient, OracleDomainError, OraclePool,
                                OracleProtocolError, OracleTransportError,
                                bundled_stub_table, open_oracle, oracle_query,
                                stub_oracle_command)
from rigidsearch.stub_oracle import load_table, serve

from conftest import SPHERE_RECORDS


@pytest.fixture
def stub_client():
    with OracleClient(stub_oracle_command(bundled_stub_table())) as client:
        yield client


def parse_bundled_table():
    return load_table(bundled_stub_table())


class TestStubTable:
    def test_loads_and_keys_are_typed(self):
        table = parse_bundled_table()
        assert table[(3, 7, "plane")] == 2
        for n, code, value in SPHERE_RECORDS:
            assert table[(n, code, "sphere")] == value

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("3 7 plane\n")
        with pytest.raises(ValueError):
            load_table(str(p))

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("# header\n\n3 7 plane 2\n")
        assert load_table(str(p)) == {(3, 7, "plane"): 2}

    def test_plane_at_most_sphere_on_all_pairs(self):
        table = parse_bundled_table()
        pairs = 0
        for (n, code, inv), value in table.items():
            if inv == "plane" and (n, code, "sphere") in table:
                assert value <= table[(n, code, "sphere")]
                pairs += 1
        assert pairs >= 2  # the triangle and the 10-vertex fixture


class TestClient:
    def test_known_queries(self, stub_client):
        assert oracle_query(stub_client, "plane", Graph.complete(3)) == 2
        g = decode_int(206970129631, 10)
        assert oracle_query(stub_client, "plane", g) == 880
        assert oracle_query(stub_client, "sphere", g) == 1536
        assert stub_client.request_count == 3

    def test_unknown_graph_is_domain_error(self, stub_client):
        with pytest.raises(OracleDomainError):
            oracle_query(stub_client, "plane", Graph.complete(4))

    def test_unknown_invariant_rejected_locally(self, stub_client):
        with pytest.raises(ValueError):
            oracle_query(stub_client, "volume", Graph.complete(3))

    def test_sequential_queries_after_error(self, stub_client):
        with pytest.raises(OracleDomainError):
            oracle_query(stub_client, "sphere", Graph.complete(4))
        assert oracle_query(stub_client, "sphere", Graph.complete(3)) == 2

    def test_transport_error_on_dead_worker(self):
        client = OracleClient([sys.executable, "-c", "pass"])
        with pytest.raises(OracleTransportError):
            oracle_query(client, "plane", Graph.complete(3))
        client.close()

    def test_protocol_error_on_garbage_reply(self):
        prog = "import sys\n" \
               "for line in sys.stdin:\n" \
               "    print('WAT 12'); sys.stdout.flush()\n"
        client = OracleClient([sys.executable, "-c", prog])
        with pytest.raises(OracleProtocolError):
            oracle_query(client, "plane", Graph.complete(3))
        client.close()

    def test_launch_failure(self):
        with pytest.raises(OracleTransportError):
            OracleClient("/no/such/binary-xyz")

    def test_context_manager_closes(self):
        with OracleClient(stub_oracle_command(bundled_stub_table())) as c:
            oracle_query(c, "plane", Graph.complete(3))
        with pytest.raises(OracleTransportError):
            oracle_query(c, "plane", Graph.complete(3))


class TestStubLaunch:
    def test_stub_needs_neither_site_nor_the_package_path(self, tmp_path, monkeypatch):
        command = stub_oracle_command(bundled_stub_table())
        assert command[:2] == [sys.executable, "-S"]
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PYTHONPATH", raising=False)
        with OracleClient(command) as client:
            assert oracle_query(client, "plane", Graph.complete(3)) == 2

    def test_stub_runs_as_a_module(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(stub_oracle.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "rigidsearch.stub_oracle", bundled_stub_table()],
            input="PLANE 3 7\n", capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout) == (0, "OK 2\n")


class TestPool:
    def test_round_robin_and_aggregate_count(self):
        pool = OraclePool(stub_oracle_command(bundled_stub_table()), 2)
        try:
            for _ in range(4):
                assert oracle_query(pool, "plane", Graph.complete(3)) == 2
            assert pool.request_count == 4
            counts = [c.request_count for c in pool.clients]
            assert counts == [2, 2]
        finally:
            pool.close()

    def test_close_hangs_up_on_every_worker_before_waiting(self, monkeypatch):
        from rigidsearch import oracle

        events = []

        class FakeStdin:
            def __init__(self, i, write_end):
                self.i, self.write_end = i, write_end

            def close(self):
                events.append(("close", self.i))
                if self.write_end is not None:  # the worker exits: its output ends
                    os.close(self.write_end)
                    self.write_end = None

        class FakeProc:
            def __init__(self, *args, **kwargs):
                self.i = len([e for e in events if e[0] == "start"])
                events.append(("start", self.i))
                read_end, write_end = os.pipe()
                self.stdout = open(read_end, "rb")
                self.stdin = FakeStdin(self.i, write_end)

            def wait(self, timeout=None):
                events.append(("wait", self.i))
                return 0

        monkeypatch.setattr(oracle.subprocess, "Popen", FakeProc)
        pool = OraclePool("fake-worker", 3)
        pool.close()
        for c in pool.clients:
            c._proc.stdout.close()
        first_wait = events.index(("wait", 0))
        assert set(events[:first_wait]) == {(e, i) for e in ("start", "close") for i in range(3)}
        assert [e for e in events if e[0] == "wait"] == [("wait", 0), ("wait", 1), ("wait", 2)]

    def test_close_kills_a_worker_that_does_not_exit(self, monkeypatch):
        from rigidsearch import oracle

        events = []
        write_ends = []

        class StuckProc:  # never ends its output, never exits
            def __init__(self, *args, **kwargs):
                read_end, write_end = os.pipe()
                write_ends.append(write_end)
                self.stdin = io.StringIO()
                self.stdout = open(read_end, "rb")

            def wait(self, timeout=None):
                events.append(("wait", timeout))
                if timeout is not None:
                    raise subprocess.TimeoutExpired("fake-worker", timeout)
                return -9

            def kill(self):
                events.append(("kill",))

        monkeypatch.setattr(oracle.subprocess, "Popen", StuckProc)
        monkeypatch.setattr(oracle, "CLOSE_TIMEOUT_S", 0.05)
        pool = OraclePool("fake-worker", 2)
        pool.close()
        for c, write_end in zip(pool.clients, write_ends):
            c._proc.stdout.close()
            os.close(write_end)
        # the reap after the output wait gets only what is left of the deadline
        assert [e[0] for e in events] == ["wait", "kill", "wait"] * 2
        assert all(timeout < 0.05 for _, timeout in events[::3])
        assert events[2::3] == [("wait", None)] * 2


class TestClose:
    @pytest.mark.parametrize("prog", [
        "import sys, time\nsys.stdin.read()\ntime.sleep(60)\n",
        "import os, sys, time\nos.close(1)\nsys.stdin.read()\ntime.sleep(60)\n",
    ], ids=["output-open", "output-closed"])
    def test_a_worker_still_running_at_the_deadline_is_killed(self, monkeypatch, prog):
        from rigidsearch import oracle

        monkeypatch.setattr(oracle, "CLOSE_TIMEOUT_S", 0.3)
        client = OracleClient([sys.executable, "-c", prog])
        client.close()
        assert client._proc.returncode == -signal.SIGKILL

    def test_a_pool_kills_its_workers_at_one_shared_deadline(self, monkeypatch):
        from rigidsearch import oracle

        monkeypatch.setattr(oracle, "CLOSE_TIMEOUT_S", 1.0)
        prog = "import sys, time\nsys.stdin.read()\ntime.sleep(60)\n"
        pool = OraclePool([sys.executable, "-c", prog], 2)
        start = time.monotonic()
        pool.close()
        assert time.monotonic() - start < 1.8  # one deadline per worker takes 2 s
        assert [c._proc.returncode for c in pool.clients] == [-signal.SIGKILL] * 2

    def test_output_sent_after_the_hang_up_does_not_block_the_exit(self):
        # more than a pipe buffer holds: the worker exits only once it is read
        prog = "import sys\nsys.stdin.read()\nsys.stdout.write('x' * 1000000)\n"
        client = OracleClient([sys.executable, "-c", prog])
        client.close()
        assert client._proc.returncode == 0


class TestOpenOracle:
    def test_no_command_yields_none(self):
        with open_oracle() as oracle:
            assert oracle is None

    def test_table_yields_one_stub_client(self):
        with open_oracle(table=bundled_stub_table()) as oracle:
            assert isinstance(oracle, OracleClient)
            assert oracle.command == stub_oracle_command(bundled_stub_table())
            assert oracle_query(oracle, "plane", Graph.complete(3)) == 2

    def test_command_with_two_procs_yields_pool(self):
        with open_oracle(stub_oracle_command(bundled_stub_table()), procs=2) as oracle:
            assert isinstance(oracle, OraclePool)
            assert len(oracle.clients) == 2
            assert oracle_query(oracle, "plane", Graph.complete(3)) == 2

    @pytest.mark.parametrize("procs", [1, 2])
    def test_workers_exit_with_the_block(self, procs):
        with open_oracle(table=bundled_stub_table(), procs=procs) as oracle:
            clients = oracle.clients if procs > 1 else [oracle]
        assert all(c._proc.poll() is not None for c in clients)

    @pytest.mark.parametrize("procs", [1, 2])
    def test_workers_exit_when_the_body_raises(self, procs):
        with pytest.raises(RuntimeError):
            with open_oracle(table=bundled_stub_table(), procs=procs) as oracle:
                clients = oracle.clients if procs > 1 else [oracle]
                raise RuntimeError("body failed")
        assert all(c._proc.poll() is not None for c in clients)


class TestTableErrors:
    @pytest.mark.parametrize("line", ["x 7 plane 2", "3 y plane 2", "3 7 plane z",
                                      "3 7 plane", "3 7 plane 2 9"])
    def test_bad_line_names_path_and_line(self, tmp_path, line):
        p = tmp_path / "t.txt"
        p.write_text(f"# header\n3 7 sphere 2\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:3: ")):
            load_table(str(p))

    def test_config_error_is_one_class(self):
        from rigidsearch import cem, oracle, rewards

        assert cem.ConfigError is rewards.ConfigError is oracle.ConfigError
        assert issubclass(oracle.ConfigError, ValueError)

    def test_missing_table_is_config_error(self, tmp_path):
        from rigidsearch.oracle import ConfigError

        with pytest.raises(ConfigError, match="none.txt"):
            with open_oracle(table=str(tmp_path / "none.txt")):
                pytest.fail("the block must not run")

    @pytest.mark.parametrize("procs", [1, 2])
    def test_malformed_table_spawns_no_worker(self, tmp_path, monkeypatch, procs):
        from rigidsearch import oracle
        from rigidsearch.oracle import ConfigError

        spawned = []
        monkeypatch.setattr(oracle.subprocess, "Popen", lambda *a, **k: spawned.append(a))
        p = tmp_path / "t.txt"
        p.write_text("3 7 plane x\n")
        with pytest.raises(ConfigError, match=re.escape(f"{p}:1: ")):
            with open_oracle(table=str(p), procs=procs):
                pytest.fail("the block must not run")
        assert spawned == []


class TestServe:
    def test_replies_and_malformed_requests(self):
        out = io.StringIO()
        requests = "PLANE 3\n\nPLANE x 7\nPLANE 3 7 9\nPLANE 3 7\nSPHERE 3 7\n"
        serve({(3, 7, "plane"): 2}, io.StringIO(requests), out)
        assert out.getvalue().splitlines() == [
            "ERR malformed request", "ERR malformed request", "ERR malformed request",
            "OK 2", "ERR unknown graph or invariant"]
