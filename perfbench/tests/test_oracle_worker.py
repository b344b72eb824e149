"""Tests of the benchmark's oracle worker.

    python3 -m pytest perfbench/tests -q
"""

import io
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)

import oracle_worker  # noqa: E402

WORKER = [sys.executable, os.path.join(BENCH, "oracle_worker.py")]
FIXTURE = (10, 206970129631)


def test_ok_line_carries_the_value_of_each_invariant():
    n, code = FIXTURE
    want = oracle_worker.values(n, code)
    for invariant in ("plane", "sphere", "mbezout"):
        assert oracle_worker.reply(f"{invariant.upper()} {n} {code}") == f"OK {want[invariant]}"
        assert oracle_worker.reply(f"{invariant} {n} {code}") == f"OK {want[invariant]}"


def test_values_are_ordered_and_deterministic():
    for code in range(0, 1 << 15, 37):
        v = oracle_worker.values(6, code)
        assert v["mbezout"] >= v["sphere"] >= v["plane"] >= 2
        assert v == oracle_worker.values(6, code)
    assert oracle_worker.values(6, 7) != oracle_worker.values(7, 7)


@pytest.mark.parametrize("line", [
    "SPHERE 10",                       # too few fields
    "SPHERE 10 7 extra",               # too many fields
    "SPHERE ten 7",                    # n not an integer
    "SPHERE 10 0x7",                   # code not a decimal integer
])
def test_malformed_request_gets_err(line):
    assert oracle_worker.reply(line) == "ERR malformed request"


def test_domain_errors_get_err():
    assert oracle_worker.reply("VOLUME 10 7").startswith("ERR unknown invariant")
    assert oracle_worker.reply("PLANE 3 8").startswith("ERR code does not fit")
    assert oracle_worker.reply("PLANE 3 -1").startswith("ERR code does not fit")
    assert oracle_worker.reply("PLANE 0 0").startswith("ERR code does not fit")


def test_serve_answers_one_line_per_request_and_counts():
    stdin = io.StringIO("PLANE 3 7\n\nbogus\nSPHERE 3 7\n")
    stdout = io.StringIO()
    stats = oracle_worker.serve(stdin, stdout, service_s=0)
    lines = stdout.getvalue().splitlines()
    v = oracle_worker.values(3, 7)
    assert lines == [f"OK {v['plane']}", "ERR malformed request", f"OK {v['sphere']}"]
    assert stats == {"requests": 3, "errors": 1}


def test_worker_process_is_deterministic_and_writes_stats(tmp_path):
    requests = "SPHERE 10 206970129631\nMBEZOUT 3 7\nPLANE 3\n"
    outs = []
    for _ in range(2):
        proc = subprocess.run(WORKER + ["--stats-dir", str(tmp_path)], input=requests,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[2] == "ERR malformed request"
    stats = sorted(p.read_text() for p in tmp_path.iterdir())
    assert len(stats) == 2 and all('"requests": 3' in s and '"errors": 1' in s for s in stats)


def test_rigidsearch_client_speaks_to_the_worker():
    if not os.path.isdir(os.path.join(SRC, "rigidsearch")):
        pytest.skip("rigidsearch sources not found")
    sys.path.insert(0, SRC)
    from rigidsearch.oracle import OracleDomainError, OraclePool

    n, code = FIXTURE
    with OraclePool(WORKER, procs=2) as pool:
        for invariant in ("plane", "sphere", "mbezout"):
            assert pool.query(invariant, n, code) == oracle_worker.values(n, code)[invariant]
        with pytest.raises(OracleDomainError):
            pool.query("sphere", 3, 1 << 40)
