"""The searches keep freed heap memory in the process: `cem.run` and
`cem.deploy_eval` tell glibc's allocator, once per process, not to hand
freed pages back to the kernel, so the policy's short-lived arrays stop
page-faulting.  Where there is no glibc `mallopt` the setting is skipped and
the search runs as before."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from rigidsearch import cem
from rigidsearch.cem import CemConfig, deploy_eval, run
from rigidsearch.policy import init_params
from rigidsearch.rewards import make_reward

SRC = str(Path(cem.__file__).resolve().parents[1])

# Runs `rigidsearch search ...` in this interpreter and prints, as the last
# line of stderr, the minor page faults taken inside `cem.run`.
PROBE = """
import json, resource, sys

from rigidsearch import cem
from rigidsearch.cli import main

faults = []
original = cem.run

def run(*args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        return original(*args, **kwargs)
    finally:
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

cem.run = run
rc = main(sys.argv[1:])
print(json.dumps({"faults": faults}), file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the setting and the fault counter are glibc Linux's")
def test_search_stops_faulting_in_freed_pages(tmp_path):
    # A count, not a timing: without the setting this search takes 25k-50k
    # minor faults, nearly all of them the policy's freed arrays coming back.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run(
        [sys.executable, "-c", PROBE, "search", "--reward", "nac", "--n", "8", "--m", "200",
         "--generations", "1", "--early-stop", "0", "--seed", "0", "--quiet",
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    (faults,) = json.loads(res.stderr.splitlines()[-1])["faults"]
    assert faults < 10_000


class FakeLibc:
    """A C library handle that records mallopt calls, or has no mallopt."""

    def __init__(self, calls, glibc=True, mallopt=True):
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.36"
        if mallopt:
            self.mallopt = lambda param, value: calls.append((param, value)) or 1


@pytest.fixture
def libc(monkeypatch):
    """Install a fake C library for the helper; the real setting is made
    again by the next run after the test."""
    opened, calls = [], []

    def install(**kw):
        def cdll(name):
            opened.append(name)
            return FakeLibc(calls, **kw)

        monkeypatch.setattr(cem.ctypes, "CDLL", cdll)
        cem._keep_freed_heap.cache_clear()
        return opened, calls

    yield install
    cem._keep_freed_heap.cache_clear()


def small_cfg():
    return CemConfig(reward="nac", n=6, m=40, generations=2, seed=0, early_stop=0)


def test_the_setting_is_made_once_per_process(libc):
    opened, calls = libc()
    run(small_cfg())
    run(small_cfg())
    deploy_eval(init_params("gin", 6, seed=0), 6, make_reward("nac"), count=5, patience=5)
    assert opened == [None]
    assert calls == [(cem._M_MMAP_THRESHOLD, 32 << 20), (cem._M_TRIM_THRESHOLD, 64 << 20)]


def test_deploy_eval_makes_the_setting(libc):
    opened, calls = libc()
    deploy_eval(init_params("gin", 6, seed=0), 6, make_reward("nac"), count=5, patience=5)
    assert opened == [None] and len(calls) == 2


@pytest.mark.parametrize("kw", [dict(mallopt=False), dict(glibc=False)],
                         ids=["no-mallopt", "not-glibc"])
def test_search_runs_without_the_setting(libc, kw):
    want = run(small_cfg())
    opened, calls = libc(**kw)
    got = run(small_cfg())
    assert opened == [None] and calls == []
    assert (got.best_code, got.best_value) == (want.best_code, want.best_value)
    assert [(s.t, s.best, s.cutoff, s.new_noniso, s.evals) for s in got.stats] == \
        [(s.t, s.best, s.cutoff, s.new_noniso, s.evals) for s in want.stats]


def test_search_runs_without_a_c_library_handle(libc, monkeypatch):
    libc()

    def no_handle(name):
        raise OSError("no C library")

    monkeypatch.setattr(cem.ctypes, "CDLL", no_handle)
    assert run(small_cfg()).best_value > 0
