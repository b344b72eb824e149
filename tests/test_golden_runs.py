"""Seeded `search` runs with both policies (also with eta held constant and
with no entropy term), an oracle-screened search with one and with two
workers, a `transfer-eval` of the GIN run's weights, and `verify` and
`impact` on the bundled certificates, file by file against the committed
outputs under tests/data/golden/ (see tests/regen_golden.py for the
commands)."""

import os

import pytest

from regen_golden import (CERTIFICATE_DIRS, GOLDEN, ORACLE_DIR, RUN_DIRS, certificate_outputs,
                          oracle_search_outputs, run_outputs)


def _golden_files(dirs):
    return sorted((d, name) for d in dirs for name in os.listdir(os.path.join(GOLDEN, d)))


GOLDEN_FILES = _golden_files(RUN_DIRS)
ORACLE_FILES = sorted(os.listdir(os.path.join(GOLDEN, ORACLE_DIR)))
CERTIFICATE_FILES = _golden_files(CERTIFICATE_DIRS)
REGENERATE = ("If the behaviour changed on purpose, regenerate the files with "
              "`PYTHONPATH=src python tests/regen_golden.py` and say so in CHANGES.md.")


def _golden(run: str, name: str) -> str:
    with open(os.path.join(GOLDEN, run, name), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def outputs():
    return run_outputs()


@pytest.fixture(scope="module")
def two_oracle_workers():
    return oracle_search_outputs(2)


@pytest.fixture(scope="module")
def certificates():
    return certificate_outputs()


def test_every_output_has_a_golden_file(outputs, certificates):
    assert sorted((run, name) for run, files in outputs.items() for name in files) == GOLDEN_FILES
    assert sorted((run, name) for run, files in certificates.items()
                  for name in files) == CERTIFICATE_FILES


@pytest.mark.parametrize("run,name", GOLDEN_FILES, ids=[f"{r}/{n}" for r, n in GOLDEN_FILES])
def test_run_matches_golden_file(outputs, run, name):
    assert outputs[run][name] == _golden(run, name), (
        f"tests/data/golden/{run}/{name} differs from this run. The checkpoint digests and "
        "every value downstream of training depend on float64 BLAS results, and the files "
        "were made on x86 with OpenBLAS and one thread; another BLAS or CPU may differ "
        "without a fault. " + REGENERATE)


@pytest.mark.parametrize("name", ORACLE_FILES)
def test_two_oracle_workers_match_golden_file(two_oracle_workers, name):
    assert two_oracle_workers[name] == _golden(ORACLE_DIR, name), (
        f"tests/data/golden/{ORACLE_DIR}/{name} was made with one oracle worker, and the "
        "same search with two workers differs from it. --oracle-procs must not change "
        "what a search computes.")


@pytest.mark.parametrize("run,name", CERTIFICATE_FILES,
                         ids=[f"{r}/{n}" for r, n in CERTIFICATE_FILES])
def test_certificate_output_matches_golden_file(certificates, run, name):
    assert certificates[run][name] == _golden(run, name), (
        f"tests/data/golden/{run}/{name} differs from this run. These outputs use exact "
        "integer arithmetic only, so they must match on every platform. " + REGENERATE)
