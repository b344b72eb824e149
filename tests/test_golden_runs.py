"""Seeded `search` runs with both policies and a `transfer-eval` of the GIN
run's weights, file by file against the committed outputs under
tests/data/golden/ (see tests/regen_golden.py for the commands)."""

import os

import pytest

from regen_golden import GOLDEN, RUN_DIRS, run_outputs

GOLDEN_FILES = sorted((run, name) for run in RUN_DIRS
                      for name in os.listdir(os.path.join(GOLDEN, run)))


@pytest.fixture(scope="module")
def outputs():
    return run_outputs()


def test_every_output_has_a_golden_file(outputs):
    assert sorted((run, name) for run, files in outputs.items() for name in files) == GOLDEN_FILES


@pytest.mark.parametrize("run,name", GOLDEN_FILES, ids=[f"{r}/{n}" for r, n in GOLDEN_FILES])
def test_run_matches_golden_file(outputs, run, name):
    with open(os.path.join(GOLDEN, run, name), encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert outputs[run][name] == want, (
        f"tests/data/golden/{run}/{name} differs from this run. The checkpoint digests and "
        "every value downstream of training depend on float64 BLAS results, and the files "
        "were made on x86 with OpenBLAS and one thread; another BLAS or CPU may differ "
        "without a fault. If the behaviour changed on purpose, regenerate the files with "
        "`PYTHONPATH=src python tests/regen_golden.py` and say so in CHANGES.md.")
