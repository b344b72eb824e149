"""The verification commands start without numpy, yaml or fractions: only
`search` and `transfer-eval` load numpy, and only after the CLI has capped
the BLAS threads; only `enumerate --mode zero-only` loads fractions (and with
it decimal).  Each command runs in a fresh interpreter, which reports the
modules it loaded and the BLAS setting numpy found when it was imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rigidsearch.cli
from rigidsearch.oracle import bundled_stub_table

from conftest import NAC_RECORDS, SPHERE_RECORDS

SRC = str(Path(rigidsearch.cli.__file__).resolve().parents[1])
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs `rigidsearch argv...` (or only imports the CLI, given no argv) and
# prints, as the last line of stderr, which of numpy, yaml and fractions it
# loaded and the OPENBLAS_NUM_THREADS value at the moment numpy was first
# imported.
PROBE = """
import json, os, sys

numpy_saw = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not numpy_saw:
            numpy_saw.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Watch())
from rigidsearch.cli import main

rc = 0
if sys.argv[1:]:
    try:
        rc = main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
loaded = sorted({"numpy", "yaml", "fractions"} & set(sys.modules))
print(json.dumps({"loaded": loaded, "numpy_saw": numpy_saw}), file=sys.stderr)
sys.exit(rc)
"""


def probe(*argv):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stderr.splitlines()[-1])


RECORD_13 = NAC_RECORDS[13][0]
SPHERE_15 = SPHERE_RECORDS[0][1]

VERIFICATION = {
    "import": (),
    "verify": ("verify", RECORD_13, "--n", 13, "--checks", "rigid,nac,structure,peel,aut"),
    "verify-oracle": ("verify", SPHERE_15, "--n", 15, "--checks", "oracle",
                      "--oracle-table", bundled_stub_table()),
    "impact": ("impact", RECORD_13, "--n", 13, "--kinds", "zero", "--out", "{tmp}/impact.csv"),
    "codec": ("codec", "decode", RECORD_13, "--n", 13),
    "enumerate": ("enumerate", 6),
    "help": ("--help",),
    "search-help": ("search", "--help"),
    "transfer-eval-help": ("transfer-eval", "--help"),
}


@pytest.mark.parametrize("argv", VERIFICATION.values(), ids=VERIFICATION)
def test_verification_commands_load_neither_numpy_nor_yaml(argv, tmp_path):
    argv = [str(a).format(tmp=tmp_path) for a in argv]
    assert probe(*argv) == {"loaded": [], "numpy_saw": []}


def test_search_loads_numpy_after_capping_blas_threads():
    got = probe("search", "--n", 5, "--m", 20, "--generations", 1, "--quiet")
    assert "numpy" in got["loaded"]
    assert got["numpy_saw"] == ["1"]
