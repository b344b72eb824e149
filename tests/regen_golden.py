"""Regenerate the golden files under tests/data/golden/.

    PYTHONPATH=src python tests/regen_golden.py

The `--help` files pin the command line.  argparse wraps help to the
terminal width, so every one is made with COLUMNS=80.

The run files pin what a seeded search and a transfer evaluation compute:
`search --reward nac --n 10 --m 200 --generations 3 --early-stop 0 --seed 0`
with each policy (`generations.csv` without `seconds`, `best.txt`, `config`
without `out`, and a SHA-256 of every checkpoint array), then
`transfer-eval` of the GIN run's last checkpoint (stdout and the histogram
CSV).

Two entropy settings pin that Eq. 5 alone covers the paper's ablations:
`search --reward nac --n 9 --m 150 --generations 3 --early-stop 0 --seed 3`
with each policy, once with `--alpha 0 --eta0 0.5` (eta held at 0.5,
`search-eta-constant*/`) and once with `--eta0 0` (no entropy term,
`search-eta-off*/`).  These files were made by the former `--schedule
constant --eta0 0.5` and `--schedule none`, so they show that the two
settings compute what those schedules did, float for float.  They hold
`generations.csv` without `seconds`, `best.txt` and the array digests; the
`config` files of the two forms differ.

`search-oracle/` pins an oracle-screened search: `search --reward sphere
--n 8 --m 100 --generations 3 --early-stop 0 --rho-main 0.256 --seed 1`
against a test-local worker whose answers are a fixed function of the
graph code, with `config` also without its `oracle` and `oracle_procs`
lines.  The files are made with one worker; tests/test_golden_runs.py checks
that two workers give the same files.

The certificate files pin what the verification commands print:
`verify --checks rigid,nac,structure,peel,aut` on every bundled certificate
(`verify/`), `verify --checks structure,oracle --oracle-table <bundled stub
table>` on the sphere records (`verify-oracle/`), and `impact` of the
13-vertex NAC record with `--kinds zero` and `both` and of an n = 10 graph
(stdout and the `--out` CSV, `impact/`).

The runs are fresh interpreters with one BLAS thread.  The checkpoint
digests depend on float64 BLAS results; they were made on x86 with OpenBLAS
and one thread.

A golden file changes only with a deliberate change of the command line or
of the behaviour contract; say so in CHANGES.md when it does.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import shlex
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np

from rigidsearch import cli
from rigidsearch.oracle import bundled_stub_table

from conftest import NAC_COMPARISON, NAC_RECORDS, SPHERE_RECORDS

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "data", "golden")
SRC = os.path.join(os.path.dirname(TESTS), "src")
COMMANDS = ("search", "verify", "impact", "transfer-eval", "enumerate", "codec")
HELP_FILES = {f"help-{name}.txt": [name, "--help"] for name in COMMANDS}
HELP_FILES["help.txt"] = ["--help"]

SEARCH_ARGS = ["search", "--reward", "nac", "--n", "10", "--m", "200", "--generations", "3",
               "--early-stop", "0", "--seed", "0", "--quiet"]
POLICIES = ("gin", "flat-mlp")
TRANSFER_ARGS = ["--n", "11", "--count", "300", "--patience", "200", "--seed", "4"]
ETA_ARGS = ["search", "--reward", "nac", "--n", "9", "--m", "150", "--generations", "3",
            "--early-stop", "0", "--seed", "3", "--quiet"]
ETA_RUNS = {  # golden directory stem -> entropy flags
    "search-eta-constant": ["--alpha", "0", "--eta0", "0.5"],
    "search-eta-off": ["--eta0", "0"],
}
ORACLE_ARGS = ["search", "--reward", "sphere", "--n", "8", "--m", "100", "--generations", "3",
               "--early-stop", "0", "--rho-main", "0.256", "--seed", "1", "--quiet"]
# Answers a fixed function of the code, so every graph has an answer.  The
# surrogate (MBEZOUT) takes seven values only, so screening meets ties, and
# its tie-break decides which graphs reach the main reward.
ORACLE_WORKER = """\
import sys
for line in sys.stdin:
    invariant, n, code = line.split()
    value = 2 + int(code) % 97 if invariant == "SPHERE" else 200 - int(code) % 7
    print("OK", value, flush=True)
"""
ORACLE_DIR = "search-oracle"
RUN_DIRS = (tuple(f"search-{p}" for p in POLICIES) + ("transfer-eval", ORACLE_DIR)
            + tuple(stem if p == "gin" else f"{stem}-{p}" for stem in ETA_RUNS for p in POLICIES))
CERTIFICATE_DIRS = ("verify", "verify-oracle", "impact")
VERIFY_CHECKS = "rigid,nac,structure,peel,aut"
IMPACT_RUNS = {  # file stem -> impact arguments
    "n13-zero": [str(NAC_RECORDS[13][0]), "--n", "13", "--kinds", "zero"],
    "n13-both": [str(NAC_RECORDS[13][0]), "--n", "13", "--kinds", "both"],
    "n10": ["206970129631", "--n", "10"],
}


def _certificates() -> dict[str, tuple[int, int]]:
    """Golden file stem -> (n, code) of every bundled certificate."""
    certs = {f"{family}-{n}": (n, code)
             for family, records in (("record", NAC_RECORDS), ("comparison", NAC_COMPARISON))
             for n, (code, _) in records.items()}
    certs.update((f"sphere{i}-{n}", (n, code))
                 for i, (n, code, _) in enumerate(SPHERE_RECORDS, start=1))
    return certs


def help_text(argv: list[str]) -> str:
    """What `rigidsearch *argv` prints on an 80-column terminal."""
    buf = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(buf), \
            contextlib.suppress(SystemExit):
        cli.main(argv)
    return buf.getvalue()


def _cli(cwd: str, argv: list[str]) -> str:
    """stdout of `rigidsearch *argv` in a fresh interpreter with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "rigidsearch.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"rigidsearch {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _drop_column(text: str, name: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    j = rows[0].index(name)
    return "".join(",".join(r[:j] + r[j + 1:]) + "\n" for r in rows)


def _array_digests(run: str) -> str:
    """One `file array dtype shape sha256` line per array of every checkpoint."""
    lines = []
    for name in sorted(f for f in os.listdir(run) if f.startswith("checkpoint-")):
        with np.load(os.path.join(run, name)) as data:
            for key in sorted(data.files):
                arr = np.ascontiguousarray(data[key])
                digest = hashlib.sha256(arr.tobytes()).hexdigest()
                lines.append(f"{name} {key} {arr.dtype} {list(arr.shape)} {digest}\n")
    return "".join(lines)


def _search(cwd: str, run: str, argv: list[str], config_drop=None) -> dict[str, str]:
    """Run `rigidsearch *argv --out run` and return its `generations.csv`
    without `seconds`, `best.txt`, the array digests and, unless
    `config_drop` is None, `config` without the keys it names."""
    _cli(cwd, argv + ["--out", run])
    files = {
        "generations.csv": _drop_column(_read(os.path.join(run, "generations.csv")), "seconds"),
        "best.txt": _read(os.path.join(run, "best.txt")),
        "arrays.sha256": _array_digests(run),
    }
    if config_drop is not None:
        files["config"] = "".join(line for line in _read(os.path.join(run, "config"))
                                  .splitlines(keepends=True)
                                  if line.split(":", 1)[0] not in config_drop)
    return files


def oracle_search_outputs(procs: int) -> dict[str, str]:
    """{file name: contents} of the oracle-screened search with `procs` workers."""
    with tempfile.TemporaryDirectory() as tmp:
        worker = os.path.join(tmp, "worker.py")
        with open(worker, "w", encoding="utf-8") as fh:
            fh.write(ORACLE_WORKER)
        oracle = shlex.join([sys.executable, worker])
        return _search(tmp, os.path.join(tmp, "run"),
                       ORACLE_ARGS + ["--oracle", oracle, "--oracle-procs", str(procs)],
                       config_drop=("out", "oracle", "oracle_procs"))


def run_outputs() -> dict[str, dict[str, str]]:
    """Golden run directory name -> {file name: contents}."""
    out: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for policy in POLICIES:
            out[f"search-{policy}"] = _search(tmp, os.path.join(tmp, policy),
                                              SEARCH_ARGS + ["--policy", policy],
                                              config_drop=("out",))
            for stem, flags in ETA_RUNS.items():
                name = stem if policy == "gin" else f"{stem}-{policy}"
                out[name] = _search(tmp, os.path.join(tmp, name),
                                    ETA_ARGS + flags + ["--policy", policy])
        weights = os.path.join(tmp, "gin", "checkpoint-3")
        stdout = _cli(tmp, ["transfer-eval", weights, *TRANSFER_ARGS, "--hist-out", "hist.csv"])
        out["transfer-eval"] = {"stdout.txt": stdout,
                                "hist.csv": _read(os.path.join(tmp, "hist.csv"))}
    out[ORACLE_DIR] = oracle_search_outputs(1)
    return out


def certificate_outputs() -> dict[str, dict[str, str]]:
    """Golden directory name -> {file name: contents} for `verify` and `impact`."""
    out: dict[str, dict[str, str]] = {name: {} for name in CERTIFICATE_DIRS}
    table = bundled_stub_table()
    with tempfile.TemporaryDirectory() as tmp:
        for stem, (n, code) in _certificates().items():
            verify = ["verify", str(code), "--n", str(n), "--checks"]
            out["verify"][f"{stem}.txt"] = _cli(tmp, verify + [VERIFY_CHECKS])
            if stem.startswith("sphere"):
                out["verify-oracle"][f"{stem}.txt"] = _cli(
                    tmp, verify + ["structure,oracle", "--oracle-table", table])
        for stem, args in IMPACT_RUNS.items():
            out["impact"][f"{stem}.txt"] = _cli(tmp, ["impact", *args, "--out", "children.csv"])
            out["impact"][f"{stem}.csv"] = _read(os.path.join(tmp, "children.csv"))
    return out


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {os.path.relpath(path, GOLDEN)}")


def main() -> int:
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in HELP_FILES.items():
        _write(os.path.join(GOLDEN, name), help_text(argv))
    for run, files in {**run_outputs(), **certificate_outputs()}.items():
        os.makedirs(os.path.join(GOLDEN, run), exist_ok=True)
        for name, text in files.items():
            _write(os.path.join(GOLDEN, run, name), text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
