"""The one start path of a search: fresh, --init-weights and --resume runs
share one state rule and one run-directory rule."""

import csv
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import rigidsearch.cli
from rigidsearch.cli import main
from rigidsearch.policy import init_params, load_params, save_params
from rigidsearch.rigidity import enumerate_minimally_rigid

NAC = ("search", "--reward", "nac", "--m", "40", "--early-stop", "0",
       "--seed", "1", "--quiet")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(rigidsearch.cli.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def rows(out_dir, drop=("seconds", "evals")):
    with open(Path(out_dir) / "generations.csv", newline="") as fh:
        return [{k: v for k, v in row.items() if k not in drop}
                for row in csv.DictReader(fh)]


def checkpoint_arrays(path):
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def assert_same_checkpoint(a, b):
    x, y = checkpoint_arrays(a), checkpoint_arrays(b)
    assert sorted(x) == sorted(y)
    for key in x:
        assert np.array_equal(x[key], y[key]), key


def run_files(out_dir):
    return sorted(os.listdir(out_dir))


class TestStartRule:
    def test_init_weights_of_another_policy_is_usage_error(self, capsys, tmp_path):
        weights = tmp_path / "w.npz"
        save_params(init_params("flat-mlp", 6), str(weights))
        code, _, err = run_cli(capsys, *NAC, "--n", "6", "--generations", "1",
                               "--init-weights", weights)
        assert code == 2
        assert "'flat-mlp'" in err and "'gin'" in err

    def test_smaller_init_weights_are_extended(self, capsys, tmp_path):
        weights = tmp_path / "w.npz"
        save_params(init_params("gin", 5, seed=4), str(weights))
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, *NAC, "--n", "7", "--generations", "1",
                               "--init-weights", weights, "--out", out_dir)
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("best 7 ")
        assert load_params(str(out_dir / "checkpoint-1")).n_max == 7

    def test_resume_with_init_weights_is_usage_error(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run_cli(capsys, *NAC, "--n", "6", "--generations", "1", "--out", out_dir)
        code, _, err = run_cli(capsys, *NAC, "--n", "6", "--generations", "2",
                               "--resume", out_dir / "checkpoint-1",
                               "--init-weights", out_dir / "checkpoint-1")
        assert code == 2
        assert "--resume" in err and "--init-weights" in err

    def test_resume_at_another_size_is_usage_error(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run_cli(capsys, *NAC, "--n", "7", "--generations", "1", "--out", out_dir)
        code, _, err = run_cli(capsys, *NAC, "--n", "6", "--generations", "2",
                               "--resume", out_dir / "checkpoint-1")
        assert code == 2
        assert "n=7" in err and "--init-weights" in err

    @pytest.mark.parametrize("command", ["search", "transfer-eval"])
    def test_flat_mlp_weights_for_fewer_vertices_are_usage_error(self, capsys, tmp_path,
                                                                 command):
        weights = tmp_path / "w.npz"
        save_params(init_params("flat-mlp", 5), str(weights))
        if command == "search":
            argv = (*NAC, "--n", "6", "--generations", "1", "--policy", "flat-mlp",
                    "--init-weights", weights)
        else:
            argv = ("transfer-eval", weights, "--n", "6", "--count", "5")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "flat-mlp" in err and "n=6" in err

    def test_resume_with_another_policy_is_usage_error(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run_cli(capsys, *NAC, "--n", "6", "--generations", "1", "--out", out_dir)
        code, _, _ = run_cli(capsys, *NAC, "--n", "6", "--generations", "2",
                             "--policy", "flat-mlp", "--resume", out_dir / "checkpoint-1")
        assert code == 2


class TestRunDirectory:
    def test_resume_into_same_out_continues_the_run(self, capsys, tmp_path):
        full, part = tmp_path / "full", tmp_path / "part"
        assert run_cli(capsys, *NAC, "--n", "7", "--generations", "4", "--out", full)[0] == 0
        assert run_cli(capsys, *NAC, "--n", "7", "--generations", "2", "--out", part)[0] == 0
        code, out, _ = run_cli(capsys, *NAC, "--n", "7", "--generations", "4",
                               "--out", part, "--resume", part / "checkpoint-2")
        assert code == 0
        assert run_files(part) == ["best.txt", "checkpoint-2", "checkpoint-3",
                                   "checkpoint-4", "config", "generations.csv"]
        assert rows(part) == rows(full)
        assert [r["t"] for r in rows(part)] == ["1", "2", "3", "4"]
        assert (part / "best.txt").read_text() == (full / "best.txt").read_text()
        assert_same_checkpoint(part / "checkpoint-4", full / "checkpoint-4")

    def test_resumed_run_stops_early_where_the_uninterrupted_run_does(self, capsys,
                                                                      tmp_path):
        # n=7, seed 2: generation 2 finds 5 new classes, below the threshold
        # m/4 = 10, but the rule applies from generation 3, which finds 5 too
        full, part = tmp_path / "full", tmp_path / "part"
        argv = (*NAC, "--early-stop", "10", "--n", "7", "--seed", "2", "--generations", "8")
        assert run_cli(capsys, *argv, "--out", full)[0] == 0
        assert [r["t"] for r in rows(full)] == ["1", "2", "3"]
        assert run_cli(capsys, *argv, "--generations", "1", "--out", part)[0] == 0
        code, _, _ = run_cli(capsys, *argv, "--out", part, "--resume", part / "checkpoint-1")
        assert code == 0
        assert rows(part) == rows(full)
        assert (part / "best.txt").read_text() == (full / "best.txt").read_text()

    def test_fresh_run_into_used_out_starts_empty(self, capsys, tmp_path):
        used, new = tmp_path / "used", tmp_path / "new"
        run_cli(capsys, *NAC, "--n", "7", "--generations", "5", "--out", used)
        argv = (*NAC, "--n", "7", "--seed", "2", "--generations", "2")
        run_cli(capsys, *argv, "--out", used)
        run_cli(capsys, *argv, "--out", new)
        assert run_files(used) == run_files(new)
        assert rows(used, drop=("seconds",)) == rows(new, drop=("seconds",))
        assert (used / "best.txt").read_text() == (new / "best.txt").read_text()


# Serves the first K replies of an oracle table, then exits like a crashed
# worker.  Usage: crashing_worker.py TABLE K
CRASHING_WORKER = """\
import sys
table = {}
for line in open(sys.argv[1]):
    n, code, inv, value = line.split()
    table[(inv, n, code)] = value
left = int(sys.argv[2])
for line in sys.stdin:
    if left == 0:
        sys.exit(0)
    left -= 1
    key = tuple(line.split())
    sys.stdout.write(f"OK {table[key[0].lower(), key[1], key[2]]}\\n")
    sys.stdout.flush()
"""


def write_sphere_table(path):
    path.write_text("".join(
        f"7 {cc.code} sphere {2 + cc.code % 97}\n7 {cc.code} mbezout {200 - cc.code % 89}\n"
        for cc in sorted(enumerate_minimally_rigid(7))))


class TestUnreadableWeights:
    """A cut, damaged, empty or non-npz weight file is a usage error at every
    entry point that reads one: exit 2, one `error:` line, and nothing
    written."""

    @pytest.fixture(scope="class")
    def broken(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("broken")
        assert main([*NAC, "--n", "6", "--generations", "1", "--out", str(root / "run")]) == 0
        whole = (root / "run" / "checkpoint-1").read_bytes()
        assert len(whole) > 5000
        (root / "cut").write_bytes(whole[:5000])
        middle = len(whole) // 2  # inside the stored data of an array
        (root / "damaged").write_bytes(whole[:middle] + bytes([whole[middle] ^ 1])
                                       + whole[middle + 1:])
        (root / "empty").write_bytes(b"")
        np.save(root / "array.npy", np.zeros(3))
        return root

    ENTRY_POINTS = {
        "transfer-eval": ("transfer-eval", "{w}", "--n", "6", "--count", "5",
                          "--hist-out", "{out}"),
        "resume": (*NAC, "--n", "6", "--generations", "2", "--resume", "{w}", "--out", "{out}"),
        "init-weights": (*NAC, "--n", "6", "--generations", "1", "--init-weights", "{w}",
                         "--out", "{out}"),
    }

    @pytest.mark.parametrize("file", ["cut", "damaged", "empty", "array.npy"])
    @pytest.mark.parametrize("argv", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, broken, argv, file):
        weights, out = broken / file, tmp_path / "out"
        code, stdout, err = run_cli(capsys, *(a.format(w=weights, out=out) for a in argv))
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {weights}: unreadable weight file: ")
        assert stdout == ""
        assert not out.exists()


class TestOracleCrash:
    def test_resume_after_crash_matches_uninterrupted_run(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("".join(
            f"7 {cc.code} sphere {2 + cc.code % 97}\n7 {cc.code} mbezout {200 - cc.code % 89}\n"
            for cc in sorted(enumerate_minimally_rigid(7))))
        script = tmp_path / "crashing_worker.py"
        script.write_text(CRASHING_WORKER)

        def worker(replies):
            return " ".join(shlex.quote(str(a)) for a in (sys.executable, script, table, replies))

        argv = ("search", "--reward", "sphere", "--n", "7", "--m", "60",
                "--generations", "3", "--early-stop", "0", "--rho-main", "0.256",
                "--seed", "2", "--quiet")
        full, crashed = tmp_path / "full", tmp_path / "crashed"
        assert run_cli(capsys, *argv, "--oracle", worker(10**6), "--out", full)[0] == 0
        code, _, err = run_cli(capsys, *argv, "--oracle", worker(30), "--out", crashed)
        assert code == 3 and "oracle" in err
        # a generation completed before the crash, so a good checkpoint was at stake
        done = len(rows(crashed))
        assert done >= 1
        assert f"checkpoint-{done}" in run_files(crashed)
        code, _, _ = run_cli(capsys, *argv, "--oracle", worker(10**6), "--out", crashed,
                             "--resume", crashed / f"checkpoint-{done}")
        assert code == 0
        assert rows(crashed) == rows(full)
        assert (crashed / "best.txt").read_text() == (full / "best.txt").read_text()
        assert run_files(crashed) == run_files(full)
        assert_same_checkpoint(crashed / "checkpoint-3", full / "checkpoint-3")


class TestOracleCrashTwoProcs:
    ARGV = ("search", "--reward", "sphere", "--n", "7", "--m", "60", "--generations", "3",
            "--early-stop", "0", "--rho-main", "0.256", "--seed", "2", "--quiet",
            "--oracle-procs", "2")

    def worker(self, tmp_path, replies):
        table, script = tmp_path / "table.txt", tmp_path / "crashing_worker.py"
        if not table.exists():
            write_sphere_table(table)
            script.write_text(CRASHING_WORKER)
        return " ".join(shlex.quote(str(a)) for a in (sys.executable, script, table, replies))

    def test_crash_exits_3_and_resumes_to_the_uninterrupted_run(self, capsys, tmp_path):
        full, crashed = tmp_path / "full", tmp_path / "crashed"
        assert run_cli(capsys, *self.ARGV, "--oracle", self.worker(tmp_path, 10**6),
                       "--out", full)[0] == 0
        # Seed 2 makes 15, 11 and 20 requests in its three generations, so
        # two workers that each exit after 15 replies fail in generation 2
        # or 3, whichever worker the requests reach.  A hang fails the test.
        proc = subprocess.run(
            [sys.executable, "-m", "rigidsearch.cli", *self.ARGV,
             "--oracle", self.worker(tmp_path, 15), "--out", str(crashed)],
            env=cli_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 3 and "oracle" in proc.stderr
        done = len(rows(crashed))
        assert 1 <= done <= 2
        assert f"checkpoint-{done}" in run_files(crashed)
        code, _, _ = run_cli(capsys, *self.ARGV, "--oracle", self.worker(tmp_path, 10**6),
                             "--out", crashed, "--resume", crashed / f"checkpoint-{done}")
        assert code == 0
        assert rows(crashed) == rows(full)
        assert (crashed / "best.txt").read_text() == (full / "best.txt").read_text()
        assert run_files(crashed) == run_files(full)
        assert_same_checkpoint(crashed / "checkpoint-3", full / "checkpoint-3")

    def test_fresh_run_drops_the_crashed_runs_checkpoint(self, capsys, tmp_path):
        argv = ("search", "--reward", "sphere", "--n", "7", "--m", "60", "--generations",
                "2", "--early-stop", "0", "--rho-main", "0.256", "--quiet")
        used, new = tmp_path / "used", tmp_path / "new"
        code, _, _ = run_cli(capsys, *argv, "--seed", "2",
                             "--oracle", self.worker(tmp_path, 5), "--out", used)
        assert code == 3
        assert run_files(used) == ["checkpoint-0", "config", "generations.csv"]
        for out_dir in (used, new):
            assert run_cli(capsys, *argv, "--seed", "3", "--oracle",
                           self.worker(tmp_path, 10**6), "--out", out_dir)[0] == 0
        assert "checkpoint-0" not in run_files(used)
        assert run_files(used) == run_files(new)
        assert rows(used, drop=("seconds",)) == rows(new, drop=("seconds",))


def cli_env(**blas):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(blas)
    return env


class TestBlasThreads:
    def test_thread_count_does_not_change_results(self, tmp_path):
        runs = {}
        for name, blas in (("capped", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
            out_dir = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "rigidsearch.cli", *NAC, "--n", "7",
                 "--generations", "2", "--out", str(out_dir)],
                env=cli_env(**blas), check=True, timeout=300)
            runs[name] = out_dir
        a, b = runs["capped"], runs["two"]
        assert rows(a, drop=("seconds",)) == rows(b, drop=("seconds",))
        assert (a / "best.txt").read_text() == (b / "best.txt").read_text()
        assert run_files(a) == run_files(b)
        for name in run_files(a):
            if name.startswith("checkpoint-"):
                assert_same_checkpoint(a / name, b / name)

    def test_tier1_runs_blas_on_one_thread(self):
        """tests/conftest.py caps the pool before numpy loads, as the CLI
        does, so this process runs no BLAS worker threads."""
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("needs /proc/self/task")
        a = np.random.default_rng(0).random((600, 600))
        assert float((a @ a).sum()) > 0
        assert len(os.listdir("/proc/self/task")) == threading.active_count()

    @pytest.mark.parametrize("blas,expected", [
        ({}, "1 1 1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1"),
    ])
    def test_cli_caps_threads_unless_the_user_sets_them(self, blas, expected):
        probe = ("import os, rigidsearch.cli; "
                 f"print(*(os.environ[v] for v in {BLAS_VARS!r}))")
        out = subprocess.run([sys.executable, "-c", probe], env=cli_env(**blas),
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.split() == expected.split()
