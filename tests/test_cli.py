import csv
import shlex
import sys

import pytest

from rigidsearch.cli import main
from rigidsearch.graphs import Graph, canonical_code, decode_int, encode_int
from rigidsearch.oracle import bundled_stub_table
from rigidsearch.policy import init_params, save_params
from rigidsearch.rigidity import enumerate_minimally_rigid

from conftest import NAC_RECORDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def grep(out, key):
    for line in out.splitlines():
        parts = line.split(maxsplit=1)
        if parts and parts[0] == key:
            return parts[1] if len(parts) == 2 else ""
    raise KeyError(f"{key!r} not in output:\n{out}")


class TestCodec:
    def test_decode_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "codec", "decode", "7")
        assert code == 0
        assert out.splitlines() == ["n 3", "0 1", "0 2", "1 2"]

    def test_decode_with_explicit_n(self, capsys):
        code, out, _ = run_cli(capsys, "codec", "decode", "7", "--n", "4")
        assert code == 0
        assert out.splitlines()[0] == "n 4"

    def test_encode_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "codec", "encode", "0,1", "0,2", "1,2",
                               "--n", "3")
        assert code == 0 and out.strip() == "7"

    def test_encode_needs_n(self, capsys):
        code, _, err = run_cli(capsys, "codec", "encode", "0,1")
        assert code == 2 and "error" in err

    def test_decode_rejects_oversized_code(self, capsys):
        code, _, err = run_cli(capsys, "codec", "decode", "8", "--n", "3")
        assert code == 1 and "error" in err

    def test_big_integer_certificate(self, capsys):
        n = 18
        cert = 44879647396852278983534873867663098247119872
        code, out, _ = run_cli(capsys, "codec", "decode", str(cert))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"n {n}"
        assert len(lines) - 1 == 2 * n - 3
        edges = [tuple(map(int, l.split())) for l in lines[1:]]
        assert encode_int(Graph.from_edges(n, edges)) == cert


class TestVerify:
    def test_default_check_is_rigidity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "7")
        assert code == 0
        assert grep(out, "minimally_rigid") == "true"
        assert grep(out, "n") == "3"

    def test_nac_and_structure(self, capsys):
        cert, expected = NAC_RECORDS[13]
        code, out, _ = run_cli(capsys, "verify", str(cert), "--n", "13",
                               "--checks", "rigid,nac,structure,peel,aut")
        assert code == 0
        assert grep(out, "minimally_rigid") == "true"
        assert grep(out, "nac") == str(expected)
        assert grep(out, "triangle_free") == "true"
        assert grep(out, "peel_k33").startswith("true")
        assert int(grep(out, "automorphisms")) >= 1

    def test_oracle_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "206970129631", "--n", "10",
                               "--checks", "oracle",
                               "--oracle-table", bundled_stub_table())
        assert code == 0
        assert grep(out, "plane") == "880"
        assert grep(out, "sphere") == "1536"
        assert grep(out, "mbezout") == "1536"

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "7", "--checks", "girth")
        assert code == 2

    def test_oracle_check_without_oracle(self, capsys):
        code, _, err = run_cli(capsys, "verify", "7", "--checks", "oracle")
        assert code == 2

    def test_negative_code_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "-5")
        assert code == 1


class TestImpact:
    def test_k2_zero_extension(self, capsys, tmp_path):
        out_csv = tmp_path / "impact.csv"
        code, out, _ = run_cli(capsys, "impact", "1", "--n", "2",
                               "--reward", "nac", "--kinds", "zero",
                               "--out", str(out_csv))
        assert code == 0
        assert grep(out, "children") == "1"
        assert grep(out, "best") == "3 7 0"
        rows = list(csv.reader(open(out_csv)))
        assert rows[0] == ["n", "code", "kind", "value"]
        assert rows[1] == ["3", "7", "zero", "0"]

    def test_row_count_equals_child_classes(self, capsys, tmp_path):
        from rigidsearch.rigidity import (apply_extension,
                                          enumerate_extensions)

        g = Graph.complete(3)
        out_csv = tmp_path / "impact.csv"
        code, out, _ = run_cli(capsys, "impact", "7", "--n", "3",
                               "--out", str(out_csv))
        assert code == 0
        classes = {canonical_code(apply_extension(g, e))
                   for e in enumerate_extensions(g)}
        rows = list(csv.reader(open(out_csv)))[1:]
        assert len(rows) == len(classes) == int(grep(out, "children"))

    def test_oracle_reward_with_missing_entry(self, capsys):
        code, _, err = run_cli(capsys, "impact", "7", "--n", "3",
                               "--reward", "plane",
                               "--oracle-table", bundled_stub_table())
        assert code == 1  # children of the triangle are not in the table


# Logs each request, answers from the three child classes of `impact 31 --n 4`
# and, at request FAIL, replies ERR or exits like a crashed worker.
# Usage: impact_worker.py LOG FAIL err|exit
IMPACT_WORKER = """\
import sys
log, fail, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
table = {"223": "7", "351": "11", "799": "5"}
for i, line in enumerate(sys.stdin, 1):
    with open(log, "a") as fh:
        fh.write(line)
    if i == fail and mode == "exit":
        sys.exit(0)
    reply = "ERR not in table" if i == fail else "OK " + table[line.split()[2]]
    sys.stdout.write(reply + "\\n")
    sys.stdout.flush()
"""


class TestImpactOracleFailure:
    """The child classes are requested in code order, and an oracle failure
    while they are scored leaves no output."""

    def run(self, capsys, tmp_path, fail, mode):
        script, log = tmp_path / "impact_worker.py", tmp_path / "requests.log"
        script.write_text(IMPACT_WORKER)
        worker = shlex.join([sys.executable, str(script), str(log), str(fail), mode])
        out_csv = tmp_path / "impact.csv"
        result = run_cli(capsys, "impact", "31", "--n", "4", "--reward", "plane",
                         "--oracle", worker, "--out", str(out_csv))
        return result, out_csv, log.read_text().splitlines()

    def test_all_answered(self, capsys, tmp_path):
        (code, out, _), out_csv, requests = self.run(capsys, tmp_path, 0, "err")
        assert code == 0
        assert out == "children 3\nbest 5 351 11\n"
        assert out_csv.read_text().splitlines() == [
            "n,code,kind,value", "5,223,zero,7", "5,351,zero,11", "5,799,zero,5"]
        assert requests == ["PLANE 5 223", "PLANE 5 351", "PLANE 5 799"]

    def test_err_on_the_second_request_exits_1(self, capsys, tmp_path):
        (code, out, err), out_csv, requests = self.run(capsys, tmp_path, 2, "err")
        assert code == 1 and "not in table" in err
        assert out == "" and not out_csv.exists()
        assert requests == ["PLANE 5 223", "PLANE 5 351"]

    def test_worker_exit_mid_batch_exits_3(self, capsys, tmp_path):
        (code, out, err), out_csv, requests = self.run(capsys, tmp_path, 2, "exit")
        assert code == 3 and "oracle" in err
        assert out == "" and not out_csv.exists()
        assert requests == ["PLANE 5 223", "PLANE 5 351"]


class TestEnumerate:
    def test_count_small(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "6")
        assert code == 0 and grep(out, "count") == "13"

    def test_emit_codes(self, capsys, tmp_path):
        path = tmp_path / "codes.txt"
        code, out, _ = run_cli(capsys, "enumerate", "5", "--emit", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            n, c = line.split()
            g = decode_int(int(c), int(n))
            assert canonical_code(g).code == int(c)

    def test_zero_only_reports_bound(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "7", "--mode", "zero-only")
        assert code == 0
        assert grep(out, "count") == "61"
        assert grep(out, "prop1_bound") == "15/28"
        assert grep(out, "bound_holds") == "true"

    def test_emit_invalid_for_zero_only(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "enumerate", "7", "--mode", "zero-only",
                               "--emit", str(tmp_path / "x"))
        assert code == 2

    def test_guard_refusal(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "11")
        assert code == 1


class TestSearchCommand:
    def test_tiny_search_prints_best_line(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "search", "--reward", "nac", "--n", "6", "--m", "60",
            "--generations", "2", "--early-stop", "0", "--seed", "0",
            "--out", str(tmp_path / "run"), "--quiet")
        assert code == 0
        best = out.strip().splitlines()[-1].split()
        assert best[0] == "best" and best[1] == "6"
        g = decode_int(int(best[2]), 6)
        from rigidsearch.rigidity import is_minimally_rigid

        assert is_minimally_rigid(g)
        assert (tmp_path / "run" / "generations.csv").exists()

    def test_n_below_three_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "search", "--n", "2", "--reward", "nac")
        assert code == 2 and "error" in err

    def test_nac_guard_below_edge_count_fails_before_the_run(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "search", "--reward", "nac", "--n", "10",
                               "--m", "200", "--generations", "1", "--nac-guard", "5",
                               "--out", str(out_dir))
        assert code == 2 and "nac_guard 5" in err
        assert not out_dir.exists()

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("reward: nac\nn: 6\nm: 40\ngenerations: 1\n"
                       "early_stop: 0\nseed: 3\n")
        code, out, _ = run_cli(capsys, "search", "--config", str(cfg),
                               "--m", "30", "--quiet",
                               "--out", str(tmp_path / "run"))
        assert code == 0
        import yaml

        snap = yaml.safe_load((tmp_path / "run" / "config").read_text())
        assert snap["m"] == 30          # flag wins
        assert snap["seed"] == 3        # file wins over default
        assert snap["generations"] == 1

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("rewardz: nac\n")
        code, _, err = run_cli(capsys, "search", "--config", str(cfg))
        assert code == 2 and "rewardz" in err

    @pytest.mark.parametrize("line", [
        "n: ten", "n: 10.5", "n: true", "n: null", "m: '40'", "eta0: x",
        "policy: 3", "oracle_procs: null", "rho_elite: false",
    ])
    def test_config_value_of_wrong_type_rejected(self, capsys, tmp_path, line):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, "search", "--config", str(cfg))
        assert code == 2 and repr(line.split(":")[0]) in err

    def test_config_int_as_float_and_null_default_accepted(self, tmp_path):
        from rigidsearch.cli import load_config_file

        cfg = tmp_path / "c.yaml"
        cfg.write_text("rho_main: 1\neta0: 0.5\ngenerations: null\noracle: null\n")
        assert load_config_file(str(cfg)) == {
            "rho_main": 1, "eta0": 0.5, "generations": None, "oracle": None}

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "search",
                               "--config", str(tmp_path / "nope.yaml"))
        assert code == 2

    def test_oracle_launch_failure(self, capsys):
        code, _, err = run_cli(capsys, "search", "--reward", "sphere",
                               "--n", "6", "--m", "10", "--generations", "1",
                               "--oracle", "/no/such/worker")
        assert code == 3

    def test_resume_continues_run(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run_cli(capsys, "search", "--reward", "nac", "--n", "6", "--m", "40",
                "--generations", "2", "--early-stop", "0", "--seed", "1",
                "--out", str(out_dir), "--quiet")
        code, out, _ = run_cli(
            capsys, "search", "--reward", "nac", "--n", "6", "--m", "40",
            "--generations", "4", "--early-stop", "0", "--seed", "1",
            "--quiet", "--resume", str(out_dir / "checkpoint-2"))
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("best 6 ")

    def test_oracle_procs_do_not_change_results(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("".join(
            f"6 {cc.code} sphere {2 + cc.code % 97}\n6 {cc.code} mbezout {200 - cc.code % 89}\n"
            for cc in sorted(enumerate_minimally_rigid(6))))
        runs = []
        for procs in ("1", "2"):
            out_dir = tmp_path / f"procs{procs}"
            code, _, _ = run_cli(
                capsys, "search", "--reward", "sphere", "--n", "6", "--m", "40",
                "--generations", "2", "--early-stop", "0", "--rho-main", "0.256",
                "--oracle-table", str(table), "--oracle-procs", procs,
                "--out", str(out_dir), "--quiet")
            assert code == 0
            with open(out_dir / "generations.csv") as fh:
                rows = [{k: v for k, v in row.items() if k != "seconds"}
                        for row in csv.DictReader(fh)]
            runs.append((rows, (out_dir / "best.txt").read_text()))
        assert len(runs[0][0]) == 2
        assert runs[0] == runs[1]


class TestTransferEval:
    def test_saturation_flagged(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run_cli(capsys, "search", "--reward", "nac", "--n", "6", "--m", "40",
                "--generations", "1", "--early-stop", "0", "--seed", "0",
                "--out", str(out_dir), "--quiet")
        hist = tmp_path / "hist.csv"
        code, out, _ = run_cli(
            capsys, "transfer-eval", str(out_dir / "checkpoint-1"),
            "--n", "3", "--count", "50", "--patience", "25",
            "--hist-out", str(hist))
        assert code == 0
        assert grep(out, "distinct") == "1"
        assert grep(out, "saturated") == "true"
        assert grep(out, "best") == "3 7 0"
        rows = list(csv.reader(open(hist)))
        assert rows == [["value", "count"], ["0", "1"]]

    def test_upward_transfer(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run_cli(capsys, "search", "--reward", "nac", "--n", "5", "--m", "40",
                "--generations", "1", "--early-stop", "0", "--seed", "0",
                "--out", str(out_dir), "--quiet")
        code, out, _ = run_cli(
            capsys, "transfer-eval", str(out_dir / "checkpoint-1"),
            "--n", "7", "--count", "10", "--patience", "100")
        assert code == 0
        best = grep(out, "best").split()
        assert best[0] == "7"

    @pytest.mark.parametrize("flag", ["--count", "--patience"])
    def test_zero_count_or_patience_is_config_error(self, capsys, tmp_path, flag):
        weights = tmp_path / "w.npz"
        save_params(init_params("gin", 5), str(weights))
        code, _, err = run_cli(capsys, "transfer-eval", str(weights), "--n", "5",
                               flag, "0")
        assert code == 2
        assert "need count >= 1 and patience >= 1" in err

    def test_n_below_three_is_config_error(self, capsys, tmp_path):
        weights = tmp_path / "w.npz"
        save_params(init_params("gin", 5), str(weights))
        code, _, err = run_cli(capsys, "transfer-eval", str(weights), "--n", "2")
        assert code == 2 and "need n >= 3, got 2" in err

    def test_missing_weights(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "transfer-eval",
                               str(tmp_path / "none.npz"), "--n", "5")
        assert code == 2


class TestOracleFlags:
    @pytest.mark.parametrize("argv", [
        ["search", "--reward", "sphere", "--n", "5"],
        ["verify", "7", "--checks", "oracle"],
        ["impact", "7", "--reward", "plane"],
        ["transfer-eval", "weights.npz", "--n", "5", "--reward", "plane"],
    ])
    def test_both_oracle_flags_are_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--oracle", "true", "--oracle-table", bundled_stub_table()])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestExitCodeContract:
    def test_domain_error_is_one(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "8", "--n", "3")
        assert code == 1

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--reward", "girth"])
        assert exc.value.code == 2

    def test_oracle_transport_is_three(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "7", "--checks", "oracle",
                             "--oracle", "false")
        assert code == 3

    def test_impact_oracle_reward_without_oracle_is_two(self, capsys):
        code, _, err = run_cli(capsys, "impact", "7", "--n", "3", "--reward", "sphere")
        assert code == 2
        assert "needs --oracle" in err

    def test_transfer_eval_oracle_reward_without_oracle_is_two(self, capsys, tmp_path):
        weights = tmp_path / "w.npz"
        save_params(init_params("gin", 6), str(weights))
        code, _, err = run_cli(capsys, "transfer-eval", str(weights), "--n", "5",
                               "--reward", "plane")
        assert code == 2
        assert "needs --oracle" in err


class TestOracleOnlyWhenQueried:
    """A worker starts only when the reward or the screening queries it, and a
    missing or malformed table is a usage error (2), not a transport one (3)."""

    SEARCH = ("search", "--reward", "nac", "--n", "5", "--m", "10",
              "--generations", "1", "--quiet")

    def test_nac_search_ignores_missing_table(self, capsys):
        code, out, err = run_cli(capsys, *self.SEARCH, "--oracle-table", "/nonexistent")
        assert code == 0
        assert err == ""
        assert out.startswith("best 5 ")

    def test_nac_search_starts_no_worker(self, capsys):
        code, _, _ = run_cli(capsys, *self.SEARCH, "--oracle", "/no/such/worker")
        assert code == 0

    def test_nac_search_with_screening_starts_the_worker(self, capsys):
        code, _, err = run_cli(capsys, *self.SEARCH, "--oracle", "/no/such/worker",
                               "--rho-main", "0.5")
        assert code == 3
        assert "cannot start oracle" in err

    def test_nac_impact_ignores_missing_table(self, capsys):
        code, out, _ = run_cli(capsys, "impact", "7", "--n", "3", "--reward", "nac",
                               "--oracle-table", "/nonexistent")
        assert code == 0
        assert grep(out, "children") == "1"

    def test_nac_transfer_eval_starts_no_worker(self, capsys, tmp_path):
        weights = tmp_path / "w.npz"
        save_params(init_params("gin", 5), str(weights))
        code, _, _ = run_cli(capsys, "transfer-eval", str(weights), "--n", "5",
                             "--count", "2", "--oracle", "/no/such/worker")
        assert code == 0

    def test_malformed_table_is_usage_error_naming_the_line(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("# header\n3 7 plane x\n")
        code, out, err = run_cli(capsys, "impact", "7", "--n", "3", "--reward", "plane",
                                 "--oracle-table", str(table))
        assert code == 2
        assert out == ""
        assert f"{table}:2:" in err

    def test_search_with_missing_table_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "search", "--reward", "sphere", "--n", "5",
                               "--m", "10", "--generations", "1",
                               "--oracle-table", str(tmp_path / "none.txt"))
        assert code == 2
        assert "none.txt" in err

    @pytest.mark.parametrize("flags", [["--oracle-table", "/nonexistent"], []])
    def test_verify_checks_its_oracle_before_printing(self, capsys, flags):
        code, out, _ = run_cli(capsys, "verify", "7", "--checks", "rigid,oracle", *flags)
        assert code == 2
        assert out == ""

    def test_verify_without_oracle_check_ignores_missing_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "7", "--checks", "rigid",
                               "--oracle-table", "/nonexistent")
        assert code == 0
        assert out == "n 3\nedges 3\nminimally_rigid true\n"

    def test_verify_oracle_output_keeps_its_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "206970129631", "--n", "10",
                               "--checks", "rigid,oracle",
                               "--oracle-table", bundled_stub_table())
        assert code == 0
        assert out == ("n 10\nedges 17\nminimally_rigid true\n"
                       "plane 880\nsphere 1536\nmbezout 1536\n")


class TestGuardsBeforeWork:
    """An impossible --nac-guard, or an unknown --core for the peel check, is
    a usage error (2) raised before any rollout, child or output."""

    def test_transfer_eval_guard_at_the_edge_count_passes(self, capsys, tmp_path):
        weights = tmp_path / "w.npz"
        save_params(init_params("gin", 5), str(weights))
        code, out, _ = run_cli(capsys, "transfer-eval", str(weights), "--n", "5",
                               "--count", "2", "--nac-guard", "7")
        assert code == 0 and grep(out, "distinct") == "2"

    def test_transfer_eval_guard_below_the_edge_count_exits_2(self, capsys, tmp_path):
        weights = tmp_path / "w.npz"
        save_params(init_params("gin", 5), str(weights))
        hist = tmp_path / "hist.csv"
        code, out, err = run_cli(capsys, "transfer-eval", str(weights), "--n", "5",
                                 "--count", "2", "--nac-guard", "6",
                                 "--hist-out", str(hist))
        assert code == 2 and out == "" and not hist.exists()
        assert "nac_guard 6 is below |E|=7" in err

    def test_impact_guard_at_the_child_edge_count_passes(self, capsys):
        code, out, _ = run_cli(capsys, "impact", "7", "--n", "3", "--nac-guard", "5")
        assert code == 0 and grep(out, "children") == "1"

    def test_impact_guard_below_the_child_edge_count_exits_2(self, capsys, tmp_path):
        out_csv = tmp_path / "impact.csv"
        code, out, err = run_cli(capsys, "impact", "7", "--n", "3", "--nac-guard", "4",
                                 "--out", str(out_csv))
        assert code == 2 and out == "" and not out_csv.exists()
        assert "nac_guard 4 is below |E|=5" in err

    def test_oracle_rewards_ignore_the_guard(self, capsys, tmp_path):
        # the triangle's only child class, and the triangle itself, in a table
        child = canonical_code(Graph.complete(4).remove_edge(0, 1))
        table = tmp_path / "table.txt"
        table.write_text(f"4 {child.code} plane 4\n3 7 sphere 2\n")
        code, out, _ = run_cli(capsys, "impact", "7", "--n", "3", "--reward", "plane",
                               "--oracle-table", str(table), "--nac-guard", "0")
        assert code == 0 and grep(out, "best") == f"4 {child.code} 4"
        weights = tmp_path / "w.npz"
        save_params(init_params("gin", 5), str(weights))
        code, out, _ = run_cli(capsys, "transfer-eval", str(weights), "--n", "3",
                               "--count", "1", "--reward", "sphere",
                               "--oracle-table", str(table), "--nac-guard", "0")
        assert code == 0 and grep(out, "best") == "3 7 2"

    @pytest.mark.parametrize("flags,message", [
        (["--n", "2"], "need n >= 3, got 2"),
        (["--n", "5", "--count", "0"], "need count >= 1 and patience >= 1"),
    ], ids=["n-below-three", "zero-count"])
    def test_transfer_eval_usage_error_before_the_oracle_starts(self, capsys, tmp_path,
                                                                flags, message):
        weights = tmp_path / "w.npz"
        save_params(init_params("gin", 5), str(weights))
        code, out, err = run_cli(capsys, "transfer-eval", str(weights), *flags,
                                 "--reward", "plane", "--oracle", "/no/such/worker")
        assert code == 2 and out == ""
        assert message in err and "cannot start oracle" not in err

    def test_unknown_core_exits_2_before_output(self, capsys):
        code, out, err = run_cli(capsys, "verify", "7", "--checks", "rigid,peel",
                                 "--core", "kx")
        assert code == 2 and out == "" and "unknown core 'kx'" in err

    def test_unknown_core_without_peel_is_ignored(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "7", "--checks", "rigid", "--core", "kx")
        assert code == 0 and grep(out, "minimally_rigid") == "true"
