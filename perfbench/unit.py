"""One benchmark unit, run in a process of its own by run.py.

A unit is one search (`nac-search`, `oracle-search`) or one part of a
certify pass.  It imports rigidsearch, builds its inputs, times the user
commands it runs through `rigidsearch.cli.main` with the argv a user types,
then checks their outputs outside the timed region and writes a result file.
With --trace 1 it first installs the tracer, and writes the spans next to
the result.

On SIGTERM (the unit's deadline) it writes the innermost layer function
on its stack to the result file and kills its process group, which holds
any oracle workers it started.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import shlex
import shutil
import signal
import sys
import time

# Search size and generations per search.  Each unit is a one-generation
# search with its own seed, so a run takes the median over many seeds.
# Larger sizes stall at this commit, in canonical labeling of book-like
# graphs (K2 plus many apexes), which some seeds roll out by the dozen:
# seed 5001's first generation at n=10 and seed 3004's at n=9 ran for 60 s,
# and from the second generation on a trained policy can fill the whole
# population with book graphs.  At n=8 a book graph costs under 0.1 s, so
# a generation stays under 20 s whatever the policy rolls out, and slow
# seeds show as slow units instead of failures.  The certify workload
# measures the defect itself on the book family.
N = 8
GENERATIONS = 1
CERTIFY_PARTS = ("records", "sphere", "books", "relabel", "impact")

HERE = os.path.dirname(os.path.abspath(__file__))


def search_argv(workload: str, seed: int, out: str, stats_dir: str) -> list[str]:
    argv = ["search", "--n", str(N), "--m", "200", "--early-stop", "0",
            "--generations", str(GENERATIONS), "--seed", str(seed),
            "--out", out, "--quiet"]
    if workload == "nac-search":
        return argv + ["--reward", "nac"]
    worker = " ".join(shlex.quote(a) for a in (
        sys.executable, os.path.join(HERE, "oracle_worker.py"), "--stats-dir", stats_dir))
    return argv + ["--reward", "sphere", "--rho-main", "0.256",
                   "--oracle-procs", "2", "--oracle", worker]


def run_cli(argv: list[str]) -> tuple[int, dict[str, str]]:
    """Run one user command; returns its exit code and its `key value` lines."""
    from rigidsearch import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    out = {}
    for line in buf.getvalue().splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return rc, out


class Checks:
    """Correctness checks of one unit; a check that raises has failed."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def expect(self, name: str, got, want) -> None:
        self(name, got == want, f"got {got!r}, want {want!r}")

    def guarded(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as exc:  # a crashing check is a failed check
            self(name, False, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# searches


def run_search(workload: str, seed: int, work: str, checks: Checks, probe) -> dict:
    out, stats_dir = os.path.join(work, "run"), os.path.join(work, "workers")
    os.makedirs(stats_dir, exist_ok=True)
    argv = search_argv(workload, seed, out, stats_dir)
    rc, lines = run_cli(argv)
    end = time.monotonic()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = probe.first_generation
    checks.expect("search exit code", rc, 0)
    checks.guarded("search best graph", check_search, workload, out, lines, checks)
    with open(os.path.join(out, "generations.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    generations = [row[:-1] for row in rows[1:]]      # all but `seconds`
    checks.expect("generations run", len(generations), GENERATIONS)
    requests = errors = 0
    for name in os.listdir(stats_dir):
        with open(os.path.join(stats_dir, name), encoding="utf-8") as fh:
            stats = json.load(fh)
        requests += stats["requests"]
        errors += stats["errors"]
    shutil.rmtree(out)
    return {"first_op": first, "end": end, "rss_mb": rss, "ops": len(generations),
            "generations": generations, "oracle_requests": requests,
            "oracle_errors": errors}


def check_search(workload: str, out: str, lines: dict, checks: Checks) -> None:
    """Every best graph the search reports is a canonically coded minimally
    rigid graph, and re-scoring it gives the reported value."""
    from rigidsearch.graphs import CanonicalCode, decode_int
    from rigidsearch.nac import count_nac
    from rigidsearch.rigidity import is_minimally_rigid
    from rigidsearch import graphs

    import oracle_worker

    canonical_code = getattr(graphs.canonical_code, "__wrapped__", graphs.canonical_code)
    n, code, value = map(int, lines["best"].split())
    with open(os.path.join(out, "best.txt"), encoding="utf-8") as fh:
        reported = [tuple(map(int, line.split()[:3])) for line in fh]
    checks.expect("best.txt ends at the reported best", reported[-1], (n, code, value))
    for n, code, value in reported:
        g = decode_int(code, n)
        checks(f"best {code} minimally rigid", is_minimally_rigid(g))
        checks.expect(f"best {code} canonical", canonical_code(g), CanonicalCode(n, code))
        if workload == "nac-search":
            rescored = count_nac(g)
        else:
            rescored = oracle_worker.values(n, code)["sphere"]
        checks.expect(f"best {code} re-scored", rescored, value)


# ---------------------------------------------------------------------------
# certify


def certify_commands(part: str, seed: int):
    """(argv, check) pairs for one certify part; check(lines, checks)."""
    import inputs
    from rigidsearch.oracle import bundled_stub_table

    def verify(code, n, checks_arg, *extra):
        return ["verify", str(code), "--n", str(n), "--checks", checks_arg, *extra]

    if part == "records":
        families = [("record", n, code, nac) for n, (code, nac) in inputs.NAC_RECORDS.items()]
        families += [("comparison", n, code, nac)
                     for n, (code, nac) in inputs.NAC_COMPARISON.items()]
        for family, n, code, nac in families:
            def check(lines, checks, family=family, n=n, nac=nac):
                name = f"{family} n={n}"
                checks.expect(f"{name} minimally rigid", lines.get("minimally_rigid"), "true")
                checks.expect(f"{name} NAC count", lines.get("nac"), str(nac))
                checks.expect(f"{name} triangle-free", lines.get("triangle_free"), "true")
                checks(f"{name} automorphisms", int(lines["automorphisms"]) >= 1)
                if family == "record" and n in inputs.PEELS_TO_K33:
                    checks.expect(f"{name} peels to K33",
                                  lines.get("peel_k33", "").split(" ")[0], "true")
            yield verify(code, n, "rigid,nac,structure,peel,aut"), check
    elif part == "sphere":
        table = bundled_stub_table()
        for n, code, count in inputs.SPHERE_RECORDS:
            def check(lines, checks, n=n, count=count):
                name = f"sphere record n={n}"
                checks.expect(f"{name} sphere count", lines.get("sphere"), str(count))
                for inv in ("plane", "mbezout"):
                    checks.expect(f"{name} {inv}", lines.get(inv), "unavailable")
                for key, want in (("min_degree", "3"), ("max_degree", "4"),
                                  ("hamiltonian", "true"), ("chromatic_number", "3")):
                    checks.expect(f"{name} {key}", lines.get(key), want)
            yield verify(code, n, "structure,oracle", "--oracle-table", table), check
    elif part == "books":
        for n in inputs.BOOK_SIZES:
            def check(lines, checks, n=n):
                checks.expect(f"book n={n} automorphisms", lines.get("automorphisms"),
                              str(inputs.book_automorphisms(n)))
                checks.expect(f"book n={n} peels to K3",
                              lines.get("peel_k3", "").split(" ")[0], "true")
            yield verify(inputs.book(n), n, "aut,peel", "--core", "k3"), check
    elif part == "relabel":
        for cert in inputs.relabelings(seed):
            seen = {}
            for label, code in (("given", cert.code), ("relabeled", cert.relabeled_code)):
                def check(lines, checks, cert=cert, label=label, seen=seen):
                    name = f"certificate {cert.code} ({label})"
                    checks.expect(f"{name} minimally rigid", lines.get("minimally_rigid"), "true")
                    seen[label] = lines.get("nac")
                    if cert.nac is not None:
                        checks.expect(f"{name} NAC count", lines.get("nac"), str(cert.nac))
                    if label == "relabeled":
                        checks.expect(f"certificate {cert.code} NAC count under relabeling",
                                      seen["relabeled"], seen["given"])
                        check_canonical(cert, checks)
                yield verify(code, cert.n, "rigid,nac"), check
    elif part == "impact":
        def check(lines, checks):
            from rigidsearch.graphs import decode_int
            from rigidsearch.nac import count_nac

            checks.expect("impact children", lines.get("children"), str(inputs.IMPACT_CHILDREN))
            n, code, value = map(int, lines["best"].split())
            checks.expect("impact best value", value, inputs.IMPACT_BEST)
            checks.expect("impact best re-scored", count_nac(decode_int(code, n)), value)
        yield ["impact", str(inputs.IMPACT_CODE), "--n", str(inputs.IMPACT_N),
               "--reward", "nac", "--kinds", "zero"], check
    else:
        raise ValueError(f"unknown certify part {part!r}")


def check_canonical(cert, checks: Checks) -> None:
    from rigidsearch import graphs

    canonical_code = getattr(graphs.canonical_code, "__wrapped__", graphs.canonical_code)
    a = canonical_code(graphs.decode_int(cert.code, cert.n))
    b = canonical_code(graphs.decode_int(cert.relabeled_code, cert.n))
    checks.expect(f"certificate {cert.code} canonical code under relabeling", b, a)


def run_certify(part: str, seed: int, checks: Checks) -> dict:
    commands = list(certify_commands(part, seed))
    first = time.monotonic()
    results = [run_cli(argv) for argv, _ in commands]
    end = time.monotonic()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for (argv, check), (rc, lines) in zip(commands, results):
        checks.expect(f"{argv[0]} {argv[1]} exit code", rc, 0)
        checks.guarded(f"{argv[0]} {argv[1]} output", check, lines, checks)
    return {"first_op": first, "end": end, "rss_mb": rss, "ops": len(commands)}


# ---------------------------------------------------------------------------


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--part", default="")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True, help="monotonic time the parent spawned us")
    p.add_argument("--work", required=True, help="directory for this unit's files")
    args = p.parse_args()

    import rigidsearch.cli  # noqa: F401  (timed as part of set-up)
    import tracing

    imported = time.monotonic()
    result_path = os.path.join(args.work, "result.json")
    codes = tracing.layer_codes()

    def on_deadline(signum, frame):
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"stalled_in": tracing.innermost_layer(frame, codes)}, fh)
        os.killpg(os.getpgrp(), signal.SIGKILL)

    signal.signal(signal.SIGTERM, on_deadline)

    run_id = f"{args.workload}/{args.part or 'search'}/seed{args.seed}/trace{args.trace}"
    probe = tracing.Tracer(run_id) if args.trace else tracing.FirstGeneration()
    checks = Checks()
    if args.workload == "certify":
        res = run_certify(args.part, args.seed, checks)
    else:
        res = run_search(args.workload, args.seed, args.work, checks, probe)
    setup_end = imported if args.workload == "certify" else res["first_op"]
    res.update(setup_s=setup_end - args.t0, import_s=imported - args.t0,
               timed_s=res["end"] - res["first_op"], checks=checks.results)
    if args.trace:
        probe.dump(os.path.join(args.work, "spans.json"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
