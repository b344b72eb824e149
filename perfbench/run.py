"""The rigidsearch benchmark: one command for three workloads.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a rigidsearch checkout.  WORKLOAD is one of

    nac-search     `rigidsearch search --reward nac --n 8 --m 200`
    oracle-search  `rigidsearch search --reward sphere --n 8 --rho-main 0.256`
                   against the benchmark's own oracle worker (2 processes)
    certify        `rigidsearch verify` and `rigidsearch impact` on the
                   published certificates, book graphs and seeded extras

Each unit of work runs in a child process (unit.py) with a deadline.  The
run keeps starting steps of units while the next one, as long as the last,
still ends within S seconds; the first step always runs.  A search unit is a
one-generation search with its own seed (the workload seed, then seed +
1000, ...); a certify unit is one part of a certify pass, and a pass runs
whole.

With --trace 0 every unit is untraced and the run reports the end-to-end
metrics.  With --trace 1 every unit runs twice, untraced and then traced
with the same seed, and the run reports the per-layer metrics from the
traced units and the tracing overhead between the two.  The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines above it print every metric by name with its unit, the
host facts and the seed.  Spans, unit logs and a full result file are kept
under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from unit import CERTIFY_PARTS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("nac-search", "oracle-search", "certify")

RUN_LIMIT_S = 165        # every run ends within 180 s
UNIT_DEADLINE_S = 60     # a unit still running then has stalled
KILL_GRACE_S = 5

END_TO_END_UNITS = {"s_per_op": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# running units


def steps(workload: str, seed: int):
    """Endless sequence of steps, each a list of (part, unit seed)."""
    j = 0
    while True:
        if workload == "certify":
            yield [(part, seed) for part in CERTIFY_PARTS]
        else:
            yield [("", seed + 1000 * j)]
        j += 1


def reap_group(pgid: int) -> None:
    """Kill what is left of a unit's process group and wait until it is gone."""
    limit = time.monotonic() + KILL_GRACE_S
    while time.monotonic() < limit:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_unit(root: str, out_dir: str, workload: str, part: str, seed: int,
             trace: int, deadline: float) -> dict:
    name = f"{len(os.listdir(out_dir)):03d}-{part or 'search'}-seed{seed}-trace{trace}"
    work = os.path.join(out_dir, name)
    os.makedirs(work)
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, os.path.join(HERE, "unit.py"), "--workload", workload,
            "--part", part, "--seed", str(seed), "--trace", str(trace), "--work", work]
    with open(os.path.join(work, "log.txt"), "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv + ["--t0", repr(t0)], cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=deadline)
        except subprocess.TimeoutExpired:
            proc.terminate()             # unit.py records where it stalled
            try:
                proc.wait(timeout=KILL_GRACE_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        finally:                         # also when this run is interrupted
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            reap_group(proc.pid)
    result = {}
    path = os.path.join(work, "result.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
    result.update(part=part, seed=seed, trace=trace, work=work, rc=proc.returncode,
                  wall_s=time.monotonic() - t0)
    if proc.returncode != 0 and "stalled_in" not in result:
        result["crashed"] = True
    return result


def completed(unit: dict) -> bool:
    return unit["rc"] == 0 and "checks" in unit


# ---------------------------------------------------------------------------
# metrics


def s_per_op(workload: str, done: list[dict]) -> float:
    """Seconds per generation: the median over the search units, one seed
    each.  Seconds per certificate: the total over each certify pass."""
    if workload == "certify":
        return sum(u["timed_s"] for u in done) / sum(u["ops"] for u in done)
    return statistics.median(u["timed_s"] / u["ops"] for u in done)


def end_to_end(workload: str, units: list[dict]) -> dict:
    done = [u for u in units if completed(u)]
    if not done:
        return {}
    return {
        "s_per_op": s_per_op(workload, done),
        "setup_s": statistics.median(u["setup_s"] for u in done),
        "peak_rss_mb": max(u["rss_mb"] for u in done),
    }


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def per_layer(workload: str, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics from the spans of the traced units.  Times and counts
    are per operation: per generation on the searches, per certificate on
    certify."""
    total: dict[str, float] = {}
    child: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    forward_ms = {5: [], 7: []}
    stub_ms: list[float] = []
    book_s = wall = 0.0
    procs = 1
    setup = {"import": [], "init": [], "spawn": []}
    done = [u for u in traced if completed(u)]
    ops = sum(u["ops"] for u in done)
    for u in done:
        with open(os.path.join(u["work"], "spans.json"), encoding="utf-8") as fh:
            dump = json.load(fh)
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
        first, end = u["first_op"], u["end"]
        wall += end - first
        spans = dump["spans"]
        by_id = {s[0]: s for s in spans}
        spawn = sum(e - s for _, name, s, e, *_ in spans if name == "oracle.spawn")
        cli_start = min(s for _, name, s, *_ in spans if name == "cli.main")
        setup["import"].append(u["import_s"])
        setup["spawn"].append(spawn)
        setup["init"].append(max(0.0, first - cli_start - spawn))
        for sid, name, start, stop, parent, attrs in spans:
            if start < first or stop > end:
                continue                     # set-up, or the checks after timing
            d = stop - start
            total[name] = total.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(d)
            if parent in by_id:
                pname = by_id[parent][1]
                child[pname] = child.get(pname, 0.0) + d
            if name == "policy.forward" and attrs["k"] in forward_ms:
                forward_ms[attrs["k"]].append(d * 1e3)
            elif name == "oracle.client" and attrs["stub"]:
                stub_ms.append(d * 1e3)
            elif name == "oracle.query":
                procs = attrs["procs"]
            elif name == "graphs.canonical" and u["part"] == "books":
                book_s += d
    gens = ops if workload != "certify" else 0

    def per_op(x: float) -> float:
        return x / ops if ops else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def mean(xs: list[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def self_time(name: str) -> float:
        return t(name) - child.get(name, 0.0)

    def lookups(role: str) -> float:
        return counters.get(f"rewards.{role}.lookups", 0)

    def hits(role: str) -> float:
        return counters.get(f"rewards.{role}.hits", 0)

    nac = ("nac.count.canonical", "nac.count.given")
    nac_ms = [d * 1e3 for name in nac for d in durations.get(name, [])]
    canon_ms = [d * 1e3 for d in durations.get("graphs.canonical", [])]
    oracle_ms = sorted(d * 1e3 for d in durations.get("oracle.query", []))
    m = {
        "cem.generation.s": (per_op(t("cem.generation")), "s"),
        "cem.rollout.self_s": (per_op(self_time("cem.rollout")), "s"),
        "cem.checkpoint.s": (per_op(t("cem.checkpoint")), "s"),
        "cem.checkpoint.bytes": (ratio(counters.get("cem.checkpoint.bytes", 0),
                                      calls.get("cem.checkpoint", 0)), "bytes"),
        "policy.forward.calls": (per_op(calls.get("policy.forward", 0)), "count"),
        "policy.forward.s": (per_op(t("policy.forward")), "s"),
        "policy.forward.ms_k5": (mean(forward_ms[5]), "ms"),
        "policy.forward.ms_k7": (mean(forward_ms[7]), "ms"),
        "policy.forward.distinct_ratio": (ratio(counters.get("policy.forward.distinct", 0),
                                               calls.get("policy.forward", 0)), "ratio"),
        "policy.train.s": (per_op(t("policy.loss") + t("policy.adam")), "s"),
        "policy.train.steps": (per_op(calls.get("policy.adam", 0)), "count"),
        "nac.count.calls": (per_op(sum(calls.get(n, 0) for n in nac)), "count"),
        "nac.count.s": (per_op(sum(t(n) for n in nac)), "s"),
        "nac.count.max_ms": (max(nac_ms, default=0.0), "ms"),
        "nac.colorings": (per_op(counters.get("nac.colorings", 0)), "count"),
        "nac.count.canonical_s": (per_op(t("nac.count.canonical")), "s"),
        "nac.count.given_s": (per_op(t("nac.count.given")), "s"),
        "graphs.canonical.calls": (per_op(calls.get("graphs.canonical", 0)), "count"),
        "graphs.canonical.s": (per_op(t("graphs.canonical")), "s"),
        "graphs.canonical.max_ms": (max(canon_ms, default=0.0), "ms"),
        "graphs.canonical.book_s": (per_op(book_s), "s"),
        "graphs.aut.s": (per_op(t("graphs.aut")), "s"),
        "graphs.structure.s": (per_op(t("graphs.structure")), "s"),
        "rewards.main.lookups": (per_op(lookups("main")), "count"),
        "rewards.main.hit_ratio": (ratio(hits("main"), lookups("main")), "ratio"),
        "rewards.surrogate.lookups": (per_op(lookups("surrogate")), "count"),
        "rewards.surrogate.hit_ratio": (ratio(hits("surrogate"), lookups("surrogate")), "ratio"),
        "rewards.select.self_s": (per_op(self_time("rewards.select")), "s"),
        "oracle.requests": (calls.get("oracle.query", 0), "count"),
        "oracle.requests_per_gen": (ratio(calls.get("oracle.query", 0), gens), "count"),
        "oracle.latency_ms.p50": (_pct(oracle_ms, 50), "ms"),
        "oracle.latency_ms.p99": (_pct(oracle_ms, 99), "ms"),
        "oracle.busy_s": (per_op(t("oracle.query")), "s"),
        "oracle.worker_util": (ratio(t("oracle.query"), procs * wall), "ratio"),
        "oracle.errors": (counters.get("oracle.query.errors", 0), "count"),
        "rigidity.apply.s": (per_op(t("rigidity.apply")), "s"),
        "rigidity.pebble.s": (per_op(t("rigidity.pebble")), "s"),
        "rigidity.peel.s": (per_op(t("rigidity.peel")), "s"),
        "rigidity.impact.s": (per_op(t("rigidity.impact")), "s"),
        "stub_oracle.roundtrip_ms.p50": (_pct(sorted(stub_ms), 50), "ms"),
        "setup.import_s": (statistics.median(setup["import"]) if done else 0.0, "s"),
        "setup.init_s": (statistics.median(setup["init"]) if done else 0.0, "s"),
        "setup.oracle_spawn_s": (statistics.median(setup["spawn"]) if done else 0.0, "s"),
    }
    plain, with_trace = end_to_end(workload, untraced), end_to_end(workload, traced)
    overhead = (with_trace["s_per_op"] / plain["s_per_op"] - 1) if plain and with_trace else 0.0
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


# ---------------------------------------------------------------------------
# correctness accounting


def tally(workload: str, units: list[dict], traced: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure notes).  An operation is a generation, an
    oracle request or a check; a unit killed at its deadline or crashed is
    one failed operation."""
    attempted = failed = 0
    notes = []
    for u in units:
        where = os.path.basename(u["work"])
        if not completed(u):
            attempted += 1
            failed += 1
            if "stalled_in" in u:
                notes.append(f"{where}: killed at its deadline, stalled in {u['stalled_in']}")
            elif u.get("skipped"):
                notes.append(f"{u['part'] or 'search'} seed {u['seed']}: not started, "
                             f"the run reached its {RUN_LIMIT_S} s limit")
            else:
                notes.append(f"{where}: exited with code {u['rc']}, see {u['work']}/log.txt")
            continue
        attempted += len(u["checks"]) + (u["ops"] if workload != "certify" else 0)
        attempted += u.get("oracle_requests", 0)
        failed += u.get("oracle_errors", 0)
        for name, ok, detail in u["checks"]:
            if not ok:
                failed += 1
                notes.append(f"{where}: {name}: {detail}")
        if u["trace"]:
            with open(os.path.join(u["work"], "spans.json"), encoding="utf-8") as fh:
                mismatches = json.load(fh)["counters"].get("oracle.mismatches", 0)
            failed += mismatches
            if mismatches:
                notes.append(f"{where}: {mismatches} oracle values differ from the worker's")
    if traced and workload != "certify":
        plain = {u["seed"]: u for u in units if not u["trace"] and completed(u)}
        for u in units:
            if u["trace"] and completed(u) and u["seed"] in plain:
                attempted += 1
                if u["generations"] != plain[u["seed"]]["generations"]:
                    failed += 1
                    notes.append(f"seed {u['seed']}: generations.csv differs when traced")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# host facts


def host_facts() -> dict:
    import numpy

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
             "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        facts["blas"] = "unknown"
    facts["blas_threads"] = "unknown"
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                facts["blas_threads"] = getattr(lib, symbol)()
                break
    return facts


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run unwinds, so the running unit's process group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rigidsearch", "cli.py")):
        print("error: run from the root of a rigidsearch checkout "
              "(src/rigidsearch/cli.py not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    start = time.monotonic()
    units: list[dict] = []
    last_step_s = 0.0
    for step in steps(args.workload, args.seed):
        step_start = time.monotonic()
        if units and step_start - start + last_step_s > args.seconds:
            break                        # the next step would overrun --seconds
        for trace in ((0, 1) if args.trace else (0,)):
            for part, seed in step:
                left = RUN_LIMIT_S - KILL_GRACE_S - (time.monotonic() - start)
                if left <= 0:
                    units.append({"part": part, "seed": seed, "trace": trace, "rc": None,
                                  "work": out_dir, "skipped": True})
                    continue
                units.append(run_unit(root, out_dir, args.workload, part, seed, trace,
                                      min(UNIT_DEADLINE_S, left)))
        last_step_s = time.monotonic() - step_start

    untraced = [u for u in units if not u["trace"]]
    traced = [u for u in units if u["trace"]]
    attempted, failed, notes = tally(args.workload, units, bool(args.trace))
    e2e = end_to_end(args.workload, untraced)
    layers = per_layer(args.workload, traced, untraced) if args.trace else {}
    facts = host_facts()

    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} units {len(untraced)} untraced {len(traced)} traced")
    ops = sum(u["ops"] for u in untraced if completed(u))
    if e2e and args.workload == "certify":
        print(f"certs_per_s {1 / e2e['s_per_op']:.4f} 1/s  ({ops} certificates)")
    elif e2e:
        print(f"s_per_gen {e2e['s_per_op']:.4f} s  ({ops} generations)")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ratio  ({failed}/{attempted})")
    for name, (value, unit) in layers.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print("trace.overhead_ratio not measured (untraced run)")
    for note in notes:
        print(f"FAILED {note}")

    if args.trace:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    summary = {
        "correct": failed == 0 and bool(e2e),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"host": facts, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "end_to_end": e2e,
                   "per_layer": layers, "failures": notes, "summary": summary,
                   "units": [{k: v for k, v in u.items() if k != "checks"} for u in units]},
                  fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
