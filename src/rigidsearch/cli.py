"""Command-line interface: search, verify, impact, transfer-eval,
enumerate, codec.

Exit codes: 0 success, 1 domain error (guards, decode failures, unknown
oracle graphs), 2 usage or configuration error, 3 oracle transport or
protocol error.  Graph codes are decimal strings of arbitrary size.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys
import typing

# One BLAS thread, set before numpy is imported: a pool gains no wall time on
# the policy's small matmuls and burns another core.  A user's value wins.
# Only `search` and `transfer-eval` import numpy and yaml (through `cem`,
# `policy` and `--config`), inside the functions that need them, so the
# verification commands start without either.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .common import VARIANTS, write_csv
from .graphs import (Graph, automorphism_count, decode_int, encode_int, infer_n,
                     structural_report)
from .graphs import canonical_code  # unused here; perfbench/tracing.py resolves it
from .nac import count_nac
from .oracle import (INVARIANTS, ConfigError, OracleDomainError, OracleProtocolError,
                     OracleTransportError, open_oracle, oracle_query)
from .rewards import REWARDS, check_nac_bound, open_rewards
from .rigidity import (ONE, ZERO, enumerate_minimally_rigid,
                       enumerate_zero_ext_constructible, extension_impact,
                       is_minimally_rigid, peel_to_core, prop1_lower_bound)

VERIFY_CHECKS = ("rigid", "nac", "structure", "peel", "aut", "oracle")


def _decode_arg(code: int, n: int | None) -> Graph:
    if code < 0:
        raise ValueError(f"graph codes are non-negative, got {code}")
    if n is None:
        n = infer_n(code)
    return decode_int(code, n)


def _named_core(name: str) -> Graph:
    if name == "k33":
        return Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    m = re.fullmatch(r"k(\d+)", name)
    if m:
        return Graph.complete(int(m.group(1)))
    raise ConfigError(f"unknown core {name!r} (use k33 or k<j>)")


# ---------------------------------------------------------------------------
# search


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--oracle", help="oracle worker command line")
    group.add_argument("--oracle-table", help="serve oracle replies from this table file")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML config file (flags override it)")
    p.add_argument("--reward", choices=REWARDS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--generations", type=int)
    p.add_argument("--rho-elite", type=float)
    p.add_argument("--rho-surv", type=float)
    p.add_argument("--rho-main", type=float)
    p.add_argument("--eta0", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--early-stop", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--policy", choices=VARIANTS)
    _add_oracle_flags(p)
    p.add_argument("--oracle-procs", type=int)
    p.add_argument("--init-weights")
    p.add_argument("--out", help="run directory")
    p.add_argument("--target", type=int, help="stop once best reward reaches this")
    p.add_argument("--resume", help="checkpoint file to resume from")
    p.add_argument("--quiet", action="store_true", help="suppress per-generation lines")


def load_config_file(path: str) -> dict:
    """Flat YAML mapping restricted to the search configuration keys, each
    value of exactly its CemConfig field's type (an int also passes as a
    float, a bool never as an int)."""
    import yaml

    from .cem import CemConfig

    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: malformed config: {' '.join(str(exc).split())}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    hints = typing.get_type_hints(CemConfig)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        types = typing.get_args(hints[key]) or (hints[key],)
        if float in types:
            types = (int, *types)
        if type(value) not in types:
            want = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ConfigError(f"{path}: config key {key!r} must be {want}, got {value!r}")
    return data


def build_config(args):
    """The CemConfig of defaults, then config-file values, then explicit flags."""
    from .cem import CemConfig

    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for f in dataclasses.fields(CemConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    try:
        return CemConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_search(args) -> int:
    from . import cem

    cfg = build_config(args)
    log = None
    if not args.quiet:
        def log(s):
            print(f"t={s.t} best={s.best} cutoff={s.cutoff} new={s.new_noniso} "
                  f"eta={s.eta:.4f} evals={s.evals} sec={s.seconds:.1f}")
    result = cem.run(cfg, resume_from=args.resume, log=log)
    print(f"best {result.best_code.n} {result.best_code.code} {result.best_value}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    g = _decode_arg(args.code, args.n)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    bad = sorted(set(checks) - set(VERIFY_CHECKS))
    if bad:
        raise ConfigError(f"unknown checks: {', '.join(bad)} (have {', '.join(VERIFY_CHECKS)})")
    core = _named_core(args.core) if "peel" in checks else None
    oracle_flags = (args.oracle, args.oracle_table) if "oracle" in checks else ()
    with open_oracle(*oracle_flags) as oracle:
        if "oracle" in checks and oracle is None:
            raise ConfigError("check 'oracle' needs --oracle or --oracle-table")
        print(f"n {g.n}")
        print(f"edges {g.edge_count}")
        for check in checks:
            if check == "rigid":
                print(f"minimally_rigid {str(is_minimally_rigid(g)).lower()}")
            elif check == "nac":
                print(f"nac {count_nac(g)}")
            elif check == "structure":
                rep = structural_report(g)
                print(f"min_degree {rep.min_degree}")
                print(f"max_degree {rep.max_degree}")
                print(f"triangle_free {str(rep.triangle_free).lower()}")
                print(f"every_vertex_in_triangle {str(rep.every_vertex_in_triangle).lower()}")
                print(f"hamiltonian {str(rep.hamiltonian).lower()}")
                print(f"chromatic_number {rep.chromatic_number}")
            elif check == "peel":
                ok, witness = peel_to_core(g, core)
                trail = "" if not ok else " " + ",".join(map(str, witness))
                print(f"peel_{args.core} {str(ok).lower()}{trail}")
            elif check == "aut":
                print(f"automorphisms {automorphism_count(g)}")
            elif check == "oracle":
                for inv in INVARIANTS:
                    try:
                        print(f"{inv} {oracle_query(oracle, inv, g)}")
                    except OracleDomainError:
                        print(f"{inv} unavailable")
    return 0


# ---------------------------------------------------------------------------
# impact


def cmd_impact(args) -> int:
    g = _decode_arg(args.code, args.n)
    kinds = {"zero": (ZERO,), "one": (ONE,), "both": (ZERO, ONE)}[args.kinds]
    check_nac_bound(args.reward, g.edge_count + 2)  # every child's |E|
    with open_rewards(args.reward, oracle=args.oracle, table=args.oracle_table) as (reward, _):
        result = extension_impact(g, reward, kinds)
    if args.out:
        write_csv(args.out, ("n", "code", "kind", "value"),
                  ((g.n + 1, row.code, row.kind, row.value) for row in result.rows))
    print(f"children {len(result.rows)}")
    print(f"best {result.best_code.n} {result.best_code.code} {result.best_value}")
    return 0


# ---------------------------------------------------------------------------
# transfer-eval


def cmd_transfer_eval(args) -> int:
    from . import cem
    from .policy import load_params

    cem.check_deploy(args.n, args.count, args.patience)
    check_nac_bound(args.reward, 2 * args.n - 3)
    params = load_params(args.weights)
    with open_rewards(args.reward, oracle=args.oracle, table=args.oracle_table) as (reward, _):
        result = cem.deploy_eval(params, args.n, reward, count=args.count,
                                 seed=args.seed, patience=args.patience)
    if args.hist_out:
        write_csv(args.hist_out, ("value", "count"), sorted(result.histogram.items()))
        print(f"histogram {args.hist_out}")
    print(f"distinct {result.distinct}")
    print(f"saturated {str(not result.complete).lower()}")
    print(f"best {result.best_code.n} {result.best_code.code} {result.best_value}")
    return 0


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    if args.mode == "all":
        codes = enumerate_minimally_rigid(args.n)
        print(f"count {len(codes)}")
        if args.emit:
            with open(args.emit, "w", encoding="utf-8") as fh:
                for cc in sorted(codes):
                    fh.write(f"{cc.n} {cc.code}\n")
            print(f"emitted {args.emit}")
    else:
        if args.emit:
            raise ConfigError("--emit is only available with --mode all")
        count = enumerate_zero_ext_constructible(args.n)
        bound = prop1_lower_bound(args.n)
        print(f"count {count}")
        print(f"prop1_bound {bound.numerator}/{bound.denominator}")
        print(f"bound_holds {str(count >= bound).lower()}")
    return 0


# ---------------------------------------------------------------------------
# codec


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.replace("-", ",").split(",")
    if len(parts) != 2:
        raise ValueError(f"edges look like 'v,w', got {text!r}")
    return int(parts[0]), int(parts[1])


def cmd_codec(args) -> int:
    if args.action == "decode":
        g = _decode_arg(int(args.value), args.n)
        print(f"n {g.n}")
        for v, w in g.edges():
            print(f"{v} {w}")
    else:
        if args.n is None:
            raise ConfigError("encode needs --n")
        g = Graph.from_edges(args.n, [_parse_edge(e) for e in [args.value, *args.edges]])
        print(encode_int(g))
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


# Built once per process: parse_args keeps no state between calls, and
# set_defaults(func=cmd_*) binds the command functions at this first build,
# so patching a cmd_* afterwards would not reach main (nothing does).
@functools.cache
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rigidsearch",
        description="Search and verification for minimally rigid graphs "
                    "maximizing realization and NAC-coloring counts.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the cross-entropy search")
    _add_search_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="decode a certificate and run checks")
    p.add_argument("code", type=int, help="graph code (decimal)")
    p.add_argument("--n", type=int, help="vertex count (default: inferred)")
    p.add_argument("--checks", default="rigid",
                   help=f"comma list from: {', '.join(VERIFY_CHECKS)}")
    p.add_argument("--core", default="k33", help="target core for the peel check")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("impact", help="evaluate a reward on every extension child")
    p.add_argument("code", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--reward", default="nac", choices=REWARDS)
    p.add_argument("--kinds", default="both", choices=("zero", "one", "both"))
    p.add_argument("--out", help="write the per-child CSV here")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_impact)

    p = sub.add_parser("transfer-eval", help="deploy trained weights at another size")
    p.add_argument("weights", help="policy weight file")
    p.add_argument("--n", type=int, required=True, help="target vertex count")
    p.add_argument("--reward", default="nac", choices=REWARDS)
    p.add_argument("--count", type=int, default=10000,
                   help="distinct isomorphism classes to collect")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--patience", type=int, default=5000)
    p.add_argument("--hist-out", help="write the value histogram CSV here")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_transfer_eval)

    p = sub.add_parser("enumerate", help="count minimally rigid classes")
    p.add_argument("n", type=int)
    p.add_argument("--mode", default="all", choices=("all", "zero-only"))
    p.add_argument("--emit", help="write 'n code' lines here")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("codec", help="convert between codes and edge lists")
    p.add_argument("action", choices=("decode", "encode"))
    p.add_argument("value", help="code to decode, or first edge to encode")
    p.add_argument("edges", nargs="*", help="remaining edges as 'v,w'")
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_codec)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleTransportError, OracleProtocolError) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 3
    except (OracleDomainError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
