"""Oracle worker owned by the benchmark.

Speaks the rigidsearch oracle line protocol on stdin/stdout and answers every
request after a fixed service time, so the oracle-screened search blocks on
round trips the way it does against a real solver:

    -> SPHERE 10 206970129631
    <- OK 5782

Values are a deterministic function of (n, code) with
mbezout >= sphere >= plane >= 2, so the benchmark can check every value the
program receives or reports.  Malformed requests, unknown invariants and
codes that do not fit n vertices get an ERR line.

    python3 perfbench/oracle_worker.py [--stats-dir DIR]

With --stats-dir each worker writes {"requests": ..., "errors": ...} to
DIR/worker-<pid>.json when its input closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

SERVICE_S = 0.010
INVARIANTS = ("plane", "sphere", "mbezout")


def values(n: int, code: int) -> dict[str, int]:
    """The worker's answers for one graph, keyed by lower-case invariant."""
    digest = hashlib.blake2b(f"{n} {code}".encode(), digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    plane = 2 + h % 4096
    sphere = plane + (h >> 12) % 4096
    mbezout = sphere + (h >> 24) % 4096
    return {"plane": plane, "sphere": sphere, "mbezout": mbezout}


def reply(line: str) -> str:
    """The protocol line answering one request line (without newline)."""
    parts = line.split()
    if len(parts) != 3:
        return "ERR malformed request"
    invariant, n_str, code_str = parts
    try:
        n, code = int(n_str), int(code_str)
    except ValueError:
        return "ERR malformed request"
    invariant = invariant.lower()
    if invariant not in INVARIANTS:
        return f"ERR unknown invariant {parts[0]}"
    if n < 1 or not 0 <= code < 1 << (n * (n - 1) // 2):
        return "ERR code does not fit n vertices"
    return f"OK {values(n, code)[invariant]}"


def serve(stdin, stdout, service_s: float = SERVICE_S) -> dict[str, int]:
    """Answer request lines until stdin closes; returns request counts."""
    stats = {"requests": 0, "errors": 0}
    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        time.sleep(service_s)
        out = reply(line)
        stats["requests"] += 1
        stats["errors"] += out.startswith("ERR")
        stdout.write(out + "\n")
        stdout.flush()
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats-dir", help="write request counts here at exit")
    args = parser.parse_args(argv)
    stats = serve(sys.stdin, sys.stdout)
    if args.stats_dir:
        path = os.path.join(args.stats_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
