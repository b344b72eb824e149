"""Stub oracle process: answers invariant queries from a table file.

Table lines are ``n code invariant value`` separated by whitespace; ``#``
starts a comment.  Run as ``python -m rigidsearch.stub_oracle TABLE``, or as
a script, ``python -S <dir>/stub_oracle.py TABLE``, which is how
`oracle.stub_oracle_command` starts it: this module imports only `sys`, so
the script needs neither `site` nor rigidsearch on the path.
"""

from __future__ import annotations

import sys


def load_table(path: str) -> dict[tuple[int, int, str], int]:
    table: dict[tuple[int, int, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                n, code, invariant, value = line.split()
                table[(int(n), int(code), invariant.lower())] = int(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'n code invariant value' "
                                 f"with integer n, code and value, got {line!r}") from None
    return table


def serve(table: dict[tuple[int, int, str], int], stdin, stdout) -> None:
    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            invariant, n_str, code_str = line.split()
            key = (int(n_str), int(code_str), invariant.lower())
        except ValueError:
            stdout.write("ERR malformed request\n")
            stdout.flush()
            continue
        if key in table:
            stdout.write(f"OK {table[key]}\n")
        else:
            stdout.write("ERR unknown graph or invariant\n")
        stdout.flush()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m rigidsearch.stub_oracle TABLE", file=sys.stderr)
        return 2
    serve(load_table(argv[0]), sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
