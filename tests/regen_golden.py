"""Regenerate the golden `--help` files under tests/data/golden/.

    PYTHONPATH=src python tests/regen_golden.py

argparse wraps help to the terminal width, so every file is made with
COLUMNS=80.  A golden file changes only with a deliberate change of the
command line; say so in CHANGES.md when it does.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from unittest import mock

from rigidsearch import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
COMMANDS = ("search", "verify", "impact", "transfer-eval", "enumerate", "codec")
HELP_FILES = {f"help-{name}.txt": [name, "--help"] for name in COMMANDS}
HELP_FILES["help.txt"] = ["--help"]


def help_text(argv: list[str]) -> str:
    """What `rigidsearch *argv` prints on an 80-column terminal."""
    buf = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(buf), \
            contextlib.suppress(SystemExit):
        cli.main(argv)
    return buf.getvalue()


def main() -> int:
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in HELP_FILES.items():
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(help_text(argv))
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
