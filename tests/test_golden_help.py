"""`--help` of the top level and of every subcommand, byte for byte against
the committed files under tests/data/golden/ (made with Python 3.11's
argparse on an 80-column terminal)."""

import os

import pytest

from regen_golden import GOLDEN, HELP_FILES, help_text


@pytest.mark.parametrize("name", sorted(HELP_FILES))
def test_help_matches_golden_file(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert help_text(HELP_FILES[name]) == want, (
        f"`rigidsearch {' '.join(HELP_FILES[name])}` differs from tests/data/golden/{name}. "
        "If the command line changed on purpose, regenerate the files with "
        "`PYTHONPATH=src python tests/regen_golden.py` and say so in CHANGES.md; "
        "argparse's layout also differs between Python versions.")
