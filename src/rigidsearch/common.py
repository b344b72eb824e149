"""What the search and the verification commands share without numpy: the
policy variants the command line offers as choices, and the CSV writer.
`verify`, `impact`, `codec` and `enumerate` import only numpy-free modules,
so they start without loading numpy."""

from __future__ import annotations

import csv

GIN_VARIANT = "gin"
FLAT_VARIANT = "flat-mlp"
VARIANTS = (GIN_VARIANT, FLAT_VARIANT)


def write_csv(path: str, header, rows) -> None:
    """One header row, then the rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
