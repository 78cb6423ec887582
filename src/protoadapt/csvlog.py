"""Per-epoch CSV metric logging.

The header is written once, then each completed epoch appends and closes
one row, so a consumer tailing the file never blocks the trainer. A row
is an epoch's metrics dataclass, each field written as its ``repr``
(full round-trip precision) and ``None`` as an empty cell.
"""

import csv


def start(path, header):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)


def append(path, row):
    values = ["" if v is None else repr(v) for v in vars(row).values()]
    with open(path, "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(values)
