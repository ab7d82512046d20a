"""CSV rows: the per-round metrics record and the one row format every CSV
of the package uses (run's metrics, verify's margins).

A record's header is its dataclass field names in declaration order. A
field declared `float` or `float | None` is written with repr (an empty
field for None), so equal runs produce byte-identical files; any other
field with str. The metrics column set and order are part of the external
interface.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class MetricsRow:
    run_id: str
    seed: int
    strategy: str
    round: int
    eval_accuracy: float
    eval_loss: float
    epsilon_spent: float | None  # None in non-private runs -> empty field
    uploaded_params: int
    downloaded_params: int
    wall_ms: int


def _float_field(value) -> str:
    return "" if value is None else repr(float(value))


@functools.cache
def _columns(record_type) -> tuple[tuple[str, object], ...]:
    """(name, formatter) of each field of `record_type`, in declaration order."""
    return tuple(
        (f.name, _float_field if f.type in ("float", "float | None") else str)
        for f in fields(record_type)
    )


def header(record_type) -> str:
    return ",".join(name for name, _ in _columns(record_type))


CSV_HEADER = header(MetricsRow)


def format_row(row) -> str:
    return ",".join([fmt(getattr(row, name)) for name, fmt in _columns(type(row))])


def write_csv(path, rows: list, append: bool = False) -> None:
    """Write the header of the rows' record type and `rows` to `path`, or
    add `rows` to its end."""
    with open(path, "a" if append else "w", encoding="utf-8", newline="\n") as fh:
        if not append:
            fh.write(header(type(rows[0])) + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")
