"""Per-round metrics rows and their CSV serialization.

The column set and order are part of the external interface; floats are
written with repr so equal runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

CSV_HEADER = (
    "run_id,seed,strategy,round,eval_accuracy,eval_loss,"
    "epsilon_spent,uploaded_params,downloaded_params,wall_ms"
)


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


def format_row(row: MetricsRow) -> str:
    eps = "" if row.epsilon_spent is None else repr(float(row.epsilon_spent))
    return ",".join(
        [
            row.run_id,
            str(row.seed),
            row.strategy,
            str(row.round),
            repr(float(row.eval_accuracy)),
            repr(float(row.eval_loss)),
            eps,
            str(row.uploaded_params),
            str(row.downloaded_params),
            str(row.wall_ms),
        ]
    )


def write_csv(path, rows: list[MetricsRow], append: bool = False) -> None:
    """Write the header and `rows` to `path`, or add `rows` to its end."""
    with open(path, "a" if append else "w", encoding="utf-8", newline="\n") as fh:
        if not append:
            fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")
