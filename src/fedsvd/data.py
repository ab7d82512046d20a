"""Synthetic splits, Dirichlet non-iid partitioning, CSV loading.

The synthetic task is Gaussian class clusters at configurable separation.
The fine-tuning distribution is a rotated and shifted variant of the
pre-training one, so a backbone trained on the pre-training split is useful
but imperfect on the fine-tuning data. Partitioning follows the per-class
label-skew convention: each class's examples are split across clients by
proportions drawn from Dirichlet(alpha * 1_K). It reads the labels alone,
so the features can follow, chunk by chunk, straight into the shards.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

# Fine-tuning distribution: class means are cyclically permuted (the
# backbone still resolves every cluster but assigns it to the wrong class),
# tilted toward fresh directions by a small angle, and globally shifted.
FINETUNE_ROTATION = 0.1
FINETUNE_SHIFT = 0.05

# Rows per draw of a split's features: a chunked standard_normal continues
# its stream exactly as one whole-block draw would, so it changes no value.
CHUNK_ROWS = 512


class CsvFormatError(ValueError):
    """Malformed dataset file; the message carries the offending line."""


@dataclass
class Dataset:
    features: np.ndarray  # n x d, float64
    labels: np.ndarray    # n, int64 in [0, class_count)
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels disagree in length")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite entries")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError(f"labels outside [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class PartitionSpec:
    alpha: float
    clients: int
    seed: int

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")


def _rows(rng, means, labels):
    for start in range(0, len(labels), CHUNK_ROWS):
        part = labels[start : start + CHUNK_ROWS]
        chunk = rng.standard_normal((len(part), means.shape[1]))
        for cls, mean in enumerate(means):  # in place: no (rows, dim) means[labels]
            chunk[part == cls] += mean
        yield start, chunk


def synthetic_split(split: int, class_count: int, feature_dim: int, size: int, margin: float, seed: int):
    """Split `split` (0 pretrain, 1 finetune, 2 eval) of the synthetic task
    as (labels, rows): `rows` draws the features on demand, yielding (start,
    the rows from start on) CHUNK_ROWS rows at a time, in order.

    Class means sit margin apart (in units of the unit cluster deviation) on
    orthonormal directions. The fine-tuning means are the pre-training means
    rotated toward fresh directions and shifted, and the eval split is drawn
    from the fine-tuning distribution. The eval split holds size // 4
    examples (at least one per class), the others size. Each split draws
    from its own stream of seed, so drawing one, or none, changes no other.
    """
    if class_count < 2:
        raise ValueError(f"need at least 2 classes, got {class_count}")
    if feature_dim < class_count:
        raise ValueError(f"feature_dim {feature_dim} < class_count {class_count}")
    if margin < 0.0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    root = np.random.SeedSequence(entropy=(int(seed), 0x5D))
    r_dirs, *r_splits = [np.random.default_rng(s) for s in root.spawn(4)]

    basis, _ = np.linalg.qr(r_dirs.standard_normal((feature_dim, class_count)))
    basis2, _ = np.linalg.qr(r_dirs.standard_normal((feature_dim, class_count)))
    radius = margin / np.sqrt(2.0)  # pairwise mean distance = margin
    means_pre = radius * basis.T
    fresh = radius * basis2.T
    permuted = np.roll(means_pre, 1, axis=0)
    cos, sin = np.cos(FINETUNE_ROTATION), np.sin(FINETUNE_ROTATION)
    shift = FINETUNE_SHIFT * radius * r_dirs.standard_normal(feature_dim) / np.sqrt(feature_dim)
    means_fine = cos * permuted + sin * fresh + shift

    rng, n = r_splits[split], (size, size, max(class_count, size // 4))[split]
    labels = rng.permutation(np.arange(n) % class_count).astype(np.int64)
    return labels, _rows(rng, (means_pre, means_fine, means_fine)[split], labels)


def split_dataset(labels: np.ndarray, rows, class_count: int, feature_dim: int) -> Dataset:
    """The split (labels, rows), as synthetic_split gives it, drawn whole."""
    features = np.empty((len(labels), feature_dim))
    for start, chunk in rows:
        features[start : start + len(chunk)] = chunk
    return Dataset(features, labels, class_count)


def shard_tables(labels: np.ndarray, rows, cells: list[np.ndarray], class_count: int, feature_dim: int) -> list[np.ndarray]:
    """Cell k of the split (labels, rows) as a [features | one-hot labels]
    table whose row i is the split's row cells[k][i]. The features are
    written chunk by chunk as `rows` yields them: the split is never whole."""
    owner, tables = np.empty(len(labels), dtype=np.int64), []
    slot = np.empty_like(owner)
    for k, cell in enumerate(cells):
        owner[cell], slot[cell] = k, np.arange(len(cell))
        tables.append(np.zeros((len(cell), feature_dim + class_count)))
        tables[k][np.arange(len(cell)), feature_dim + labels[cell]] = 1.0
    for start, chunk in rows:
        span = slice(start, start + len(chunk))
        for k, table in enumerate(tables):
            mine = owner[span] == k
            table[slot[span][mine], :feature_dim] = chunk[mine]
    return tables


def class_proportions(spec: PartitionSpec, class_count: int) -> np.ndarray:
    """Per-class Dirichlet client proportions, shape (class_count, clients).

    Uses its own seed stream so callers can re-derive the exact draws that
    partition_cells consumed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, 0xD1)))
    return rng.dirichlet(np.full(spec.clients, spec.alpha), size=class_count)


def _largest_remainder(targets: np.ndarray, total: int) -> np.ndarray:
    base = np.floor(targets).astype(np.int64)
    leftover = total - int(base.sum())
    fractions = targets - base
    order = np.argsort(-fractions, kind="stable")
    base[order[:leftover]] += 1
    return base


def partition_cells(labels: np.ndarray, class_count: int, spec: PartitionSpec) -> list[np.ndarray]:
    """Split the row indices of a split with these labels across clients by
    per-class Dirichlet proportions.

    Each class's (shuffled) rows are divided by largest-remainder rounding
    of the drawn proportions. The cells are disjoint and cover the rows; a
    client that would end up empty receives one row moved from the largest
    cell.
    """
    counts = np.bincount(labels, minlength=class_count)
    if counts.min() < spec.clients:
        raise ValueError(
            f"every class needs at least {spec.clients} examples, "
            f"smallest class has {int(counts.min())}"
        )
    props = class_proportions(spec, class_count)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, 0xD2)))

    cells: list[list[np.ndarray]] = [[] for _ in range(spec.clients)]
    for cls in range(class_count):
        idx = shuffle_rng.permutation(np.nonzero(labels == cls)[0])
        sizes = _largest_remainder(props[cls] * len(idx), len(idx))
        cuts = np.cumsum(sizes)[:-1]
        for client, chunk in enumerate(np.split(idx, cuts)):
            cells[client].append(chunk)
    merged = [
        np.concatenate(chunks) if chunks else np.array([], dtype=np.int64)
        for chunks in cells
    ]
    # Weighted aggregation needs n_k >= 1 for every participant.
    while any(len(c) == 0 for c in merged):
        empty = next(i for i, c in enumerate(merged) if len(c) == 0)
        donor = int(np.argmax([len(c) for c in merged]))
        merged[empty] = merged[donor][-1:]
        merged[donor] = merged[donor][:-1]
    return merged


def load_csv(path) -> Dataset:
    """Parse a dataset file: header row, float feature columns, one "label" column.

    Labels are mapped to contiguous class indices in order of first
    appearance. Ragged rows and non-finite features fail with the line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise CsvFormatError(f"{path}: header has no 'label' column: {header}")
        label_col = header.index("label")
        feature_cols = [i for i in range(len(header)) if i != label_col]

        rows: list[list[float]] = []
        labels_raw: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            feats = []
            for i in feature_cols:
                try:
                    val = float(row[i])
                except ValueError:
                    raise CsvFormatError(
                        f"{path}:{lineno}: non-numeric feature {row[i]!r} "
                        f"in column {header[i]!r}"
                    ) from None
                if not np.isfinite(val):
                    raise CsvFormatError(
                        f"{path}:{lineno}: non-finite feature {row[i]!r} "
                        f"in column {header[i]!r}"
                    )
                feats.append(val)
            rows.append(feats)
            labels_raw.append(row[label_col].strip())

    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    mapping: dict[str, int] = {}
    labels = np.empty(len(labels_raw), dtype=np.int64)
    for i, token in enumerate(labels_raw):
        if token not in mapping:
            mapping[token] = len(mapping)
        labels[i] = mapping[token]
    return Dataset(
        features=np.array(rows, dtype=np.float64),
        labels=labels,
        class_count=len(mapping),
    )
