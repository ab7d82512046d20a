import numpy as np
import pytest
from helpers import gen_synthetic, partition_dirichlet, save_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsvd import data, model
from fedsvd.data import Dataset, PartitionSpec


def test_gen_synthetic_deterministic():
    a = gen_synthetic(3, 8, 120, 2.0, seed=5)
    b = gen_synthetic(3, 8, 120, 2.0, seed=5)
    for da, db in zip(a, b):
        assert da.features.tobytes() == db.features.tobytes()
        assert da.labels.tobytes() == db.labels.tobytes()
    c = gen_synthetic(3, 8, 120, 2.0, seed=6)
    assert a[0].features.tobytes() != c[0].features.tobytes()


@pytest.mark.parametrize(
    "classes, feature_dim, size, seed", [(3, 64, 6000, 0), (32, 40, 1001, 3), (5, 7, 98, 11), (2, 2, 10, 7)]
)
def test_gen_synthetic_pinned_to_the_whole_block_expression(classes, feature_dim, size, seed):
    # oracle: every split is means[labels] + standard_normal((size, dim)),
    # drawn from gen_synthetic's own spawned streams
    margin = 2.5
    root = np.random.SeedSequence(entropy=(seed, 0x5D))
    r_dirs, *r_splits = [np.random.default_rng(s) for s in root.spawn(4)]
    basis, _ = np.linalg.qr(r_dirs.standard_normal((feature_dim, classes)))
    basis2, _ = np.linalg.qr(r_dirs.standard_normal((feature_dim, classes)))
    radius = margin / np.sqrt(2.0)
    means_pre = radius * basis.T
    rot = data.FINETUNE_ROTATION
    shift = data.FINETUNE_SHIFT * radius * r_dirs.standard_normal(feature_dim) / np.sqrt(feature_dim)
    means_fine = np.cos(rot) * np.roll(means_pre, 1, axis=0) + np.sin(rot) * (radius * basis2.T) + shift
    sizes = (size, size, max(classes, size // 4))
    got = gen_synthetic(classes, feature_dim, size, margin, seed)
    for ds, rng, means, n in zip(got, r_splits, (means_pre, means_fine, means_fine), sizes, strict=True):
        labels = rng.permutation(np.arange(n) % classes).astype(np.int64)
        feats = means[labels] + rng.standard_normal((n, feature_dim))
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.features, feats) and ds.features.tobytes() == feats.tobytes()


def test_gen_synthetic_shapes_and_balance():
    pre, fine, heldout = gen_synthetic(4, 10, 200, 3.0, seed=0)
    assert len(pre) == 200 and len(fine) == 200 and len(heldout) == 50
    assert pre.feature_dim == 10
    counts = np.bincount(fine.labels, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_gen_synthetic_zero_margin_is_chance_level():
    # No signal: a model fit on the data stays near 1/c accuracy.
    from fedsvd.lora import LoraLayer

    pre, fine, heldout = gen_synthetic(4, 8, 2000, 0.0, seed=1)
    weights = model.fit_dense_weights(
        fine.features, fine.labels, [8], 4, steps=150, lr=0.1, seed=0
    )
    clf = model.Classifier(
        layers=[LoraLayer(w0=weights[0], a=np.zeros((1, 8)), b=np.zeros((4, 1)), rank=1, alpha=1.0)],
        class_count=4,
    )
    acc, _ = model.evaluate(clf, heldout)
    assert abs(acc - 0.25) < 0.05


def test_gen_synthetic_large_margin_separable():
    pre, fine, heldout = gen_synthetic(3, 8, 1500, 6.0, seed=2)
    weights = model.fit_dense_weights(
        fine.features, fine.labels, [8], 3, steps=300, lr=0.2, seed=0
    )
    from fedsvd.lora import LoraLayer

    clf = model.Classifier(
        layers=[LoraLayer(w0=weights[0], a=np.zeros((1, 8)), b=np.zeros((3, 1)), rank=1, alpha=1.0)],
        class_count=3,
    )
    acc, _ = model.evaluate(clf, heldout)
    assert acc > 0.99


def test_gen_synthetic_finetune_differs_from_pretrain():
    pre, fine, _ = gen_synthetic(3, 16, 3000, 4.0, seed=3)
    mean_pre = np.stack([pre.features[pre.labels == c].mean(axis=0) for c in range(3)])
    mean_fine = np.stack([fine.features[fine.labels == c].mean(axis=0) for c in range(3)])
    # rotated/shifted, not identical distributions
    assert np.linalg.norm(mean_pre - mean_fine) > 1.0


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic(1, 8, 10, 1.0, 0)
    with pytest.raises(ValueError):
        gen_synthetic(4, 3, 10, 1.0, 0)


# --- partitioning ---


def make_labelled(n=600, c=3, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.standard_normal((n, d)),
        labels=rng.permutation(np.arange(n) % c),
        class_count=c,
    )


def test_partition_single_client_gets_everything():
    ds = make_labelled()
    parts = partition_dirichlet(ds, PartitionSpec(alpha=0.5, clients=1, seed=0))
    assert len(parts) == 1 and len(parts[0]) == len(ds)


def test_partition_disjoint_cover():
    ds = make_labelled(n=500)
    parts = partition_dirichlet(ds, PartitionSpec(alpha=0.5, clients=6, seed=4))
    assert sum(len(p) for p in parts) == len(ds)
    assert all(len(p) >= 1 for p in parts)
    # multiset equality of the union with the input
    all_rows = np.concatenate([p.features for p in parts])
    key = np.lexsort(all_rows.T)
    key0 = np.lexsort(ds.features.T)
    np.testing.assert_array_equal(all_rows[key], ds.features[key0])


@settings(max_examples=150, deadline=None)
@given(
    clients=st.integers(1, 12),
    class_sizes=st.lists(st.integers(0, 40), min_size=2, max_size=6),
    alpha=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_partition_cells_disjoint_and_covering_generated(clients, class_sizes, alpha, seed):
    # every class holds at least `clients` examples; feature 0 is the row id
    labels = np.repeat(np.arange(len(class_sizes)), [clients + s for s in class_sizes])
    labels = np.random.default_rng(seed).permutation(labels)
    ds = Dataset(
        features=np.arange(len(labels), dtype=np.float64)[:, None],
        labels=labels,
        class_count=len(class_sizes),
    )
    parts = partition_dirichlet(ds, PartitionSpec(alpha=alpha, clients=clients, seed=seed))
    assert len(parts) == clients
    assert all(len(p) >= 1 for p in parts)
    ids = np.concatenate([p.features[:, 0] for p in parts]).astype(np.int64)
    np.testing.assert_array_equal(np.sort(ids), np.arange(len(ds)))  # disjoint and covering
    for p in parts:
        np.testing.assert_array_equal(p.labels, ds.labels[p.features[:, 0].astype(np.int64)])


def test_partition_matches_drawn_proportions():
    ds = make_labelled(n=3000, c=3)
    spec = PartitionSpec(alpha=0.5, clients=6, seed=11)
    parts = partition_dirichlet(ds, spec)
    props = data.class_proportions(spec, ds.class_count)
    assert np.allclose(props.sum(axis=1), 1.0, atol=1e-12)
    for cls in range(ds.class_count):
        n_cls = int(np.sum(ds.labels == cls))
        got = np.array([int(np.sum(p.labels == cls)) for p in parts], dtype=float)
        # largest-remainder rounding moves each cell by less than 1 example
        assert np.max(np.abs(got - props[cls] * n_cls)) <= 1.0 + 1e-9


def test_partition_concentrated_alpha_is_near_uniform():
    # Dirichlet with huge alpha concentrates on equal proportions.
    for seed in range(20):
        ds = make_labelled(n=1200, c=3, seed=seed)
        parts = partition_dirichlet(
            ds, PartitionSpec(alpha=1e6, clients=4, seed=seed)
        )
        global_hist = np.bincount(ds.labels, minlength=3) / len(ds)
        for p in parts:
            hist = np.bincount(p.labels, minlength=3) / len(p)
            assert np.max(np.abs(hist - global_hist) / global_hist) < 0.1


def test_partition_deterministic():
    ds = make_labelled()
    spec = PartitionSpec(alpha=0.3, clients=5, seed=9)
    a = partition_dirichlet(ds, spec)
    b = partition_dirichlet(ds, spec)
    for pa, pb in zip(a, b):
        assert pa.features.tobytes() == pb.features.tobytes()
        assert pa.labels.tobytes() == pb.labels.tobytes()


def test_partition_rejects_too_small_classes():
    ds = make_labelled(n=10, c=5)
    with pytest.raises(ValueError):
        partition_dirichlet(ds, PartitionSpec(alpha=0.5, clients=6, seed=0))


def test_partition_empty_client_rebalance():
    # tiny alpha concentrates everything on few clients; rebalance must leave
    # every client with at least one example
    ds = make_labelled(n=60, c=3)
    for seed in range(10):
        parts = partition_dirichlet(
            ds, PartitionSpec(alpha=0.01, clients=6, seed=seed)
        )
        assert all(len(p) >= 1 for p in parts)
        assert sum(len(p) for p in parts) == len(ds)


# --- csv ---


def test_load_csv_two_rows(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("f0,f1,label\n1.0,2.0,cat\n3.5,-1.0,dog\n")
    ds = data.load_csv(p)
    assert len(ds) == 2
    assert ds.class_count == 2
    np.testing.assert_allclose(ds.features, [[1.0, 2.0], [3.5, -1.0]])
    np.testing.assert_array_equal(ds.labels, [0, 1])


def test_load_csv_label_column_position(tmp_path):
    p = tmp_path / "mid.csv"
    p.write_text("f0,label,f1\n1.0,x,2.0\n")
    ds = data.load_csv(p)
    np.testing.assert_allclose(ds.features, [[1.0, 2.0]])


def test_load_csv_nan_feature_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("f0,label\n1.0,a\nnan,b\n")
    with pytest.raises(data.CsvFormatError, match=":3:"):
        data.load_csv(p)


def test_load_csv_ragged_row_names_line(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("f0,f1,label\n1.0,2.0,a\n1.0,b\n")
    with pytest.raises(data.CsvFormatError, match=":3:"):
        data.load_csv(p)


def test_load_csv_non_numeric_feature(tmp_path):
    p = tmp_path / "alpha.csv"
    p.write_text("f0,label\noops,a\n")
    with pytest.raises(data.CsvFormatError, match=":2:"):
        data.load_csv(p)


def test_load_csv_missing_label_column(tmp_path):
    p = tmp_path / "nolabel.csv"
    p.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(data.CsvFormatError, match="label"):
        data.load_csv(p)


def test_csv_round_trip(tmp_path):
    _, fine, _ = gen_synthetic(3, 5, 60, 2.0, seed=8)
    p = tmp_path / "round.csv"
    save_csv(fine, p)
    back = data.load_csv(p)
    np.testing.assert_array_equal(back.features, fine.features)  # repr round-trips exactly
    # loader relabels by first appearance; compare through that mapping
    mapping = {}
    for y in fine.labels:
        mapping.setdefault(int(y), len(mapping))
    np.testing.assert_array_equal(back.labels, [mapping[int(y)] for y in fine.labels])
    assert back.class_count == fine.class_count
