import gzip


import numpy as np
import pytest

from lcsnn.data import (
    Dataset,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    build_xor_mnist,
    center_crop,
    filter_classes,
    load_idx,
    read_idx_images,
)
from tests.conftest import write_idx_images, write_idx_labels


@pytest.fixture
def synthetic_idx(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(30, 9, 9), dtype=np.uint8)
    labels = (np.arange(30) % 4).astype(np.int64)
    ipath, lpath = tmp_path / "imgs", tmp_path / "labs"
    write_idx_images(ipath, images)
    write_idx_labels(lpath, labels)
    return ipath, lpath, images, labels


def test_idx_round_trip_is_bit_identical(synthetic_idx):
    ipath, lpath, images, labels = synthetic_idx
    ds = load_idx(ipath, lpath, class_count=4)
    assert (ds.images == images).all()
    assert (ds.labels == labels).all()
    assert ds.images.dtype == np.uint8


def test_gzip_transparency(tmp_path, synthetic_idx):
    ipath, _, images, _ = synthetic_idx
    gz = tmp_path / "imgs.gz"
    gz.write_bytes(gzip.compress(ipath.read_bytes()))
    assert (read_idx_images(gz) == images).all()


def test_bad_magic_raises(tmp_path, synthetic_idx):
    ipath, lpath, *_ = synthetic_idx
    bad = tmp_path / "bad"
    raw = bytearray(ipath.read_bytes())
    raw[3] = 0x02  # 0x00000802
    bad.write_bytes(raw)
    with pytest.raises(IdxMagicError):
        read_idx_images(bad)
    with pytest.raises(IdxMagicError):
        load_idx(lpath, lpath)  # label magic where an image file is expected


def test_truncated_file_raises(tmp_path, synthetic_idx):
    ipath, *_ = synthetic_idx
    cut = tmp_path / "cut"
    cut.write_bytes(ipath.read_bytes()[:100])
    with pytest.raises(IdxTruncatedError):
        read_idx_images(cut)


def test_count_mismatch_raises(tmp_path, synthetic_idx):
    ipath, _, _, labels = synthetic_idx
    short = tmp_path / "short_labels"
    write_idx_labels(short, labels[:10])
    with pytest.raises(IdxCountMismatchError):
        load_idx(ipath, short)


def test_center_crop_arithmetic():
    images = np.arange(28 * 28, dtype=np.uint8).reshape(1, 28, 28)
    ds = Dataset(images=images, labels=np.zeros(1, dtype=np.int64), class_count=10)
    out = center_crop(ds, 22)
    assert out.images.shape == (1, 22, 22)
    assert out.images[0, 0, 0] == images[0, 3, 3]
    same = center_crop(ds, 28)
    assert (same.images == images).all()
    with pytest.raises(ValueError):
        center_crop(ds, 30)


def test_center_crop_preserves_border_padded_content():
    images = np.zeros((1, 28, 28), dtype=np.uint8)
    images[0, 10:18, 9:20] = 200
    ds = Dataset(images=images, labels=np.zeros(1, dtype=np.int64), class_count=10)
    out = center_crop(ds, 22)
    assert int(out.images.sum()) == int(images.sum())


def test_filter_classes():
    images = np.zeros((12, 4, 4), dtype=np.uint8)
    labels = np.arange(12, dtype=np.int64) % 4
    ds = Dataset(images=images, labels=labels, class_count=4)
    sub = filter_classes(ds, [1, 3])
    assert sorted(set(sub.labels.tolist())) == [1, 3]
    assert len(sub) == 6
    rel = filter_classes(ds, [1, 3], relabel=True)
    assert sorted(set(rel.labels.tolist())) == [0, 1]
    assert rel.class_count == 2
    only = filter_classes(ds, [2], relabel=True)
    assert (only.labels == 0).all()
    assert len(filter_classes(ds, [0, 1, 2, 3])) == 12
    with pytest.raises(ValueError):
        filter_classes(ds, [])
    with pytest.raises(ValueError):
        filter_classes(ds, [9])


def _mini_mnist(n=40):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    labels = (np.arange(n) % 2).astype(np.int64)
    return Dataset(images=images, labels=labels, class_count=10)


def test_xor_composition_labels_and_geometry():
    src = _mini_mnist()
    xor = build_xor_mnist(src, 40, np.random.default_rng(1))
    assert xor.images.shape == (40, 40, 40)
    assert xor.class_count == 2
    # stored pattern metadata must recompute the stored label
    assert (np.bitwise_xor(xor.patterns[:, 0], xor.patterns[:, 1]) == xor.labels).all()
    # round-robin balance: 10 of each pattern
    pats = [tuple(p) for p in xor.patterns]
    assert all(pats.count(p) == 10 for p in [(0, 0), (0, 1), (1, 0), (1, 1)])
    # (0,0) -> 0 and (1,0) -> 1
    assert xor.labels[pats.index((0, 0))] == 0
    assert xor.labels[pats.index((1, 0))] == 1
    # digits occupy the vertically centered band, side by side
    assert not xor.images[:, :10, :].any() and not xor.images[:, 30:, :].any()


def test_xor_composition_is_deterministic():
    src = _mini_mnist()
    a = build_xor_mnist(src, 20, np.random.default_rng(9))
    b = build_xor_mnist(src, 20, np.random.default_rng(9))
    assert (a.images == b.images).all() and (a.labels == b.labels).all()


def test_xor_requires_both_digits():
    images = np.zeros((5, 28, 28), dtype=np.uint8)
    ds = Dataset(images=images, labels=np.full(5, 2, dtype=np.int64), class_count=10)
    with pytest.raises(ValueError):
        build_xor_mnist(ds, 8, np.random.default_rng(0))


# --- real-dataset checks (skipped when MNIST is absent) ---------------------


def test_real_mnist_shapes(mnist_train, mnist_test):
    assert mnist_train.images.shape == (60000, 28, 28)
    assert mnist_test.images.shape == (10000, 28, 28)
    assert mnist_train.class_count == 10


def test_real_mnist_binary_subset_count(mnist_train):
    sub = filter_classes(mnist_train, [0, 1])
    assert len(sub) == 12665


def test_real_mnist_crop_preserves_mass(mnist_train):
    # Digit ink is centered by mass, so antialiased strokes can reach the
    # 3-px border: measured on the real train split, the crop keeps ~98.9%
    # of total ink, the median image loses nothing, and 93% of images lose
    # under 5%.  Assert those measured-true margins.
    imgs = mnist_train.images
    total = imgs.reshape(len(imgs), -1).astype(np.int64).sum(axis=1)
    cropped = imgs[:, 3:25, 3:25].reshape(len(imgs), -1).astype(np.int64).sum(axis=1)
    loss = (total - cropped) / np.maximum(total, 1)
    assert cropped.sum() / total.sum() >= 0.98
    assert float(np.median(loss)) == 0.0
    assert float(np.mean(loss < 0.05)) >= 0.90
