import gzip
import struct

import numpy as np
import pytest

from lcsnn.data import (
    IMAGE_MAGIC,
    Dataset,
    IdxFormatError,
    build_xor_mnist,
    center_crop,
    filter_classes,
    load_idx,
    read_idx,
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
    assert (read_idx(gz, IMAGE_MAGIC) == images).all()


def test_bad_magic_raises(tmp_path, synthetic_idx):
    ipath, lpath, *_ = synthetic_idx
    bad = tmp_path / "bad"
    raw = bytearray(ipath.read_bytes())
    raw[3] = 0x02  # 0x00000802
    bad.write_bytes(raw)
    with pytest.raises(IdxFormatError, match="bad magic"):
        read_idx(bad, IMAGE_MAGIC)
    with pytest.raises(IdxFormatError, match="bad magic"):
        load_idx(lpath, lpath)  # label magic where an image file is expected


def test_truncated_file_raises(tmp_path, synthetic_idx):
    ipath, *_ = synthetic_idx
    cut = tmp_path / "cut"
    cut.write_bytes(ipath.read_bytes()[:100])
    with pytest.raises(IdxFormatError, match="holds 84 of the 2430 data bytes"):
        read_idx(cut, IMAGE_MAGIC)
    cut.write_bytes(ipath.read_bytes()[:10])
    with pytest.raises(IdxFormatError, match="ends inside its 16-byte header"):
        read_idx(cut, IMAGE_MAGIC)
    gz = tmp_path / "cut.gz"
    gz.write_bytes(gzip.compress(ipath.read_bytes())[:-30])
    with pytest.raises(IdxFormatError, match="end-of-stream"):
        read_idx(gz, IMAGE_MAGIC)


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_header_claiming_more_images_than_the_file_holds(tmp_path, suffix):
    # read in bounded pieces, so the claim never sizes an allocation
    raw = struct.pack(">IIII", IMAGE_MAGIC, 2**32 - 1, 28, 28) + bytes(28 * 28)
    path = tmp_path / ("huge" + suffix)
    path.write_bytes(gzip.compress(raw) if suffix else raw)
    with pytest.raises(IdxFormatError, match="holds 784 of the 3367254359280 data bytes"):
        read_idx(path, IMAGE_MAGIC)


def test_count_mismatch_raises(tmp_path, synthetic_idx):
    ipath, _, _, labels = synthetic_idx
    short = tmp_path / "short_labels"
    write_idx_labels(short, labels[:10])
    with pytest.raises(IdxFormatError, match="30 images .* but 10 labels"):
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
    # digit d draws its pixels from [128 d, 128 d + 128), so each half of a
    # composed image tells which digit it came from
    rng = np.random.default_rng(3)
    labels = (np.arange(n) % 2).astype(np.int64)
    images = rng.integers(0, 128, size=(n, 28, 28), dtype=np.uint8) + 128 * labels[:, None, None]
    return Dataset(images=images.astype(np.uint8), labels=labels, class_count=10)


def test_xor_composition_labels_and_geometry():
    src = _mini_mnist()
    xor = build_xor_mnist(src, 40, np.random.default_rng(1))
    assert xor.images.shape == (40, 40, 40)
    assert xor.class_count == 2
    # digits occupy the vertically centered band, side by side
    assert not xor.images[:, :10, :].any() and not xor.images[:, 30:, :].any()
    halves = xor.images[:, 10:30, :20], xor.images[:, 10:30, 20:]
    a, b = (half.min(axis=(1, 2)) >= 128 for half in halves)
    for half, digit in zip(halves, (a, b)):  # each half holds one whole source digit
        assert ((half >= 128) == digit[:, None, None]).all()
    # the label is the XOR of the two source digits
    assert (np.bitwise_xor(a, b) == xor.labels).all()
    # round-robin balance: the four patterns in turn, 10 of each
    assert [(int(x), int(y)) for x, y in zip(a, b)] == [(0, 0), (0, 1), (1, 0), (1, 1)] * 10


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
