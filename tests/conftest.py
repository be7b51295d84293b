import os
import struct
from pathlib import Path

import numpy as np
import pytest

from lcsnn import data as datamod

MNIST_SEARCH = [os.environ.get("MNIST_DIR", ""), "/root/mnist", "./data/mnist"]


def pytest_addoption(parser):
    parser.addoption(
        "--run-longrun",
        action="store_true",
        default=False,
        help="run the full-scale reproduction tests (hours)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-longrun"):
        return
    skip = pytest.mark.skip(reason="long-run reproduction; enable with --run-longrun")
    for item in items:
        if "longrun" in item.keywords:
            item.add_marker(skip)


def mnist_root() -> Path | None:
    for root in MNIST_SEARCH:
        if root and Path(root).is_dir():
            try:
                datamod.find_idx_file(root, "train-images-idx3-ubyte")
                return Path(root)
            except FileNotFoundError:
                continue
    return None


@pytest.fixture(scope="session")
def mnist_dir() -> Path:
    root = mnist_root()
    if root is None:
        pytest.skip("MNIST IDX files not found; set MNIST_DIR")
    return root


@pytest.fixture(scope="session")
def mnist_train(mnist_dir) -> datamod.Dataset:
    return datamod.load_mnist_split(mnist_dir, "train")


@pytest.fixture(scope="session")
def mnist_test(mnist_dir) -> datamod.Dataset:
    return datamod.load_mnist_split(mnist_dir, "test")


def make_blob_dataset(n: int, side: int, n_classes: int, seed: int) -> datamod.Dataset:
    """Synthetic stand-in stimuli: one bright class-specific blob per image."""
    rng = np.random.default_rng(seed)
    images = np.zeros((n, side, side), dtype=np.uint8)
    labels = np.arange(n, dtype=np.int64) % n_classes
    hi = max(2, side - 5)
    spots = [
        (int(r), int(c))
        for r, c in zip(rng.integers(1, hi, size=n_classes), rng.integers(1, hi, size=n_classes))
    ]
    for i in range(n):
        r, c = spots[labels[i]]
        images[i, r : r + 5, c : c + 5] = 255
        noise = rng.integers(0, 32, size=(side, side), dtype=np.uint8)
        images[i] = np.maximum(images[i], noise)
    return datamod.Dataset(images=images, labels=labels, class_count=n_classes)


def write_idx_images(path: str | Path, images: np.ndarray) -> None:
    images = np.ascontiguousarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", datamod.IMAGE_MAGIC, n, h, w))
        f.write(images.tobytes())


def write_idx_labels(path: str | Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", datamod.LABEL_MAGIC, labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())
