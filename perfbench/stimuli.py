"""Synthetic stimuli for the benchmark, generated from the run seed alone.

Blob images stand in for cropped MNIST digits: each class owns one bright
5x5 blob at a fixed position on a dim uniform-noise background, which
gives about 1.4% of pixels spiking per tick, close to MNIST.  Class blob
positions are drawn without replacement from a non-overlapping grid, so
every class stays distinguishable whatever the seed.

The XOR workload composes 40x40 two-digit images with the package's own
``data.build_xor_mnist`` from a synthetic two-class 28x28 source (a ring
for digit 0, a bar for digit 1, each jittered by up to two pixels).
"""

from __future__ import annotations

import numpy as np

from lcsnn import data as datamod

BLOB = 5
NOISE_MAX = 32  # exclusive bound of the background intensity
SOURCE_SIDE = 28

# seed-sequence keys of the generator's independent streams
KEY_BLOB_SPOTS = 0
KEY_TRAIN = 1
KEY_TEST = 2
KEY_XOR_SOURCE_TRAIN = 3
KEY_XOR_SOURCE_TEST = 4


def stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def blob_spots(side: int, n_classes: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Top-left corners of one non-overlapping blob per class."""
    starts = range(1, side - BLOB, BLOB)
    grid = [(r, c) for r in starts for c in starts]
    if n_classes > len(grid):
        raise ValueError(f"{n_classes} classes do not fit on a {side}x{side} blob grid")
    return [grid[i] for i in rng.permutation(len(grid))[:n_classes]]


def blob_dataset(
    n: int, side: int, spots: list[tuple[int, int]], rng: np.random.Generator
) -> datamod.Dataset:
    """Balanced set with labels cycling 0..n_classes-1."""
    n_classes = len(spots)
    labels = np.arange(n, dtype=np.int64) % n_classes
    images = rng.integers(0, NOISE_MAX, size=(n, side, side), dtype=np.uint8)
    for i, label in enumerate(labels):
        r, c = spots[label]
        images[i, r : r + BLOB, c : c + BLOB] = 255
    return datamod.Dataset(images=images, labels=labels, class_count=n_classes)


def _digit(label: int, rng: np.random.Generator) -> np.ndarray:
    img = rng.integers(0, NOISE_MAX, size=(SOURCE_SIDE, SOURCE_SIDE), dtype=np.uint8)
    cy, cx = SOURCE_SIDE // 2 + rng.integers(-2, 3, size=2)
    yy, xx = np.mgrid[:SOURCE_SIDE, :SOURCE_SIDE]
    if label == 0:
        radius = np.hypot(yy - cy, xx - cx)
        stroke = (radius >= 4.5) & (radius < 6.5)
    else:
        stroke = (np.abs(xx - cx) <= 1) & (np.abs(yy - cy) <= 7)
    img[stroke] = 255
    return img


def xor_source(n: int, rng: np.random.Generator) -> datamod.Dataset:
    """Two-class 28x28 stand-in for the MNIST digit-0 and digit-1 pools."""
    labels = np.arange(n, dtype=np.int64) % 2
    images = np.stack([_digit(int(label), rng) for label in labels])
    return datamod.Dataset(images=images, labels=labels, class_count=2)


def make_stimuli(kind: str, side: int, n_classes: int, n_train: int, n_test: int,
                 n_source: int, seed: int) -> tuple[datamod.Dataset, datamod.Dataset]:
    """Train and test sets for one workload; the same seed gives the same arrays."""
    if kind == "blobs":
        spots = blob_spots(side, n_classes, stream(seed, KEY_BLOB_SPOTS))
        return (blob_dataset(n_train, side, spots, stream(seed, KEY_TRAIN)),
                blob_dataset(n_test, side, spots, stream(seed, KEY_TEST)))
    if kind == "xor":
        train_src = xor_source(n_source, stream(seed, KEY_XOR_SOURCE_TRAIN))
        test_src = xor_source(n_source, stream(seed, KEY_XOR_SOURCE_TEST))
        return (datamod.build_xor_mnist(train_src, n_train, stream(seed, KEY_TRAIN)),
                datamod.build_xor_mnist(test_src, n_test, stream(seed, KEY_TEST)))
    raise ValueError(f"unknown stimulus kind {kind!r}")
