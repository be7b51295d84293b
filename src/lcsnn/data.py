"""Dataset ingestion: IDX file parsing, cropping, class filtering, and the
two-digit XOR composition.

IDX files are read as distributed (big-endian headers, row-major pixel
bytes); ``.gz`` paths are decompressed transparently.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Base for malformed IDX input."""


class IdxMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # (n, h, w) uint8
    labels: np.ndarray  # (n,) int64
    class_count: int

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.labels.shape[0]:
            raise IdxCountMismatchError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        if self.labels.size and int(self.labels.max()) >= self.class_count:
            raise ValueError(
                f"label {int(self.labels.max())} outside class_count {self.class_count}"
            )

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass
class XorDataset(Dataset):
    """Composed two-digit set; ``patterns[i]`` holds the source digits (a, b)."""

    patterns: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.uint8))


def _open(path: str | Path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise IdxTruncatedError(f"unexpected end of file while reading {what}")
    return buf


def read_idx_images(path: str | Path) -> np.ndarray:
    with _open(path) as f:
        magic, n, h, w = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IMAGE_MAGIC:
            raise IdxMagicError(f"bad image magic 0x{magic:08x} in {path}")
        raw = _read_exact(f, n * h * w, f"{n} images of {h}x{w}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(n, h, w)


def read_idx_labels(path: str | Path) -> np.ndarray:
    with _open(path) as f:
        magic, n = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != LABEL_MAGIC:
            raise IdxMagicError(f"bad label magic 0x{magic:08x} in {path}")
        raw = _read_exact(f, n, f"{n} labels")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def load_idx(image_path: str | Path, label_path: str | Path, class_count: int = 10) -> Dataset:
    """Load a paired image/label file set, cross-checking sample counts."""
    images = read_idx_images(image_path)
    labels = read_idx_labels(label_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images.shape[0]} images in {image_path} but {labels.shape[0]} labels in {label_path}"
        )
    return Dataset(images=images, labels=labels, class_count=class_count)


def center_crop(dataset: Dataset, target: int = 22) -> Dataset:
    """Trim equal borders down to ``target``; odd remainders lose the extra
    pixel on the bottom/right."""
    n, h, w = dataset.images.shape
    if target > h or target > w:
        raise ValueError(f"crop target {target} exceeds source dims ({h}, {w})")
    top = (h - target) // 2
    left = (w - target) // 2
    images = dataset.images[:, top : top + target, left : left + target]
    return Dataset(images=np.ascontiguousarray(images), labels=dataset.labels, class_count=dataset.class_count)


def filter_classes(dataset: Dataset, classes: list[int], relabel: bool = False) -> Dataset:
    """Keep only the given classes, optionally relabeling them 0..len-1."""
    if not classes:
        raise ValueError("classes must be non-empty")
    mask = np.isin(dataset.labels, classes)
    if not mask.any():
        raise ValueError(f"no samples match classes {classes}")
    images = dataset.images[mask]
    labels = dataset.labels[mask]
    if relabel:
        lut = {c: i for i, c in enumerate(classes)}
        labels = np.array([lut[int(l)] for l in labels], dtype=np.int64)
        return Dataset(images=images, labels=labels, class_count=len(classes))
    return Dataset(images=images, labels=labels, class_count=dataset.class_count)


_MNIST_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def find_idx_file(root: str | Path, stem: str) -> Path:
    """Locate an IDX file under ``root``, accepting a ``.gz`` variant."""
    root = Path(root)
    for candidate in (root / stem, root / (stem + ".gz")):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"{stem}[.gz] not found under {root}")


def load_mnist_split(root: str | Path, split: str = "train") -> Dataset:
    """Load one MNIST split from its standard file names (gzipped or not)."""
    image_stem, label_stem = _MNIST_NAMES[split]
    return load_idx(find_idx_file(root, image_stem), find_idx_file(root, label_stem))


# 40x40 canvas layout for the two-digit composition: each source digit is
# center-cropped 28 -> 20 (MNIST content lives in the central 20x20 box)
# and the pair sits side by side in the vertically centered band.
XOR_CANVAS = 40
XOR_DIGIT = 20
XOR_PATTERNS = ((0, 0), (0, 1), (1, 0), (1, 1))


def build_xor_mnist(mnist: Dataset, n_samples: int, rng: np.random.Generator) -> XorDataset:
    """Compose a balanced two-digit set labeled by XOR of the digits.

    Pairs are drawn uniformly with replacement from the source dataset's
    digit-0 and digit-1 pools; the four patterns 00, 01, 10, 11 are
    assigned round-robin so any n divisible by 4 is exactly balanced.
    """
    pool0 = np.flatnonzero(mnist.labels == 0)
    pool1 = np.flatnonzero(mnist.labels == 1)
    if pool0.size == 0 or pool1.size == 0:
        raise ValueError("source dataset must contain digits 0 and 1")
    pools = (pool0, pool1)

    crop = (28 - XOR_DIGIT) // 2
    top = (XOR_CANVAS - XOR_DIGIT) // 2
    images = np.zeros((n_samples, XOR_CANVAS, XOR_CANVAS), dtype=np.uint8)
    labels = np.empty(n_samples, dtype=np.int64)
    patterns = np.empty((n_samples, 2), dtype=np.uint8)
    for i in range(n_samples):
        a, b = XOR_PATTERNS[i % 4]
        ia = pools[a][rng.integers(pools[a].size)]
        ib = pools[b][rng.integers(pools[b].size)]
        da = mnist.images[ia][crop : crop + XOR_DIGIT, crop : crop + XOR_DIGIT]
        db = mnist.images[ib][crop : crop + XOR_DIGIT, crop : crop + XOR_DIGIT]
        images[i, top : top + XOR_DIGIT, :XOR_DIGIT] = da
        images[i, top : top + XOR_DIGIT, XOR_DIGIT:] = db
        labels[i] = a ^ b
        patterns[i] = (a, b)
    return XorDataset(images=images, labels=labels, class_count=2, patterns=patterns)
