"""Dataset ingestion: IDX file parsing, cropping, class filtering, and the
two-digit XOR composition.

IDX files are read as distributed (big-endian headers, row-major pixel
bytes); ``.gz`` paths are decompressed transparently.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX input."""


@dataclass
class Dataset:
    images: np.ndarray  # (n, h, w) uint8
    labels: np.ndarray  # (n,) int64
    class_count: int

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.labels.shape[0]:
            raise IdxFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        if self.labels.size and int(self.labels.max()) >= self.class_count:
            raise ValueError(
                f"label {int(self.labels.max())} outside class_count {self.class_count}"
            )

    def __len__(self) -> int:
        return self.images.shape[0]


def _open(path: str | Path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


_PIECE = 1 << 24  # bytes read at a time, so a header's claim never sizes an allocation


def read_idx(path: str | Path, magic: int) -> np.ndarray:
    """Read an unsigned-byte IDX file whose magic number must be ``magic``;
    the magic's low byte is the rank, and the array has the stored dims."""
    rank = magic & 0xFF
    try:
        with _open(path) as f:
            header = f.read(4 + 4 * rank)
            if len(header) < 4 + 4 * rank:
                raise IdxFormatError(f"{path} ends inside its {4 + 4 * rank}-byte header")
            got, *dims = struct.unpack(f">I{rank}I", header)
            if got != magic:
                raise IdxFormatError(f"bad magic 0x{got:08x} in {path}, expected 0x{magic:08x}")
            n = math.prod(dims)
            data = bytearray()
            while len(data) < n and (piece := f.read(min(n - len(data), _PIECE))):
                data += piece
    except EOFError as e:  # a gzip stream cut short
        raise IdxFormatError(f"{path}: {e}") from e
    if len(data) < n:
        raise IdxFormatError(f"{path} holds {len(data)} of the {n} data bytes its header claims")
    return np.frombuffer(data, dtype=np.uint8).reshape(dims)


def load_idx(image_path: str | Path, label_path: str | Path, class_count: int = 10) -> Dataset:
    """Load a paired image/label file set, cross-checking sample counts."""
    images = read_idx(image_path, IMAGE_MAGIC)
    labels = read_idx(label_path, LABEL_MAGIC).astype(np.int64)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
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


def build_xor_mnist(mnist: Dataset, n_samples: int, rng: np.random.Generator) -> Dataset:
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
    for i in range(n_samples):
        a, b = XOR_PATTERNS[i % 4]
        ia = pools[a][rng.integers(pools[a].size)]
        ib = pools[b][rng.integers(pools[b].size)]
        da = mnist.images[ia][crop : crop + XOR_DIGIT, crop : crop + XOR_DIGIT]
        db = mnist.images[ib][crop : crop + XOR_DIGIT, crop : crop + XOR_DIGIT]
        images[i, top : top + XOR_DIGIT, :XOR_DIGIT] = da
        images[i, top : top + XOR_DIGIT, XOR_DIGIT:] = db
        labels[i] = a ^ b
    return Dataset(images=images, labels=labels, class_count=2)
