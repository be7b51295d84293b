"""Binary container for named float arrays.

Layout (all integers little-endian unsigned 32-bit):

    magic "BLCN" | format version | entry count
    per entry: name length | name (UTF-8) | ndim | dims... | data

Array data is little-endian IEEE float64, C order.  Integral quantities
(shapes, flags, counts) are stored as exactly representable floats, which
keeps the format single-typed and the save/load round trip bit-identical.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"BLCN"
VERSION = 1


class CheckpointError(Exception):
    """An unreadable checkpoint file."""


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack(f"<I{len(encoded)}sI{arr.ndim}I",
                                len(encoded), encoded, arr.ndim, *arr.shape))
            f.write(arr.data)


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size

        def claim(n: int, what: str) -> None:
            # a header may claim more than the file holds; check before allocating
            if n > end - f.tell():
                raise CheckpointError(f"{path} ends before {what}: {n} bytes claimed, "
                                      f"{end - f.tell()} left")

        def unpack(fmt: str, what: str) -> tuple:
            n = struct.calcsize(fmt)
            claim(n, what)
            return struct.unpack(fmt, f.read(n))

        magic, version, count = unpack("<4sII", "the header")
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r} in {path}")
        if version > VERSION:
            raise CheckpointError(
                f"format version {version} is newer than supported version {VERSION}"
            )
        for i in range(count):
            (name_len,) = unpack("<I", f"the name length of entry {i}")
            (raw,) = unpack(f"<{name_len}s", f"the name of entry {i}")
            name = raw.decode("utf-8", errors="backslashreplace")  # a garbled name is missing
            (ndim,) = unpack("<I", f"the rank of {name!r}")
            shape = unpack(f"<{ndim}I", f"the dims of {name!r}")
            claim(8 * math.prod(shape), f"the data of {name!r}")
            arrays[name] = np.empty(shape, dtype="<f8")
            f.readinto(arrays[name])
    return arrays
