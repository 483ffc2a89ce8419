"""Dataset ingestion (IDX format), heterogeneous splits, synthetic blobs."""

import functools
import gzip
import math
import os
import struct
import zlib
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .netcore import LabeledDataset, read_chunks, read_exact

DATA_DIR_ENV = "PARTFUSE_DATA_DIR"
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MINORITY_SHARE = 0.10  # of every class but the specialist digit, drawn into split A
# IDX records past the kept ones are read in pieces of at most this many bytes
# and dropped, so a short read of a large file allocates little beyond what it keeps.
SKIP_CHUNK = 1 << 20

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class DataFormatError(ValueError):
    """Raised for malformed IDX payloads; names what went wrong."""


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, expected_magic: int, what: str, rows: Optional[int] = None):
    """(declared record count, first `rows` records) of one IDX file; all when rows is None.

    The records past the kept ones are still read, in SKIP_CHUNK pieces that
    are dropped, so every malformed file raises DataFormatError naming it.
    """
    try:
        with _open_maybe_gzip(path) as fh:
            read = functools.partial(read_exact, fh, error=DataFormatError)
            (magic,) = struct.unpack(">I", read(4, f"{what} magic"))
            if magic != expected_magic:
                raise DataFormatError(
                    f"bad {what} magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
                )
            ndim = magic & 0xFF
            dims = struct.unpack(f">{ndim}I", read(4 * ndim, f"{what} dims"))
            if not all(dims):
                raise DataFormatError(f"{what} dims {dims} hold no data")
            count, record = dims[0], math.prod(dims[1:])  # Python ints: np.prod wraps
            kept = count if rows is None else min(rows, count)
            payload = read(kept * record, f"{what} payload")
            rest = (count - kept) * record
            for _ in read_chunks(fh, rest, f"{what} payload", DataFormatError, SKIP_CHUNK):
                pass
            if fh.read(1):  # reading to the end also checks a gzip stream's CRC
                raise DataFormatError(f"{what} file runs past its payload")
    except (DataFormatError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return count, np.frombuffer(payload, dtype=np.uint8).reshape(kept, record)


def load_idx(images_path, labels_path, rows: Optional[int] = None) -> LabeledDataset:
    """Parse an IDX image/label pair, keeping the first `rows` samples (all when None).

    Pixels scale to [0, 1], and only the kept rows are converted; both files
    are read and checked to the end whatever `rows` is.
    """
    count, images = _read_idx(images_path, IDX_IMAGES_MAGIC, "images", rows)
    label_count, labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "labels", rows)
    if count != label_count:
        raise DataFormatError(f"image count {count} != label count {label_count}")
    flat = images.astype(np.float64) / 255.0
    return LabeledDataset(flat, labels.reshape(-1).astype(np.int64))


def _write_idx(path, magic: int, array: np.ndarray) -> None:
    array = np.asarray(array, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + array.ndim}I", magic, *array.shape))
        fh.write(array.tobytes())


def write_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 images (N, rows, cols) as an IDX file; used for fixtures."""
    _write_idx(path, IDX_IMAGES_MAGIC, images)


def write_idx_labels(path, labels: np.ndarray) -> None:
    _write_idx(path, IDX_LABELS_MAGIC, labels)


def data_dir() -> Optional[Path]:
    value = os.environ.get(DATA_DIR_ENV)
    return Path(value) if value else None


def find_mnist(directory: Optional[Path] = None) -> Optional[dict]:
    """Locate the four MNIST IDX files (optionally gzipped) or return None."""
    directory = directory or data_dir()
    if directory is None or not Path(directory).is_dir():
        return None
    found = {}
    for key, name in MNIST_FILES.items():
        for candidate in (Path(directory) / name, Path(directory) / (name + ".gz")):
            if candidate.is_file():
                found[key] = candidate
                break
        else:
            return None
    return found


def take_rows(data: LabeledDataset, rows: np.ndarray) -> LabeledDataset:
    """The dataset of the given rows of data, in their order (a copy)."""
    return LabeledDataset(data.inputs[rows], data.labels[rows])


def _per_class_draw(data: LabeledDataset, fraction: float, seed: int, whole=None) -> np.ndarray:
    """Mask of round(fraction * size) members of each class, drawn in class order.

    Class `whole`, when given, is taken entirely and draws nothing.
    """
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(data), dtype=bool)
    for c in np.unique(data.labels):
        members = np.flatnonzero(data.labels == c)
        if c == whole:
            mask[members] = True
        else:
            k = int(round(fraction * members.size))
            mask[rng.choice(members, size=k, replace=False)] = True
    return mask


def split_rows(data: LabeledDataset, special_digit: int, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """The row indices, ascending, of heterogeneous_split's split A and split B."""
    if special_digit not in data.labels:
        raise ValueError(f"class {special_digit} not present in the data")
    in_a = _per_class_draw(data, MINORITY_SHARE, seed, whole=special_digit)
    return np.flatnonzero(in_a), np.flatnonzero(~in_a)


def heterogeneous_split(
    data: LabeledDataset, special_digit: int, seed: int = 0
) -> Tuple[LabeledDataset, LabeledDataset]:
    """Split A gets every sample of the specialist digit plus a seeded
    MINORITY_SHARE of each other class.

    Split B is the exact complement, so the two splits partition the data
    and B contains no specialist samples at all.
    """
    rows_a, rows_b = split_rows(data, special_digit, seed)
    return take_rows(data, rows_a), take_rows(data, rows_b)


def synthetic_blobs(
    n_classes: int, per_class: int, dim: int, spread: float, seed: int = 0
) -> LabeledDataset:
    """Seeded Gaussian clusters with class means at least 4 * spread apart."""
    if n_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("sizes must be positive")
    rng = np.random.default_rng(seed)
    means = np.zeros((n_classes, dim))
    for c in range(1, n_classes):
        axis = c % dim
        means[c, axis] = 4.0 * spread * (1 + (c - 1) // dim + c / n_classes)
    inputs = np.vstack(
        [means[c] + spread * rng.standard_normal((per_class, dim)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), per_class)
    order = rng.permutation(len(labels))
    return LabeledDataset(inputs[order], labels[order])
