import gzip
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import partfuse as pf
from partfuse.data import (
    IDX_IMAGES_MAGIC,
    DataFormatError,
    find_mnist,
    load_idx,
    write_idx_images,
    write_idx_labels,
)
from partfuse.train import TrainConfig, train_mlp

from conftest import HUGE_IDX_DIMS
from oracles import holdout


N = 12  # samples in make_fixture's files


def make_fixture(tmp_path, n=N, rows=4, cols=3, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = (np.arange(n) % n_classes).astype(np.uint8)
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path, images, labels


class TestIdx:
    def test_round_trip_exact_pixels(self, tmp_path):
        img_path, lab_path, images, labels = make_fixture(tmp_path)
        data = load_idx(img_path, lab_path)
        np.testing.assert_array_equal(
            data.inputs, images.reshape(12, -1).astype(np.float64) / 255.0
        )
        np.testing.assert_array_equal(data.labels, labels)

    def test_gzipped_files(self, tmp_path):
        img_path, lab_path, images, labels = make_fixture(tmp_path)
        gz_img = tmp_path / "images.gz"
        gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
        data = load_idx(gz_img, lab_path)
        assert len(data) == 12

    def test_images_magic_on_labels_path(self, tmp_path):
        img_path, lab_path, _, _ = make_fixture(tmp_path)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(lab_path, img_path)

    @pytest.mark.parametrize("rows", [1, N - 1, N, N + 5])
    @pytest.mark.parametrize("gzipped", [False, True], ids=["raw", "gzip"])
    def test_rows_keeps_bitwise_the_first_samples(self, tmp_path, rows, gzipped):
        img_path, lab_path, _, _ = make_fixture(tmp_path)
        if gzipped:
            img_path.write_bytes(gzip.compress(img_path.read_bytes()))
        full = load_idx(img_path, lab_path)
        part = load_idx(img_path, lab_path, rows=rows)
        for kept, whole in ((part.inputs, full.inputs), (part.labels, full.labels)):
            assert kept.dtype == whole.dtype and kept.shape == whole[:rows].shape
            assert kept.tobytes() == whole[:rows].tobytes()

    @pytest.mark.parametrize("gzipped", [False, True], ids=["raw", "gzip"])
    def test_kept_rows_bound_the_memory_of_a_read(self, tmp_path, gzipped):
        img_path, lab_path, _, _ = make_fixture(tmp_path, n=20_000, rows=28, cols=28, n_classes=10)
        if gzipped:
            img_path.write_bytes(gzip.compress(img_path.read_bytes(), compresslevel=1))
        tracemalloc.start()
        try:
            data = load_idx(img_path, lab_path, rows=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) == 1000
        # 1000 rows are 6.3 MB of float64; converting all 20,000 would take 125 MB
        assert peak < 16 * 2**20
        # and the 14.9 MB of dropped records pass through in pieces of 1 MB
        assert peak < data.inputs.nbytes + 2 * 2**20

    # the rows=1 case of each corruption test: the corruption lies past the
    # kept row, and the read must still reach it
    def test_truncated_payload(self, tmp_path):
        img_path, lab_path, _, _ = make_fixture(tmp_path)
        blob = img_path.read_bytes()
        img_path.write_bytes(blob[:-5])  # the last sample's pixels
        for rows in (None, 1):
            with pytest.raises(DataFormatError, match=re.escape(f"{img_path}: truncated")):
                load_idx(img_path, lab_path, rows)

    def test_count_mismatch(self, tmp_path):
        img_path, lab_path, _, _ = make_fixture(tmp_path)
        write_idx_labels(lab_path, np.zeros(5, dtype=np.uint8))
        for rows in (None, 1):
            with pytest.raises(DataFormatError, match=f"image count {N} != label count 5"):
                load_idx(img_path, lab_path, rows)

    @pytest.mark.parametrize(
        "corrupt", ["truncated gzip", "corrupt deflate", "bad gzip CRC", "overlong", "no images"]
    )
    def test_corrupt_file_is_a_format_error_naming_it(self, tmp_path, corrupt):
        img_path, lab_path, _, _ = make_fixture(tmp_path)
        plain = img_path.read_bytes()
        blob = gzip.compress(plain)
        for rows in (None, 1):
            # where the deflate stream is cut or corrupted; with one row kept, past that row
            at = len(blob) // 2 if rows == 1 or corrupt == "truncated gzip" else 12
            bad = tmp_path / "images.gz"
            if corrupt == "truncated gzip":
                bad.write_bytes(blob[:at])
            elif corrupt == "corrupt deflate":
                bad.write_bytes(blob[:at] + bytes(b ^ 0xFF for b in blob[at : at + 18]) + blob[at + 18 :])
            elif corrupt == "bad gzip CRC":  # the trailer's CRC-32, not the data
                bad.write_bytes(blob[:-8] + bytes([blob[-8] ^ 1]) + blob[-7:])
            elif corrupt == "overlong":
                bad = img_path
                bad.write_bytes(plain + b"\x00")
            else:
                bad = img_path
                write_idx_images(bad, np.zeros((0, 4, 3), dtype=np.uint8))
                write_idx_labels(lab_path, np.zeros(0, dtype=np.uint8))
            if rows == 1 and corrupt in ("truncated gzip", "corrupt deflate"):
                kept_end = 16 + 4 * 3  # header, then one 4x3 image
                assert zlib.decompressobj(wbits=31).decompress(blob[:at])[:kept_end] == plain[:kept_end]
            with pytest.raises(DataFormatError, match=re.escape(f"{bad}: ")):
                load_idx(bad, lab_path, rows)

    @pytest.mark.parametrize("dims", [
        pytest.param(HUGE_IDX_DIMS, id="above-2**63-bytes"),
        pytest.param((4_000_000_000, 28, 28), id="4e9-images"),
    ])
    @pytest.mark.parametrize("gzipped", [False, True], ids=["raw", "gzip"])
    def test_oversized_header_is_truncated_not_allocated(self, tmp_path, dims, gzipped):
        _, lab_path, _, _ = make_fixture(tmp_path)
        # holds one whole 28x28 image; a HUGE_IDX_DIMS image is larger than any file
        blob = struct.pack(">4I", IDX_IMAGES_MAGIC, *dims) + bytes(1000)
        bad = tmp_path / "huge-images"
        bad.write_bytes(gzip.compress(blob) if gzipped else blob)
        for rows in (None, 1):
            with pytest.raises(DataFormatError, match=re.escape(f"{bad}: truncated payload")):
                load_idx(bad, lab_path, rows)

    def test_find_mnist_absent(self, tmp_path):
        assert find_mnist(tmp_path) is None


class TestHeterogeneousSplit:
    def _data(self, rng, per_class=40, n_classes=5):
        n = per_class * n_classes
        labels = np.repeat(np.arange(n_classes), per_class)
        return pf.LabeledDataset(rng.normal(size=(n, 3)), labels)

    def test_exact_partition(self, rng):
        data = self._data(rng)
        a, b = pf.heterogeneous_split(data, 2, seed=0)
        assert len(a) + len(b) == len(data)
        joined = np.vstack([a.inputs, b.inputs])
        assert np.unique(joined, axis=0).shape[0] == len(data)

    def test_no_special_digit_in_b(self, rng):
        data = self._data(rng)
        a, b = pf.heterogeneous_split(data, 2, seed=0)
        assert np.sum(b.labels == 2) == 0
        assert np.sum(a.labels == 2) == 40

    def test_minority_fraction_per_class(self, rng):
        data = self._data(rng, per_class=50)
        a, _ = pf.heterogeneous_split(data, 1, seed=3)
        for c in (0, 2, 3, 4):
            assert abs(np.sum(a.labels == c) - round(0.1 * 50)) <= 1

    def test_deterministic(self, rng):
        data = self._data(rng)
        a1, _ = pf.heterogeneous_split(data, 0, seed=9)
        a2, _ = pf.heterogeneous_split(data, 0, seed=9)
        np.testing.assert_array_equal(a1.inputs, a2.inputs)

    def test_missing_class_rejected(self, rng):
        data = self._data(rng)
        for digit in (17, -1):
            with pytest.raises(ValueError, match="not present"):
                pf.heterogeneous_split(data, digit, seed=0)


class TestHoldout:
    def test_stratified_counts(self, rng):
        labels = np.repeat(np.arange(10), 6000)
        data = pf.LabeledDataset(rng.normal(size=(60000, 2)), labels)
        rest, held = holdout(data, 0.01, seed=0)
        assert abs(len(held) - 600) <= 10
        assert len(rest) + len(held) == 60000

    def test_partition_and_determinism(self, rng):
        labels = np.repeat(np.arange(3), 30)
        data = pf.LabeledDataset(rng.normal(size=(90, 2)), labels)
        rest1, held1 = holdout(data, 0.2, seed=4)
        rest2, held2 = holdout(data, 0.2, seed=4)
        np.testing.assert_array_equal(held1.inputs, held2.inputs)
        joined = np.vstack([rest1.inputs, held1.inputs])
        assert np.unique(joined, axis=0).shape[0] == 90

    def test_degenerate_fraction(self, rng):
        data = pf.LabeledDataset(rng.normal(size=(10, 2)), np.zeros(10, dtype=int))
        with pytest.raises(ValueError):
            holdout(data, 1.0)


class TestSyntheticBlobs:
    def test_same_seed_identical(self):
        a = pf.synthetic_blobs(3, 20, 4, spread=0.5, seed=7)
        b = pf.synthetic_blobs(3, 20, 4, spread=0.5, seed=7)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tiny_spread_nearest_mean_separates(self):
        data = pf.synthetic_blobs(4, 25, 3, spread=1e-9, seed=1)
        means = np.vstack(
            [data.inputs[data.labels == c].mean(axis=0) for c in range(4)]
        )
        dist = pf.cost_matrix(data.inputs, means)
        assert np.array_equal(np.argmin(dist, axis=1), data.labels)

    def test_trained_mlp_fits_two_classes(self):
        data = pf.synthetic_blobs(2, 50, 4, spread=0.3, seed=0)
        net = train_mlp([4, 12, 2], data, TrainConfig(epochs=400, seed=0))
        assert pf.evaluate_accuracy(net, data) >= 0.99


@pytest.mark.skipif(find_mnist() is None, reason="MNIST IDX files not found")
class TestRealMnist:
    def test_train_set_shape(self):
        paths = find_mnist()
        data = load_idx(paths["train_images"], paths["train_labels"])
        assert len(data) == 60000
        assert data.inputs.shape[1] == 784
