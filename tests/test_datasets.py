import re

import numpy as np
import pytest

from conftest import unit_columns
from uoslearn.datasets import (
    load_boundaries,
    load_feature_matrix,
    load_labels,
    load_leaves,
    load_sequence_dataset,
    read_feature_bin,
    save_leaves,
    save_sequence_dataset,
    write_boundaries,
    write_feature_bin,
    write_labels,
)
from uoslearn.errors import ConfigError, DataError
from uoslearn.sequences import LeafSet, SequenceSample
from uoslearn.synth import SequenceSynthConfig, generate_synthetic_sequences


class TestBinaryFormat:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        data = rng.standard_normal((7, 5))
        path = tmp_path / "x.bin"
        write_feature_bin(path, data)
        loaded = read_feature_bin(path)
        assert loaded.tobytes() == data.tobytes()

    def test_header_is_sixteen_bytes(self, tmp_path):
        path = tmp_path / "x.bin"
        write_feature_bin(path, np.eye(3))
        raw = path.read_bytes()
        assert raw[:4] == b"UOSF"
        assert len(raw) == 16 + 8 * 9

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"WAT?" + b"\x00" * 20)
        with pytest.raises(DataError):
            read_feature_bin(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.bin"
        write_feature_bin(path, np.eye(3))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            read_feature_bin(path)


class TestLoader:
    def test_csv_identity(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,0\n0,1\n")
        fm = load_feature_matrix(path, "csv")
        assert np.array_equal(fm.data, np.eye(2))

    def test_csv_header_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f1,f2\n1,0\n0,1\n")
        fm = load_feature_matrix(path, "csv")
        assert fm.data.shape == (2, 2)

    def test_nan_rejected_with_location(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,0\nnan,1\n")
        with pytest.raises(DataError, match="row"):
            load_feature_matrix(path, "csv")

    def test_zero_sample_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,0\n0,0\n")  # second sample is all-zero
        with pytest.raises(DataError, match="zero"):
            load_feature_matrix(path, "csv")

    def test_renormalization_warns(self, tmp_path, rng):
        data = rng.standard_normal((4, 3)) * 2.5
        path = tmp_path / "x.bin"
        write_feature_bin(path, data)
        with pytest.warns(UserWarning, match="renormalized"):
            fm = load_feature_matrix(path)
        assert np.allclose(np.linalg.norm(fm.data, axis=0), 1.0)

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_is_data_error_naming_it(self, tmp_path, fmt, kind):
        path = tmp_path / "features"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_feature_matrix(path, fmt)

    def test_unknown_format_is_config_error_before_reading(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown feature format 'npy'"):
            load_feature_matrix(tmp_path / "absent.npy", "npy")

    def test_block_shape_passthrough(self, tmp_path, rng):
        data = unit_columns(rng.standard_normal((6, 4)))
        path = tmp_path / "x.bin"
        write_feature_bin(path, data)
        fm = load_feature_matrix(path, block_shape=(3, 2))
        assert fm.block_shape == (3, 2)


class TestLabelsAndBoundaries:
    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(path, [0, 2, 1, 1])
        assert np.array_equal(load_labels(path), [0, 2, 1, 1])

    def test_boundaries_round_trip(self, tmp_path):
        path = tmp_path / "b.txt"
        write_boundaries(path, [(0, 3), (3, 7)])
        assert load_boundaries(path, 7) == [(0, 3), (3, 7)]

    def test_boundaries_must_partition(self, tmp_path):
        path = tmp_path / "b.txt"
        write_boundaries(path, [(0, 3), (4, 7)])
        with pytest.raises(DataError):
            load_boundaries(path, 7)


class TestLeavesFile:
    def test_round_trip(self, tmp_path, rng):
        q1, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        leaves = LeafSet([q1, q2])
        path = tmp_path / "leaves.bin"
        save_leaves(path, leaves)
        loaded = load_leaves(path)
        assert len(loaded) == 2
        for a, b in zip(leaves.bases, loaded.bases):
            assert a.tobytes() == b.tobytes()


class TestSequenceDataset:
    def test_round_trip(self, tmp_path):
        cfg = SequenceSynthConfig(
            m=10, leaves=3, leaf_dim=2, classes=2, sequences_per_class=3, seed=6
        )
        samples, _ = generate_synthetic_sequences(cfg)
        save_sequence_dataset(tmp_path / "d", samples)
        loaded = load_sequence_dataset(tmp_path / "d")
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.label == b.label
            assert np.allclose(a.features, b.features)
