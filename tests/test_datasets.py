import os
import re
import struct
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import unit_columns
from uoslearn import sequences, solver
from uoslearn.cli import cli_main
from uoslearn.datasets import (
    BLOCK_BYTES,
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
from uoslearn.linalg import UNIT_NORM_TOL, as_unit_columns
from uoslearn.sequences import LeafSet, SequenceSample
from uoslearn.solver import FeatureMatrix
from uoslearn.synth import (
    SequenceSynthConfig,
    UosSynthConfig,
    generate_synthetic_sequences,
    generate_synthetic_uos,
)


def one_shot_feature_bin(path) -> np.ndarray:
    """The reference reader: the whole file as bytes, then a transposed copy."""
    raw = Path(path).read_bytes()
    m, n = struct.unpack_from("<II", raw, 8)
    return np.ascontiguousarray(np.frombuffer(raw, "<f8", m * n, 16).copy().reshape(n, m).T)


def one_shot_normalized(path) -> np.ndarray:
    data = one_shot_feature_bin(path)
    return data / np.linalg.norm(data, axis=0)


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

    @pytest.mark.parametrize(
        "m, n, match",
        [
            (2**32 - 1, 2**32 - 1, "truncated"),
            (2**32 - 1, 0, "empty feature matrix"),
            (0, 2**32 - 1, "empty feature matrix"),
        ],
    )
    def test_huge_header_rejected_before_allocating(self, tmp_path, capsys, m, n, match):
        path = tmp_path / "features.bin"
        path.write_bytes(b"UOSF" + struct.pack("<III", 1, m, n))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=match):
                load_feature_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert cli_main(["cluster", "--clusters", "2", "--set", f"data={path}"]) == 2
        assert match in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_loads_like_the_file(self, tmp_path, rng):
        path = tmp_path / "x.bin"
        write_feature_bin(path, unit_columns(rng.standard_normal((6, 9))))
        pipe = tmp_path / "x.pipe"
        os.mkfifo(pipe)
        feeder = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),))
        feeder.start()
        try:
            from_pipe = load_feature_matrix(pipe)
        finally:
            feeder.join()
        assert from_pipe.data.tobytes() == load_feature_matrix(path).data.tobytes()


class TestStreamedLoad:
    """The block-by-block load gives the one-shot reader's matrix, bit for bit."""

    PER_BLOCK = BLOCK_BYTES // 8  # float64 values in one block

    @pytest.mark.parametrize(
        "m, n",
        [
            (60, 3 * (PER_BLOCK // 60) + 5),  # n not a multiple of the block's samples
            (PER_BLOCK + 3, 4),  # one sample larger than a block
            (1, 2 * PER_BLOCK + 7),
            (60, 1),
            (1, 1),
        ],
    )
    def test_matches_one_shot_reader(self, tmp_path, rng, m, n):
        path = tmp_path / "x.bin"
        write_feature_bin(path, rng.standard_normal((m, n)))
        loaded = read_feature_bin(path)
        assert loaded.flags.c_contiguous
        assert loaded.shape == (m, n)
        assert loaded.tobytes() == one_shot_feature_bin(path).tobytes()
        with pytest.warns(UserWarning, match="renormalized"):
            fm = load_feature_matrix(path)
        assert fm.data.tobytes() == one_shot_normalized(path).tobytes()

    def test_sequence_dataset_matches_one_shot_reader(self, tmp_path):
        cfg = SequenceSynthConfig(
            m=60, leaves=4, leaf_dim=3, classes=3, sequences_per_class=10, seed=2
        )
        samples, _ = generate_synthetic_sequences(cfg)
        save_sequence_dataset(tmp_path, samples)
        reference = one_shot_normalized(tmp_path / "features.bin")
        assert reference.shape[1] > 2 * (BLOCK_BYTES // (8 * 60))
        loaded = load_sequence_dataset(tmp_path)
        start = 0
        for sample in loaded:
            end = start + sample.length
            assert sample.features.tobytes() == reference[:, start:end].tobytes()
            start = end
        assert start == reference.shape[1]

    def test_load_peak_is_one_payload_and_the_norm_temporary(self, tmp_path, rng):
        m, n = 60, 8000
        path = tmp_path / "x.bin"
        write_feature_bin(path, unit_columns(rng.standard_normal((m, n))))
        tracemalloc.start()
        try:
            fm = load_feature_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fm.data.shape == (m, n)
        assert peak <= 2.1 * (8 * m * n)


class TestLoader:
    def test_csv_identity(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,0\n0,1\n")
        fm = load_feature_matrix(path, "csv")
        assert np.array_equal(fm.data, np.eye(2))

    def test_csv_copy_loads_to_the_binary_bits(self, tmp_path):
        fm, _ = generate_synthetic_uos(
            UosSynthConfig(m=60, subspaces=5, dim=5, points_per_subspace=40, noise=0.1, seed=1)
        )
        write_feature_bin(tmp_path / "features.bin", fm.data)
        rows = np.fromfile(tmp_path / "features.bin", "<f8", offset=16).reshape(-1, 60)
        np.savetxt(tmp_path / "features.csv", rows, delimiter=",")
        from_csv = load_feature_matrix(tmp_path / "features.csv", "csv").data
        assert from_csv.flags.c_contiguous
        assert from_csv.tobytes() == load_feature_matrix(tmp_path / "features.bin").data.tobytes()

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


def off_unit(factor: float) -> np.ndarray:
    """Unit columns but column 1, whose norm is 1 + factor * UNIT_NORM_TOL."""
    data = np.eye(3)
    data[:, 1] *= 1.0 + factor * UNIT_NORM_TOL
    return data


class TestUnitNormRule:
    """FeatureMatrix, SequenceSample and the loader share one tolerance."""

    @pytest.mark.parametrize(
        "build, name",
        [(FeatureMatrix, "feature matrix"), (lambda x: SequenceSample(features=x), "sequence")],
        ids=["FeatureMatrix", "SequenceSample"],
    )
    def test_types_accept_half_and_reject_twice_the_tolerance(self, build, name):
        build(off_unit(0.5))
        # The norm prints as a plain float, not as np.float64(...).
        expected = f"{name} columns must have unit l2 norm; column 1 has norm 1.0000000"
        with pytest.raises(DataError, match=re.escape(expected) + r"\d*$"):
            build(off_unit(2.0))

    @pytest.mark.parametrize("factor, warns", [(0.5, False), (2.0, True)])
    def test_loader_warns_beyond_the_tolerance(self, tmp_path, factor, warns):
        path = tmp_path / "x.bin"
        write_feature_bin(path, off_unit(factor))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_feature_matrix(path)
        assert [str(w.message) for w in caught] == (
            [f"{path}: columns renormalized to unit l2 norm"] if warns else []
        )


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

    def test_each_column_is_checked_once(self, tmp_path, monkeypatch):
        cfg = SequenceSynthConfig(
            m=10, leaves=3, leaf_dim=2, classes=2, sequences_per_class=3, seed=6
        )
        samples, _ = generate_synthetic_sequences(cfg)
        save_sequence_dataset(tmp_path, samples)
        checked = []

        def counting(a, name="matrix"):
            checked.append(np.shape(a)[1])
            return as_unit_columns(a, name)

        for module in (solver, sequences):  # the FeatureMatrix and the SequenceSample rule
            monkeypatch.setattr(module, "as_unit_columns", counting)
        loaded = load_sequence_dataset(tmp_path)
        assert sum(checked) == sum(s.length for s in loaded) == sum(s.length for s in samples)
