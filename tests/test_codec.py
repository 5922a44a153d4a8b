"""The record codec, and the byte layout of the four binary formats.

Each format test builds the expected bytes by hand with `struct.pack`,
following the layout files have always had, so files written before the
codec existed keep loading and new files stay readable by old readers.
"""

import struct

import numpy as np
import pytest

from conftest import random_orthonormal, unit_columns
from uoslearn.bundles import (
    KIND_KNN,
    KIND_KNN_OPEN,
    KIND_SVM_OPEN,
    KIND_SVM_OVA,
    KIND_SVM_OVO,
    KnnModel,
    load_model_bundle,
    save_model_bundle,
)
from uoslearn.codec import Reader, Writer
from uoslearn.datasets import load_leaves, read_feature_bin, save_leaves, write_feature_bin
from uoslearn.errors import DataError
from uoslearn.hierarchy import HierarchyTree, SubspaceNode, read_tree, write_tree
from uoslearn.sequences import LeafSet, SequenceSample
from uoslearn.svm import BinarySvmModel, MulticlassSvmModel


def f8(a):
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def u4(a):
    return np.ascontiguousarray(a, dtype="<u4").tobytes()


def leaf_bytes(bases):
    out = struct.pack("<I", len(bases))
    for b in bases:
        out += struct.pack("<II", *b.shape) + f8(b)
    return out


@pytest.fixture
def leaves(rng):
    return LeafSet([random_orthonormal(5, 2, rng), random_orthonormal(5, 1, rng)])


class TestCodec:
    def write(self, tmp_path, build):
        writer = Writer(b"TEST", 3)
        build(writer)
        path = tmp_path / "rec.bin"
        writer.save(path)
        return path

    def test_fields_arrays_and_matrices_round_trip(self, tmp_path):
        mat = np.arange(6.0).reshape(2, 3)
        path = self.write(
            tmp_path,
            lambda w: (w.fields("iB", -4, 7), w.indices([2, 0]), w.matrices([mat])),
        )
        assert path.read_bytes()[:8] == b"TEST" + struct.pack("<I", 3)
        reader = Reader(path, b"TEST", 3, "test file")
        assert reader.fields("iB") == (-4, 7)
        assert reader.indices(3).tolist() == [2, 0]
        (got,) = reader.matrices()
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got, mat)
        reader.done()

    @pytest.mark.parametrize(
        "magic, version, match", [(b"NOPE", 3, "bad magic"), (b"TEST", 4, "version")]
    )
    def test_header_checked(self, tmp_path, magic, version, match):
        path = self.write(tmp_path, lambda w: None)
        with pytest.raises(DataError, match=match):
            Reader(path, magic, version, "test file")

    @pytest.mark.parametrize("name", ["missing.bin", "nul\0byte.bin"])
    def test_unreadable_path(self, tmp_path, name):
        with pytest.raises(DataError, match="cannot read test file"):
            Reader(tmp_path / name, b"TEST", 3, "test file")

    def test_truncated_field(self, tmp_path):
        path = self.write(tmp_path, lambda w: w.fields("H", 1))
        with pytest.raises(DataError, match="truncated"):
            Reader(path, b"TEST", 3, "test file").fields("I")

    def test_count_beyond_data_is_rejected_before_allocating(self, tmp_path):
        path = self.write(tmp_path, lambda w: w.fields("III", 1, 2**32 - 1, 2**32 - 1))
        with pytest.raises(DataError, match="truncated"):
            Reader(path, b"TEST", 3, "test file").matrices()

    def test_index_out_of_bound(self, tmp_path):
        path = self.write(tmp_path, lambda w: w.indices([0, 5]))
        with pytest.raises(DataError, match="out of range"):
            Reader(path, b"TEST", 3, "test file").indices(5)

    def test_trailing_bytes(self, tmp_path):
        path = self.write(tmp_path, lambda w: w.fields("II", 1, 2))
        reader = Reader(path, b"TEST", 3, "test file")
        reader.fields("I")
        with pytest.raises(DataError, match="trailing"):
            reader.done()


class TestFormatLayout:
    def test_feature_file(self, tmp_path, rng):
        data = rng.standard_normal((4, 3))
        expected = b"UOSF" + struct.pack("<III", 1, 4, 3) + data.tobytes(order="F")
        path = tmp_path / "x.bin"
        write_feature_bin(path, data)
        assert path.read_bytes() == expected
        loaded = read_feature_bin(path)
        assert loaded.flags.c_contiguous
        assert loaded.tobytes() == data.tobytes()

    def test_leaf_file(self, tmp_path, leaves):
        expected = b"UOSL" + struct.pack("<II", 1, 2)
        for b in leaves.bases:
            expected += struct.pack("<II", *b.shape) + f8(b)
        path = tmp_path / "leaves.bin"
        save_leaves(path, leaves)
        assert path.read_bytes() == expected
        for a, b in zip(load_leaves(path).bases, leaves.bases):
            assert a.tobytes() == b.tobytes()

    def test_tree_file(self, tmp_path, rng):
        bases = [random_orthonormal(5, d, rng) for d in (3, 2, 1)]
        nodes = [
            SubspaceNode(0, 1, np.arange(6), bases[0], 3, True, (1, 2)),
            SubspaceNode(1, 2, np.array([0, 2, 4]), bases[1], 2, True),
            SubspaceNode(2, 2, np.array([1, 3, 5]), bases[2], 1, False),
        ]
        tree = HierarchyTree(nodes, 2, 6, True, 41)
        expected = b"UOST" + struct.pack("<IIIBI", 1, 3, 2, 1, 41) + struct.pack("<I", 6)
        for n in nodes:
            kids = n.children or ()
            expected += struct.pack("<IIB", n.node_id, n.level, int(n.divisible))
            expected += struct.pack("<B", len(kids)) + b"".join(
                struct.pack("<I", c) for c in kids
            )
            expected += struct.pack("<I", n.size) + u4(n.indices)
            expected += struct.pack("<II", *n.basis.shape) + f8(n.basis)
        path = tmp_path / "tree.uost"
        write_tree(tree, path)
        assert path.read_bytes() == expected
        loaded = read_tree(path)
        assert (loaded.max_level, loaded.n_samples) == (2, 6)
        assert (loaded.solver_converged, loaded.solver_iterations) == (True, 41)
        for a, b in zip(loaded.nodes, nodes):
            assert (a.node_id, a.level, a.dim) == (b.node_id, b.level, b.dim)
            assert (a.divisible, a.children) == (b.divisible, b.children)
            assert np.array_equal(a.indices, b.indices)
            assert a.basis.tobytes() == b.basis.tobytes()

    @pytest.mark.parametrize("open_set", [False, True])
    def test_knn_bundle(self, tmp_path, rng, leaves, open_set):
        train = [
            SequenceSample(unit_columns(rng.standard_normal((5, n))), lbl, np.arange(n) % 2)
            for n, lbl in ((2, 0), (3, 4), (1, 4))
        ]
        ceilings = {0: 0.25, 4: 0.5} if open_set else None
        model = KnnModel(train, k=1, open_set=open_set, varsigma=1.5, ceilings=ceilings)
        kind = KIND_KNN_OPEN if open_set else KIND_KNN
        expected = b"UOSM" + struct.pack("<I", 1) + struct.pack("<B", kind)
        expected += leaf_bytes(leaves.bases) + struct.pack("<Id", 1, 1.5)
        expected += struct.pack("<I", len(ceilings or {}))
        for cid in sorted(ceilings or {}):
            expected += struct.pack("<id", cid, ceilings[cid])
        expected += struct.pack("<I", len(train))
        for s in train:
            expected += struct.pack("<i", s.label)
            expected += struct.pack("<II", *s.features.shape) + f8(s.features)
            expected += struct.pack("<I", s.length) + u4(s.assignment)
        path = tmp_path / "knn.uosm"
        save_model_bundle(path, leaves, model)
        assert path.read_bytes() == expected
        _, loaded, loaded_kind = load_model_bundle(path)
        assert loaded_kind == kind
        assert (loaded.k, loaded.varsigma, loaded.ceilings) == (1, 1.5, ceilings)
        for a, b in zip(loaded.train, train):
            assert a.label == b.label
            assert a.features.tobytes() == b.features.tobytes()
            assert np.array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize("kind", [KIND_SVM_OVO, KIND_SVM_OVA, KIND_SVM_OPEN])
    def test_svm_bundle(self, tmp_path, leaves, kind):
        labels = np.array([1, 1, 3, 3, 6])
        assignments = [np.array([0, 1]), np.array([1]), np.array([0]), np.array([1, 1]),
                       np.array([0, 0, 1])]
        if kind == KIND_SVM_OVO:
            keys = [(1, 3), (1, 6), (3, 6)]
        else:
            keys = [1, 3, 6]
        models = {}
        for pos, key in enumerate(keys):
            idx = np.array([0, pos + 2])
            binary = BinarySvmModel(np.array([0.5, 0.25 * pos]), np.array([1.0, -1.0]), -0.125)
            models[key] = (binary, idx)
        mode = "one_vs_one" if kind == KIND_SVM_OVO else "one_vs_all"
        model = MulticlassSvmModel(mode, [1, 3, 6], assignments, labels, 0.75, 10.0, models)
        expected = b"UOSM" + struct.pack("<I", 1) + struct.pack("<B", kind)
        expected += leaf_bytes(leaves.bases) + struct.pack("<dd", 0.75, 10.0)
        expected += struct.pack("<I", len(labels))
        for label, psi in zip(labels, assignments):
            expected += struct.pack("<i", label) + struct.pack("<I", len(psi)) + u4(psi)
        expected += struct.pack("<I", len(models))
        for key in keys:
            binary, idx = models[key]
            ca, cb = key if isinstance(key, tuple) else (key, -1)
            expected += struct.pack("<iid", ca, cb, binary.bias)
            expected += struct.pack("<I", len(idx)) + u4(idx) + f8(binary.alpha) + f8(binary.y)
        path = tmp_path / "svm.uosm"
        save_model_bundle(path, leaves, model, open_set=(kind == KIND_SVM_OPEN))
        assert path.read_bytes() == expected
        _, loaded, loaded_kind = load_model_bundle(path)
        assert loaded_kind == kind
        assert (loaded.mode, loaded.classes, loaded.nu, loaded.c) == (mode, [1, 3, 6], 0.75, 10.0)
        assert np.array_equal(loaded.labels, labels)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.train_assignments, assignments))
        assert list(loaded.models) == keys
        for key, (binary, idx) in models.items():
            got, got_idx = loaded.models[key]
            assert np.array_equal(got_idx, idx)
            assert got.alpha.tobytes() == binary.alpha.tobytes()
            assert got.y.tobytes() == binary.y.tobytes()
            assert got.bias == binary.bias
