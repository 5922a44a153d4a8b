"""The record codec, and the byte layout of the four binary formats.

Each format test builds the expected bytes by hand with `struct.pack`,
following the layout files have always had, so files written before the
codec existed keep loading and new files stay readable by old readers.
Each also writes its file with `JoinWriter`, the writer that joined every
field into one `bytes` object before writing it, and requires the same
bytes from the streaming `Writer`.
"""

import errno
import os
import stat
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import fail_second_write, random_orthonormal, unit_columns
from uoslearn.bundles import (
    KIND_KNN,
    KIND_KNN_OPEN,
    KIND_SVM_OPEN,
    KIND_SVM_OVA,
    KIND_SVM_OVO,
    KnnModel,
    bundle_kind,
    load_model_bundle,
    save_model_bundle,
)
from uoslearn import bundles, codec, datasets, hierarchy
from uoslearn.codec import Reader, Writer, write_file
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


class JoinWriter:
    """The reference writer: every field becomes bytes, joined at `save`."""

    def __init__(self, magic: bytes, version: int):
        self._parts = [magic, struct.pack("<I", version)]

    def fields(self, fmt: str, *values) -> None:
        self._parts.append(struct.pack("<" + fmt, *values))

    def array(self, values, dtype: str) -> None:
        self._parts.append(np.ascontiguousarray(values, dtype=dtype).tobytes())

    def indices(self, values) -> None:
        self.fields("I", len(values))
        self.array(values, "<u4")

    def matrices(self, mats) -> None:
        self.fields("I", len(mats))
        for mat in mats:
            self.matrix(mat)

    def matrix(self, mat) -> None:
        self.fields("II", *np.shape(mat))
        self.array(mat, "<f8")

    def save(self, path) -> None:
        write_file(path, b"".join(self._parts))


def written(monkeypatch, path, save):
    """Run `save(path)`, check that `JoinWriter` writes the same bytes, and return `path`."""
    save(path)
    reference = path.with_suffix(".join")
    with monkeypatch.context() as patch:
        for module in (bundles, datasets, hierarchy):
            patch.setattr(module, "Writer", JoinWriter)
        save(reference)
    assert path.read_bytes() == reference.read_bytes()
    return path


@pytest.fixture
def opened(monkeypatch):
    """Every file object the codec opens, in order."""
    files = []

    def recording_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(codec, "open", recording_open, raising=False)
    return files


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
    def test_header_checked(self, tmp_path, opened, magic, version, match):
        path = self.write(tmp_path, lambda w: None)
        with pytest.raises(DataError, match=match):
            Reader(path, magic, version, "test file")
        assert opened and all(fh.closed for fh in opened)

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


    def test_file_closed_by_done(self, tmp_path, opened):
        path = self.write(tmp_path, lambda w: w.indices([0]))
        reader = Reader(path, b"TEST", 3, "test file")
        reader.indices(1)
        reader.done()
        assert opened[-1].closed

    @pytest.mark.parametrize(
        "read, match",
        [
            pytest.param(lambda r: r.fields("III"), "truncated", id="field"),
            pytest.param(lambda r: r.array("<f8", 2**32), "truncated", id="array"),
            pytest.param(lambda r: r.indices(0), "out of range", id="index"),
            pytest.param(Reader.done, "trailing", id="trailing"),
        ],
    )
    def test_file_closed_by_a_reader_error(self, tmp_path, opened, read, match):
        path = self.write(tmp_path, lambda w: w.indices([0]))
        reader = Reader(path, b"TEST", 3, "test file")
        with pytest.raises(DataError, match=match):
            read(reader)
        assert opened[-1].closed

    def test_file_closed_when_a_caller_check_raises_partway(self, tmp_path, opened):
        path = self.write(tmp_path, lambda w: w.fields("II", 0, 7))
        with pytest.raises(DataError, match="caller"):
            with Reader(path, b"TEST", 3, "test file") as reader:
                reader.fields("I")
                raise DataError("a caller's check")
        assert opened[-1].closed

    def test_fill_reads_into_the_given_array(self, tmp_path):
        mat = np.arange(6.0).reshape(3, 2)
        path = self.write(tmp_path, lambda w: w.array(mat, "<f8"))
        reader = Reader(path, b"TEST", 3, "test file")
        out = np.empty((2, 2))
        assert reader.fill(out) is out
        assert out.tobytes() == mat[:2].tobytes()
        with pytest.raises(DataError, match="truncated: 32 bytes needed at offset 40, 16 left"):
            reader.fill(out)

    def read_through_pipe(self, tmp_path, data):
        pipe = tmp_path / f"rec{len(data)}.pipe"
        os.mkfifo(pipe)
        feeder = threading.Thread(target=pipe.write_bytes, args=(data,))
        feeder.start()
        try:
            return Reader(pipe, b"TEST", 3, "test file")
        finally:
            feeder.join()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_like_a_file(self, tmp_path):
        mat = np.arange(6.0).reshape(3, 2)
        raw = self.write(tmp_path, lambda w: w.matrices([mat])).read_bytes()
        reader = self.read_through_pipe(tmp_path, raw)
        (got,) = reader.matrices()
        reader.done()
        assert got.tobytes() == mat.tobytes()
        with pytest.raises(DataError, match="truncated"):
            self.read_through_pipe(tmp_path, raw[:-8]).matrices()


class TestAllOrNothingWrites:
    """`write_file` replaces its target whole or leaves it as it was."""

    @pytest.mark.parametrize("old", [b"old contents", None], ids=["existing", "new"])
    @pytest.mark.parametrize(
        "error",
        [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
        ids=["enospc", "interrupt"],
    )
    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path, monkeypatch, old, error):
        target = tmp_path / "out.bin"
        if old is not None:
            target.write_bytes(old)
        fail_second_write(monkeypatch, codec, error)
        with pytest.raises((DataError, KeyboardInterrupt)) as caught:
            write_file(target, b"new ", np.arange(3.0))
        if isinstance(error, OSError):
            assert caught.type is DataError
            assert str(caught.value).startswith(f"{target}: cannot write: ")
        else:
            assert caught.type is KeyboardInterrupt
        assert os.listdir(tmp_path) == ([] if old is None else ["out.bin"])
        if old is not None:
            assert target.read_bytes() == old

    def test_symlink_kept_and_the_file_it_names_replaced(self, tmp_path):
        real, link = tmp_path / "real.bin", tmp_path / "link.bin"
        real.write_bytes(b"old")
        link.symlink_to(real)
        write_file(link, b"new")
        assert link.is_symlink() and real.read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["link.bin", "real.bin"]

    def test_permission_bits_kept_or_defaulted(self, tmp_path):
        target, fresh, plain = tmp_path / "out.bin", tmp_path / "fresh.bin", tmp_path / "plain"
        target.write_bytes(b"old")
        target.chmod(0o640)
        write_file(target, b"new")
        write_file(fresh, b"new")
        plain.write_bytes(b"new")  # a file `open` creates, under the same umask
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert fresh.stat().st_mode == plain.stat().st_mode

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_file(fifo, b"abc", np.arange(3.0))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [b"abc" + np.arange(3.0).tobytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["out.pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_dev_stdout_on_a_pipe_written_in_place(self):
        # /dev/stdout names the pipe, but its resolved path names no file.
        code = "from uoslearn.codec import write_file; write_file('/dev/stdout', b'abc')"
        src = str(Path(codec.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, b"abc"), done.stderr


class TestLoadersCloseTheirFiles:
    """A loader's own check that fails partway through a file closes it."""

    def test_tree_with_a_malformed_node(self, tmp_path, opened):
        path = tmp_path / "tree.uost"
        path.write_bytes(
            b"UOST" + struct.pack("<IIIBII", 1, 2, 1, 1, 0, 4) + struct.pack("<IIBB", 5, 1, 0, 0)
        )
        with pytest.raises(DataError, match="malformed node record 0"):
            read_tree(path)
        assert opened[-1].closed

    @pytest.mark.parametrize(
        "tail, match",
        [
            pytest.param(struct.pack("<IdI", 0, 1.5, 0), "k must be >= 1", id="k"),
            pytest.param(
                struct.pack("<IdIid", 1, 1.5, 1, 0, np.inf), "finite", id="ceiling"
            ),
        ],
    )
    def test_bundle_with_a_bad_scalar(self, tmp_path, opened, leaves, tail, match):
        path = tmp_path / "knn.uosm"
        path.write_bytes(
            b"UOSM" + struct.pack("<IB", 1, KIND_KNN) + leaf_bytes(leaves.bases) + tail
            + struct.pack("<I", 0)
        )
        with pytest.raises(DataError, match=match):
            load_model_bundle(path)
        assert opened[-1].closed


class TestFormatLayout:
    def test_feature_file(self, tmp_path, rng, monkeypatch):
        data = rng.standard_normal((4, 3))
        expected = b"UOSF" + struct.pack("<III", 1, 4, 3) + data.tobytes(order="F")
        path = written(monkeypatch, tmp_path / "x.bin", lambda p: write_feature_bin(p, data))
        assert path.read_bytes() == expected
        loaded = read_feature_bin(path)
        assert loaded.flags.c_contiguous
        assert loaded.tobytes() == data.tobytes()

    def test_leaf_file(self, tmp_path, leaves, monkeypatch):
        expected = b"UOSL" + struct.pack("<II", 1, 2)
        for b in leaves.bases:
            expected += struct.pack("<II", *b.shape) + f8(b)
        path = written(monkeypatch, tmp_path / "leaves.bin", lambda p: save_leaves(p, leaves))
        assert path.read_bytes() == expected
        for a, b in zip(load_leaves(path).bases, leaves.bases):
            assert a.tobytes() == b.tobytes()

    def test_tree_file(self, tmp_path, rng, monkeypatch):
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
        path = written(monkeypatch, tmp_path / "tree.uost", lambda p: write_tree(tree, p))
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
    def test_knn_bundle(self, tmp_path, rng, leaves, open_set, monkeypatch):
        train = [
            SequenceSample(unit_columns(rng.standard_normal((5, n))), lbl, np.arange(n) % 2)
            for n, lbl in ((2, 0), (3, 4), (1, 4))
        ]
        ceilings = {0: 0.25, 4: 0.5} if open_set else None
        model = KnnModel(train, leaves, k=1, open_set=open_set, varsigma=1.5, ceilings=ceilings)
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
        path = written(
            monkeypatch, tmp_path / "knn.uosm", lambda p: save_model_bundle(p, model)
        )
        assert path.read_bytes() == expected
        loaded = load_model_bundle(path)
        loaded_kind = bundle_kind(loaded)
        assert loaded_kind == kind
        assert (loaded.k, loaded.varsigma, loaded.ceilings) == (1, 1.5, ceilings)
        for a, b in zip(loaded.train, train):
            assert a.label == b.label
            assert a.features.tobytes() == b.features.tobytes()
            assert np.array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize("kind", [KIND_SVM_OVO, KIND_SVM_OVA, KIND_SVM_OPEN])
    def test_svm_bundle(self, tmp_path, leaves, kind, monkeypatch):
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
        model = MulticlassSvmModel(
            mode, [1, 3, 6], leaves, assignments, labels, 0.75, 10.0, models,
            kind == KIND_SVM_OPEN,
        )
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
        path = written(
            monkeypatch,
            tmp_path / "svm.uosm",
            lambda p: save_model_bundle(p, model),
        )
        assert path.read_bytes() == expected
        loaded = load_model_bundle(path)
        loaded_kind = bundle_kind(loaded)
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
