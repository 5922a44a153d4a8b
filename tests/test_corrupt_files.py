"""Truncated or bit-flipped input files must fail as data errors, never crash.

A tiny pipeline writes a tree, a leaf file, a feature file, one bundle of
each kind and a dataset's label and boundary text files. Hypothesis then
truncates one of them at a sampled offset or flips one byte, and the
damaged file is restored afterwards. The loader may only raise UosError
subclasses. `classify` on a damaged binary file must exit 2 for a
truncation and 0 or 2 for a flip (a flip can leave a well-formed file); on
a damaged text file it must exit 0 or 2 either way (a truncation that drops
only the final newline leaves a valid file).
"""

import contextlib
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uoslearn.bundles import load_model_bundle
from uoslearn.cli import cli_main
from uoslearn.datasets import load_boundaries, load_labels, load_leaves, read_feature_bin
from uoslearn.errors import UosError
from uoslearn.hierarchy import read_tree

BUNDLES = {
    "knn": ["--classifier", "knn", "--set", "k=1"],
    "knn_open": ["--classifier", "knn", "--set", "k=1", "--open"],
    "svm_ovo": ["--classifier", "svm-ovo"],
    "svm_ova": ["--classifier", "svm-ova"],
    "svm_ova_open": ["--classifier", "svm-ova", "--open"],
}
TEXT = ("labels", "boundaries")


def run(*argv):
    assert cli_main(list(argv)) == 0, argv


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """name -> (intact bytes, loader, damaged-file path, classify argv)."""
    work = tmp_path_factory.mktemp("pipeline")
    (work / "seq.cfg").write_text(
        "kind = sequences\nm = 6\nleaves = 3\nleaf_dim = 2\nclasses = 2\n"
        "train_per_class = 3\ntest_per_class = 1\ntemplate_len = 2\n"
        "frames_min = 1\nframes_max = 2\njitter = 0.02\n"
    )
    (work / "uos.cfg").write_text("kind = uos\nm = 6\nsubspaces = 2\ndim = 2\npoints = 5\n")
    (work / "h.cfg").write_text(
        "data = uos/features.bin\nformat = bin\nmethod = sclrr\nlevels = 3\nlambda = 10.0\n"
    )
    seq, damaged = work / "seq", work / "damaged"
    run("synth", "--config", str(work / "seq.cfg"), "--seed", "1", "--out", str(seq))
    run("synth", "--config", str(work / "uos.cfg"), "--seed", "1", "--out", str(work / "uos"))
    run("hierarchy", "--config", str(work / "h.cfg"), "--seed", "0",
        "--out", str(work / "tree.uost"))
    shutil.copytree(seq, damaged)
    data = ["classify", "--data", str(seq)]
    targets = {
        "tree": (work / "tree.uost", read_tree, [*data, "--classifier", "svm-ovo", "--tree"]),
        "leaves": (seq / "leaves.bin", load_leaves, [*data, "--classifier", "svm-ovo", "--leaves"]),
    }
    for name, flags in BUNDLES.items():
        bundle = work / f"{name}.uosm"
        run(*data, *flags, "--save-model", str(bundle))
        targets[name] = (bundle, load_model_bundle, [*data, "--model"])
    out = {
        name: (path.read_bytes(), loader, damaged / path.name, [*argv, str(damaged / path.name)])
        for name, (path, loader, argv) in targets.items()
    }
    knn = ["classify", "--data", str(damaged), "--classifier", "knn", "--set", "k=1"]
    n_frames = read_feature_bin(damaged / "train" / "features.bin").shape[1]
    for name, path, loader in (
        ("features", damaged / "test" / "features.bin", read_feature_bin),
        ("labels", damaged / "train" / "labels.txt", load_labels),
        ("boundaries", damaged / "train" / "boundaries.txt",
         lambda p: load_boundaries(p, n_frames)),
    ):
        out[name] = (path.read_bytes(), loader, path, knn)
    return out


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("name", ["tree", "leaves", "features", *BUNDLES, *TEXT])
@settings(max_examples=40, deadline=None, print_blob=True)
@given(data=st.data())
def test_damaged_file_is_a_data_error(pipeline, name, data):
    raw, loader, path, argv = pipeline[name]
    offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
    truncate = data.draw(st.booleans(), label="truncate")
    if truncate:
        path.write_bytes(raw[:offset])
    else:
        mask = data.draw(st.integers(1, 255), label="mask")
        path.write_bytes(raw[:offset] + bytes([raw[offset] ^ mask]) + raw[offset + 1 :])
    try:
        with contextlib.suppress(UosError):
            loader(path)
        code = cli_main(argv)
    finally:
        path.write_bytes(raw)
    assert code == 2 if truncate and name not in TEXT else code in (0, 2)
