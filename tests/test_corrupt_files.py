"""Truncated or bit-flipped input files must fail as data errors, never crash.

A tiny pipeline writes a tree, a leaf file, a feature file, one bundle of
each kind and a dataset's label and boundary text files. Hypothesis then
truncates one of them at a sampled offset or flips one byte, and the
damaged file is restored afterwards. The loader may only raise UosError
subclasses. `classify` on a damaged binary file must exit 2 for a
truncation and 0 or 2 for a flip (a flip can leave a well-formed file); on
a damaged text file it must exit 0 or 2 either way (a truncation that drops
only the final newline leaves a valid file).

Config input is fuzzed the same way: odd bytes spliced into a working
config file, and random `key = value` lines (duplicate keys, `=` inside
values, empty keys, any non-digit text) added to it or given by `--set`.
Every command must then exit 0 or 2, never raise. Numeric values come from
a small pool, so no run can ask for a huge problem.
"""

import contextlib
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uoslearn.bundles import load_model_bundle
from uoslearn.cli import CLASSIFY_KEYS, CLUSTER_KEYS, HIERARCHY_KEYS, SYNTH_KEYS, cli_main
from uoslearn.datasets import load_boundaries, load_labels, load_leaves, read_feature_bin
from uoslearn.errors import DataError, UosError
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


def k_of_9(raw, model):
    # A k-NN bundle stores u32 k right after its kind byte and leaf bases,
    # which are encoded as in the leaf file after its 8-byte header.
    at = 9 + 4 + sum(8 + 8 * basis.size for basis in model.leaves.bases)
    assert struct.unpack_from("<I", raw, at) == (model.k,) == (1,)
    return raw[:at] + struct.pack("<I", 9) + raw[at + 4 :]


def replaced(raw, matrix, change):
    """`raw` with the stored row-major float64 bytes of `matrix` replaced by `change(matrix)`."""
    old = np.ascontiguousarray(matrix, "<f8").tobytes()
    new = np.ascontiguousarray(change(matrix.copy()), "<f8").tobytes()
    at = raw.index(old)
    return raw[:at] + new + raw[at + len(old) :]


def nan_first(matrix):
    matrix[0, 0] = np.nan
    return matrix


def tripled(matrix):
    return 3 * matrix


NOT_ORTHONORMAL = r"basis columns must be orthonormal; Gram entry \((\d), \1\) is 9\.0"


# Damage to one stored value that the file's structure cannot show:
# id -> (file, damage(intact bytes, loaded file), message after the path).
BAD_VALUES = {
    "knn-k-above-a-class-size": ("knn", k_of_9, ".* than k=9"),
    "knn_open-k-above-a-class-size": ("knn_open", k_of_9, ".* than k=9"),
    "leaves-nan": (
        "leaves",
        lambda raw, leaves: replaced(raw, leaves.bases[0], nan_first),
        "leaf basis contains non-finite entries",
    ),
    "leaves-scaled": (
        "leaves",
        lambda raw, leaves: replaced(raw, leaves.bases[0], tripled),
        "leaf " + NOT_ORTHONORMAL,
    ),
    "tree-node-basis-nan": (
        "tree",
        lambda raw, tree: replaced(raw, tree.nodes[0].basis, nan_first),
        "node basis contains non-finite entries",
    ),
    "tree-node-basis-scaled": (
        "tree",
        lambda raw, tree: replaced(raw, tree.nodes[0].basis, tripled),
        "node " + NOT_ORTHONORMAL,
    ),
    "knn-leaf-basis-scaled": (
        "knn",
        lambda raw, model: replaced(raw, model.leaves.bases[0], tripled),
        "leaf " + NOT_ORTHONORMAL,
    ),
    "knn-frame-nan": (
        "knn",
        lambda raw, model: replaced(raw, model.train[0].features, nan_first),
        "sequence contains non-finite entries",
    ),
    "knn-frame-doubled": (
        "knn",
        lambda raw, model: replaced(raw, model.train[0].features, lambda f: 2 * f),
        r"sequence columns must have unit l2 norm; column \d+ has norm 2\.0",
    ),
}


@pytest.mark.parametrize("name, damage, message", BAD_VALUES.values(), ids=BAD_VALUES)
def test_bad_value_is_a_data_error_naming_the_file(pipeline, name, damage, message, capsys):
    raw, loader, path, argv = pipeline[name]
    try:
        path.write_bytes(raw)
        path.write_bytes(damage(raw, loader(path)))
        with pytest.raises(DataError, match=re.escape(f"{path}: ") + message):
            loader(path)
        code = cli_main(argv)
    finally:
        path.write_bytes(raw)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


CONFIG_KEYS = sorted(
    {*CLUSTER_KEYS, *HIERARCHY_KEYS, *CLASSIFY_KEYS, "kind", "out", *sum(SYNTH_KEYS.values(), ())}
)
CONFIG_VALUES = (
    "", "0", "1", "2", "3", "-1", "0.5", "nan", "inf", "x", "a=b", "=", "yes", "off",
    "uos", "sequences", "knn", "svm-ovo", "svm-ova", "lrr", "sclrr", "cslrr", "bin", "csv",
    "blockwise", "uos/features.bin", "uos/labels.txt", "seq",
)
# No decimal digits, so random text never parses as a (large) number.
WORD = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
VALUE = st.sampled_from(CONFIG_VALUES) | WORD
# The keys each command reads (eval reads none), drawn more often than the rest.
OWN_KEYS = {
    "cluster": CLUSTER_KEYS,
    "hierarchy": HIERARCHY_KEYS,
    "classify": CLASSIFY_KEYS,
    "bundle": CLASSIFY_KEYS,
    "synth": ("kind", "out", "seed", *SYNTH_KEYS["uos"]),
    "eval": ("seed",),
}


def config_item(command):
    key = st.sampled_from(OWN_KEYS[command]) | st.sampled_from(["", " ", *CONFIG_KEYS]) | WORD
    return st.builds("{}={}".format, key, VALUE) | WORD


@pytest.fixture(scope="module")
def config_runs(tmp_path_factory):
    """command -> (a working config's lines, argv without --config), and the config path."""
    work = tmp_path_factory.mktemp("configs")
    uos, seq, bundle = work / "uos", work / "seq", work / "model.uosm"
    (work / "uos.cfg").write_text("kind = uos\nm = 6\nsubspaces = 2\ndim = 2\npoints = 5\n")
    (work / "seq.cfg").write_text(
        "kind = sequences\nm = 6\nleaves = 3\nleaf_dim = 2\nclasses = 2\n"
        "train_per_class = 3\ntest_per_class = 1\njitter = 0.02\n"
    )
    run("synth", "--config", str(work / "uos.cfg"), "--seed", "1", "--out", str(uos))
    run("synth", "--config", str(work / "seq.cfg"), "--seed", "1", "--out", str(seq))
    run("classify", "--data", str(seq), "--classifier", "svm-ovo", "--save-model", str(bundle))
    labels = str(uos / "labels.txt")
    solver = ["data = uos/features.bin", "labels = uos/labels.txt", "lambda = 10"]
    runs = {
        "cluster": ([*solver, "clusters = 2"], ["cluster"]),
        "hierarchy": ([*solver, "levels = 2", "method = sclrr"], ["hierarchy"]),
        "classify": (["data = seq", "classifier = knn", "k = 1"], ["classify"]),
        "bundle": (["data = seq"], ["classify", "--model", str(bundle)]),
        "synth": (["kind = uos", "m = 6", "subspaces = 2", "dim = 2", "points = 4"],
                  ["synth", "--out", str(work / "synth-out")]),
        "eval": ([], ["eval", "--pred", labels, "--truth", labels]),
    }
    return runs, work / "fuzz.cfg"


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("command", OWN_KEYS)
@settings(max_examples=30, deadline=None, print_blob=True)
@given(data=st.data())
def test_odd_bytes_in_config_file_exit_0_or_2(config_runs, command, data):
    runs, cfg = config_runs
    lines, argv = runs[command]
    text = "".join(f"{line}\n" for line in lines).encode()
    offset = data.draw(st.integers(0, len(text)), label="offset")
    junk = data.draw(st.binary(max_size=40) | WORD.map(str.encode), label="junk")
    cfg.write_bytes(text[:offset] + junk + text[offset:])
    assert cli_main([*argv, "--config", str(cfg)]) in (0, 2)


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("command", OWN_KEYS)
@settings(max_examples=40, deadline=None, print_blob=True)
@given(data=st.data())
def test_random_config_lines_and_set_items_exit_0_or_2(config_runs, command, data):
    runs, cfg = config_runs
    lines, argv = runs[command]
    lines = list(lines)
    item = config_item(command)
    for line in data.draw(st.lists(item, max_size=3), label="lines"):
        lines.insert(data.draw(st.integers(0, len(lines))), line.replace("=", " = ", 1))
    cfg.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    # A command line cannot carry a NUL byte.
    items = data.draw(st.lists(item.filter(lambda i: "\0" not in i), max_size=2), label="set")
    overrides = [arg for i in items for arg in ("--set", i)]
    assert cli_main([*argv, "--config", str(cfg), *overrides]) in (0, 2)
