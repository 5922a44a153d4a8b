"""Invariances the maths gives, checked end to end through the CLI.

For every classify mode:
- reordering the training set changes no k-NN vote and no SVM decision, so
  `classify` stdout must not depend on the order of the sequences in `train/`;
- each test sequence is predicted on its own, so reordering `test/` permutes
  the predictions and leaves the summary as it was;
- leaf assignments enter the classifiers only through subspace distances, so
  permuting the bases in `leaves.bin` changes no prediction.
"""

import json
import shutil

import numpy as np
import pytest

from uoslearn import datasets
from uoslearn.cli import cli_main
from uoslearn.sequences import LeafSet

WITHHELD = 2  # in test/ only, so the open-set modes have a class to reject

MODES = pytest.mark.parametrize(
    "mode",
    [["knn"], ["knn", "--open"], ["svm-ovo"], ["svm-ova"], ["svm-ova", "--open"]],
    ids=["knn", "knn-open", "svm-ovo", "svm-ova", "svm-ova-open"],
)


def permutation(n: int, seed: int) -> np.ndarray:
    order = np.random.default_rng(seed).permutation(n)
    assert not np.array_equal(order, np.arange(n))
    return order


def variant(given, root, name):
    """A copy of dataset `given` under `root/name`."""
    shutil.copytree(given, root / name)
    return root / name


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory):
    """A sequence dataset with one class withheld from train, and copies of it
    that differ only in the order of train/, the order of test/ or the order
    of the leaf bases; also the test-set permutation."""
    root = tmp_path_factory.mktemp("order")
    given = root / "given"
    code = cli_main([
        "synth", "--set", "kind=sequences", "--set", "m=20", "--set", "leaves=5",
        "--set", "leaf_dim=3", "--set", "classes=4", "--set", "train_per_class=6",
        "--set", "test_per_class=3", "--set", "template_len=5", "--set", "jitter=0.03",
        "--seed", "1", "--out", str(given),
    ])
    assert code == 0
    train = [
        s for s in datasets.load_sequence_dataset(given / "train") if s.label != WITHHELD
    ]
    shutil.rmtree(given / "train")
    datasets.save_sequence_dataset(given / "train", train)

    shuffled = variant(given, root, "train-shuffled")
    shutil.rmtree(shuffled / "train")
    datasets.save_sequence_dataset(
        shuffled / "train", [train[i] for i in permutation(len(train), 7)]
    )

    test = datasets.load_sequence_dataset(given / "test")
    test_order = permutation(len(test), 11)
    reordered = variant(given, root, "test-shuffled")
    shutil.rmtree(reordered / "test")
    datasets.save_sequence_dataset(reordered / "test", [test[i] for i in test_order])

    bases = datasets.load_leaves(given / "leaves.bin").bases
    relabelled = variant(given, root, "leaves-permuted")
    datasets.save_leaves(
        relabelled / "leaves.bin",
        LeafSet([bases[i] for i in permutation(len(bases), 13)]),
    )
    return {
        "given": given,
        "train-shuffled": shuffled,
        "test-shuffled": reordered,
        "leaves-permuted": relabelled,
        "test_order": test_order,
    }


def classify_stdout(capsys, data, mode) -> str:
    capsys.readouterr()
    assert cli_main(["classify", "--data", str(data), "--classifier", *mode]) == 0
    out = capsys.readouterr().out
    assert '"record": "classification_summary"' in out
    return out


def classify_records(capsys, data, mode) -> list[dict]:
    return [json.loads(line) for line in classify_stdout(capsys, data, mode).splitlines()]


@MODES
def test_classify_stdout_ignores_training_set_order(data_dirs, capsys, mode):
    given = classify_stdout(capsys, data_dirs["given"], mode)
    assert classify_stdout(capsys, data_dirs["train-shuffled"], mode) == given


@MODES
def test_predictions_permute_with_the_test_set(data_dirs, capsys, mode):
    given = classify_records(capsys, data_dirs["given"], mode)
    reordered = classify_records(capsys, data_dirs["test-shuffled"], mode)
    order = data_dirs["test_order"]
    assert len(given) == len(reordered) == len(order) + 1
    assert reordered[-1] == given[-1]  # the summary
    for j, record in enumerate(reordered[:-1]):
        assert record == dict(given[order[j]], index=j)


@MODES
def test_predictions_ignore_leaf_order(data_dirs, capsys, mode):
    given = classify_stdout(capsys, data_dirs["given"], mode)
    assert classify_stdout(capsys, data_dirs["leaves-permuted"], mode) == given
