"""Invariances the maths gives, checked end to end through the CLI.

Reordering the training set changes no k-NN vote and no SVM decision, so
`classify` stdout must not depend on the order of the sequences in `train/`.
"""

import shutil

import numpy as np
import pytest

from uoslearn import datasets
from uoslearn.cli import cli_main

WITHHELD = 2  # in test/ only, so the open-set modes have a class to reject


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory):
    """A sequence dataset with one class withheld from train, and a copy whose
    train/ holds the same sequences in shuffled order."""
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
    order = np.random.default_rng(7).permutation(len(train))
    assert not np.array_equal(order, np.arange(len(train)))
    shuffled = root / "shuffled"
    shutil.copytree(given / "test", shuffled / "test")
    shutil.copy(given / "leaves.bin", shuffled)
    datasets.save_sequence_dataset(shuffled / "train", [train[i] for i in order])
    return given, shuffled


@pytest.mark.parametrize(
    "mode",
    [["knn"], ["knn", "--open"], ["svm-ovo"], ["svm-ova"], ["svm-ova", "--open"]],
    ids=["knn", "knn-open", "svm-ovo", "svm-ova", "svm-ova-open"],
)
def test_classify_stdout_ignores_training_set_order(data_dirs, capsys, mode):
    outs = []
    for data in data_dirs:
        capsys.readouterr()
        assert cli_main(["classify", "--data", str(data), "--classifier", *mode]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert '"record": "classification_summary"' in outs[0]
