"""Invariances the maths gives, checked end to end through the CLI where the
relation is about a CLI output.

For every classify mode:
- reordering the training set changes no k-NN vote and no SVM decision, so
  `classify` stdout must not depend on the order of the sequences in `train/`;
- each test sequence is predicted on its own, so reordering `test/` permutes
  the predictions and leaves the summary as it was;
- leaf assignments enter the classifiers only through subspace distances, so
  permuting the bases in `leaves.bin` changes no prediction.

For the beta = 0 methods (lrr, sclrr):
- with columnwise errors, X enters the program only through X^T X, column
  norms and |x_i . x_j|, so Z(UX) = Z(X) for an orthogonal U;
- permuting the samples conjugates Z, so the `cluster` labels permute with
  the samples up to a relabelling, with the same accuracy, and the sclrr
  `hierarchy` leaves hold the same samples, up to a relabelling of the leaves.
"""

import json
import shutil

import numpy as np
import pytest

from conftest import random_orthonormal, unit_columns
from uoslearn import datasets
from uoslearn.cli import cli_main
from uoslearn.hierarchy import read_tree
from uoslearn.sequences import LeafSet
from uoslearn.solver import FeatureMatrix, SolverConfig, cslrr_solve
from uoslearn.synth import UosSynthConfig, generate_synthetic_uos

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


def uos_sample(subspaces, points, seed) -> FeatureMatrix:
    x, _ = generate_synthetic_uos(
        UosSynthConfig(
            m=20, subspaces=subspaces, dim=3, points_per_subspace=points, noise=0.05,
            seed=seed,
        )
    )
    return x


def paired_sample(seed, m=20, d=3, points=12) -> FeatureMatrix:
    """Four subspaces of dim d in two orthogonal pairs; the members of a pair
    share one direction, so the first split of the tree is well posed."""
    rng = np.random.default_rng(seed)
    g = random_orthonormal(m, 4 * d - 2, rng)
    bases = [
        g[:, :d],
        np.hstack([g[:, :1], g[:, d : 2 * d - 1]]),
        g[:, 2 * d - 1 : 3 * d - 1],
        np.hstack([g[:, 2 * d - 1 : 2 * d], g[:, 3 * d - 1 :]]),
    ]
    return FeatureMatrix(
        unit_columns(np.hstack([b @ rng.standard_normal((d, points)) for b in bases]))
    )


@pytest.mark.parametrize("alpha", [0.0, 1.0], ids=["lrr", "sclrr"])
def test_z_ignores_a_rotation_of_the_samples(alpha):
    x = uos_sample(3, 15, seed=2)
    u = random_orthonormal(20, 20, np.random.default_rng(5))
    cfg = SolverConfig(alpha=alpha, beta=0.0, lam=10.0)
    given = cslrr_solve(x, cfg, 3)
    rotated = cslrr_solve(FeatureMatrix(u @ x.data), cfg, 3)
    assert given.converged and rotated.converged
    assert np.abs(rotated.z - given.z).max() < 1e-8


@pytest.mark.parametrize("alpha", [0.0, 1.0], ids=["lrr", "sclrr"])
def test_every_iterate_ignores_a_rotation_of_the_samples(alpha):
    # The same relation with the stopping test out of play: 117 iterations each.
    x = uos_sample(3, 15, seed=2)
    u = random_orthonormal(20, 20, np.random.default_rng(5))
    cfg = SolverConfig(alpha=alpha, beta=0.0, lam=10.0, epsilon=1e-300, max_iters=117)
    given, rotated = [], []
    cslrr_solve(x, cfg, 3, callback=lambda st: given.append(st.z.copy()))
    cslrr_solve(
        FeatureMatrix(u @ x.data), cfg, 3, callback=lambda st: rotated.append(st.z.copy())
    )
    assert len(given) == len(rotated) == 117
    assert max(np.abs(a - b).max() for a, b in zip(given, rotated)) < 1e-8


def cluster_labels(x: FeatureMatrix, truth, root, name, method, capsys):
    """The `cluster` labels and accuracy of x, run through the CLI."""
    datasets.write_feature_bin(root / f"{name}.bin", x.data)
    datasets.write_labels(root / f"{name}.txt", truth)
    code = cli_main([
        "cluster", "--clusters", str(len(set(truth.tolist()))), "--method", method,
        "--set", f"data={root / name}.bin", "--set", f"labels={root / name}.txt",
        "--set", "lambda=10",
    ])
    assert code == 0
    cluster, accuracy = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    return np.array(cluster["labels"]), accuracy["value"]


@pytest.mark.parametrize("method", ["lrr", "sclrr"])
@pytest.mark.parametrize(
    "synth",
    [
        UosSynthConfig(m=20, subspaces=3, dim=3, points_per_subspace=15, noise=0.05, seed=2),
        # Overlapping and noisy, so that some samples are misclustered:
        # accuracy 0.67 (lrr) and 0.96 (sclrr).
        UosSynthConfig(
            m=10, subspaces=4, dim=4, points_per_subspace=12, noise=0.3,
            geometry="disjoint", seed=3,
        ),
    ],
    ids=["independent", "disjoint-noisy"],
)
def test_cluster_labels_permute_with_the_samples(tmp_path, capsys, synth, method):
    x, truth = generate_synthetic_uos(synth)
    order = permutation(x.n_samples, 17)
    labels, accuracy = cluster_labels(x, truth, tmp_path, "given", method, capsys)
    permuted, permuted_accuracy = cluster_labels(
        FeatureMatrix(x.data[:, order]), truth[order], tmp_path, "permuted", method, capsys
    )
    assert permuted_accuracy == accuracy
    # The same partition up to relabelling: the label pairs form a bijection.
    pairs = set(zip(labels[order].tolist(), permuted.tolist()))
    assert len(pairs) == len(set(labels)) == len(set(permuted)) == synth.subspaces


def hierarchy_leaf_labels(x: FeatureMatrix, root, name) -> np.ndarray:
    datasets.write_feature_bin(root / f"{name}.bin", x.data)
    code = cli_main([
        "hierarchy", "--set", f"data={root / name}.bin", "--set", "method=sclrr",
        "--set", "lambda=10", "--set", "levels=2", "--out", str(root / f"{name}.uost"),
    ])
    assert code == 0
    return read_tree(root / f"{name}.uost").leaf_labels()


@pytest.mark.parametrize(
    "sample",
    [
        pytest.param(lambda: paired_sample(1), id="paired"),
        # Found failing: the first split of four independent subspaces is
        # ill posed, and the seeded k-means++ picks its centres by position.
        pytest.param(
            lambda: uos_sample(4, 12, seed=3),
            id="independent",
            marks=pytest.mark.xfail(
                strict=True, reason="the level-1 split differs: 5 label pairs for 4 leaves"
            ),
        ),
    ],
)
def test_sclrr_hierarchy_leaves_permute_with_the_samples(tmp_path, capsys, sample):
    x = sample()
    order = permutation(x.n_samples, 17)
    labels = hierarchy_leaf_labels(x, tmp_path, "given")
    permuted = hierarchy_leaf_labels(FeatureMatrix(x.data[:, order]), tmp_path, "permuted")
    assert len(set(labels)) == 4
    # The same partition up to relabelling: the label pairs form a bijection.
    pairs = set(zip(labels[order].tolist(), permuted.tolist()))
    assert len(pairs) == len(set(labels)) == len(set(permuted))
