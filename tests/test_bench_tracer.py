"""The benchmark's tracer wraps package functions by module and name.

A refactor that drops or bypasses a traced name makes `--trace 1` crash or
its per-layer counts read 0; these checks catch that in the tier-1 run.
"""

import importlib.util
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from conftest import unit_columns
from uoslearn.cli import cli_main
from uoslearn.datasets import load_sequence_dataset
from uoslearn.bundles import KnnModel
from uoslearn.sequences import assign_to_leaves
from uoslearn.solver import FeatureMatrix, SolverConfig, cslrr_solve
from uoslearn.svm import svm_predict_multiclass, svm_train_multiclass
from uoslearn.synth import SequenceSynthConfig, generate_synthetic_sequences

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_is_a_callable_of_its_module(tracer):
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.TARGETS
        if not callable(getattr(import_module(f"uoslearn.{module}"), attr, None))
    ]
    assert tracer.TARGETS and missing == []


def test_dtw_spans_are_counted_per_pair(tracer):
    cfg = SequenceSynthConfig(
        m=12, leaves=3, leaf_dim=2, classes=2, sequences_per_class=4, seed=1
    )
    samples, leaves = generate_synthetic_sequences(cfg)
    train, probe = samples[1:], samples[0]
    psis = [assign_to_leaves(s, leaves) for s in train]
    run = tracer.Tracer()
    with run.installed():
        svm_train_multiclass(psis, [s.label for s in train], leaves)
        KnnModel(train, k=2, open_set=True).predict(probe, leaves)
    spans = Counter(s.name for s in run.spans)
    sizes = Counter(s.label for s in train).values()
    assert spans["svm.kernel"] == 1
    assert spans["svm.smo"] == 1
    assert spans["sequences.assign_dtw"] == len(train) * (len(train) - 1) // 2
    assert spans["sequences.ceilings"] == 1
    assert spans["sequences.feature_dtw"] == len(train) + sum(
        n * (n - 1) // 2 for n in sizes
    )


def test_svm_prediction_warps_only_support_rows(tracer):
    # One assign_dtw span per training row with a nonzero dual weight in
    # some binary model: the other rows add nothing to a decision value.
    cfg = SequenceSynthConfig(
        m=12, leaves=3, leaf_dim=2, classes=3, sequences_per_class=6, seed=2
    )
    samples, leaves = generate_synthetic_sequences(cfg)
    train, probe = samples[1:], samples[0]
    psis = [assign_to_leaves(s, leaves) for s in train]
    model = svm_train_multiclass(psis, [s.label for s in train], leaves)
    support = set()
    for binary, idx in model.models.values():
        support.update(idx[binary.alpha != 0].tolist())
    run = tracer.Tracer()
    with run.installed():
        svm_predict_multiclass(model, assign_to_leaves(probe, leaves), leaves)
    spans = Counter(s.name for s in run.spans)
    assert 0 < len(support) < len(train)
    assert spans["svm.kernel"] == 1
    assert spans["sequences.assign_dtw"] == len(support)


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_embedding_spans_open_only_when_beta_positive(tracer, beta):
    # At beta = 0 the solver skips the F step, so its spans read 0; at beta > 0
    # it skips only the last iteration's, whose Theta nothing reads.
    x = FeatureMatrix(unit_columns(np.random.default_rng(3).standard_normal((6, 10))))
    cfg = SolverConfig(alpha=1.0, beta=beta, lam=1.0, max_iters=15)
    run = tracer.Tracer()
    with run.installed():
        result = cslrr_solve(x, cfg, 3)
    spans = Counter(s.name for s in run.spans)
    expected = result.iterations - 1 if beta > 0 else 0
    assert spans["solver.z_step"] == result.iterations > 0
    assert spans["solver.f_step"] == spans["solver.eig"] == expected


def test_classify_predicts_through_the_wrapped_names(tracer, tmp_path):
    # Per stage: one svm.predict span per test sequence of an SVM, one
    # ceilings fit for open-set k-NN, one bundle write or read, and every
    # frame the stage assigns counted once. A refactor that routes
    # prediction around a wrapped name changes these counts.
    data, bundle = tmp_path / "seq", str(tmp_path / "model.uosm")
    synth = ["kind=sequences", "m=8", "leaves=3", "leaf_dim=2", "classes=3",
             "train_per_class=4", "test_per_class=2", "jitter=0.02"]
    assert cli_main(["synth", "--seed", "1", "--out", str(data),
                     *(arg for item in synth for arg in ("--set", item))]) == 0
    train, test = (load_sequence_dataset(data / part) for part in ("train", "test"))
    n_test, test_frames = len(test), sum(s.length for s in test)
    all_frames = test_frames + sum(s.length for s in train)
    stages = [  # flags, then (svm.predict, ceilings, saves, loads, frames assigned)
        (["--classifier", "knn", "--open", "--set", "k=2"], (0, 1, 0, 0, all_frames)),
        (["--classifier", "svm-ovo", "--save-model", bundle], (n_test, 0, 1, 0, all_frames)),
        (["--model", bundle], (n_test, 0, 0, 1, test_frames)),
        (["--classifier", "svm-ova", "--open"], (n_test, 0, 0, 0, all_frames)),
        (["--classifier", "knn", "--set", "k=2"], (0, 0, 0, 0, all_frames)),
    ]
    for flags, expected in stages:
        run = tracer.Tracer()
        with run.installed():
            assert cli_main(["classify", "--data", str(data), *flags]) == 0
        spans = Counter(s.name for s in run.spans)
        frames = sum(s.attrs["frames"] for s in run.spans if s.name == "sequences.assign")
        names = ("svm.predict", "sequences.ceilings", "bundles.save", "bundles.load")
        assert (*(spans[n] for n in names), frames) == expected, flags
