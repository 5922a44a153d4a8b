"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the assertions pin every tolerance.
"""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import random_orthonormal
from test_hierarchy import shared_direction_data
from test_solver import reference_lrr_iterates
from uoslearn.bundles import KnnModel
from uoslearn.cli import cli_main
from uoslearn.datasets import write_feature_bin, write_labels
from uoslearn.hierarchy import HierarchyConfig, hcs_lrr
from uoslearn.linalg import col_l21_prox, elementwise_shrink, svt
from uoslearn.metrics import clustering_accuracy
from uoslearn.sequences import (
    LeafSet,
    assign_to_leaves,
    class_distance_ceilings,
    dtw_grassmann,
    subspace_distance,
)
from uoslearn.solver import (
    FeatureMatrix,
    SolverConfig,
    build_affinity,
    build_weight_matrix,
    cslrr_solve,
    threshold_coefficients,
)
from uoslearn.spectral import spectral_cluster
from uoslearn.svm import (
    MODE_ONE_VS_ONE,
    svm_predict_multiclass,
    svm_train_multiclass,
)
from uoslearn.synth import (
    SequenceSynthConfig,
    UosSynthConfig,
    generate_synthetic_sequences,
    generate_synthetic_uos,
    split_by_class,
)


def report(num, text):
    print(f"[criterion {num}] PASS — {text}")


@pytest.fixture(scope="module")
def converged_instance():
    cfg = UosSynthConfig(
        m=50, subspaces=5, dim=4, points_per_subspace=40, noise=0.0, seed=7
    )
    fm, truth = generate_synthetic_uos(cfg)
    scfg = SolverConfig(
        alpha=1.0,
        beta=0.5,
        lam=10.0,
        rho=1.1,
        mu0=0.1,
        epsilon=1e-7,
        max_iters=500,
    )
    start = time.perf_counter()
    result = cslrr_solve(fm, scfg, 5)
    elapsed = time.perf_counter() - start
    return fm, truth, scfg, result, elapsed


def test_criterion_1_ladm_convergence(converged_instance):
    _, _, scfg, result, elapsed = converged_instance
    assert result.converged, "solver must satisfy both residual checks"
    assert result.iterations <= 500
    r1, r2 = result.residual_history[-1]
    assert r1 <= scfg.epsilon and r2 <= scfg.epsilon
    assert elapsed < 60.0
    report(
        1,
        f"converged in {result.iterations} iterations, {elapsed:.1f}s, "
        f"residuals ({r1:.2e}, {r2:.2e}) <= 1e-7",
    )


def test_criterion_2_clustering_quality(converged_instance):
    fm, truth, scfg, result, _ = converged_instance
    w = build_affinity(threshold_coefficients(result.z, scfg.coeff_threshold))
    labels = spectral_cluster(w, 5, seed=0)
    acc = clustering_accuracy(labels, truth)
    assert acc >= 0.99
    report(2, f"clustering accuracy {acc:.4f} >= 0.99")


def test_criterion_3_degeneration_equivalence():
    n_iters = 25
    for seed in (11, 12, 13):
        r = np.random.default_rng(seed)
        x = r.standard_normal((10, 15))
        x /= np.linalg.norm(x, axis=0)
        fm = FeatureMatrix(x)

        lrr_cfg = SolverConfig(
            alpha=0.0, beta=0.0, lam=0.8, max_iters=n_iters, epsilon=1e-16
        )
        seen = []
        cslrr_solve(
            fm,
            lrr_cfg,
            3,
            callback=lambda s: seen.append((s.z.copy(), s.q.copy(), s.e.copy())),
        )
        ref = reference_lrr_iterates(x, 0.8, n_iters)
        for ours, theirs in zip(seen, ref):
            for a, b in zip(ours, theirs):
                assert np.abs(a - b).max() < 1e-10

        sc_cfg = SolverConfig(
            alpha=1.1, beta=0.0, lam=0.8, max_iters=n_iters, epsilon=1e-16
        )
        seen = []
        cslrr_solve(
            fm,
            sc_cfg,
            3,
            callback=lambda s: seen.append((s.z.copy(), s.q.copy(), s.e.copy())),
        )
        weights = build_weight_matrix(fm)
        ref = reference_lrr_iterates(x, 0.8, n_iters, weights=weights, alpha=1.1)
        for ours, theirs in zip(seen, ref):
            for a, b in zip(ours, theirs):
                assert np.abs(a - b).max() < 1e-10
    report(3, "alpha=beta=0 and beta=0 match standalone loops to 1e-10 on 3 seeds")


def test_criterion_4_proximal_oracles():
    rng = np.random.default_rng(99)
    tau = 0.5
    failures = 0
    for _ in range(100):
        a = rng.standard_normal((8, 6))
        out = svt(a, tau)
        base = tau * np.linalg.svd(out, compute_uv=False).sum() + 0.5 * np.sum(
            (out - a) ** 2
        )
        perts = rng.standard_normal((1000, 8, 6))
        norms = np.linalg.norm(perts.reshape(1000, -1), axis=1)
        scales = rng.uniform(0.0, 0.1, size=1000) / norms
        candidates = out[None] + perts * scales[:, None, None]
        nuc = np.linalg.svd(candidates, compute_uv=False).sum(axis=1)
        objs = tau * nuc + 0.5 * ((candidates - a[None]) ** 2).sum(axis=(1, 2))
        failures += int(np.sum(objs < base - 1e-12))
    assert failures == 0

    c = rng.standard_normal((7, 11))
    c[:, 4] = 0.0
    out = col_l21_prox(c, 0.6)
    for j in range(c.shape[1]):
        norm = np.linalg.norm(c[:, j])
        expected = c[:, j] * max(1 - 0.6 / norm, 0.0) if norm > 0 else c[:, j]
        assert np.array_equal(out[:, j], expected)

    xs = np.linspace(-4, 4, 100)
    ts = np.linspace(0, 2.5, 100)
    a = np.tile(xs, (100, 1))
    h = np.tile(ts[:, None], (1, 100))
    expected = np.maximum(a - h, 0.0) + np.minimum(a + h, 0.0)
    assert np.array_equal(elementwise_shrink(a, h, 1.0), expected)
    report(
        4,
        "svt beat 100x1000 perturbations (0 failures); column prox exact; "
        "shrink exact on a 10^4 grid",
    )


def _all_monotone_paths(n, m):
    paths = []

    def walk(a, b, acc):
        if (a, b) == (n - 1, m - 1):
            paths.append(acc)
            return
        if a + 1 < n and b + 1 < m:
            walk(a + 1, b + 1, acc + [(a + 1, b + 1)])
        if a + 1 < n:
            walk(a + 1, b, acc + [(a + 1, b)])
        if b + 1 < m:
            walk(a, b + 1, acc + [(a, b + 1)])

    walk(0, 0, [(0, 0)])
    return paths


def test_criterion_5_dtw_exhaustive():
    rng = np.random.default_rng(5)
    bases = []
    g = random_orthonormal(9, 7, rng)
    for offset, d in ((0, 2), (2, 3), (5, 2)):
        bases.append(g[:, offset : offset + d])
    leaves = LeafSet(bases)
    table = leaves.distances

    checked = 0
    max_gap = 0.0
    for la in range(1, 6):
        va = np.array(list(itertools.product(range(3), repeat=la)), dtype=int)
        for lb in range(1, 6):
            vb = np.array(list(itertools.product(range(3), repeat=lb)), dtype=int)
            best = np.full((len(va), len(vb)), np.inf)
            for path in _all_monotone_paths(la, lb):
                cost = np.zeros((len(va), len(vb)))
                for a, b in path:
                    cost += table[va[:, a]][:, vb[:, b]]
                np.minimum(best, cost, out=best)
            for i in range(len(va)):
                for j in range(len(vb)):
                    got = dtw_grassmann(va[i], vb[j], leaves)
                    gap = abs(got - best[i, j])
                    if gap > max_gap:
                        max_gap = gap
                    checked += 1
    assert checked == 363 * 363
    assert max_gap <= 1e-12
    report(5, f"{checked} assignment-vector pairs match enumeration (max gap {max_gap:.1e})")


def test_criterion_6_grassmann_distance():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        da, db = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        ua = random_orthonormal(10, da, rng)
        ub = random_orthonormal(10, db, rng)
        d = subspace_distance(ua, ub)
        assert 0.0 <= d <= 1.0
        assert abs(d - subspace_distance(ub, ua)) <= 1e-12
        ra = random_orthonormal(da, da, rng)
        rb = random_orthonormal(db, db, rng)
        assert abs(subspace_distance(ua @ ra, ub @ rb) - d) <= 1e-10
    rot = random_orthonormal(8, 8, rng)
    nested = subspace_distance(rot[:, :1], rot[:, :2])
    assert abs(nested - np.sqrt(0.5)) <= 1e-12
    report(6, "symmetry/range/rotation over 1000 pairs; nested case = sqrt(1/2) to 1e-12")


def test_criterion_7_hierarchy_recovery():
    scfg = SolverConfig(alpha=1.0, beta=0.5, lam=10.0, max_iters=400)
    hcfg = HierarchyConfig(max_level=3, gamma=0.98, split_gain=0.01, min_dim=1)
    accs = []
    for seed in range(5):
        fm, truth = shared_direction_data(50, 4, 30, seed)
        tree = hcs_lrr(fm, scfg, hcfg, seed=seed)
        acc = clustering_accuracy(tree.leaf_labels(), truth)
        accs.append(acc)
        assert acc >= 0.95, f"seed {seed}: accuracy {acc}"

    fm, _ = shared_direction_data(50, 4, 30, 0)
    tree = hcs_lrr(fm, scfg, HierarchyConfig(max_level=1), seed=0)
    assert len(tree.leaves()) == 2
    report(
        7,
        "leaf accuracy "
        + ", ".join(f"{a:.3f}" for a in accs)
        + " >= 0.95 on 5 seeds; P=1 gives exactly 2 leaves",
    )


def test_criterion_8_classification_desk_scale():
    cfg = SequenceSynthConfig(
        m=30,
        leaves=6,
        leaf_dim=3,
        classes=4,
        sequences_per_class=30,
        template_len=5,
        frames_min=2,
        frames_max=4,
        jitter=0.03,
        seed=12,
    )
    samples, leaves = generate_synthetic_sequences(cfg)
    for s in samples:
        s.assignment = assign_to_leaves(s, leaves)
    train, test = split_by_class(samples, 20)
    assert len(train) == 80 and len(test) == 40

    knn_acc = np.mean(
        [KnnModel(train, leaves, k=3).predict(s) == s.label for s in test]
    )
    assert knn_acc >= 0.90

    model = svm_train_multiclass(train, leaves, mode=MODE_ONE_VS_ONE)
    svm_acc = np.mean(
        [svm_predict_multiclass(model, s.assignment) == s.label for s in test]
    )
    assert svm_acc >= 0.90

    held_out = 3
    kept = [s for s in train if s.label != held_out]
    ceilings = class_distance_ceilings(kept, leaves, k=3)
    best = None
    for varsigma in (1.05, 1.2, 1.5, 2.0, 3.0):
        model = KnnModel(kept, leaves, k=3, open_set=True, varsigma=varsigma, ceilings=ceilings)
        preds = [model.predict(s) for s in test]
        known = [(p, s.label) for p, s in zip(preds, test) if s.label != held_out]
        unknown = [p for p, s in zip(preds, test) if s.label == held_out]
        known_acc = np.mean([p == t for p, t in known])
        new_recall = np.mean([p is None for p in unknown])
        if new_recall >= 0.8 and known_acc >= 0.85:
            best = (varsigma, known_acc, new_recall)
            break
    assert best is not None, "no varsigma met the open-set bar"
    report(
        8,
        f"kNN {knn_acc:.3f}, one-vs-one SVM {svm_acc:.3f} >= 0.90; open-set at "
        f"varsigma={best[0]}: closed {best[1]:.3f} >= 0.85, NEW recall {best[2]:.3f} >= 0.8",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    ucfg = UosSynthConfig(m=20, subspaces=3, dim=2, points_per_subspace=12, seed=3)
    fm, labels = generate_synthetic_uos(ucfg)
    write_feature_bin(tmp_path / "features.bin", fm.data)
    write_labels(tmp_path / "labels.txt", labels)
    (tmp_path / "cluster.cfg").write_text(
        f"data = {tmp_path}/features.bin\nformat = bin\nlabels = {tmp_path}/labels.txt\n"
        "clusters = 3\nalpha = 1.0\nbeta = 0.5\nlambda = 10.0\nmax_iters = 300\n"
    )
    (tmp_path / "hier.cfg").write_text(
        f"data = {tmp_path}/features.bin\nformat = bin\nlabels = {tmp_path}/labels.txt\n"
        "levels = 2\nalpha = 1.0\nbeta = 0.5\nlambda = 10.0\nmax_iters = 300\n"
    )
    (tmp_path / "synth.cfg").write_text(
        "kind = sequences\nm = 16\nleaves = 3\nleaf_dim = 2\nclasses = 2\n"
        "train_per_class = 4\ntest_per_class = 2\njitter = 0.02\n"
    )

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    stages = {
        "synth": ["synth", "--config", str(tmp_path / "synth.cfg"), "--seed", "5",
                  "--out", str(tmp_path / "seq")],
        "cluster": ["cluster", "--config", str(tmp_path / "cluster.cfg"), "--seed", "7"],
        "hierarchy": ["hierarchy", "--config", str(tmp_path / "hier.cfg"), "--seed", "7"],
        "classify": ["classify", "--data", str(tmp_path / "seq"), "--set",
                     "classifier=knn", "--set", "k=2"],
        "eval": ["eval", "--pred", str(tmp_path / "labels.txt"), "--truth",
                 str(tmp_path / "labels.txt")],
    }
    for name, argv in stages.items():
        first = run(argv)
        second = run(argv)
        assert first == second, f"stage {name} is not byte-reproducible"
        for line in first.strip().splitlines():
            json.loads(line)
    report(9, "synth/cluster/hierarchy/classify/eval JSON-lines byte-identical on reruns")
