"""Each command loads only the SciPy subpackages it runs.

`import uoslearn.cli` loads numpy and no SciPy subpackage. `scipy.linalg`
loads with the first beta > 0 embedding step (cslrr clustering), and
`scipy.spatial` and `scipy.optimize` never. Every other command,
k-NN classification included, runs on numpy alone. Each check runs in
a fresh interpreter, since this test process has imported all of them
long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uoslearn

SRC = Path(uoslearn.__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
stages, modules, block = json.loads(sys.argv[1])
if block:
    sys.modules["scipy"] = None  # every scipy import now raises ImportError
from uoslearn.cli import cli_main
report = {"import": {"loaded": sorted(m for m in modules if m in sys.modules)}}
for name, argv in stages:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0, argv
    report[name] = {"loaded": sorted(m for m in modules if m in sys.modules),
                    "stdout": out.getvalue()}
print(json.dumps(report), file=sys.stderr)
"""


def run_fresh(stages, modules=(), block=False):
    """Run the stages in one fresh interpreter, SciPy blocked if `block`.

    Returns, per stage, the `modules` loaded after it and its stdout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([stages, modules, block])],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.strip().splitlines()[-1])


def loaded_after(stages, modules=("scipy.optimize", "scipy.spatial")):
    """Run the stages in one fresh interpreter; the `modules` loaded after each."""
    return {name: r["loaded"] for name, r in run_fresh(stages, modules).items()}


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    work = tmp_path_factory.mktemp("imports")
    uos, seq = work / "uos", work / "seq"
    synth_uos = ["synth", "--seed", "1", "--out", str(uos), "--set", "kind=uos",
                 "--set", "m=6", "--set", "subspaces=2", "--set", "dim=2", "--set", "points=5"]
    synth_seq = ["synth", "--seed", "1", "--out", str(seq), "--set", "kind=sequences",
                 "--set", "m=6", "--set", "leaves=3", "--set", "leaf_dim=2",
                 "--set", "classes=2", "--set", "train_per_class=3",
                 "--set", "test_per_class=1", "--set", "jitter=0.02"]
    cluster = ["cluster", "--clusters", "2", "--set", f"data={uos / 'features.bin'}",
               "--set", f"labels={uos / 'labels.txt'}", "--set", "lambda=10"]
    classify = ["classify", "--data", str(seq)]
    return [
        ("synth", synth_uos), ("synth", synth_seq), ("cluster", cluster),
        ("svm-ovo", [*classify, "--classifier", "svm-ovo"]),
        ("knn", [*classify, "--classifier", "knn", "--set", "k=1"]),
    ]


def test_knn_loads_no_scipy(stages):
    """Import, synth, SVM and k-NN load no SciPy; cslrr then loads scipy.linalg only."""
    (_, synth_uos), (_, synth_seq), (_, cluster), svm, knn = stages
    loaded = loaded_after(
        [("synth-seq", synth_seq), svm, knn, ("knn-open", [*knn[1], "--open"]),
         ("synth-uos", synth_uos), ("cluster", cluster)],
        modules=("scipy", "scipy.linalg", "scipy.optimize", "scipy.spatial"),
    )
    assert loaded.pop("cluster") == ["scipy", "scipy.linalg"]
    assert loaded == dict.fromkeys(
        ["import", "synth-seq", "svm-ovo", "knn", "knn-open", "synth-uos"], []
    )


def test_only_the_embedding_step_loads_scipy_linalg(stages):
    synth_uos, cluster = stages[0][1], stages[2][1]
    loaded = loaded_after(
        [("synth", synth_uos), ("sclrr", [*cluster, "--method", "sclrr"]), ("cslrr", cluster)],
        modules=("scipy.linalg",),
    )
    assert loaded["import"] == []
    assert loaded["sclrr"] == []
    assert loaded["cslrr"] == ["scipy.linalg"]


def test_beta_zero_commands_run_without_scipy(stages, tmp_path):
    synth_uos, synth_seq, cluster = (argv for _, argv in stages[:3])
    uos = Path(synth_uos[synth_uos.index("--out") + 1])
    data, truth = uos / "features.bin", str(uos / "labels.txt")
    seq = synth_seq[synth_seq.index("--out") + 1]
    pred, tree, bundle = tmp_path / "pred.txt", tmp_path / "tree.uost", tmp_path / "model.uosm"
    knn_bundle = tmp_path / "knn.uosm"
    classify = ["classify", "--data", seq]
    numpy_only = [
        ("synth-uos", synth_uos),
        ("synth-seq", synth_seq),
        ("cluster-lrr", [*cluster, "--method", "lrr", "--out", str(pred)]),
        ("cluster-sclrr", [*cluster, "--method", "sclrr"]),
        ("hierarchy", ["hierarchy", "--set", f"data={data}", "--set", f"labels={truth}",
                       "--set", "levels=1", "--set", "method=sclrr", "--set", "lambda=10",
                       "--out", str(tree), "--summary", str(tmp_path / "tree.txt")]),
        ("svm-ovo", [*classify, "--classifier", "svm-ovo", "--save-model", str(bundle)]),
        ("svm-ova-open", [*classify, "--classifier", "svm-ova", "--open"]),
        ("model", [*classify, "--model", str(bundle)]),
        ("knn-open", [*classify, "--classifier", "knn", "--open", "--set", "k=2"]),
        ("knn-save", [*classify, "--classifier", "knn", "--set", "k=1",
                      "--save-model", str(knn_bundle)]),
        ("knn-model", [*classify, "--model", str(knn_bundle)]),
        ("eval", ["eval", "--pred", str(pred), "--truth", truth]),
    ]
    free = run_fresh(numpy_only, modules=("scipy",))
    blocked = run_fresh(numpy_only, block=True)
    for name, _ in numpy_only:
        assert free[name]["loaded"] == [], name
        assert blocked[name]["stdout"] == free[name]["stdout"], name
        assert free[name]["stdout"], name
