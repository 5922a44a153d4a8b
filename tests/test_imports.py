"""Each command loads only the SciPy modules it runs.

`import uoslearn.cli` loads numpy and no SciPy. The first beta > 0
embedding step (cslrr clustering or hierarchy) loads `scipy` and SciPy's
compiled LAPACK wrappers from their file, and no command loads
`scipy.linalg`, `scipy.spatial` or `scipy.optimize`. Every other command,
k-NN classification included, runs on numpy alone, and none of them
loads `concurrent.futures`, which only the beta > 0 solve uses; without
SciPy, a beta > 0 solve exits 2 with a one-line message. Each check runs
in a fresh interpreter, since this test process has imported all of them
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


def run_python(code, *args):
    """Run `code` in a fresh interpreter that imports this checkout's uoslearn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def run_fresh(stages, modules=(), block=False):
    """Run the stages in one fresh interpreter, SciPy blocked if `block`.

    Returns, per stage, the `modules` loaded after it and its stdout.
    """
    done = run_python(SCRIPT, json.dumps([stages, modules, block]))
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


SCIPY_MODULES = ("scipy", "scipy.linalg", "scipy.optimize", "scipy.spatial")


def test_knn_loads_no_scipy(stages):
    """Import, synth, SVM and k-NN load no SciPy; cslrr then loads `scipy` alone."""
    (_, synth_uos), (_, synth_seq), (_, cluster), svm, knn = stages
    loaded = loaded_after(
        [("synth-seq", synth_seq), svm, knn, ("knn-open", [*knn[1], "--open"]),
         ("synth-uos", synth_uos), ("cluster", cluster)],
        modules=SCIPY_MODULES,
    )
    assert loaded.pop("cluster") == ["scipy"]
    assert loaded == dict.fromkeys(
        ["import", "synth-seq", "svm-ovo", "knn", "knn-open", "synth-uos"], []
    )


def test_no_command_loads_scipy_linalg(stages, tmp_path):
    """A cslrr hierarchy, like a cslrr cluster, loads SciPy's LAPACK extension
    and not `scipy.linalg`."""
    synth_uos, cluster = stages[0][1], stages[2][1]
    uos = Path(synth_uos[synth_uos.index("--out") + 1])
    hierarchy = ["hierarchy", "--set", f"data={uos / 'features.bin'}", "--set", "levels=1",
                 "--set", "lambda=10", "--out", str(tmp_path / "tree.uost")]
    loaded = loaded_after(
        [("synth", synth_uos), ("sclrr", [*cluster, "--method", "sclrr"]),
         ("hierarchy-cslrr", hierarchy)],
        modules=SCIPY_MODULES,
    )
    assert loaded["import"] == loaded["synth"] == loaded["sclrr"] == []
    assert loaded["hierarchy-cslrr"] == ["scipy"]


# Runs synth, then exits with the code of a cslrr cluster; SciPy blocked if argv[3].
CSLRR = """
import contextlib, io, json, sys
synth, cluster, block = map(json.loads, sys.argv[1:])
if block:
    sys.modules["scipy"] = None
from uoslearn.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()):
    assert cli_main(synth) == 0
code = cli_main(cluster)
"""

AFTER_CSLRR = """
assert code == 0 and "scipy.linalg" not in sys.modules
import numpy as np
import scipy.linalg
from uoslearn.linalg import fix_eigvec_signs, sym_eig_smallest
a = np.random.default_rng(0).standard_normal((40, 40))
m = (a + a.T) / 2
for k in (1, 20, 40):
    _, vecs = scipy.linalg.eigh(m, subset_by_index=[0, k - 1])
    assert np.array_equal(sym_eig_smallest(m, k), fix_eigvec_signs(vecs)), k
"""


def test_scipy_linalg_imports_after_a_cslrr_solve(stages):
    """`import scipy.linalg` still works, and agrees bit for bit, after cslrr."""
    synth_uos, cluster = stages[0][1], stages[2][1]
    done = run_python(CSLRR + AFTER_CSLRR, *map(json.dumps, (synth_uos, cluster, False)))
    assert done.returncode == 0, done.stderr


def test_cslrr_without_scipy_exits_2(stages):
    synth_uos, cluster = stages[0][1], stages[2][1]
    done = run_python(
        CSLRR + "sys.exit(code)\n", *map(json.dumps, (synth_uos, cluster, True))
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == (
        "error: method cslrr (beta > 0) needs SciPy for its embedding step; "
        "install SciPy or use method = sclrr\n"
    )


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
    free = run_fresh(numpy_only, modules=("scipy", "concurrent.futures"))
    blocked = run_fresh(numpy_only, block=True)
    assert free["import"]["loaded"] == []
    for name, _ in numpy_only:
        assert free[name]["loaded"] == [], name
        assert blocked[name]["stdout"] == free[name]["stdout"], name
        assert free[name]["stdout"], name

