"""Each command loads only the SciPy subpackages it runs.

`import uoslearn.cli` loads numpy and `scipy.linalg`. `scipy.optimize`
is never loaded, and `scipy.spatial` only by feature-sequence warping
(k-NN classification). Each check runs in a fresh interpreter, since
this test process has imported both long ago.
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
import json, sys
from uoslearn.cli import cli_main
loaded = {"import": sorted(m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules)}
for name, argv in json.loads(sys.argv[1]):
    assert cli_main(argv) == 0, argv
    loaded[name] = sorted(m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules)
print(json.dumps(loaded), file=sys.stderr)
"""


def loaded_after(stages):
    """Run the stages in one fresh interpreter; the scipy subpackages loaded after each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(stages)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.strip().splitlines()[-1])


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


def test_only_feature_warping_loads_scipy_spatial(stages):
    loaded = loaded_after(stages)
    assert loaded["import"] == []
    assert loaded["cluster"] == []
    assert loaded["svm-ovo"] == []
    assert loaded["knn"] == ["scipy.spatial"]
