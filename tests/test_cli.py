import json

import numpy as np
import pytest

from uoslearn.cli import cli_main
from uoslearn.datasets import write_feature_bin, write_labels
from uoslearn.synth import UosSynthConfig, generate_synthetic_uos


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, records, captured.err


def write_config(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


@pytest.fixture
def uos_dataset(tmp_path):
    cfg = UosSynthConfig(m=20, subspaces=3, dim=2, points_per_subspace=12, seed=3)
    fm, labels = generate_synthetic_uos(cfg)
    write_feature_bin(tmp_path / "features.bin", fm.data)
    write_labels(tmp_path / "labels.txt", labels)
    return tmp_path


@pytest.fixture
def seq_dataset(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "s.cfg",
        kind="sequences",
        m=20,
        leaves=4,
        leaf_dim=2,
        classes=3,
        train_per_class=5,
        test_per_class=3,
        jitter=0.02,
    )
    out = tmp_path / "d"
    code, _, _ = run_cli(capsys, "synth", "--config", cfg, "--seed", "2", "--out", str(out))
    assert code == 0
    return out


class TestSynthCommand:
    def test_uos_pipeline_smoke(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "s.cfg", kind="uos", m=20, subspaces=3, dim=2, points=10
        )
        out = tmp_path / "data"
        code, records, _ = run_cli(capsys, "synth", "--config", cfg, "--out", str(out))
        assert code == 0
        assert records[0]["record"] == "synth"
        assert (out / "features.bin").exists()
        assert (out / "labels.txt").exists()

        ccfg = write_config(
            tmp_path / "c.cfg",
            data=str(out / "features.bin"),
            format="bin",
            labels=str(out / "labels.txt"),
            clusters=3,
            alpha=1.0,
            beta=0.5,
        )
        ccfg_extra = ["--set", "lambda=10.0", "--set", "max_iters=300"]
        code, records, _ = run_cli(
            capsys, "cluster", "--config", ccfg, "--seed", "0", *ccfg_extra
        )
        assert code == 0
        kinds = {r["record"] for r in records}
        assert {"cluster", "accuracy"} <= kinds
        acc = next(r for r in records if r["record"] == "accuracy")
        assert acc["value"] >= 0.99

    def test_sequences_output_layout(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "s.cfg",
            kind="sequences",
            m=16,
            leaves=3,
            leaf_dim=2,
            classes=2,
            train_per_class=3,
            test_per_class=2,
            jitter=0.01,
        )
        out = tmp_path / "seqdata"
        code, records, _ = run_cli(capsys, "synth", "--config", cfg, "--out", str(out))
        assert code == 0
        for sub in ("train", "test"):
            for name in ("features.bin", "boundaries.txt", "labels.txt"):
                assert (out / sub / name).exists()
        assert (out / "leaves.bin").exists()


class TestClusterCommand:
    def make_cfg(self, tmp_path, uos_dataset, **extra):
        kv = dict(
            data=str(uos_dataset / "features.bin"),
            format="bin",
            labels=str(uos_dataset / "labels.txt"),
            clusters=3,
            alpha=1.0,
            beta=0.5,
            max_iters=300,
        )
        kv["lambda"] = 10.0
        kv.update(extra)
        return write_config(tmp_path / "cluster.cfg", **kv)

    def test_missing_key_exits_2_and_names_it(self, tmp_path, uos_dataset, capsys):
        cfg = write_config(tmp_path / "c.cfg", data=str(uos_dataset / "features.bin"))
        code, _, err = run_cli(capsys, "cluster", "--config", cfg)
        assert code == 2
        assert "clusters" in err

    def test_lrr_equals_cslrr_with_zeroed_weights(self, tmp_path, uos_dataset, capsys):
        cfg = self.make_cfg(tmp_path, uos_dataset)
        code1, rec1, _ = run_cli(
            capsys, "cluster", "--config", cfg, "--method", "lrr", "--seed", "1"
        )
        code2, rec2, _ = run_cli(
            capsys,
            "cluster",
            "--config",
            cfg,
            "--method",
            "cslrr",
            "--alpha",
            "0",
            "--beta",
            "0",
            "--seed",
            "1",
        )
        assert code1 == code2 == 0
        labels1 = next(r for r in rec1 if r["record"] == "cluster")["labels"]
        labels2 = next(r for r in rec2 if r["record"] == "cluster")["labels"]
        assert labels1 == labels2

    def test_byte_reproducible(self, tmp_path, uos_dataset, capsys):
        cfg = self.make_cfg(tmp_path, uos_dataset)
        code1 = cli_main(["cluster", "--config", cfg, "--seed", "7"])
        out1 = capsys.readouterr().out
        code2 = cli_main(["cluster", "--config", cfg, "--seed", "7"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_outputs_and_residual_csv(self, tmp_path, uos_dataset, capsys):
        cfg = self.make_cfg(tmp_path, uos_dataset)
        labels_out = tmp_path / "pred.txt"
        csv_out = tmp_path / "resid.csv"
        code, _, _ = run_cli(
            capsys,
            "cluster",
            "--config",
            cfg,
            "--out",
            str(labels_out),
            "--emit-csv",
            str(csv_out),
        )
        assert code == 0
        assert labels_out.exists()
        header = csv_out.read_text().splitlines()[0]
        assert header == "iter,r1,r2"

        code, records, _ = run_cli(
            capsys,
            "eval",
            "--pred",
            str(labels_out),
            "--truth",
            str(uos_dataset / "labels.txt"),
        )
        assert code == 0
        assert records[0]["record"] == "accuracy"
        assert records[0]["value"] >= 0.99


class TestHierarchyCommand:
    def test_tree_and_summary_written(self, tmp_path, uos_dataset, capsys):
        kv = dict(
            data=str(uos_dataset / "features.bin"),
            format="bin",
            labels=str(uos_dataset / "labels.txt"),
            levels=2,
            alpha=1.0,
            beta=0.5,
            max_iters=300,
        )
        kv["lambda"] = 10.0
        cfg = write_config(tmp_path / "h.cfg", **kv)
        tree_path = tmp_path / "tree.bin"
        summary_path = tmp_path / "tree.txt"
        code, records, _ = run_cli(
            capsys,
            "hierarchy",
            "--config",
            cfg,
            "--seed",
            "0",
            "--out",
            str(tree_path),
            "--summary",
            str(summary_path),
        )
        assert code == 0
        rec = next(r for r in records if r["record"] == "hierarchy")
        assert rec["leaves"] <= 4
        assert tree_path.exists()
        assert "node=0" in summary_path.read_text()


class TestClassifyCommand:
    def test_knn_classify(self, tmp_path, seq_dataset, capsys):
        cfg = write_config(tmp_path / "k.cfg", classifier="knn", k=2)
        code, records, _ = run_cli(
            capsys, "classify", "--config", cfg, "--data", str(seq_dataset)
        )
        assert code == 0
        summary = next(r for r in records if r["record"] == "classification_summary")
        assert summary["known_accuracy"] >= 0.8
        preds = [r for r in records if r["record"] == "prediction"]
        assert len(preds) == 9

    def test_svm_with_bundle_round_trip(self, tmp_path, seq_dataset, capsys):
        cfg = write_config(tmp_path / "s.cfg", classifier="svm-ovo")
        bundle = tmp_path / "model.uosm"
        code, rec1, _ = run_cli(
            capsys,
            "classify",
            "--config",
            cfg,
            "--data",
            str(seq_dataset),
            "--save-model",
            str(bundle),
        )
        assert code == 0
        assert bundle.exists()
        code, rec2, _ = run_cli(
            capsys, "classify", "--data", str(seq_dataset), "--model", str(bundle)
        )
        assert code == 0
        p1 = [r["predicted"] for r in rec1 if r["record"] == "prediction"]
        p2 = [r["predicted"] for r in rec2 if r["record"] == "prediction"]
        assert p1 == p2

    @pytest.mark.parametrize("damage, message", [(None, "dimension"), (-1, "truncated")])
    def test_unusable_tree_exits_2(self, tmp_path, uos_dataset, capsys, damage, message):
        kv = dict(data=str(uos_dataset / "features.bin"), levels=2, method="sclrr")
        kv["lambda"] = 10.0
        tree = tmp_path / "tree.uost"
        code, _, _ = run_cli(
            capsys, "hierarchy", "--config", write_config(tmp_path / "h.cfg", **kv),
            "--out", str(tree),
        )
        assert code == 0
        tree.write_bytes(tree.read_bytes()[:damage])
        scfg = write_config(
            tmp_path / "s.cfg", kind="sequences", m=12, leaves=3, leaf_dim=2, classes=2,
            train_per_class=3, test_per_class=1,
        )
        out = tmp_path / "d12"
        assert run_cli(capsys, "synth", "--config", scfg, "--out", str(out))[0] == 0
        code, _, err = run_cli(
            capsys, "classify", "--data", str(out), "--classifier", "knn", "--tree", str(tree)
        )
        assert code == 2
        assert message in err


class TestCliErrors:
    def test_unknown_subcommand_usage_exit_2(self, capsys):
        code = cli_main(["frobnicate"])
        captured = capsys.readouterr()
        assert code == 2

    def test_no_subcommand_exit_2(self, capsys):
        assert cli_main([]) == 2

    @pytest.mark.parametrize(
        "key, value, argv",
        [
            ("lambda", "nan", ["cluster", "--clusters", "3"]),
            ("epsilon", "inf", ["cluster", "--clusters", "3"]),
            ("c", "nan", ["classify", "--classifier", "svm-ovo"]),
            ("varsigma", "nan", ["classify", "--classifier", "knn", "--open"]),
        ],
    )
    def test_non_finite_number_exits_2(
        self, tmp_path, uos_dataset, seq_dataset, capsys, key, value, argv
    ):
        data = seq_dataset if argv[0] == "classify" else uos_dataset / "features.bin"
        code, _, err = run_cli(
            capsys, *argv, "--set", f"data={data}", "--set", f"{key}={value}"
        )
        assert code == 2
        assert f"config key {key} must be finite" in err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a key value line\n")
        code, _, err = run_cli(capsys, "cluster", "--config", str(bad))
        assert code == 2
        assert "malformed" in err
