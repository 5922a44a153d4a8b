import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from uoslearn import cli, hierarchy, sequences, svm
from uoslearn.cli import cli_main
from conftest import write_feature_csv
from uoslearn.datasets import write_feature_bin, write_labels
from uoslearn.hierarchy import HierarchyConfig
from uoslearn.solver import SolverConfig
from uoslearn.synth import SequenceSynthConfig, UosSynthConfig, generate_synthetic_uos

README = Path(__file__).resolve().parent.parent / "README.md"
DATA_KEYS = {"data", "format", "labels", "block_rows", "block_bins"}
SOLVER_KEYS = {
    "method", "alpha", "beta", "lambda", "rho", "mu0", "mu_max", "epsilon", "eta_factor",
    "max_iters", "error_mode", "coeff_threshold",
}


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, records, captured.err


def count_assignments(monkeypatch) -> list:
    """Count the CLI's `assign_to_leaves` calls in the returned list."""
    assign, assigned = cli.assign_to_leaves, []

    def counted_assign(sample, leaves):
        assigned.append(len(assigned))
        return assign(sample, leaves)

    monkeypatch.setattr(cli, "assign_to_leaves", counted_assign)
    return assigned


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

    def test_verbose_logs_one_residual_line_per_iteration(self, tmp_path, uos_dataset, capsys):
        cfg = self.make_cfg(tmp_path, uos_dataset)
        csv_out = tmp_path / "resid.csv"
        assert cli_main(["cluster", "--config", cfg]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert cli_main(["cluster", "--config", cfg, "--verbose", "--emit-csv", str(csv_out)]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == quiet.out
        iterations = json.loads(verbose.out.splitlines()[0])["iterations"]
        lines = verbose.err.splitlines()
        rows = csv_out.read_text().splitlines()[1:]
        assert len(lines) == len(rows) == iterations
        for t, (line, row) in enumerate(zip(lines, rows), start=1):
            fields = dict(item.split("=") for item in line.split())
            assert list(fields) == ["iter", "r1", "r2", "mu"]
            i, r1, r2 = row.split(",")
            assert fields["iter"] == i == str(t)
            assert fields["r1"] == f"{float(r1):.6e}"
            assert fields["r2"] == f"{float(r2):.6e}"


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

    def test_pass_budget_exhaustion_reported_on_stderr(
        self, seq_dataset, capsys, monkeypatch
    ):
        argv = ["classify", "--data", str(seq_dataset), "--classifier", "svm-ovo"]
        assert cli_main(argv) == 0
        converged = capsys.readouterr()
        assert "pass budget" not in converged.err
        train_binary = svm.svm_train_binary

        def one_pass_short(k, y, c, tol):
            # The final pass of a converged run is a clean examine-all pass,
            # so stopping before it leaves every model unchanged.
            passes = train_binary(k, y, c, tol).passes
            return train_binary(k, y, c, tol, max_passes=passes - 1)

        monkeypatch.setattr(svm, "svm_train_binary", one_pass_short)
        assert cli_main(argv) == 0
        stalled = capsys.readouterr()
        assert stalled.out == converged.out
        assert stalled.err.count("pass budget") == 1
        assert "binary models (0, 1), (0, 2), (1, 2)" in stalled.err

    def test_leaf_distance_table_built_once_per_leaf_set(
        self, tmp_path, seq_dataset, capsys, monkeypatch
    ):
        bundle = tmp_path / "model.uosm"
        data = ["classify", "--data", str(seq_dataset)]
        distance, post_init = sequences.subspace_distance, sequences.LeafSet.__post_init__
        calls, built = [], []

        def counted_distance(a, b):
            calls.append((a, b))
            return distance(a, b)

        def counted_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(sequences, "subspace_distance", counted_distance)
        monkeypatch.setattr(sequences.LeafSet, "__post_init__", counted_post_init)
        for argv in (
            [*data, "--classifier", "svm-ovo", "--save-model", str(bundle)],
            [*data, "--model", str(bundle)],
        ):
            calls.clear()
            built.clear()
            assert cli_main(argv) == 0
            n_leaves = len(built[0])
            assert len(built) == 1
            assert len(calls) == len(built) * n_leaves * (n_leaves - 1) // 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag", ["--save-model", "--tree", "--leaves", "--classifier", "--open"]
    )
    def test_model_rejects_flags_it_would_ignore(self, tmp_path, seq_dataset, capsys, flag):
        bundle, other = tmp_path / "model.uosm", tmp_path / "other"
        data = ["classify", "--data", str(seq_dataset)]
        assert run_cli(capsys, *data, "--classifier", "knn", "--save-model", str(bundle))[0] == 0
        value = {"--classifier": ["knn"], "--open": []}.get(flag, [str(other)])
        code, records, err = run_cli(capsys, *data, "--model", str(bundle), flag, *value)
        assert code == 2
        assert f"--model cannot be combined with {flag}" in err
        assert records == []
        assert not other.exists()

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

    def test_bad_boolean_is_quoted_as_given(self, seq_dataset, capsys):
        code, records, err = run_cli(
            capsys, "classify", "--classifier", "knn",
            "--set", f"data={seq_dataset}", "--set", "open=MAYBE",
        )
        assert code == 2
        assert "config key open must be a boolean, got 'MAYBE'" in err
        assert records == []

    @pytest.mark.filterwarnings("error")
    def test_huge_nu_saturates_silently(self, seq_dataset, capsys):
        code, records, err = run_cli(
            capsys, "classify", "--classifier", "svm-ovo",
            "--set", f"data={seq_dataset}", "--set", "nu=1e300",
        )
        assert code == 0
        assert records[-1]["record"] == "classification_summary"
        assert err == ""

    @pytest.mark.parametrize("nu", ["-1", "0", "1e-200"])
    def test_nu_must_be_positive(self, seq_dataset, capsys, nu):
        code, records, err = run_cli(
            capsys, "classify", "--classifier", "svm-ovo",
            "--set", f"data={seq_dataset}", "--set", f"nu={nu}",
        )
        assert code == 2
        assert "nu must be positive" in err
        assert records == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "target",
        ["labels", "boundaries", "csv", "csv-header", "csv-empty", "csv-header-only",
         "missing-pred"],
    )
    def test_malformed_text_input_exits_2(
        self, tmp_path, uos_dataset, seq_dataset, capsys, target
    ):
        classify = ["classify", "--data", str(seq_dataset), "--classifier", "knn"]
        if target == "labels":
            bad = seq_dataset / "train" / "labels.txt"
            bad.write_text(bad.read_text().replace("0\n", "0.5\n", 1))
            argv = classify
        elif target == "boundaries":
            bad = seq_dataset / "train" / "boundaries.txt"
            bad.write_text(bad.read_text().replace("0 ", "0 x", 1))
            argv = classify
        elif target.startswith("csv"):
            bad = tmp_path / "features.csv"
            write_feature_csv(bad, np.eye(4))
            lines = bad.read_bytes().splitlines(keepends=True)
            if target == "csv":
                lines[2] = b"1,two,0,0\n"
            elif target == "csv-header":
                lines.insert(0, b"\xff\xfe not UTF-8\n")
            elif target == "csv-empty":
                lines = []
            else:
                lines = [b"f0,f1,f2,f3\n"]
            bad.write_bytes(b"".join(lines))
            argv = ["cluster", "--clusters", "2", "--set", f"data={bad}", "--set", "format=csv"]
        else:
            bad = tmp_path / "missing.txt"
            argv = ["eval", "--pred", str(bad), "--truth", str(uos_dataset / "labels.txt")]
        code, records, err = run_cli(capsys, *argv)
        assert code == 2
        assert str(bad) in err
        assert len(err.splitlines()) == 1
        assert records == []

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_feature_path_exits_2_naming_it(self, tmp_path, capsys, fmt, kind):
        bad = tmp_path / "features"
        if kind == "directory":
            bad.mkdir()
        argv = ["cluster", "--clusters", "2", "--set", f"data={bad}", "--set", f"format={fmt}"]
        code, records, err = run_cli(capsys, *argv)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert f"{bad}: cannot read" in err
        assert records == []

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", ["synth", "cluster", "hierarchy"])
    def test_negative_seed_exits_2(self, tmp_path, uos_dataset, capsys, command, via):
        argv = {
            "synth": ["synth", "--set", "kind=uos", "--out", str(tmp_path / "o")],
            "cluster": ["cluster", "--clusters", "3"],
            "hierarchy": ["hierarchy", "--set", "levels=2"],
        }[command]
        if command != "synth":
            argv += ["--set", f"data={uos_dataset / 'features.bin'}"]
        argv += ["--seed", "-1"] if via == "flag" else ["--set", "seed=-1"]
        code, records, err = run_cli(capsys, *argv)
        assert code == 2
        assert "seed must be nonnegative, got -1" in err
        assert records == []

    def test_directory_as_binary_input_exits_2(self, tmp_path, seq_dataset, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        for argv in (
            ["cluster", "--clusters", "3", "--set", f"data={folder}"],
            ["classify", "--data", str(seq_dataset), "--model", str(folder)],
        ):
            code, records, err = run_cli(capsys, *argv)
            assert code == 2
            assert f"{folder}: cannot read" in err
            assert records == []

    @pytest.mark.parametrize(
        "overrides", [["alpha=1e308"], ["method=cslrr", "beta=1e308"]]
    )
    def test_overflowing_thresholds_exit_3(self, uos_dataset, capsys, overrides):
        argv = ["cluster", "--clusters", "3", "--set", f"data={uos_dataset / 'features.bin'}"]
        for item in overrides:
            argv += ["--set", item]
        code, records, err = run_cli(capsys, *argv)
        assert code == 3
        assert "non-finite Q thresholds at iteration" in err
        assert records == []

    @pytest.mark.filterwarnings("error")
    def test_empty_labels_file_exits_2_with_only_the_error(self, tmp_path, uos_dataset, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        labels = str(uos_dataset / "labels.txt")
        for pred, truth in ((labels, empty), (empty, labels)):
            code, records, err = run_cli(
                capsys, "eval", "--pred", str(pred), "--truth", str(truth)
            )
            assert code == 2
            assert records == []
            assert err == f"error: {empty}: no labels\n"

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a key value line\n")
        code, _, err = run_cli(capsys, "cluster", "--config", str(bad))
        assert code == 2
        assert "malformed" in err


class TestConfigKeys:
    """Each subcommand rejects a config key it does not read, and an empty key."""

    def test_misspelled_key_via_set_exits_2(self, uos_dataset, capsys):
        code, records, err = run_cli(
            capsys, "cluster", "--clusters", "3",
            "--set", f"data={uos_dataset / 'features.bin'}", "--set", "lamda=5",
        )
        assert code == 2
        assert records == []
        assert "unknown config key(s) for cluster: 'lamda'" in err
        assert "lambda" in err.split("accepted keys:")[1]

    @pytest.mark.parametrize("command", ["cluster", "hierarchy"])
    def test_boundaries_key_exits_2(self, tmp_path, uos_dataset, capsys, command):
        # Flat and hierarchical clustering read one feature matrix; only
        # classify reads sequence boundaries, from its dataset directory.
        size = {"cluster": "clusters=3", "hierarchy": "levels=2"}[command]
        code, records, err = run_cli(
            capsys, command, "--set", f"data={uos_dataset / 'features.bin'}",
            "--set", size, "--set", f"boundaries={tmp_path}",
        )
        assert code == 2
        assert records == []
        assert f"unknown config key(s) for {command}: 'boundaries';" in err

    def test_misspelled_key_in_config_file_exits_2(self, tmp_path, uos_dataset, capsys):
        cfg = write_config(
            tmp_path / "h.cfg", data=str(uos_dataset / "features.bin"), level=2
        )
        code, records, err = run_cli(capsys, "hierarchy", "--config", cfg)
        assert code == 2
        assert records == []
        assert "unknown config key(s) for hierarchy: 'level'" in err
        assert "levels" in err.split("accepted keys:")[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--set", "kind=uos", "--set", "leaves=3"],
            ["classify", "--set", "levels=2"],
            ["eval", "--pred", "p.txt", "--truth", "t.txt", "--set", "seed=1"],
        ],
        ids=["synth", "classify", "eval"],
    )
    def test_key_of_another_subcommand_exits_2(self, capsys, argv):
        code, records, err = run_cli(capsys, *argv, "--seed", "0")
        assert code == 2
        assert records == []
        assert "unknown config key(s)" in err

    @pytest.mark.parametrize("via", ["set", "config"])
    def test_empty_key_exits_2(self, tmp_path, uos_dataset, capsys, via):
        argv = ["cluster", "--clusters", "3", "--set", f"data={uos_dataset / 'features.bin'}"]
        if via == "set":
            argv += ["--set", "=5"]
        else:
            cfg = tmp_path / "c.cfg"
            cfg.write_text("= 5\n")
            argv += ["--config", str(cfg)]
        code, records, err = run_cli(capsys, *argv)
        assert code == 2
        assert records == []
        assert "empty config key" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--set", "kind=nope"],
            ["--set", "kind=uos", "--seed", "-1"],
            ["--set", "kind=uos", "--set", "m=2", "--set", "subspaces=1",
             "--set", "dim=3", "--set", "points=4"],
        ],
        ids=["kind", "seed", "generator"],
    )
    def test_rejected_synth_creates_no_out_dir(self, tmp_path, capsys, argv):
        out = tmp_path / "newdir"
        code, records, _ = run_cli(capsys, "synth", *argv, "--out", str(out))
        assert code == 2
        assert records == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "levels, message",
        [
            (6, "levels=6 is too deep for N=36 samples"),  # 2**5 <= 36 < 2**6
            (2000, "levels=2000 is too deep for N=36 samples"),
            (0, "levels must be >= 1, got 0"),
            (-3, "levels must be >= 1, got -3"),
        ],
    )
    def test_out_of_range_levels_exit_2_naming_levels(
        self, uos_dataset, capsys, levels, message
    ):
        code, records, err = run_cli(
            capsys, "hierarchy", "--set", f"data={uos_dataset / 'features.bin'}",
            "--set", f"levels={levels}",
        )
        assert code == 2
        assert records == []
        assert message in err
        assert len(err) < 200

    def test_schema_keys_derived_from_the_dataclasses_keep_their_names(self):
        # A renamed dataclass field must not silently rename a config key.
        keys = {
            "solver": cli.SOLVER_KEYS,
            "uos": cli.SYNTH_KEYS["uos"],
            "sequences": cli.SYNTH_KEYS["sequences"],
            "cluster": cli.CLUSTER_KEYS,
            "hierarchy": cli.HIERARCHY_KEYS,
        }
        assert {name: set(k) for name, k in keys.items()} == {
            "solver": SOLVER_KEYS,
            "uos": {"m", "subspaces", "dim", "points", "noise", "geometry"},
            "sequences": {
                "m", "leaves", "leaf_dim", "classes", "train_per_class", "test_per_class",
                "template_len", "frames_min", "frames_max", "jitter",
            },
            "cluster": {"seed", "clusters", *DATA_KEYS, *SOLVER_KEYS},
            "hierarchy": {
                "seed", "levels", "gamma", "split_gain", "min_dim", *DATA_KEYS, *SOLVER_KEYS,
            },
        }
        assert all(len(k) == len(set(k)) for k in keys.values())
        assert set(cli.SYNTH_KEYS) == {"uos", "sequences"}

    @pytest.mark.parametrize(
        "method, key", [("lrr", "alpha"), ("lrr", "beta"), ("sclrr", "beta")]
    )
    def test_weight_the_method_ignores_must_be_a_number_of_any_sign(
        self, uos_dataset, capsys, method, key
    ):
        argv = ["cluster", "--clusters", "3", "--method", method,
                "--set", f"data={uos_dataset / 'features.bin'}", "--set", "lambda=10"]
        _, default, _ = run_cli(capsys, *argv)
        code, records, _ = run_cli(capsys, *argv, "--set", f"{key}=-2")
        assert code == 0
        assert records == default
        code, records, err = run_cli(capsys, *argv, "--set", f"{key}=abc")
        assert code == 2
        assert records == []
        assert f"config key {key} must be a number, got 'abc'" in err


def readme_config_rows() -> dict[str, dict[str, str | None]]:
    """README "Config keys" table: scope -> {key: text in parentheses, or None}."""
    section = README.read_text(encoding="utf-8").split("### Config keys\n", 1)[1]
    rows = {}
    for line in section.lstrip("\n").split("\n\n", 1)[0].splitlines()[2:]:
        scope, keys = line.strip("| ").split(" | ")
        entries = re.finditer(r"`(\w+)`(?: \(([^)]*)\))?", keys)
        rows[scope] = {m.group(1): m.group(2) for m in entries}
    return rows


class TestReadmeConfigKeys:
    """The README's "Config keys" table lists exactly the keys each subcommand accepts,
    with the defaults the schema applies."""

    SCOPES = {
        "cluster": ("data", "solver", "cluster"),
        "hierarchy": ("data", "solver", "hierarchy"),
        "classify": ("classify",),
        "uos": ("synth", "synth, `kind = uos`"),
        "sequences": ("synth", "synth, `kind = sequences`"),
    }

    def test_each_subcommand_lists_exactly_its_keys(self):
        rows = readme_config_rows()
        assert {scope for scopes in self.SCOPES.values() for scope in scopes} == set(rows)
        accepted = {
            "cluster": cli.CLUSTER_KEYS,
            "hierarchy": cli.HIERARCHY_KEYS,
            "classify": cli.CLASSIFY_KEYS,
            **{kind: ("kind", "out", "seed", *keys) for kind, keys in cli.SYNTH_KEYS.items()},
        }
        for command, scopes in self.SCOPES.items():
            listed = [key for scope in scopes for key in rows[scope]]
            assert sorted(listed) == sorted(accepted[command]), command

    def test_defaults_match_the_schema(self):
        schema = {}
        for cls in (SolverConfig, HierarchyConfig, UosSynthConfig, SequenceSynthConfig):
            for f in fields(cls):
                schema[cli.FIELD_KEYS.get(f.name, f.name)] = f.default
        schema.update({key: float(value) for key, value in cli.SOLVER_DEFAULTS.items()})
        checked = set()
        for keys in readme_config_rows().values():
            for key, text in keys.items():
                if key not in schema:
                    continue
                checked.add(key)
                expected = schema[key]
                if expected is MISSING:
                    assert text is None, f"{key} is required, but the README gives {text!r}"
                    continue
                shown = text.split("\\|")[0].strip("`")
                if isinstance(expected, str):
                    assert shown == expected, key
                else:
                    assert float(shown) == expected, key
        # Every field but those the CLI fills itself.
        assert checked == set(schema) - {"l_max", "max_level", "sequences_per_class"}


class TestRangeAndModelChecks:
    """Config that the command would ignore or misreport exits 2, naming it."""

    @pytest.mark.parametrize("via", ["set", "config"])
    def test_model_rejects_config_keys_it_would_ignore(self, tmp_path, seq_dataset, capsys, via):
        bundle = tmp_path / "model.uosm"
        data = ["classify", "--data", str(seq_dataset)]
        saved = run_cli(capsys, *data, "--classifier", "svm-ovo", "--save-model", str(bundle))
        assert saved[0] == 0
        keys = dict(k=7, classifier="svm-ova", open=1, varsigma=1.5, nu=2.0, c=3.0)
        if via == "set":
            extra = [arg for key, value in keys.items() for arg in ("--set", f"{key}={value}")]
        else:
            extra = ["--config", write_config(tmp_path / "m.cfg", **keys)]
        code, records, err = run_cli(capsys, *data, "--model", str(bundle), *extra)
        assert code == 2
        assert records == []
        assert (
            "--model cannot be combined with config key(s) "
            "'classifier', 'open', 'k', 'varsigma', 'nu', 'c'" in err
        )

    def test_model_names_only_the_keys_given(self, tmp_path, seq_dataset, capsys):
        bundle = tmp_path / "model.uosm"
        data = ["classify", "--data", str(seq_dataset)]
        assert run_cli(capsys, *data, "--classifier", "knn", "--save-model", str(bundle))[0] == 0
        code, records, err = run_cli(capsys, *data, "--model", str(bundle), "--set", "k=7")
        assert code == 2
        assert records == []
        assert "config key(s) 'k';" in err

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "clusters, message",
        [
            (37, "clusters=37 exceeds the number of samples N=36"),
            (500, "clusters=500 exceeds the number of samples N=36"),
            (0, "clusters must be >= 1, got 0"),
            (-2, "clusters must be >= 1, got -2"),
        ],
    )
    def test_out_of_range_clusters_exit_2_naming_clusters(
        self, uos_dataset, capsys, clusters, message, via
    ):
        argv = ["cluster", "--set", f"data={uos_dataset / 'features.bin'}"]
        if via == "flag":
            argv += ["--clusters", str(clusters)]
        else:
            argv += ["--set", f"clusters={clusters}"]
        code, records, err = run_cli(capsys, *argv)
        assert code == 2
        assert records == []
        assert message in err
        assert "l_max" not in err

    def test_clusters_equal_to_n_is_accepted(self, uos_dataset, capsys):
        code, records, _ = run_cli(
            capsys, "cluster", "--clusters", "36", "--set", "max_iters=3",
            "--set", f"data={uos_dataset / 'features.bin'}",
        )
        assert code == 0
        assert records[0]["clusters"] == 36

    def test_non_utf8_config_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"data = x\xff\nclusters = 2\n")
        code, records, err = run_cli(capsys, "cluster", "--config", str(cfg))
        assert code == 2
        assert records == []
        assert f"config file {cfg} is not UTF-8 text" in err


class TestChecksBeforeWork:
    """Input that would fail the run is rejected before the solve or the warps, and an
    output path that cannot be written exits 2 naming it."""

    @pytest.mark.parametrize("command", ["cluster", "hierarchy"])
    def test_wrong_length_labels_exit_2_before_solving(
        self, tmp_path, uos_dataset, capsys, monkeypatch, command
    ):
        short = tmp_path / "short.txt"
        short.write_text("0\n1\n2\n0\n1\n")
        solve, solves = cli.cslrr_solve, []

        def counted_solve(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "cslrr_solve", counted_solve)
        monkeypatch.setattr(hierarchy, "cslrr_solve", counted_solve)
        extra = ["--clusters", "3"] if command == "cluster" else ["--set", "levels=2"]
        code, records, err = run_cli(
            capsys, command, *extra, "--set", f"data={uos_dataset / 'features.bin'}",
            "--set", f"labels={short}",
        )
        assert code == 2
        assert records == []
        assert solves == []
        assert f"{short}: 5 labels for N=36 samples" in err

    @pytest.mark.parametrize(
        "command, flag, where",
        [
            ("cluster", "--out", "missing-dir"),
            ("cluster", "--emit-csv", "missing-dir"),
            ("hierarchy", "--out", "missing-dir"),
            ("hierarchy", "--summary", "missing-dir"),
            ("classify", "--save-model", "missing-dir"),
            ("cluster", "--out", "directory"),
            ("synth", "--out", "under-file"),
            ("synth-sequences", "--out", "train-is-file"),
        ],
        ids=["cluster-out", "cluster-emit-csv", "hierarchy-out", "hierarchy-summary",
             "classify-save-model", "cluster-out-directory", "synth-out-under-file",
             "synth-sequences-train-is-file"],
    )
    def test_unwritable_output_exits_2_naming_the_path(
        self, tmp_path, uos_dataset, seq_dataset, capsys, command, flag, where
    ):
        (tmp_path / "file").write_text("")
        (tmp_path / "seq").mkdir()
        (tmp_path / "seq" / "train").write_text("")
        target = {
            "missing-dir": tmp_path / "missing" / "out",
            "directory": tmp_path,
            "under-file": tmp_path / "file" / "out",
            "train-is-file": tmp_path / "seq",
        }[where]
        # The path the error must name: the unwritable output itself.
        named = target / "train" if where == "train-is-file" else target
        argv = {
            "synth": ["synth", "--set", "kind=uos", "--set", "m=6", "--set", "subspaces=2",
                      "--set", "dim=2", "--set", "points=5"],
            "synth-sequences": ["synth", "--set", "kind=sequences", "--set", "m=6",
                                "--set", "leaves=3", "--set", "leaf_dim=2", "--set", "classes=2",
                                "--set", "train_per_class=3", "--set", "test_per_class=1"],
            "cluster": ["cluster", "--clusters", "3", "--set", "lambda=10"],
            "hierarchy": ["hierarchy", "--set", "levels=2", "--set", "method=sclrr"],
            "classify": ["classify", "--data", str(seq_dataset), "--classifier", "svm-ovo"],
        }[command]
        if command in ("cluster", "hierarchy"):
            argv += ["--set", f"data={uos_dataset / 'features.bin'}"]
        code, records, err = run_cli(capsys, *argv, flag, str(target))
        assert code == 2
        assert records == []
        assert f"{named}: cannot write" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["--classifier", "svm-ovo", "--open"], "open-set SVM requires classifier svm-ova"),
            (["--classifier", "knn", "--set", "k=0"], "k must be >= 1"),
            (["--classifier", "svm-ovo", "--set", "nu=abc"], "config key nu must be a number"),
            (["--classifier", "svm-ovo", "--set", "nu=-1"], "nu must be positive"),
            (["--classifier", "svm-ova", "--set", "c=0"], "c must be positive and finite"),
        ],
        ids=["open-svm-ovo", "k-zero", "nu-text", "nu-negative", "c-zero"],
    )
    def test_classify_checks_its_config_before_assigning_any_sequence(
        self, seq_dataset, capsys, monkeypatch, overrides, message
    ):
        assigned = count_assignments(monkeypatch)
        code, records, err = run_cli(capsys, "classify", "--data", str(seq_dataset), *overrides)
        assert code == 2
        assert records == []
        assert message in err
        assert len(assigned) == 0

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["--open", "--set", "varsigma=1"], "varsigma must be > 1"),
            (["--open", "--set", "varsigma=0.5"], "varsigma must be > 1"),
            (["--open", "--set", "k=0"], "k must be >= 1"),
            (["--set", "k=0"], "k must be >= 1"),
            (["--open", "--set", "k=5"], "class 0 needs more than k=5 members"),
            (["--set", "k=6"], "class 0 has fewer than k=6 training sequences"),
        ],
        ids=["varsigma-one", "varsigma-half", "k-zero-open", "k-zero", "k-at-class-open",
             "k-above-class"],
    )
    def test_knn_checks_k_and_varsigma_before_warping(
        self, seq_dataset, capsys, monkeypatch, overrides, message
    ):
        assigned = count_assignments(monkeypatch)
        align = sequences.align_features_dtw
        warps = []

        def counted_align(a, b):
            warps.append((a, b))
            return align(a, b)

        monkeypatch.setattr(sequences, "align_features_dtw", counted_align)
        code, records, err = run_cli(
            capsys, "classify", "--data", str(seq_dataset), "--classifier", "knn", *overrides
        )
        assert code == 2
        assert records == []
        assert message in err
        assert warps == []
        assert len(assigned) == 0

    @pytest.mark.parametrize(
        "train, test, key",
        [(0, 2, "train_per_class"), (-1, 3, "train_per_class"),
         (2, -1, "test_per_class"), (3, 0, "test_per_class")],
        ids=["train-zero", "train-negative", "test-negative", "test-zero"],
    )
    def test_synth_sequences_rejects_per_class_counts_below_one_before_writing(
        self, tmp_path, capsys, monkeypatch, train, test, key
    ):
        generate, generated = cli.generate_synthetic_sequences, []

        def counted_generate(*args, **kwargs):
            generated.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(cli, "generate_synthetic_sequences", counted_generate)
        out = tmp_path / "out"
        code, records, err = run_cli(
            capsys, "synth", "--set", "kind=sequences", "--set", "m=6", "--set", "leaves=3",
            "--set", "leaf_dim=2", "--set", "classes=2", "--set", f"train_per_class={train}",
            "--set", f"test_per_class={test}", "--out", str(out),
        )
        assert code == 2
        assert records == []
        assert f"{key} must be >= 1" in err
        assert "Traceback" not in err
        assert generated == []
        assert not out.exists()
