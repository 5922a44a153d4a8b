"""Command-line pipeline: synth, cluster, hierarchy, classify, eval.

Every subcommand accepts --config FILE (flat key=value text) and --seed.
Result records are JSON lines on stdout; diagnostics go to stderr. Exit
codes: 0 success, 2 configuration/data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from . import datasets
from .bundles import KnnModel, bundle_kind, load_model_bundle, predict, save_model_bundle
from .codec import make_dir, write_file
from .errors import ConfigError, DataError, NumericalError, UosError
from .hierarchy import HierarchyConfig, hcs_lrr, read_tree, tree_summary, write_tree
from .metrics import clustering_accuracy
from .sequences import LeafSet, assign_to_leaves
from .solver import SolverConfig, build_affinity, cslrr_solve, threshold_coefficients
from .spectral import spectral_cluster
from .svm import DEFAULT_C, MODE_ONE_VS_ALL, MODE_ONE_VS_ONE, check_open_set_mode
from .svm import check_svm_params, svm_train_multiclass

# Unused here: bench/tracer.py wraps these two names in this module.
from .svm import open_set_svm, svm_predict_multiclass
from .synth import (
    SequenceSynthConfig,
    UosSynthConfig,
    generate_synthetic_sequences,
    generate_synthetic_uos,
    split_by_class,
)

METHODS = ("lrr", "sclrr", "cslrr")
CLASSIFIERS = ("knn", "svm-ovo", "svm-ova")  # the first is the default

# A config key is the name of the dataclass field it fills, except these.
FIELD_KEYS = {
    "lam": "lambda", "points_per_subspace": "points", "max_level": "levels", "open_set": "open",
}


def config_keys(cls, *given: str) -> tuple[str, ...]:
    """The config keys of dataclass `cls`: one per field not named in `given`."""
    return tuple(FIELD_KEYS.get(f.name, f.name) for f in fields(cls) if f.name not in given)


# The config keys each subcommand reads; any other key is a ConfigError.
DATA_KEYS = ("data", "format", "labels", "block_rows", "block_bins")
SOLVER_KEYS = ("method", *config_keys(SolverConfig))
SYNTH_KEYS = {
    "uos": config_keys(UosSynthConfig, "seed"),
    "sequences": (
        *config_keys(SequenceSynthConfig, "sequences_per_class", "seed"),
        "train_per_class", "test_per_class",
    ),
}
CLUSTER_KEYS = ("seed", "clusters", *DATA_KEYS, *SOLVER_KEYS)
HIERARCHY_KEYS = ("seed", *config_keys(HierarchyConfig), *DATA_KEYS, *SOLVER_KEYS)
# The classifier keys; a saved bundle fixes them, so `classify --model` rejects them.
MODEL_KEYS = ("classifier", "open", "k", "varsigma", "nu", "c")
CLASSIFY_KEYS = ("data", *MODEL_KEYS)


def emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def diag(message: str) -> None:
    print(message, file=sys.stderr)


def _key_value(item: str, where: str) -> tuple[str, str]:
    key, value = item.split("=", 1)
    if not key.strip():
        raise ConfigError(f"empty config key in {where}: {item.strip()!r}")
    return key.strip(), value.strip()


def parse_config(path: Path) -> dict[str, str]:
    cfg = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw.strip()!r}")
        key, value = _key_value(line, str(path))
        cfg[key] = value
    return cfg


def load_config(args) -> tuple[dict[str, str], Path]:
    base = Path.cwd()
    cfg: dict[str, str] = {}
    if args.config:
        cfg = parse_config(args.config)
        base = Path(args.config).resolve().parent
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = _key_value(item, "--set")
        cfg[key] = value
    return cfg, base


def check_keys(cfg: dict[str, str], accepted, command: str) -> None:
    """Reject config keys that `command` does not read, naming the accepted ones."""
    unknown = sorted(set(cfg) - set(accepted))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {command}: {', '.join(map(repr, unknown))}; "
            f"accepted keys: {', '.join(sorted(accepted)) or '(none)'}"
        )


def need(cfg: dict[str, str], key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing config key: {key}")
    return cfg[key]


def cfg_int(cfg, key, default=None) -> int:
    raw = need(cfg, key) if default is None else cfg.get(key, str(default))
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be an integer, got {raw!r}") from exc


def cfg_float(cfg, key, default=None) -> float:
    raw = need(cfg, key) if default is None else cfg.get(key, str(default))
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {raw!r}")
    return value


def cfg_bool(cfg, key) -> bool:
    raw = cfg.get(key, "false")
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"config key {key} must be a boolean, got {raw!r}")


def config_values(cls, cfg: dict[str, str], **given) -> dict:
    """Keyword arguments for dataclass `cls`: `given`, then each other field's config
    value parsed by its annotation, else the field's default, else a missing-key error."""
    # Annotations are strings, since the config modules use `from __future__ import annotations`.
    parsers = {"int": cfg_int, "float": cfg_float, "str": need}
    values = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        key = FIELD_KEYS.get(f.name, f.name)
        if key in cfg or f.default is MISSING:
            values[f.name] = parsers[f.type](cfg, key)
        else:
            values[f.name] = f.default
    return values


def seed_from(args, cfg) -> int:
    """The --seed flag, else the config's seed, else 0; numpy seeds are nonnegative."""
    seed = args.seed if args.seed is not None else cfg_int(cfg, "seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def solver_config_from(cfg: dict[str, str], method: str) -> SolverConfig:
    """Parse every solver key, then zero the weights `method` does not use."""
    values = config_values(SolverConfig, cfg)
    if method == "lrr":
        values.update(alpha=0.0, beta=0.0)
    elif method == "sclrr":
        values["beta"] = 0.0
    elif method != "cslrr":
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    return SolverConfig(**values)


def load_features(args, keys, command: str):
    """Config, feature matrix and (if configured) labels, checked against N before any
    solve: the shared front half of `cluster` and `hierarchy`."""
    cfg, base = load_config(args)
    check_keys(cfg, keys, command)
    block = None
    if "block_rows" in cfg or "block_bins" in cfg:
        block = (cfg_int(cfg, "block_rows"), cfg_int(cfg, "block_bins"))
    fm = datasets.load_feature_matrix(
        _resolve(base, need(cfg, "data")), cfg.get("format", "bin"), block
    )
    truth = None
    if "labels" in cfg:
        path = _resolve(base, cfg["labels"])
        truth = datasets.load_labels(path)
        if len(truth) != fm.n_samples:
            raise DataError(f"{path}: {len(truth)} labels for N={fm.n_samples} samples")
    return cfg, fm, truth


def emit_accuracy(task: str, pred, truth) -> None:
    if truth is not None:
        emit({"record": "accuracy", "task": task, "value": clustering_accuracy(pred, truth)})


def _write_residual_csv(path, history) -> None:
    # Python floats: under numpy 2 a numpy scalar's repr reads "np.float64(...)".
    rows = "".join(
        f"{i},{r1!r},{r2!r}\n" for i, (r1, r2) in enumerate(history.tolist(), start=1)
    )
    write_file(path, ("iter,r1,r2\n" + rows).encode())


def _log_residuals(state) -> None:
    r1, r2 = state.residuals[-1]
    diag(f"iter={state.t} r1={r1:.6e} r2={r2:.6e} mu={state.mu:.6e}")


def cmd_synth(args) -> int:
    """Validate the config and generate the data before creating `--out`."""
    cfg, base = load_config(args)
    kind = need(cfg, "kind")
    if kind not in SYNTH_KEYS:
        raise ConfigError(f"unknown synth kind {kind!r}; expected one of {tuple(SYNTH_KEYS)}")
    check_keys(cfg, ("kind", "out", "seed", *SYNTH_KEYS[kind]), f"synth kind={kind}")
    out = Path(args.out) if args.out else _resolve(base, need(cfg, "out"))
    seed = seed_from(args, cfg)
    if kind == "uos":
        ucfg = UosSynthConfig(**config_values(UosSynthConfig, cfg, seed=seed))
        fm, labels = generate_synthetic_uos(ucfg)
        make_dir(out)
        datasets.write_feature_bin(out / "features.bin", fm.data)
        datasets.write_labels(out / "labels.txt", labels)
        emit(
            {
                "record": "synth",
                "kind": "uos",
                "out": str(out),
                "m": ucfg.m,
                "n_samples": fm.n_samples,
                "subspaces": ucfg.subspaces,
                "seed": seed,
            }
        )
        return 0
    train_pc = cfg_int(cfg, "train_per_class")
    test_pc = cfg_int(cfg, "test_per_class")
    for key, count in (("train_per_class", train_pc), ("test_per_class", test_pc)):
        if count < 1:
            raise ConfigError(f"{key} must be >= 1, got {count}")
    scfg = SequenceSynthConfig(
        **config_values(SequenceSynthConfig, cfg, sequences_per_class=train_pc + test_pc, seed=seed)
    )
    samples, leaves = generate_synthetic_sequences(scfg)
    train, test = split_by_class(samples, train_pc)
    make_dir(out)
    datasets.save_sequence_dataset(out / "train", train)
    datasets.save_sequence_dataset(out / "test", test)
    datasets.save_leaves(out / "leaves.bin", leaves)
    emit(
        {
            "record": "synth",
            "kind": "sequences",
            "out": str(out),
            "classes": scfg.classes,
            "train_sequences": len(train),
            "test_sequences": len(test),
            "leaves": len(leaves),
            "seed": seed,
        }
    )
    return 0


def cmd_cluster(args) -> int:
    cfg, fm, truth = load_features(args, CLUSTER_KEYS, "cluster")
    method = args.method or cfg.get("method", "cslrr")
    if args.alpha is not None:
        cfg["alpha"] = str(args.alpha)
    if args.beta is not None:
        cfg["beta"] = str(args.beta)
    k = args.clusters if args.clusters is not None else cfg_int(cfg, "clusters")
    seed = seed_from(args, cfg)
    scfg = solver_config_from(cfg, method)
    result = cslrr_solve(fm, scfg, k, callback=_log_residuals if args.verbose else None)
    if not result.converged:
        diag(f"solver did not converge within {scfg.max_iters} iterations")
    w = build_affinity(threshold_coefficients(result.z, scfg.coeff_threshold))
    labels = spectral_cluster(w, k, seed)
    if args.out:
        datasets.write_labels(args.out, labels)
    if args.emit_csv:
        _write_residual_csv(args.emit_csv, result.residual_history)
    emit(
        {
            "record": "cluster",
            "method": method,
            "clusters": k,
            "n_samples": fm.n_samples,
            "converged": result.converged,
            "iterations": result.iterations,
            "seed": seed,
            "labels": labels.tolist(),
        }
    )
    emit_accuracy("cluster", labels, truth)
    return 0


def cmd_hierarchy(args) -> int:
    cfg, fm, truth = load_features(args, HIERARCHY_KEYS, "hierarchy")
    seed = seed_from(args, cfg)
    hcfg = HierarchyConfig(**config_values(HierarchyConfig, cfg))
    scfg = solver_config_from(cfg, cfg.get("method", "cslrr"))
    tree = hcs_lrr(fm, scfg, hcfg, seed)
    if not tree.solver_converged:
        diag("solver did not converge; tree built from the last iterate")
    if args.out:
        write_tree(tree, args.out)
    if args.summary:
        write_file(args.summary, tree_summary(tree).encode())
    leaves = tree.leaves()
    labels = tree.leaf_labels()
    emit(
        {
            "record": "hierarchy",
            "levels": hcfg.max_level,
            "n_samples": fm.n_samples,
            "leaves": len(leaves),
            "leaf_sizes": [n.size for n in leaves],
            "leaf_dims": [n.dim for n in leaves],
            "solver_converged": tree.solver_converged,
            "seed": seed,
            "labels": labels.tolist(),
        }
    )
    emit_accuracy("hierarchy", labels, truth)
    return 0


def _load_leaves_for_classify(args, data_dir: Path) -> LeafSet:
    if args.tree:
        return LeafSet.from_tree(read_tree(args.tree))
    if args.leaves:
        return datasets.load_leaves(args.leaves)
    leaves_path = data_dir / "leaves.bin"
    if not leaves_path.exists():
        raise ConfigError(
            "no leaf bases: provide --tree, --leaves, or a data dir with leaves.bin"
        )
    return datasets.load_leaves(leaves_path)


def cmd_classify(args) -> int:
    cfg, base = load_config(args)
    check_keys(cfg, CLASSIFY_KEYS, "classify")
    data_dir = Path(args.data) if args.data else _resolve(base, need(cfg, "data"))
    test = datasets.load_sequence_dataset(data_dir / "test")
    if args.model:
        ignored = ("save_model", "tree", "leaves", "classifier", "open")
        clash = [f"--{name.replace('_', '-')}" for name in ignored if getattr(args, name)]
        if clash:
            raise ConfigError(f"--model cannot be combined with {', '.join(clash)}")
        fixed = [key for key in MODEL_KEYS if key in cfg]
        if fixed:
            raise ConfigError(
                f"--model cannot be combined with config key(s) {', '.join(map(repr, fixed))}; "
                "the saved bundle fixes them"
            )
        leaves, model = load_model_bundle(args.model)
        classifier = f"bundle:{bundle_kind(model)}"
    else:
        leaves = _load_leaves_for_classify(args, data_dir)
        train = datasets.load_sequence_dataset(data_dir / "train")
        classifier = args.classifier or cfg.get("classifier", CLASSIFIERS[0])
        if classifier not in CLASSIFIERS:
            raise ConfigError(
                f"unknown classifier {classifier!r}; expected one of {CLASSIFIERS}"
            )
        open_set = args.open or cfg_bool(cfg, "open")
        # Every config value is checked before any sequence is assigned to the leaves.
        if classifier == "knn":
            model = KnnModel(
                **config_values(KnnModel, cfg, train=train, open_set=open_set, ceilings=None)
            )
        else:
            mode = MODE_ONE_VS_ONE if classifier == "svm-ovo" else MODE_ONE_VS_ALL
            check_open_set_mode(mode, open_set)
            nu = cfg_float(cfg, "nu") if "nu" in cfg else None
            c = cfg_float(cfg, "c", DEFAULT_C)
            check_svm_params(nu, c)
        for s in train:
            s.assignment = assign_to_leaves(s, leaves)
        if classifier != "knn":
            model = svm_train_multiclass(
                [s.assignment for s in train],
                [s.label for s in train],
                leaves,
                mode=mode,
                nu=nu,
                c=c,
                open_set=open_set,
            )
            stalled = [str(key) for key, (m, _) in model.models.items() if not m.converged]
            if stalled:
                diag(f"SMO pass budget exhausted: binary models {', '.join(stalled)}")
    for s in test:
        s.assignment = assign_to_leaves(s, leaves)
    # Before the save: an open-set k-NN model fits its ceilings on its first prediction.
    predictions = [predict(model, s, leaves) for s in test]
    known = set(model.classes)
    if args.save_model:
        save_model_bundle(args.save_model, leaves, model)
    for i, (sample, pred) in enumerate(zip(test, predictions)):
        emit(
            {
                "record": "prediction",
                "index": i,
                "predicted": pred,
                "is_new": pred is None,
                "truth": sample.label,
            }
        )
    truths = [s.label for s in test]
    known_mask = [t in known for t in truths]
    n_known = sum(known_mask)
    n_unknown = len(test) - n_known
    correct_known = sum(
        1 for p, t, m in zip(predictions, truths, known_mask) if m and p == t
    )
    summary = {
        "record": "classification_summary",
        "classifier": classifier,
        "n_test": len(test),
        "known_accuracy": (correct_known / n_known) if n_known else None,
    }
    if n_unknown:
        rejected = sum(
            1 for p, m in zip(predictions, known_mask) if not m and p is None
        )
        summary["new_recall"] = rejected / n_unknown
        summary["n_unknown"] = n_unknown
    emit(summary)
    return 0


def cmd_eval(args) -> int:
    cfg, _ = load_config(args)
    check_keys(cfg, (), "eval")
    emit_accuracy("eval", datasets.load_labels(args.pred), datasets.load_labels(args.truth))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uoslearn",
        description="Subspace-structured representation learning pipeline",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="flat subspace clustering")
    common(p)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--clusters", type=int)
    p.add_argument("--out", help="write predicted labels to this file")
    p.add_argument("--emit-csv", help="write per-iteration residuals as CSV")
    p.add_argument("--verbose", action="store_true", help="residual log on stderr")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("hierarchy", help="hierarchical subspace clustering")
    common(p)
    p.add_argument("--out", help="write the tree binary to this file")
    p.add_argument("--summary", help="write the human-readable tree summary")
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("classify", help="sequence classification")
    common(p)
    p.add_argument("--data", help="dataset directory with train/, test/, leaves.bin")
    p.add_argument("--classifier", choices=CLASSIFIERS)
    p.add_argument("--open", action="store_true", help="open-set prediction")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--tree", help="take leaf bases from a hierarchy tree file")
    source.add_argument("--leaves", help="take leaf bases from a leaf-basis file")
    p.add_argument("--model", help="predict with a saved model bundle")
    p.add_argument("--save-model", help="write the trained model bundle")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="metrics over saved label files")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except NumericalError as exc:
        diag(f"numerical failure: {exc}")
        return 3
    except UosError as exc:
        diag(f"error: {exc}")
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
