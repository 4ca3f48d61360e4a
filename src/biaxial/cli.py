"""Command-line entry point: generate, pretrain, finetune, evaluate.

Every command resolves (flags > file > defaults) and checks its settings
(`config.load_config`), checkpoints (`training.load_checkpoint`) and
cohorts (`data.load_dataset_dir`, the splits' ten-stay floor, a test split
of both classes) before it echoes the configuration to <out>/config.ini;
`pretrain` echoes once `training.pretrain` returns, `evaluate` once it has
scored every checkpoint. Its artifacts are deterministic, so a rerun with the
same config and seed is byte-identical.
Exit codes: 0 success, 1 validation error (usage errors included), 2 runtime failure.
`evaluate` draws each test split with the `split_seed` that `finetune`
saved in the model, not with `--seed`, so it never scores a model on the
training pool it was fitted on.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from biaxial import data as dt
from biaxial import metrics as mt
from biaxial import training as tr
from biaxial.config import ConfigError, load_config
from biaxial.model import BatConfig

logger = logging.getLogger("biaxial")

METRIC_CSV_FIELDS = ["dataset", "model", "mode", "size", "seed", "fold", "auc_roc", "auc_pr"]
AGGREGATE_FIELDS = ["dataset", "model", "mode", "size", "n_seeds", "mean_auc_pr",
                    "sd_auc_pr", "mean_auc_roc", "sd_auc_roc", "rank_auc_pr"]
EVALUATE_FIELDS = ["checkpoint", "dataset", "auc_roc", "auc_pr", "n_pos", "n_neg",
                   "prevalence"]


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write_rows(path, fields, rows):
    """Write dict rows as a CSV table with the given columns."""
    dt.write_table(path, fields, ([_fmt(row[f]) for f in fields] for row in rows))


def _echo_config(cfg):
    os.makedirs(cfg.output.dir, exist_ok=True)
    with dt.open_output(os.path.join(cfg.output.dir, "config.ini")) as fh:
        fh.write(cfg.to_ini())


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg) -> int:
    d = cfg.data
    ds = dt.generate_synthetic(
        n=d.n,
        prevalence=d.prevalence,
        mean_stay_hours=d.mean_stay_hours,
        sparsity=d.sparsity,
        seed=cfg.train.seed,
        n_sensors=cfg.model.sensors_count,
        availability_profile=d.availability_profile,
        name=d.name,
    )
    _echo_config(cfg)
    dt.write_dataset_csvs(ds, cfg.output.dir)
    mean_stay = float(np.mean([ep.stay_hours for ep in ds.episodes]))
    print(f"dataset: {ds.name}")
    print(f"admissions: {len(ds)}")
    print(f"mortality (positive class): {100.0 * ds.prevalence:.1f}%")
    print(f"mean stay: {mean_stay:.1f}h")
    print(f"sensors: {cfg.model.sensors_count}")
    return 0


def cmd_pretrain(cfg) -> int:
    out_dir, paths = cfg.output.dir, cfg.data.paths
    if not paths:
        raise ConfigError("pretrain requires at least one dataset path (data.paths)")
    datasets = [dt.load_dataset_dir(p, cfg.model.sensors_count) for p in paths]
    pooled = dt.apply_exclusions(dt.pool_datasets(datasets), "pretrain")
    logger.info("pooled %d episodes from %d datasets", len(pooled), len(datasets))
    result = tr.pretrain(pooled, cfg.model, cfg.train, cfg.sampler)
    _echo_config(cfg)
    for fold, run in enumerate(result.fold_results):
        with dt.open_output(os.path.join(out_dir, f"fold{fold}.log")) as fh:
            for epoch, (trn, val, lr) in enumerate(
                    zip(run.train_curve, run.val_curve, run.lr_curve)):
                fh.write(f"epoch {epoch} train {_fmt(trn)} val {_fmt(val)} "
                         f"lr {_fmt(lr)}\n")
            fh.write(f"stop_epoch {run.stop_epoch} best_epoch {run.best_epoch} "
                     f"best_val {_fmt(run.best_val)} reason {run.stop_reason}\n")
    with dt.open_output(os.path.join(out_dir, "pretrain.log")) as fh:
        for fold, run in enumerate(result.fold_results):
            fh.write(f"fold {fold} best_val_masked_mse {_fmt(run.best_val)}\n")
        fh.write(f"selected fold {result.selected_fold} with the lowest masked "
                 f"mean squared error loss\n")
    selected = result.selected
    tr.save_checkpoint(
        os.path.join(out_dir, "checkpoint.bax"),
        selected.params,
        selected.preprocessor,
        cfg.model,
        meta={
            "kind": "pretrained",
            "sampler_cfg": asdict(cfg.sampler),
            "selected_fold": result.selected_fold,
            "best_val_masked_mse": selected.best_val,
            "pooled_from": [os.path.basename(os.path.normpath(p)) for p in paths],
        },
    )
    print(f"selected fold {result.selected_fold} "
          f"(best val masked mse {selected.best_val:.6f})")
    print(f"checkpoint: {os.path.join(out_dir, 'checkpoint.bax')}")
    return 0


def cmd_finetune(cfg) -> int:
    out_dir, paths, ckpts, grid = cfg.output.dir, cfg.data.paths, cfg.data.checkpoint, cfg.grid
    if len(paths) != 1:
        raise ConfigError("finetune requires exactly one dataset path (data.paths)")
    if len(ckpts) > 1:
        raise ConfigError("finetune takes at most one checkpoint (data.checkpoint)")
    checkpoint = tr.load_checkpoint(ckpts[0], "pretrained") if ckpts else None
    tr.check_variants(grid.trained, checkpoint, cfg.train)
    if checkpoint:  # the grid trains the checkpoint's model, so the echo names it
        saved, default = asdict(checkpoint["model_cfg"]), asdict(BatConfig())
        dropped = [f"{key}={value!r} (checkpoint: {saved[key]!r})" for key, value
                   in asdict(cfg.model).items() if default[key] != value != saved[key]]
        if dropped:
            logger.warning("the checkpoint's [model] overrides given %s", ", ".join(dropped))
        cfg = replace(cfg, model=checkpoint["model_cfg"])
    ds = dt.apply_exclusions(
        dt.load_dataset_dir(paths[0], cfg.model.sensors_count, labeled=True), "mortality")
    pool_ds, test_eps = dt.split_test(ds, cfg.train.seed)
    tr.check_test_split(ds.name, test_eps)
    if min(grid.sizes) > len(pool_ds):  # the grid would skip every size
        raise ConfigError(f"no size of grid.sizes {grid.sizes} fits the training pool of "
                          f"cohort {ds.name!r}: it has {len(pool_ds)} episodes")
    _echo_config(cfg)
    logger.info("fine-tuning dataset %s: %d episodes after exclusions", ds.name, len(ds))
    rows, aggregates, model = tr.run_experiment_grid(pool_ds, test_eps, checkpoint, cfg.model,
                                                     cfg.train, grid)
    _write_rows(os.path.join(out_dir, "runs.csv"), METRIC_CSV_FIELDS, rows)
    _write_rows(os.path.join(out_dir, "aggregate.csv"), AGGREGATE_FIELDS, aggregates)
    print(f"grid complete: {len(rows)} runs, {len(aggregates)} aggregate rows")

    if model is not None:   # for cross-dataset evaluation
        model_path = os.path.join(out_dir, "model.bax")
        tr.save_checkpoint(
            model_path, model.params, model.preprocessor, cfg.model,
            meta={"kind": "classifier", "arch": tr.GRID_VARIANTS[grid.save_model].arch,
                  "variant": grid.save_model, "dataset": ds.name,
                  "split_seed": cfg.train.seed, "best_val_loss": model.best_val})
        print(f"model: {model_path}")
    return 0


def cmd_evaluate(cfg) -> int:
    paths, ckpts = cfg.data.paths, cfg.data.checkpoint
    if not paths or not ckpts:
        raise ConfigError("evaluate requires data.paths and data.checkpoint")
    bundles = [tr.load_checkpoint(p, "classifier") for p in ckpts]
    cohorts = {(path, n): dt.apply_exclusions(dt.load_dataset_dir(path, n, labeled=True),
                                              "mortality")
               for n in dict.fromkeys(b["model_cfg"].sensors_count for b in bundles)
               for path in paths}
    rows = []
    for ckpt_path, bundle in zip(ckpts, bundles):
        for path in paths:
            ds = cohorts[path, bundle["model_cfg"].sensors_count]
            _, test = dt.split_test(ds, bundle["meta"]["split_seed"])
            tr.check_test_split(ds.name, test)
            probs = tr.predict_probs(bundle["arch"], bundle["model_cfg"], bundle["params"],
                                     bundle["preprocessor"], test, cfg.train.batch_size)
            report = mt.evaluate_probs(probs, [ep.label for ep in test])
            rows.append({"checkpoint": os.path.basename(ckpt_path), "dataset": ds.name,
                         **asdict(report)})
    _echo_config(cfg)
    _write_rows(os.path.join(cfg.output.dir, "evaluate.csv"), EVALUATE_FIELDS, rows)
    for row in rows:
        print(f"{row['checkpoint']} on {row['dataset']}: "
              f"auc_roc={row['auc_roc']:.4f} auc_pr={row['auc_pr']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--out", dest="output.dir", metavar="DIR", help="output directory")
    sub.add_argument("--seed", dest="train.seed", metavar="N",
                     help="top-level seed; evaluate's split seed is the checkpoint's")
    sub.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                     help="override any config value; repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaxial",
        description="Bi-axial transformer experiments on irregular clinical "
                    "time series (synthetic data).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset as CSVs")
    _add_common(p)
    p.add_argument("--n", dest="data.n", metavar="N", help="number of episodes")
    p.add_argument("--prevalence", dest="data.prevalence", metavar="P",
                   help="positive-class fraction")
    p.add_argument("--sparsity", dest="data.sparsity", metavar="S",
                   help="observation thinning in [0, 1)")
    p.add_argument("--mean-stay-hours", dest="data.mean_stay_hours", metavar="H")
    p.add_argument("--availability-profile", dest="data.availability_profile", metavar="K")
    p.add_argument("--sensors-count", dest="model.sensors_count", metavar="D")
    p.add_argument("--name", dest="data.name", metavar="NAME", help="dataset name")

    p = sub.add_parser("pretrain", help="pool datasets and pretrain by forecasting")
    _add_common(p)
    p.add_argument("--data", dest="data.paths", action="append", metavar="DIR",
                   help="dataset directory; repeat to pool several")

    p = sub.add_parser("finetune", help="run the size/seed/variant experiment grid")
    _add_common(p)
    p.add_argument("--data", dest="data.paths", action="append", metavar="DIR")
    p.add_argument("--checkpoint", dest="data.checkpoint", metavar="PATH",
                   help="pretrained checkpoint path")
    p.add_argument("--jobs", dest="grid.jobs", metavar="N", help="parallel grid cells")

    p = sub.add_parser("evaluate", help="evaluate checkpoints on test splits")
    _add_common(p)
    p.add_argument("--data", dest="data.paths", action="append", metavar="DIR")
    p.add_argument("--checkpoint", dest="data.checkpoint", action="append", metavar="PATH")
    return parser


def _overrides_from_args(args) -> dict:
    """--set pairs, then each flag given, stored under its dotted dest. A
    --data or --checkpoint flag names one path, so a value holding the
    list separator ',' is rejected whole rather than split."""
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        dotted, raw = item.split("=", 1)
        overrides[dotted.strip()] = raw.strip()
    for dotted, value in vars(args).items():
        if "." in dotted and value is not None:
            values = value if isinstance(value, list) else [str(value)]
            if dotted in ("data.paths", "data.checkpoint"):
                for path in values:
                    if "," in path:
                        raise ConfigError(f"{dotted}: path {path!r} holds ',', which "
                                          f"separates list items; give one path per flag")
            overrides[dotted] = ",".join(values)
    return overrides


COMMANDS = {"generate": cmd_generate, "pretrain": cmd_pretrain,
            "finetune": cmd_finetune, "evaluate": cmd_evaluate}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:           # a usage error is an input error; --help exits 0
        return 1 if exc.code == 2 else exc.code
    try:
        cfg = load_config(args.config, _overrides_from_args(args))
        return COMMANDS[args.command](cfg)
    except mt.UndefinedMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:  # ConfigError, SchemaError, ParseError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
