"""Command-line entry point: generate, pretrain, finetune, evaluate.

Every command resolves its configuration (flags > file > defaults),
echoes it to <out>/config.ini before doing any work, and writes only
deterministic artifacts, so a rerun with the same config and seed is
byte-identical. Exit codes: 0 success, 1 validation error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys

import numpy as np

from biaxial import data as dt
from biaxial import metrics as mt
from biaxial import training as tr
from biaxial.config import ConfigError, load_config
from biaxial.model import ARCHS

logger = logging.getLogger("biaxial")

AGGREGATE_FIELDS = ["dataset", "model", "mode", "size", "n_seeds", "mean_auc_pr",
                    "sd_auc_pr", "mean_auc_roc", "sd_auc_roc", "rank_auc_pr"]
EVALUATE_FIELDS = ["checkpoint", "dataset", "auc_roc", "auc_pr", "n_pos", "n_neg",
                   "prevalence"]


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[f]) for f in fieldnames])


def _echo_config(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.ini"), "w") as fh:
        fh.write(cfg.to_ini())


def _sensors_for(cfg):
    return dt.SENSOR_SCHEMA[:cfg["model"]["sensors_count"]]


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg) -> int:
    out_dir = cfg["output"]["dir"]
    d = cfg["data"]
    _echo_config(cfg, out_dir)
    ds = dt.generate_synthetic(
        n=d["n"],
        prevalence=d["prevalence"],
        mean_stay_hours=d["mean_stay_hours"],
        sparsity=d["sparsity"],
        seed=cfg["train"]["seed"],
        n_sensors=cfg["model"]["sensors_count"],
        availability_profile=d["availability_profile"],
        name=d["name"],
    )
    dt.write_dataset_csvs(ds, out_dir)
    mean_stay = float(np.mean([ep.stay_hours for ep in ds.episodes]))
    print(f"dataset: {ds.name}")
    print(f"admissions: {len(ds)}")
    print(f"mortality (positive class): {100.0 * ds.prevalence:.1f}%")
    print(f"mean stay: {mean_stay:.1f}h")
    print(f"sensors: {len(ds.sensors)}")
    return 0


def cmd_pretrain(cfg) -> int:
    out_dir = cfg["output"]["dir"]
    paths = cfg["data"]["paths"]
    if not paths:
        raise ConfigError("pretrain requires at least one dataset path (data.paths)")
    _echo_config(cfg, out_dir)
    sensors = _sensors_for(cfg)
    datasets = [dt.load_dataset_dir(p, sensors=sensors) for p in paths]
    pooled = dt.apply_exclusions(dt.pool_datasets(datasets), "pretrain")
    logger.info("pooled %d episodes from %d datasets", len(pooled), len(datasets))
    result = tr.pretrain(pooled, cfg.model_cfg(), cfg.train_cfg(), cfg.sampler_cfg())

    for fold, run in enumerate(result.fold_results):
        with open(os.path.join(out_dir, f"fold{fold}.log"), "w") as fh:
            for epoch, (trn, val, lr) in enumerate(
                    zip(run.train_curve, run.val_curve, run.lr_curve)):
                fh.write(f"epoch {epoch} train {_fmt(trn)} val {_fmt(val)} "
                         f"lr {_fmt(lr)}\n")
            fh.write(f"stop_epoch {run.stop_epoch} best_epoch {run.best_epoch} "
                     f"best_val {_fmt(run.best_val)} reason {run.stop_reason}\n")
    with open(os.path.join(out_dir, "pretrain.log"), "w") as fh:
        for fold, run in enumerate(result.fold_results):
            fh.write(f"fold {fold} best_val_masked_mse {_fmt(run.best_val)}\n")
        fh.write(f"selected fold {result.selected_fold} with the lowest masked "
                 f"mean squared error loss\n")
    selected = result.selected
    tr.save_checkpoint(
        os.path.join(out_dir, "checkpoint.bax"),
        selected.params,
        result.preprocessors[result.selected_fold],
        cfg.model_cfg(),
        meta={
            "kind": "pretrained",
            "sampler_cfg": {k: v for k, v in cfg["sampler"].items()},
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
    out_dir = cfg["output"]["dir"]
    paths = cfg["data"]["paths"]
    if len(paths) != 1:
        raise ConfigError("finetune requires exactly one dataset path (data.paths)")
    grid = cfg.grid_cfg()
    save_variant = cfg["grid"]["save_model"]
    if save_variant and save_variant not in tr.GRID_VARIANTS:
        raise ConfigError(f"grid.save_model must be one of {tuple(tr.GRID_VARIANTS)}")
    needs_ckpt = grid.pretrained_variants()
    ckpt_path = cfg["data"]["checkpoint"]
    if needs_ckpt and not ckpt_path:
        raise ConfigError(f"variants {needs_ckpt} need data.checkpoint")
    if ckpt_path and not os.path.exists(ckpt_path):
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    _echo_config(cfg, out_dir)
    checkpoint = tr.load_checkpoint(ckpt_path) if ckpt_path else None
    model_cfg = checkpoint["model_cfg"] if checkpoint else cfg.model_cfg()
    sensors = dt.SENSOR_SCHEMA[:model_cfg.sensors_count]
    ds = dt.apply_exclusions(
        dt.load_dataset_dir(paths[0], sensors=sensors), "mortality")
    logger.info("fine-tuning dataset %s: %d episodes after exclusions",
                ds.name, len(ds))
    rows, aggregates = tr.run_experiment_grid(
        ds, checkpoint, model_cfg, cfg.train_cfg(), grid)
    mt.write_metric_rows(os.path.join(out_dir, "runs.csv"), rows)
    _write_csv(os.path.join(out_dir, "aggregate.csv"), AGGREGATE_FIELDS, aggregates)
    print(f"grid complete: {len(rows)} runs, {len(aggregates)} aggregate rows")

    if save_variant:
        _save_final_model(cfg, ds, checkpoint, model_cfg, save_variant, out_dir)
        print(f"model: {os.path.join(out_dir, 'model.bax')}")
    return 0


def _save_final_model(cfg, ds, checkpoint, model_cfg, variant, out_dir):
    """Train one model of the given variant on the full training pool and
    save it for cross-dataset evaluation."""
    train_cfg = cfg.train_cfg()
    plan = dt.make_splits(ds, train_cfg.seed)
    pool = dt.Dataset.from_episodes(
        ds.name, dt.select_episodes(ds, plan.pool_ids()), sensors=ds.sensors)
    result = tr.train_variant(variant, checkpoint, pool, train_cfg, model_cfg,
                              cfg.grid_cfg())
    tr.save_checkpoint(
        os.path.join(out_dir, "model.bax"), result.params, result.preprocessor,
        model_cfg,
        meta={"kind": "classifier", "arch": tr.GRID_VARIANTS[variant].arch,
              "variant": variant, "dataset": ds.name,
              "best_val_loss": result.best_val},
    )


def cmd_evaluate(cfg) -> int:
    out_dir = cfg["output"]["dir"]
    paths = cfg["data"]["paths"]
    ckpts = [p for p in cfg["data"]["checkpoint"].split(",") if p]
    if not paths or not ckpts:
        raise ConfigError("evaluate requires data.paths and data.checkpoint")
    for p in list(paths) + ckpts:
        if not os.path.exists(p):
            raise ConfigError(f"path not found: {p}")
    _echo_config(cfg, out_dir)
    seed = cfg["train"]["seed"]
    rows = []
    for ckpt_path in ckpts:
        bundle = tr.load_checkpoint(ckpt_path)
        model = ARCHS[bundle["meta"].get("arch", "bat")].from_arrays(
            bundle["model_cfg"], bundle["params"])
        sensors = dt.SENSOR_SCHEMA[:bundle["model_cfg"].sensors_count]
        for path in paths:
            ds = dt.apply_exclusions(
                dt.load_dataset_dir(path, sensors=sensors), "mortality")
            plan = dt.make_splits(ds, seed)
            test = dt.select_episodes(ds, plan.test_ids)
            test_t = dt.transform_all(test, bundle["preprocessor"])
            probs = tr.predict_probs(model, test_t, cfg["train"]["batch_size"])
            report = mt.evaluate_probs(probs, [ep.label for ep in test])
            rows.append({
                "checkpoint": os.path.basename(ckpt_path),
                "dataset": ds.name,
                "auc_roc": report.auc_roc,
                "auc_pr": report.auc_pr,
                "n_pos": report.n_pos,
                "n_neg": report.n_neg,
                "prevalence": report.prevalence,
            })
    _write_csv(os.path.join(out_dir, "evaluate.csv"), EVALUATE_FIELDS, rows)
    for row in rows:
        print(f"{row['checkpoint']} on {row['dataset']}: "
              f"auc_roc={row['auc_roc']:.4f} auc_pr={row['auc_pr']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--out", help="output directory (overrides output.dir)")
    sub.add_argument("--seed", type=int, help="top-level seed (overrides train.seed)")
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
    p.add_argument("--n", type=int, help="number of episodes")
    p.add_argument("--prevalence", type=float, help="positive-class fraction")
    p.add_argument("--sparsity", type=float, help="observation thinning in [0, 1)")
    p.add_argument("--mean-stay-hours", type=float, dest="mean_stay_hours")
    p.add_argument("--availability-profile", type=int, dest="availability_profile")
    p.add_argument("--sensors-count", type=int, dest="sensors_count")
    p.add_argument("--name", help="dataset name")

    p = sub.add_parser("pretrain", help="pool datasets and pretrain by forecasting")
    _add_common(p)
    p.add_argument("--data", action="append", default=[], metavar="DIR",
                   help="dataset directory; repeat to pool several")

    p = sub.add_parser("finetune", help="run the size/seed/variant experiment grid")
    _add_common(p)
    p.add_argument("--data", action="append", default=[], metavar="DIR")
    p.add_argument("--checkpoint", help="pretrained checkpoint path")
    p.add_argument("--jobs", type=int, help="parallel grid cells")

    p = sub.add_parser("evaluate", help="evaluate checkpoints on test splits")
    _add_common(p)
    p.add_argument("--data", action="append", default=[], metavar="DIR")
    p.add_argument("--checkpoint", action="append", default=[], metavar="PATH")
    return parser


def _overrides_from_args(args) -> dict:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        dotted, raw = item.split("=", 1)
        overrides[dotted.strip()] = raw.strip()
    if args.out is not None:
        overrides["output.dir"] = args.out
    if args.seed is not None:
        overrides["train.seed"] = str(args.seed)
    for attr, dotted in (
        ("n", "data.n"),
        ("prevalence", "data.prevalence"),
        ("sparsity", "data.sparsity"),
        ("mean_stay_hours", "data.mean_stay_hours"),
        ("availability_profile", "data.availability_profile"),
        ("sensors_count", "model.sensors_count"),
        ("name", "data.name"),
        ("jobs", "grid.jobs"),
    ):
        if getattr(args, attr, None) is not None:
            overrides[dotted] = str(getattr(args, attr))
    data_dirs = getattr(args, "data", None)
    if data_dirs:
        overrides["data.paths"] = ",".join(data_dirs)
    ckpt = getattr(args, "checkpoint", None)
    if ckpt:
        overrides["data.checkpoint"] = ckpt if isinstance(ckpt, str) else ",".join(ckpt)
    return overrides


COMMANDS = {
    "generate": cmd_generate,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides_from_args(args))
        return COMMANDS[args.command](cfg)
    except mt.UndefinedMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, dt.SchemaError, dt.ParseError, ValueError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
