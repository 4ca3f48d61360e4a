"""Optimization loop, schedules, early stopping, pretraining and fine-tuning.

Pretraining runs five-fold cross-validation over the pooled corpus and
keeps the fold model with the lowest validation masked loss. Fine-tuning
supports full-model updates, head-only updates with a frozen trunk, and
from-scratch baselines (bi-axial or mean-imputed temporal transformer).
All randomness is derived from the run seed through named substreams.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from biaxial import autodiff as ad
from biaxial import data as dt
from biaxial import metrics as mt
from biaxial import sampler as sp
from biaxial.autodiff import Tensor, backward
from biaxial.model import BatConfig, BatModel, TemporalTransformer
from biaxial.rng import substream

logger = logging.getLogger(__name__)

FINETUNE_MODES = ("finetune_full", "finetune_head", "scratch")
GRID_VARIANTS = ("finetune_full", "finetune_head", "scratch_bat", "scratch_transformer")

DEFAULT_VARIANT_LR = {
    "finetune_full": 3e-4,
    "finetune_head": 1e-2,
    "scratch_bat": 1.5e-3,
    "scratch_transformer": 1.5e-3,
}


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient went NaN or infinite; the message names it."""


class TrainingError(RuntimeError):
    """A training run could not proceed (e.g. sampler exhaustion)."""


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 200
    patience: int = 10
    min_delta: float = 5e-3
    learning_rate: float = 7.781e-4
    weight_decay: float = 1e-6
    lr_gamma: float = 0.95
    seed: int = 0
    weighted_loss: bool = True
    standardization: str = "refit"   # refit | inherit

    def __post_init__(self):
        if not 0 < self.lr_gamma <= 1:
            raise ValueError("lr_gamma must be in (0, 1]")
        if self.standardization not in ("refit", "inherit"):
            raise ValueError("standardization must be 'refit' or 'inherit'")


@dataclass
class RunResult:
    params: dict           # best-epoch parameter arrays
    train_curve: list
    val_curve: list
    lr_curve: list
    stop_epoch: int        # completed epochs
    best_epoch: int
    best_val: float
    stop_reason: str
    metrics: mt.MetricReport | None = None
    preprocessor: dt.PreprocessorState | None = None


@dataclass
class PretrainResult:
    fold_results: list
    selected_fold: int
    preprocessors: list

    @property
    def selected(self) -> RunResult:
        return self.fold_results[self.selected_fold]


# ---------------------------------------------------------------------------
# optimizer and schedules


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Only parameters listed in `trainable` (default: all) are updated;
    frozen parameters are never touched, bitwise.
    """

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float,
                 weight_decay: float = 0.0, trainable=None):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.trainable = set(params) if trainable is None else set(trainable)
        self.m = {n: np.zeros_like(params[n].data) for n in self.trainable}
        self.v = {n: np.zeros_like(params[n].data) for n in self.trainable}
        self.t = 0

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        b1, b2 = self.BETAS
        self.t += 1
        for name in sorted(self.trainable):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NonFiniteGradientError(
                    f"non-finite gradient in parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p.data -= lr * mhat / (np.sqrt(vhat) + self.EPS)
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data


def lr_at_epoch(lr0: float, gamma: float, epoch: int) -> float:
    """Exponential decay: lr0 * gamma ** epoch."""
    if not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0, 1]")
    return lr0 * gamma ** epoch


def early_stop_check(history, patience: int, min_delta: float) -> str:
    """Replay the patience rule over a validation-loss history.

    An epoch improves only if it undercuts the lowest loss seen so far by
    strictly more than min_delta; the running minimum advances regardless
    (so a slow drip of sub-min_delta gains never resets the counter).
    Stop once `patience` consecutive epochs fail to improve.
    """
    if len(history) == 0:
        raise ValueError("history must be nonempty")
    stopper = EarlyStopper(patience, min_delta)
    for loss in history:
        if stopper.update(loss):
            return "stop"
    return "continue"


class EarlyStopper:
    """Incremental patience rule against the running validation minimum."""

    def __init__(self, patience: int, min_delta: float):
        self.patience = patience
        self.min_delta = min_delta
        self.best = np.inf
        self.wait = 0

    def update(self, loss: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        improved = loss < self.best - self.min_delta
        self.best = min(self.best, loss)
        if improved:
            self.wait = 0
            return False
        self.wait += 1
        return self.wait >= self.patience


# ---------------------------------------------------------------------------
# batching helpers


def _chunks(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def _classification_arrays(episodes):
    values, mask, statics = sp.collate(episodes)
    hours = np.arange(values.shape[2], dtype=np.float64)
    labels = np.array([float(ep.label) for ep in episodes])
    return values, mask, hours, statics, labels


def _eval_bce(model, episodes, batch_size, pos_weight):
    total = 0.0
    with ad.no_grad():
        for batch in _chunks(episodes, batch_size):
            values, mask, hours, statics, labels = _classification_arrays(batch)
            probs = model.classify(values, mask, hours, statics)
            total += mt.weighted_bce(probs, labels, pos_weight).item() * len(batch)
    return total / len(episodes)


def predict_probs(model, episodes, batch_size=64) -> np.ndarray:
    probs = []
    with ad.no_grad():
        for batch in _chunks(episodes, batch_size):
            values, mask, hours, statics, _ = _classification_arrays(batch)
            probs.append(model.classify(values, mask, hours, statics).data)
    return np.concatenate(probs)


# ---------------------------------------------------------------------------
# pretraining


def _forecast_loss_on_split(model, split, train=False, rng=None):
    pred = model.forecast(split.obs_values, split.obs_mask, split.obs_hours,
                          split.statics, train=train, rng=rng)
    return mt.masked_forecast_loss(pred, split.forecast_values, split.forecast_mask)


def _fixed_validation_windows(val_episodes, sampler_cfg, batch_size, rng):
    """Pre-draw one window per validation batch so the validation loss is
    comparable across epochs."""
    windows = []
    for batch in _chunks(val_episodes, batch_size):
        try:
            windows.append(sp.sample_window(batch, sampler_cfg, rng))
        except sp.SamplerExhaustedError:
            logger.warning("validation batch of %d episodes had no valid window",
                           len(batch))
    if not windows:
        raise TrainingError("no validation batch yielded a valid window")
    return windows


def _train_one_fold(train_eps, val_eps, model_cfg, train_cfg, sampler_cfg, fold):
    seed = train_cfg.seed
    model = BatModel.init(model_cfg, substream(seed, "init", fold))
    optimizer = AdamW(model.params, train_cfg.learning_rate, train_cfg.weight_decay)
    val_windows = _fixed_validation_windows(
        val_eps, sampler_cfg, train_cfg.batch_size, substream(seed, "valwin", fold))

    stopper = EarlyStopper(train_cfg.patience, train_cfg.min_delta)
    best_val = np.inf
    best_epoch = -1
    best_params = model.state_arrays()
    train_curve, val_curve, lr_curve = [], [], []
    stop_reason = "max_epochs"
    for epoch in range(train_cfg.epochs):
        lr = lr_at_epoch(train_cfg.learning_rate, train_cfg.lr_gamma, epoch)
        order_rng = substream(seed, "order", fold, epoch)
        sampler_rng = substream(seed, "sampler", fold, epoch)
        dropout_rng = substream(seed, "dropout", fold, epoch)
        order = order_rng.permutation(len(train_eps))
        batches = list(_chunks([train_eps[i] for i in order], train_cfg.batch_size))
        skipped = 0
        losses = []
        for batch in batches:
            try:
                split = sp.sample_window(batch, sampler_cfg, sampler_rng)
            except sp.SamplerExhaustedError:
                skipped += 1
                logger.warning("fold %d epoch %d: skipping batch with no valid window",
                               fold, epoch)
                continue
            model.zero_grad()
            loss = _forecast_loss_on_split(model, split, train=True, rng=dropout_rng)
            backward(loss)
            optimizer.step(lr)
            losses.append(loss.item())
        if skipped > 0.5 * len(batches):
            raise TrainingError(
                f"fold {fold} epoch {epoch}: over half the batches "
                f"({skipped}/{len(batches)}) had no valid window")
        with ad.no_grad():
            val_loss = float(np.mean([_forecast_loss_on_split(model, w).item()
                                      for w in val_windows]))
        train_curve.append(float(np.mean(losses)) if losses else np.nan)
        val_curve.append(val_loss)
        lr_curve.append(lr)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = model.state_arrays()
        if stopper.update(val_loss):
            stop_reason = "early_stop"
            break
    return RunResult(
        params=best_params,
        train_curve=train_curve,
        val_curve=val_curve,
        lr_curve=lr_curve,
        stop_epoch=len(val_curve),
        best_epoch=best_epoch,
        best_val=best_val,
        stop_reason=stop_reason,
    )


def pretrain(pooled: dt.Dataset, model_cfg: BatConfig, train_cfg: TrainConfig,
             sampler_cfg: sp.SamplerConfig, n_folds: int = 5) -> PretrainResult:
    """Five-fold self-supervised forecasting over a pooled, unlabeled corpus.

    Each fold fits its own preprocessor on its training split. The fold
    with the lowest best validation masked loss is selected.
    """
    plan = dt.make_splits(pooled, train_cfg.seed, n_folds=n_folds)
    fold_results = []
    preprocessors = []
    for fold, (train_ids, val_ids) in enumerate(plan.folds):
        train_eps = dt.select_episodes(pooled, train_ids)
        val_eps = dt.select_episodes(pooled, val_ids)
        pp = dt.fit_preprocessor(train_eps, fitted_on=f"{pooled.name}/fold{fold}")
        result = _train_one_fold(
            dt.transform_all(train_eps, pp), dt.transform_all(val_eps, pp),
            model_cfg, train_cfg, sampler_cfg, fold)
        logger.info("pretrain fold %d: best val masked loss %.6f at epoch %d (%s)",
                    fold, result.best_val, result.best_epoch, result.stop_reason)
        fold_results.append(result)
        preprocessors.append(pp)
    selected = int(np.argmin([r.best_val for r in fold_results]))
    logger.info("selected fold %d with lowest validation masked loss %.6f",
                selected, fold_results[selected].best_val)
    return PretrainResult(fold_results=fold_results, selected_fold=selected,
                          preprocessors=preprocessors)


# ---------------------------------------------------------------------------
# fine-tuning


def _freeze_set(model, mode):
    if mode == "finetune_head":
        return set(model.param_groups()["head_cls"])
    return set(model.params)


def stratified_split(episodes, val_frac: float, rng) -> tuple[list, list]:
    """Per-class split into (train, validation); falls back to plain
    splitting when a class has fewer than 2 members."""
    labels = np.array([ep.label for ep in episodes])
    train, val = [], []
    classes = [np.nonzero(labels == 1)[0], np.nonzero(labels == 0)[0]]
    if min(len(c) for c in classes) < 2:
        classes = [np.arange(len(episodes))]
    for group in classes:
        perm = group[rng.permutation(len(group))]
        n_val = max(1, int(round(val_frac * len(perm))))
        val.extend(episodes[i] for i in perm[:n_val])
        train.extend(episodes[i] for i in perm[n_val:])
    return train, val


def finetune(pretrained: dict | None, ds: dt.Dataset, mode: str,
             train_cfg: TrainConfig, model_cfg: BatConfig | None = None,
             val_episodes: list | None = None, test_episodes: list | None = None,
             arch: str = "bat") -> RunResult:
    """Supervised mortality training with early stopping on validation loss.

    `pretrained` is a checkpoint bundle (see save_checkpoint) for the
    finetune modes and must be None for scratch. Episodes in `ds` are the
    raw (excluded, unstandardized) training pool; validation/test default
    to an internal split of `ds` when not supplied.
    """
    if mode not in FINETUNE_MODES:
        raise ValueError(f"mode must be one of {FINETUNE_MODES}, got {mode!r}")
    if mode == "scratch" and pretrained is not None:
        raise ValueError("scratch training does not take a pretrained checkpoint")
    if mode != "scratch" and pretrained is None:
        raise ValueError(f"mode {mode!r} requires a pretrained checkpoint")
    if arch not in ("bat", "transformer"):
        raise ValueError(f"arch must be 'bat' or 'transformer', got {arch!r}")
    if arch == "transformer" and mode != "scratch":
        raise ValueError("the temporal baseline is only trained from scratch")

    seed = train_cfg.seed
    train_eps = list(ds.episodes)
    if val_episodes is None:
        train_eps, val_episodes = stratified_split(
            train_eps, 0.2, substream(seed, "holdout"))
    if not train_eps or not val_episodes:
        raise TrainingError("empty train or validation split")

    if train_cfg.standardization == "inherit":
        if pretrained is None:
            raise ValueError("standardization='inherit' requires a checkpoint")
        pp = pretrained["preprocessor"]
    else:
        pp = dt.fit_preprocessor(train_eps, fitted_on=f"{ds.name}/finetune")
    train_t = dt.transform_all(train_eps, pp)
    val_t = dt.transform_all(val_episodes, pp)

    if pretrained is not None:
        model_cfg = pretrained["model_cfg"]
        model = BatModel.from_arrays(model_cfg, pretrained["params"])
    else:
        if model_cfg is None:
            raise ValueError("scratch training requires a model config")
        init_rng = substream(seed, "init", arch)
        model = (BatModel.init(model_cfg, init_rng) if arch == "bat"
                 else TemporalTransformer.init(model_cfg, init_rng))

    trainable = _freeze_set(model, mode)
    frozen_before = {n: model.params[n].data.copy()
                     for n in set(model.params) - trainable}
    optimizer = AdamW(model.params, train_cfg.learning_rate,
                      train_cfg.weight_decay, trainable=trainable)

    labels_train = np.array([float(ep.label) for ep in train_t])
    pos_weight = (mt.pos_weight_for(labels_train)
                  if train_cfg.weighted_loss and labels_train.sum() > 0 else 1.0)

    stopper = EarlyStopper(train_cfg.patience, train_cfg.min_delta)
    best_val = np.inf
    best_epoch = -1
    best_params = model.state_arrays()
    train_curve, val_curve, lr_curve = [], [], []
    stop_reason = "max_epochs"
    for epoch in range(train_cfg.epochs):
        lr = lr_at_epoch(train_cfg.learning_rate, train_cfg.lr_gamma, epoch)
        order = substream(seed, "order", epoch).permutation(len(train_t))
        dropout_rng = substream(seed, "dropout", epoch)
        losses = []
        for batch in _chunks([train_t[i] for i in order], train_cfg.batch_size):
            values, mask, hours, statics, labels = _classification_arrays(batch)
            model.zero_grad()
            probs = model.classify(values, mask, hours, statics,
                                   train=True, rng=dropout_rng)
            loss = mt.weighted_bce(probs, labels, pos_weight)
            backward(loss)
            optimizer.step(lr)
            losses.append(loss.item())
        val_loss = _eval_bce(model, val_t, train_cfg.batch_size, pos_weight)
        train_curve.append(float(np.mean(losses)))
        val_curve.append(val_loss)
        lr_curve.append(lr)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = model.state_arrays()
        if stopper.update(val_loss):
            stop_reason = "early_stop"
            break

    for name, before in frozen_before.items():
        if not np.array_equal(model.params[name].data, before):
            raise AssertionError(f"frozen parameter {name!r} changed during training")

    result = RunResult(
        params=best_params,
        train_curve=train_curve,
        val_curve=val_curve,
        lr_curve=lr_curve,
        stop_epoch=len(val_curve),
        best_epoch=best_epoch,
        best_val=best_val,
        stop_reason=stop_reason,
        preprocessor=pp,
    )
    if test_episodes:
        best_model = (BatModel.from_arrays(model.cfg, best_params)
                      if isinstance(model, BatModel)
                      else TemporalTransformer.from_arrays(model.cfg, best_params))
        test_t = dt.transform_all(test_episodes, pp)
        probs = predict_probs(best_model, test_t, train_cfg.batch_size)
        result.metrics = mt.evaluate_probs(
            probs, [ep.label for ep in test_episodes])
    return result


# ---------------------------------------------------------------------------
# checkpoint bundles


def save_checkpoint(path, params: dict, pp: dt.PreprocessorState,
                    model_cfg: BatConfig, meta: dict | None = None) -> None:
    arrays = {f"param/{n}": a for n, a in params.items()}
    arrays.update(pp.as_arrays())
    full_meta = {"model_cfg": model_cfg.to_dict(), "fitted_on": pp.fitted_on}
    if meta:
        full_meta.update(meta)
    ad.save_params(path, arrays, meta=full_meta)


def load_checkpoint(path) -> dict:
    arrays, meta = ad.load_params(path)
    params = {n[len("param/"):]: a for n, a in arrays.items()
              if n.startswith("param/")}
    pp = dt.PreprocessorState.from_arrays(arrays, fitted_on=meta.get("fitted_on", ""))
    return {
        "params": params,
        "preprocessor": pp,
        "model_cfg": BatConfig.from_dict(meta["model_cfg"]),
        "meta": meta,
    }


# ---------------------------------------------------------------------------
# the experiment grid


@dataclass
class GridConfig:
    sizes: list
    seeds: list
    variants: list = field(default_factory=lambda: list(GRID_VARIANTS))
    learning_rates: dict = field(default_factory=lambda: dict(DEFAULT_VARIANT_LR))
    jobs: int = 1

    def __post_init__(self):
        for v in self.variants:
            if v not in GRID_VARIANTS:
                raise ValueError(f"unknown grid variant {v!r}")


def _cell_seed(base_seed: int, size: int, rep: int, variant: str) -> int:
    return zlib.crc32(f"{base_seed}/{size}/{rep}/{variant}".encode())


_GRID_CONTEXT: dict = {}


def _run_cell(args):
    size, rep, variant = args
    try:
        return _run_cell_inner(size, rep, variant)
    except (TrainingError, ValueError) as exc:
        logger.warning("skipping cell size=%d seed=%d variant=%s: %s",
                       size, rep, variant, exc)
        return None


def _run_cell_inner(size, rep, variant):
    ctx = _GRID_CONTEXT
    pool_ds = ctx["pool_ds"]
    train_cfg: TrainConfig = ctx["train_cfg"]
    grid: GridConfig = ctx["grid"]
    cell_cfg = replace(
        train_cfg,
        seed=_cell_seed(train_cfg.seed, size, rep, variant),
        learning_rate=grid.learning_rates.get(variant, train_cfg.learning_rate),
    )
    sub = dt.subsample_preserving_prevalence(pool_ds, size, seed=cell_cfg.seed)
    train_eps, val_eps = stratified_split(
        list(sub.episodes), 0.2, substream(cell_cfg.seed, "holdout"))
    cell_train = dt.Dataset.from_episodes(pool_ds.name, train_eps,
                                          sensors=pool_ds.sensors)
    if variant == "finetune_full":
        result = finetune(ctx["checkpoint"], cell_train, "finetune_full", cell_cfg,
                          val_episodes=val_eps, test_episodes=ctx["test_eps"])
        model_name, mode = "bat", "finetune_full"
    elif variant == "finetune_head":
        result = finetune(ctx["checkpoint"], cell_train, "finetune_head", cell_cfg,
                          val_episodes=val_eps, test_episodes=ctx["test_eps"])
        model_name, mode = "bat", "finetune_head"
    elif variant == "scratch_bat":
        result = finetune(None, cell_train, "scratch", cell_cfg,
                          model_cfg=ctx["model_cfg"], val_episodes=val_eps,
                          test_episodes=ctx["test_eps"], arch="bat")
        model_name, mode = "bat", "scratch"
    else:
        result = finetune(None, cell_train, "scratch", cell_cfg,
                          model_cfg=ctx["model_cfg"], val_episodes=val_eps,
                          test_episodes=ctx["test_eps"], arch="transformer")
        model_name, mode = "transformer", "scratch"
    return {
        "dataset": ctx["dataset_name"],
        "model": model_name,
        "mode": mode,
        "size": size,
        "seed": rep,
        "fold": 0,
        "auc_roc": result.metrics.auc_roc,
        "auc_pr": result.metrics.auc_pr,
    }


def run_experiment_grid(ds: dt.Dataset, checkpoint: dict | None,
                        model_cfg: BatConfig, train_cfg: TrainConfig,
                        grid: GridConfig) -> tuple[list, list]:
    """Subsample / train / evaluate every (size, seed, variant) cell.

    The 80/20 test split is fixed once from the full dataset; every cell
    evaluates on it. Infeasible or failed cells are skipped with a
    warning. Returns (per-run rows, aggregate rows).
    """
    needs_ckpt = {"finetune_full", "finetune_head"} & set(grid.variants)
    if needs_ckpt and checkpoint is None:
        raise ValueError(f"variants {sorted(needs_ckpt)} require a checkpoint")
    plan = dt.make_splits(ds, train_cfg.seed)
    test_eps = dt.select_episodes(ds, plan.test_ids)
    pool_eps = dt.select_episodes(ds, plan.pool_ids())
    pool_ds = dt.Dataset.from_episodes(ds.name, pool_eps, sensors=ds.sensors)

    cells = []
    for size in grid.sizes:
        if size > len(pool_ds):
            logger.warning("skipping size %d: training pool only has %d episodes",
                           size, len(pool_ds))
            continue
        for variant in grid.variants:
            for rep in grid.seeds:
                cells.append((size, rep, variant))

    global _GRID_CONTEXT
    _GRID_CONTEXT = {
        "pool_ds": pool_ds,
        "test_eps": test_eps,
        "checkpoint": checkpoint,
        "model_cfg": model_cfg,
        "train_cfg": train_cfg,
        "grid": grid,
        "dataset_name": ds.name,
    }
    try:
        if grid.jobs > 1:
            import multiprocessing as mp

            with mp.get_context("fork").Pool(grid.jobs) as pool:
                rows = [row for row in pool.map(_run_cell, cells) if row is not None]
        else:
            rows = [row for row in map(_run_cell, cells) if row is not None]
    finally:
        _GRID_CONTEXT = {}

    rows.sort(key=lambda r: (r["size"], r["model"], r["mode"], r["seed"]))
    return rows, aggregate_rows(rows)


def aggregate_rows(rows: list) -> list:
    """Mean and population sd per (size, model, mode), ranked by AUC-PR
    within each size (1 = best)."""
    keys = sorted({(r["size"], r["model"], r["mode"]) for r in rows})
    aggregates = []
    for size, model_name, mode in keys:
        cell = [r for r in rows
                if (r["size"], r["model"], r["mode"]) == (size, model_name, mode)]
        pr = np.array([r["auc_pr"] for r in cell])
        roc = np.array([r["auc_roc"] for r in cell])
        aggregates.append({
            "dataset": cell[0]["dataset"],
            "model": model_name,
            "mode": mode,
            "size": size,
            "n_seeds": len(cell),
            "mean_auc_pr": float(pr.mean()),
            "sd_auc_pr": float(pr.std()),
            "mean_auc_roc": float(roc.mean()),
            "sd_auc_roc": float(roc.std()),
        })
    for size in sorted({a["size"] for a in aggregates}):
        ranked = sorted([a for a in aggregates if a["size"] == size],
                        key=lambda a: -a["mean_auc_pr"])
        for rank, agg in enumerate(ranked, start=1):
            agg["rank_auc_pr"] = rank
    return aggregates
