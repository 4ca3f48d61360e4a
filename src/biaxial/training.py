"""Optimization loop, schedules, early stopping, pretraining and fine-tuning.

Pretraining runs five-fold cross-validation over the pooled corpus and
keeps the fold model with the lowest validation masked loss. Fine-tuning
supports full-model updates, head-only updates with a frozen trunk, and
from-scratch baselines (bi-axial or mean-imputed temporal transformer).
A parameter trains if and only if its `requires_grad` is set; head-only
fine-tuning clears it outside the classifier head. All randomness is
derived from the run seed through named substreams, and a grid cell's
seed depends on its size and seed alone, so every variant of one cell
trains on the same data.

The entry points (`pretrain`, `finetune` and `predict_probs`) compute in
float32, the precision the paper's models train in; the models they build
or load take that dtype, and checkpoints store float64, which holds every
float32 value exactly.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from biaxial import autodiff as ad
from biaxial import data as dt
from biaxial import metrics as mt
from biaxial import sampler as sp
from biaxial.autodiff import Tensor, backward
from biaxial.model import ARCHS, BatConfig, BatModel
from biaxial.rng import substream

logger = logging.getLogger(__name__)

# dtype of every forward, backward and optimizer step run by an entry point
COMPUTE_DTYPE = np.float32


@dataclass(frozen=True)
class Variant:
    """How one grid variant trains: model class, fine-tuning mode, default lr."""
    arch: str
    mode: str
    lr: float


# The paper's comparison: a pretrained BAT fine-tuned in full or head-only,
# and two supervised baselines trained from scratch.
GRID_VARIANTS = {
    "finetune_full": Variant("bat", "finetune_full", 3e-4),
    "finetune_head": Variant("bat", "finetune_head", 1e-2),
    "scratch_bat": Variant("bat", "scratch", 1.5e-3),
    "scratch_transformer": Variant("transformer", "scratch", 1.5e-3),
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
        for name in ("batch_size", "epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        for name in ("min_delta", "weight_decay"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
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

    @property
    def selected(self) -> RunResult:
        return self.fold_results[self.selected_fold]


def _in_compute_dtype(fn):
    """Run `fn` with `COMPUTE_DTYPE` as the autodiff compute dtype."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with ad.compute_dtype(COMPUTE_DTYPE):
            return fn(*args, **kwargs)
    return wrapper


# ---------------------------------------------------------------------------
# optimizer and schedules


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Only the parameters that require a gradient when it is built are
    updated; the others are never touched, bitwise. The moments take each
    parameter's dtype.
    """

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = {n: np.zeros_like(p.data) for n, p in params.items() if p.requires_grad}
        self.v = {n: np.zeros_like(a) for n, a in self.m.items()}
        self.t = 0

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        b1, b2 = self.BETAS
        self.t += 1
        for name in sorted(self.m):
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


# ---------------------------------------------------------------------------
# the epoch loop


def _fit(model, optimizer: AdamW, items: list, train_cfg: TrainConfig, key: tuple,
         step, val_loss) -> RunResult:
    """The epoch loop shared by pretraining and fine-tuning.

    Each epoch shuffles `items` with the ("order", *key, epoch) substream
    and cuts them into batches. `step(batch, epoch, dropout_rng)` runs the
    training forward and returns the loss tensor, or None for a batch it
    skipped; the loop backpropagates and steps the optimizer at the
    epoch's decayed lr. An epoch that skips over half its batches raises
    TrainingError. `val_loss()` is taken after every epoch without a tape,
    and the returned parameters are those of the epoch with the lowest
    validation loss.

    The patience rule: an epoch improves only if its validation loss
    undercuts the lowest loss seen so far by strictly more than
    `min_delta`. The running minimum advances regardless, so a slow drip
    of sub-`min_delta` gains never resets the counter. Training stops
    once `patience` consecutive epochs fail to improve.
    """
    seed = train_cfg.seed
    wait = 0
    best_val = np.inf
    best_epoch = -1
    best_params = model.state_arrays()
    train_curve, val_curve, lr_curve = [], [], []
    stop_reason = "max_epochs"
    for epoch in range(train_cfg.epochs):
        lr = lr_at_epoch(train_cfg.learning_rate, train_cfg.lr_gamma, epoch)
        order = substream(seed, "order", *key, epoch).permutation(len(items))
        dropout_rng = substream(seed, "dropout", *key, epoch)
        batches = list(_chunks([items[i] for i in order], train_cfg.batch_size))
        losses = []
        for batch in batches:
            model.zero_grad()
            loss = step(batch, epoch, dropout_rng)
            if loss is None:
                continue
            backward(loss)
            optimizer.step(lr)
            losses.append(loss.item())
        skipped = len(batches) - len(losses)
        if skipped > 0.5 * len(batches):
            raise TrainingError(
                f"epoch {epoch}: over half the batches "
                f"({skipped}/{len(batches)}) had no valid window")
        with ad.no_grad():
            val = val_loss()
        train_curve.append(float(np.mean(losses)) if losses else np.nan)
        val_curve.append(val)
        lr_curve.append(lr)
        wait = 0 if val < best_val - train_cfg.min_delta else wait + 1
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best_params = model.state_arrays()
        if wait >= train_cfg.patience:
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


# ---------------------------------------------------------------------------
# batching helpers


def _chunks(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def _classification_arrays(episodes):
    """A batch's model inputs; no labels, so unlabeled stays can be scored."""
    values, mask, statics = sp.collate(episodes)
    hours = np.arange(values.shape[2], dtype=np.float64)
    return values, mask, hours, statics


def _eval_bce(model, episodes, batch_size, pos_weight):
    total = 0.0
    for batch in _chunks(episodes, batch_size):
        probs = model.classify(*_classification_arrays(batch))
        labels = [ep.label for ep in batch]
        total += mt.weighted_bce(probs, labels, pos_weight).item() * len(batch)
    return total / len(episodes)


@_in_compute_dtype
def predict_probs(model, episodes, batch_size=64) -> np.ndarray:
    """Mortality probabilities, computed in `COMPUTE_DTYPE` by a copy of
    `model` whose parameters take that dtype."""
    model = type(model).from_arrays(model.cfg, model.state_arrays())
    probs = []
    with ad.no_grad():
        for batch in _chunks(episodes, batch_size):
            probs.append(model.classify(*_classification_arrays(batch)).data)
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
    sampler_rng = functools.cache(lambda epoch: substream(seed, "sampler", fold, epoch))

    def step(batch, epoch, dropout_rng):
        try:
            split = sp.sample_window(batch, sampler_cfg, sampler_rng(epoch))
        except sp.SamplerExhaustedError:
            logger.warning("fold %d epoch %d: skipping batch with no valid window",
                           fold, epoch)
            return None
        return _forecast_loss_on_split(model, split, train=True, rng=dropout_rng)

    def val_loss():
        return float(np.mean([_forecast_loss_on_split(model, w).item()
                              for w in val_windows]))

    return _fit(model, optimizer, train_eps, train_cfg, (fold,), step, val_loss)


@_in_compute_dtype
def pretrain(pooled: dt.Dataset, model_cfg: BatConfig, train_cfg: TrainConfig,
             sampler_cfg: sp.SamplerConfig, n_folds: int = 5) -> PretrainResult:
    """Five-fold self-supervised forecasting over a pooled, unlabeled corpus.

    Each fold fits its own preprocessor on its training split. The fold
    with the lowest best validation masked loss is selected.
    """
    plan = dt.make_splits(pooled, train_cfg.seed, n_folds=n_folds)
    fold_results = []
    for fold, (train_ids, val_ids) in enumerate(plan.folds):
        train_eps = dt.select_episodes(pooled, train_ids)
        val_eps = dt.select_episodes(pooled, val_ids)
        pp = dt.fit_preprocessor(train_eps, fitted_on=f"{pooled.name}/fold{fold}")
        result = _train_one_fold(
            dt.transform_all(train_eps, pp), dt.transform_all(val_eps, pp),
            model_cfg, train_cfg, sampler_cfg, fold)
        logger.info("pretrain fold %d: best val masked loss %.6f at epoch %d (%s)",
                    fold, result.best_val, result.best_epoch, result.stop_reason)
        result.preprocessor = pp
        fold_results.append(result)
    selected = int(np.argmin([r.best_val for r in fold_results]))
    logger.info("selected fold %d with lowest validation masked loss %.6f",
                selected, fold_results[selected].best_val)
    return PretrainResult(fold_results=fold_results, selected_fold=selected)


# ---------------------------------------------------------------------------
# fine-tuning


@_in_compute_dtype
def finetune(pretrained: dict | None, ds: dt.Dataset, mode: str,
             train_cfg: TrainConfig, model_cfg: BatConfig | None = None,
             val_episodes: list | None = None, test_episodes: list | None = None,
             arch: str = "bat") -> RunResult:
    """Supervised mortality training with early stopping on validation loss.

    `pretrained` is a checkpoint bundle (see save_checkpoint) for the
    finetune modes and must be None for scratch. Episodes in `ds` are the
    raw (excluded, unstandardized) training set; without `val_episodes`,
    `dt.stratified_split` holds out dt.VAL_FRAC of it for validation (the
    "holdout" substream). Test metrics need `test_episodes`.
    """
    if (arch, mode) not in {(v.arch, v.mode) for v in GRID_VARIANTS.values()}:
        raise ValueError(f"no grid variant trains arch {arch!r} in mode {mode!r}")
    if mode == "scratch" and pretrained is not None:
        raise ValueError("scratch training does not take a pretrained checkpoint")
    if mode != "scratch" and pretrained is None:
        raise ValueError(f"mode {mode!r} requires a pretrained checkpoint")

    seed = train_cfg.seed
    train_eps = list(ds.episodes)
    if val_episodes is None:
        train_eps, val_episodes = dt.stratified_split(
            ds, dt.VAL_FRAC, substream(seed, "holdout"))
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
        model = ARCHS[arch].from_arrays(pretrained["model_cfg"], pretrained["params"])
    else:
        if model_cfg is None:
            raise ValueError("scratch training requires a model config")
        model = ARCHS[arch].init(model_cfg, substream(seed, "init", arch))

    if mode == "finetune_head":             # the trunk records no tape, gets no gradient
        for name, p in model.params.items():
            p.requires_grad = name.startswith("head_cls/")
    frozen_before = {n: p.data.copy() for n, p in model.params.items()
                     if not p.requires_grad}
    optimizer = AdamW(model.params, train_cfg.learning_rate, train_cfg.weight_decay)

    labels_train = np.array([float(ep.label) for ep in train_t])
    pos_weight = (mt.pos_weight_for(labels_train)
                  if train_cfg.weighted_loss and labels_train.sum() > 0 else 1.0)

    def step(batch, epoch, dropout_rng):
        probs = model.classify(*_classification_arrays(batch),
                               train=True, rng=dropout_rng)
        return mt.weighted_bce(probs, [ep.label for ep in batch], pos_weight)

    result = _fit(model, optimizer, train_t, train_cfg, (), step,
                  lambda: _eval_bce(model, val_t, train_cfg.batch_size, pos_weight))

    for name, before in frozen_before.items():
        if not np.array_equal(model.params[name].data, before):
            raise AssertionError(f"frozen parameter {name!r} changed during training")

    result.preprocessor = pp
    if test_episodes:
        best_model = type(model).from_arrays(model.cfg, result.params)
        test_t = dt.transform_all(test_episodes, pp)
        probs = predict_probs(best_model, test_t, train_cfg.batch_size)
        result.metrics = mt.evaluate_probs(
            probs, [ep.label for ep in test_episodes])
    return result


# ---------------------------------------------------------------------------
# checkpoints
#
# A .bax file is the magic, a little-endian uint64 header length, a compact
# sorted-key JSON header, then the float64 little-endian buffers back to
# back. The header lists the entries in name order: the parameters under
# "param/" and the preprocessor's statistics under "preproc/". It holds no
# timestamps, so identical contents give identical bytes.

_CKPT_MAGIC = b"BAXPARMS"
_CKPT_VERSION = 1
_PREPROC_ARRAYS = tuple(f.name for f in fields(dt.PreprocessorState)
                        if f.name != "fitted_on")


def save_checkpoint(path, params: dict, pp: dt.PreprocessorState,
                    model_cfg: BatConfig, meta: dict | None = None) -> None:
    """Write parameters, preprocessor and model config (plus any JSON-able
    `meta`) to one .bax file."""
    arrays = {f"param/{n}": a for n, a in params.items()}
    arrays.update({f"preproc/{n}": getattr(pp, n) for n in _PREPROC_ARRAYS})
    entries, buffers, offset = [], [], 0
    for name in sorted(arrays):
        buf = np.asarray(arrays[name], dtype="<f8")
        entries.append({"name": name, "shape": list(buf.shape),
                        "offset": offset, "nbytes": buf.nbytes})
        buffers.append(buf.tobytes())
        offset += buf.nbytes
    meta = {"model_cfg": asdict(model_cfg), "fitted_on": pp.fitted_on, **(meta or {})}
    header = json.dumps({"format_version": _CKPT_VERSION, "entries": entries, "meta": meta},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"".join([_CKPT_MAGIC, struct.pack("<Q", len(header)), header, *buffers]))


def load_checkpoint(path) -> dict:
    """Read a save_checkpoint file into its params (float64), preprocessor,
    model_cfg and meta; a damaged file raises ValueError naming `path`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_CKPT_MAGIC):
        raise ValueError(f"{path}: not a parameter checkpoint (bad magic)")
    start = len(_CKPT_MAGIC) + 8
    try:
        (hlen,) = struct.unpack_from("<Q", blob, len(_CKPT_MAGIC))
        header = json.loads(blob[start:start + hlen])
        version = header["format_version"]
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: damaged checkpoint header ({exc!r})") from None
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    try:
        arrays = {e["name"]: np.frombuffer(
            blob, "<f8", math.prod(e["shape"]), start + hlen + e["offset"]
        ).reshape(e["shape"]).astype(np.float64) for e in header["entries"]}
        meta = header["meta"]
        pp = dt.PreprocessorState(**{n: arrays[f"preproc/{n}"] for n in _PREPROC_ARRAYS},
                                  fitted_on=meta.get("fitted_on", ""))
        model_cfg = BatConfig(**meta["model_cfg"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: damaged checkpoint ({exc!r})") from None
    params = {n[len("param/"):]: a for n, a in arrays.items() if n.startswith("param/")}
    arch = meta.get("arch", "bat")          # pretrained checkpoints are BAT
    if arch not in ARCHS:
        raise ValueError(f"{path}: unknown model arch {arch!r}; expected one of {tuple(ARCHS)}")
    expected = ARCHS[arch]._init_arrays(model_cfg, np.random.default_rng(0))
    for name in sorted(expected.keys() | params.keys()):
        want, got = (a[name].shape if name in a else "absent" for a in (expected, params))
        if want != got:
            raise ValueError(f"{path}: parameter {name!r} is {got} here, but {want} "
                             f"in a {arch!r} model of this config")
    return {"params": params, "preprocessor": pp, "model_cfg": model_cfg, "meta": meta}


# ---------------------------------------------------------------------------
# the experiment grid


@dataclass
class GridConfig:
    sizes: list
    seeds: list
    variants: list = field(default_factory=lambda: list(GRID_VARIANTS))
    learning_rates: dict = field(
        default_factory=lambda: {name: v.lr for name, v in GRID_VARIANTS.items()})
    jobs: int = 1

    def __post_init__(self):
        for name in ("sizes", "seeds", "variants"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if min(self.sizes) < 2:
            raise ValueError(f"every size must be >= 2, got {min(self.sizes)}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        for v in self.variants:
            if v not in GRID_VARIANTS:
                raise ValueError(f"unknown grid variant {v!r}")
            if v not in self.learning_rates:
                raise ValueError(f"no learning rate for grid variant {v!r}")
        for v, lr in self.learning_rates.items():
            if not lr > 0:
                raise ValueError(f"learning rate of grid variant {v!r} must be > 0, got {lr}")


def pretrained_variants(variants) -> list:
    """The given variants that need a pretrained checkpoint, sorted."""
    return sorted({v for v in variants if GRID_VARIANTS[v].mode != "scratch"})


def train_variant(variant: str, checkpoint: dict | None, ds: dt.Dataset,
                  train_cfg: TrainConfig, model_cfg: BatConfig, grid: GridConfig,
                  test_episodes: list | None = None) -> RunResult:
    """`finetune` one grid variant at the grid's learning rate for it; the
    checkpoint is used only by the variants that fine-tune it."""
    v = GRID_VARIANTS[variant]
    cfg = replace(train_cfg, learning_rate=grid.learning_rates[variant])
    return finetune(checkpoint if v.mode != "scratch" else None, ds, v.mode, cfg,
                    model_cfg=model_cfg, test_episodes=test_episodes, arch=v.arch)


def _cell_seed(base_seed: int, size: int, rep: int) -> int:
    return zlib.crc32(f"{base_seed}/{size}/{rep}".encode())


_GRID_CONTEXT: dict = {}


# A cell that raises one of these is infeasible for its size and seed and
# is skipped; any other exception is a bug and fails the grid.
_INFEASIBLE_CELL = (TrainingError, dt.SubsampleError, mt.UndefinedMetricError)


def _run_cell(args):
    size, rep, variant = args
    ctx = _GRID_CONTEXT
    cell_cfg = replace(ctx["train_cfg"], seed=_cell_seed(ctx["train_cfg"].seed, size, rep))
    try:
        sub = dt.subsample_preserving_prevalence(ctx["pool_ds"], size, seed=cell_cfg.seed)
        result = train_variant(variant, ctx["checkpoint"], sub, cell_cfg,
                               ctx["model_cfg"], ctx["grid"], test_episodes=ctx["test_eps"])
    except _INFEASIBLE_CELL as exc:
        logger.warning("skipping cell size=%d seed=%d variant=%s: %s",
                       size, rep, variant, exc)
        return None
    return {
        "dataset": ctx["pool_ds"].name,
        "model": GRID_VARIANTS[variant].arch,
        "mode": GRID_VARIANTS[variant].mode,
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
    evaluates on it. Cells are paired: the cell seed depends on the size
    and seed alone, so every variant at one (size, seed) trains on the
    same subsample, holdout, batch order and dropout streams, and the
    variants differ only in their `Variant` row. Infeasible cells
    (TrainingError, SubsampleError or UndefinedMetricError) are skipped
    with a warning; any other error propagates. Returns (per-run rows,
    aggregate rows).
    """
    needs_ckpt = pretrained_variants(grid.variants)
    if needs_ckpt and checkpoint is None:
        raise ValueError(f"variants {needs_ckpt} require a checkpoint")
    pool_ds, test_eps = dt.split_test(ds, train_cfg.seed)

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
