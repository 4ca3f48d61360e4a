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

The entry points (`pretrain`, `finetune` and `predict_probs`) each run in
an `ad.compute_dtype(COMPUTE_DTYPE)` block: float32, the precision the
paper's models train in. Checkpoints store float64, which holds every
float32 value exactly.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import logging
import math
import operator
import os
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
    """How one grid variant trains: model class and fine-tuning mode."""
    arch: str
    mode: str


# The paper's comparison: a pretrained BAT fine-tuned in full or head-only,
# and two supervised baselines trained from scratch.
GRID_VARIANTS = {
    "finetune_full": Variant("bat", "finetune_full"),
    "finetune_head": Variant("bat", "finetune_head"),
    "scratch_bat": Variant("bat", "scratch"),
    "scratch_transformer": Variant("transformer", "scratch"),
}

class NonFiniteGradientError(RuntimeError):
    """A parameter gradient went NaN or infinite; the message names it."""


class TrainingError(RuntimeError):
    """A fine-tuning run could not proceed: an empty train or validation split."""


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
    return lr0 * gamma ** epoch


# ---------------------------------------------------------------------------
# the epoch loop


def _fit(model, items: list, train_cfg: TrainConfig, key: tuple, step,
         val_loss) -> RunResult:
    """The epoch loop shared by pretraining and fine-tuning.

    Each epoch shuffles `items` with the ("order", *key, epoch) substream
    and cuts them into batches. `step(batch, epoch, dropout_rng)` runs the
    training forward and returns the loss tensor; the loop backpropagates
    and steps its AdamW (over the parameters that require a gradient, at
    `train_cfg`'s rate and weight decay) at the epoch's decayed lr.
    `val_loss()` is taken after every epoch without a tape, and the
    returned parameters are those of the epoch with the lowest validation
    loss.

    The patience rule: an epoch improves only if its validation loss
    undercuts the lowest loss seen so far by strictly more than
    `min_delta`. The running minimum advances regardless, so a slow drip
    of sub-`min_delta` gains never resets the counter. Training stops
    once `patience` consecutive epochs fail to improve.
    """
    seed = train_cfg.seed
    optimizer = AdamW(model.params, train_cfg.learning_rate, train_cfg.weight_decay)
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
        losses = []
        for batch in _chunks([items[i] for i in order], train_cfg.batch_size):
            model.zero_grad()
            loss = step(batch, epoch, dropout_rng)
            backward(loss)
            optimizer.step(lr)
            losses.append(loss.item())
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


@ad.compute_dtype(COMPUTE_DTYPE)
def predict_probs(arch: str, cfg: BatConfig, params: dict, pp: dt.PreprocessorState,
                  episodes, batch_size: int) -> np.ndarray:
    """Mortality probabilities of raw stays, standardized with `pp`, from a
    model's saved parts as `load_checkpoint` returns them; the one place a
    model scores stays. The model copies `params` into `COMPUTE_DTYPE`."""
    model = ARCHS[arch].from_arrays(cfg, params)
    probs = []
    with ad.no_grad():
        for batch in _chunks(dt.transform_all(episodes, pp), batch_size):
            probs.append(model.classify(*_classification_arrays(batch)).data)
    return np.concatenate(probs)


# ---------------------------------------------------------------------------
# pretraining


def _forecast_loss_on_split(model, split, train=False, rng=None):
    pred = model.forecast(split.obs_values, split.obs_mask, split.obs_hours,
                          split.statics, train=train, rng=rng)
    return mt.masked_forecast_loss(pred, split.forecast_values, split.forecast_mask)


def _train_one_fold(train_eps, val_eps, model_cfg, train_cfg, sampler_cfg, fold):
    seed = train_cfg.seed
    model = BatModel.init(model_cfg, substream(seed, "init", fold))
    # one window per validation batch, drawn once: a loss comparable across epochs
    valwin_rng = substream(seed, "valwin", fold)
    val_windows = [sp.sample_window(batch, sampler_cfg, valwin_rng)
                   for batch in _chunks(val_eps, train_cfg.batch_size)]
    sampler_rng = functools.cache(lambda epoch: substream(seed, "sampler", fold, epoch))

    def step(batch, epoch, dropout_rng):
        split = sp.sample_window(batch, sampler_cfg, sampler_rng(epoch))
        return _forecast_loss_on_split(model, split, train=True, rng=dropout_rng)

    def val_loss():
        return float(np.mean([_forecast_loss_on_split(model, w).item()
                              for w in val_windows]))

    return _fit(model, train_eps, train_cfg, (fold,), step, val_loss)


@ad.compute_dtype(COMPUTE_DTYPE)
def pretrain(pooled: dt.Dataset, model_cfg: BatConfig, train_cfg: TrainConfig,
             sampler_cfg: sp.SamplerConfig, n_folds: int = 5) -> PretrainResult:
    """Five-fold self-supervised forecasting over a pooled, unlabeled corpus.

    Stays in which `sampler.valid_indices` finds no split index cannot
    anchor a window; they are dropped with one warning, so every batch can
    anchor, and the folds (`data.folds`, a ValueError below 10 stays) rotate
    over the rest less its `data.TEST_FRAC` cut, which no pretraining code
    reads. Each fold fits its own preprocessor on its training split. The
    fold with the lowest best validation masked loss is selected.
    """
    kept = [ep for ep in pooled.episodes
            if sp.valid_indices(ep.mask.any(axis=0), sampler_cfg).size]
    if len(kept) < len(pooled):
        logger.warning("dropping %d of %d stays that cannot anchor a forecasting window",
                       len(pooled) - len(kept), len(pooled))
        pooled = dt.Dataset.from_episodes(pooled.name, kept)
    fold_results = []
    for fold, (train_eps, val_eps) in enumerate(dt.folds(pooled, train_cfg.seed, n_folds)):
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


@ad.compute_dtype(COMPUTE_DTYPE)
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
    variant = {(v.arch, v.mode): name for name, v in GRID_VARIANTS.items()}.get((arch, mode))
    if variant is None:
        raise ValueError(f"no grid variant trains arch {arch!r} in mode {mode!r}")
    if mode == "scratch" and pretrained is not None:
        raise ValueError("scratch training does not take a pretrained checkpoint")
    check_variants([variant], pretrained, train_cfg)

    seed = train_cfg.seed
    train_eps = list(ds.episodes)
    if val_episodes is None:
        train_eps, val_episodes = dt.stratified_split(
            ds, dt.VAL_FRAC, substream(seed, "holdout"))
    if not train_eps or not val_episodes:
        raise TrainingError("empty train or validation split")

    if train_cfg.standardization == "inherit":
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

    labels_train = np.array([float(ep.label) for ep in train_t])
    pos_weight = mt.pos_weight_for(labels_train) if train_cfg.weighted_loss else 1.0

    def step(batch, epoch, dropout_rng):
        probs = model.classify(*_classification_arrays(batch),
                               train=True, rng=dropout_rng)
        return mt.weighted_bce(probs, [ep.label for ep in batch], pos_weight)

    result = _fit(model, train_t, train_cfg, (), step,
                  lambda: _eval_bce(model, val_t, train_cfg.batch_size, pos_weight))

    for name, before in frozen_before.items():
        if not np.array_equal(model.params[name].data, before):
            raise AssertionError(f"frozen parameter {name!r} changed during training")

    result.preprocessor = pp
    if test_episodes:
        probs = predict_probs(arch, model.cfg, result.params, pp, test_episodes,
                              train_cfg.batch_size)
        result.metrics = mt.evaluate_probs(probs, [ep.label for ep in test_episodes])
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


def load_checkpoint(path, kind: str | None = None) -> dict:
    """Read a save_checkpoint file into its params (float64), preprocessor,
    model_cfg, meta and arch (meta "arch"; "bat" if absent, as in pretrained
    checkpoints). The one check of a checkpoint file: a ValueError naming
    `path` unless it is a regular file of this format and version whose
    parameter names and shapes fit its arch at its config, and whose
    preprocessor has one mean and std per sensor and per static; given a
    `kind`, meta "kind" must be it, and a classifier must record its
    `split_seed`."""
    if not os.path.isfile(path):
        raise ValueError(f"checkpoint not found (no such file): {path}")
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
    for n in _PREPROC_ARRAYS:
        want = (model_cfg.sensors_count if n.startswith("tv_") else model_cfg.static_count,)
        if (got := getattr(pp, n).shape) != want:
            raise ValueError(f"{path}: preprocessor entry 'preproc/{n}' is {got} here, "
                             f"but {want} in a model of this config")
    params = {n[len("param/"):]: a for n, a in arrays.items() if n.startswith("param/")}
    arch = meta.get("arch", "bat")
    if arch not in ARCHS:
        raise ValueError(f"{path}: unknown model arch {arch!r}; expected one of {tuple(ARCHS)}")
    expected = ARCHS[arch]._init_arrays(model_cfg, np.random.default_rng(0))
    for name in sorted(expected.keys() | params.keys()):
        want, got = (a[name].shape if name in a else "absent" for a in (expected, params))
        if want != got:
            raise ValueError(f"{path}: parameter {name!r} is {got} here, but {want} "
                             f"in a {arch!r} model of this config")
    if kind is not None and (found := meta.get("kind")) != kind:
        raise ValueError(f"{path} is a {found!r} checkpoint; expected a {kind!r} one")
    if kind == "classifier" and "split_seed" not in meta:
        raise ValueError(f"{path} records no split_seed; save it again with finetune")
    return {"params": params, "preprocessor": pp, "model_cfg": model_cfg, "meta": meta,
            "arch": arch}


# ---------------------------------------------------------------------------
# the experiment grid


@dataclass
class GridConfig:
    """The [grid] config section, with one `lr_<name>` per GRID_VARIANTS row."""
    sizes: list[int] = field(default_factory=lambda: [100, 500, 1000])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    variants: list[str] = field(default_factory=lambda: list(GRID_VARIANTS))
    lr_finetune_full: float = 3e-4
    lr_finetune_head: float = 1e-2
    lr_scratch_bat: float = 1.5e-3
    lr_scratch_transformer: float = 1.5e-3
    jobs: int = 1
    save_model: str = ""

    def __post_init__(self):
        for name in ("sizes", "seeds", "variants"):
            entries = getattr(self, name)
            if not entries:
                raise ValueError(f"{name} must not be empty")
            if len(set(entries)) < len(entries):
                raise ValueError(f"{name} repeats an entry: {entries}")
        if min(self.sizes) < 3:   # a size-2 subsample's lone stay per class trains
            raise ValueError(f"every size must be >= 3, got {min(self.sizes)}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        for v in self.trained:
            if v not in GRID_VARIANTS:
                raise ValueError(f"unknown grid variant {v!r}; the variants are "
                                 f"{tuple(GRID_VARIANTS)}")
        for v in GRID_VARIANTS:
            lr = getattr(self, f"lr_{v}")
            if not lr > 0:
                raise ValueError(f"learning rate of grid variant {v!r} must be > 0, got {lr}")

    @property
    def trained(self) -> list[str]:
        """Every variant the grid trains: its cells' and the saved model's."""
        return [*self.variants, self.save_model] if self.save_model else self.variants


def check_variants(variants, checkpoint: dict | None, train_cfg: TrainConfig) -> None:
    """Raise ValueError naming the variants that cannot run: those that
    fine-tune, without a checkpoint; those that train from scratch, under
    standardization='inherit', which takes a checkpoint's statistics."""
    scratch = sorted({v for v in variants if GRID_VARIANTS[v].mode == "scratch"})
    tuned = sorted(set(variants) - set(scratch))
    if tuned and checkpoint is None:
        raise ValueError(f"variants {tuned} require a checkpoint")
    if scratch and train_cfg.standardization == "inherit":
        raise ValueError(f"standardization='inherit' requires a checkpoint, and variants "
                         f"{scratch} train from scratch; run them with 'refit'")


def train_variant(variant: str, checkpoint: dict | None, ds: dt.Dataset,
                  train_cfg: TrainConfig, model_cfg: BatConfig, grid: GridConfig,
                  test_episodes: list | None = None) -> RunResult:
    """`finetune` one grid variant at the grid's learning rate for it; the
    checkpoint is used only by the variants that fine-tune it."""
    v = GRID_VARIANTS[variant]
    cfg = replace(train_cfg, learning_rate=getattr(grid, f"lr_{variant}"))
    return finetune(checkpoint if v.mode != "scratch" else None, ds, v.mode, cfg,
                    model_cfg=model_cfg, test_episodes=test_episodes, arch=v.arch)


def _cell_seed(base_seed: int, size: int, rep: int) -> int:
    return zlib.crc32(f"{base_seed}/{size}/{rep}".encode())


# A cell that raises one of these is infeasible for its size and seed and
# is skipped; any other exception is a bug and fails the grid.
_INFEASIBLE_CELL = (TrainingError, dt.SubsampleError, mt.UndefinedMetricError)


def _run_cell(size, rep, variant, pool_ds, test_eps, checkpoint, model_cfg, train_cfg,
              grid):
    """The runs.csv row of one grid cell, or None if the cell is infeasible."""
    cell_cfg = replace(train_cfg, seed=_cell_seed(train_cfg.seed, size, rep))
    try:
        sub = dt.subsample_preserving_prevalence(pool_ds, size, seed=cell_cfg.seed)
        result = train_variant(variant, checkpoint, sub, cell_cfg, model_cfg, grid,
                               test_episodes=test_eps)
    except _INFEASIBLE_CELL as exc:
        logger.warning("skipping cell size=%d seed=%d variant=%s: %s",
                       size, rep, variant, exc)
        return None
    v = GRID_VARIANTS[variant]
    return {"dataset": pool_ds.name, "model": v.arch, "mode": v.mode, "size": size,
            "seed": rep, "fold": 0, "auc_roc": result.metrics.auc_roc,
            "auc_pr": result.metrics.auc_pr}


def _blas_thread_setter():
    """numpy's OpenBLAS thread-count setter, a ctypes function, or None.

    numpy's wheels bundle OpenBLAS as `scipy_openblas_set_num_threads64_`;
    other builds export `openblas_set_num_threads`. A symbol looked up in
    a numpy extension is also searched for in the libraries it links.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
        if hasattr(lib, name):
            setter = getattr(lib, name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return setter
    return None


_worker_task = None   # (fn, items), set in a forked worker by _start_worker


def _start_worker(set_threads, fn, items):
    global _worker_task
    _worker_task = fn, items
    if set_threads is not None:
        set_threads(1)


def _call_in_worker(index):
    fn, items = _worker_task
    return fn(items[index])


def _parallel_map(fn, items: list, jobs: int) -> list:
    """`map(fn, items)` in order, over `jobs` forked workers when jobs > 1.

    Each worker gets `fn` and `items` from the pool's initializer, which a
    fork hands over unpickled, so `fn` may be a closure; only indices and
    results are pickled, and the parent sets no module state. A forked
    worker inherits the parent's BLAS threads, so `jobs` workers would run
    that many threads each on the same cores; each runs one instead.
    """
    if jobs == 1:
        return list(map(fn, items))
    import multiprocessing as mp

    set_threads = _blas_thread_setter()
    if set_threads is None:
        logger.warning("no OpenBLAS thread setter found: each of the %d workers "
                       "keeps the default BLAS threads", jobs)
    with mp.get_context("fork").Pool(jobs, _start_worker, (set_threads, fn, items)) as pool:
        return pool.map(_call_in_worker, range(len(items)))


def check_test_split(name: str, test_eps: list) -> None:
    """UndefinedMetricError unless the test split of cohort `name` holds both classes."""
    labels = [ep.label for ep in test_eps]
    if 0 not in labels or 1 not in labels:
        raise mt.UndefinedMetricError(
            f"the test split of cohort {name!r} lacks a class: "
            f"{labels.count(1)} positive, {labels.count(0)} negative")


def run_experiment_grid(pool_ds: dt.Dataset, test_eps: list, checkpoint: dict | None,
                        model_cfg: BatConfig, train_cfg: TrainConfig,
                        grid: GridConfig) -> tuple[list, list, RunResult | None]:
    """Subsample / train / evaluate every (size, seed, variant) cell.

    Cells subsample `pool_ds` and evaluate on `test_eps`, a cohort's
    `data.split_test` cut. Cells are paired: the cell seed depends on the
    size and seed alone, so every variant at one (size, seed) trains on
    the same subsample, holdout, batch order and dropout streams, and the
    variants differ only in their `Variant` row and rate. Infeasible
    cells (TrainingError, SubsampleError or UndefinedMetricError) are
    skipped with a warning; any other error propagates. Cells run on
    `grid.jobs` workers. Returns (per-run rows, aggregate rows, saved model):
    one run of `grid.save_model` at `train_cfg`'s seed on the training pool
    the cells are cut from, or None. Before any cell trains, `check_variants`
    must pass for every variant the grid trains, and so must `check_test_split`.
    """
    check_variants(grid.trained, checkpoint, train_cfg)
    check_test_split(pool_ds.name, test_eps)
    for size in grid.sizes:
        if size > len(pool_ds):
            logger.warning("skipping size %d: training pool only has %d episodes",
                           size, len(pool_ds))
    cells = [(size, rep, variant) for size in grid.sizes if size <= len(pool_ds)
             for variant in grid.variants for rep in grid.seeds]

    def run_cell(cell):
        return _run_cell(*cell, pool_ds, test_eps, checkpoint, model_cfg, train_cfg, grid)

    rows = [row for row in _parallel_map(run_cell, cells, grid.jobs) if row is not None]
    rows.sort(key=lambda r: (r["size"], r["model"], r["mode"], r["seed"]))
    saved = (train_variant(grid.save_model, checkpoint, pool_ds, train_cfg, model_cfg, grid)
             if grid.save_model else None)
    return rows, aggregate_rows(rows), saved


def aggregate_rows(rows: list) -> list:
    """Mean and population sd per (size, model, mode), ranked by AUC-PR
    within each size (1 = best)."""
    key = operator.itemgetter("size", "model", "mode")
    aggregates = []
    for (size, model_name, mode), group in itertools.groupby(sorted(rows, key=key), key):
        cell = list(group)
        pr = np.array([r["auc_pr"] for r in cell])
        roc = np.array([r["auc_roc"] for r in cell])
        aggregates.append({
            "dataset": cell[0]["dataset"], "model": model_name, "mode": mode, "size": size,
            "n_seeds": len(cell),
            "mean_auc_pr": float(pr.mean()), "sd_auc_pr": float(pr.std()),
            "mean_auc_roc": float(roc.mean()), "sd_auc_roc": float(roc.std())})
    for _, group in itertools.groupby(aggregates, lambda a: a["size"]):
        for rank, agg in enumerate(sorted(group, key=lambda a: -a["mean_auc_pr"]), start=1):
            agg["rank_auc_pr"] = rank
    return aggregates
