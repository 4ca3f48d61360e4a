"""The benchmark's three workloads.

Each workload is a sequence of *units* of work, each a single call into
the public `biaxial` API with inputs derived from the workload seed and the
unit index:

- `finetune_ref`: one `training.finetune` from scratch at the paper's
  reference shape (D=48, E=128, 2 layers, T=24, dropout 0.364/0.207,
  weighted BCE), which trains one epoch, takes the validation BCE and
  calls `predict_probs` on a test split. Batch size is 8: at 64 the
  process does not fit in 7 GB.
- `pretrain_long`: one `training.pretrain` (five-fold forecasting) on a
  cohort of week-long stays. The sampler draws windows of 48 to 96 hours
  (its minimum observation length is raised from 12 to 48 h, so that the
  mix of window lengths, and with it the work, is steady from seed to
  seed), and time attention (cost ~T^2) weighs more than at T=24.
- `cli_pipeline`: `generate` (two cohorts), `pretrain`, `finetune` (a
  4 variants x 2 sizes x 2 seeds grid plus a saved model) and `evaluate`,
  run in-process through `cli.main` with tiny tensors, so per-op Python
  overhead, CSV I/O, preprocessing and checkpoint I/O dominate.

`setup(rep)` is one set-up repetition: build the unit-0 inputs and run one
warm-up training step at the workload's shape, so the slow first steps
(fresh buffers faulting in) are charged to set-up, not to step timing.
The CLI pipeline builds its cohorts with its own `generate` command, so
its set-up only prepares the work directory; its tensors are too small
to need a warm-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from biaxial import autodiff as ad
from biaxial import cli
from biaxial import data as dt
from biaxial import metrics as mt
from biaxial import sampler as sp
from biaxial import training as tr
from biaxial.model import BatConfig, BatModel
from biaxial.rng import substream

# Reference fine-tuning shape (the paper's, batch size reduced to fit).
REF_MODEL = dict(sensors_count=48, value_embed_size=128, layers=2, heads=1,
                 dropout=0.364, attn_dropout=0.207)
REF_BATCH = 8
REF_LR = 1.5e-3           # the grid's rate for a from-scratch BAT
REF_COHORT = 160
# (positives, negatives) per split: 3 training steps, 1 validation and 1 test batch
REF_SPLITS = {"train": (3, 21), "val": (1, 7), "test": (2, 6)}

# Long-stay forecasting pretraining.
LONG_MODEL = dict(sensors_count=48, value_embed_size=32, layers=2, heads=1,
                  dropout=0.364, attn_dropout=0.207)
LONG_BATCH = 4
LONG_COHORT = 20
LONG_STAY_HOURS = 160.0
LONG_MAX_OBS = 96
LONG_MIN_OBS = 48
# Stays are drawn from LONG_DRAWN generated ones: the longest LONG_LONGEST
# (about a week and more), at evenly spaced ranks. Every seed then trains on
# the same spread of stay lengths, so the work per seed varies little,
# while the sampler still draws windows of LONG_MIN_OBS to LONG_MAX_OBS hours.
LONG_DRAWN = 150
LONG_LONGEST = 60

# CLI pipeline: tiny tensors, every command.
CLI_SENSORS = 12
# (name, n, prevalence, sparsity) per generated cohort
CLI_COHORTS = (("cohortA", 300, 0.2, 0.5), ("cohortB", 150, 0.2, 0.65))
CLI_MODEL = ["model.value_embed_size=16", "model.layers=1"]
CLI_PRETRAIN = ["train.epochs=1", "train.batch_size=64", "sampler.max_obs=24"]
CLI_GRID_SIZES = (30, 60)
CLI_GRID_SEEDS = (0, 1)
CLI_GRID_VARIANTS = ("finetune_full", "finetune_head", "scratch_bat", "scratch_transformer")
CLI_FINETUNE = ["train.epochs=1", "train.batch_size=32", "grid.save_model=finetune_full"]


@dataclass
class Outcome:
    """What one unit produced, and what was wrong with it."""
    fingerprint: str          # digest of losses and final parameters / artifacts
    val_loss: float
    auc_roc: float = math.nan
    auc_pr: float = math.nan
    requested: int = 0        # results asked for (grid cells)
    missing: int = 0          # requested results that were not produced
    problems: list = field(default_factory=list)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _params_digest(params: dict) -> str:
    return _digest(*[x for name in sorted(params) for x in (name, params[name])])


def _check_finite(problems, what, values):
    if not np.all(np.isfinite(values)):
        problems.append(f"{what} not finite: {values}")


def _check_auc(problems, what, value):
    if not 0.0 <= value <= 1.0:
        problems.append(f"{what} outside [0, 1]: {value}")


def _warm_step(model, loss_fn, seed):
    """One forward/backward/optimizer step, as the training loops do it."""
    opt = tr.AdamW(model.params, 1e-3)
    model.zero_grad()
    loss = loss_fn(substream(seed, "warmup"))
    ad.backward(loss)
    opt.step()


class Workload:
    name = ""
    min_units = 2
    warmup_steps = 1          # per set-up repetition

    def __init__(self, seed: int, workdir: str, probe):
        self.seed = seed
        self.workdir = workdir
        self.probe = probe

    def unit_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def inputs(self, i: int):
        raise NotImplementedError

    def run(self, inputs) -> Outcome:
        raise NotImplementedError


class FinetuneRef(Workload):
    name = "finetune_ref"

    def inputs(self, i):
        seed = self.unit_seed(i)
        ds = dt.apply_exclusions(
            dt.generate_synthetic(n=REF_COHORT, prevalence=0.119, seed=seed,
                                  n_sensors=REF_MODEL["sensors_count"]),
            "mortality")
        order = substream(seed, "bench-splits").permutation(len(ds))
        pos = [ds.episodes[j] for j in order if ds.episodes[j].label == 1]
        neg = [ds.episodes[j] for j in order if ds.episodes[j].label == 0]
        splits = {}
        for name, (n_pos, n_neg) in REF_SPLITS.items():
            splits[name] = pos[:n_pos] + neg[:n_neg]
            pos, neg = pos[n_pos:], neg[n_neg:]
        return seed, splits

    def setup(self, rep):
        seed, splits = self.inputs(0)
        model = BatModel.init(BatConfig(**REF_MODEL), substream(seed, "warmup-init", rep))
        pp = dt.fit_preprocessor(splits["train"])
        batch = dt.transform_all(splits["train"][:REF_BATCH], pp)
        values, mask, statics = sp.collate(batch)
        hours = np.arange(values.shape[2], dtype=np.float64)
        labels = np.array([float(ep.label) for ep in batch])
        _warm_step(model, lambda rng: mt.weighted_bce(
            model.classify(values, mask, hours, statics, train=True, rng=rng), labels),
            seed)

    def run(self, inputs):
        seed, splits = inputs
        cfg = tr.TrainConfig(batch_size=REF_BATCH, epochs=1, patience=10,
                             learning_rate=REF_LR, seed=seed)
        train_ds = dt.Dataset.from_episodes("reference", splits["train"])
        result = tr.finetune(None, train_ds, "scratch", cfg, model_cfg=BatConfig(**REF_MODEL),
                             val_episodes=splits["val"], test_episodes=splits["test"],
                             arch="bat")
        out = Outcome(
            fingerprint=_digest(result.train_curve, result.val_curve,
                                result.metrics.auc_roc, result.metrics.auc_pr,
                                _params_digest(result.params)),
            val_loss=result.best_val,
            auc_roc=result.metrics.auc_roc,
            auc_pr=result.metrics.auc_pr,
        )
        _check_finite(out.problems, "losses", result.train_curve + result.val_curve)
        _check_auc(out.problems, "auc_roc", out.auc_roc)
        _check_auc(out.problems, "auc_pr", out.auc_pr)
        return out


class PretrainLong(Workload):
    name = "pretrain_long"

    def _sampler_cfg(self):
        return sp.SamplerConfig(min_obs_len=LONG_MIN_OBS, max_obs=LONG_MAX_OBS)

    def inputs(self, i):
        seed = self.unit_seed(i)
        drawn = dt.apply_exclusions(
            dt.generate_synthetic(n=LONG_DRAWN, prevalence=0.12,
                                  mean_stay_hours=LONG_STAY_HOURS, seed=seed,
                                  n_sensors=LONG_MODEL["sensors_count"]),
            "pretrain")
        longest = sorted(drawn.episodes, key=lambda ep: (-ep.stay_hours, ep.patient_id))
        longest = longest[:LONG_LONGEST]
        kept = [longest[int((k + 0.5) * len(longest) / LONG_COHORT)]
                for k in range(LONG_COHORT)]
        return seed, dt.Dataset.from_episodes("long_stays", kept)

    def setup(self, rep):
        seed, pooled = self.inputs(0)
        model = BatModel.init(BatConfig(**LONG_MODEL), substream(seed, "warmup-init", rep))
        pp = dt.fit_preprocessor(pooled.episodes)
        # the longest window the sampler can draw: the first LONG_MAX_OBS hours
        values, mask, statics = sp.collate(dt.transform_all(pooled.episodes[:LONG_BATCH], pp))
        t1, t2 = LONG_MAX_OBS, LONG_MAX_OBS + sp.DEFAULT_FORECAST_HORIZON
        hours = np.arange(t1, dtype=np.float64)
        _warm_step(model, lambda rng: mt.masked_forecast_loss(
            model.forecast(values[:, :, :t1], mask[:, :, :t1], hours, statics,
                           train=True, rng=rng),
            values[:, :, t1:t2], mask[:, :, t1:t2]), seed)

    def run(self, inputs):
        seed, pooled = inputs
        cfg = tr.TrainConfig(batch_size=LONG_BATCH, epochs=1, patience=10, seed=seed)
        result = tr.pretrain(pooled, BatConfig(**LONG_MODEL), cfg, self._sampler_cfg())
        curves = [(r.train_curve, r.val_curve) for r in result.fold_results]
        out = Outcome(
            fingerprint=_digest(curves, result.selected_fold,
                                _params_digest(result.selected.params)),
            val_loss=result.selected.best_val,
        )
        for train_curve, val_curve in curves:
            _check_finite(out.problems, "losses", train_curve + val_curve)
        return out


class CliPipeline(Workload):
    name = "cli_pipeline"
    warmup_steps = 0

    def setup(self, rep):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def inputs(self, i):
        return self.unit_seed(i), os.path.join(self.workdir, f"unit{i}")

    def _cli(self, command, *argv):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, *[str(a) for a in argv]])
        self.probe.times[f"cli.{command}"] += time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"biaxial {command} exited with {code}")

    def run(self, inputs):
        seed, base = inputs
        if os.path.exists(base):
            shutil.rmtree(base)
        path = lambda *p: os.path.join(base, *p)
        sets = lambda items: [x for item in items for x in ("--set", item)]
        sensors = ["--set", f"model.sensors_count={CLI_SENSORS}"]
        for k, (name, n, prevalence, sparsity) in enumerate(CLI_COHORTS):
            self._cli("generate", "--n", n, "--prevalence", prevalence,
                      "--sparsity", sparsity, "--sensors-count", CLI_SENSORS,
                      "--name", name, "--seed", seed + k, "--out", path(name))
        data = [x for name, *_ in CLI_COHORTS for x in ("--data", path(name))]
        self._cli("pretrain", *data, "--out", path("pretrain"), "--seed", seed,
                  *sensors, *sets(CLI_MODEL + CLI_PRETRAIN))
        grid = [f"grid.sizes={','.join(map(str, CLI_GRID_SIZES))}",
                f"grid.seeds={','.join(map(str, CLI_GRID_SEEDS))}",
                f"grid.variants={','.join(CLI_GRID_VARIANTS)}"]
        self._cli("finetune", *data[:2], "--checkpoint", path("pretrain", "checkpoint.bax"),
                  "--out", path("finetune"), "--seed", seed, "--jobs", 1,
                  *sensors, *sets(CLI_MODEL + CLI_FINETUNE + grid))
        self._cli("evaluate", *data, "--checkpoint", path("finetune", "model.bax"),
                  "--out", path("evaluate"), "--seed", seed)

        with open(path("finetune", "runs.csv")) as fh:
            runs = list(csv.DictReader(fh))
        with open(path("evaluate", "evaluate.csv")) as fh:
            evals = list(csv.DictReader(fh))
        requested = len(CLI_GRID_SIZES) * len(CLI_GRID_SEEDS) * len(CLI_GRID_VARIANTS)
        saved = tr.load_checkpoint(path("finetune", "model.bax"))
        out = Outcome(
            fingerprint=_tree_digest(base),
            val_loss=float(saved["meta"]["best_val_loss"]),
            auc_roc=float(np.mean([float(r["auc_roc"]) for r in evals])),
            auc_pr=float(np.mean([float(r["auc_pr"]) for r in evals])),
            requested=requested,
            missing=requested - len(runs),
        )
        if out.missing:
            out.problems.append(f"grid produced {len(runs)} of {requested} cells")
        if len(evals) != len(CLI_COHORTS):
            out.problems.append(f"evaluate wrote {len(evals)} rows, expected {len(CLI_COHORTS)}")
        for row in runs + evals:
            _check_auc(out.problems, "auc_roc", float(row["auc_roc"]))
            _check_auc(out.problems, "auc_pr", float(row["auc_pr"]))
        _check_finite(out.problems, "val_loss", [out.val_loss])
        shutil.rmtree(base)
        return out


def _tree_digest(base) -> str:
    """Digest of every artifact under `base` except the echoed configs,
    which name the output directory."""
    parts = []
    for root, _, files in sorted(os.walk(base)):
        for name in sorted(files):
            if name == "config.ini":
                continue
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                parts += [os.path.relpath(full, base), hashlib.sha256(fh.read()).hexdigest()]
    return _digest(parts)


WORKLOADS = {w.name: w for w in (FinetuneRef, PretrainLong, CliPipeline)}
