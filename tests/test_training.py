"""Optimizer, schedules, early stopping, pretraining, fine-tuning and
checkpoint files."""

import ctypes
import json
import math
import re
import struct
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaxial import autodiff as ad
from biaxial import data as dt
from biaxial import metrics as mt
from biaxial import sampler as sp
from biaxial import training as tr
from biaxial.autodiff import Tensor
from biaxial.model import BatConfig, BatModel
from biaxial.sampler import SamplerConfig


def reference_stop_epoch(trace, patience, min_delta):
    """Two-phase reference for the patience rule: mark improvement events
    against a from-scratch minimum of all earlier epochs, then find the
    first epoch with `patience` event-free epochs behind it."""
    events = []
    for i, loss in enumerate(trace):
        prior_best = min(trace[:i]) if i else float("inf")
        if loss < prior_best - min_delta:
            events.append(i)
    for i in range(len(trace)):
        before = [e for e in events if e <= i]
        gap = i - max(before) if before else i + 1
        if gap >= patience:
            return i
    return None


PREPROC_ARRAYS = ("tv_mean", "tv_std", "static_mean", "static_std")


def tiny_model_cfg(**over):
    base = dict(sensors_count=6, value_embed_size=8, layers=1, heads=1,
                dropout=0.1, attn_dropout=0.1, pooling="max", forecast_horizon=2)
    base.update(over)
    return BatConfig(**base)


def tiny_train_cfg(**over):
    base = dict(batch_size=32, epochs=4, patience=3, min_delta=5e-3,
                learning_rate=2e-3, weight_decay=1e-6, lr_gamma=0.95, seed=0)
    base.update(over)
    return tr.TrainConfig(**base)


@pytest.fixture(scope="module")
def mortality_ds():
    ds = dt.generate_synthetic(240, prevalence=0.25, mean_stay_hours=40,
                               sparsity=0.5, seed=100, n_sensors=6)
    return dt.apply_exclusions(ds, "mortality")


@pytest.fixture(scope="module")
def pooled_pretrain_ds():
    a = dt.generate_synthetic(70, prevalence=0.2, mean_stay_hours=40,
                              sparsity=0.4, seed=101, n_sensors=6, name="srcA")
    b = dt.generate_synthetic(70, prevalence=0.1, mean_stay_hours=40,
                              sparsity=0.6, seed=102, n_sensors=6, name="srcB")
    pooled = dt.pool_datasets([a, b])
    return dt.apply_exclusions(pooled, "pretrain")


@pytest.fixture(scope="module")
def checkpoint(pooled_pretrain_ds):
    model_cfg = tiny_model_cfg()
    result = tr.pretrain(pooled_pretrain_ds, model_cfg,
                         tiny_train_cfg(epochs=2), SamplerConfig(), n_folds=2)
    return {
        "params": result.selected.params,
        "preprocessor": result.selected.preprocessor,
        "model_cfg": model_cfg,
        "meta": {},
    }


class TestAdamW:
    def test_zero_gradients_leave_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = tr.AdamW({"w": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_close_to_lr(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([3.7])
        opt = tr.AdamW({"w": p}, lr=0.01, weight_decay=0.0)
        opt.step()
        assert abs(abs(p.data[0]) - 0.01) < 1e-6

    @pytest.mark.usefixtures("float64")
    def test_scalar_trace_matches_hand_rolled_oracle(self):
        lr, wd, g_const = 0.05, 0.01, 2.0
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = tr.AdamW({"w": p}, lr=lr, weight_decay=wd)
        trace = []
        for _ in range(6):
            p.grad = np.array([g_const])
            opt.step()
            trace.append(p.data[0])

        # independent scalar re-implementation
        b1, b2, eps = 0.9, 0.999, 1e-8
        x, m, v = 1.0, 0.0, 0.0
        expected = []
        for t in range(1, 7):
            m = b1 * m + (1 - b1) * g_const
            v = b2 * v + (1 - b2) * g_const ** 2
            x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            x = x - lr * wd * x
            expected.append(x)
        np.testing.assert_allclose(trace, expected, rtol=1e-12)

    def test_decay_shrinks_weights_with_zero_gradients(self):
        p = Tensor(np.array([4.0]), requires_grad=True)
        opt = tr.AdamW({"w": p}, lr=0.1, weight_decay=0.5)
        for _ in range(3):
            p.grad = np.zeros(1)
            opt.step()
        assert 0 < p.data[0] < 4.0

    def test_nonfinite_gradient_names_parameter(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = tr.AdamW({"bad_param": p}, lr=0.1)
        with pytest.raises(tr.NonFiniteGradientError, match="bad_param"):
            opt.step()

    @pytest.mark.usefixtures("float64")
    def test_frozen_params_never_touched(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=False)
        opt = tr.AdamW({"a": a, "b": b}, lr=0.1, weight_decay=0.5)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])      # a stray gradient and weight decay still leave b alone
        opt.step()
        assert b.data.tobytes() == np.array([2.0]).tobytes()
        assert a.data[0] != 1.0


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        {"batch_size": 0}, {"batch_size": -1}, {"epochs": 0}, {"patience": 0},
        {"learning_rate": 0.0}, {"learning_rate": float("nan")}, {"min_delta": -1e-3},
        {"weight_decay": -1e-6}, {"lr_gamma": 0.0}, {"lr_gamma": 1.5},
        {"standardization": "zscore"}])
    def test_rejects_bad_setting(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            tr.TrainConfig(**bad)


class TestLrSchedule:
    def test_epoch_zero_is_lr0(self):
        assert tr.lr_at_epoch(3e-4, 0.95, 0) == 3e-4

    def test_head_finetune_reference_value(self):
        assert tr.lr_at_epoch(1e-2, 0.95, 1) == pytest.approx(9.5e-3, abs=1e-15)

    def test_epoch_14_power(self):
        assert tr.lr_at_epoch(1.0, 0.95, 14) == pytest.approx(0.4877, abs=1e-4)

    def test_closed_form_to_1e12(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lr0 = float(rng.uniform(1e-5, 1e-1))
            k = int(rng.integers(0, 200))
            assert abs(tr.lr_at_epoch(lr0, 0.95, k) - lr0 * 0.95 ** k) <= 1e-12


class _UntrainedModel:
    """All that `_fit` asks of a model when there are no items to train on."""

    params: dict = {}

    def zero_grad(self):
        pass

    def state_arrays(self):
        return {}


def fit_stop_epoch(trace, patience, min_delta):
    """The epoch at which `tr._fit` stops early when its validation losses
    are `trace`, or None if it runs all len(trace) epochs."""
    losses = iter(trace)
    cfg = tr.TrainConfig(epochs=len(trace), patience=patience, min_delta=min_delta)
    result = tr._fit(_UntrainedModel(), [], cfg, (), None,
                     lambda: float(next(losses)))
    assert result.val_curve == [float(v) for v in trace[:result.stop_epoch]]
    assert result.best_val == min(result.val_curve)
    return result.stop_epoch - 1 if result.stop_reason == "early_stop" else None


class TestEarlyStopping:
    def test_steady_improvement_never_stops(self):
        history = [1.0 - 0.01 * i for i in range(100)]
        assert fit_stop_epoch(history, patience=10, min_delta=5e-3) is None

    def test_flat_history_stops_after_patience(self):
        patience = 7
        history = [0.5] * (patience + 2)
        assert fit_stop_epoch(history, patience, 5e-3) == patience

    def test_exact_min_delta_improvement_does_not_count(self):
        # drops of exactly min_delta are not improvements
        patience = 4
        history = [1.0 - 5e-3 * i for i in range(patience + 2)]
        assert fit_stop_epoch(history, patience, 5e-3) == patience

    def test_matches_independent_reference_on_random_traces(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 80))
            # mix of noise and drifting segments
            trace = np.abs(np.cumsum(rng.normal(0, 0.05, n)) + rng.uniform(0, 1))
            patience = int(rng.integers(1, 10))
            min_delta = float(rng.choice([0.0, 1e-3, 5e-3, 2e-2]))
            want = reference_stop_epoch(trace, patience, min_delta)
            assert fit_stop_epoch(trace, patience, min_delta) == want


def run_grid(ds, checkpoint, model_cfg, train_cfg, grid):
    """`run_experiment_grid` on the cohort's test cut at the run seed, as
    `cli.cmd_finetune` calls it."""
    return tr.run_experiment_grid(*dt.split_test(ds, train_cfg.seed), checkpoint,
                                  model_cfg, train_cfg, grid)


def unanchorable_stay(pid, observed_hours=8, n_hours=40):
    """A 6-sensor stay observed only in its first `observed_hours` hours:
    up to 14 leave no split index at the default min_obs_len 12 and
    forecast horizon 2."""
    mask = np.zeros((6, n_hours), dtype=bool)
    mask[:, :observed_hours] = True
    return dt.EpisodeRecord(patient_id=pid, values=np.ones((6, n_hours)), mask=mask,
                            statics=np.array([50.0, 0.0, 170.0, 70.0]),
                            stay_hours=float(n_hours), label=None)


class TestPretrain:
    def test_learning_progress_and_selection(self, pooled_pretrain_ds):
        result = tr.pretrain(pooled_pretrain_ds, tiny_model_cfg(),
                             tiny_train_cfg(epochs=5), SamplerConfig())
        assert len(result.fold_results) == 5
        best = result.selected
        assert best.best_val <= min(r.best_val for r in result.fold_results)
        assert best.best_val < best.val_curve[0]
        assert best.best_val == min(best.val_curve)
        assert [r.preprocessor.fitted_on for r in result.fold_results] == \
            [f"{pooled_pretrain_ds.name}/fold{k}" for k in range(5)]

    def test_deterministic_loss_curves(self, pooled_pretrain_ds):
        kwargs = dict(model_cfg=tiny_model_cfg(), train_cfg=tiny_train_cfg(epochs=2),
                      sampler_cfg=SamplerConfig())
        r1 = tr.pretrain(pooled_pretrain_ds, kwargs["model_cfg"],
                         kwargs["train_cfg"], kwargs["sampler_cfg"], n_folds=2)
        r2 = tr.pretrain(pooled_pretrain_ds, kwargs["model_cfg"],
                         kwargs["train_cfg"], kwargs["sampler_cfg"], n_folds=2)
        for a, b in zip(r1.fold_results, r2.fold_results):
            assert a.train_curve == b.train_curve
            assert a.val_curve == b.val_curve
        assert r1.selected_fold == r2.selected_fold

    def test_constant_sensors_drive_loss_toward_zero(self):
        # degenerate, perfectly predictable signal: each sensor is one
        # global constant, so standardized targets are identically zero
        episodes = []
        rng = np.random.default_rng(3)
        constants = rng.normal(size=(6, 1)) * 10.0
        for i in range(60):
            t = 40
            values = np.repeat(constants, t, axis=1)
            mask = rng.random((6, t)) < 0.7
            mask[:, 0] = True
            episodes.append(dt.EpisodeRecord(
                patient_id=f"c{i}", values=values, mask=mask,
                statics=np.array([60.0, 1.0, 170.0, 75.0]),
                stay_hours=float(t), label=None))
        ds = dt.Dataset.from_episodes("const", episodes)
        result = tr.pretrain(ds, tiny_model_cfg(dropout=0.0, attn_dropout=0.0),
                             tiny_train_cfg(epochs=40, learning_rate=1e-2,
                                            patience=40, batch_size=16),
                             SamplerConfig(), n_folds=2)
        best = result.selected
        assert best.best_val < 0.02 * best.val_curve[0]
        assert best.best_val < 0.2

    def test_sampler_exhaustion_aborts(self, monkeypatch, caplog):
        """A corpus in which no stay can anchor a window is a corpus of too
        few stays: the warning counts them all, then the folds' ten-stay
        floor rejects it before any fold trains."""
        ds = dt.Dataset.from_episodes("short", [unanchorable_stay(f"s{i}") for i in range(40)])
        monkeypatch.setattr(tr, "_train_one_fold", None)   # a fold that trains fails
        with caplog.at_level("WARNING"), \
                pytest.raises(ValueError, match="need at least 10 episodes to split, got 0"):
            tr.pretrain(ds, tiny_model_cfg(), tiny_train_cfg(epochs=1),
                        SamplerConfig(), n_folds=2)
        assert [rec.message for rec in caplog.records] == [
            "dropping 40 of 40 stays that cannot anchor a forecasting window"]

    def test_stays_that_cannot_anchor_are_dropped_once_with_a_warning(
            self, pooled_pretrain_ds, caplog):
        """Interleaving stays that cannot anchor a window changes no fold's
        curves or parameters and no selection, bitwise; one warning counts
        them, and the corpus without them logs none."""
        sampler_cfg = SamplerConfig()
        clean = [ep for ep in pooled_pretrain_ds.episodes
                 if sp.valid_indices(ep.mask.any(axis=0), sampler_cfg).size]
        assert len(clean) < len(pooled_pretrain_ds)   # the fixture holds a few itself
        noisy = list(pooled_pretrain_ds.episodes)
        for k in range(4):
            noisy.insert(17 * k, unanchorable_stay(f"x{k}", observed_hours=8 + 2 * k))
        dropped = len(noisy) - len(clean)
        results = []
        for episodes in (clean, noisy):
            caplog.clear()
            with caplog.at_level("WARNING"):
                results.append(tr.pretrain(
                    dt.Dataset.from_episodes(pooled_pretrain_ds.name, episodes),
                    tiny_model_cfg(), tiny_train_cfg(epochs=2), sampler_cfg, n_folds=2))
            results.append([r.getMessage() for r in caplog.records if r.levelname == "WARNING"])
        want, clean_warnings, got, noisy_warnings = results
        assert clean_warnings == []
        assert noisy_warnings == [f"dropping {dropped} of {len(noisy)} stays that cannot "
                                  f"anchor a forecasting window"]
        assert got.selected_fold == want.selected_fold
        for a, b in zip(got.fold_results, want.fold_results, strict=True):
            assert (a.train_curve, a.val_curve, a.best_epoch) == \
                (b.train_curve, b.val_curve, b.best_epoch)
            assert a.params.keys() == b.params.keys()
            for name in a.params:
                assert a.params[name].tobytes() == b.params[name].tobytes(), name


class TestFinetune:
    def test_head_freeze_contract(self, checkpoint, mortality_ds):
        result = tr.finetune(checkpoint, mortality_ds, "finetune_head",
                             tiny_train_cfg(epochs=3, learning_rate=1e-2))
        for name, before in checkpoint["params"].items():
            if not name.startswith("head_cls/"):
                assert np.array_equal(result.params[name], before), name

    def test_head_only_steps_give_the_trunk_no_gradient(self, checkpoint, mortality_ds,
                                                         monkeypatch):
        given = []
        adamw_step = tr.AdamW.step

        def recording_step(self, lr=None):
            given.append({n for n, p in self.params.items() if p.grad is not None})
            adamw_step(self, lr)

        monkeypatch.setattr(tr.AdamW, "step", recording_step)
        tr.finetune(checkpoint, mortality_ds, "finetune_head", tiny_train_cfg(epochs=1))
        head = {n for n in checkpoint["params"] if n.startswith("head_cls/")}
        assert given and all(names == head for names in given)

    def test_head_gradients_do_not_depend_on_recording_the_trunk(self, checkpoint,
                                                                 mortality_ds):
        episodes = dt.transform_all(mortality_ds.episodes[:8], checkpoint["preprocessor"])
        labels = [ep.label for ep in episodes]
        grads = []
        for record_trunk in (True, False):
            with ad.compute_dtype(tr.COMPUTE_DTYPE):
                model = BatModel.from_arrays(checkpoint["model_cfg"], checkpoint["params"])
                for name, p in model.params.items():
                    p.requires_grad = record_trunk or name.startswith("head_cls/")
                probs = model.classify(*tr._classification_arrays(episodes), train=True,
                                       rng=np.random.default_rng(5))
                ad.backward(mt.weighted_bce(probs, labels, 2.0))
            grads.append({n: p.grad for n, p in model.params.items() if p.grad is not None})
        recorded, head_only = grads
        assert set(head_only) == {n for n in recorded if n.startswith("head_cls/")}
        for name, g in head_only.items():
            assert np.array_equal(g, recorded[name]), name

    def test_full_finetune_moves_trunk(self, checkpoint, mortality_ds):
        result = tr.finetune(checkpoint, mortality_ds, "finetune_full",
                             tiny_train_cfg(epochs=2, learning_rate=1e-3))
        moved = sum(
            0 if np.array_equal(result.params[n], before) else 1
            for n, before in checkpoint["params"].items())
        assert moved > 0

    def test_scratch_rejects_checkpoint_and_vice_versa(self, checkpoint, mortality_ds):
        with pytest.raises(ValueError, match="does not take"):
            tr.finetune(checkpoint, mortality_ds, "scratch", tiny_train_cfg())
        with pytest.raises(ValueError, match="require a checkpoint"):
            tr.finetune(None, mortality_ds, "finetune_full", tiny_train_cfg())

    @pytest.mark.parametrize("missing", [0, 1])
    def test_one_class_training_split_has_no_pos_weight(self, mortality_ds, missing):
        train = [ep for ep in mortality_ds.episodes if ep.label != missing][:20]
        ds = dt.Dataset.from_episodes(mortality_ds.name, train)
        name = "positive" if missing == 1 else "negative"
        with pytest.raises(mt.UndefinedMetricError, match=f"no {name} labels"):
            tr.finetune(None, ds, "scratch", tiny_train_cfg(epochs=1),
                        model_cfg=tiny_model_cfg(),
                        val_episodes=mortality_ds.episodes[:20])

    def test_arch_and_mode_must_name_a_grid_variant(self, checkpoint, mortality_ds):
        with pytest.raises(ValueError, match="no grid variant"):
            tr.finetune(checkpoint, mortality_ds, "finetune_full", tiny_train_cfg(),
                        arch="transformer")
        with pytest.raises(ValueError, match="no grid variant"):
            tr.finetune(None, mortality_ds, "zero_shot", tiny_train_cfg(),
                        model_cfg=tiny_model_cfg())
        with pytest.raises(ValueError, match="no grid variant"):
            tr.finetune(None, mortality_ds, "scratch", tiny_train_cfg(),
                        model_cfg=tiny_model_cfg(), arch="lstm")

    def test_inherit_standardization_uses_checkpoint_stats(self, checkpoint,
                                                           mortality_ds):
        result = tr.finetune(checkpoint, mortality_ds, "finetune_head",
                             tiny_train_cfg(epochs=1, standardization="inherit"))
        assert result.stop_epoch >= 1
        with pytest.raises(ValueError, match="inherit"):
            tr.finetune(None, mortality_ds, "scratch",
                        tiny_train_cfg(standardization="inherit"),
                        model_cfg=tiny_model_cfg())

    def test_deterministic_curves(self, mortality_ds):
        cfg = tiny_train_cfg(epochs=2, seed=5)
        r1 = tr.finetune(None, mortality_ds, "scratch", cfg,
                         model_cfg=tiny_model_cfg())
        r2 = tr.finetune(None, mortality_ds, "scratch", cfg,
                         model_cfg=tiny_model_cfg())
        assert r1.train_curve == r2.train_curve
        assert r1.val_curve == r2.val_curve

    def test_never_trains_past_epochs_and_best_is_min(self, mortality_ds,
                                                      pooled_pretrain_ds):
        results = []
        for patience in (1, 3):
            # a high lr makes the validation curves bounce, so early stops and
            # best epochs before the last one both occur
            cfg = tiny_train_cfg(epochs=5, patience=patience, min_delta=0.3,
                                 learning_rate=3e-2)
            results.append((cfg, tr.finetune(None, mortality_ds, "scratch", cfg,
                                             model_cfg=tiny_model_cfg())))
            folds = tr.pretrain(pooled_pretrain_ds, tiny_model_cfg(), cfg,
                                SamplerConfig(), n_folds=2).fold_results
            results += [(cfg, fold) for fold in folds]
        for cfg, result in results:
            assert result.stop_epoch == len(result.val_curve) <= cfg.epochs
            assert result.best_val == min(result.val_curve)
            assert result.best_epoch == int(np.argmin(result.val_curve))
            assert result.lr_curve[0] == cfg.learning_rate
            assert result.lr_curve == [tr.lr_at_epoch(cfg.learning_rate, cfg.lr_gamma, k)
                                       for k in range(result.stop_epoch)]
            stop = reference_stop_epoch(result.val_curve, cfg.patience, cfg.min_delta)
            assert (result.stop_reason == "early_stop") == (stop is not None)
            if stop is not None:  # stops at the first epoch the rule allows
                assert result.stop_epoch == stop + 1

    def test_scratch_with_shuffled_labels_is_chance_level(self):
        base = dt.generate_synthetic(620, prevalence=0.25, mean_stay_hours=40,
                                     sparsity=0.5, seed=110, n_sensors=6)
        base = dt.apply_exclusions(base, "mortality")
        rng = np.random.default_rng(42)
        labels = rng.permutation([ep.label for ep in base.episodes])
        shuffled = [replace(ep, label=int(lab)) for ep, lab in zip(base.episodes, labels)]
        ds = dt.Dataset.from_episodes("shuffled", shuffled)
        pool, test = dt.split_test(ds, seed=0)
        result = tr.finetune(None, pool, "scratch",
                             tiny_train_cfg(epochs=3, seed=7),
                             model_cfg=tiny_model_cfg(), test_episodes=test)
        assert 0.4 <= result.metrics.auc_roc <= 0.6

    def test_transformer_baseline_trains(self, mortality_ds):
        result = tr.finetune(None, mortality_ds, "scratch",
                             tiny_train_cfg(epochs=2),
                             model_cfg=tiny_model_cfg(), arch="transformer")
        assert len(result.val_curve) == 2

    def test_predict_probs_needs_no_labels(self, checkpoint, mortality_ds):
        parts = ("bat", checkpoint["model_cfg"], checkpoint["params"],
                 checkpoint["preprocessor"])
        labeled = mortality_ds.episodes
        unlabeled = [replace(ep, label=None) for ep in labeled]
        assert tr.predict_probs(*parts, unlabeled, 32).tobytes() == \
            tr.predict_probs(*parts, labeled, 32).tobytes()

    def test_checkpoint_bundle_roundtrip(self, checkpoint, tmp_path):
        path = tmp_path / "ckpt.bax"
        tr.save_checkpoint(path, checkpoint["params"], checkpoint["preprocessor"],
                           checkpoint["model_cfg"], meta={"note": "x"})
        back = tr.load_checkpoint(path)
        assert set(back) == {"params", "preprocessor", "model_cfg", "meta", "arch"}
        assert back["arch"] == "bat"            # a checkpoint without an arch is a BAT
        assert back["model_cfg"] == checkpoint["model_cfg"]
        assert back["meta"]["note"] == "x"
        for name, arr in checkpoint["params"].items():
            assert back["params"][name].dtype == np.float64
            assert np.array_equal(back["params"][name], arr)
        pp = checkpoint["preprocessor"]
        assert back["preprocessor"].fitted_on == pp.fitted_on
        for name in PREPROC_ARRAYS:
            assert np.array_equal(getattr(back["preprocessor"], name), getattr(pp, name))


def read_bax(path):
    """Read a .bax file from its documented layout alone: the BAXPARMS
    magic, a little-endian u64 header length, a compact sorted-key JSON
    header, then float64 little-endian buffers back to back, in entry
    order, at the recorded offsets. Returns (arrays by name, meta)."""
    blob = path.read_bytes()
    assert blob[:8] == b"BAXPARMS"
    (hlen,) = struct.unpack("<Q", blob[8:16])
    raw = blob[16:16 + hlen]
    header = json.loads(raw)
    assert raw == json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert header["format_version"] == 1
    names = [e["name"] for e in header["entries"]]
    assert names == sorted(names)
    data, offset, arrays = blob[16 + hlen:], 0, {}
    for e in header["entries"]:
        assert e["offset"] == offset and e["nbytes"] == 8 * math.prod(e["shape"])
        arrays[e["name"]] = np.frombuffer(
            data[offset:offset + e["nbytes"]], dtype="<f8").reshape(e["shape"])
        offset += e["nbytes"]
    assert offset == len(data)
    return arrays, header["meta"]


class TestCheckpointFile:
    @pytest.fixture
    def saved(self, checkpoint, tmp_path):
        """A checkpoint with non-ASCII meta, as written by save_checkpoint."""
        path = tmp_path / "ckpt.bax"
        pp = replace(checkpoint["preprocessor"], fitted_on="données/fold0")
        tr.save_checkpoint(path, checkpoint["params"], pp, checkpoint["model_cfg"],
                           meta={"note": "é", "n": 3})
        return path, pp

    def test_layout_matches_an_independent_reader(self, checkpoint, saved):
        path, pp = saved
        arrays, meta = read_bax(path)
        params = checkpoint["params"]
        assert set(arrays) == ({f"param/{n}" for n in params}
                               | {f"preproc/{n}" for n in PREPROC_ARRAYS})
        for name, arr in params.items():
            assert arrays[f"param/{name}"].tobytes() == np.asarray(arr, "<f8").tobytes()
        for name in PREPROC_ARRAYS:
            assert arrays[f"preproc/{name}"].tobytes() == \
                np.asarray(getattr(pp, name), "<f8").tobytes()
        assert meta == {"model_cfg": asdict(checkpoint["model_cfg"]),
                        "fitted_on": "données/fold0", "note": "é", "n": 3}

    def test_unsupported_version_rejected(self, saved):
        path, _ = saved
        path.write_bytes(path.read_bytes().replace(b'"format_version":1',
                                                   b'"format_version":2', 1))
        with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["cut_in_length", "cut_in_header", "cut_in_buffers",
                                        "garbled_header", "header_without_entries"])
    def test_damaged_file_is_value_error_naming_the_path(self, saved, damage):
        path, _ = saved
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        empty = b'{"format_version":1}'
        path.write_bytes({
            "cut_in_length": blob[:12],
            "cut_in_header": blob[:16 + hlen // 2],
            "cut_in_buffers": blob[:len(blob) - 4],
            "garbled_header": blob[:16] + b"x" + blob[17:],
            "header_without_entries": blob[:8] + struct.pack("<Q", len(empty)) + empty,
        }[damage])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("meta, message", [
        (None, "checkpoint not found (no such file): {path}"),
        ({"kind": "pretrained"}, "{path} is a 'pretrained' checkpoint; expected a "
                                 "'classifier' one"),
        ({"kind": "classifier", "arch": "bat"}, "{path} records no split_seed"),
    ], ids=["directory", "other_kind", "no_split_seed"])
    def test_file_unfit_for_its_kind_is_value_error_naming_the_path(
            self, checkpoint, tmp_path, meta, message):
        path = tmp_path
        if meta is not None:
            path = tmp_path / "ckpt.bax"
            tr.save_checkpoint(path, checkpoint["params"], checkpoint["preprocessor"],
                               checkpoint["model_cfg"], meta=meta)
        with pytest.raises(ValueError, match=re.escape(message.format(path=path))):
            tr.load_checkpoint(path, "classifier")

    @pytest.mark.parametrize("entry, shape, read", [("tv_mean", [1], (1,)),
                                                    ("static_std", [-1], (16,))])
    def test_preprocessor_entry_of_another_shape_is_value_error_naming_it(
            self, saved, entry, shape, read):
        """A [1] entry would standardize every sensor with sensor 0's
        statistics; a [-1] one reads on through the entries after it (here
        tv_mean and tv_std: 4 + 6 + 6 values)."""
        path, _ = saved
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        for e in header["entries"]:
            if e["name"] == f"preproc/{entry}":
                e["shape"] = shape
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
        path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + hlen:])
        want = (6,) if entry.startswith("tv_") else (4,)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: preprocessor entry 'preproc/{entry}' is {read} here, but {want}")):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("meta", [{"kind": "pretrained"},
                                      {"kind": "classifier", "split_seed": 4}])
    def test_without_a_kind_either_kind_loads(self, checkpoint, tmp_path, meta):
        path = tmp_path / "ckpt.bax"
        tr.save_checkpoint(path, checkpoint["params"], checkpoint["preprocessor"],
                           checkpoint["model_cfg"], meta=meta)
        bundle = tr.load_checkpoint(path)
        assert bundle["meta"]["kind"] == meta["kind"] and bundle["arch"] == "bat"
        assert tr.load_checkpoint(path, meta["kind"])["meta"] == bundle["meta"]


def head_aggregate_rows(rows):
    """`aggregate_rows` as it was before it grouped sorted rows: one filter
    over all rows per (size, model, mode) key, then one per size to rank."""
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


# few distinct AUC values, so groups often tie on mean_auc_pr
GRID_ROWS = st.lists(st.tuples(
    st.sampled_from([10, 30, 60]), st.sampled_from(list(tr.GRID_VARIANTS.values())),
    st.integers(0, 4), st.sampled_from([0.1, 0.25, 1 / 3, 0.5]),
    st.floats(0.0, 1.0)), max_size=40)


def _blas_threads(_=None):
    """The thread count of numpy's OpenBLAS in this process."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_num_threads64_()


class TestParallelMap:
    @pytest.mark.skipif(
        not hasattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                    "scipy_openblas_get_num_threads64_"),
        reason="numpy is not linked against the bundled scipy-openblas")
    def test_each_worker_runs_one_blas_thread(self):
        before = _blas_threads()
        assert tr._parallel_map(_blas_threads, range(4), 2) == [1, 1, 1, 1]
        assert _blas_threads() == before           # the parent keeps its own

    def test_without_a_thread_setter_it_warns_once_and_maps(self, monkeypatch, caplog):
        monkeypatch.setattr(tr, "_blas_thread_setter", lambda: None)
        with caplog.at_level("WARNING"):
            assert tr._parallel_map(abs, [-3, 1, -2], 2) == [3, 1, 2]
        assert ["no OpenBLAS thread setter" in r.message for r in caplog.records] == [True]

    def test_a_closure_over_local_state_maps_in_order_on_two_workers(self):
        offset, seen = 10, {"scale": 3}         # a lambda over them cannot be pickled
        items = list(range(7))
        assert tr._parallel_map(lambda x: seen["scale"] * x + offset, items, 2) == \
            [3 * x + 10 for x in items]


class TestExperimentGrid:
    @settings(max_examples=200, deadline=None)
    @given(cells=GRID_ROWS, order=st.randoms(use_true_random=False))
    def test_aggregate_rows_matches_the_filtering_oracle(self, cells, order):
        rows = [{"dataset": "d", "model": v.arch, "mode": v.mode, "size": size,
                 "seed": seed, "fold": 0, "auc_roc": roc, "auc_pr": pr}
                for size, v, seed, pr, roc in cells]
        order.shuffle(rows)
        assert repr(tr.aggregate_rows(rows)) == repr(head_aggregate_rows(rows))

    def test_grid_shape_and_fixed_test_split(self, mortality_ds, checkpoint):
        ds, model_cfg = mortality_ds, checkpoint["model_cfg"]
        grid = tr.GridConfig(sizes=[30, 60], seeds=[0, 1],
                             variants=["finetune_head", "scratch_bat"])
        rows, aggregates, _ = run_grid(
            ds, checkpoint, model_cfg, tiny_train_cfg(epochs=2), grid)
        assert len(rows) == 8
        assert len(aggregates) == 4
        for agg in aggregates:
            assert agg["n_seeds"] == 2
            assert agg["rank_auc_pr"] in (1, 2)
        ranks = {(a["size"], a["rank_auc_pr"]) for a in aggregates}
        assert ranks == {(30, 1), (30, 2), (60, 1), (60, 2)}

    def test_aggregate_sd_is_population_sd(self):
        rows = [
            {"dataset": "d", "model": "bat", "mode": "scratch", "size": 10,
             "seed": s, "fold": 0, "auc_roc": 0.5 + 0.1 * s, "auc_pr": 0.2 + 0.1 * s}
            for s in range(3)
        ]
        aggs = tr.aggregate_rows(rows)
        values = np.array([0.2, 0.3, 0.4])
        assert aggs[0]["sd_auc_pr"] == pytest.approx(values.std())  # 1/N, not 1/(N-1)

    def test_infeasible_size_skipped_with_warning(self, mortality_ds, caplog):
        grid = tr.GridConfig(sizes=[10_000], seeds=[0], variants=["scratch_bat"])
        with caplog.at_level("WARNING"):
            rows, aggregates, _ = run_grid(
                mortality_ds, None, tiny_model_cfg(), tiny_train_cfg(epochs=1), grid)
        assert rows == [] and aggregates == []
        assert any("skipping size" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("error", [tr.TrainingError("empty split"),
                                       dt.SubsampleError("negative class exhausted"),
                                       mt.UndefinedMetricError("no positive labels")])
    def test_infeasible_cell_skipped_with_warning(self, mortality_ds, monkeypatch,
                                                  caplog, error):
        def infeasible(*args, **kwargs):
            raise error
        monkeypatch.setattr(tr, "train_variant", infeasible)
        grid = tr.GridConfig(sizes=[30], seeds=[0, 1], variants=["scratch_bat"])
        with caplog.at_level("WARNING"):
            rows, _, _ = run_grid(
                mortality_ds, None, tiny_model_cfg(), tiny_train_cfg(epochs=1), grid)
        assert rows == []
        assert sum("skipping cell" in rec.message for rec in caplog.records) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("error", [ValueError("operands could not be broadcast"),
                                       TypeError("gelu computed in float64"),
                                       ZeroDivisionError("division by zero")])
    def test_other_cell_errors_fail_the_grid(self, mortality_ds, monkeypatch, error, jobs):
        def buggy(*args, **kwargs):
            raise error
        monkeypatch.setattr(tr, "train_variant", buggy)
        grid = tr.GridConfig(sizes=[30], seeds=[0], variants=["scratch_bat"], jobs=jobs)
        with pytest.raises(type(error), match=str(error)):
            run_grid(mortality_ds, None, tiny_model_cfg(),
                     tiny_train_cfg(epochs=1), grid)

    @pytest.mark.parametrize("inherit", [False, True])
    @pytest.mark.parametrize("with_checkpoint", [False, True])
    def test_check_variants_rejects_exactly_the_variants_that_cannot_run(
            self, checkpoint, with_checkpoint, inherit):
        cfg = tiny_train_cfg(standardization="inherit" if inherit else "refit")
        ckpt = checkpoint if with_checkpoint else None
        for k in range(1, 1 << len(tr.GRID_VARIANTS)):
            variants = [v for i, v in enumerate(tr.GRID_VARIANTS) if k >> i & 1]
            modes = {tr.GRID_VARIANTS[v].mode for v in variants}
            fails = (ckpt is None and modes != {"scratch"}) or (inherit and "scratch" in modes)
            if fails:
                with pytest.raises(ValueError, match=r"variants \['"):
                    tr.check_variants(variants, ckpt, cfg)
            else:
                tr.check_variants(variants, ckpt, cfg)

    def test_inherit_with_a_scratch_variant_fails_before_any_cell(
            self, mortality_ds, checkpoint, monkeypatch):
        calls = []
        monkeypatch.setattr(tr, "train_variant", lambda *args, **kwargs: calls.append(args))
        grid = tr.GridConfig(sizes=[30], seeds=[0], variants=["finetune_head", "scratch_bat"])
        with pytest.raises(ValueError, match=r"variants \['scratch_bat'\] train from scratch"):
            run_grid(mortality_ds, checkpoint, checkpoint["model_cfg"],
                     tiny_train_cfg(standardization="inherit"), grid)
        assert calls == []

    def test_test_split_without_a_class_fails_before_any_cell(self, monkeypatch):
        # 45 stays with 1 positive, which the unstratified test cut leaves out
        ds = dt.apply_exclusions(dt.generate_synthetic(60, prevalence=0.02, seed=1,
                                                       n_sensors=4), "mortality")
        calls = []
        monkeypatch.setattr(tr, "train_variant", lambda *args, **kwargs: calls.append(args))
        grid = tr.GridConfig(sizes=[20], seeds=[0, 1],
                             variants=["scratch_bat", "scratch_transformer"])
        with pytest.raises(mt.UndefinedMetricError,
                           match=re.escape(f"{ds.name!r} lacks a class: 0 positive, 9 negative")):
            run_grid(ds, None, tiny_model_cfg(sensors_count=4),
                     tiny_train_cfg(epochs=1), grid)
        assert calls == []

    def test_lone_negative_trains_so_no_cell_skips(self, caplog):
        ds = dt.apply_exclusions(dt.generate_synthetic(200, prevalence=0.9, seed=1,
                                                       n_sensors=4), "mortality")
        grid = tr.GridConfig(sizes=[5, 20], seeds=[0, 1, 2, 3], variants=["scratch_bat"])
        with caplog.at_level("WARNING"):
            rows, _, _ = run_grid(ds, None, tiny_model_cfg(sensors_count=4),
                                  tiny_train_cfg(epochs=1), grid)
        skipped = [rec for rec in caplog.records if "no negative labels" in rec.message]
        # every subsample holds exactly one negative; the holdout keeps it
        # for training, so no cell lacks a negative
        assert (len(skipped), len(rows)) == (0, 8)

    def test_a_two_job_grid_leaves_the_module_as_it_was(self, mortality_ds):
        before = dict(vars(tr))
        grid = tr.GridConfig(sizes=[30], seeds=[0, 1], variants=["scratch_bat"], jobs=2)
        rows, _, _ = run_grid(mortality_ds, None, tiny_model_cfg(),
                              tiny_train_cfg(epochs=1), grid)
        assert len(rows) == 2
        after = vars(tr)
        assert after.keys() == before.keys()
        assert [k for k in before if after[k] is not before[k]] == []

    def test_saved_model_is_one_run_on_the_pool_the_cells_are_cut_from(
            self, mortality_ds, monkeypatch):
        cfg, model_cfg = tiny_train_cfg(epochs=1), tiny_model_cfg()
        finetune, trained = tr.finetune, []

        def recording_finetune(pretrained, ds, mode, train_cfg, **kwargs):
            trained.append((ds, train_cfg.seed))
            return finetune(pretrained, ds, mode, train_cfg, **kwargs)

        monkeypatch.setattr(tr, "finetune", recording_finetune)
        grid = tr.GridConfig(sizes=[30], seeds=[0], variants=["scratch_bat"],
                             save_model="scratch_transformer")
        _, _, saved = run_grid(mortality_ds, None, model_cfg, cfg, grid)
        pool, _ = dt.split_test(mortality_ds, cfg.seed)
        assert trained[-1][1] == cfg.seed
        assert [ep.patient_id for ep in trained[-1][0].episodes] == \
            [ep.patient_id for ep in pool.episodes]
        want = tr.train_variant("scratch_transformer", None, pool, cfg, model_cfg, grid)
        assert saved.best_val == want.best_val
        assert all(np.array_equal(saved.params[n], want.params[n]) for n in want.params)
        grid = replace(grid, save_model="")
        assert run_grid(mortality_ds, None, model_cfg, cfg, grid)[2] is None

    def test_saved_model_variant_is_checked_before_any_cell(self, mortality_ds,
                                                             monkeypatch):
        calls = []
        monkeypatch.setattr(tr, "train_variant", lambda *args, **kwargs: calls.append(args))
        grid = tr.GridConfig(sizes=[30], seeds=[0], variants=["scratch_bat"],
                             save_model="finetune_full")
        with pytest.raises(ValueError, match=r"variants \['finetune_full'\] require"):
            run_grid(mortality_ds, None, tiny_model_cfg(),
                     tiny_train_cfg(epochs=1), grid)
        assert calls == []

    def test_missing_checkpoint_for_finetune_variant(self, mortality_ds):
        grid = tr.GridConfig(sizes=[30], seeds=[0], variants=["finetune_full"])
        with pytest.raises(ValueError, match="require a checkpoint"):
            run_grid(mortality_ds, None, tiny_model_cfg(),
                     tiny_train_cfg(), grid)

    @pytest.mark.parametrize("setting", [{"variants": ["zero_shot"]},
                                         {"save_model": "zero_shot"}],
                             ids=["variants", "save_model"])
    def test_unknown_variant_rejected(self, setting):
        with pytest.raises(ValueError, match="unknown grid variant 'zero_shot'"):
            tr.GridConfig(sizes=[10], seeds=[0], **setting)

    def test_every_variant_has_exactly_one_learning_rate_field(self):
        rates = [f.name for f in fields(tr.GridConfig) if f.name.startswith("lr_")]
        assert rates == [f"lr_{name}" for name in tr.GRID_VARIANTS]

    @pytest.mark.parametrize("setting, message", [
        ({"jobs": 0}, "jobs must be >= 1"), ({"jobs": -3}, "jobs must be >= 1"),
        ({"sizes": [1]}, "every size must be >= 3"),
        ({"sizes": [2]}, "every size must be >= 3"),
        ({"sizes": [30, 0]}, "every size must be >= 3"),
        ({"sizes": []}, "sizes must not be empty"), ({"seeds": []}, "seeds must not be empty"),
        ({"variants": []}, "variants must not be empty"),
        ({"sizes": [30, 60, 30]}, r"sizes repeats an entry: \[30, 60, 30\]"),
        ({"seeds": [0, 0]}, r"seeds repeats an entry: \[0, 0\]"),
        ({"variants": ["scratch_bat"] * 2}, "variants repeats an entry")])
    def test_setting_that_runs_nothing_rejected(self, setting, message):
        with pytest.raises(ValueError, match=message):
            tr.GridConfig(**{"sizes": [30], "seeds": [0], **setting})

    @pytest.mark.parametrize("variant, lr", [
        ("scratch_bat", -1.0), ("scratch_bat", 0.0), ("finetune_head", float("nan"))])
    def test_bad_learning_rate_rejected_by_variant(self, variant, lr):
        with pytest.raises(ValueError, match=f"learning rate of grid variant '{variant}'"):
            tr.GridConfig(sizes=[30], seeds=[0], **{f"lr_{variant}": lr})

    def test_variants_at_one_size_and_seed_share_their_data(self, mortality_ds, checkpoint,
                                                            monkeypatch):
        """Cells are paired: every variant at one (size, seed) trains on the
        same subsample and holdout, at its own rate; seeds draw apart."""
        finetune, stratified_split = tr.finetune, dt.stratified_split
        calls, holdouts = [], []

        def recording_finetune(pretrained, ds, mode, train_cfg, **kwargs):
            calls.append((kwargs["arch"], mode, train_cfg, ds))
            return finetune(pretrained, ds, mode, train_cfg, **kwargs)

        def recording_split(ds, val_frac, rng):
            train, val = stratified_split(ds, val_frac, rng)
            holdouts.append(sorted(ep.patient_id for ep in val))
            return train, val

        monkeypatch.setattr(tr, "finetune", recording_finetune)
        monkeypatch.setattr(dt, "stratified_split", recording_split)
        rates = {name: 1e-3 * (k + 1) for k, name in enumerate(tr.GRID_VARIANTS)}
        grid = tr.GridConfig(sizes=[30, 40], seeds=[0, 1],
                             **{f"lr_{v}": lr for v, lr in rates.items()})
        rows, _, _ = run_grid(mortality_ds, checkpoint, tiny_model_cfg(),
                              tiny_train_cfg(epochs=1), grid)
        assert len(rows) == len(calls) == len(holdouts) == 2 * 2 * len(tr.GRID_VARIANTS)

        cells = {}   # (size, cell seed) -> {variant: (training ids, holdout ids)}
        for (arch, mode, cfg, ds), holdout in zip(calls, holdouts):
            variant = next(n for n, v in tr.GRID_VARIANTS.items()
                           if (v.arch, v.mode) == (arch, mode))
            assert cfg.learning_rate == rates[variant]
            ids = tuple(sorted(ep.patient_id for ep in ds.episodes))
            cells.setdefault((len(ids), cfg.seed), {})[variant] = (ids, tuple(holdout))
        assert sorted(size for size, _ in cells) == [30, 30, 40, 40]
        for variants in cells.values():
            assert sorted(variants) == sorted(tr.GRID_VARIANTS)
            assert len(set(variants.values())) == 1
        for size in (30, 40):
            subsamples = [next(iter(v.values()))[0]
                          for (n, _), v in cells.items() if n == size]
            assert subsamples[0] != subsamples[1]
