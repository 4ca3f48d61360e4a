"""Optimizer, schedules, early stopping, pretraining and fine-tuning."""

import numpy as np
import pytest

from biaxial import data as dt
from biaxial import metrics as mt
from biaxial import training as tr
from biaxial.autodiff import Tensor
from biaxial.model import BatConfig
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
        "preprocessor": result.preprocessors[result.selected_fold],
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

    def test_frozen_params_never_touched(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        opt = tr.AdamW({"a": a, "b": b}, lr=0.1, weight_decay=0.5, trainable={"a"})
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt.step()
        assert b.data[0] == 2.0
        assert a.data[0] != 1.0


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

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            tr.lr_at_epoch(1e-3, 0.0, 1)


class TestEarlyStopping:
    def test_steady_improvement_never_stops(self):
        history = [1.0 - 0.01 * i for i in range(100)]
        assert tr.early_stop_check(history, patience=10, min_delta=5e-3) == "continue"

    def test_flat_history_stops_after_patience(self):
        patience = 7
        history = [0.5] * (patience + 1)
        assert tr.early_stop_check(history, patience, 5e-3) == "stop"
        assert tr.early_stop_check(history[:-1], patience, 5e-3) == "continue"

    def test_exact_min_delta_improvement_does_not_count(self):
        # drops of exactly min_delta are not improvements
        patience = 4
        history = [1.0 - 5e-3 * i for i in range(patience + 1)]
        assert tr.early_stop_check(history, patience, 5e-3) == "stop"

    def test_incremental_matches_replay(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            trace = rng.uniform(0, 1, int(rng.integers(1, 60)))
            patience = int(rng.integers(1, 8))
            stopper = tr.EarlyStopper(patience, 5e-3)
            stopped_at = None
            for i, loss in enumerate(trace):
                if stopper.update(loss):
                    stopped_at = i
                    break
            verdict = tr.early_stop_check(trace, patience, 5e-3)
            assert (verdict == "stop") == (stopped_at is not None)

    def test_matches_independent_reference_on_random_traces(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 80))
            # mix of noise and drifting segments
            trace = np.abs(np.cumsum(rng.normal(0, 0.05, n)) + rng.uniform(0, 1))
            patience = int(rng.integers(1, 10))
            min_delta = float(rng.choice([0.0, 1e-3, 5e-3, 2e-2]))
            want = reference_stop_epoch(trace, patience, min_delta)
            stopper = tr.EarlyStopper(patience, min_delta)
            got = None
            for i, loss in enumerate(trace):
                if stopper.update(loss):
                    got = i
                    break
            assert got == want

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            tr.early_stop_check([], 3, 1e-3)


class TestPretrain:
    def test_learning_progress_and_selection(self, pooled_pretrain_ds):
        result = tr.pretrain(pooled_pretrain_ds, tiny_model_cfg(),
                             tiny_train_cfg(epochs=5), SamplerConfig())
        assert len(result.fold_results) == 5
        best = result.selected
        assert best.best_val <= min(r.best_val for r in result.fold_results)
        assert best.best_val < best.val_curve[0]
        assert best.best_val == min(best.val_curve)

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
                hours=np.arange(t, dtype=float),
                statics=np.array([60.0, 1.0, 170.0, 75.0]),
                stay_hours=float(t), label=None))
        ds = dt.Dataset.from_episodes("const", episodes,
                                      sensors=dt.SENSOR_SCHEMA[:6])
        result = tr.pretrain(ds, tiny_model_cfg(dropout=0.0, attn_dropout=0.0),
                             tiny_train_cfg(epochs=40, learning_rate=1e-2,
                                            patience=40, batch_size=16),
                             SamplerConfig(), n_folds=2)
        best = result.selected
        assert best.best_val < 0.02 * best.val_curve[0]
        assert best.best_val < 0.2

    def test_sampler_exhaustion_aborts(self):
        episodes = []
        for i in range(40):
            t = 8  # too short for min_obs_len 12
            episodes.append(dt.EpisodeRecord(
                patient_id=f"s{i}", values=np.zeros((6, t)),
                mask=np.ones((6, t), dtype=bool), hours=np.arange(t, dtype=float),
                statics=np.array([50.0, 0.0, 170.0, 70.0]),
                stay_hours=float(t), label=None))
        ds = dt.Dataset.from_episodes("short", episodes,
                                      sensors=dt.SENSOR_SCHEMA[:6])
        with pytest.raises(tr.TrainingError):
            tr.pretrain(ds, tiny_model_cfg(), tiny_train_cfg(epochs=1),
                        SamplerConfig(), n_folds=2)


class TestFinetune:
    def test_head_freeze_contract(self, checkpoint, mortality_ds):
        result = tr.finetune(checkpoint, mortality_ds, "finetune_head",
                             tiny_train_cfg(epochs=3, learning_rate=1e-2))
        for name, before in checkpoint["params"].items():
            if not name.startswith("head_cls/"):
                assert np.array_equal(result.params[name], before), name

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
        with pytest.raises(ValueError, match="requires a pretrained"):
            tr.finetune(None, mortality_ds, "finetune_full", tiny_train_cfg())

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
            stopped = tr.early_stop_check(result.val_curve, cfg.patience,
                                          cfg.min_delta) == "stop"
            assert (result.stop_reason == "early_stop") == stopped
            if stopped and len(result.val_curve) > 1:  # stops at the first "stop"
                assert tr.early_stop_check(result.val_curve[:-1], cfg.patience,
                                           cfg.min_delta) == "continue"

    def test_scratch_with_shuffled_labels_is_chance_level(self):
        base = dt.generate_synthetic(620, prevalence=0.25, mean_stay_hours=40,
                                     sparsity=0.5, seed=110, n_sensors=6)
        base = dt.apply_exclusions(base, "mortality")
        rng = np.random.default_rng(42)
        shuffled = [ep.copy() for ep in base.episodes]
        labels = rng.permutation([ep.label for ep in shuffled])
        for ep, lab in zip(shuffled, labels):
            ep.label = int(lab)
        ds = dt.Dataset.from_episodes("shuffled", shuffled, sensors=base.sensors)
        plan = dt.make_splits(ds, seed=0)
        test = dt.select_episodes(ds, plan.test_ids)
        pool = dt.Dataset.from_episodes(
            ds.name, dt.select_episodes(ds, plan.pool_ids()), sensors=ds.sensors)
        result = tr.finetune(None, pool, "scratch",
                             tiny_train_cfg(epochs=3, seed=7),
                             model_cfg=tiny_model_cfg(), test_episodes=test)
        assert 0.4 <= result.metrics.auc_roc <= 0.6

    def test_transformer_baseline_trains(self, mortality_ds):
        result = tr.finetune(None, mortality_ds, "scratch",
                             tiny_train_cfg(epochs=2),
                             model_cfg=tiny_model_cfg(), arch="transformer")
        assert len(result.val_curve) == 2

    def test_checkpoint_bundle_roundtrip(self, checkpoint, tmp_path):
        path = tmp_path / "ckpt.bax"
        tr.save_checkpoint(path, checkpoint["params"], checkpoint["preprocessor"],
                           checkpoint["model_cfg"], meta={"note": "x"})
        back = tr.load_checkpoint(path)
        assert back["model_cfg"] == checkpoint["model_cfg"]
        assert back["meta"]["note"] == "x"
        for name, arr in checkpoint["params"].items():
            assert np.array_equal(back["params"][name], arr)
        np.testing.assert_array_equal(back["preprocessor"].tv_mean,
                                      checkpoint["preprocessor"].tv_mean)


class TestExperimentGrid:
    def test_grid_shape_and_fixed_test_split(self, mortality_ds, checkpoint):
        ds, model_cfg = mortality_ds, checkpoint["model_cfg"]
        grid = tr.GridConfig(sizes=[30, 60], seeds=[0, 1],
                             variants=["finetune_head", "scratch_bat"])
        rows, aggregates = tr.run_experiment_grid(
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
            rows, aggregates = tr.run_experiment_grid(
                mortality_ds, None, tiny_model_cfg(), tiny_train_cfg(epochs=1), grid)
        assert rows == [] and aggregates == []
        assert any("skipping size" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("error", [tr.TrainingError("empty split"),
                                       dt.SubsampleError("negative class exhausted"),
                                       mt.UndefinedMetricError("no positive labels")])
    def test_infeasible_cell_skipped_with_warning(self, mortality_ds, monkeypatch,
                                                  caplog, error):
        def infeasible(size, rep, variant):
            raise error
        monkeypatch.setattr(tr, "_run_cell_inner", infeasible)
        grid = tr.GridConfig(sizes=[30], seeds=[0, 1], variants=["scratch_bat"])
        with caplog.at_level("WARNING"):
            rows, _ = tr.run_experiment_grid(
                mortality_ds, None, tiny_model_cfg(), tiny_train_cfg(epochs=1), grid)
        assert rows == []
        assert sum("skipping cell" in rec.message for rec in caplog.records) == 2

    @pytest.mark.parametrize("error", [ValueError("operands could not be broadcast"),
                                       TypeError("gelu computed in float64"),
                                       ZeroDivisionError("division by zero")])
    def test_other_cell_errors_fail_the_grid(self, mortality_ds, monkeypatch, error):
        def buggy(size, rep, variant):
            raise error
        monkeypatch.setattr(tr, "_run_cell_inner", buggy)
        grid = tr.GridConfig(sizes=[30], seeds=[0], variants=["scratch_bat"])
        with pytest.raises(type(error), match=str(error)):
            tr.run_experiment_grid(mortality_ds, None, tiny_model_cfg(),
                                   tiny_train_cfg(epochs=1), grid)

    def test_missing_checkpoint_for_finetune_variant(self, mortality_ds):
        grid = tr.GridConfig(sizes=[30], seeds=[0], variants=["finetune_full"])
        with pytest.raises(ValueError, match="require a checkpoint"):
            tr.run_experiment_grid(mortality_ds, None, tiny_model_cfg(),
                                   tiny_train_cfg(), grid)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown grid variant"):
            tr.GridConfig(sizes=[10], seeds=[0], variants=["zero_shot"])
