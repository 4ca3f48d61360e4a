"""End-to-end CLI tests: config handling, artifacts, determinism, exit codes."""

import os

import numpy as np
import pytest

from biaxial import cli
from biaxial import data as dt
from biaxial import training as tr
from biaxial.config import ConfigError, load_config
from biaxial.model import BatModel, TemporalTransformer


def run_cli(*argv):
    return cli.main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def small_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synthA"
    code = run_cli("generate", "--n", "260", "--prevalence", "0.2",
                   "--sparsity", "0.5", "--sensors-count", "6",
                   "--name", "synthA", "--seed", "11", "--out", str(out),
                   "--set", "data.mean_stay_hours=40")
    assert code == 0
    return str(out)


@pytest.fixture(scope="module")
def second_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synthB"
    code = run_cli("generate", "--n", "200", "--prevalence", "0.1",
                   "--sparsity", "0.65", "--sensors-count", "6",
                   "--name", "synthB", "--seed", "12", "--out", str(out),
                   "--set", "data.mean_stay_hours=40")
    assert code == 0
    return str(out)


@pytest.fixture(scope="module")
def pretrain_out(small_dataset_dir, second_dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "pretrain"
    code = run_cli("pretrain",
                   "--data", small_dataset_dir, "--data", second_dataset_dir,
                   "--out", str(out), "--seed", "3",
                   "--set", "model.sensors_count=6",
                   "--set", "model.value_embed_size=8",
                   "--set", "model.layers=1",
                   "--set", "model.dropout=0.1",
                   "--set", "model.attn_dropout=0.1",
                   "--set", "train.epochs=2",
                   "--set", "train.batch_size=32")
    assert code == 0
    return str(out)


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = load_config()
        assert cfg["sampler"]["min_obs_len"] == 12
        assert cfg["model"]["forecast_horizon"] == 2
        assert cfg["model"]["sensors_count"] == 48
        assert cfg["model"]["value_embed_size"] == 128
        assert cfg["train"]["batch_size"] == 64
        assert cfg["train"]["epochs"] == 200
        assert cfg["train"]["min_delta"] == 5e-3
        assert cfg["train"]["weight_decay"] == 1e-6
        assert cfg["train"]["lr_gamma"] == 0.95

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\nbatch_sise = 64\n")
        with pytest.raises(ConfigError, match="batch_sise"):
            load_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[trainer]\nepochs = 2\n")
        with pytest.raises(ConfigError, match="trainer"):
            load_config(bad)

    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[train]\nepochs = 7\nbatch_size = 16\n")
        cfg = load_config(ini, {"train.epochs": "9"})
        assert cfg["train"]["epochs"] == 9       # flag wins
        assert cfg["train"]["batch_size"] == 16  # file wins
        assert cfg["train"]["patience"] == 10    # default

    def test_echo_round_trips(self, tmp_path):
        cfg = load_config(None, {"train.learning_rate": "0.00123",
                                 "grid.sizes": "10,20",
                                 "sampler.max_obs": "none"})
        echoed = tmp_path / "echo.ini"
        echoed.write_text(cfg.to_ini())
        back = load_config(echoed)
        assert back.values == cfg.values

    def test_typed_views_validate(self):
        cfg = load_config(None, {"model.value_embed_size": "10",
                                 "model.heads": "3"})
        with pytest.raises(ConfigError, match="divisible"):
            cfg.model_cfg()
        cfg2 = load_config(None, {"sampler.forecast_horizon": "4"})
        with pytest.raises(ConfigError, match="forecast_horizon"):
            cfg2.sampler_cfg()


class TestGenerate:
    def test_artifacts_and_summary(self, small_dataset_dir, capsys):
        for fn in ("measurements.csv", "statics.csv", "labels.csv", "config.ini"):
            assert os.path.exists(os.path.join(small_dataset_dir, fn))
        ds = dt.load_dataset_dir(small_dataset_dir, sensors=dt.SENSOR_SCHEMA[:6])
        assert len(ds) == 260
        assert abs(ds.prevalence - 0.2) <= 0.01

    def test_rerun_same_seed_is_byte_identical(self, tmp_path):
        args = ("generate", "--n", "40", "--prevalence", "0.2",
                "--sensors-count", "4", "--seed", "7")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        for fn in ("measurements.csv", "statics.csv", "labels.csv"):
            assert read(a / fn) == read(b / fn)

    def test_rerun_from_echoed_config_is_byte_identical(self, tmp_path):
        out = tmp_path / "first"
        assert run_cli("generate", "--n", "40", "--prevalence", "0.2",
                       "--sensors-count", "4", "--seed", "5",
                       "--out", str(out)) == 0
        before = {fn: read(out / fn) for fn in os.listdir(out)}
        assert run_cli("generate", "--config", str(out / "config.ini")) == 0
        after = {fn: read(out / fn) for fn in os.listdir(out)}
        assert before == after

    def test_zero_prevalence_is_validation_error(self, tmp_path):
        code = run_cli("generate", "--n", "10", "--prevalence", "0",
                       "--out", str(tmp_path / "x"))
        assert code == 1

    def test_bad_override_is_validation_error(self, tmp_path):
        code = run_cli("generate", "--set", "data.bogus=1",
                       "--out", str(tmp_path / "y"))
        assert code == 1


class TestPretrain:
    def test_artifacts(self, pretrain_out):
        assert os.path.exists(os.path.join(pretrain_out, "checkpoint.bax"))
        for fold in range(5):
            assert os.path.exists(os.path.join(pretrain_out, f"fold{fold}.log"))
        log = open(os.path.join(pretrain_out, "pretrain.log")).read()
        assert "lowest masked mean squared error loss" in log
        assert "selected fold" in log

    def test_checkpoint_loads(self, pretrain_out):
        from biaxial import training as tr
        bundle = tr.load_checkpoint(os.path.join(pretrain_out, "checkpoint.bax"))
        assert bundle["meta"]["kind"] == "pretrained"
        assert bundle["model_cfg"].sensors_count == 6
        assert "embed/identity" in bundle["params"]

    def test_no_dataset_path_is_validation_error(self, tmp_path):
        assert run_cli("pretrain", "--out", str(tmp_path / "p")) == 1

    def test_held_out_dataset_never_read(self, small_dataset_dir,
                                         second_dataset_dir, tmp_path,
                                         monkeypatch):
        held_out = tmp_path / "heldout"
        assert run_cli("generate", "--n", "40", "--prevalence", "0.2",
                       "--sensors-count", "6", "--seed", "13",
                       "--name", "heldout", "--out", str(held_out)) == 0
        opened = []
        real = dt._open_rows

        def spy(path):
            opened.append(str(path))
            return real(path)

        monkeypatch.setattr(dt, "_open_rows", spy)
        out = tmp_path / "pt"
        assert run_cli("pretrain", "--data", small_dataset_dir,
                       "--out", str(out), "--seed", "1",
                       "--set", "model.sensors_count=6",
                       "--set", "model.value_embed_size=8",
                       "--set", "model.layers=1",
                       "--set", "train.epochs=1",
                       "--set", "train.batch_size=32") == 0
        assert opened, "loader was never exercised"
        assert not any(str(held_out) in p for p in opened)


class TestFinetune:
    def _finetune_args(self, data_dir, ckpt, out, extra=()):
        return ("finetune", "--data", data_dir, "--checkpoint", ckpt,
                "--out", str(out), "--seed", "2",
                "--set", "train.epochs=2",
                "--set", "train.batch_size=32",
                "--set", "grid.sizes=40",
                "--set", "grid.seeds=0,1",
                "--set", "grid.variants=finetune_head,scratch_bat",
                *extra)

    def test_grid_csvs(self, small_dataset_dir, pretrain_out, tmp_path):
        out = tmp_path / "ft"
        ckpt = os.path.join(pretrain_out, "checkpoint.bax")
        assert run_cli(*self._finetune_args(small_dataset_dir, ckpt, out)) == 0
        runs = open(out / "runs.csv").read().splitlines()
        assert runs[0] == "dataset,model,mode,size,seed,fold,auc_roc,auc_pr"
        assert len(runs) == 1 + 4  # 1 size x 2 seeds x 2 variants
        agg = open(out / "aggregate.csv").read().splitlines()
        assert agg[0].startswith("dataset,model,mode,size,n_seeds,mean_auc_pr")
        assert len(agg) == 1 + 2
        assert any(",1" == line[-2:] for line in agg[1:])  # a rank-1 row

    def test_rerun_is_byte_identical_and_inputs_untouched(
            self, small_dataset_dir, pretrain_out, tmp_path):
        ckpt = os.path.join(pretrain_out, "checkpoint.bax")
        input_bytes = read(os.path.join(small_dataset_dir, "measurements.csv"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*self._finetune_args(small_dataset_dir, ckpt, a)) == 0
        assert run_cli(*self._finetune_args(small_dataset_dir, ckpt, b)) == 0
        assert read(a / "runs.csv") == read(b / "runs.csv")
        assert read(a / "aggregate.csv") == read(b / "aggregate.csv")
        assert read(os.path.join(small_dataset_dir, "measurements.csv")) == input_bytes

    def test_missing_checkpoint_is_validation_error(self, small_dataset_dir,
                                                    tmp_path):
        code = run_cli("finetune", "--data", small_dataset_dir,
                       "--checkpoint", str(tmp_path / "nope.bax"),
                       "--out", str(tmp_path / "z"))
        assert code == 1

    def test_bad_save_model_fails_before_the_grid(self, small_dataset_dir,
                                                  pretrain_out, tmp_path):
        out = tmp_path / "typo"
        ckpt = os.path.join(pretrain_out, "checkpoint.bax")
        code = run_cli(*self._finetune_args(
            small_dataset_dir, ckpt, out, ("--set", "grid.save_model=finetune_ful")))
        assert code == 1
        assert not (out / "runs.csv").exists()
        assert not (out / "config.ini").exists()

    def test_scratch_only_grid_needs_no_checkpoint(self, small_dataset_dir,
                                                   tmp_path):
        out = tmp_path / "scratch"
        code = run_cli("finetune", "--data", small_dataset_dir,
                       "--out", str(out), "--seed", "2",
                       "--set", "model.sensors_count=6",
                       "--set", "model.value_embed_size=8",
                       "--set", "model.layers=1",
                       "--set", "train.epochs=1",
                       "--set", "train.batch_size=32",
                       "--set", "grid.sizes=40",
                       "--set", "grid.seeds=0",
                       "--set", "grid.variants=scratch_bat,scratch_transformer")
        assert code == 0
        runs = open(out / "runs.csv").read().splitlines()
        assert len(runs) == 1 + 2


@pytest.fixture(scope="module")
def classifier_ckpts(small_dataset_dir, second_dataset_dir, pretrain_out,
                     tmp_path_factory):
    ckpt = os.path.join(pretrain_out, "checkpoint.bax")
    paths = []
    for name, data_dir in (("mA", small_dataset_dir), ("mB", second_dataset_dir)):
        out = tmp_path_factory.mktemp("models") / name
        code = run_cli("finetune", "--data", data_dir, "--checkpoint", ckpt,
                       "--out", str(out), "--seed", "4",
                       "--set", "train.epochs=2",
                       "--set", "train.batch_size=32",
                       "--set", "grid.sizes=40",
                       "--set", "grid.seeds=0",
                       "--set", "grid.variants=finetune_full",
                       "--set", "grid.save_model=finetune_full")
        assert code == 0
        paths.append(str(out / "model.bax"))
    return paths


class TestEvaluate:
    def test_all_pairs_matrix(self, classifier_ckpts, small_dataset_dir,
                              second_dataset_dir, tmp_path):
        out = tmp_path / "eval"
        code = run_cli("evaluate",
                       "--checkpoint", classifier_ckpts[0],
                       "--checkpoint", classifier_ckpts[1],
                       "--data", small_dataset_dir, "--data", second_dataset_dir,
                       "--out", str(out), "--seed", "4",
                       "--set", "model.sensors_count=6")
        assert code == 0
        rows = open(out / "evaluate.csv").read().splitlines()
        assert rows[0] == "checkpoint,dataset,auc_roc,auc_pr,n_pos,n_neg,prevalence"
        assert len(rows) == 1 + 4  # 2 checkpoints x 2 datasets

    def test_missing_dataset_is_validation_error(self, classifier_ckpts, tmp_path):
        code = run_cli("evaluate", "--checkpoint", classifier_ckpts[0],
                       "--data", str(tmp_path / "missing"),
                       "--out", str(tmp_path / "e"))
        assert code == 1

    @pytest.mark.parametrize("variant", ["finetune_full", "finetune_head",
                                         "scratch_bat", "scratch_transformer"])
    def test_saved_model_of_each_variant_evaluates(self, small_dataset_dir,
                                                   pretrain_out, tmp_path,
                                                   monkeypatch, variant):
        arch, model_cls = (("transformer", TemporalTransformer)
                           if variant == "scratch_transformer" else ("bat", BatModel))
        code = run_cli("finetune", "--data", small_dataset_dir,
                       "--checkpoint", os.path.join(pretrain_out, "checkpoint.bax"),
                       "--out", str(tmp_path / "ft"), "--seed", "4",
                       "--set", "train.epochs=1",
                       "--set", "train.batch_size=32",
                       "--set", "grid.sizes=40",
                       "--set", "grid.seeds=0",
                       "--set", f"grid.variants={variant}",
                       "--set", f"grid.save_model={variant}")
        assert code == 0
        model_path = str(tmp_path / "ft" / "model.bax")
        meta = tr.load_checkpoint(model_path)["meta"]
        assert (meta["arch"], meta["variant"]) == (arch, variant)

        loaded = []
        real = tr.predict_probs

        def spy(model, *args, **kwargs):
            loaded.append(type(model))
            return real(model, *args, **kwargs)

        monkeypatch.setattr(tr, "predict_probs", spy)
        code = run_cli("evaluate", "--checkpoint", model_path,
                       "--data", small_dataset_dir,
                       "--out", str(tmp_path / "ev"), "--seed", "4")
        assert code == 0
        assert loaded == [model_cls]
        rows = open(tmp_path / "ev" / "evaluate.csv").read().splitlines()
        assert len(rows) == 1 + 1

    def test_requires_checkpoint_and_data(self, tmp_path):
        assert run_cli("evaluate", "--out", str(tmp_path / "x")) == 1
