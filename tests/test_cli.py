"""End-to-end CLI tests: config handling, artifacts, determinism, exit codes."""

import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from biaxial import cli, config
from biaxial import data as dt
from biaxial import training as tr
from biaxial.config import SCHEMA, ConfigError, load_config
from biaxial.model import BatConfig, TemporalTransformer
from biaxial.sampler import SamplerConfig


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
def eight_stay_dir(tmp_path_factory):
    """A 2-sensor cohort left with 4 stays after exclusions: below the
    ten-stay floor of the test cut and the pretraining folds."""
    out = tmp_path_factory.mktemp("data") / "eight"
    assert run_cli("generate", "--n", "8", "--prevalence", "0.25", "--sensors-count", "2",
                   "--seed", "3", "--out", str(out)) == 0
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


# a valid value other than the default for every config key, as --set takes it
NON_DEFAULT = {
    "data.paths": "a,b", "data.checkpoint": "c.bax", "data.n": "100",
    "data.prevalence": "0.3", "data.mean_stay_hours": "36.5", "data.sparsity": "0.25",
    "data.availability_profile": "2", "data.name": "other",
    "model.sensors_count": "6", "model.value_embed_size": "64", "model.layers": "3",
    "model.heads": "2", "model.dropout": "0.1", "model.attn_dropout": "0.05",
    "model.pooling": "mean", "model.use_mask": "true", "model.forecast_horizon": "3",
    "sampler.min_obs_len": "6", "sampler.max_obs": "24",
    "train.batch_size": "16", "train.epochs": "3", "train.patience": "2",
    "train.min_delta": "0.01", "train.learning_rate": "0.001", "train.weight_decay": "0.0",
    "train.lr_gamma": "0.5", "train.seed": "7", "train.weighted_loss": "false",
    "train.standardization": "inherit",
    "grid.sizes": "10,20", "grid.seeds": "3", "grid.variants": "scratch_bat,finetune_head",
    "grid.lr_finetune_full": "0.01", "grid.lr_finetune_head": "0.02",
    "grid.lr_scratch_bat": "0.03", "grid.lr_scratch_transformer": "0.04",
    "grid.jobs": "2", "grid.save_model": "scratch_bat",
    "output.dir": "elsewhere",
}


# a value its section rejects, and the start of the message, for the
# sections that generate never reads
BAD_SETTING = {
    "train.epochs": ("0", "epochs must be >= 1"),
    "grid.jobs": ("0", "jobs must be >= 1"),
    "model.value_embed_size": ("3", "value_embed_size must be even"),
    "sampler.min_obs_len": ("0", "min_obs_len must be >= 1"),
}

# (key, a value [data] rejects, the start of the message): the rules
# generate_synthetic draws under, which every command checks; n=7 cannot
# reach the default prevalence 0.119
BAD_DATA = [
    ("data.n", "0", "n must be >= 1"),
    ("data.prevalence", "1", "prevalence must be in (0, 1)"),
    ("data.sparsity", "1", "sparsity must be in [0, 1)"),
    *(("data.mean_stay_hours", hours, "mean_stay_hours must be in [31, 336]")
      for hours in ("0", "30", "337")),
    ("data.n", "7", "cannot calibrate prevalence 0.119 with n=7"),
]


def field_value(cfg, dotted):
    """The value a key reaches as its section's field."""
    section, key = dotted.split(".")
    return getattr(getattr(cfg, section), key)


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = load_config()
        assert cfg.sampler.min_obs_len == 12
        assert cfg.model.forecast_horizon == 2
        assert cfg.model.sensors_count == 48
        assert cfg.model.value_embed_size == 128
        assert cfg.train.batch_size == 64
        assert cfg.train.epochs == 200
        assert cfg.train.min_delta == 5e-3
        assert cfg.train.weight_decay == 1e-6
        assert cfg.train.lr_gamma == 0.95

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
        assert cfg.train.epochs == 9       # flag wins
        assert cfg.train.batch_size == 16  # file wins
        assert cfg.train.patience == 10    # default

    def test_echo_round_trips(self, tmp_path):
        cfg = load_config(None, {"train.learning_rate": "0.00123",
                                 "grid.sizes": "10,20",
                                 "sampler.max_obs": "none"})
        echoed = tmp_path / "echo.ini"
        echoed.write_text(cfg.to_ini())
        back = load_config(echoed)
        assert back == cfg

    def test_typed_views_validate(self):
        """load_config builds every section, so it rejects a bad value itself."""
        with pytest.raises(ConfigError, match=r"\[model\] .*divisible"):
            load_config(None, {"model.value_embed_size": "10", "model.heads": "3"})
        cfg2 = load_config(None, {"model.forecast_horizon": "4"})
        assert cfg2.sampler.forecast_horizon == 4
        with pytest.raises(ConfigError, match=r"\[model\] .*forecast horizon"):
            load_config(None, {"model.forecast_horizon": "0"})
        with pytest.raises(ConfigError, match="sampler.forecast_horizon: unknown config key"):
            load_config(None, {"sampler.forecast_horizon": "4"})
        for dotted, raw, message in [(d, *bad) for d, bad in BAD_SETTING.items()] + BAD_DATA:
            with pytest.raises(ConfigError, match=rf"^\[{dotted.split('.')[0]}\] "
                                                  rf"{re.escape(message)}"):
                load_config(None, {dotted: raw})

    def test_default_typed_views_are_the_dataclass_defaults(self):
        cfg = load_config()
        assert cfg.data == config.DataConfig()
        assert cfg.model == BatConfig()
        assert cfg.sampler == SamplerConfig()
        assert cfg.train == tr.TrainConfig()
        assert cfg.grid == tr.GridConfig()
        assert cfg.output == config.OutputConfig()

    def test_dataclass_sections_are_their_fields_in_order(self):
        for section, cls, omitted in [("data", config.DataConfig, set()),
                                      ("model", BatConfig, {"static_count"}),
                                      ("sampler", SamplerConfig, {"forecast_horizon"}),
                                      ("train", tr.TrainConfig, set()),
                                      ("grid", tr.GridConfig, set()),
                                      ("output", config.OutputConfig, set())]:
            assert list(SCHEMA[section]) == [
                f.name for f in fields(cls) if f.name not in omitted]

    def test_default_grid_echo_lists_its_keys_in_order(self):
        ini = load_config().to_ini()
        grid = ini[ini.index("[grid]\n"):].split("\n\n")[0].splitlines()[1:]
        assert [line.split(" = ")[0] for line in grid] == [
            "sizes", "seeds", "variants", *(f"lr_{name}" for name in tr.GRID_VARIANTS),
            "jobs", "save_model"]

    def test_field_of_no_config_kind_is_rejected(self):
        @dataclass
        class Odd:
            shape: "tuple[int, int]" = (1, 2)
        with pytest.raises(TypeError, match="Odd.shape"):
            config._keys_of(Odd)

    def test_non_default_table_names_every_key(self):
        assert set(NON_DEFAULT) == {f"{section}.{key}"
                                    for section, keys in SCHEMA.items() for key in keys}

    @pytest.mark.parametrize("dotted", sorted(NON_DEFAULT))
    def test_set_value_reaches_its_view_and_round_trips(self, dotted, tmp_path):
        args = cli.build_parser().parse_args(
            ["generate", "--set", f"{dotted}={NON_DEFAULT[dotted]}"])
        cfg = load_config(args.config, cli._overrides_from_args(args))
        section, key = dotted.split(".")
        kind, default = SCHEMA[section][key]
        assert field_value(cfg, dotted) != default
        assert field_value(cfg, dotted) == config._parse_value(kind, NON_DEFAULT[dotted], dotted)
        echoed = tmp_path / "echo.ini"
        echoed.write_text(cfg.to_ini(), encoding="utf-8")
        assert load_config(echoed) == cfg

    @pytest.mark.parametrize("text", [
        "[train]\nepochs = 2\nepochs = 3\n", "[train]\nepochs = 2\n[train]\nseed = 1\n",
        "epochs = 2\n[train]\n", "[train]\nepochs\n"],
        ids=["duplicate_key", "duplicate_section", "line_before_a_section", "line_without_equals"])
    def test_malformed_file_is_validation_error(self, text, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(bad)
        assert str(exc.value).startswith(f"malformed config file {bad}: ")
        out = tmp_path / "out"
        assert run_cli("generate", "--config", str(bad), "--out", str(out)) == 1
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_key_in_another_case_is_rejected_in_a_file_as_in_a_flag(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[train]\nEpochs = 3\n", encoding="utf-8")
        out = tmp_path / "out"
        args = ("generate", "--n", "50", "--prevalence", "0.2", "--sensors-count", "4",
                "--out", str(out))
        assert run_cli(*args, "--config", str(ini)) == 1
        assert "[train] Epochs: unknown config key" in capsys.readouterr().err
        assert run_cli(*args, "--set", "train.Epochs=3") == 1
        assert "train.Epochs: unknown config key" in capsys.readouterr().err
        assert not out.exists()

    def test_percent_is_read_literally(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[data]\nname = icu%a\npaths = 100%%,%(x)s\n", encoding="utf-8")
        cfg = load_config(ini)
        assert (cfg.data.name, cfg.data.paths) == ("icu%a", ["100%%", "%(x)s"])


class TestGenerate:
    def test_artifacts_and_summary(self, small_dataset_dir, capsys):
        for fn in ("measurements.csv", "statics.csv", "labels.csv", "config.ini"):
            assert os.path.exists(os.path.join(small_dataset_dir, fn))
        ds = dt.load_dataset_dir(small_dataset_dir, 6, labeled=True)
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

    def test_rerun_from_an_echo_holding_percent_signs_is_byte_identical(self, tmp_path):
        """A dataset name and a directory holding "%" are echoed as given and
        read back literally, not interpolated."""
        first, rerun = tmp_path / "100%a", tmp_path / "rerun"
        assert run_cli("generate", "--n", "40", "--prevalence", "0.2", "--name", "icu%a",
                       "--sensors-count", "4", "--seed", "5", "--out", str(first)) == 0
        echo = (first / "config.ini").read_text(encoding="utf-8")
        assert "name = icu%a\n" in echo and f"dir = {first}\n" in echo
        assert run_cli("generate", "--config", str(first / "config.ini"),
                       "--out", str(rerun)) == 0
        for fn in ("measurements.csv", "statics.csv", "labels.csv"):
            assert read(first / fn) == read(rerun / fn)
        assert (rerun / "config.ini").read_text(encoding="utf-8") == \
            echo.replace(f"dir = {first}\n", f"dir = {rerun}\n")

    def test_output_dir_holding_a_comma_fails_before_any_write(self, tmp_path, capsys):
        """data.paths and data.checkpoint are comma-joined lists, so no
        command could read such a directory back."""
        assert run_cli("generate", "--n", "50", "--prevalence", "0.2",
                       "--sensors-count", "4", "--out", str(tmp_path / "x,y")) == 1
        assert "[output] dir must not hold ','" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_zero_prevalence_is_validation_error(self, tmp_path):
        code = run_cli("generate", "--n", "10", "--prevalence", "0",
                       "--out", str(tmp_path / "x"))
        assert code == 1

    def test_bad_override_is_validation_error(self, tmp_path):
        code = run_cli("generate", "--set", "data.bogus=1",
                       "--out", str(tmp_path / "y"))
        assert code == 1

    def test_unreachable_prevalence_fails_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run_cli("generate", "--n", "10", "--prevalence", "0.119",
                       "--sensors-count", "4", "--out", str(out)) == 1
        assert "cannot calibrate prevalence 0.119 with n=10" in capsys.readouterr().err
        assert not out.exists()

    def test_non_positive_mean_stay_fails_before_any_write(self, tmp_path, capsys):
        """A mean stay of 0 h would clip every drawn stay to 31 h."""
        out = tmp_path / "g"
        assert run_cli("generate", "--n", "60", "--prevalence", "0.2", "--sensors-count", "4",
                       "--set", "data.mean_stay_hours=0", "--out", str(out)) == 1
        assert "[data] mean_stay_hours must be in [31, 336]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_no_episodes_fails_before_the_config_echo(self, tmp_path, capsys, n):
        out = tmp_path / "g"
        assert run_cli("generate", "--n", n, "--prevalence", "0.2", "--out", str(out)) == 1
        assert f"n must be >= 1, got {n}" in capsys.readouterr().err
        assert not out.exists()


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
        real = dt.read_table

        def spy(path, *args, **kwargs):
            opened.append(str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(dt, "read_table", spy)
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

    @pytest.mark.parametrize("corpus, sensors, extra, left", [
        ("eight_stay_dir", 2, (), 4),
        ("small_dataset_dir", 6, ("--set", "sampler.min_obs_len=400"), 0)],
        ids=["too_few_stays", "no_stay_can_anchor"])
    def test_corpus_below_the_fold_floor_fails_before_any_write(
            self, request, tmp_path, capsys, corpus, sensors, extra, left):
        """Too few stays and no stay that can anchor a window are one input
        error, raised before config.ini is written."""
        out = tmp_path / "p"
        assert run_cli("pretrain", "--data", request.getfixturevalue(corpus),
                       "--out", str(out), "--set", f"model.sensors_count={sensors}",
                       *extra) == 1
        assert f"need at least 10 episodes to split, got {left}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "-8"])
    def test_embed_size_below_two_fails_before_any_write(self, small_dataset_dir, tmp_path,
                                                         capsys, size):
        out = tmp_path / "p"
        assert run_cli("pretrain", "--data", small_dataset_dir, "--out", str(out),
                       "--set", "model.sensors_count=6",
                       "--set", f"model.value_embed_size={size}") == 1
        assert f"[model] value_embed_size must be >= 2, got {size}" in capsys.readouterr().err
        assert not out.exists()

    def test_sensor_count_beyond_the_schema_fails_before_the_config_echo(
            self, small_dataset_dir, tmp_path, capsys):
        out = tmp_path / "p"
        assert run_cli("pretrain", "--data", small_dataset_dir, "--out", str(out),
                       "--set", "model.sensors_count=60") == 1
        assert (f"{small_dataset_dir}: sensor count must be in [1, 48], got 60"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zero_epochs_is_validation_error(self, small_dataset_dir, tmp_path, capsys):
        out = tmp_path / "p"
        assert run_cli("pretrain", "--data", small_dataset_dir, "--out", str(out),
                       "--set", "model.sensors_count=6", "--set", "model.value_embed_size=8",
                       "--set", "model.layers=1", "--set", "train.epochs=0") == 1
        assert "[train] epochs" in capsys.readouterr().err
        assert not os.path.exists(out / "checkpoint.bax")


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

    @pytest.mark.parametrize("setting", [
        "batch_size=0", "batch_size=-1", "epochs=0", "patience=0", "learning_rate=0",
        "learning_rate=-0.001", "min_delta=-0.001", "weight_decay=-1e-06"])
    def test_bad_training_setting_is_validation_error(self, small_dataset_dir, tmp_path,
                                                      capsys, setting):
        out = tmp_path / "ft"
        small = ["model.sensors_count=6", "model.value_embed_size=8", "model.layers=1",
                 "train.epochs=1", "grid.sizes=40", "grid.seeds=0",
                 "grid.variants=scratch_bat", f"train.{setting}"]
        assert run_cli("finetune", "--data", small_dataset_dir, "--out", str(out),
                       *[x for item in small for x in ("--set", item)]) == 1
        assert f"[train] {setting.split('=')[0]}" in capsys.readouterr().err
        assert not os.path.exists(out / "runs.csv")

    @pytest.mark.parametrize("args", [
        ("--jobs", "0"), ("--jobs", "-3"), ("--set", "grid.sizes=1"),
        ("--set", "grid.sizes=2"), ("--set", "grid.sizes=40,1"), ("--set", "grid.sizes="),
        ("--set", "grid.seeds="), ("--set", "grid.variants=")])
    def test_grid_that_runs_nothing_is_validation_error(self, small_dataset_dir, tmp_path,
                                                        capsys, args):
        out = tmp_path / "ft"
        small = ["model.sensors_count=6", "train.epochs=1", "grid.sizes=40",
                 "grid.seeds=0", "grid.variants=scratch_bat"]
        assert run_cli("finetune", "--data", small_dataset_dir, "--out", str(out),
                       *[x for item in small for x in ("--set", item)], *args) == 1
        assert "[grid]" in capsys.readouterr().err
        assert not os.path.exists(out / "runs.csv")

    def test_cohort_below_the_test_cut_floor_fails_before_any_write(
            self, eight_stay_dir, tmp_path, capsys):
        out = tmp_path / "ft"
        assert run_cli("finetune", "--data", eight_stay_dir, "--out", str(out),
                       "--set", "model.sensors_count=2", "--set", "grid.variants=scratch_bat",
                       "--set", "grid.sizes=5", "--set", "grid.seeds=0") == 1
        assert "need at least 10 episodes to split, got 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("sizes", "30,30"), ("seeds", "0,1,0"), ("variants", "scratch_bat,scratch_bat")])
    def test_repeated_grid_entry_fails_before_the_config_echo(self, small_dataset_dir,
                                                              tmp_path, capsys, key, value):
        out = tmp_path / "ft"
        assert run_cli("finetune", "--data", small_dataset_dir, "--out", str(out),
                       "--set", "model.sensors_count=6", "--set", f"grid.{key}={value}") == 1
        assert f"[grid] {key} repeats an entry" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_learning_rate_fails_before_any_work(self, small_dataset_dir,
                                                          tmp_path, capsys):
        out = tmp_path / "ft"
        small = ["model.sensors_count=6", "train.epochs=1", "grid.sizes=20,40",
                 "grid.seeds=0", "grid.variants=scratch_transformer,scratch_bat",
                 "grid.lr_scratch_bat=-1"]
        assert run_cli("finetune", "--data", small_dataset_dir, "--out", str(out),
                       *[x for item in small for x in ("--set", item)]) == 1
        assert "'scratch_bat'" in capsys.readouterr().err
        assert not (out / "config.ini").exists()

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

    def test_echo_names_the_checkpoints_model_and_reruns_byte_identical(
            self, small_dataset_dir, pretrain_out, tmp_path, caplog):
        """The grid trains the checkpoint's model, whatever [model] the
        command was given; a warning names the given value it drops, and
        config.ini names the checkpoint's."""
        ckpt = os.path.join(pretrain_out, "checkpoint.bax")
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        with caplog.at_level("WARNING"):
            assert run_cli(*self._finetune_args(small_dataset_dir, ckpt, first,
                                                ("--set", "model.dropout=0.05"))) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "dropout=0.05 (checkpoint: 0.1)" in warnings[0]
        assert load_config(first / "config.ini").model == tr.load_checkpoint(ckpt)["model_cfg"]
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert run_cli("finetune", "--config", str(first / "config.ini"),
                           "--out", str(rerun)) == 0
        assert [r for r in caplog.records if r.levelname == "WARNING"] == []
        for fn in ("runs.csv", "aggregate.csv"):
            assert read(first / fn) == read(rerun / fn)

    def test_more_than_one_checkpoint_fails_before_the_config_echo(
            self, small_dataset_dir, tmp_path, capsys):
        out = tmp_path / "ft"
        assert run_cli("finetune", "--data", small_dataset_dir, "--out", str(out),
                       "--set", "data.checkpoint=a.bax,b.bax") == 1
        assert "finetune takes at most one checkpoint" in capsys.readouterr().err
        assert not out.exists()

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

    def test_save_model_needing_a_checkpoint_fails_before_the_grid(
            self, small_dataset_dir, tmp_path):
        out = tmp_path / "nockpt"
        code = run_cli("finetune", "--data", small_dataset_dir,
                       "--out", str(out), "--seed", "2",
                       "--set", "model.sensors_count=6",
                       "--set", "model.value_embed_size=8",
                       "--set", "model.layers=1",
                       "--set", "train.epochs=1",
                       "--set", "train.batch_size=32",
                       "--set", "grid.sizes=40",
                       "--set", "grid.seeds=0",
                       "--set", "grid.variants=scratch_bat",
                       "--set", "grid.save_model=finetune_full")
        assert code == 1
        assert not (out / "runs.csv").exists()
        assert not (out / "config.ini").exists()

    @pytest.mark.parametrize("grid, scratch", [
        ([], "['scratch_bat', 'scratch_transformer']"),
        (["grid.variants=finetune_head", "grid.save_model=scratch_bat"], "['scratch_bat']"),
    ], ids=["default_variants", "saved_scratch_model"])
    def test_inherit_with_a_scratch_variant_fails_before_any_work(
            self, small_dataset_dir, pretrain_out, tmp_path, capsys, grid, scratch):
        out = tmp_path / "ft"
        small = ["train.epochs=1", "train.standardization=inherit", "grid.sizes=40",
                 "grid.seeds=0", *grid]
        assert run_cli("finetune", "--data", small_dataset_dir,
                       "--checkpoint", os.path.join(pretrain_out, "checkpoint.bax"),
                       "--out", str(out), *[x for item in small for x in ("--set", item)]) == 1
        assert f"variants {scratch} train from scratch" in capsys.readouterr().err
        assert not (out / "config.ini").exists()

    def test_inherit_runs_the_finetuning_variants(self, small_dataset_dir, pretrain_out,
                                                  tmp_path):
        out = tmp_path / "ft"
        assert run_cli(*self._finetune_args(
            small_dataset_dir, os.path.join(pretrain_out, "checkpoint.bax"), out,
            ("--set", "train.standardization=inherit",
             "--set", "grid.variants=finetune_full,finetune_head"))) == 0
        assert len(open(out / "runs.csv").read().splitlines()) == 1 + 4

    def test_test_split_without_a_class_fails_before_any_cell(self, tmp_path, capsys):
        data, out = tmp_path / "rare", tmp_path / "ft"
        # 45 stays with 1 positive, which the unstratified test cut leaves out
        assert run_cli("generate", "--n", "60", "--prevalence", "0.02",
                       "--sensors-count", "4", "--seed", "1", "--out", str(data)) == 0
        small = ["model.sensors_count=4", "model.value_embed_size=8", "model.layers=1",
                 "train.epochs=1", "grid.sizes=20", "grid.seeds=0,1",
                 "grid.variants=scratch_bat,scratch_transformer"]
        assert run_cli("finetune", "--data", str(data), "--out", str(out),
                       *[x for item in small for x in ("--set", item)]) == 2
        assert "lacks a class: 0 positive, 9 negative" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_no_size_of_which_fits_fails_before_the_config_echo(
            self, small_dataset_dir, tmp_path, capsys):
        out = tmp_path / "ft"
        small = ["model.sensors_count=6", "train.epochs=1", "grid.sizes=1000,2000",
                 "grid.seeds=0", "grid.variants=scratch_bat", "grid.save_model=scratch_bat"]
        assert run_cli("finetune", "--data", small_dataset_dir, "--out", str(out),
                       *[x for item in small for x in ("--set", item)]) == 1
        assert ("no size of grid.sizes [1000, 2000] fits the training pool of cohort "
                "'synthA'") in capsys.readouterr().err
        assert not out.exists()

    def test_model_sensor_the_cohort_never_names_fails_before_any_work(self, tmp_path,
                                                                       capsys):
        data, out = tmp_path / "four", tmp_path / "ft"
        assert run_cli("generate", "--n", "60", "--prevalence", "0.2",
                       "--sensors-count", "4", "--seed", "1", "--out", str(data)) == 0
        small = ["model.value_embed_size=8", "model.layers=1", "train.epochs=1",
                 "grid.sizes=20", "grid.seeds=0", "grid.variants=scratch_bat"]
        assert run_cli("finetune", "--data", str(data), "--out", str(out),
                       *[x for item in small for x in ("--set", item)]) == 1
        err = capsys.readouterr().err
        assert str(data) in err
        assert "names 4 sensors, but model.sensors_count is 48" in err
        assert not (out / "config.ini").exists()

    def test_two_jobs_write_the_same_csvs_as_one(self, small_dataset_dir,
                                                  pretrain_out, tmp_path):
        ckpt = os.path.join(pretrain_out, "checkpoint.bax")
        one, two = tmp_path / "one", tmp_path / "two"
        saved = ("--set", "grid.save_model=finetune_head")
        assert run_cli(*self._finetune_args(small_dataset_dir, ckpt, one,
                                            ("--jobs", "1", *saved))) == 0
        assert run_cli(*self._finetune_args(small_dataset_dir, ckpt, two,
                                            ("--jobs", "2", *saved))) == 0
        assert len(read(one / "runs.csv").splitlines()) == 1 + 4
        for fn in ("runs.csv", "aggregate.csv", "model.bax"):
            assert read(one / fn) == read(two / fn)

    def test_the_cohort_is_cut_once_for_the_grid_and_the_saved_model(
            self, small_dataset_dir, pretrain_out, tmp_path, monkeypatch):
        cuts, split_test = [], dt.split_test
        monkeypatch.setattr(dt, "split_test",
                            lambda *args, **kwargs: cuts.append(args) or
                            split_test(*args, **kwargs))
        out = tmp_path / "ft"
        assert run_cli(*self._finetune_args(
            small_dataset_dir, os.path.join(pretrain_out, "checkpoint.bax"), out,
            ("--set", "grid.save_model=scratch_bat"))) == 0
        assert len(cuts) == 1
        assert tr.load_checkpoint(out / "model.bax", "classifier")["meta"]["split_seed"] == 2

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
                              second_dataset_dir, tmp_path, monkeypatch):
        loaded = []
        real = dt.load_dataset_dir
        monkeypatch.setattr(dt, "load_dataset_dir",
                            lambda path, *a, **k: loaded.append(path) or real(path, *a, **k))
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
        assert loaded == [small_dataset_dir, second_dataset_dir]  # once for both 6-sensor models

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
        arch = "transformer" if variant == "scratch_transformer" else "bat"
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

        def spy(arch_name, *args, **kwargs):
            loaded.append(arch_name)
            return real(arch_name, *args, **kwargs)

        monkeypatch.setattr(tr, "predict_probs", spy)
        code = run_cli("evaluate", "--checkpoint", model_path,
                       "--data", small_dataset_dir,
                       "--out", str(tmp_path / "ev"), "--seed", "4")
        assert code == 0
        assert loaded == [arch]
        rows = open(tmp_path / "ev" / "evaluate.csv").read().splitlines()
        assert len(rows) == 1 + 1

    def test_cut_checkpoint_is_validation_error(self, classifier_ckpts, small_dataset_dir,
                                                tmp_path, capsys):
        cut = tmp_path / "cut.bax"
        cut.write_bytes(read(classifier_ckpts[0])[:12])  # inside the length field
        code = run_cli("evaluate", "--checkpoint", str(cut), "--data", small_dataset_dir,
                       "--out", str(tmp_path / "e"))
        assert code == 1
        assert f"{cut}: damaged checkpoint" in capsys.readouterr().err

    def test_test_split_seed_comes_from_the_checkpoint(self, classifier_ckpts,
                                                       small_dataset_dir, tmp_path):
        assert tr.load_checkpoint(classifier_ckpts[0])["meta"]["split_seed"] == 4
        for seed in ("0", "1"):
            assert run_cli("evaluate", "--checkpoint", classifier_ckpts[0],
                           "--data", small_dataset_dir,
                           "--out", str(tmp_path / seed), "--seed", seed) == 0
        assert read(tmp_path / "0" / "evaluate.csv") == read(tmp_path / "1" / "evaluate.csv")

    def test_checkpoint_without_split_seed_is_validation_error(
            self, classifier_ckpts, small_dataset_dir, tmp_path, capsys):
        bundle = tr.load_checkpoint(classifier_ckpts[0])
        old = tmp_path / "old.bax"
        tr.save_checkpoint(old, bundle["params"], bundle["preprocessor"], bundle["model_cfg"],
                           meta={k: v for k, v in bundle["meta"].items() if k != "split_seed"})
        out = tmp_path / "e"
        assert run_cli("evaluate", "--checkpoint", str(old), "--data", small_dataset_dir,
                       "--out", str(out)) == 1
        assert f"{old} records no split_seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("arch, message", [
        ("lstm", "unknown model arch 'lstm'"),
        ("transformer", "parameter 'head/b' is (1,) here, but absent in a 'transformer'"),
    ], ids=["unknown_arch", "old_head_names"])
    def test_checkpoint_not_fitting_its_arch_fails_before_any_work(
            self, classifier_ckpts, small_dataset_dir, tmp_path, capsys, arch, message):
        bundle = tr.load_checkpoint(classifier_ckpts[0])
        params = bundle["params"]
        if arch == "transformer":           # a baseline saved under the old head names
            params = TemporalTransformer.init(bundle["model_cfg"],
                                              np.random.default_rng(0)).state_arrays()
            params = {n.replace("head_cls/", "head/"): a for n, a in params.items()}
        ckpt = tmp_path / "model.bax"
        tr.save_checkpoint(ckpt, params, bundle["preprocessor"], bundle["model_cfg"],
                           meta={**bundle["meta"], "arch": arch})
        out = tmp_path / "e"
        assert run_cli("evaluate", "--checkpoint", str(ckpt), "--data", small_dataset_dir,
                       "--out", str(out)) == 1
        assert f"{ckpt}: {message}" in capsys.readouterr().err
        assert not (out / "config.ini").exists()

    def test_cohort_without_a_model_sensor_fails_before_the_config_echo(
            self, classifier_ckpts, tmp_path, capsys):
        data, out = tmp_path / "four", tmp_path / "e"
        assert run_cli("generate", "--n", "60", "--prevalence", "0.2",
                       "--sensors-count", "4", "--seed", "1", "--out", str(data)) == 0
        assert run_cli("evaluate", "--checkpoint", classifier_ckpts[0], "--data", str(data),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"{data}: measurements.csv names 4 sensors, but model.sensors_count is 6" in err
        assert not out.exists()

    def test_test_split_without_a_class_fails_before_the_config_echo(
            self, classifier_ckpts, tmp_path, capsys):
        data, out = tmp_path / "rare", tmp_path / "e"
        # 50 stays with 1 positive, which the unstratified cut at the
        # checkpoint's split seed, 4, leaves out of the test split
        assert run_cli("generate", "--n", "60", "--prevalence", "0.02", "--sensors-count", "6",
                       "--seed", "1", "--name", "rare", "--out", str(data)) == 0
        assert run_cli("evaluate", "--checkpoint", classifier_ckpts[0], "--data", str(data),
                       "--out", str(out)) == 2
        assert ("the test split of cohort 'rare' lacks a class: 0 positive, 10 negative"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_preprocessor_of_another_shape_fails_before_the_config_echo(
            self, classifier_ckpts, small_dataset_dir, tmp_path, capsys):
        """Broadcasting a one-entry mean and std would standardize every
        sensor with sensor 0's statistics and score the model anyway."""
        bundle = tr.load_checkpoint(classifier_ckpts[0])
        pp = bundle["preprocessor"]
        cut = tmp_path / "cut.bax"
        tr.save_checkpoint(cut, bundle["params"],
                           replace(pp, tv_mean=pp.tv_mean[:1], tv_std=pp.tv_std[:1]),
                           bundle["model_cfg"], meta=bundle["meta"])
        out = tmp_path / "out"
        assert run_cli("evaluate", "--data", small_dataset_dir, "--checkpoint", str(cut),
                       "--out", str(out)) == 1
        assert f"{cut}: preprocessor entry 'preproc/tv_mean' is (1,)" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_requires_checkpoint_and_data(self, tmp_path):
        assert run_cli("evaluate", "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:-1], "labels.csv: no label for patient"),
        (lambda rows: rows + ["ghost,1"], "missing from statics"),
        (lambda rows: rows + [rows[-1]], "duplicate patient_id"),
    ], ids=["missing", "unknown", "duplicate"])
    def test_labels_not_matching_statics_is_validation_error(
            self, classifier_ckpts, small_dataset_dir, tmp_path, capsys, edit, message):
        data = tmp_path / "synthA"
        shutil.copytree(small_dataset_dir, data)
        rows = (data / "labels.csv").read_text(encoding="utf-8").splitlines()
        (data / "labels.csv").write_text("\n".join(edit(rows)) + "\n", encoding="utf-8")
        code = run_cli("evaluate", "--checkpoint", classifier_ckpts[0], "--data", str(data),
                       "--out", str(tmp_path / "e"))
        assert code == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, found, expected", [
    ("finetune", "classifier", "pretrained"), ("evaluate", "pretrained", "classifier")])
def test_checkpoint_of_the_other_kind_is_validation_error(
        command, found, expected, pretrain_out, classifier_ckpts, small_dataset_dir,
        tmp_path, capsys):
    ckpt = (classifier_ckpts[0] if found == "classifier"
            else os.path.join(pretrain_out, "checkpoint.bax"))
    out = tmp_path / "out"
    code = run_cli(command, "--data", small_dataset_dir, "--checkpoint", ckpt,
                   "--out", str(out))
    assert code == 1
    assert f"{ckpt} is a '{found}' checkpoint; expected a '{expected}' one" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["finetune", "evaluate"])
def test_directory_as_checkpoint_is_validation_error(command, small_dataset_dir,
                                                     tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(command, "--data", small_dataset_dir, "--checkpoint", str(tmp_path),
                   "--out", str(out))
    assert code == 1
    assert f"checkpoint not found (no such file): {tmp_path}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("pretrain", "--data"), ("finetune", "--data"), ("finetune", "--checkpoint"),
    ("evaluate", "--data"), ("evaluate", "--checkpoint")])
def test_a_path_flag_holding_a_comma_is_rejected_whole(
        command, flag, pretrain_out, classifier_ckpts, small_dataset_dir,
        second_dataset_dir, tmp_path, capsys):
    """A --data or --checkpoint flag names one path. Split at ',', this
    --data value would name two real cohorts, which pretrain would pool."""
    inputs = {
        "pretrain": {"--data": small_dataset_dir, "--set": "model.sensors_count=6"},
        "finetune": {"--data": small_dataset_dir,
                     "--checkpoint": os.path.join(pretrain_out, "checkpoint.bax")},
        "evaluate": {"--data": small_dataset_dir, "--checkpoint": classifier_ckpts[0]},
    }[command]
    value = inputs[flag] = {"--data": f"{small_dataset_dir},{second_dataset_dir}",
                            "--checkpoint": str(tmp_path / "some,model.bax")}[flag]
    out = tmp_path / "out"
    argv = [x for pair in inputs.items() for x in pair]
    assert run_cli(command, *argv, "--out", str(out)) == 1
    assert f"{repr(value)} holds ','" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, key", [
    ("generate", "--n", "data.n"), ("generate", "--prevalence", "data.prevalence"),
    ("generate", "--sparsity", "data.sparsity"),
    ("generate", "--mean-stay-hours", "data.mean_stay_hours"),
    ("generate", "--availability-profile", "data.availability_profile"),
    ("generate", "--sensors-count", "model.sensors_count"),
    ("pretrain", "--seed", "train.seed"), ("finetune", "--jobs", "grid.jobs")])
def test_typed_flag_is_parsed_by_the_config_schema(command, flag, key, tmp_path, capsys):
    """A bad value is a validation error (exit 1) with the message --set
    gives, not argparse's usage error (exit 2), and no config is echoed."""
    out = tmp_path / "out"
    assert run_cli(command, flag, "abc", "--out", str(out)) == 1
    via_flag = capsys.readouterr().err
    assert run_cli(command, "--set", f"{key}=abc", "--out", str(out)) == 1
    assert via_flag == capsys.readouterr().err
    assert via_flag.startswith(f"error: {key}: ") and "'abc'" in via_flag
    assert not out.exists()


@pytest.mark.parametrize("command, case", [
    ("pretrain", "missing"), ("finetune", "missing"), ("evaluate", "missing"),
    ("finetune", "unlabeled"), ("evaluate", "unlabeled"),
    ("pretrain", "malformed"), ("finetune", "malformed"), ("evaluate", "malformed"),
    ("pretrain", "non_finite"), ("pretrain", "absurd_hour")])
def test_bad_data_directory_fails_before_the_config_echo(
        command, case, pretrain_out, classifier_ckpts, small_dataset_dir, tmp_path, capsys):
    """Each model reads 6 sensors; the malformed cohort names a seventh,
    the non-finite one measures a value of nan on line 2, and the absurd
    one an hour of 10**12 there."""
    data = tmp_path / "cohort"
    if case != "missing":
        shutil.copytree(small_dataset_dir, data)
    if case == "unlabeled":
        (data / "labels.csv").unlink()
    if case == "malformed":
        with open(data / "measurements.csv", "a", encoding="utf-8") as fh:
            fh.write(f"p000000,0,{dt.SENSOR_SCHEMA[6]},1.0\n")
    if case in ("non_finite", "absurd_hour"):
        header, first, *rest = read(data / "measurements.csv").decode().splitlines(True)
        pid, hour, sensor, value = first.split(",")
        first = ",".join([pid, hour, sensor, "nan\n"] if case == "non_finite"
                         else [pid, str(10**12), sensor, value])
        (data / "measurements.csv").write_text("".join([header, first, *rest]), encoding="utf-8")
    model = {"pretrain": ["--set", "model.sensors_count=6"],
             "finetune": ["--checkpoint", os.path.join(pretrain_out, "checkpoint.bax")],
             "evaluate": ["--checkpoint", classifier_ckpts[0]]}[command]
    out = tmp_path / "out"
    assert run_cli(command, "--data", str(data), *model, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert str(data) in err
    assert case != "non_finite" or "measurements.csv:2: value must be finite, got nan" in err
    assert case != "absurd_hour" or \
        f"measurements.csv:2: hour must be at most {dt.MAX_HOUR}, got {10**12}" in err
    assert not out.exists()


@pytest.mark.parametrize("table, line, message", [
    ("measurements", 4, "field larger than field limit (131072)"),
    ("statics", 2, "'utf-8' codec can't decode byte 0xe9 in position 0: invalid continuation byte")],
    ids=["field_over_the_csv_limit", "not_utf8"])
def test_data_file_the_reader_rejects_is_a_parse_error(table, line, message, tmp_path, capsys):
    """A patient id on line 4 of measurements.csv quoted and padded to
    140,000 characters, past the csv module's field limit, or byte 0xE9 at
    the start of line 2 of statics.csv: exit 1, naming the file and line,
    and no output directory."""
    data = tmp_path / "four"
    assert run_cli("generate", "--n", "60", "--prevalence", "0.2", "--sensors-count", "4",
                   "--seed", "3", "--out", str(data)) == 0
    path = data / f"{table}.csv"
    lines = read(path).split(b"\n")
    if table == "measurements":
        pid, rest = lines[line - 1].split(b",", 1)
        lines[line - 1] = b'"' + pid.ljust(140_000, b"x") + b'",' + rest
    else:
        lines[line - 1] = b"\xe9" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))
    out = tmp_path / "out"
    assert run_cli("pretrain", "--data", str(data), "--set", "model.sensors_count=4",
                   "--out", str(out)) == 1
    assert f"error: {path}:{line}: {message}\n" in capsys.readouterr().err
    assert not out.exists()


BAD_CASES = [
    *((command, dotted, *BAD_SETTING[dotted]) for command, dotted in [
        *(("generate", dotted) for dotted in BAD_SETTING), ("pretrain", "grid.jobs"),
        ("finetune", "model.value_embed_size"), ("finetune", "sampler.min_obs_len"),
        ("evaluate", "grid.jobs"), ("evaluate", "model.value_embed_size"),
        ("evaluate", "sampler.min_obs_len")]),
    *((command, *bad) for command in ("pretrain", "finetune", "evaluate") for bad in BAD_DATA)]


@pytest.mark.parametrize(
    "command, dotted, raw, message", BAD_CASES,
    ids=[f"{c}-{d}" if d in BAD_SETTING else f"{c}-{d}={r}" for c, d, r, _ in BAD_CASES])
def test_bad_value_in_a_section_the_command_never_reads_fails_before_any_write(
        command, dotted, raw, message, pretrain_out, classifier_ckpts, small_dataset_dir,
        tmp_path, capsys):
    """Every command checks every section: each command's inputs here are
    otherwise valid, and one bad value in a section it never reads makes
    it exit 1 with no --out directory. finetune takes its model from the
    checkpoint, so it never reads [model]; only generate draws under
    [data]'s n, prevalence, sparsity and mean_stay_hours."""
    inputs = {
        "generate": ["--n", "60", "--prevalence", "0.2", "--sensors-count", "4"],
        "pretrain": ["--data", small_dataset_dir, "--set", "model.sensors_count=6",
                     "--set", "model.value_embed_size=8", "--set", "model.layers=1",
                     "--set", "train.epochs=1"],
        "finetune": ["--data", small_dataset_dir,
                     "--checkpoint", os.path.join(pretrain_out, "checkpoint.bax"),
                     "--set", "train.epochs=1", "--set", "grid.sizes=30",
                     "--set", "grid.seeds=0", "--set", "grid.variants=finetune_head"],
        "evaluate": ["--data", small_dataset_dir, "--checkpoint", classifier_ckpts[0]],
    }[command]
    out = tmp_path / "out"
    assert run_cli(command, *inputs, "--set", f"{dotted}={raw}", "--out", str(out)) == 1
    assert f"[{dotted.split('.')[0]}] {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--bogus"], ["--n"]],
                         ids=["unknown_flag", "flag_without_value"])
def test_usage_error_is_validation_error(flags, tmp_path, capsys):
    """argparse's usage errors exit 1, like any bad input, before the
    config echo; --help still exits 0."""
    out = tmp_path / "out"
    assert run_cli("generate", "--out", str(out), *flags) == 1
    assert "usage: biaxial" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("generate", "--help") == 0


def test_ascii_locale_pipeline_writes_utf8(tmp_path):
    """generate (twice: the rerun from its echoed config) -> pretrain ->
    finetune -> evaluate in subprocesses under an ASCII locale, with a
    non-ASCII dataset name and directories. Every text artifact must be
    UTF-8, and any open() that falls back to the locale's encoding is an
    error (EncodingWarning)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p))

    def biaxial(*argv):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "biaxial.cli", *map(str, argv)],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")

    root = tmp_path / "données"
    data, pre, ft, ev = (root / "séjours", root / "prétrain", root / "réglage",
                         root / "évaluation")
    biaxial("generate", "--n", "60", "--prevalence", "0.2", "--sensors-count", "4",
            "--name", "café", "--seed", "3", "--out", data,
            "--set", "data.mean_stay_hours=40")
    # the echoed config names the directories in UTF-8; a rerun from it
    # must find the same directory and rewrite the same bytes
    first = {fn: read(data / fn) for fn in os.listdir(data)}
    biaxial("generate", "--config", data / "config.ini")
    assert {fn: read(data / fn) for fn in os.listdir(data)} == first
    biaxial("pretrain", "--data", data, "--out", pre, "--seed", "1",
            "--set", "model.sensors_count=4", "--set", "model.value_embed_size=8",
            "--set", "model.layers=1", "--set", "train.epochs=1",
            "--set", "train.batch_size=32")
    biaxial("finetune", "--data", data, "--checkpoint", pre / "checkpoint.bax",
            "--out", ft, "--seed", "2", "--set", "train.epochs=1",
            "--set", "train.batch_size=32", "--set", "grid.sizes=30",
            "--set", "grid.seeds=0", "--set", "grid.variants=finetune_head",
            "--set", "grid.save_model=finetune_head")
    biaxial("evaluate", "--checkpoint", ft / "model.bax", "--data", data,
            "--out", ev, "--seed", "2")

    text = {}
    for dirpath, _, files in os.walk(root):
        for fn in files:
            if not fn.endswith(".bax"):
                path = os.path.join(dirpath, fn)
                text[os.path.relpath(path, root)] = read(path).decode("utf-8")
    assert len(text) == 4 + 7 + 3 + 2
    assert "name = café" in text[os.path.join("séjours", "config.ini")]
    assert str(data) in text[os.path.join("réglage", "config.ini")]
    for table in ("runs.csv", "aggregate.csv"):
        assert text[os.path.join("réglage", table)].splitlines()[1].startswith("séjours,")
    assert text[os.path.join("évaluation", "evaluate.csv")].splitlines()[1] \
        .startswith("model.bax,séjours,")
