"""Model tests: embedding semantics, equivariances, heads, baseline."""

from dataclasses import asdict

import numpy as np
import pytest

from biaxial import autodiff as ad
from biaxial import metrics as mt
from biaxial import model as md
from biaxial.autodiff import backward
from biaxial.rng import substream


def small_cfg(**over):
    base = dict(sensors_count=4, value_embed_size=8, layers=2, heads=2,
                dropout=0.0, attn_dropout=0.0, pooling="max",
                forecast_horizon=2, use_mask=False)
    base.update(over)
    return md.BatConfig(**base)


def param_count(model):
    return sum(p.size for p in model.params.values())


def param_groups(model):
    """A model's parameter names by part: the heads and the trunk."""
    groups = {"trunk": [], "head_cls": [], "head_for": []}
    for name in model.params:
        part = name.split("/", 1)[0]
        groups[part if part in groups else "trunk"].append(name)
    return groups


def random_batch(cfg, b=2, t=10, seed=0, obs_rate=0.6):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(b, cfg.sensors_count, t))
    mask = rng.random((b, cfg.sensors_count, t)) < obs_rate
    mask[:, 0, 0] = True
    hours = np.arange(t, dtype=float)
    statics = rng.normal(size=(b, cfg.static_count))
    return values, mask, hours, statics


class TestConfig:
    def test_reference_defaults(self):
        cfg = md.BatConfig()
        assert cfg.sensors_count == 48
        assert cfg.forecast_horizon == 2
        assert cfg.value_embed_size == 128
        assert cfg.pooling == "max"
        assert cfg.use_mask is False

    def test_heads_must_divide_embed(self):
        with pytest.raises(ValueError, match="divisible"):
            md.BatConfig(value_embed_size=10, heads=3)

    @pytest.mark.parametrize("size", [0, -8])
    def test_embed_size_below_two_rejected(self, size):
        """Both sizes are even and divisible by one head, so only the
        lower bound rejects them."""
        with pytest.raises(ValueError, match=f"value_embed_size must be >= 2, got {size}"):
            md.BatConfig(value_embed_size=size)

    def test_round_trip_dict(self):
        cfg = small_cfg(pooling="mean")
        assert md.BatConfig(**asdict(cfg)) == cfg


class TestTimeEncoding:
    def test_hour_zero_first_pair(self):
        enc = md.time_encoding(np.array([0.0, 1.0]), 8)
        assert enc[0, 0] == 0.0 and enc[0, 1] == 1.0

    def test_hour_one_first_pair(self):
        enc = md.time_encoding(np.array([0.0, 1.0]), 8)
        assert enc[1, 0] == pytest.approx(np.sin(1.0))
        assert enc[1, 1] == pytest.approx(np.cos(1.0))

    def test_uses_raw_hour_not_index(self):
        a = md.time_encoding(np.array([5.0]), 8)
        b = md.time_encoding(np.array([5.0, 6.0]), 8)
        np.testing.assert_array_equal(a[0], b[0])


class TestEmbedding:
    @pytest.mark.usefixtures("float64")
    def test_all_missing_ignores_value_buffer(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(0, "init"))
        t = 5
        mask = np.zeros((1, cfg.sensors_count, t), dtype=bool)
        v1 = np.zeros((1, cfg.sensors_count, t))
        v2 = np.random.default_rng(1).normal(size=(1, cfg.sensors_count, t)) * 1e9
        hours = np.arange(t, dtype=float)
        e1 = model.embed(v1, mask, hours).data
        e2 = model.embed(v2, mask, hours).data
        assert np.array_equal(e1, e2)
        expected = (model.params["embed/missing"].data[None, :, None, :]
                    + model.params["embed/identity"].data[None, :, None, :]
                    + md.time_encoding(hours, cfg.value_embed_size)[None, None])
        np.testing.assert_allclose(e1, expected, atol=1e-12)

    def test_identity_embedding_separates_equal_sensors(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(2, "init"))
        t = 4
        values = np.tile(np.linspace(0, 1, t), (1, cfg.sensors_count, 1))
        mask = np.ones((1, cfg.sensors_count, t), dtype=bool)
        emb = model.embed(values, mask, np.arange(t, dtype=float)).data
        assert not np.allclose(emb[0, 0], emb[0, 1])
        # removing the identity difference collapses them
        model.params["embed/identity"].data[1] = model.params["embed/identity"].data[0]
        model.params["embed/missing"].data[1] = model.params["embed/missing"].data[0]
        emb2 = model.embed(values, mask, np.arange(t, dtype=float)).data
        np.testing.assert_allclose(emb2[0, 0], emb2[0, 1], atol=1e-12)

    def test_zero_time_steps_rejected(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(3, "init"))
        with pytest.raises(ValueError, match="zero time steps"):
            model.embed(np.zeros((1, cfg.sensors_count, 0)),
                        np.zeros((1, cfg.sensors_count, 0), dtype=bool),
                        np.zeros(0))


class TestTrunk:
    @pytest.mark.usefixtures("float64")
    def test_sensor_permutation_equivariance(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(4, "init"))
        values, mask, hours, _ = random_batch(cfg, seed=5)
        perm = np.array([2, 0, 3, 1])
        out = model.trunk(values, mask, hours).data

        permuted = md.BatModel.from_arrays(cfg, model.state_arrays())
        permuted.params["embed/identity"].data[:] = \
            model.params["embed/identity"].data[perm]
        permuted.params["embed/missing"].data[:] = \
            model.params["embed/missing"].data[perm]
        out_perm = permuted.trunk(values[:, perm], mask[:, perm], hours).data
        assert np.max(np.abs(out_perm - out[:, perm])) <= 1e-9

    @pytest.mark.usefixtures("float64")
    def test_time_permutation_equivariance(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(6, "init"))
        values, mask, hours, _ = random_batch(cfg, seed=7)
        perm = np.random.default_rng(8).permutation(len(hours))
        out = model.trunk(values, mask, hours).data
        out_perm = model.trunk(values[:, :, perm], mask[:, :, perm], hours[perm]).data
        assert np.max(np.abs(out_perm - out[:, :, perm])) <= 1e-9

    def test_zero_weights_reduce_to_residual_passthrough(self):
        cfg = small_cfg(layers=1)
        model = md.BatModel.init(cfg, substream(9, "init"))
        for name, p in model.params.items():
            if "attn/" in name or "ffn/" in name:
                p.data[:] = 0.0
        values, mask, hours, _ = random_batch(cfg, seed=10)
        x = model.embed(values, mask, hours).data
        out = model.trunk(values, mask, hours).data
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_eval_forward_is_deterministic(self):
        cfg = small_cfg(dropout=0.3, attn_dropout=0.2)
        model = md.BatModel.init(cfg, substream(11, "init"))
        values, mask, hours, statics = random_batch(cfg, seed=12)
        p1 = model.classify(values, mask, hours, statics).data
        p2 = model.classify(values, mask, hours, statics).data
        assert np.array_equal(p1, p2)

    def test_train_forward_is_seed_deterministic(self):
        cfg = small_cfg(dropout=0.3, attn_dropout=0.2)
        model = md.BatModel.init(cfg, substream(13, "init"))
        values, mask, hours, statics = random_batch(cfg, seed=14)
        p1 = model.classify(values, mask, hours, statics, train=True,
                            rng=substream(0, "drop")).data
        p2 = model.classify(values, mask, hours, statics, train=True,
                            rng=substream(0, "drop")).data
        p3 = model.classify(values, mask, hours, statics, train=True,
                            rng=substream(1, "drop")).data
        assert np.array_equal(p1, p2)
        assert not np.array_equal(p1, p3)

    def test_unobserved_cells_cannot_influence_outputs(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(15, "init"))
        values, mask, hours, statics = random_batch(cfg, seed=16, obs_rate=0.5)
        poisoned = np.where(mask, values, 1e12)
        base_cls = model.classify(values, mask, hours, statics).data
        base_for = model.forecast(values, mask, hours, statics).data
        assert np.array_equal(
            model.classify(poisoned, mask, hours, statics).data, base_cls)
        assert np.array_equal(
            model.forecast(poisoned, mask, hours, statics).data, base_for)

    def test_use_mask_flag_changes_attention(self):
        cfg_off = small_cfg(use_mask=False)
        cfg_on = small_cfg(use_mask=True)
        model = md.BatModel.init(cfg_off, substream(17, "init"))
        masked = md.BatModel(cfg_on, model.params)
        values, mask, hours, statics = random_batch(cfg_off, seed=18, obs_rate=0.4)
        mask[:, :, 3] = False  # a fully unobserved hour
        off = model.classify(values, mask, hours, statics).data
        on = masked.classify(values, mask, hours, statics).data
        assert not np.array_equal(off, on)


class TestPoolAndFuse:
    def test_constant_input_both_modes(self):
        for pooling in ("max", "mean"):
            cfg = small_cfg(pooling=pooling)
            model = md.BatModel.init(cfg, substream(19, "init"))
            x = ad.tensor(np.full((2, cfg.sensors_count, 5, cfg.value_embed_size), 3.25))
            statics = np.zeros((2, cfg.static_count))
            fused = model.pool_and_fuse(x, statics).data
            np.testing.assert_allclose(fused[:, :cfg.value_embed_size], 3.25)

    def test_max_mode_picks_single_large_activation(self):
        cfg = small_cfg(pooling="max")
        model = md.BatModel.init(cfg, substream(20, "init"))
        x_np = np.zeros((1, cfg.sensors_count, 5, cfg.value_embed_size))
        x_np[0, 2, 3, 4] = 99.0
        fused = model.pool_and_fuse(ad.tensor(x_np), np.zeros((1, 4))).data
        assert fused[0, 4] == 99.0

    @pytest.mark.usefixtures("float64")
    def test_mean_mode_matches_direct_average(self):
        cfg = small_cfg(pooling="mean")
        model = md.BatModel.init(cfg, substream(21, "init"))
        x_np = np.random.default_rng(22).normal(size=(2, cfg.sensors_count, 6,
                                                      cfg.value_embed_size))
        fused = model.pool_and_fuse(ad.tensor(x_np), np.zeros((2, 4))).data
        want = x_np.mean(axis=(1, 2))
        np.testing.assert_allclose(fused[:, :cfg.value_embed_size], want, atol=1e-12)

    def test_statics_are_appended(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(23, "init"))
        statics = np.array([[1.0, 2.0, 3.0, 4.0]])
        fused = model.pool_and_fuse(
            ad.tensor(np.zeros((1, cfg.sensors_count, 3, cfg.value_embed_size))),
            statics).data
        np.testing.assert_array_equal(fused[0, -4:], statics[0])


class TestClassifyHead:
    def test_zero_head_gives_half(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(24, "init"))
        model.params["head_cls/w"].data[:] = 0.0
        model.params["head_cls/b"].data[:] = 0.0
        values, mask, hours, statics = random_batch(cfg, seed=25)
        np.testing.assert_allclose(
            model.classify(values, mask, hours, statics).data, 0.5, atol=1e-15)

    def test_known_logit_value(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(26, "init"))
        model.params["head_cls/w"].data[:] = 0.0
        model.params["head_cls/b"].data[:] = 0.8473
        values, mask, hours, statics = random_batch(cfg, seed=27)
        np.testing.assert_allclose(
            model.classify(values, mask, hours, statics).data, 0.7, atol=1e-4)

    def test_bias_monotonicity(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(28, "init"))
        values, mask, hours, statics = random_batch(cfg, seed=29)
        base = model.classify(values, mask, hours, statics).data.copy()
        model.params["head_cls/b"].data[:] += 0.5
        higher = model.classify(values, mask, hours, statics).data
        assert (higher > base).all()

    def test_output_always_in_open_unit_interval(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(30, "init"))
        for seed in range(5):
            values, mask, hours, statics = random_batch(cfg, seed=seed)
            probs = model.classify(values, mask, hours, statics).data
            assert ((probs > 0) & (probs < 1)).all()


class TestForecastHead:
    def test_zero_head_weights_forecast_zero(self):
        cfg = small_cfg()
        model = md.BatModel.init(cfg, substream(31, "init"))
        model.params["head_for/w"].data[:] = 0.0
        model.params["head_for/b"].data[:] = 0.0
        values, mask, hours, statics = random_batch(cfg, seed=32)
        out = model.forecast(values, mask, hours, statics).data
        assert np.array_equal(out, np.zeros_like(out))

    def test_reference_output_shape(self):
        cfg = md.BatConfig(sensors_count=48, value_embed_size=16, layers=1,
                           heads=1, forecast_horizon=2)
        model = md.BatModel.init(cfg, substream(33, "init"))
        values, mask, hours, statics = random_batch(cfg, b=1, t=14, seed=34)
        out = model.forecast(values, mask, hours, statics)
        assert out.shape == (1, 48, 2)
        assert np.isfinite(out.data).all()

    @pytest.mark.usefixtures("float64")
    def test_forecast_head_gradients_match_finite_differences(self):
        cfg = small_cfg(layers=1)
        model = md.BatModel.init(cfg, substream(35, "init"))
        values, mask, hours, statics = random_batch(cfg, b=2, t=8, seed=36)
        target = np.random.default_rng(37).normal(size=(2, cfg.sensors_count, 2))
        fmask = np.random.default_rng(38).random((2, cfg.sensors_count, 2)) < 0.5
        head = {"head_for/w": model.params["head_for/w"],
                "head_for/b": model.params["head_for/b"]}

        def f():
            model.zero_grad()
            pred = model.forecast(values, mask, hours, statics)
            return mt.masked_forecast_loss(pred, target, fmask)

        report = ad.grad_check(f, head, step=1e-5, tol=1e-3)
        assert report.passed, report


class TestParamCount:
    def test_layers_zero_is_embeddings_plus_heads(self):
        cfg = small_cfg(layers=0)
        model = md.BatModel.init(cfg, substream(39, "init"))
        d, e, s, h = (cfg.sensors_count, cfg.value_embed_size,
                      cfg.static_count, cfg.forecast_horizon)
        expected = (2 * e + 2 * d * e) + ((e + s) + 1) + (e * h + h)
        assert param_count(model) == expected

    def test_doubling_layers_more_than_doubles_trunk(self):
        def trunk_params(layers):
            cfg = small_cfg(layers=layers)
            model = md.BatModel.init(cfg, substream(40, "init"))
            groups = param_groups(model)
            return (sum(model.params[n].size for n in groups["trunk"]),
                    sum(model.params[n].size for n in groups["head_cls"])
                    + sum(model.params[n].size for n in groups["head_for"]))

        trunk1, heads1 = trunk_params(1)
        trunk2, heads2 = trunk_params(2)
        assert trunk2 > 2 * (trunk2 - trunk1)  # embeddings make it exceed doubling
        assert trunk2 - trunk1 > 0
        assert heads1 == heads2

    def test_monotone_in_embed_size(self):
        small = param_count(md.BatModel.init(md.BatConfig(value_embed_size=64, layers=6),
                                             substream(41, "init")))
        large = param_count(md.BatModel.init(md.BatConfig(value_embed_size=128, layers=6),
                                             substream(42, "init")))
        assert small < large

    def test_deterministic_function_of_config(self):
        a = param_count(md.BatModel.init(small_cfg(), substream(43, "init")))
        b = param_count(md.BatModel.init(small_cfg(), substream(44, "init")))
        assert a == b


class TestNoDeadParameters:
    def test_every_parameter_gets_gradient_from_some_loss(self):
        cfg = small_cfg()
        values, mask, hours, statics = random_batch(cfg, b=3, t=10, seed=46)
        labels = np.array([1.0, 0.0, 1.0])
        target = np.random.default_rng(47).normal(size=(3, cfg.sensors_count, 2))
        fmask = np.ones((3, cfg.sensors_count, 2), dtype=bool)
        for arch, model_cls in md.ARCHS.items():
            model = model_cls.init(cfg, substream(45, "init"))
            groups = param_groups(model)
            losses = [(lambda: mt.weighted_bce(
                model.classify(values, mask, hours, statics), labels), "head_cls")]
            if groups["head_for"]:          # the baseline has no forecast head
                losses.append((lambda: mt.masked_forecast_loss(
                    model.forecast(values, mask, hours, statics), target, fmask), "head_for"))
            for loss, head in losses:
                model.zero_grad()
                backward(loss())
                for name in groups["trunk"] + groups[head]:
                    grad = model.params[name].grad
                    assert grad is not None and np.any(grad != 0), (arch, name)


class TestBaselineTransformer:
    def test_output_in_unit_interval(self):
        cfg = small_cfg()
        model = md.TemporalTransformer.init(cfg, substream(48, "init"))
        values, mask, hours, statics = random_batch(cfg, seed=49)
        probs = model.classify(values, mask, hours, statics).data
        assert ((probs > 0) & (probs < 1)).all()

    def test_invariant_to_mask_channel(self):
        for use_mask in (False, True):
            cfg = small_cfg(use_mask=use_mask)
            model = md.TemporalTransformer.init(cfg, substream(50, "init"))
            values, mask, hours, statics = random_batch(cfg, seed=51)
            a = model.classify(values, mask, hours, statics).data
            b = model.classify(values, ~mask, hours, statics).data
            assert np.array_equal(a, b), use_mask

    @pytest.mark.usefixtures("float64")
    def test_gradients_match_finite_differences(self):
        cfg = md.BatConfig(sensors_count=3, value_embed_size=4, layers=1, heads=1,
                           forecast_horizon=2)
        model = md.TemporalTransformer.init(cfg, substream(52, "init"))
        values, mask, hours, statics = random_batch(cfg, b=2, t=6, seed=53)
        labels = np.array([1.0, 0.0])

        def f():
            model.zero_grad()
            return mt.weighted_bce(model.classify(values, mask, hours, statics), labels)

        report = ad.grad_check(f, model.params, step=1e-5, tol=1e-3)
        assert report.passed, report

    def test_train_classify_is_the_explicit_composition(self):
        """Train-mode classify equals, bitwise, the baseline written out in
        ad ops: per-hour affine plus time encoding; per layer, attention
        over time and the FFN, each pre-LN with dropout and a residual add;
        then max over time, the statics, the head affine and the sigmoid.
        One dropout stream serves the whole forward, in that order."""
        cfg = small_cfg(dropout=0.3, attn_dropout=0.2)
        model = md.TemporalTransformer.init(cfg, substream(54, "init"))
        values, mask, hours, statics = random_batch(cfg, b=3, t=7, seed=55)
        b, d, t = values.shape
        e = cfg.value_embed_size
        p = model.params

        def norm(x, prefix):
            return ad.layer_norm(x, p[f"{prefix}/gain"], p[f"{prefix}/bias"])

        rng = np.random.default_rng(56)
        x = ad.affine(ad.tensor(values.transpose(0, 2, 1)), p["embed/w"], p["embed/b"])
        x = ad.add(x, ad.tensor(md.time_encoding(hours, e).reshape(1, t, e)))
        x = ad.reshape(x, (b, 1, t, e))
        for layer in range(cfg.layers):
            att = md._attention(norm(x, f"layer{layer}/norm1"), p, f"layer{layer}/attn",
                                2, cfg.heads, cfg.attn_dropout, rng, True)
            x = ad.add(x, ad.dropout(att, cfg.dropout, rng, True))
            ffn = md._ffn(norm(x, f"layer{layer}/norm2"), p, f"layer{layer}/ffn")
            x = ad.add(x, ad.dropout(ffn, cfg.dropout, rng, True))
        pooled = ad.max_reduce(ad.reshape(x, (b, t, e)), axis=1)
        fused = ad.concat([pooled, ad.tensor(statics)], axis=1)
        logits = ad.affine(fused, p["head_cls/w"], p["head_cls/b"])
        want = ad.sigmoid(ad.reshape(logits, (b,))).data

        got = model.classify(values, mask, hours, statics, train=True,
                             rng=np.random.default_rng(56)).data
        assert np.array_equal(got, want)
