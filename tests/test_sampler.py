"""Window sampler tests: filter equivalence, determinism, distribution."""

import numpy as np
import pytest

from biaxial import sampler as sp
from biaxial.data import EpisodeRecord


def brute_force_valid(time_mask, min_obs_len, horizon):
    """Independent enumeration of the three split-index filters."""
    observed = [t for t in range(len(time_mask)) if time_mask[t]]
    candidates = [t for t in observed if t >= min_obs_len]
    if not candidates:
        return set()
    max_index = max(candidates)
    return {t for t in candidates if t <= max_index - horizon}


def episode_from_mask(mask, pid="e0"):
    mask = np.asarray(mask, dtype=bool)
    d, t = mask.shape
    return EpisodeRecord(
        patient_id=pid,
        values=np.arange(d * t, dtype=float).reshape(d, t),
        mask=mask,
        statics=np.array([60.0, 1.0, 170.0, 75.0]),
        stay_hours=float(t),
        label=None,
    )


class TestSamplerConfig:
    def test_reference_defaults(self):
        cfg = sp.SamplerConfig()
        assert cfg.min_obs_len == 12
        assert cfg.forecast_horizon == 2
        assert cfg.max_obs is None

    @pytest.mark.parametrize("kwargs", [
        {"min_obs_len": 0}, {"forecast_horizon": 0}, {"max_obs": 0},
    ])
    def test_bounds_validated(self, kwargs):
        with pytest.raises(ValueError):
            sp.SamplerConfig(**kwargs)


class TestValidIndices:
    def test_fully_observed_t24(self):
        cfg = sp.SamplerConfig(min_obs_len=12, forecast_horizon=2)
        got = sp.valid_indices(np.ones(24, dtype=bool), cfg)
        assert got.tolist() == list(range(12, 22))

    def test_too_short_series_is_empty(self):
        cfg = sp.SamplerConfig(min_obs_len=12, forecast_horizon=2)
        assert sp.valid_indices(np.ones(10, dtype=bool), cfg).tolist() == []

    def test_sparse_example(self):
        mask = np.zeros(24, dtype=bool)
        mask[[0, 5, 13, 20]] = True
        cfg = sp.SamplerConfig(min_obs_len=12, forecast_horizon=2)
        assert sp.valid_indices(mask, cfg).tolist() == [13]

    def test_empty_mask_is_empty(self):
        cfg = sp.SamplerConfig()
        assert sp.valid_indices(np.zeros(30, dtype=bool), cfg).tolist() == []

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.default_rng(0)
        cfg = sp.SamplerConfig(min_obs_len=12, forecast_horizon=2)
        for _ in range(1000):
            t = int(rng.integers(1, 49))
            mask = rng.random(t) < rng.uniform(0.05, 0.95)
            got = sp.valid_indices(mask, cfg)
            want = brute_force_valid(mask, 12, 2)
            assert got.tolist() == sorted(want)

    def test_rejects_bad_mask_shape(self):
        with pytest.raises(ValueError):
            sp.valid_indices(np.ones((2, 3), dtype=bool), sp.SamplerConfig())


class TestSampleWindow:
    def test_single_full_episode_slicing(self):
        ep = episode_from_mask(np.ones((3, 24), dtype=bool))
        cfg = sp.SamplerConfig()
        rng = np.random.default_rng(1)
        for _ in range(50):
            split = sp.sample_window([ep], cfg, rng)
            assert 12 <= split.t1 <= 21
            assert split.t0 == 0
            assert split.obs_values.shape == (1, 3, split.t1)
            assert split.forecast_values.shape == (1, 3, 2)
            np.testing.assert_array_equal(
                split.obs_values[0], ep.values[:, :split.t1])
            np.testing.assert_array_equal(
                split.forecast_values[0], ep.values[:, split.t1:split.t1 + 2])
            np.testing.assert_array_equal(
                split.obs_hours, np.arange(split.t1, dtype=float))

    def test_max_obs_bounds_t0(self):
        ep = episode_from_mask(np.ones((2, 30), dtype=bool))
        cfg = sp.SamplerConfig(max_obs=6)
        split = sp.sample_window([ep], cfg, np.random.default_rng(2))
        assert split.t0 == split.t1 - 6
        assert split.obs_values.shape[-1] == 6

    def test_exhaustion_on_one_unanchorable_draw(self):
        short = [episode_from_mask(np.ones((2, 8), dtype=bool), pid=f"p{i}")
                 for i in range(4)]
        with pytest.raises(sp.SamplerExhaustedError, match="[Nn]o valid index"):
            sp.sample_window(short, sp.SamplerConfig(), np.random.default_rng(3))

    def test_the_drawn_anchor_alone_decides_and_a_bad_one_is_named(self):
        """One anchor is drawn, with no retry: a draw of the stay that cannot
        anchor raises naming it, even though the other stay could."""
        bad = episode_from_mask(np.ones((2, 8), dtype=bool), pid="bad")
        good = episode_from_mask(np.ones((2, 24), dtype=bool), pid="good")
        outcomes = set()
        for seed in range(20):
            drawn = [bad, good][int(np.random.default_rng(seed).integers(0, 2))]
            if drawn is bad:
                with pytest.raises(sp.SamplerExhaustedError,
                                   match="no valid index in drawn stay 'bad'"):
                    sp.sample_window([bad, good], sp.SamplerConfig(),
                                     np.random.default_rng(seed))
            else:
                split = sp.sample_window([bad, good], sp.SamplerConfig(),
                                         np.random.default_rng(seed))
                assert 12 <= split.t1 <= 21
            outcomes.add(drawn.patient_id)
        assert outcomes == {"bad", "good"}

    def test_deterministic_for_fixed_rng_state(self):
        eps = [episode_from_mask(np.random.default_rng(i).random((3, 30)) < 0.5,
                                 pid=f"p{i}") for i in range(6)]
        s1 = sp.sample_window(eps, sp.SamplerConfig(), np.random.default_rng(7))
        s2 = sp.sample_window(eps, sp.SamplerConfig(), np.random.default_rng(7))
        assert s1.t1 == s2.t1
        np.testing.assert_array_equal(s1.obs_values, s2.obs_values)
        np.testing.assert_array_equal(s1.obs_mask, s2.obs_mask)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sp.sample_window([], sp.SamplerConfig(), np.random.default_rng(0))

    def test_emitted_t1_set_equals_enumeration(self):
        rng = np.random.default_rng(8)
        cfg = sp.SamplerConfig()
        for trial in range(30):
            t = int(rng.integers(15, 49))
            mask2d = rng.random((4, t)) < 0.35
            mask2d[:, 0] = True  # admission battery keeps windows nonempty
            ep = episode_from_mask(mask2d, pid=f"p{trial}")
            want = brute_force_valid(mask2d.any(axis=0), 12, 2)
            seen = set()
            draw_rng = np.random.default_rng(trial)
            if not want:
                with pytest.raises(sp.SamplerExhaustedError):
                    sp.sample_window([ep], cfg, draw_rng)
                continue
            for _ in range(300):
                seen.add(sp.sample_window([ep], cfg, draw_rng).t1)
            assert seen == want

    def test_uniformity_of_t1_on_full_t24(self):
        ep = episode_from_mask(np.ones((2, 24), dtype=bool))
        cfg = sp.SamplerConfig()
        rng = np.random.default_rng(9)
        counts = {t: 0 for t in range(12, 22)}
        n = 10_000
        for _ in range(n):
            counts[sp.sample_window([ep], cfg, rng).t1] += 1
        for t, c in counts.items():
            assert abs(c / n - 0.1) <= 0.02, (t, c / n)

    def test_padding_of_mixed_lengths(self):
        a = episode_from_mask(np.ones((2, 20), dtype=bool), pid="a")
        b = episode_from_mask(np.ones((2, 30), dtype=bool), pid="b")
        values, mask, statics = sp.collate([a, b])
        assert values.shape == (2, 2, 30)
        assert not mask[0, :, 20:].any()
        assert statics.shape == (2, 4)


class TestSparsityCheck:
    def test_holds_for_all_emitted_splits_on_admission_battery_fixtures(self):
        # 10k seeded draws over random fixtures that observe something early
        rng = np.random.default_rng(10)
        cfg = sp.SamplerConfig()
        episodes = []
        for i in range(50):
            t = int(rng.integers(16, 48))
            mask = rng.random((4, t)) < 0.3
            mask[0, 0] = True
            episodes.append(episode_from_mask(mask, pid=f"p{i}"))
        draw = np.random.default_rng(11)
        drawn = 0
        while drawn < 10_000:
            batch = [episodes[int(draw.integers(0, len(episodes)))] for _ in range(8)]
            try:
                split = sp.sample_window(batch, cfg, draw)
            except sp.SamplerExhaustedError:
                continue
            assert split.obs_mask.any()
            assert split.forecast_values.shape[-1] == cfg.forecast_horizon
            drawn += 1
