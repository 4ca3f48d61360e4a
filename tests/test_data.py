"""Data model, ingestion, preprocessing, pooling, splits and the generator."""

import numpy as np
import pytest

from biaxial import data as dt


def make_episode(pid="p0", d=3, t=10, stay=None, age=50.0, label=0,
                 mask=None, values=None):
    if mask is None:
        mask = np.ones((d, t), dtype=bool)
    if values is None:
        values = np.arange(d * t, dtype=float).reshape(d, t)
    return dt.EpisodeRecord(
        patient_id=pid,
        values=values.astype(float),
        mask=mask,
        hours=np.arange(t, dtype=float),
        statics=np.array([age, 1.0, 170.0, 80.0]),
        stay_hours=float(t if stay is None else stay),
        label=label,
    )


def write_csvs(tmp_path, measurements, statics, labels=None):
    mpath = tmp_path / "measurements.csv"
    spath = tmp_path / "statics.csv"
    mpath.write_text("patient_id,hour,sensor,value\n" + measurements)
    spath.write_text("patient_id,age,female,height_cm,weight_kg,stay_hours\n" + statics)
    lpath = None
    if labels is not None:
        lpath = tmp_path / "labels.csv"
        lpath.write_text("patient_id,mortality\n" + labels)
    return mpath, spath, lpath


class TestSchema:
    def test_48_sensors_4_statics(self):
        assert len(dt.SENSOR_SCHEMA) == 48
        assert len(set(dt.SENSOR_SCHEMA)) == 48
        assert len(dt.STATIC_SCHEMA) == 4

    def test_names_are_lowercase_underscore(self):
        for name in dt.SENSOR_SCHEMA:
            assert name == name.lower()
            assert " " not in name


class TestLoadDataset:
    def test_two_patients_three_observations_each(self, tmp_path):
        m = ("a,0,heart_rate,80\n"
             "a,2,glucose,120\n"
             "a,5,heart_rate,90\n"
             "b,1,sodium,140\n"
             "b,3,sodium,141\n"
             "b,4,lactate,2.5\n")
        s = "a,60,1,165,70,8\nb,45,0,180,90,6\n"
        ds = dt.load_dataset(*write_csvs(tmp_path, m, s, "a,1\nb,0\n"))
        assert len(ds) == 2
        a, b = ds.episodes
        hr = dt.SENSOR_SCHEMA.index("heart_rate")
        glu = dt.SENSOR_SCHEMA.index("glucose")
        assert a.mask[hr, 0] and a.values[hr, 0] == 80.0
        assert a.mask[glu, 2] and a.values[glu, 2] == 120.0
        assert a.mask.sum() == 3 and b.mask.sum() == 3
        assert a.label == 1 and b.label == 0
        assert a.n_hours == 8 and b.n_hours == 6

    def test_empty_files_give_empty_dataset(self, tmp_path):
        ds = dt.load_dataset(*write_csvs(tmp_path, "", "", ""))
        assert len(ds) == 0

    def test_single_cell_mapping(self, tmp_path):
        ds = dt.load_dataset(*write_csvs(
            tmp_path, "a,5,heart_rate,80\n", "a,60,1,165,70,8\n"))
        hr = dt.SENSOR_SCHEMA.index("heart_rate")
        ep = ds.episodes[0]
        assert ep.mask[hr, 5] and ep.values[hr, 5] == 80.0
        assert ep.mask.sum() == 1
        assert ep.label is None

    def test_unknown_sensor_is_schema_error(self, tmp_path):
        with pytest.raises(dt.SchemaError, match="unknown sensor"):
            dt.load_dataset(*write_csvs(
                tmp_path, "a,0,midichlorian_count,9000\n", "a,60,1,165,70,8\n"))

    def test_duplicate_cell_last_write_wins_with_warning(self, tmp_path, caplog):
        m = "a,3,heart_rate,80\na,3,heart_rate,85\n"
        with caplog.at_level("WARNING"):
            ds = dt.load_dataset(*write_csvs(tmp_path, m, "a,60,1,165,70,8\n"))
        hr = dt.SENSOR_SCHEMA.index("heart_rate")
        assert ds.episodes[0].values[hr, 3] == 85.0
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_non_monotone_timestamp_is_parse_error_with_line(self, tmp_path):
        m = "a,5,heart_rate,80\na,3,heart_rate,85\n"
        with pytest.raises(dt.ParseError, match=r":3:"):
            dt.load_dataset(*write_csvs(tmp_path, m, "a,60,1,165,70,8\n"))

    def test_negative_hour_rejected(self, tmp_path):
        with pytest.raises(dt.ParseError, match="negative hour"):
            dt.load_dataset(*write_csvs(
                tmp_path, "a,-1,heart_rate,80\n", "a,60,1,165,70,8\n"))

    def test_unknown_patient_in_measurements(self, tmp_path):
        with pytest.raises(dt.SchemaError, match="missing from statics"):
            dt.load_dataset(*write_csvs(
                tmp_path, "ghost,0,heart_rate,80\n", "a,60,1,165,70,8\n"))

    def test_prevalence_is_computed(self, tmp_path):
        ds = dt.load_dataset(*write_csvs(
            tmp_path, "a,0,heart_rate,80\nb,0,heart_rate,82\n",
            "a,60,1,165,70,8\nb,50,0,170,75,9\n", "a,1\nb,0\n"))
        assert ds.prevalence == 0.5
        assert ds.recomputed_prevalence() == ds.prevalence


class TestExclusions:
    def test_short_stay_excluded(self):
        ds = dt.Dataset.from_episodes("x", [make_episode(stay=5, t=5)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_minor_excluded(self):
        ds = dt.Dataset.from_episodes("x", [make_episode(age=17.0, t=12)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_negative_stay_excluded(self):
        ds = dt.Dataset.from_episodes("x", [make_episode(stay=-4, t=8)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_mortality_stay_boundary_and_truncation(self):
        short = make_episode(pid="s", t=29, stay=29)
        long = make_episode(pid="l", t=31, stay=31)
        ds = dt.Dataset.from_episodes("x", [short, long])
        out = dt.apply_exclusions(ds, "mortality")
        assert [ep.patient_id for ep in out.episodes] == ["l"]
        assert out.episodes[0].n_hours == 24
        np.testing.assert_array_equal(out.episodes[0].hours, np.arange(24.0))

    def test_sparse_two_point_episode_excluded(self):
        mask = np.zeros((3, 20), dtype=bool)
        mask[0, 0] = mask[0, 13] = True
        ds = dt.Dataset.from_episodes("x", [make_episode(t=20, mask=mask)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_gap_over_12h_excluded_even_with_enough_points(self):
        mask = np.zeros((2, 30), dtype=bool)
        for h in (0, 1, 2, 16, 17, 18):
            mask[0, h] = True
        ds = dt.Dataset.from_episodes("x", [make_episode(t=30, mask=mask)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_leading_gap_over_12h_excluded(self):
        mask = np.zeros((2, 40), dtype=bool)
        for h in (14, 18, 22, 26, 30):
            mask[0, h] = True
        ds = dt.Dataset.from_episodes("x", [make_episode(t=40, mask=mask)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_pretrain_discards_labels(self):
        ds = dt.Dataset.from_episodes("x", [make_episode(t=12, label=1)])
        out = dt.apply_exclusions(ds, "pretrain")
        assert out.episodes[0].label is None
        assert out.prevalence is None

    def test_mortality_keeps_labels(self):
        ds = dt.Dataset.from_episodes("x", [make_episode(t=36, stay=36, label=1)])
        out = dt.apply_exclusions(ds, "mortality")
        assert out.episodes[0].label == 1

    @pytest.mark.parametrize("task", ["pretrain", "mortality"])
    def test_idempotent(self, task):
        rng = np.random.default_rng(0)
        episodes = []
        for i in range(40):
            t = int(rng.integers(4, 60))
            mask = rng.random((4, t)) < rng.uniform(0.05, 0.9)
            episodes.append(make_episode(
                pid=f"p{i}", d=4, t=t, stay=int(rng.integers(2, 80)),
                age=float(rng.integers(10, 90)), mask=mask,
                values=rng.normal(size=(4, t))))
        ds = dt.Dataset.from_episodes("x", episodes)
        once = dt.apply_exclusions(ds, task)
        twice = dt.apply_exclusions(once, task)
        assert [ep.patient_id for ep in once.episodes] == \
               [ep.patient_id for ep in twice.episodes]
        for a, b in zip(once.episodes, twice.episodes):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.mask, b.mask)
            assert a.label == b.label

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            dt.apply_exclusions(dt.Dataset.from_episodes("x", []), "sepsis")


class TestPreprocessor:
    def test_population_std_convention(self):
        mask = np.zeros((1, 2), dtype=bool)
        mask[0] = [True, True]
        ep = make_episode(d=1, t=2, mask=mask, values=np.array([[2.0, 4.0]]))
        pp = dt.fit_preprocessor([ep])
        assert pp.tv_mean[0] == 3.0
        assert pp.tv_std[0] == 1.0

    def test_never_observed_feature_defaults_with_warning(self, caplog):
        mask = np.zeros((2, 3), dtype=bool)
        mask[0] = True
        ep = make_episode(d=2, t=3, mask=mask, values=np.ones((2, 3)))
        with caplog.at_level("WARNING"):
            pp = dt.fit_preprocessor([ep])
        assert pp.tv_mean[1] == 0.0 and pp.tv_std[1] == 1.0
        assert any("never observed" in rec.message for rec in caplog.records)

    def test_static_mean(self):
        eps = [make_episode(pid="a", age=20.0), make_episode(pid="b", age=40.0)]
        pp = dt.fit_preprocessor(eps)
        assert pp.static_mean[0] == 30.0

    def test_std_floor(self):
        ep = make_episode(d=1, t=3, values=np.full((1, 3), 7.0),
                          mask=np.ones((1, 3), dtype=bool))
        pp = dt.fit_preprocessor([ep])
        assert pp.tv_std[0] == dt.STD_FLOOR

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dt.fit_preprocessor([])

    def test_roundtrip_through_arrays(self):
        pp = dt.fit_preprocessor([make_episode()])
        back = dt.PreprocessorState.from_arrays(pp.as_arrays(), fitted_on="x")
        assert np.array_equal(back.tv_mean, pp.tv_mean)
        assert np.array_equal(back.static_std, pp.static_std)


class TestTransform:
    def test_forward_fill_then_mean_fill(self):
        mask = np.array([[False, True, False, True]])
        values = np.array([[np.nan, 3.0, np.nan, 5.0]])
        ep = make_episode(d=1, t=4, mask=mask, values=np.nan_to_num(values))
        pp = dt.PreprocessorState(
            tv_mean=np.array([4.0]), tv_std=np.array([1.0]),
            static_mean=np.zeros(4), static_std=np.ones(4))
        out = dt.transform(ep, pp)
        # pre-standardization [4, 3, 3, 5], standardized by mean 4 / std 1
        np.testing.assert_allclose(out.values[0], [0.0, -1.0, -1.0, 1.0])
        np.testing.assert_array_equal(out.mask, mask)

    def test_fully_observed_row_is_identity_fill(self):
        values = np.array([[1.0, 2.0, 3.0]])
        ep = make_episode(d=1, t=3, mask=np.ones((1, 3), dtype=bool), values=values)
        pp = dt.PreprocessorState(np.array([0.0]), np.array([1.0]),
                                  np.zeros(4), np.ones(4))
        out = dt.transform(ep, pp)
        np.testing.assert_array_equal(out.values, values)

    def test_value_at_mean_standardizes_to_zero(self):
        ep = make_episode(d=1, t=1, mask=np.ones((1, 1), dtype=bool),
                          values=np.array([[3.0]]))
        pp = dt.PreprocessorState(np.array([3.0]), np.array([1.0]),
                                  np.zeros(4), np.ones(4))
        assert dt.transform(ep, pp).values[0, 0] == 0.0

    def test_statics_standardized(self):
        ep = make_episode(age=60.0)
        pp = dt.PreprocessorState(np.zeros(3), np.ones(3),
                                  np.array([50.0, 0.0, 0.0, 0.0]),
                                  np.array([10.0, 1.0, 1.0, 1.0]))
        assert dt.transform(ep, pp).statics[0] == 1.0

    def test_sentinels_never_reach_output(self):
        rng = np.random.default_rng(1)
        sentinel = 1e12
        for _ in range(100):
            d, t = 4, int(rng.integers(3, 15))
            mask = rng.random((d, t)) < 0.5
            values = rng.normal(size=(d, t))
            poisoned = np.where(mask, values, sentinel)
            eps = [make_episode(d=d, t=t, mask=mask, values=poisoned)]
            pp = dt.fit_preprocessor(eps)
            out = dt.transform(eps[0], pp)
            assert np.abs(out.values).max() < 1e6
            # and the clean/poisoned transforms agree exactly
            clean = dt.transform(make_episode(d=d, t=t, mask=mask,
                                              values=np.where(mask, values, 0.0)), pp)
            assert np.array_equal(out.values, clean.values)


class TestPooling:
    def test_cardinality(self):
        a = dt.Dataset.from_episodes("A", [make_episode(pid=f"x{i}") for i in range(100)])
        b = dt.Dataset.from_episodes("B", [make_episode(pid=f"y{i}") for i in range(50)])
        pooled = dt.pool_datasets([a, b])
        assert len(pooled) == 150
        assert pooled.name == "A+B"

    def test_overlapping_raw_ids_become_distinct(self):
        a = dt.Dataset.from_episodes("A", [make_episode(pid="same")])
        b = dt.Dataset.from_episodes("B", [make_episode(pid="same")])
        pooled = dt.pool_datasets([a, b])
        assert sorted(ep.patient_id for ep in pooled.episodes) == ["A/same", "B/same"]

    def test_overlap_without_prefix_is_error(self):
        a = dt.Dataset.from_episodes("A", [make_episode(pid="same")])
        b = dt.Dataset.from_episodes("B", [make_episode(pid="same")])
        with pytest.raises(ValueError, match="duplicate patient id"):
            dt.pool_datasets([a, b], prefix_ids=False)

    def test_schema_mismatch_rejected(self):
        a = dt.Dataset.from_episodes("A", [make_episode()], sensors=dt.SENSOR_SCHEMA[:3])
        b = dt.Dataset.from_episodes("B", [make_episode()], sensors=dt.SENSOR_SCHEMA[:4])
        with pytest.raises(dt.SchemaError, match="schema mismatch"):
            dt.pool_datasets([a, b])

    def test_contents_preserved_bit_exactly(self):
        rng = np.random.default_rng(2)
        eps = [make_episode(pid=f"p{i}", values=rng.normal(size=(3, 10)))
               for i in range(5)]
        a = dt.Dataset.from_episodes("A", eps)
        pooled = dt.pool_datasets([a])
        for orig, got in zip(eps, pooled.episodes):
            assert np.array_equal(orig.values, got.values)
            assert np.array_equal(orig.mask, got.mask)
            assert np.array_equal(orig.statics, got.statics)

    def test_pooled_prevalence_scaled_reference_mix(self):
        # 5.5% of 2000 plus 7.3% of 730 pools to ~6.0% over 2730
        a_eps = [make_episode(pid=f"a{i}", d=1, t=4, label=int(i < 110))
                 for i in range(2000)]
        b_eps = [make_episode(pid=f"b{i}", d=1, t=4, label=int(i < 53))
                 for i in range(730)]
        pooled = dt.pool_datasets([
            dt.Dataset.from_episodes("eicu_like", a_eps),
            dt.Dataset.from_episodes("m4_like", b_eps)])
        assert pooled.prevalence == pytest.approx(0.060, abs=0.001)


class TestSubsample:
    def _labeled_dataset(self, n=2000, prevalence=0.119):
        n_pos = int(round(n * prevalence))
        eps = [make_episode(pid=f"p{i}", d=1, t=4, label=int(i < n_pos))
               for i in range(n)]
        return dt.Dataset.from_episodes("x", eps)

    def test_reference_positive_count(self):
        ds = self._labeled_dataset()
        out = dt.subsample_preserving_prevalence(ds, 1000, seed=0)
        assert len(out) == 1000
        assert int((out.labels() == 1).sum()) == 119

    def test_full_size_is_permutation(self):
        ds = self._labeled_dataset(n=50, prevalence=0.2)
        out = dt.subsample_preserving_prevalence(ds, 50, seed=1)
        assert sorted(ep.patient_id for ep in out.episodes) == \
               sorted(ep.patient_id for ep in ds.episodes)

    def test_deterministic_per_seed(self):
        ds = self._labeled_dataset(n=300)
        ids1 = [ep.patient_id for ep in
                dt.subsample_preserving_prevalence(ds, 100, seed=7).episodes]
        ids2 = [ep.patient_id for ep in
                dt.subsample_preserving_prevalence(ds, 100, seed=7).episodes]
        ids3 = [ep.patient_id for ep in
                dt.subsample_preserving_prevalence(ds, 100, seed=8).episodes]
        assert ids1 == ids2
        assert set(ids1) != set(ids3)

    def test_minimum_one_positive(self):
        ds = self._labeled_dataset(n=1000, prevalence=0.01)
        out = dt.subsample_preserving_prevalence(ds, 20, seed=0)
        assert int((out.labels() == 1).sum()) == 1

    def test_size_too_small_rejected(self):
        with pytest.raises(dt.SubsampleError, match=">= 2"):
            dt.subsample_preserving_prevalence(self._labeled_dataset(n=50), 1, seed=0)

    def test_exhausted_class_names_it(self):
        # all-negative dataset: the minimum-one-positive rule needs 1, has 0
        all_neg = dt.Dataset.from_episodes(
            "y", [make_episode(pid=f"n{i}", d=1, t=4, label=0) for i in range(10)])
        with pytest.raises(dt.SubsampleError, match="positive class exhausted"):
            dt.subsample_preserving_prevalence(all_neg, 5, seed=0)

    def test_size_above_dataset_rejected(self):
        with pytest.raises(dt.SubsampleError, match="exceeds dataset size"):
            dt.subsample_preserving_prevalence(self._labeled_dataset(n=50), 51, seed=0)


class TestSplits:
    def _ds(self, n=100, prevalence=0.2):
        n_pos = int(round(n * prevalence))
        eps = [make_episode(pid=f"p{i}", d=1, t=4, label=int(i < n_pos))
               for i in range(n)]
        return dt.Dataset.from_episodes("x", eps)

    def test_sizes_on_100_episodes(self):
        plan = dt.make_splits(self._ds(100), seed=0)
        assert len(plan.test_ids) == 20
        for train, val in plan.folds:
            assert len(val) == 16
            assert len(train) == 64

    def test_validation_folds_partition_the_pool(self):
        plan = dt.make_splits(self._ds(100), seed=1)
        pool = set(plan.pool_ids())
        union = set()
        for _, val in plan.folds:
            vs = set(val)
            assert not (vs & union)
            union |= vs
        assert union == pool
        assert not (set(plan.test_ids) & pool)

    def test_no_id_in_both_test_and_training_folds(self):
        plan = dt.make_splits(self._ds(100), seed=2)
        test = set(plan.test_ids)
        for train, val in plan.folds:
            assert not (test & set(train))
            assert not (test & set(val))

    def test_deterministic(self):
        ds = self._ds(80)
        p1, p2 = dt.make_splits(ds, seed=5), dt.make_splits(ds, seed=5)
        assert p1.test_ids == p2.test_ids and p1.folds == p2.folds

    def test_stratification_within_two_points_at_500(self):
        ds = self._ds(500, prevalence=0.12)
        plan = dt.make_splits(ds, seed=3)
        by_id = {ep.patient_id: ep.label for ep in ds.episodes}

        def prev(ids):
            return float(np.mean([by_id[i] for i in ids]))

        assert abs(prev(plan.test_ids) - 0.12) <= 0.02
        for train, val in plan.folds:
            assert abs(prev(train) - 0.12) <= 0.02
            assert abs(prev(val) - 0.02 - 0.1) <= 0.04  # loose sanity on val too

    def test_too_few_positives_falls_back_with_warning(self, caplog):
        ds = self._ds(60, prevalence=0.05)  # 3 positives < 2 * folds
        with caplog.at_level("WARNING"):
            plan = dt.make_splits(ds, seed=4)
        assert any("unstratified" in rec.message for rec in caplog.records)
        assert len(plan.test_ids) == 12

    def test_tiny_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            dt.make_splits(self._ds(8), seed=0)


class TestGenerator:
    def test_prevalence_calibrated(self):
        ds = dt.generate_synthetic(1000, prevalence=0.12, seed=0, n_sensors=8)
        measured = ds.recomputed_prevalence()
        assert 0.11 <= measured <= 0.13
        assert ds.prevalence == measured

    def test_zero_sparsity_observes_everything(self):
        ds = dt.generate_synthetic(20, prevalence=0.2, sparsity=0.0, seed=1,
                                   n_sensors=6)
        for ep in ds.episodes:
            assert ep.mask.all()

    def test_bit_identical_per_seed(self):
        a = dt.generate_synthetic(30, prevalence=0.2, seed=9, n_sensors=5)
        b = dt.generate_synthetic(30, prevalence=0.2, seed=9, n_sensors=5)
        for ea, eb in zip(a.episodes, b.episodes):
            assert ea.patient_id == eb.patient_id
            assert np.array_equal(ea.values, eb.values)
            assert np.array_equal(ea.mask, eb.mask)
            assert np.array_equal(ea.statics, eb.statics)
            assert ea.label == eb.label

    def test_different_seeds_differ(self):
        a = dt.generate_synthetic(10, prevalence=0.2, seed=1, n_sensors=4)
        b = dt.generate_synthetic(10, prevalence=0.2, seed=2, n_sensors=4)
        assert not np.array_equal(a.episodes[0].values, b.episodes[0].values)

    def test_adult_age_range_and_schema(self):
        ds = dt.generate_synthetic(50, prevalence=0.2, seed=3, n_sensors=12)
        assert ds.sensors == dt.SENSOR_SCHEMA[:12]
        for ep in ds.episodes:
            assert 18.0 <= ep.statics[0] <= 95.0
            assert ep.statics[1] in (0.0, 1.0)
            assert ep.stay_hours >= 31

    def test_unachievable_prevalence_is_error(self):
        with pytest.raises(dt.CalibrationError):
            dt.generate_synthetic(10, prevalence=0.119, seed=0, n_sensors=4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="prevalence"):
            dt.generate_synthetic(10, prevalence=0.0, seed=0)
        with pytest.raises(ValueError, match="sparsity"):
            dt.generate_synthetic(10, prevalence=0.5, sparsity=1.0, seed=0)

    def test_csv_round_trip(self, tmp_path):
        ds = dt.generate_synthetic(15, prevalence=0.2, seed=4, n_sensors=6,
                                   sparsity=0.4)
        dt.write_dataset_csvs(ds, tmp_path)
        back = dt.load_dataset_dir(tmp_path, name=ds.name, sensors=ds.sensors)
        assert len(back) == len(ds)
        for orig, got in zip(ds.episodes, back.episodes):
            assert got.patient_id == orig.patient_id
            assert np.array_equal(got.mask, orig.mask)
            observed = orig.mask
            np.testing.assert_allclose(got.values[observed], orig.values[observed],
                                       atol=5e-5)
            np.testing.assert_allclose(got.statics, orig.statics, atol=0.05)
            assert got.label == orig.label

    def test_rerun_writes_identical_bytes(self, tmp_path):
        ds = dt.generate_synthetic(10, prevalence=0.2, seed=5, n_sensors=4)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        dt.write_dataset_csvs(ds, d1)
        dt.write_dataset_csvs(dt.generate_synthetic(10, prevalence=0.2, seed=5,
                                                    n_sensors=4), d2)
        for fn in ("measurements.csv", "statics.csv", "labels.csv"):
            assert (d1 / fn).read_bytes() == (d2 / fn).read_bytes()

    def test_sparsity_orders_observation_density(self):
        dense = dt.generate_synthetic(40, prevalence=0.2, sparsity=0.2, seed=6,
                                      n_sensors=10)
        sparse = dt.generate_synthetic(40, prevalence=0.2, sparsity=0.7, seed=6,
                                       n_sensors=10)
        rate = lambda ds: np.mean([ep.mask.mean() for ep in ds.episodes])
        assert rate(dense) > rate(sparse)

    def test_exclusions_keep_most_generated_episodes(self):
        ds = dt.generate_synthetic(200, prevalence=0.12, sparsity=0.6, seed=7,
                                   n_sensors=12)
        kept = dt.apply_exclusions(ds, "mortality")
        assert len(kept) >= 190
