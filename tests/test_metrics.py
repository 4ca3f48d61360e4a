"""Objective and metric tests against brute-force oracles."""

import numpy as np
import pytest

from biaxial import autodiff as ad
from biaxial import cli
from biaxial import metrics as m
from biaxial.autodiff import tensor


def brute_force_auc_roc(scores, labels):
    """All-pairs oracle: wins + half-credit ties over pos/neg pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_auc_pr(scores, labels):
    """Threshold-sweep oracle with stepwise interpolation."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    thresholds = np.unique(scores)[::-1]
    area = 0.0
    prev_recall = 0.0
    for thr in thresholds:
        predicted = scores >= thr
        tp = int((predicted & (labels == 1)).sum())
        precision = tp / int(predicted.sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class TestMaskedForecastLoss:
    def test_zero_when_pred_equals_target(self):
        x = np.random.default_rng(0).standard_normal((3, 4, 2))
        loss = m.masked_forecast_loss(tensor(x), x, np.ones_like(x, dtype=bool))
        assert loss.item() == 0.0

    def test_all_false_mask_gives_zero(self):
        rng = np.random.default_rng(1)
        pred = tensor(rng.standard_normal((2, 4, 2)))
        target = rng.standard_normal((2, 4, 2))
        loss = m.masked_forecast_loss(pred, target, np.zeros((2, 4, 2), dtype=bool))
        assert loss.item() == 0.0

    def test_hand_accumulated_example(self):
        # one patient, residuals [[1,2],[0,3]], mask keeps 1, 0, 3
        pred = tensor(np.array([[[1.0, 2.0], [0.0, 3.0]]]))
        target = np.zeros((1, 2, 2))
        mask = np.array([[[True, False], [True, True]]])
        loss = m.masked_forecast_loss(pred, target, mask)
        assert loss.item() == pytest.approx(10.0, abs=1e-12)

    def test_averages_over_batch(self):
        pred = tensor(np.ones((4, 2, 2)))
        target = np.zeros((4, 2, 2))
        mask = np.ones((4, 2, 2), dtype=bool)
        # each patient contributes 4 cells of squared residual 1
        assert m.masked_forecast_loss(pred, target, mask).item() == pytest.approx(4.0)

    def test_invariant_to_masked_out_cells(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            shape = (3, 5, 2)
            mask = rng.random(shape) < 0.5
            pred_np = rng.standard_normal(shape)
            target = rng.standard_normal(shape)
            base = m.masked_forecast_loss(tensor(pred_np), target, mask).item()
            noise = rng.standard_normal(shape) * 1e6
            pred_poison = np.where(mask, pred_np, noise)
            target_poison = np.where(mask, target, noise[::-1])
            poisoned = m.masked_forecast_loss(tensor(pred_poison), target_poison, mask).item()
            assert poisoned == base

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            m.masked_forecast_loss(tensor(np.zeros((0, 2, 2))),
                                   np.zeros((0, 2, 2)), np.zeros((0, 2, 2), dtype=bool))

    @pytest.mark.usefixtures("float64")
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        pred_np = rng.standard_normal((2, 3, 2))
        target = rng.standard_normal((2, 3, 2))
        mask = rng.random((2, 3, 2)) < 0.6
        params = {"p": tensor(pred_np, requires_grad=True)}
        report = ad.grad_check(
            lambda: m.masked_forecast_loss(params["p"], target, mask),
            params, step=1e-5, tol=1e-4)
        assert report.passed, report


class TestWeightedBce:
    @pytest.mark.usefixtures("float64")
    def test_half_probability_positive(self):
        loss = m.weighted_bce(tensor(np.array([0.5])), np.array([1.0]))
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    @pytest.mark.usefixtures("float64")
    def test_two_sample_value(self):
        loss = m.weighted_bce(tensor(np.array([0.8, 0.2])), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(-np.log(0.8), abs=1e-12)
        assert loss.item() == pytest.approx(0.2231, abs=1e-4)

    def test_pos_weight_scales_positive_term_linearly(self):
        probs = tensor(np.array([0.3]))
        labels = np.array([1.0])
        base = m.weighted_bce(probs, labels, pos_weight=1.0).item()
        doubled = m.weighted_bce(tensor(np.array([0.3])), labels, pos_weight=2.0).item()
        assert doubled == pytest.approx(2 * base, abs=1e-12)

    def test_pos_weight_leaves_negative_term_alone(self):
        labels = np.array([0.0])
        a = m.weighted_bce(tensor(np.array([0.3])), labels, pos_weight=1.0).item()
        b = m.weighted_bce(tensor(np.array([0.3])), labels, pos_weight=5.0).item()
        assert a == b

    @pytest.mark.usefixtures("float64")
    def test_nonnegative_and_zero_only_at_clamped_perfection(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = rng.integers(1, 20)
            probs = rng.random(n)
            labels = (rng.random(n) < 0.5).astype(float)
            val = m.weighted_bce(tensor(probs), labels).item()
            assert val >= 0.0
        perfect = m.weighted_bce(tensor(np.array([1.0, 0.0])), np.array([1.0, 0.0])).item()
        assert perfect == pytest.approx(-np.log(1 - m.PROB_CLAMP), abs=1e-12)

    def test_clamping_keeps_loss_finite_at_extremes(self):
        loss = m.weighted_bce(tensor(np.array([0.0, 1.0])), np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            m.weighted_bce(tensor(np.zeros(0)), np.zeros(0))

    @pytest.mark.usefixtures("float64")
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0.05, 0.95, 8)
        labels = (rng.random(8) < 0.4).astype(float)
        params = {"p": tensor(probs, requires_grad=True)}
        report = ad.grad_check(
            lambda: m.weighted_bce(params["p"], labels, pos_weight=3.0),
            params, step=1e-6, tol=1e-3)
        assert report.passed, report

    def test_default_pos_weight_helper(self):
        assert m.pos_weight_for([1, 0, 0, 0]) == 3.0
        with pytest.raises(m.UndefinedMetricError, match="no positive labels"):
            m.pos_weight_for([0, 0])
        with pytest.raises(m.UndefinedMetricError, match="no negative labels"):
            m.pos_weight_for([1, 1])


def tie_loop_auc_roc(scores, labels):
    """Rank statistic with midranks assigned by a loop over tie runs: the
    reference the vectorized auc_roc must match bitwise."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos, n_neg = int((y == 1).sum()), int((y == 0).sum())
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


class TestAucRoc:
    def test_worked_example(self):
        # pairs: (0.35 vs 0.1, 0.4) and (0.8 vs 0.1, 0.4): 3 wins, 1 loss
        auc = m.auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert auc == pytest.approx(0.75, abs=1e-15)

    def test_perfect_separation(self):
        assert m.auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_constant_scores_give_half(self):
        assert m.auc_roc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(m.UndefinedMetricError):
            m.auc_roc([0.1, 0.2], [1, 1])

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() in (0, n):
                continue
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            fast = m.auc_roc(scores, labels)
            slow = brute_force_auc_roc(scores, labels)
            assert abs(fast - slow) <= 1e-12

    def test_bitwise_equal_to_tie_loop_midranks(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 80))
            labels = (rng.random(n) < 0.3).astype(int)
            if labels.sum() in (0, n):
                continue
            scores = np.round(rng.random(n), int(rng.integers(0, 3)))
            assert m.auc_roc(scores, labels) == tie_loop_auc_roc(scores, labels)

    def test_complement_identity_for_tie_free_scores(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            scores = rng.permutation(np.linspace(0, 1, n))
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.sum() in (0, n):
                continue
            assert m.auc_roc(scores, labels) + m.auc_roc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(8)
        scores = rng.random(30)
        labels = (rng.random(30) < 0.3).astype(int)
        labels[0], labels[1] = 1, 0
        base = m.auc_roc(scores, labels)
        assert m.auc_roc(np.exp(5 * scores), labels) == base
        assert m.auc_roc(np.log(scores + 1e-9), labels) == base


class TestAucPr:
    def test_perfect_ranking(self):
        assert m.auc_pr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_constant_scores_give_prevalence(self):
        assert m.auc_pr([0.5] * 8, [1, 0, 0, 0, 1, 0, 0, 0]) == pytest.approx(0.25, abs=1e-15)

    def test_worked_example_five_sixths(self):
        auc = m.auc_pr([0.9, 0.8, 0.7], [1, 0, 1])
        assert auc == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_no_positives_rejected(self):
        with pytest.raises(m.UndefinedMetricError):
            m.auc_pr([0.1, 0.2], [0, 0])

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() == 0:
                continue
            scores = np.round(rng.random(n), 1)
            fast = m.auc_pr(scores, labels)
            slow = brute_force_auc_pr(scores, labels)
            assert abs(fast - slow) <= 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(10)
        scores = rng.random(25)
        labels = (rng.random(25) < 0.3).astype(int)
        labels[0] = 1
        base = m.auc_pr(scores, labels)
        assert m.auc_pr(3 * scores + 7, labels) == base


@pytest.mark.parametrize("metric", [m.auc_roc, m.auc_pr])
@pytest.mark.parametrize("bad", [None, 2, -1, 0.5, np.nan])
def test_label_other_than_0_or_1_is_rejected(metric, bad):
    # a ValueError, but not UndefinedMetricError, which the grid skips
    with pytest.raises(ValueError, match="labels must be 0 or 1") as info:
        metric([0.9, 0.1, 0.5, 0.3], [1, 0, bad, 0])
    assert not isinstance(info.value, m.UndefinedMetricError)


class TestReportAndCsv:
    def test_evaluate_probs_bundles_counts(self):
        rep = m.evaluate_probs([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert rep.auc_roc == 1.0 and rep.auc_pr == 1.0
        assert rep.n_pos == 2 and rep.n_neg == 2 and rep.prevalence == 0.5

    def test_csv_round_trip(self, tmp_path):
        rows = [{"dataset": "synthA", "model": "bat", "mode": "scratch", "size": 100,
                 "seed": 3, "fold": 0, "auc_roc": 0.7512345678901234, "auc_pr": 0.25}]
        path = tmp_path / "rows.csv"
        cli._write_rows(path, cli.METRIC_CSV_FIELDS, rows)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(cli.METRIC_CSV_FIELDS)
        assert "0.7512345678901234" in text
