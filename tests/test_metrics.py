import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmargin.loss_core import LossFamily, LossParams, hard_labels, loss_and_grad
from xmargin.metrics import (LabelConfidence, auc, auc_brute, bias_estimate,
                             conditional_accuracy, conditional_risk, scores)


def accuracy(probs, truth) -> float:
    """The share of rows whose hard label is the true one: the oracle for the
    accuracy that `scores` counts."""
    return float(np.mean(hard_labels(probs) == np.asarray(truth)))


class TestConfusion:
    """`scores`' counts, with class 1 as the positive class."""

    def test_counts(self):
        got = scores([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (got["tp"], got["fp"], got["tn"], got["fn"]) == (2, 1, 1, 1)

    def test_accuracy(self):
        assert scores([1, 1, 0, 0], [1, 0, 0, 0])["accuracy"] == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="probs and truth"):
            scores([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="probs and truth"):
            scores([1, 0], [1])

    @pytest.mark.parametrize("probs,truth,message", [
        ([0.9, 0.1], [2, 0], "truth must hold only 0 and 1"),
        ([0.9], [2], "truth must hold only 0 and 1"),
        ([0.9, 0.1], [1, -1], "truth must hold only 0 and 1"),
        ([np.nan, 0.2], [0, 0], "probs must be probabilities"),
        ([1.7, -0.3], [1, 0], "probs must be probabilities"),
        ([0.5, np.inf], [1, 0], "probs must be probabilities"),
    ], ids=["label_2", "only_label_2", "label_-1", "nan_prob", "probs_outside_0_1", "inf_prob"])
    def test_bad_values_rejected(self, probs, truth, message):
        with pytest.raises(ValueError, match=message):
            scores(probs, truth)


class TestConditionalAccuracy:
    def test_per_class(self):
        preds = [1, 1, 0, 0, 1]
        truth = [1, 0, 0, 1, 1]
        assert conditional_accuracy(preds, truth, 1) == pytest.approx(2 / 3)
        assert conditional_accuracy(preds, truth, 0) == pytest.approx(0.5)

    def test_absent_class_is_an_error(self):
        with pytest.raises(ValueError, match="undefined conditional accuracy"):
            conditional_accuracy([1, 1], [1, 1], 0)

    def test_class_other_than_0_or_1_rejected(self):
        with pytest.raises(ValueError, match="on_class must be 0 or 1"):
            conditional_accuracy([1, 1], [1, 1], 2)

    def test_recombines_to_overall_accuracy(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 2, 200)
        preds = rng.integers(0, 2, 200)
        share1 = truth.mean()
        combined = (share1 * conditional_accuracy(preds, truth, 1)
                    + (1 - share1) * conditional_accuracy(preds, truth, 0))
        assert combined == pytest.approx(accuracy(preds, truth), abs=1e-12)


class TestPrecisionRecall:
    @staticmethod
    def scored(tp, fp, tn, fn):
        """`scores` of hard 0/1 predictions holding these counts."""
        return scores([1] * (tp + fp) + [0] * (tn + fn),
                      [1] * tp + [0] * fp + [0] * tn + [1] * fn)

    def test_values(self):
        got = self.scored(tp=3, fp=1, tn=4, fn=2)
        assert got["precision"] == pytest.approx(0.75)
        assert got["recall"] == pytest.approx(0.6)

    def test_undefined_markers(self):
        # no class-1 row: recall, class-1 accuracy and AUC are undefined
        got = self.scored(tp=0, fp=0, tn=5, fn=0)
        assert got["precision"] is None and got["recall"] is None
        assert got["conditional_accuracy_class1"] is None and got["auc"] is None
        # nothing predicted positive: precision alone is undefined
        got = self.scored(tp=0, fp=0, tn=3, fn=2)
        assert got["precision"] is None and got["recall"] == 0.0


class TestAuc:
    def test_simple_case(self):
        assert auc([0.9, 0.4], [0.5, 0.1]) == 0.75

    def test_all_tied_is_half(self):
        assert auc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5

    def test_perfect_and_inverted(self):
        assert auc([0.9, 0.8], [0.1, 0.2]) == 1.0
        assert auc([0.1, 0.2], [0.9, 0.8]) == 0.0

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            auc([], [0.5])
        with pytest.raises(ValueError, match="both classes must be non-empty"):
            auc_brute([0.5], [])

    @pytest.mark.parametrize("pos,neg", [([np.nan, 0.3], [0.1, 0.5]),
                                         ([0.3], [0.1, np.nan])])
    def test_nan_score_rejected(self, pos, neg):
        with pytest.raises(ValueError, match="NaN"):
            auc(pos, neg)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(1)
        pos = rng.random(30)
        neg = rng.random(40)
        assert auc(pos, neg) == pytest.approx(1.0 - auc(neg, pos), abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_equals_brute_force_with_ties(self, seed, m, n):
        rng = np.random.default_rng(seed)
        # quantized scores force plenty of ties
        pos = np.round(rng.random(m), 1)
        neg = np.round(rng.random(n), 1)
        assert auc(pos, neg) == auc_brute(pos, neg)


@st.composite
def scored_sets(draw):
    """(probs, truth): 0/1 labels that hold both classes, and probabilities
    that often sit on either side of the 0.5 edge."""
    truth = draw(st.lists(st.integers(0, 1), min_size=2, max_size=40)
                 .filter(lambda t: 0 in t and 1 in t))
    edge = st.sampled_from([0.5, float(np.nextafter(0.5, 0.0))])
    probs = draw(st.lists(edge | st.floats(0, 1), min_size=len(truth), max_size=len(truth)))
    return np.array(probs), np.array(truth)


class TestScores:
    FIELDS = ["accuracy", "precision", "recall", "tp", "fp", "tn", "fn",
              "conditional_accuracy_class0", "conditional_accuracy_class1", "auc"]

    @given(scored_sets())
    @settings(max_examples=200)
    def test_each_field_is_its_own_function(self, scored):
        probs, truth = scored
        preds = hard_labels(probs)
        pairs = list(zip(preds.tolist(), truth.tolist()))
        counts = [pairs.count(pair) for pair in ((True, 1), (True, 0), (False, 0), (False, 1))]
        expected = dict(zip(self.FIELDS, (
            accuracy(probs, truth),
            float(np.mean(truth[preds] == 1)) if preds.any() else None,
            conditional_accuracy(preds, truth, 1), *counts,
            conditional_accuracy(preds, truth, 0), conditional_accuracy(preds, truth, 1),
            auc(probs[truth == 1], probs[truth == 0]))))
        got = scores(probs, truth)
        assert list(got) == self.FIELDS
        for name, want in expected.items():
            assert type(got[name]) is type(want) and got[name] == want, name

    @pytest.mark.parametrize("truth,undefined", [(1, "conditional_accuracy_class0"),
                                                 (0, "conditional_accuracy_class1")])
    def test_one_class_leaves_its_ratios_undefined(self, truth, undefined):
        got = scores([0.9, 0.5, 0.2], [truth] * 3)
        assert got["accuracy"] == (2 / 3 if truth else 1 / 3)
        assert got[undefined] is None and got["auc"] is None


class TestBiasEstimate:
    def test_worked_example(self):
        preds = np.array([[0.8, 0.2], [0.6, 0.4]])
        truth = np.array([1.0, 0.0])
        # ensemble means [0.7, 0.3]: squared deviations 0.09 and 0.09
        assert bias_estimate(preds, truth) == pytest.approx(0.09)

    def test_perfect_ensemble_zero_bias(self):
        preds = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert bias_estimate(preds, np.array([1.0, 0.0])) == 0.0

    def test_model_order_invariance(self):
        rng = np.random.default_rng(2)
        preds = rng.random((5, 20))
        truth = rng.integers(0, 2, 20).astype(float)
        a = bias_estimate(preds, truth)
        b = bias_estimate(preds[::-1], truth)
        assert a == pytest.approx(b, rel=1e-12)

    def test_single_model_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            bias_estimate(np.array([[0.5, 0.5]]), np.array([1.0, 0.0]))

    def test_instance_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bias_estimate(np.zeros((2, 3)), np.zeros(4))


class TestLabelConfidence:
    def test_valid(self):
        LabelConfidence(0.3, 0.7)

    @pytest.mark.parametrize("p0,p1", [(0.5, 0.6), (-0.1, 1.1), (0.2, 0.2),
                                       (math.nan, math.nan), (math.nan, 1.0)])
    def test_invalid(self, p0, p1):
        with pytest.raises(ValueError):
            LabelConfidence(p0, p1)


class TestConditionalRisk:
    def test_degenerate_confidence_recovers_plain_loss(self):
        params = LossParams(2.0, 3.0)
        for y in (0.1, 0.5, 0.9):
            assert conditional_risk(y, 0.0, 1.0, params) \
                == pytest.approx(loss_and_grad(y, 1, params)[0], abs=1e-15)
            assert conditional_risk(y, 1.0, 0.0, params) \
                == pytest.approx(loss_and_grad(y, 0, params)[0], abs=1e-15)

    def test_worked_example(self):
        params = LossParams(1.0, 1.0)
        expected = 0.25 * math.exp(0.8) + 0.75 / (1.0 + 0.36)
        got = conditional_risk(0.8, 0.25, 0.75, params)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("family", list(LossFamily))
    def test_arrays_equal_per_instance_values_bit_for_bit(self, family):
        rng = np.random.default_rng(6)
        y = np.concatenate([rng.random(200), [0.0, 0.5, 1.0]])
        p1 = rng.random(y.size)
        params = LossParams(2.5, 0.7, family)
        got = conditional_risk(y, 1.0 - p1, p1, params)
        for i in range(y.size):
            want = ((1.0 - p1[i]) * loss_and_grad(float(y[i]), 0, params)[0]
                    + p1[i] * loss_and_grad(float(y[i]), 1, params)[0])
            assert got[i] == want

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 20), st.floats(0, 20))
    @settings(max_examples=200)
    def test_convex_combination_bounds(self, y, p1, l1, l2):
        params = LossParams(l1, l2)
        r = conditional_risk(y, 1.0 - p1, p1, params)
        v0 = loss_and_grad(y, 0, params)[0]
        v1 = loss_and_grad(y, 1, params)[0]
        assert min(v0, v1) - 1e-12 <= r <= max(v0, v1) + 1e-12
        assert 0.0 < r <= math.e + 1e-12
