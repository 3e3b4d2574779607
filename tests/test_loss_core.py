import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loss_oracle
import xmargin
from loss_oracle import indicator_terms, predict_label, sigma
from xmargin.loss_core import (Branch, LossFamily, LossParams, branches, gamma,
                               loss_and_grad, loss_and_grad_vec, xtreme_margin_loss,
                               xtreme_margin_loss_vec, xtreme_margin_subgrad)

E = math.e
P11 = LossParams(1.0, 1.0)


def bce_loss(y, y_true):
    return loss_and_grad(y, y_true, LossParams(family=LossFamily.BCE))


def hinge_loss(y, y_true):
    return loss_and_grad(y, y_true, LossParams(family=LossFamily.HINGE))


def central_diff(f, y, h=1e-6):
    return (f(y + h) - f(y - h)) / (2 * h)


class TestPredictLabel:
    def test_boundary_goes_to_class_one(self):
        assert predict_label(0.5) == 1

    def test_extremes(self):
        assert predict_label(0.0) == 0
        assert predict_label(1.0) == 1

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            predict_label(bad)


class TestSigma:
    def test_correct_region_is_zero(self):
        assert sigma(0.9, 1) == 0.0

    def test_misclassified_value(self):
        assert sigma(0.2, 1) == pytest.approx(math.exp(-0.8) - 1.0, abs=1e-12)

    def test_boundary_takes_second_branch(self):
        assert sigma(0.5, 0) == pytest.approx(math.exp(-0.5) - 1.0, abs=1e-12)

    @given(st.floats(0, 1), st.sampled_from([0, 1]))
    def test_range(self, y, y_true):
        v = sigma(y, y_true)
        assert math.exp(-1) - 1 <= v <= 0.0


class TestIndicators:
    @pytest.mark.parametrize("y_true,y_pred,expected", [
        (0, 0, (1, 0)),
        (1, 1, (0, 1)),
        (1, 0, (0, 0)),
        (0, 1, (0, 0)),
    ])
    def test_cases(self, y_true, y_pred, expected):
        assert indicator_terms(y_true, y_pred) == expected

    def test_at_most_one_fires(self):
        for yt in (0, 1):
            for yp in (0, 1):
                assert sum(indicator_terms(yt, yp)) <= 1


class TestGamma:
    def test_misclassified_is_zero(self):
        assert gamma(0.3, 1, LossParams(5.0, 7.0)) == 0.0

    def test_non_default_weighting(self):
        assert gamma(0.3, 0, LossParams(2.0, 9.0)) == pytest.approx(0.32, abs=1e-15)

    @pytest.mark.parametrize("y_true", [0, 1])
    def test_equals_the_indicator_form_bit_for_bit(self, y_true):
        # 0, 0.5 and 1 with their neighbouring floats, and a 101-point grid
        ys = [float(v) for c in (0.0, 0.5, 1.0)
              for v in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0))
              if 0.0 <= v <= 1.0]
        ys += [float(v) for v in np.linspace(0.0, 1.0, 101)]
        for params in (P11, LossParams(2.5, 0.7), LossParams(0.0, 1e6)):
            for y in ys:
                assert (gamma(y, y_true, params).hex()
                        == loss_oracle.gamma(y, y_true, params).hex()), y


class TestXtremeMarginLoss:
    def test_reference_worked_example(self):
        lv = xtreme_margin_loss(0.80, 1, P11)
        assert lv.value == pytest.approx(1 / 1.36, abs=1e-12)
        assert lv.branch is Branch.CORRECT_DEFAULT

    def test_perfect_prediction_zero_lambdas(self):
        assert xtreme_margin_loss(1.0, 1, LossParams(0.0, 0.0)).value == 1.0

    def test_misclassified_closed_form(self):
        lv = xtreme_margin_loss(0.1, 1, LossParams(3.0, 4.0))
        assert lv.branch is Branch.MISCLASSIFIED
        assert lv.value == pytest.approx(math.exp(0.9), rel=1e-12)

    def test_sigma_boundary_branch(self):
        # y = 0.5 with y_true = 1: the threshold calls it correct, the
        # distance condition still applies the misclassification penalty
        lv = xtreme_margin_loss(0.5, 1, LossParams(9.0, 9.0))
        assert lv.branch is Branch.SIGMA_BOUNDARY
        assert lv.value == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            LossParams(-0.5, 1.0)

    @given(st.floats(0, 1), st.sampled_from([0, 1]),
           st.floats(0, 1e6), st.floats(0, 1e6))
    @settings(max_examples=300)
    def test_range_property(self, y, y_true, l1, l2):
        v = xtreme_margin_loss(y, y_true, LossParams(l1, l2)).value
        assert 0.0 < v <= E

    @given(st.floats(0, 1), st.sampled_from([0, 1]), st.floats(0, 100))
    @settings(max_examples=200)
    def test_misclassified_equals_exponential(self, y, y_true, lam):
        lv = xtreme_margin_loss(y, y_true, LossParams(lam, lam))
        if lv.branch in (Branch.MISCLASSIFIED, Branch.SIGMA_BOUNDARY):
            assert lv.value == pytest.approx(math.exp(abs(y_true - y)), rel=1e-12)

    def test_lambda_limit(self):
        prev = math.inf
        for lam in (1.0, 10.0, 1e3, 1e6, 1e9):
            v = xtreme_margin_loss(0.9, 1, LossParams(1.0, lam)).value
            assert v < prev
            prev = v
        assert prev < 1e-8

    @given(st.floats(0.001, 0.999), st.floats(0.1, 50))
    @settings(max_examples=200)
    def test_symmetry_under_equal_lambdas(self, y, lam):
        if abs(y - 0.5) < 1e-9:
            return
        p = LossParams(lam, lam)
        a = xtreme_margin_loss(y, 1, p).value
        b = xtreme_margin_loss(1 - y, 0, p).value
        assert a == pytest.approx(b, rel=1e-12)

    @given(st.floats(0.0, 0.49), st.floats(0.1, 20))
    @settings(max_examples=200)
    def test_misclassified_dominates_correct_at_equal_margin(self, gap, lam):
        # same |2y - 1|: a wrong prediction always scores higher
        p = LossParams(lam, lam)
        correct = xtreme_margin_loss(0.5 + gap, 1, p).value
        wrong = xtreme_margin_loss(0.5 - gap - 1e-9, 1, p).value
        assert wrong > correct


class TestSubgradient:
    def test_correct_branch_value(self):
        g = xtreme_margin_subgrad(0.8, 1, P11)
        assert g == pytest.approx(-4 * 0.6 / 1.36 ** 2, rel=1e-12)

    def test_non_default_branch_value(self):
        g = xtreme_margin_subgrad(0.25, 0, P11)
        assert g == pytest.approx(1.28, rel=1e-12)

    def test_misclassified_branch_value(self):
        g = xtreme_margin_subgrad(0.2, 1, LossParams(7.0, 7.0))
        assert g == pytest.approx(-math.exp(0.8), rel=1e-12)

    @given(st.floats(0.002, 0.998), st.sampled_from([0, 1]), st.floats(0.1, 10))
    @settings(max_examples=300)
    def test_matches_finite_differences(self, y, y_true, lam):
        if abs(y - 0.5) < 2e-3:  # stay away from the branch boundary
            return
        p = LossParams(lam, lam)
        fd = central_diff(lambda t: xtreme_margin_loss(t, y_true, p).value, y)
        g = xtreme_margin_subgrad(y, y_true, p)
        assert g == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_subgradient_inequality_on_misclassified_piece(self):
        # the piece e^{|1 - y|} on y in [0, 0.5) is convex, so the branch
        # derivative must satisfy the supporting-line inequality there
        probes = np.linspace(0.0, 0.4999, 101)
        for y0 in (0.05, 0.2, 0.35, 0.45):
            g = xtreme_margin_subgrad(y0, 1, P11)
            f = lambda t: xtreme_margin_loss(float(t), 1, P11).value
            for t in probes:
                assert f(t) >= f(y0) + g * (t - y0) - 1e-12


class TestBaselines:
    def test_bce_values(self):
        assert bce_loss(1.0, 1)[0] == pytest.approx(0.0, abs=1e-6)
        assert bce_loss(0.5, 1)[0] == pytest.approx(math.log(2), abs=1e-12)
        assert bce_loss(0.25, 1)[0] == pytest.approx(-math.log(0.25), abs=1e-12)

    def test_bce_clamps_instead_of_diverging(self):
        v, d = bce_loss(0.0, 1)
        assert math.isfinite(v) and math.isfinite(d)

    def test_hinge_values(self):
        assert hinge_loss(1.0, 1)[0] == 0.0
        assert hinge_loss(0.5, 1)[0] == 1.0
        assert hinge_loss(0.75, 0)[0] == 1.5

    @given(st.floats(0, 1), st.sampled_from([0, 1]))
    def test_hinge_nonnegative_zero_iff_margin_met(self, y, y_true):
        v, _ = hinge_loss(y, y_true)
        t = 2 * y_true - 1
        s = 2 * y - 1
        assert v >= 0
        assert (v == 0) == (t * s >= 1)


# 0, 0.5 and 1 with their neighbouring floats on both sides, and a 101-point
# grid: the switch points of every loss and their surroundings
SWITCH_YS = [v for c in (0.0, 0.5, 1.0)
             for v in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0))
             if 0.0 <= v <= 1.0] + list(np.linspace(0.0, 1.0, 101))


class TestVectorizedKernels:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_vec_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        # random draws, then the switch points under each label
        y = np.concatenate([rng.random(64), SWITCH_YS, SWITCH_YS])
        yt = np.concatenate([rng.integers(0, 2, 64), np.zeros(len(SWITCH_YS), int),
                             np.ones(len(SWITCH_YS), int)])
        for fam in LossFamily:
            p = LossParams(2.5, 0.7, fam)
            vals, grads = loss_and_grad_vec(y, yt, p)
            for i in range(len(y)):
                v, g = loss_oracle.loss_and_grad(float(y[i]), int(yt[i]), p)
                assert vals[i] == pytest.approx(v, rel=1e-14, abs=0.0)
                assert grads[i] == pytest.approx(g, rel=1e-14, abs=0.0)

    def test_loss_vec_range(self):
        rng = np.random.default_rng(0)
        y = rng.random(10000)
        yt = rng.integers(0, 2, 10000)
        v = xtreme_margin_loss_vec(y, yt, 3.0, 0.5)
        assert (v > 0).all() and (v <= E).all()

    @pytest.mark.parametrize("y_true,pieces", [
        (0, {Branch.CORRECT_NON_DEFAULT, Branch.MISCLASSIFIED}),
        (1, {Branch.CORRECT_DEFAULT, Branch.SIGMA_BOUNDARY, Branch.MISCLASSIFIED}),
    ])
    def test_branches_match_oracle_at_switches(self, y_true, pieces):
        got = branches(SWITCH_YS, [y_true] * len(SWITCH_YS))
        assert list(got) == [loss_oracle._branch_of(y, y_true) for y in SWITCH_YS]
        assert set(got) == pieces

    def test_scalar_functions_are_length_one_kernel_calls(self):
        rng = np.random.default_rng(7)
        for y, yt in zip(rng.random(50), rng.integers(0, 2, 50)):
            y, yt = float(y), int(yt)
            for fam in LossFamily:
                p = LossParams(2.5, 0.7, fam)
                vals, grads = loss_and_grad_vec([y], [yt], p)
                assert loss_and_grad(y, yt, p) == (vals[0], grads[0])
            lv = xtreme_margin_loss(y, yt, LossParams(2.5, 0.7, LossFamily.BCE))
            assert (lv.value, lv.subgradient_dy) == loss_and_grad(y, yt, LossParams(2.5, 0.7))
            assert lv.branch is branches([y], [yt])[0]

    @pytest.mark.parametrize("fn", [lambda y, t: loss_and_grad(y, t, P11),
                                    lambda y, t: xtreme_margin_loss(y, t, P11),
                                    lambda y, t: xtreme_margin_subgrad(y, t, P11),
                                    bce_loss, hinge_loss])
    def test_scalar_domain_checks(self, fn):
        for y, yt in ((1.5, 1), (-0.1, 0), (float("nan"), 1), (0.5, 2)):
            with pytest.raises(ValueError):
                fn(y, yt)


def test_every_public_name_resolves():
    for name in xmargin.__all__:
        assert getattr(xmargin, name) is not None
