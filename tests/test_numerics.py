"""Unit tests for the shared numeric primitives."""

import math

import numpy as np
import pytest

from protoadapt.errors import DegenerateVectorError
from protoadapt.numerics import (cosine_distance, entropy, finite_diff_grad,
                                 l2_normalize_rows, one_hot, softmax)


def random_prob_vector(rng, k):
    p = rng.random(k) + 1e-9
    return p / p.sum()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_shift_invariance_exact(self):
        # integer-valued logits keep the shifted sums exact in float64,
        # so subtract-max must give bit-identical outputs
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.integers(-20, 20, size=6).astype(float)
            for c in (-100.0, 3.0, 1024.0):
                assert np.array_equal(softmax(x + c), softmax(x))

    def test_known_ratios(self):
        x = np.log([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(x), [1 / 6, 2 / 6, 3 / 6], atol=1e-9)

    def test_rows(self):
        x = np.array([[0.0, 0.0], [math.log(3), 0.0]])
        out = softmax(x, axis=-1)
        np.testing.assert_allclose(out[0], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(out[1], [0.75, 0.25], atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])
        with pytest.raises(ValueError):
            softmax([])

    def test_large_logits_stable(self):
        out = softmax([1000.0, 1000.0, -1000.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[:2], [0.5, 0.5], atol=1e-12)


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_base_two(self):
        for k in (2, 4, 7, 32):
            h = entropy(np.full(k, 1.0 / k), base="two")
            np.testing.assert_allclose(h, math.log2(k), atol=1e-12)

    def test_fair_coin_is_one_bit(self):
        np.testing.assert_allclose(entropy(np.array([0.5, 0.5]), base="two"),
                                   1.0, atol=1e-12)

    def test_uniform_maximizes(self):
        rng = np.random.default_rng(7)
        k = 6
        bound = entropy(np.full(k, 1.0 / k))
        for _ in range(1000):
            assert entropy(random_prob_vector(rng, k)) <= bound + 1e-9

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            entropy(np.array([0.9, 0.3]))
        with pytest.raises(ValueError):
            entropy(np.array([0.5, 0.5]), base="ten")


class TestL2Normalize:
    def test_three_four_five(self):
        unit, norms = l2_normalize_rows(np.array([[3.0, 4.0], [0.0, -2.0]]))
        np.testing.assert_allclose(unit, [[0.6, 0.8], [0.0, -1.0]], atol=1e-12)
        np.testing.assert_allclose(norms, [5.0, 2.0], atol=1e-12)

    def test_unit_vector_fixed_point(self):
        u = np.eye(3)
        np.testing.assert_allclose(l2_normalize_rows(u)[0], u, atol=1e-15)

    def test_degenerate_warns_and_returns_scaled(self, caplog):
        with caplog.at_level("WARNING", logger="protoadapt.numerics"):
            out, norms = l2_normalize_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out[0], np.zeros(2))
        np.testing.assert_allclose(out[1], [0.6, 0.8], atol=1e-12)
        assert norms[0] > 0  # the guarded divisor, never zero
        assert any("degenerate" in rec.message for rec in caplog.records)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        once, _ = l2_normalize_rows(rng.standard_normal((100, 5)))
        np.testing.assert_allclose(l2_normalize_rows(once)[0], once, atol=1e-9)


class TestCosineDistance:
    def test_identity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]),
                               np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_antipodal(self):
        v = np.array([0.3, -0.7, 2.0])
        assert cosine_distance(v, -v) == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = rng.standard_normal((2, 4))
            d = cosine_distance(a, b)
            assert cosine_distance(b, a) == pytest.approx(d, abs=1e-9)
            assert cosine_distance(2 * a, 3 * b) == pytest.approx(d, abs=1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateVectorError):
            cosine_distance(np.zeros(3), np.ones(3))


class TestFiniteDiffGrad:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]))
        np.testing.assert_allclose(grad, [6.0], atol=1e-6)

    def test_constant(self):
        grad = finite_diff_grad(lambda t: 1.25, np.arange(4.0))
        np.testing.assert_allclose(grad, np.zeros(4), atol=1e-9)

    def test_linear(self):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(6)
        grad = finite_diff_grad(lambda t: float(t.sum()), theta)
        np.testing.assert_allclose(grad, np.ones(6), atol=1e-8)


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([2, 0]), 3)
        np.testing.assert_array_equal(out, [[0, 0, 1], [1, 0, 0]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
