"""Tests for the encoder, classifiers, optimizer, and checkpoints."""


import numpy as np
import pytest

from protoadapt.errors import NumericError
from protoadapt.model import (Encoder, PrototypeMatrix, apply_sgd_momentum,
                              classify, classify_backward, load_checkpoint,
                              lr_schedule, save_checkpoint)
from protoadapt.numerics import finite_diff_grad


class TestParameterBuffer:
    def test_layers_are_views_in_layout_order(self):
        enc = Encoder(4, [6, 5], 3, seed=1)
        enc.theta[...] = np.arange(enc.theta.size)
        pos = 0
        for w, b in zip(enc.weights, enc.biases, strict=True):
            for p in (w, b):
                assert np.shares_memory(p, enc.theta)
                np.testing.assert_array_equal(p.ravel(), np.arange(pos, pos + p.size))
                pos += p.size
        assert pos == enc.theta.size == 4 * 6 + 6 + 6 * 5 + 5 + 5 * 3 + 3

    def test_layers_cannot_be_rebound(self):
        enc = Encoder(2, [3], 2, seed=0)
        with pytest.raises(TypeError):
            enc.weights[0] = np.zeros((2, 3))
        with pytest.raises(TypeError):
            enc.biases[1] = np.zeros(2)

    def test_copy_shares_no_memory(self):
        enc = Encoder(3, [4], 2, seed=2)
        clone = enc.copy()
        np.testing.assert_array_equal(clone.theta, enc.theta)
        for a in (clone.theta, *clone.weights, *clone.biases):
            assert not np.shares_memory(a, enc.theta)

    def test_loaded_views_alias_theta(self, tmp_path):
        save_checkpoint(tmp_path / "m", Encoder(3, [4], 2, seed=2),
                        PrototypeMatrix.random(2, 3, seed=1))
        enc, _, _ = load_checkpoint(tmp_path / "m")
        assert all(np.shares_memory(p, enc.theta) for p in (*enc.weights, *enc.biases))
        x = np.random.default_rng(0).standard_normal((4, 3))
        before = enc.forward(x).z
        apply_sgd_momentum(enc.theta, np.ones_like(enc.theta),
                           np.zeros_like(enc.theta), lr=0.1)
        assert not np.array_equal(enc.forward(x).z, before)


class TestEncoderForward:
    def test_identity_configuration(self):
        # single linear layer (no hidden => no nonlinearity), weights = I
        enc = Encoder(3, [], 3, activation="identity", seed=0)
        enc.weights[0][...] = np.eye(3)
        x = np.array([[1.0, -2.0, 0.5], [0.0, 4.0, 1.0]])
        out = enc.forward(x)
        np.testing.assert_array_equal(out.z, x)

    def test_unit_norm_rows(self):
        rng = np.random.default_rng(2)
        enc = Encoder(5, [7], 4, seed=1)
        out = enc.forward(rng.standard_normal((10, 5)))
        np.testing.assert_allclose(np.linalg.norm(out.z_l2, axis=1),
                                   np.ones(10), atol=1e-9)

    def test_non_finite_activation_names_layer(self):
        enc = Encoder(2, [3], 2, seed=0)
        enc.weights[0][0, 0] = np.inf
        with pytest.raises(NumericError, match="layer 0"):
            enc.forward(np.ones((1, 2)))

    def test_gradient_of_sum_of_unit_codes(self):
        # encoder-parameter gradient of sum(z_l2) against central differences
        enc = Encoder(4, [6], 3, seed=5)
        x = np.random.default_rng(8).standard_normal((5, 4))

        def value(theta):
            clone = enc.copy()
            clone.theta[...] = theta
            return float(clone.forward(x).z_l2.sum())

        out = enc.forward(x)
        analytic = enc.backward(out.ctx, dz_l2=np.ones_like(out.z_l2))
        numeric = finite_diff_grad(value, enc.theta)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        assert (np.abs(analytic - numeric) / scale).max() < 1e-4

    def test_wrong_input_dimension(self):
        with pytest.raises(ValueError):
            Encoder(3, [], 2, seed=0).forward(np.ones((1, 4)))


class TestClassify:
    def test_aligned_prototype_wins(self):
        out = classify(np.eye(4), np.eye(4)[[0]])
        assert out.probs.argmax() == 0

    def test_zero_weights_uniform(self):
        out = classify(np.zeros((3, 5)), np.random.default_rng(0).standard_normal((2, 3)))
        np.testing.assert_allclose(out.probs, np.full((2, 5), 0.2), atol=1e-12)

    def test_doubling_logits_sharpens(self):
        # independent softmax evaluation: exp/sum by hand
        logits = np.array([0.3, -0.1, 0.9])
        raw = np.exp(logits) / np.exp(logits).sum()
        sharp = np.exp(2 * logits) / np.exp(2 * logits).sum()
        assert sharp.max() > raw.max()
        w = np.vstack([logits])  # d_z=1, three classes
        out1 = classify(w, np.array([[1.0]]))
        out2 = classify(2 * w, np.array([[1.0]]))
        assert out2.probs.max() > out1.probs.max()

    def test_rescaling_before_normalization_is_invariant(self):
        rng = np.random.default_rng(4)
        enc = Encoder(4, [5], 3, seed=2)
        w = rng.standard_normal((3, 6))
        x = rng.standard_normal((4, 4))
        base = classify(w, enc.forward(x).z_l2).probs
        scaled = classify(w, enc.forward(7.5 * x).z_l2).probs
        # scaling the input scales z only through the nonlinear layers, so
        # scale z directly instead
        z = enc.forward(x).z
        from protoadapt.numerics import l2_normalize_rows
        for c in (0.5, 3.0, 1e4):
            zc, _ = l2_normalize_rows(c * z)
            np.testing.assert_allclose(classify(w, zc).probs, base, atol=1e-9)

    def test_backward_shapes(self):
        rng = np.random.default_rng(0)
        w, z = rng.standard_normal((3, 4)), rng.standard_normal((5, 3))
        dw, dz = classify_backward(w, z, rng.standard_normal((5, 4)))
        assert dw.shape == w.shape and dz.shape == z.shape


class TestSgdMomentum:
    def test_zero_grad_no_motion(self):
        p = np.array([1.0, 2.0])
        apply_sgd_momentum(p, np.zeros(2), np.zeros(2), lr=0.1)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_momentum_zero_is_plain_sgd(self):
        p, g = np.array([1.0]), np.array([0.5])
        apply_sgd_momentum(p, g, np.zeros(1), lr=0.2, momentum=0.0)
        np.testing.assert_allclose(p, [0.9], atol=1e-15)

    def test_two_steps_constant_gradient(self):
        # v1 = g, v2 = 1.9 g  =>  total displacement lr*g*(1 + 1.9)
        p, v = np.zeros(1), np.zeros(1)
        g = np.array([2.0])
        apply_sgd_momentum(p, g, v, lr=0.1, momentum=0.9)
        apply_sgd_momentum(p, g, v, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p, [-0.1 * 2.0 * 2.9], atol=1e-12)

    def test_non_finite_update_raises(self):
        with pytest.raises(NumericError):
            apply_sgd_momentum(np.zeros(1), np.array([np.inf]), np.zeros(1), lr=0.1)


class TestLrSchedule:
    def test_initial_value(self):
        assert lr_schedule(0, 0.03) == 0.03

    def test_monotone_non_increasing(self):
        values = [lr_schedule(n, 0.01) for n in range(0, 10_001, 97)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_formula_value(self):
        expected = 0.01 * (1 + 0.0002 * 1000) ** (-0.75)
        assert lr_schedule(1000, 0.01) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.008722, abs=1e-6)


class TestCheckpoints:
    def test_round_trip_bit_exact_forward(self, tmp_path):
        rng = np.random.default_rng(9)
        enc = Encoder(4, [6, 5], 3, seed=3)
        protos = PrototypeMatrix.random(3, 7, seed=4)
        protos.frozen = True
        ensemble = protos.weights + 0.01 * rng.standard_normal((2, 3, 7))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, enc, protos, ensemble)
        enc2, protos2, ensemble2 = load_checkpoint(path)

        x = rng.standard_normal((6, 4))
        np.testing.assert_array_equal(enc.forward(x).z, enc2.forward(x).z)
        np.testing.assert_array_equal(protos.weights, protos2.weights)
        assert protos2.frozen
        np.testing.assert_array_equal(ensemble, ensemble2)

    def test_without_ensemble(self, tmp_path):
        enc = Encoder(2, [], 2, seed=0)
        protos = PrototypeMatrix.random(2, 3, seed=1)
        save_checkpoint(tmp_path / "m", enc, protos)
        _, protos2, ensemble2 = load_checkpoint(tmp_path / "m")
        assert ensemble2 is None
        assert not protos2.frozen
