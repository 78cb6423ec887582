"""Tests for the source-phase losses and training loop."""

import math

import numpy as np
import pytest

from protoadapt.datasets import SyntheticSpec, epoch_batches, generate_synthetic
from protoadapt.model import (Encoder, PrototypeMatrix, apply_sgd_momentum,
                              classify, classify_backward, lr_schedule)
from protoadapt.numerics import finite_diff_grad, one_hot, softmax
from protoadapt.source_trainer import (SourcePhaseConfig, loss_ce, loss_comp,
                                       train_source)


class TestLossCe:
    def test_perfect_prediction_is_zero(self):
        y = one_hot(np.array([1]), 3)
        value, _ = loss_ce(y.copy(), y)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_half_confidence_single_sample(self):
        probs = np.array([[0.5, 0.3, 0.2]])
        value, _ = loss_ce(probs, one_hot(np.array([0]), 3))
        assert value == pytest.approx(math.log(2), abs=1e-9)

    def test_uniform_four_classes(self):
        probs = np.full((1, 4), 0.25)
        value, _ = loss_ce(probs, one_hot(np.array([2]), 4))
        assert value == pytest.approx(math.log(4), abs=1e-9)

    def test_gradient_matches_softmax_composition(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 5))
        probs = softmax(logits)
        y = one_hot(rng.integers(0, 5, 4), 5)
        _, dlogits = loss_ce(probs, y)
        np.testing.assert_allclose(dlogits, (probs - y) / 4, atol=1e-12)

    def test_rejects_non_one_hot(self):
        with pytest.raises(ValueError):
            loss_ce(np.full((1, 3), 1 / 3), np.array([[0.5, 0.5, 0.0]]))


class TestLossComp:
    def test_one_hot_prediction_is_zero(self):
        y = one_hot(np.array([2]), 4)
        value, _ = loss_comp(y.copy(), y)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_hand_evaluated_value(self):
        # (1/(n(K-1))) * (1-0.4) * sum q ln q with q = (0.5, 0.5)
        probs = np.array([[0.4, 0.3, 0.3]])
        value, _ = loss_comp(probs, one_hot(np.array([0]), 3))
        assert value == pytest.approx(0.6 * math.log(0.5) / 2, abs=1e-9)

    def test_uniform_complements_minimize(self):
        # with p_g fixed, the inner sum is minimized at -log(K-1); any
        # redistribution of the complement mass increases the loss
        y = one_hot(np.array([0]), 4)
        base = np.array([[0.4, 0.2, 0.2, 0.2]])
        v0, _ = loss_comp(base, y)
        assert v0 == pytest.approx(0.6 * math.log(1 / 3) / 3, abs=1e-12)
        rng = np.random.default_rng(1)
        for _ in range(50):
            bump = rng.uniform(-0.1, 0.1, size=3)
            comp = np.array([0.2, 0.2, 0.2]) + bump - bump.mean()
            if comp.min() <= 1e-6:
                continue
            perturbed = np.concatenate([[0.4], comp])[None, :]
            v, _ = loss_comp(perturbed, y)
            assert v > v0 - 1e-12

    def test_never_positive_and_zero_iff_one_hot(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(3, 8))
            probs = rng.random((4, k)) + 1e-9
            probs /= probs.sum(axis=1, keepdims=True)
            y = one_hot(rng.integers(0, k, 4), k)
            value, _ = loss_comp(probs, y)
            assert value <= 1e-15
            assert value < -1e-12  # interior distributions are never one-hot
        # K=2 is the degenerate edge: a single complement class renormalizes
        # to q = 1, so the inner entropy term vanishes identically
        v2, _ = loss_comp(np.array([[0.7, 0.3]]), one_hot(np.array([0]), 2))
        assert v2 == pytest.approx(0.0, abs=1e-12)

    def test_per_sample_scale_bound(self):
        # |l_comp| <= log(K-1) per sample, i.e. the averaged loss obeys
        # |L| <= log(K-1)/(K-1), keeping both objectives on one scale
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(2, 10))
            p = rng.random((1, k)) + 1e-12
            p /= p.sum()
            value, _ = loss_comp(p, one_hot(rng.integers(0, k, 1), k))
            assert abs(value) <= math.log(max(k - 1, 2)) / (k - 1) + 1e-9


def separable_task(seed=0):
    spec = SyntheticSpec(k_s=3, k_t=1, d_x=4, source_per_class=30,
                         target_per_class=1, cluster_std=0.1, seed=seed)
    source, _ = generate_synthetic(spec)
    return source


def nearest_class_mean_accuracy(source):
    means = np.stack([source.features[source.labels == c].mean(axis=0)
                      for c in range(source.k_s)])
    d = ((source.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float((d.argmin(axis=1) == source.labels).mean())


class TestTrainSource:
    def test_beats_nearest_class_mean_oracle(self):
        source = separable_task()
        oracle = nearest_class_mean_accuracy(source)
        assert oracle >= 0.99  # the task is linearly separable by construction
        encoder = Encoder(4, [16], 8, seed=0)
        protos = PrototypeMatrix.random(8, 3, seed=1)
        cfg = SourcePhaseConfig(eta=1.5, epochs=50, lr0=0.01, batch_size=32, seed=0)
        history = train_source(encoder, protos, source, cfg)
        assert history[-1].source_acc >= 0.99
        assert protos.frozen

    def test_eta_zero_reduces_to_pure_ce_bitwise(self):
        source = separable_task(seed=5)
        cfg = SourcePhaseConfig(eta=0.0, epochs=5, lr0=0.01, batch_size=16, seed=7)

        enc_a = Encoder(4, [8], 6, seed=3)
        protos_a = PrototypeMatrix.random(6, 3, seed=4)
        protos_init = protos_a.weights.copy()
        history = train_source(enc_a, protos_a, source, cfg)
        assert not np.array_equal(protos_a.weights, protos_init)

        # independent cross-entropy-only loop built from the same primitives
        enc_b = Encoder(4, [8], 6, seed=3)
        protos_b = PrototypeMatrix.random(6, 3, seed=4)
        y_all = one_hot(source.labels, 3)
        rng = np.random.default_rng(cfg.seed)
        vel = np.zeros_like(enc_b.theta)
        proto_vel = np.zeros_like(protos_b.weights)
        ce_curve = []
        for epoch in range(cfg.epochs):
            lr = lr_schedule(epoch, cfg.lr0)
            ce_sum = 0.0
            for idx in epoch_batches(source, cfg.batch_size, rng):
                enc_out = enc_b.forward(source.features[idx])
                out = classify(protos_b.weights, enc_out.z_l2)
                ce_val, d_ce = loss_ce(out.probs, y_all[idx])
                d_proto, dz_l2 = classify_backward(protos_b.weights, enc_out.z_l2, d_ce)
                apply_sgd_momentum(enc_b.theta, enc_b.backward(enc_out.ctx, dz_l2=dz_l2),
                                   vel, lr, 0.9)
                apply_sgd_momentum(protos_b.weights, d_proto, proto_vel, 10 * lr, 0.9)
                ce_sum += ce_val * len(idx)
            ce_curve.append(ce_sum / source.n)

        np.testing.assert_array_equal(enc_a.theta, enc_b.theta)
        np.testing.assert_array_equal(protos_a.weights, protos_b.weights)
        assert [row.loss_ce for row in history] == ce_curve

    def test_zero_epochs_returns_initial_parameters(self):
        source = separable_task()
        encoder = Encoder(4, [8], 6, seed=11)
        before = encoder.theta.copy()
        protos = PrototypeMatrix.random(6, 3, seed=12)
        proto_before = protos.weights.copy()
        history = train_source(encoder, protos, source,
                               SourcePhaseConfig(epochs=0, seed=0))
        assert history == []
        np.testing.assert_array_equal(encoder.theta, before)
        np.testing.assert_array_equal(protos.weights, proto_before)
        assert protos.frozen

    def test_metric_log_format(self, tmp_path):
        source = separable_task()
        encoder = Encoder(4, [8], 6, seed=0)
        protos = PrototypeMatrix.random(6, 3, seed=1)
        path = tmp_path / "metrics.csv"
        train_source(encoder, protos, source,
                     SourcePhaseConfig(epochs=2, seed=0), log_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss_ce,loss_comp,source_acc,lr"
        assert len(lines) == 3

    def test_combined_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        encoder = Encoder(6, [8], 4, seed=6)
        protos = PrototypeMatrix.random(4, 5, seed=7)
        x = rng.standard_normal((8, 6))
        y = one_hot(rng.integers(0, 5, 8), 5)
        eta = 1.5
        n_enc = encoder.theta.size

        def value(theta):
            clone = encoder.copy()
            clone.theta[...] = theta[:n_enc]
            w = theta[n_enc:].reshape(4, 5)
            out = classify(w, clone.forward(x).z_l2)
            return loss_ce(out.probs, y)[0] + eta * loss_comp(out.probs, y)[0]

        fwd = encoder.forward(x)
        out = classify(protos.weights, fwd.z_l2)
        _, d_ce = loss_ce(out.probs, y)
        _, d_comp = loss_comp(out.probs, y)
        d_w, dz_l2 = classify_backward(protos.weights, fwd.z_l2, d_ce + eta * d_comp)
        analytic = np.concatenate([encoder.backward(fwd.ctx, dz_l2=dz_l2),
                                   d_w.ravel()])
        theta0 = np.concatenate([encoder.theta, protos.weights.ravel()])
        numeric = finite_diff_grad(value, theta0)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        assert (np.abs(analytic - numeric) / scale).max() < 1e-4
