"""Tests for the source-phase losses and training loop."""

import math

import numpy as np
import pytest

from protoadapt import gradcheck, source_trainer
from protoadapt.datasets import SyntheticSpec, epoch_batches, generate_synthetic
from protoadapt.model import (Encoder, PrototypeMatrix, apply_sgd_momentum,
                              classify, classify_backward, lr_schedule)
from protoadapt.numerics import one_hot, softmax
from protoadapt.source_trainer import (SourcePhaseConfig, loss_ce, loss_comp, loss_source,
                                       train_source)


class TestLossCe:
    def test_perfect_prediction_is_zero(self):
        value, _ = loss_ce(one_hot(np.array([1]), 3), np.array([1]))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_half_confidence_single_sample(self):
        probs = np.array([[0.5, 0.3, 0.2]])
        value, _ = loss_ce(probs, np.array([0]))
        assert value == pytest.approx(math.log(2), abs=1e-9)

    def test_uniform_four_classes(self):
        probs = np.full((1, 4), 0.25)
        value, _ = loss_ce(probs, np.array([2]))
        assert value == pytest.approx(math.log(4), abs=1e-9)

    def test_gradient_matches_softmax_composition(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 5))
        probs = softmax(logits)
        labels = rng.integers(0, 5, 4)
        _, dlogits = loss_ce(probs, labels)
        np.testing.assert_allclose(dlogits, (probs - one_hot(labels, 5)) / 4, atol=1e-12)


@pytest.mark.parametrize("loss", [loss_ce, loss_comp])
@pytest.mark.parametrize("label", [-1, 3])
def test_losses_reject_label_outside_range(loss, label):
    with pytest.raises(ValueError, match="outside"):
        loss(np.full((2, 3), 1 / 3), np.array([0, label]))


@pytest.mark.parametrize("loss", [loss_ce, loss_comp])
@pytest.mark.parametrize("labels", [[1], [0, 1, 2, 0], [[0, 1], [1, 0]]],
                         ids=["one-for-all", "too-many", "one-hot-rows"])
def test_losses_need_one_label_per_row(loss, labels):
    with pytest.raises(ValueError, match="one label per row"):
        loss(np.full((2, 3), 1 / 3), np.array(labels))


class TestLossComp:
    def test_one_hot_prediction_is_zero(self):
        value, _ = loss_comp(one_hot(np.array([2]), 4), np.array([2]))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_hand_evaluated_value(self):
        # (1/(n(K-1))) * (1-0.4) * sum q ln q with q = (0.5, 0.5)
        probs = np.array([[0.4, 0.3, 0.3]])
        value, _ = loss_comp(probs, np.array([0]))
        assert value == pytest.approx(0.6 * math.log(0.5) / 2, abs=1e-9)

    def test_uniform_complements_minimize(self):
        # with p_g fixed, the inner sum is minimized at -log(K-1); any
        # redistribution of the complement mass increases the loss
        y = np.array([0])
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
            value, _ = loss_comp(probs, rng.integers(0, k, 4))
            assert value <= 1e-15
            assert value < -1e-12  # interior distributions are never one-hot
        # K=2 is the degenerate edge: a single complement class renormalizes
        # to q = 1, so the inner entropy term vanishes identically
        v2, _ = loss_comp(np.array([[0.7, 0.3]]), np.array([0]))
        assert v2 == pytest.approx(0.0, abs=1e-12)

    def test_per_sample_scale_bound(self):
        # |l_comp| <= log(K-1) per sample, i.e. the averaged loss obeys
        # |L| <= log(K-1)/(K-1), keeping both objectives on one scale
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(2, 10))
            p = rng.random((1, k)) + 1e-12
            p /= p.sum()
            value, _ = loss_comp(p, rng.integers(0, k, 1))
            assert abs(value) <= math.log(max(k - 1, 2)) / (k - 1) + 1e-9


def with_logit_gradient(grad):
    """``loss_source`` with its logit gradient replaced by ``grad(d_ce,
    d_comp, eta)``; the value and the term values stay right."""
    def mutant(probs, labels, eta):
        value, _, terms = loss_source(probs, labels, eta)
        return value, grad(loss_ce(probs, labels)[1], loss_comp(probs, labels)[1], eta), terms
    return mutant


def complement_ascent(d_ce, d_comp, eta):
    return d_ce - eta * d_comp


class TestLossSource:
    def test_composes_the_two_losses(self):
        rng = np.random.default_rng(4)
        probs, labels = softmax(rng.standard_normal((6, 5))), rng.integers(0, 5, 6)
        (ce_val, d_ce), (comp_val, d_comp) = loss_ce(probs, labels), loss_comp(probs, labels)
        value, dlogits, terms = loss_source(probs, labels, 1.5)
        assert (value, terms) == (ce_val + 1.5 * comp_val, (ce_val, comp_val))
        np.testing.assert_array_equal(dlogits, d_ce + 1.5 * d_comp)

    # one-line mutations of the source step's logit gradient that leave the
    # logged loss values right; each must fail the gradient suite's line
    @pytest.mark.parametrize("grad", [
        complement_ascent,
        lambda d_ce, d_comp, eta: d_ce,
        lambda d_ce, d_comp, eta: -d_ce + eta * d_comp,
        lambda d_ce, d_comp, eta: d_ce + d_comp,
    ], ids=["complement ascent", "complement dropped", "CE sign flipped", "eta dropped"])
    def test_gradcheck_catches_a_wrong_gradient(self, monkeypatch, grad):
        assert gradcheck.check_loss_source(0) < gradcheck.TOLERANCE
        monkeypatch.setattr(gradcheck, "loss_source", with_logit_gradient(grad))
        assert gradcheck.check_loss_source(0) > gradcheck.TOLERANCE


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
                ce_val, d_ce = loss_ce(out, source.labels[idx])
                d_proto, dz_l2 = classify_backward(protos_b.weights, enc_out.z_l2, d_ce)
                apply_sgd_momentum(enc_b.theta, enc_b.backward(enc_out.ctx, dz_l2=dz_l2),
                                   vel, lr)
                apply_sgd_momentum(protos_b.weights, d_proto, proto_vel, 10 * lr)
                ce_sum += ce_val * len(idx)
            ce_curve.append(ce_sum / source.n)

        np.testing.assert_array_equal(enc_a.theta, enc_b.theta)
        np.testing.assert_array_equal(protos_a.weights, protos_b.weights)
        assert [row.loss_ce for row in history] == ce_curve

    def test_each_step_calls_both_public_losses_once(self, monkeypatch):
        # per-layer profiles time the step through these two names
        calls = {"loss_ce": 0, "loss_comp": 0}
        for name in calls:
            def counted(probs, labels, _name=name, _loss=getattr(source_trainer, name)):
                calls[_name] += 1
                return _loss(probs, labels)
            monkeypatch.setattr(source_trainer, name, counted)
        source = separable_task()
        cfg = SourcePhaseConfig(epochs=3, batch_size=32, seed=0)
        train_source(Encoder(4, [8], 6, seed=0), PrototypeMatrix.random(6, 3, seed=1),
                     source, cfg)
        steps = cfg.epochs * math.ceil(source.n / cfg.batch_size)
        assert calls == {"loss_ce": steps, "loss_comp": steps}

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

    def test_steps_take_the_logit_gradient_from_loss_source(self, monkeypatch):
        # the gradient suite checks loss_source; training must apply it
        source = separable_task()
        cfg = SourcePhaseConfig(epochs=3, batch_size=32, seed=0)

        def final_theta():
            encoder = Encoder(4, [8], 6, seed=0)
            train_source(encoder, PrototypeMatrix.random(6, 3, seed=1), source, cfg)
            return encoder.theta

        clean = final_theta()
        etas = []
        ascent = with_logit_gradient(complement_ascent)

        def spy(probs, labels, eta):
            etas.append(eta)
            return ascent(probs, labels, eta)
        monkeypatch.setattr(source_trainer, "loss_source", spy)
        mutated = final_theta()
        assert etas == [cfg.eta] * (cfg.epochs * math.ceil(source.n / cfg.batch_size))
        assert not np.array_equal(mutated, clean)
