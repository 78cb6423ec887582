"""Tests for pseudo-labeling, complementary sets, the adaptation losses,
and the adaptation loop."""

import math

import numpy as np
import pytest

from protoadapt import adaptation
from protoadapt.adaptation import (AdaptConfig, EnsembleState,
                                   _epoch_complement_masks, adapt,
                                   build_confident_subset, cac,
                                   gen_complement_sets, loss_align,
                                   loss_inter, loss_intra, loss_nl,
                                   update_pseudo_labels)
from protoadapt.datasets import SyntheticSpec, generate_synthetic
from protoadapt.errors import ConfigError
from protoadapt.model import Encoder, PrototypeMatrix, load_checkpoint, save_checkpoint
from protoadapt.numerics import finite_diff_grad, softmax


def frozen_prototypes(d_z, k_s, seed=0):
    protos = PrototypeMatrix.random(d_z, k_s, seed=seed)
    protos.frozen = True
    return protos


def small_target(seed=0, k_s=8, k_t=4):
    spec = SyntheticSpec(k_s=k_s, k_t=k_t, d_x=5, source_per_class=5,
                         target_per_class=12, cluster_std=1.0,
                         rotation_angle=0.3, translation=(1.0, 0, 0, 0, 0),
                         seed=seed)
    return generate_synthetic(spec)[1]


class TestLossAlign:
    def test_one_hot_predictions_zero(self):
        probs = np.eye(4)[[0, 2, 1]]
        value, _ = loss_align(probs)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_uniform_predictions_maximal(self):
        value, _ = loss_align(np.full((3, 4), 0.25))
        assert value == pytest.approx(math.log(4), abs=1e-9)

    def test_gradient_pushes_toward_confidence(self):
        logits = np.array([[1.0, 0.0, -1.0]])
        probs = softmax(logits)
        _, dlogits = loss_align(probs)
        # descending the entropy must raise the already-largest logit
        assert dlogits[0, 0] < 0 and dlogits[0, 2] > 0


class TestPseudoLabels:
    def test_single_member_single_epoch_is_direct_softmax(self):
        protos = frozen_prototypes(3, 4, seed=1)
        ens = EnsembleState(protos, n_e=1, n_a=1)
        z = np.random.default_rng(0).standard_normal((6, 3))
        ens.push_epoch_logits(z)
        table = update_pseudo_labels(ens)
        direct = softmax(z @ protos.weights)
        np.testing.assert_array_equal(table.probs, direct)
        np.testing.assert_array_equal(table.labels, direct.argmax(axis=1))

    def test_constant_history_reduces_to_one_entry(self):
        protos = frozen_prototypes(3, 4, seed=2)
        ens = EnsembleState(protos, n_e=2, n_a=5)
        z = np.random.default_rng(1).standard_normal((4, 3))
        for _ in range(5):
            ens.push_epoch_logits(z)
        table = update_pseudo_labels(ens)
        np.testing.assert_allclose(table.probs,
                                   softmax(z @ protos.weights), atol=1e-12)

    def test_two_epoch_mean_oracle(self):
        protos = frozen_prototypes(2, 3, seed=3)
        ens = EnsembleState(protos, n_e=1, n_a=4)
        rng = np.random.default_rng(2)
        z1, z2 = rng.standard_normal((2, 5, 2))
        ens.push_epoch_logits(z1)
        ens.push_epoch_logits(z2)
        table = update_pseudo_labels(ens)
        # independent mean-then-softmax computation
        l1, l2 = z1 @ protos.weights, z2 @ protos.weights
        expected = softmax((l1 + l2) / 2.0)
        np.testing.assert_allclose(table.probs, expected, atol=1e-12)

    def test_argmax_invariant_to_logit_shift(self):
        protos = frozen_prototypes(3, 5, seed=4)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((7, 3))
        ens_a = EnsembleState(protos, 1, 3)
        ens_b = EnsembleState(protos, 1, 3)
        for _ in range(3):
            ens_a.push_epoch_logits(z)
            ens_b.push_epoch_logits(z)
        ens_b.history = type(ens_b.history)((h + 11.5 for h in ens_b.history),
                                            maxlen=ens_b.history.maxlen)
        a, b = update_pseudo_labels(ens_a), update_pseudo_labels(ens_b)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)

    def test_empty_history_rejected(self):
        ens = EnsembleState(frozen_prototypes(2, 3), 1, 1)
        with pytest.raises(ValueError):
            update_pseudo_labels(ens)

    def test_members_start_as_prototype_copies(self):
        protos = frozen_prototypes(3, 4, seed=5)
        ens = EnsembleState(protos, n_e=3, n_a=2)
        assert ens.weights.shape == (3, 3, 4)
        assert not np.shares_memory(ens.weights, protos.weights)
        for w in ens.weights:
            np.testing.assert_array_equal(w, protos.weights)


class TestComplementSets:
    def test_structural_example(self):
        rng = np.random.default_rng(0)
        sets = gen_complement_sets(np.array([0]), k_s=5, n_e=2, n_cl=2, rng=rng)
        union = set(sets[0, 0]) | set(sets[0, 1])
        assert sets.shape == (1, 2, 2)
        assert len(union) == 4 and 0 not in union
        assert union <= {1, 2, 3, 4}

    def test_exhaustive_cover_when_sizes_match(self):
        rng = np.random.default_rng(1)
        labels = np.array([3, 0, 9, 3])
        sets = gen_complement_sets(labels, k_s=10, n_e=3, n_cl=3, rng=rng)
        for row, y in zip(sets, labels):
            assert set(row.ravel()) == set(range(10)) - {y}

    def test_thousand_seeded_trials(self):
        rng = np.random.default_rng(99)
        for trial in range(1000):
            k_s = int(rng.integers(3, 12))
            n_e = int(rng.integers(1, min(4, k_s)))
            max_cl = (k_s - 1) // n_e
            n_cl = int(rng.integers(1, max_cl + 1))
            labels = rng.integers(0, k_s, size=int(rng.integers(1, 6)))
            sets = gen_complement_sets(labels, k_s, n_e, n_cl, rng)
            assert sets.shape == (len(labels), n_e, n_cl)
            for row, y in zip(sets, labels):
                flat = row.ravel()
                assert len(set(flat)) == n_e * n_cl  # disjoint, no repeats
                assert y not in flat
                assert flat.min() >= 0 and flat.max() < k_s
                assert np.all(np.diff(row, axis=1) > 0)  # each set sorted

    def test_draws_are_uniform_over_classes_and_members(self):
        # per-row checks cannot see a biased ranking, tie handling or
        # label placement; class and member frequencies over many rows can
        k_s, n_e, n_cl, n = 9, 3, 2, 20_000
        labels = np.random.default_rng(5).integers(0, k_s, size=n)
        sets = gen_complement_sets(labels, k_s, n_e, n_cl, np.random.default_rng(6))
        onehot = np.zeros((n, n_e, k_s), dtype=int)
        np.put_along_axis(onehot, sets, 1, axis=2)
        assert not onehot[np.arange(n), :, labels].any()
        # each non-label class lands in some set with p = n_e*n_cl/(k_s-1)
        # and in each member with p/n_e; at ~17.8k rows per class the
        # binomial sd of either frequency is ~0.0032, so 0.02 is ~6 sd
        for c in range(k_s):
            rows = labels != c
            counts = onehot[rows, :, c].sum(axis=0)
            p = n_e * n_cl / (k_s - 1)
            assert abs(counts.sum() / rows.sum() - p) < 0.02
            assert np.all(np.abs(counts / rows.sum() - p / n_e) < 0.02)

    def test_precondition_violation(self):
        with pytest.raises(ConfigError):
            gen_complement_sets(np.array([0]), k_s=4, n_e=2, n_cl=2,
                                rng=np.random.default_rng(0))

    def test_epoch_masks_shared_mode(self):
        cfg = AdaptConfig(n_e=3, n_cl=1, share_complement_set=True,
                          warmup_epochs=1, switch_epoch=5)
        labels = np.array([0, 2, 4])
        masks = _epoch_complement_masks(labels, 6, cfg, np.random.default_rng(0))
        for j, y in enumerate(labels):
            # every member shares one identical single-class set
            assert masks[j].sum() == 3
            cols = np.flatnonzero(masks[j].any(axis=0))
            assert len(cols) == 1 and cols[0] != y
            assert np.all(masks[j][:, cols[0]])


class TestLossNl:
    def test_suppressed_complements_vanish(self):
        # complement probability ~ 0 => -(1-p)log(1-p) ~ 0
        z = np.array([[1.0, 0.0]])
        w = np.array([[0.0, -60.0, 0.0], [0.0, 0.0, 0.0]])
        masks = np.zeros((1, 1, 3), dtype=bool)
        masks[0, 0, 1] = True
        value, _, _ = loss_nl(z, w[None], np.zeros((1, 3)), 1, masks, n_cl=1)
        assert abs(value) < 1e-9

    def test_half_probability_complement(self):
        # two classes, p = [0.5, 0.5], complement index 1
        z = np.array([[1.0]])
        w = np.zeros((1, 2))
        masks = np.zeros((1, 1, 2), dtype=bool)
        masks[0, 0, 1] = True
        value, _, _ = loss_nl(z, w[None], np.zeros((1, 2)), 1, masks, n_cl=1)
        assert value == pytest.approx(-0.5 * math.log(0.5), abs=1e-12)
        assert value == pytest.approx(0.346574, abs=1e-6)

    def test_gradients_respect_member_ownership(self):
        # member m's weights receive gradient only from its own term
        rng = np.random.default_rng(4)
        z = rng.standard_normal((6, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        ws = rng.standard_normal((2, 3, 5))
        masks = np.zeros((6, 2, 5), dtype=bool)
        masks[:, 0, 1] = True  # only member 0 has any complement entries
        _, _, d_ws = loss_nl(z, ws, rng.standard_normal((6, 5)), 2, masks, n_cl=1)
        assert d_ws.shape == ws.shape
        assert np.any(d_ws[0] != 0)
        np.testing.assert_array_equal(d_ws[1], np.zeros((3, 5)))


class TestCac:
    def test_one_hot_scores_one(self):
        for k in range(2, 65):
            assert cac(np.eye(k)[0]) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_scores_inverse_k(self):
        for k in range(2, 65):
            assert cac(np.full(k, 1.0 / k)) == pytest.approx(1.0 / k, abs=1e-9)

    def test_hand_evaluated_value(self):
        assert cac(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(0.75, abs=1e-9)

    def test_bounds_on_random_distributions(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            k = int(rng.integers(2, 20))
            p = rng.random(k) + 1e-12
            p /= p.sum()
            score = cac(p)
            assert 0.0 <= score <= 1.0

    def test_rows(self):
        p = np.array([[1.0, 0.0], [0.5, 0.5]])
        np.testing.assert_allclose(cac(p), [1.0, 0.5], atol=1e-9)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            cac(np.array([[1.0], [1.0]]))


class TestConfidentSubset:
    def _table(self, scores):
        scores = np.asarray(scores, dtype=float)
        n = len(scores)
        from protoadapt.adaptation import PseudoLabelTable
        return PseudoLabelTable(np.full((n, 2), 0.5), np.zeros(n, dtype=int), scores)

    def test_two_point_example(self):
        subset = build_confident_subset(self._table([1.0, 0.0]))
        assert subset.tau == pytest.approx(0.5)
        assert subset.mask.dtype == bool and subset.mask.shape == (2,)
        np.testing.assert_array_equal(np.flatnonzero(subset.mask), [0])

    def test_all_equal_scores_empty(self):
        subset = build_confident_subset(self._table([0.4, 0.4, 0.4]))
        assert np.flatnonzero(subset.mask).size == 0

    def test_mean_threshold(self):
        subset = build_confident_subset(self._table([0.9, 0.8, 0.1]))
        assert subset.tau == pytest.approx(0.6, abs=1e-12)
        np.testing.assert_array_equal(np.flatnonzero(subset.mask), [0, 1])

    def test_strictness(self):
        subset = build_confident_subset(self._table([0.5, 0.5, 1.0, 0.0]))
        np.testing.assert_array_equal(np.flatnonzero(subset.mask), [2])

    def test_every_member_strictly_above_mean(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            scores = rng.random(int(rng.integers(1, 40)))
            subset = build_confident_subset(self._table(scores))
            assert np.all(scores[np.flatnonzero(subset.mask)] > subset.tau)
            assert subset.tau == pytest.approx(scores.mean(), abs=1e-12)


class TestGeometryLosses:
    def test_inter_single_label_batch_uses_prototype_term_only(self):
        z = np.array([[1.0, 0.0], [0.9, 0.1]])
        y = np.array([0, 0])
        protos = np.eye(2)
        value, dz = loss_inter(z, y, protos)
        # no differently-labeled pairs; each sample against prototype e1:
        # distances 1 and 1 - 0.1/|z1|, so the value is minus their mean
        assert value == pytest.approx(-(1.0 - 0.05 / math.sqrt(0.82)), abs=1e-12)
        # z0 = e0 is orthogonal to e1: its gradient is e1 / cnt
        np.testing.assert_allclose(dz[0], [0.0, 0.5], atol=1e-12)

    def test_inter_orthogonal_hand_value(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        protos = np.eye(2)  # mu_0 = e0 (perp to z1), mu_1 = e1 (perp to z0)
        value, _ = loss_inter(z, y, protos)
        assert value == pytest.approx(-2.0, abs=1e-12)

    def test_intra_perfect_compactness_is_zero(self):
        v = np.array([0.6, 0.8])
        z = np.vstack([v, v])
        protos = np.column_stack([v, np.array([1.0, 0.0])])
        value, _ = loss_intra(z, np.array([0, 0]), protos)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_intra_antipodal_pair_term(self):
        v = np.array([1.0, 2.0])
        z = np.vstack([v, -v])
        protos = np.column_stack([v, np.array([1.0, 0.0])])
        value, _ = loss_intra(z, np.array([0, 0]), protos)
        # the pair sits at distance 2; against prototype v the samples sit
        # at 0 and 2, mean 1
        assert value == pytest.approx(3.0, abs=1e-12)

    @staticmethod
    def _pairwise_reference(z, y, protos, same):
        """Mean cosine distance over the (i, j), i != j, sample pairs and
        the (i, c) sample-prototype pairs whose label equality is
        ``same``, one pair at a time; an empty set contributes 0."""
        def dist(a, b):
            return 1.0 - float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        total = 0.0
        for pairs in ([(z[i], z[j]) for i in range(len(y)) for j in range(len(y))
                       if i != j and (y[i] == y[j]) == same],
                      [(z[i], protos[:, c]) for i in range(len(y))
                       for c in range(protos.shape[1]) if (y[i] == c) == same]):
            if pairs:
                total += sum(dist(a, b) for a, b in pairs) / len(pairs)
        return total

    def test_geometry_matches_pairwise_reference(self):
        rng = np.random.default_rng(13)
        batches = [([0, 0, 1, 2, 2, 2], 4),  # repeats, a singleton class, an absent class
                   ([3, 3, 3, 3], 5),        # one label: no differently-labeled pairs
                   ([0, 1, 2, 3], 4),        # all distinct: no same-labeled pairs
                   ([0, 0, 0], 1),           # one class: no other-class prototypes
                   ([2], 3)]                 # one sample: no pairs at all
        for labels, k in batches:
            y = np.array(labels)
            z = rng.normal(size=(len(y), 4))
            protos = rng.normal(size=(4, k))
            for loss, same, sign in ((loss_inter, False, -1.0), (loss_intra, True, 1.0)):
                value, dz = loss(z, y, protos)
                ref = lambda t: sign * self._pairwise_reference(
                    t.reshape(z.shape), y, protos, same)
                assert value == pytest.approx(ref(z.ravel()), abs=1e-12), (labels, same)
                np.testing.assert_allclose(dz.ravel(), finite_diff_grad(ref, z.ravel()),
                                           atol=1e-8, err_msg=str((labels, same)))

    def test_empty_masks_contribute_zero(self):
        z = np.array([[1.0, 0.0]])
        value, dz = loss_inter(z, np.array([0]), np.array([[1.0], [0.0]]))
        # single sample, single class: no pairs, no differing prototypes
        assert value == 0.0
        np.testing.assert_array_equal(dz, np.zeros_like(z))


class TestAdaptLoop:
    def test_zero_epochs_is_identity(self):
        target = small_target()
        encoder = Encoder(5, [8], 6, seed=0)
        before = encoder.theta.copy()
        protos = frozen_prototypes(6, 8, seed=1)
        result = adapt(encoder, protos, target,
                       AdaptConfig(epochs=0, n_e=2, n_cl=2, seed=0))
        np.testing.assert_array_equal(encoder.theta, before)
        assert result.history == []
        for w in result.ensemble.weights:
            np.testing.assert_array_equal(w, protos.weights)

    def test_requires_frozen_prototypes(self):
        target = small_target()
        with pytest.raises(ConfigError):
            adapt(Encoder(5, [8], 6, seed=0), PrototypeMatrix.random(6, 8),
                  target, AdaptConfig(epochs=1))

    def test_complement_capacity_checked_at_startup(self):
        target = small_target(k_s=4, k_t=2)
        with pytest.raises(ConfigError):
            adapt(Encoder(5, [8], 6, seed=0), frozen_prototypes(6, 4),
                  target, AdaptConfig(n_e=3, n_cl=3, epochs=1))

    def test_prototypes_immutable_through_all_phases(self):
        target = small_target()
        protos = frozen_prototypes(6, 8, seed=2)
        before = protos.weights.tobytes()
        cfg = AdaptConfig(epochs=8, warmup_epochs=2, switch_epoch=5,
                          n_a=3, n_e=2, n_cl=2, batch_size=16, seed=0)
        adapt(Encoder(5, [8], 6, seed=3), protos, target, cfg)
        assert protos.weights.tobytes() == before

    def test_warmup_reduction_is_bit_exact(self):
        # during warm-up only the alignment term trains, so ensemble size,
        # set sizes, and geometry weights must not change anything
        target = small_target(seed=4)
        cfg_a = AdaptConfig(alpha=0.0, beta=0.0, n_e=1, n_cl=1, epochs=5,
                            warmup_epochs=5, switch_epoch=15, batch_size=16, seed=9)
        cfg_b = AdaptConfig(alpha=0.5, beta=1.5, n_e=3, n_cl=2, epochs=5,
                            warmup_epochs=5, switch_epoch=15, batch_size=16, seed=9)
        enc_a = Encoder(5, [8], 6, seed=5)
        enc_b = Encoder(5, [8], 6, seed=5)
        protos = frozen_prototypes(6, 8, seed=6)
        res_a = adapt(enc_a, protos, target, cfg_a)
        res_b = adapt(enc_b, protos, target, cfg_b)
        np.testing.assert_array_equal(enc_a.theta, enc_b.theta)
        for row_a, row_b in zip(res_a.history, res_b.history):
            assert row_a.loss_align == row_b.loss_align
            assert row_a.loss_nl == row_b.loss_nl == 0.0
            assert row_a.loss_inter == row_b.loss_inter == 0.0
            assert row_a.loss_intra == row_b.loss_intra == 0.0

    def test_geometry_columns_zero_when_coefficients_zero(self):
        target = small_target(seed=7)
        cfg = AdaptConfig(alpha=0.0, beta=0.0, epochs=8, warmup_epochs=2,
                          switch_epoch=5, n_a=3, n_e=2, n_cl=2,
                          batch_size=16, seed=1)
        result = adapt(Encoder(5, [8], 6, seed=8), frozen_prototypes(6, 8, seed=9),
                       target, cfg)
        for row in result.history:
            assert row.loss_inter == 0.0
            assert row.loss_intra == 0.0

    def test_epoch_hook_feeds_target_acc_column(self, tmp_path):
        target = small_target(seed=8)
        cfg = AdaptConfig(epochs=3, warmup_epochs=1, switch_epoch=2,
                          n_a=2, n_e=2, n_cl=2, batch_size=16, seed=2)
        path = tmp_path / "log.csv"
        result = adapt(Encoder(5, [8], 6, seed=1), frozen_prototypes(6, 8, seed=2),
                       target, cfg, epoch_hook=lambda e, enc, ens: 0.5 + e,
                       log_path=path)
        assert [row.target_acc for row in result.history] == [0.5, 1.5, 2.5]
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss_nl,loss_inter,loss_intra,loss_align,tau,|D_tau|,target_acc"
        assert [line.split(",")[-1] for line in lines[1:]] == ["0.5", "1.5", "2.5"]

    def test_log_blank_target_acc_without_hook(self, tmp_path):
        target = small_target(seed=9)
        cfg = AdaptConfig(epochs=1, warmup_epochs=1, switch_epoch=2,
                          n_a=1, n_e=1, n_cl=1, batch_size=16, seed=3)
        result = adapt(Encoder(5, [8], 6, seed=2), frozen_prototypes(6, 8, seed=3),
                       target, cfg, log_path=tmp_path / "log.csv")
        row = (tmp_path / "log.csv").read_text().splitlines()[1]
        assert row.endswith(",")  # empty target_acc field
        assert result.history[0].target_acc is None

    @pytest.mark.parametrize("shared", [False, True])
    def test_one_sampler_call_per_nl_epoch(self, monkeypatch, shared):
        # epochs 1..3 of 6 are negative-learning epochs
        calls = []
        real = adaptation.gen_complement_sets

        def counting(labels, *args):
            calls.append(len(labels))
            return real(labels, *args)

        monkeypatch.setattr(adaptation, "gen_complement_sets", counting)
        target = small_target(seed=12)
        cfg = AdaptConfig(epochs=6, warmup_epochs=1, switch_epoch=3, n_a=2,
                          n_e=2, n_cl=2, batch_size=16, seed=4,
                          share_complement_set=shared)
        adapt(Encoder(5, [8], 6, seed=6), frozen_prototypes(6, 8, seed=7), target, cfg)
        assert calls == [target.n] * 3

    def test_ensemble_survives_checkpoint_round_trip(self, tmp_path):
        target = small_target(seed=11)
        encoder, protos = Encoder(5, [8], 6, seed=4), frozen_prototypes(6, 8, seed=5)
        cfg = AdaptConfig(epochs=5, warmup_epochs=1, switch_epoch=2, n_a=2,
                          n_e=3, n_cl=2, batch_size=16, seed=6)
        result = adapt(encoder, protos, target, cfg)
        save_checkpoint(tmp_path / "adapted.ckpt", encoder, protos, result.ensemble.weights)
        _, _, ensemble = load_checkpoint(tmp_path / "adapted.ckpt")
        assert result.ensemble.weights.shape == (3, 6, 8)
        assert np.array_equal(ensemble, result.ensemble.weights)

    def test_determinism_same_seed(self):
        target = small_target(seed=10)
        cfg = AdaptConfig(epochs=6, warmup_epochs=1, switch_epoch=4,
                          n_a=3, n_e=2, n_cl=2, batch_size=16, seed=11)
        flats = []
        for _ in range(2):
            enc = Encoder(5, [8], 6, seed=12)
            adapt(enc, frozen_prototypes(6, 8, seed=13), target, cfg)
            flats.append(enc.theta)
        np.testing.assert_array_equal(flats[0], flats[1])
