"""Tests for pseudo-labeling, complementary sets, the adaptation losses,
and the adaptation loop."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from protoadapt import adaptation, gradcheck
from protoadapt.adaptation import (AdaptConfig, adapt,
                                   build_confident_subset, cac,
                                   gen_complement_sets, loss_align,
                                   loss_geometry, loss_inter, loss_intra,
                                   loss_nl, update_pseudo_labels)
from protoadapt.datasets import SyntheticSpec, generate_synthetic
from protoadapt.errors import ConfigError
from protoadapt.model import Encoder, PrototypeMatrix, load_checkpoint, save_checkpoint
from protoadapt.numerics import (finite_diff_grad, l2_normalize_backward,
                                l2_normalize_rows, softmax)


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
        z = np.random.default_rng(0).standard_normal((6, 3))
        probs = update_pseudo_labels([z @ protos.weights])
        direct = softmax(z @ protos.weights)
        np.testing.assert_array_equal(probs, direct)
        np.testing.assert_array_equal(probs.argmax(axis=1), direct.argmax(axis=1))

    def test_constant_history_reduces_to_one_entry(self):
        protos = frozen_prototypes(3, 4, seed=2)
        z = np.random.default_rng(1).standard_normal((4, 3))
        probs = update_pseudo_labels([z @ protos.weights] * 5)
        np.testing.assert_allclose(probs,
                                   softmax(z @ protos.weights), atol=1e-12)

    def test_two_epoch_mean_oracle(self):
        protos = frozen_prototypes(2, 3, seed=3)
        rng = np.random.default_rng(2)
        z1, z2 = rng.standard_normal((2, 5, 2))
        l1, l2 = z1 @ protos.weights, z2 @ protos.weights
        probs = update_pseudo_labels([l1, l2])
        # independent mean-then-softmax computation
        expected = softmax((l1 + l2) / 2.0)
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_argmax_invariant_to_logit_shift(self):
        protos = frozen_prototypes(3, 5, seed=4)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((7, 3))
        history = [z @ protos.weights] * 3
        a = update_pseudo_labels(history)
        b = update_pseudo_labels([h + 11.5 for h in history])
        np.testing.assert_array_equal(a.argmax(axis=1), b.argmax(axis=1))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            update_pseudo_labels(deque(maxlen=1))

    def test_members_start_as_prototype_copies(self):
        protos = frozen_prototypes(3, 4, seed=5)
        result = adapt(Encoder(5, [8], 3, seed=0), protos, small_target(k_s=4, k_t=2),
                       AdaptConfig(epochs=0, n_e=3, n_a=2, n_cl=1, seed=0))
        assert result.ensemble.shape == (3, 3, 4)
        assert not np.shares_memory(result.ensemble, protos.weights)
        for w in result.ensemble:
            np.testing.assert_array_equal(w, protos.weights)

    def test_refresh_reads_the_last_n_a_ensemble_mean_logits(self, monkeypatch):
        # each epoch appends the members' mean logits on the current codes;
        # the refresh sees at most n_a entries, the newest last
        seen = []
        real = adaptation.update_pseudo_labels

        def recording(logit_history):
            seen.append([h.copy() for h in logit_history])
            return real(logit_history)

        monkeypatch.setattr(adaptation, "update_pseudo_labels", recording)
        target, protos = small_target(seed=3), frozen_prototypes(6, 8, seed=4)
        encoder = Encoder(5, [8], 6, seed=5)
        codes = [encoder.encode(target.features)]
        cfg = AdaptConfig(epochs=4, warmup_epochs=1, switch_epoch=2, n_a=2,
                          n_e=2, n_cl=2, batch_size=16, seed=6)
        adapt(encoder, protos, target, cfg,
              epoch_hook=lambda e, z_l2, ens: codes.append(z_l2.copy()))
        assert [len(h) for h in seen] == [1, 2, 2, 2]
        # warmup epoch 0 leaves the members at the prototypes, so the entries
        # of epochs 0 and 1 are the prototype logits of that epoch's codes
        for epoch in (0, 1):
            np.testing.assert_allclose(seen[epoch][-1], codes[epoch] @ protos.weights,
                                       atol=1e-12)
        for epoch in range(1, cfg.epochs):
            np.testing.assert_array_equal(seen[epoch][0], seen[epoch - 1][-1])


class TestComplementSets:
    def test_structural_example(self):
        rng = np.random.default_rng(0)
        masks = gen_complement_sets(np.array([0]), k_s=5, n_e=2, n_cl=2, rng=rng)
        assert masks.shape == (1, 2, 5) and masks.dtype == bool
        np.testing.assert_array_equal(masks[0].sum(axis=1), [2, 2])
        np.testing.assert_array_equal(masks[0].sum(axis=0), [0, 1, 1, 1, 1])

    def test_exhaustive_cover_when_sizes_match(self):
        rng = np.random.default_rng(1)
        labels = np.array([3, 0, 9, 3])
        masks = gen_complement_sets(labels, k_s=10, n_e=3, n_cl=3, rng=rng)
        np.testing.assert_array_equal(masks.any(axis=1), np.arange(10) != labels[:, None])

    def test_thousand_seeded_trials(self):
        rng = np.random.default_rng(99)
        for trial in range(1000):
            k_s = int(rng.integers(3, 12))
            n_e = int(rng.integers(1, min(4, k_s)))
            max_cl = (k_s - 1) // n_e
            n_cl = int(rng.integers(1, max_cl + 1))
            labels = rng.integers(0, k_s, size=int(rng.integers(1, 6)))
            masks = gen_complement_sets(labels, k_s, n_e, n_cl, rng)
            assert masks.shape == (len(labels), n_e, k_s) and masks.dtype == bool
            assert np.all(masks.sum(axis=2) == n_cl)  # each member holds n_cl classes
            assert masks.sum(axis=1).max() <= 1  # members disjoint
            assert not masks[np.arange(len(labels)), :, labels].any()  # never the label

    def test_draws_are_uniform_over_classes_and_members(self):
        # per-row checks cannot see a biased ranking, tie handling or
        # label placement; class and member frequencies over many rows can
        k_s, n_e, n_cl, n = 9, 3, 2, 20_000
        labels = np.random.default_rng(5).integers(0, k_s, size=n)
        masks = gen_complement_sets(labels, k_s, n_e, n_cl, np.random.default_rng(6))
        assert not masks[np.arange(n), :, labels].any()
        # each non-label class lands in some set with p = n_e*n_cl/(k_s-1)
        # and in each member with p/n_e; at ~17.8k rows per class the
        # binomial sd of either frequency is ~0.0032, so 0.02 is ~6 sd
        for c in range(k_s):
            rows = labels != c
            counts = masks[rows, :, c].sum(axis=0)
            p = n_e * n_cl / (k_s - 1)
            assert abs(counts.sum() / rows.sum() - p) < 0.02
            assert np.all(np.abs(counts / rows.sum() - p / n_e) < 0.02)

    def test_precondition_violation(self):
        with pytest.raises(ConfigError):
            gen_complement_sets(np.array([0]), k_s=4, n_e=2, n_cl=2,
                                rng=np.random.default_rng(0))

    @pytest.mark.parametrize("shared", [False, True], ids=["per_member", "shared"])
    def test_masks_adapt_hands_to_loss_nl(self, monkeypatch, shared):
        # shared mode: every member reads the same single-class set;
        # otherwise each member has its own n_cl classes, disjoint from the rest
        seen = []
        real = adaptation.loss_nl

        def recording(z_l2, weights, hist_base_sum, n_hist, masks, n_cl):
            seen.append(np.array(masks))
            return real(z_l2, weights, hist_base_sum, n_hist, masks, n_cl)

        monkeypatch.setattr(adaptation, "loss_nl", recording)
        cfg = AdaptConfig(epochs=3, warmup_epochs=1, switch_epoch=2, n_a=2, n_e=3,
                          n_cl=1 if shared else 2, batch_size=16, seed=2,
                          share_complement_set=shared)
        adapt(Encoder(5, [8], 6, seed=3), frozen_prototypes(6, 8, seed=4),
              small_target(seed=5), cfg)
        masks = np.concatenate(seen)
        assert len(seen) > 0 and masks.shape[1:] == (3, 8)
        assert np.all(masks.sum(axis=2) == cfg.n_cl)
        if shared:
            assert np.all(masks == masks[:, :1])
        else:
            assert masks.sum(axis=1).max() == 1


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

    def test_value_from_the_shared_softmax(self):
        # n_e=3, n_hist=2: every member reads softmax((H + sum_m live_m / 3) / 2)
        # and scores -(1-p) log(1-p) on its own complementary class
        z = np.array([[0.6, 0.8], [1.0, 0.0]])
        ws = np.array([[[1.0, -2.0, 0.5, 0.0], [0.0, 1.0, -1.0, 2.0]],
                       [[0.5, 0.5, -1.5, 1.0], [2.0, 0.0, 1.0, -1.0]],
                       [[-1.0, 1.0, 0.0, 0.5], [0.5, -0.5, 1.5, 0.0]]])
        hist = np.array([[0.3, -0.2, 1.1, 0.0], [-0.7, 0.4, 0.0, 0.9]])
        complement = [[1, 2, 3], [3, 0, 2]]  # [row][member]
        masks = np.zeros((2, 3, 4), dtype=bool)
        for i, row in enumerate(complement):
            for m, c in enumerate(row):
                masks[i, m, c] = True
        expected = 0.0
        for i in range(2):
            logits = [(hist[i][k] + sum(z[i][0] * ws[m][0][k] + z[i][1] * ws[m][1][k]
                                        for m in range(3)) / 3) / 2 for k in range(4)]
            total = sum(math.exp(a) for a in logits)
            for c in complement[i]:
                p = math.exp(logits[c]) / total
                expected -= (1 - p) * math.log(1 - p) / (2 * 1 * 3)
        value, _, _ = loss_nl(z, ws, hist, 2, masks, n_cl=1)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mutate", [
        lambda n_e, dz, dw: (n_e * dz, n_e * dw),  # member scale 1/n_hist, not 1/(n_e n_hist)
        lambda n_e, dz, dw: (dz, dw[::-1]),  # each member's gradient to the other member
    ], ids=["scale without 1/n_e", "wrong member"])
    def test_gradcheck_catches_a_wrong_gradient(self, monkeypatch, mutate):
        def mutant(z_l2, weights, *args):
            value, dz, dw = loss_nl(z_l2, weights, *args)
            return (value, *mutate(weights.shape[0], dz, dw))
        assert gradcheck.check_loss_nl(0) < gradcheck.TOLERANCE
        monkeypatch.setattr(gradcheck, "loss_nl", mutant)
        assert gradcheck.check_loss_nl(0) > gradcheck.TOLERANCE


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
    def test_two_point_example(self):
        tau, mask = build_confident_subset(np.array([1.0, 0.0]))
        assert tau == pytest.approx(0.5)
        assert mask.dtype == bool and mask.shape == (2,)
        np.testing.assert_array_equal(np.flatnonzero(mask), [0])

    def test_all_equal_scores_empty(self):
        _, mask = build_confident_subset(np.array([0.4, 0.4, 0.4]))
        assert np.flatnonzero(mask).size == 0

    def test_mean_threshold(self):
        tau, mask = build_confident_subset(np.array([0.9, 0.8, 0.1]))
        assert tau == pytest.approx(0.6, abs=1e-12)
        np.testing.assert_array_equal(np.flatnonzero(mask), [0, 1])

    def test_strictness(self):
        _, mask = build_confident_subset(np.array([0.5, 0.5, 1.0, 0.0]))
        np.testing.assert_array_equal(np.flatnonzero(mask), [2])

    def test_every_member_strictly_above_mean(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            scores = rng.random(int(rng.integers(1, 40)))
            tau, mask = build_confident_subset(scores)
            assert np.all(scores[np.flatnonzero(mask)] > tau)
            assert tau == pytest.approx(scores.mean(), abs=1e-12)


def unit(z):
    return l2_normalize_rows(np.asarray(z, dtype=float))[0]


class TestGeometryLosses:
    def test_inter_single_label_batch_uses_prototype_term_only(self):
        u = unit([[1.0, 0.0], [0.9, 0.1]])
        y = np.array([0, 0])
        protos = np.eye(2)
        value, du = loss_inter(u, y, protos)
        # no differently-labeled pairs; each sample against prototype e1:
        # distances 1 and 1 - 0.1/|z1|, so the value is minus their mean
        assert value == pytest.approx(-(1.0 - 0.05 / math.sqrt(0.82)), abs=1e-12)
        # the gradient at the unit codes is e1 / cnt for every row, unprojected
        np.testing.assert_allclose(du, [[0.0, 0.5], [0.0, 0.5]], atol=1e-12)

    def test_inter_orthogonal_hand_value(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        protos = np.eye(2)  # mu_0 = e0 (perp to u1), mu_1 = e1 (perp to u0)
        value, _ = loss_inter(u, y, protos)
        assert value == pytest.approx(-2.0, abs=1e-12)

    def test_intra_perfect_compactness_is_zero(self):
        v = np.array([0.6, 0.8])
        u = np.vstack([v, v])
        protos = np.column_stack([v, np.array([1.0, 0.0])])
        value, _ = loss_intra(u, np.array([0, 0]), protos)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_intra_antipodal_pair_term(self):
        v = np.array([1.0, 2.0])
        u = unit([v, -v])
        protos = np.column_stack([v, np.array([1.0, 0.0])])
        value, _ = loss_intra(u, np.array([0, 0]), protos)
        # the pair sits at distance 2; against prototype v the samples sit
        # at 0 and 2, mean 1
        assert value == pytest.approx(3.0, abs=1e-12)

    @staticmethod
    def _pairwise_reference(z, y, protos, same):
        """Mean cosine distance over the (i, j), i != j, sample pairs and
        the (i, c) sample-prototype pairs whose label equality is
        ``same``, one pair at a time, from the raw codes; an empty set
        contributes 0."""
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
        # the unit-code gradient, pulled back through the normalization's
        # Jacobian, against finite differences of a raw-code reference
        rng = np.random.default_rng(13)
        batches = [([0, 0, 1, 2, 2, 2], 4),  # repeats, a singleton class, an absent class
                   ([3, 3, 3, 3], 5),        # one label: no differently-labeled pairs
                   ([0, 1, 2, 3], 4),        # all distinct: no same-labeled pairs
                   ([0, 0, 0], 1),           # one class: no other-class prototypes
                   ([2], 3)]                 # one sample: no pairs at all
        for labels, k in batches:
            y = np.array(labels)
            z = rng.normal(size=(len(y), 4))
            u, norms, raw = l2_normalize_rows(z)
            protos = rng.normal(size=(4, k))
            for loss, same, sign in ((loss_inter, False, -1.0), (loss_intra, True, 1.0)):
                value, du = loss(u, y, protos)
                ref = lambda t: sign * self._pairwise_reference(
                    t.reshape(z.shape), y, protos, same)
                assert value == pytest.approx(ref(z.ravel()), abs=1e-12), (labels, same)
                dz = l2_normalize_backward(raw, u, norms, du)
                np.testing.assert_allclose(dz.ravel(), finite_diff_grad(ref, z.ravel()),
                                           atol=1e-8, err_msg=str((labels, same)))

    def test_gradient_under_norm_guard_is_the_guarded_maps(self):
        # a code row of norm 1e-13 sits under NORM_EPS, where the
        # normalization is z / NORM_EPS: linear, so its Jacobian is a scale
        rng = np.random.default_rng(7)
        y = np.array([0, 1, 1, 2])
        z = rng.normal(size=(4, 3))
        z[2] *= 1e-13 / np.linalg.norm(z[2])
        v_unit = unit(rng.normal(size=(3, 4)).T)
        u, norms, raw = l2_normalize_rows(z)
        for k, (_, du) in enumerate(loss_geometry(u, y, v_unit)):
            dz = l2_normalize_backward(raw, u, norms, du)
            step = 1e-17  # moves the row's unit code by 1e-5
            numeric = np.empty(3)
            for j in range(3):
                values = []
                for sign in (1.0, -1.0):
                    bumped = z.copy()
                    bumped[2, j] += sign * step
                    values.append(loss_geometry(unit(bumped), y, v_unit)[k][0])
                numeric[j] = (values[0] - values[1]) / (2.0 * step)
            np.testing.assert_allclose(dz[2], numeric, rtol=1e-6)

    @staticmethod
    def _separate_term(u, y, proto_weights, same):
        """One geometry term computed on its own from the n x n cosine
        matrices and label masks, with the prototypes normalized and the
        products formed per term: the O(n^2) reference for the per-class
        sums of ``loss_geometry``."""
        v_unit, _, _ = l2_normalize_rows(proto_weights.T)
        pair_mask = (y[:, None] == y[None, :]) == same
        if same:
            np.fill_diagonal(pair_mask, False)
        proto_mask = (y[:, None] == np.arange(proto_weights.shape[1])[None, :]) == same
        value, du = 0.0, np.zeros_like(u)
        for other, mask, w in ((u, pair_mask, 2.0), (v_unit, proto_mask, 1.0)):
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            cos = u @ other.T
            value += float(((1.0 - cos) * mask).sum() / cnt)
            du -= (mask * (w / cnt)) @ other
        return value, du

    @pytest.mark.parametrize("labels, zero_row", [
        ([3], None),                          # one row: no pairs at all
        ([2] * 7, None),                      # all labels equal: empty inter pair mask
        ([0, 1, 2, 3, 4, 5, 6], None),        # all labels distinct: empty intra pair mask
        ([0, 0, 1, 2, 1, 0, 2, 6, 1], 3),     # a zero code row, under the NORM_EPS guard
    ])
    def test_fused_terms_bit_equal_to_separate_terms(self, labels, zero_row):
        # the class-sum form agrees with the mask reference to rounding
        # (measured worst over random batches: 8.9e-16 in value, 2.2e-16 in
        # gradient); the wrappers stay bit-equal to loss_geometry's outputs
        rng = np.random.default_rng(len(labels))
        y = np.array(labels)
        z = rng.normal(size=(len(y), 6))
        if zero_row is not None:
            z[zero_row] = 0.0
        u = unit(z)
        protos = rng.normal(size=(6, 7))
        inter, intra = loss_geometry(u, y, l2_normalize_rows(protos.T)[0])
        ref_value, ref_du = self._separate_term(u, y, protos, same=False)
        for (value, du), (want, want_du) in ((inter, (-ref_value, -ref_du)),
                                             (intra, self._separate_term(u, y, protos, True))):
            assert value == pytest.approx(want, abs=1e-12)
            np.testing.assert_allclose(du, want_du, rtol=0, atol=1e-12)
        for loss, fused in ((loss_inter, inter), (loss_intra, intra)):
            value, du = loss(u, y, protos)
            assert value == fused[0] and du.tobytes() == fused[1].tobytes()

    def test_no_pair_matrix_is_allocated(self):
        # n = 2000 codes of width 32: an n x n float matrix alone would be
        # 62.5x the codes' bytes; the per-class sums need a few code-sized arrays
        rng = np.random.default_rng(0)
        u = unit(rng.normal(size=(2000, 32)))
        y = rng.integers(0, 8, size=2000)
        v_unit = unit(rng.normal(size=(8, 32)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss_geometry(u, y, v_unit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 16 * u.nbytes

    def test_empty_masks_contribute_zero(self):
        u = np.array([[1.0, 0.0]])
        value, du = loss_inter(u, np.array([0]), np.array([[1.0], [0.0]]))
        # single sample, single class: no pairs, no differing prototypes
        assert value == 0.0
        np.testing.assert_array_equal(du, np.zeros_like(u))


class TestAdaptStep:
    @pytest.mark.parametrize("phase", ["warmup", "nl", "ce"])
    def test_terms_add_up_to_the_code_gradient(self, phase):
        rng, _, protos, _, labels, weights, hist_base, masks = gradcheck._nl_instance(3)
        z_l2 = unit(rng.standard_normal((gradcheck.BATCH, gradcheck.D_Z)))
        confident = np.arange(gradcheck.BATCH) % 3 == 0
        dz_l2, ens_grad, members, terms = adaptation.adapt_step(
            phase, z_l2, labels, confident, protos.weights, unit(protos.weights.T), weights,
            AdaptConfig(n_e=2, n_cl=2), (hist_base, gradcheck.NL_HISTORY, masks))
        assert list(terms) == {"warmup": ["align"], "nl": ["align", "nl", "inter", "intra"],
                               "ce": ["align", "ce", "inter", "intra"]}[phase]
        assert members == {"warmup": None, "nl": slice(None), "ce": 0}[phase]
        assert (ens_grad is None) == (phase == "warmup")
        total = np.zeros_like(z_l2)
        for _, rows, grad in terms.values():
            total[rows] += grad
        np.testing.assert_array_equal(total, dz_l2)

    # five one-line mutations of the composed step that the behaviour tests
    # cannot see, each made as an edit of the step's code gradient from its
    # per-term shares: term -> the multiple of its share added again (-2
    # flips its sign, -1 drops it, as a dropped scatter drops CE and geometry)
    @pytest.mark.parametrize("phase, edits", [
        ("nl", {"nl": -2}),
        ("ce", {"ce": -2}),
        ("nl", {"inter": -2}),
        ("ce", {"ce": -1, "inter": -1, "intra": -1}),
        ("nl", {"inter": -2, "intra": -2}),
    ], ids=["NL ascent", "CE ascent", "inter sign alone", "scatter dropped",
            "both geometry signs"])
    def test_step_check_catches_a_wrong_step(self, monkeypatch, phase, edits):
        def mutant(*args):
            dz_l2, ens_grad, members, terms = adaptation.adapt_step(*args)
            for name, factor in edits.items():
                _, rows, grad = terms[name]
                dz_l2[rows] += factor * grad
            return dz_l2, ens_grad, members, terms
        assert gradcheck.check_adapt_step(0, phase) < gradcheck.TOLERANCE
        monkeypatch.setattr(gradcheck, "adapt_step", mutant)
        assert gradcheck.check_adapt_step(0, phase) > gradcheck.TOLERANCE


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
        for w in result.ensemble:
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
        # a numpy scalar, as ``(predict(...) == y).mean()`` returns, is logged as a float
        for kind in (float, np.float64):
            result = adapt(Encoder(5, [8], 6, seed=1), frozen_prototypes(6, 8, seed=2),
                           target, cfg, epoch_hook=lambda e, z_l2, ens: kind(0.5 + e),
                           log_path=path)
            assert [row.target_acc for row in result.history] == [0.5, 1.5, 2.5]
            assert all(type(row.target_acc) is float for row in result.history)
            lines = path.read_text().splitlines()
            assert lines[0] == ("epoch,loss_nl,loss_inter,loss_intra,loss_align,"
                                "tau,|D_tau|,target_acc")
            assert [line.split(",")[-1] for line in lines[1:]] == ["0.5", "1.5", "2.5"]

    def test_one_full_target_forward_per_epoch(self, monkeypatch):
        # the codes the hook scores at the end of an epoch feed the next
        # epoch's pseudo-label refresh: epochs + 1 full passes, not 2 * epochs,
        # all through encode, which keeps no backprop context
        target = small_target(seed=13)
        encoded, forwarded = [], []
        real_encode, real_forward = Encoder.encode, Encoder.forward

        def counting_encode(self, x):
            encoded.append(len(x))
            return real_encode(self, x)

        def counting_forward(self, x):
            forwarded.append(len(x))
            return real_forward(self, x)

        monkeypatch.setattr(Encoder, "encode", counting_encode)
        monkeypatch.setattr(Encoder, "forward", counting_forward)
        cfg = AdaptConfig(epochs=4, warmup_epochs=1, switch_epoch=2, n_a=2,
                          n_e=2, n_cl=2, batch_size=16, seed=5)
        adapt(Encoder(5, [8], 6, seed=7), frozen_prototypes(6, 8, seed=8), target, cfg,
              epoch_hook=lambda e, z_l2, ens: None)
        assert encoded == [target.n] * (cfg.epochs + 1)
        assert forwarded and all(n < target.n for n in forwarded)  # batch steps only

    def test_hook_gets_the_current_codes(self):
        target = small_target(seed=14)
        encoder = Encoder(5, [8], 6, seed=9)
        matches, ensembles = [], []

        def hook(epoch, z_l2, ensemble):
            matches.append(z_l2.tobytes() == encoder.forward(target.features).z_l2.tobytes())
            ensembles.append(ensemble)

        cfg = AdaptConfig(epochs=3, warmup_epochs=1, switch_epoch=2, n_a=2,
                          n_e=2, n_cl=2, batch_size=16, seed=6)
        result = adapt(encoder, frozen_prototypes(6, 8, seed=10), target, cfg,
                       epoch_hook=hook)
        assert matches == [True] * cfg.epochs
        # the hook gets the ensemble array itself, the one adapt returns
        assert all(ensemble is result.ensemble for ensemble in ensembles)
        assert len(ensembles) == cfg.epochs

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
        save_checkpoint(tmp_path / "adapted.ckpt", encoder, protos, result.ensemble)
        _, _, ensemble = load_checkpoint(tmp_path / "adapted.ckpt")
        assert result.ensemble.shape == (3, 6, 8)
        assert np.array_equal(ensemble, result.ensemble)

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
