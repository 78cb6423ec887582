"""Tests for synthetic generation, feature-file I/O, and batching."""

import math

import numpy as np
import pytest

from protoadapt.datasets import (Dataset, SyntheticSpec, epoch_batches,
                                 generate_synthetic, read_feature_file,
                                 write_feature_file)
from protoadapt.errors import ConfigError, DataFormatError


def small_spec(**overrides):
    base = dict(k_s=8, k_t=4, d_x=6, source_per_class=20, target_per_class=10,
                cluster_std=1.0, rotation_angle=0.0, translation=(), seed=42)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSyntheticGeneration:
    def test_degenerate_shift_collapses_to_means(self):
        spec = small_spec(cluster_std=1e-12)
        source, target = generate_synthetic(spec)
        for c in range(spec.k_t):
            src_c = source.features[source.labels == c]
            tgt_c = target.features[target.hidden_labels == c]
            np.testing.assert_allclose(tgt_c, np.broadcast_to(src_c[0], tgt_c.shape),
                                       atol=1e-9)

    def test_target_label_space_is_prefix_subset(self):
        _, target = generate_synthetic(small_spec())
        assert set(target.hidden_labels.tolist()) == {0, 1, 2, 3}
        assert target.labels is None

    def test_determinism_byte_identical_files(self, tmp_path):
        for run in ("a", "b"):
            src, tgt = generate_synthetic(small_spec())
            write_feature_file(src, tmp_path / f"s_{run}")
            write_feature_file(tgt, tmp_path / f"t_{run}")
        assert (tmp_path / "s_a").read_bytes() == (tmp_path / "s_b").read_bytes()
        assert (tmp_path / "t_a").read_bytes() == (tmp_path / "t_b").read_bytes()

    def test_identity_shift_matches_class_means(self):
        spec = small_spec(source_per_class=400, target_per_class=400)
        source, target = generate_synthetic(spec)
        bound = 3 * spec.cluster_std / math.sqrt(400)
        for c in range(spec.k_t):
            src_mean = source.features[source.labels == c].mean(axis=0)
            tgt_mean = target.features[target.hidden_labels == c].mean(axis=0)
            assert np.abs(src_mean - tgt_mean).max() < bound

    def test_rotation_and_translation_applied(self):
        angle = math.pi / 2
        spec = small_spec(cluster_std=1e-12, rotation_angle=angle,
                          translation=(1.0,) + (0.0,) * 5)
        plain_src, _ = generate_synthetic(small_spec(cluster_std=1e-12))
        _, target = generate_synthetic(spec)
        mean0 = plain_src.features[plain_src.labels == 0][0]
        expected = mean0.copy()
        expected[0], expected[1] = -mean0[1], mean0[0]
        expected[0] += 1.0
        np.testing.assert_allclose(target.features[0], expected, atol=1e-9)

    def test_kt_exceeding_ks_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(k_t=9)


class TestFeatureFiles:
    def test_empty_dataset_round_trips(self, tmp_path):
        empty = Dataset(np.empty((0, 3)), np.empty(0, dtype=int), 5, "source")
        path = tmp_path / "empty"
        write_feature_file(empty, path)
        back = read_feature_file(path)
        assert back.n == 0 and back.d_x == 3 and back.k_s == 5

    def test_labeled_round_trip(self, tmp_path):
        ds = Dataset(np.array([[1.5, -2.25], [0.125, 3.0]]), np.array([0, 2]),
                     3, "source")
        path = tmp_path / "two"
        write_feature_file(ds, path)
        back = read_feature_file(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        # writing again must reproduce the file byte for byte
        write_feature_file(back, tmp_path / "two2")
        assert path.read_bytes() == (tmp_path / "two2").read_bytes()

    def test_hidden_labels_round_trip(self, tmp_path):
        ds = Dataset(np.array([[0.5], [1.5]]), None, 4, "target",
                     hidden_labels=np.array([1, 3]))
        write_feature_file(ds, tmp_path / "t")
        back = read_feature_file(tmp_path / "t")
        assert back.labels is None
        np.testing.assert_array_equal(back.hidden_labels, [1, 3])

    def test_nine_significant_digits_stable(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.standard_normal((4, 3)) * 1e3, None, 2, "target")
        write_feature_file(ds, tmp_path / "a")
        once = read_feature_file(tmp_path / "a")
        write_feature_file(once, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_short_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("#pda-features v1 d=3 k=2 role=source\n"
                        "0,1.0,2.0,3.0\n"
                        "1,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3"):
            read_feature_file(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("#pda-features v1 d=1 k=2 role=source\n5,1.0\n",
                        encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2"):
            read_feature_file(path)

    @pytest.mark.parametrize("header, field", [
        ("d=2 k=0", "k=0"), ("d=2 k=-3", "k=-3"), ("d=-1 k=3", "d=-1")])
    @pytest.mark.parametrize("rows", ["", "?,1.0,2.0#0\n"], ids=["no-rows", "one-row"])
    def test_header_sizes_out_of_range_rejected(self, tmp_path, header, field, rows):
        path = tmp_path / "bad"
        path.write_text(f"#pda-features v1 {header} role=target\n{rows}", encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"line 1: {field} must be"):
            read_feature_file(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("1,2,3\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1"):
            read_feature_file(path)


class TestDatasetInvariants:
    def test_source_requires_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), None, 2, "source")

    def test_target_rejects_visible_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 1]), 2, "target")

    def test_features_read_only(self):
        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), 2, "source")
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan]]), np.array([0]), 2, "source")


class TestEpochBatches:
    def _dataset(self, n):
        return Dataset(np.zeros((n, 1)), np.zeros(n, dtype=int), 2, "source")

    def test_remainder_handling(self):
        batches = epoch_batches(self._dataset(5), 2, np.random.default_rng(0))
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_oversized_batch_is_single_permutation(self):
        batches = epoch_batches(self._dataset(4), 10, np.random.default_rng(0))
        assert len(batches) == 1
        assert sorted(batches[0].tolist()) == [0, 1, 2, 3]

    def test_same_seed_same_batches(self):
        a = epoch_batches(self._dataset(9), 4, np.random.default_rng(3))
        b = epoch_batches(self._dataset(9), 4, np.random.default_rng(3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_partition_property(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            batch = int(rng.integers(1, 70))
            batches = epoch_batches(self._dataset(n), batch, rng)
            joined = np.concatenate(batches)
            assert sorted(joined.tolist()) == list(range(n))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            epoch_batches(self._dataset(0), 2, np.random.default_rng(0))
