"""Tests for synthetic generation, feature-file I/O, and batching."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from protoadapt import datasets
from protoadapt.datasets import (Dataset, SyntheticSpec, epoch_batches,
                                 generate_synthetic, read_feature_file,
                                 write_feature_file)
from protoadapt.errors import ConfigError, DataFormatError


def reference_synthetic(spec):
    """The generator's arrays drawn one class at a time, each class's rows a
    fresh ``means[c] + cluster_std * z``, stacked after all are drawn."""
    rng = np.random.default_rng(spec.seed)
    directions = rng.standard_normal((spec.k_s, spec.d_x))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = spec.MEAN_RADIUS * directions
    domains = []
    for k, per_class in ((spec.k_s, spec.source_per_class), (spec.k_t, spec.target_per_class)):
        feats, labels = [], []
        for c in range(k):
            feats.append(means[c] + spec.cluster_std
                         * rng.standard_normal((per_class, spec.d_x)))
            labels.append(np.full(per_class, c, dtype=int))
        domains.append((np.vstack(feats), np.concatenate(labels)))
    (source, labels), (target, hidden) = domains
    if spec.rotation_angle != 0.0:
        cos_a, sin_a = math.cos(spec.rotation_angle), math.sin(spec.rotation_angle)
        x0 = target[:, 0] * cos_a - target[:, 1] * sin_a
        x1 = target[:, 0] * sin_a + target[:, 1] * cos_a
        target[:, 0], target[:, 1] = x0, x1
    if spec.translation:
        target += np.asarray(spec.translation, dtype=float)
    return source, labels, target, hidden


@st.composite
def synthetic_specs(draw):
    k_s = draw(st.integers(1, 12))
    d_x = draw(st.integers(1, 8))
    angle = st.floats(0.0, 2 * math.pi, exclude_max=True)
    offset = st.floats(-1e3, 1e3)
    return SyntheticSpec(
        k_s=k_s, k_t=draw(st.integers(1, k_s)), d_x=d_x,
        source_per_class=draw(st.integers(1, 30)), target_per_class=draw(st.integers(1, 30)),
        cluster_std=draw(st.floats(1e-3, 1e3)),
        rotation_angle=draw(st.just(0.0) | angle) if d_x >= 2 else 0.0,
        translation=draw(st.just(()) | st.tuples(*[offset] * d_x)),
        seed=draw(st.integers(0, 2**64 - 1)))


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

    @given(spec=synthetic_specs())
    def test_matches_per_class_reference(self, spec):
        source, target = generate_synthetic(spec)
        ref_source, ref_labels, ref_target, ref_hidden = reference_synthetic(spec)
        assert source.features.tobytes() == ref_source.tobytes()
        assert target.features.tobytes() == ref_target.tobytes()
        for got, ref in ((source.labels, ref_labels), (target.hidden_labels, ref_hidden)):
            assert got.dtype == ref.dtype and got.tolist() == ref.tolist()

    def test_peak_memory_is_bounded(self):
        # the io_eval spec; each domain is drawn into one array in place,
        # where per-class arrays stacked afterwards peak near 2.1 times
        spec = SyntheticSpec(k_s=16, k_t=8, d_x=64, source_per_class=50,
                             target_per_class=625)
        tracemalloc.start()
        try:
            source, target = generate_synthetic(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (source.features, source.labels,
                                          target.features, target.hidden_labels))
        assert peak <= 1.5 * returned, peak / returned

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

    # With several faults, the first in value-at-a-time order is named: a
    # line's label, '_', values and their finiteness are checked in that
    # order, then its hidden label, and a bad value comes before a later
    # line's fault or bad value.
    FIRST_FAULTS = [
        (["0,1.5", "0,x", "0,1,2"], "line 3: could not convert string to float: 'x'"),
        (["0,1.5", "0,x", "0,y"], "line 3: could not convert string to float: 'x'"),
        (["0,x", "0,1_5"], "line 2: could not convert string to float: 'x'"),
        (["0,x", "7,1"], "line 2: could not convert string to float: 'x'"),
        (["y,x"], "line 2: 'y' is not ASCII digits"),
        (["0,1_x"], "line 2: '_' in '1_x'"),
        (["0,x#y"], "line 2: could not convert string to float: 'x'"),
        (["0,1#7"], r"line 2: label 7 not in \[0, 2\)"),
        (["0,1.5", "0,nan"], "line 3: non-finite value 'nan'"),
        (["0,inf", "0,1"], "line 2: non-finite value 'inf'"),
        (["0,1e400"], "line 2: non-finite value '1e400'"),
        (["0,1", "0,nan", "7,1"], "line 3: non-finite value 'nan'")]

    @pytest.mark.parametrize("rows, message", FIRST_FAULTS)
    def test_first_fault_is_named(self, tmp_path, rows, message):
        path = tmp_path / "bad"
        path.write_text("#pda-features v1 d=1 k=2 role=source\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataFormatError, match=message):
            read_feature_file(path)

    @pytest.mark.parametrize("rows, message", FIRST_FAULTS)
    def test_first_fault_is_named_after_a_whole_chunk(self, tmp_path, bulk_results, rows,
                                                      message):
        # one chunk of clean rows goes first: the bulk check takes it, and
        # the fault's line number moves by the chunk's length
        clean = ["0,1.5", "1,-2e-07"] * (datasets.CHUNK_ROWS // 2)
        path = tmp_path / "bad"
        path.write_text("#pda-features v1 d=1 k=2 role=source\n" + "\n".join(clean + rows)
                        + "\n", encoding="utf-8")
        moved = re.sub(r"line (\d+)", lambda m: f"line {int(m[1]) + len(clean)}", message)
        with pytest.raises(DataFormatError, match=moved):
            read_feature_file(path)
        assert bulk_results[0] is not None and bulk_results[1:] == [None]

    # A hidden-label fault is named after every row is read, at the first
    # row that differs from the file's first row (target) or at the first
    # comment (source). Behind a whole chunk of clean rows like the case's
    # first row, the named line moves and the file's first row stays line 2.
    @pytest.mark.parametrize("role, clean, rows, line, message", [
        ("target", "?,1.5#1", ["?,1#0", "?,2", "?,3#1"], 3,
         r"target row without a hidden label \(line 2 has one\)"),
        ("target", "?,1.5", ["?,1", "", "?,2", "?,3#1", "?,4"], 5,
         r"target row with a hidden label \(line 2 has none\)"),
        ("source", "1,1.5", ["0,1", "1,2#1", "1,3#0"], 3, "hidden-label comment on a source row"),
        ("source", "1,1.5", ["0,1#1", "?,2"], 3, "source sample without label")])
    @pytest.mark.parametrize("lead", [0, 1], ids=["first-chunk", "after-a-whole-chunk"])
    def test_hidden_label_faults_name_their_line(self, tmp_path, role, clean, rows, line,
                                                 message, lead):
        lead_rows = [clean] * (lead * datasets.CHUNK_ROWS)
        path = tmp_path / "bad"
        path.write_text(f"#pda-features v1 d=1 k=2 role={role}\n"
                        + "\n".join(lead_rows + rows) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"line {line + len(lead_rows)}: {message}"):
            read_feature_file(path)

    def test_bulk_check_names_rows_past_blank_lines(self, tmp_path, bulk_results):
        # the bulk check drops a chunk's blank lines, and the first row keeps
        # its own line number
        rows = ["", " \t"] + ["?,1.5#1"] * (datasets.CHUNK_ROWS - 2) + ["?,2"]
        path = tmp_path / "bad"
        path.write_text("#pda-features v1 d=1 k=2 role=target\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"line {datasets.CHUNK_ROWS + 2}: target row "
                           r"without a hidden label \(line 4 has one\)"):
            read_feature_file(path)
        assert bulk_results[0] is not None

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("#pda-features v1 d=1 k=2 role=source\n5,1.0\n",
                        encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2"):
            read_feature_file(path)

    @pytest.mark.parametrize("role, row", [("source", "2,1.0"), ("target", "?,1.0#2")])
    def test_label_equal_to_k_rejected(self, tmp_path, role, row):
        path = tmp_path / "bad"
        path.write_text(f"#pda-features v1 d=1 k=2 role={role}\n{row}\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"line 2: label 2 not in \[0, 2\)"):
            read_feature_file(path)

    @pytest.mark.parametrize("header, field", [
        ("d=2 k=0", "k=0"), ("d=2 k=-3", "k=-3"), ("d=-1 k=3", "d=-1"), ("d=0 k=3", "d=0")])
    @pytest.mark.parametrize("rows", ["", "?,1.0,2.0#0\n"], ids=["no-rows", "one-row"])
    def test_header_sizes_out_of_range_rejected(self, tmp_path, header, field, rows):
        path = tmp_path / "bad"
        path.write_text(f"#pda-features v1 {header} role=target\n{rows}", encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"line 1: {field} must be"):
            read_feature_file(path)

    @pytest.mark.parametrize("header", [
        "#pda-features v1 d=2 k=3 role=target foo=bar",
        "#pda-features v1 d=5 d=2 k=3 role=target",
        "#pda-features v1d=2 k=3 role=target",
        "#pda-features v1 d=2 k=3"])
    def test_header_needs_d_k_role_once_and_nothing_else(self, tmp_path, header):
        path = tmp_path / "bad"
        path.write_text(f"{header}\n?,1.0,2.0#0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1: (malformed|missing)"):
            read_feature_file(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("1,2,3\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1"):
            read_feature_file(path)

    SEPARATORS = {"LF": "\n", "CR": "\r", "CRLF": "\r\n", "VT": "\x0b", "FF": "\x0c",
                  "FS": "\x1c", "GS": "\x1d", "RS": "\x1e", "NEL": "\x85",
                  "LS": "\u2028", "PS": "\u2029"}

    @pytest.mark.parametrize("hint", [1, 1 << 16], ids=["line-blocks", "one-block"])
    @pytest.mark.parametrize("sep", [*SEPARATORS.values(), "".join(SEPARATORS.values())],
                             ids=[*SEPARATORS, "all"])
    def test_rows_split_as_str_splitlines(self, tmp_path, monkeypatch, sep, hint):
        # the reader splits blocks of lines; rows must come out as
        # str.splitlines splits the whole text, whatever the block size
        monkeypatch.setattr(datasets, "READ_HINT", hint)
        rows = ["0,1.5,-2", "1,3,4e-3", "0,0.25,7"]
        text = "#pda-features v1 d=2 k=2 role=source" + sep + sep.join(rows) + sep
        path = tmp_path / "seps.features"
        path.write_bytes(text.encode("utf-8"))
        lines = [ln for ln in text.splitlines()[1:] if ln.strip()]
        ds = read_feature_file(path)
        np.testing.assert_array_equal(ds.labels, [int(ln.split(",")[0]) for ln in lines])
        np.testing.assert_array_equal(
            ds.features, [[float(v) for v in ln.split(",")[1:]] for ln in lines])

    def test_read_peak_memory_is_bounded(self, tmp_path):
        # the reader streams the file and converts it in chunks, so its
        # allocations peak near twice the array; whole-text parsing with one
        # float object per value peaks near seven times
        rng = np.random.default_rng(0)
        write_feature_file(Dataset(rng.standard_normal((2000, 64)), None, 4, "target",
                                   hidden_labels=rng.integers(0, 4, 2000)),
                           tmp_path / "t.features")
        tracemalloc.start()
        try:
            features = read_feature_file(tmp_path / "t.features").features
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * features.nbytes, peak / features.nbytes


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

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="with d_x >= 1"):
            Dataset(np.empty((3, 0)), np.array([0, 1, 0]), 2, "source")


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
