"""Tests for the evaluator, ablation modes, config parsing, the
experiment runner, and the CLI surface."""

import base64
import json
import os
import re
import string
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import protoadapt
from protoadapt import cli, harness
from protoadapt.adaptation import AdaptConfig
from protoadapt.cli import main
from protoadapt.datasets import (CHUNK_ROWS, Dataset, SyntheticSpec, read_feature_file,
                                 write_feature_file)
from protoadapt.errors import ConfigError, DataFormatError, EvaluationUnavailableError
from protoadapt.gradcheck import TOLERANCE
from protoadapt.harness import (ABLATION_MODES, apply_ablation, derive_seeds, evaluate,
                                load_config, run_ablation, run_experiment)
from protoadapt.model import (Encoder, PrototypeMatrix, load_checkpoint, predict,
                              save_checkpoint)
from protoadapt.source_trainer import SourcePhaseConfig


def identity_encoder(d):
    enc = Encoder(d, [], d, seed=0)
    enc.weights[0][...] = np.eye(d)
    return enc


class TestEvaluate:
    def test_perfect_classifier(self):
        # identity encoder + identity weights classify e_c as class c
        labels = np.array([0, 1, 2, 1])
        ds = Dataset(np.eye(3)[labels], None, 3, "target", hidden_labels=labels)
        result = evaluate(identity_encoder(3), np.eye(3), ds)
        assert result.accuracy == 1.0
        assert result.negative_transfer == 0.0

    def test_constant_predictor_on_balanced_target(self):
        labels = np.tile(np.arange(4), 5)
        ds = Dataset(np.eye(4)[labels], None, 4, "target", hidden_labels=labels)
        w = np.zeros((4, 4))
        w[:, 1] = 5.0  # every sample lands in class 1
        result = evaluate(identity_encoder(4), w, ds)
        assert result.accuracy == pytest.approx(0.25)

    def test_counting_fixture(self):
        preds_wanted = np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 1])
        hidden = np.array([0] * 7 + [0, 0, 0])  # 7 of 10 match
        ds = Dataset(np.eye(2)[preds_wanted], None, 2, "target",
                     hidden_labels=hidden)
        result = evaluate(identity_encoder(2), np.eye(2), ds)
        assert result.accuracy == pytest.approx(0.7)

    def test_negative_transfer_fraction(self):
        # four samples, two predicted into classes absent from the target
        feats = np.eye(4)[[0, 1, 2, 3]]
        hidden = np.array([0, 1, 0, 1])  # shared classes {0, 1}
        ds = Dataset(feats, None, 4, "target", hidden_labels=hidden)
        result = evaluate(identity_encoder(4), np.eye(4), ds)
        assert result.negative_transfer == pytest.approx(0.5)

    def test_peak_memory_is_under_one_feature_matrix(self):
        # the full-data pass keeps no layer input and runs in row blocks: at
        # 5000 x 64 it peaks at the codes and one block's layer input and
        # output, not at a whole-set layer's input and output
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((5000, 64)), None, 16, "target",
                     hidden_labels=np.repeat(np.arange(8), 625))
        enc = Encoder(64, [64, 64], 32, seed=1)
        weights = PrototypeMatrix.random(32, 16, seed=2).weights
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate(enc, weights, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= ds.features.nbytes

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_unique_isin_form(self, seed):
        # labels drawn from a subset of [0, K_s), weights with up to three
        # columns past K_s; every third case is a source dataset
        rng = np.random.default_rng(seed)
        k_s, extra, n, d = (int(v) for v in rng.integers([1, 0, 1, 1], [9, 4, 80, 6]))
        classes = rng.choice(k_s, size=int(rng.integers(1, k_s + 1)), replace=False)
        labels = rng.choice(classes, size=n)
        feats = rng.standard_normal((n, d))
        enc = Encoder(d, [4], 3, seed=seed)
        weights = rng.standard_normal((3, k_s + extra))
        ds = (Dataset(feats, labels, k_s, "source") if seed % 3 == 0 else
              Dataset(feats, None, k_s, "target", hidden_labels=labels))
        result = evaluate(enc, weights, ds)
        assert repr(result) == repr(reference_evaluate(
            predict(weights, enc.encode(feats)), labels, ds.role))

    def test_predictions_past_k_s_are_negative_transfer(self):
        # K_s = 3 with class 1 absent from the labels; weights of 5 columns
        # send e_3 and e_4 past K_s
        preds = np.array([0, 1, 2, 3, 4, 0])
        hidden = np.array([0, 0, 2, 2, 0, 0])
        ds = Dataset(np.eye(5)[preds], None, 3, "target", hidden_labels=hidden)
        result = evaluate(identity_encoder(5), np.eye(5), ds)
        assert list(result.per_class) == [0, 2]
        assert result.per_class == {0: 2 / 4, 2: 1 / 2}
        assert result.negative_transfer == 3 / 6  # into classes 1, 3 and 4
        assert repr(result) == repr(reference_evaluate(preds, hidden, "target"))

    def test_missing_hidden_labels(self):
        ds = Dataset(np.eye(2), None, 2, "target")
        with pytest.raises(EvaluationUnavailableError):
            evaluate(identity_encoder(2), np.eye(2), ds)

    def test_source_dataset_uses_visible_labels(self):
        labels = np.array([0, 1])
        ds = Dataset(np.eye(2)[labels], labels, 2, "source")
        result = evaluate(identity_encoder(2), np.eye(2), ds)
        assert result.accuracy == 1.0
        assert result.negative_transfer is None


def reference_evaluate(preds, labels, role):
    """``evaluate``'s result from its predictions, by the np.unique/np.isin
    form: the classes present are the unique labels."""
    classes = np.unique(labels)
    per_class = {int(c): float((preds[labels == c] == c).mean()) for c in classes}
    negative_transfer = float((~np.isin(preds, classes)).mean()) if role == "target" else None
    return harness.EvalResult(float((preds == labels).mean()), per_class, negative_transfer)


TINY_SYNTHETIC = {"k_s": 6, "k_t": 3, "d_x": 5, "source_per_class": 10,
                  "target_per_class": 8, "rotation_angle": 0.4,
                  "translation": [1, 0, 0, 0, 0], "seed": 3}


def tiny_config(out_dir, **adapt_overrides):
    adapt = dict(n_a=3, n_e=2, n_cl=2, alpha=0.5, beta=1.5, epochs=4,
                 warmup_epochs=1, switch_epoch=2, lr0=0.01, batch_size=16, seed=0)
    adapt.update(adapt_overrides)
    return {
        "seed": 7,
        "out_dir": str(out_dir),
        "data": {"synthetic": dict(TINY_SYNTHETIC)},
        "model": {"hidden": [8], "d_z": 6},
        "source": {"eta": 1.5, "epochs": 3, "lr0": 0.01, "batch_size": 16},
        "adapt": adapt,
    }


def write_config(tmp_path, cfg_dict, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg_dict), encoding="utf-8")
    return path


class TestConfigLoading:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        cfg["typo_key"] = 1
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(write_config(tmp_path, cfg))

    def test_unknown_nested_key(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        cfg["adapt"]["n_ensemble"] = 3
        with pytest.raises(ConfigError, match="n_ensemble"):
            load_config(write_config(tmp_path, cfg))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("build", [
        lambda: AdaptConfig(seed=-1), lambda: SourcePhaseConfig(seed=-1),
        lambda: SyntheticSpec(**{**TINY_SYNTHETIC, "translation": (1, 0, 0, 0, 0),
                                 "seed": -1}),
        lambda: derive_seeds(-1)], ids=["adapt", "source", "synthetic", "master"])
    def test_negative_seed_rejected_without_the_parser(self, build):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            build()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert load_config(path).seed == 7
        monkeypatch.setenv("PDA_SEED", "123")
        assert load_config(path).seed == 123
        monkeypatch.setenv("PDA_SEED", "x")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("section, key, value", [
        ("source", "epochs", "2"), ("source", "epochs", 2.0),
        ("adapt", "use_confident_subset", 1), ("adapt", "alpha", None),
        ("model", "hidden", [8, "8"]), ("model", "d_z", True)])
    def test_wrong_value_type(self, tmp_path, section, key, value):
        cfg = tiny_config(tmp_path / "out")
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            load_config(write_config(tmp_path, cfg))

    def test_requires_exactly_one_data_source(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        cfg["data"] = {}
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, cfg))


class TestApplyAblation:
    def _cfg(self, tmp_path):
        return load_config(write_config(tmp_path, tiny_config(tmp_path / "out")))

    def test_full_is_identity(self, tmp_path):
        cfg = self._cfg(tmp_path)
        assert apply_ablation(cfg, "full") == cfg

    def test_no_do_zeroes_geometry_only(self, tmp_path):
        cfg = self._cfg(tmp_path)
        ablated = apply_ablation(cfg, "no_DO")
        assert ablated.adapt.alpha == 0.0 and ablated.adapt.beta == 0.0
        assert replace(ablated, adapt=replace(ablated.adapt, alpha=cfg.adapt.alpha,
                                              beta=cfg.adapt.beta)) == cfg

    def test_no_el_shrinks_ensemble_only(self, tmp_path):
        cfg = self._cfg(tmp_path)
        ablated = apply_ablation(cfg, "no_EL")
        assert ablated.adapt.n_e == 1
        assert replace(ablated, adapt=replace(ablated.adapt, n_e=cfg.adapt.n_e)) == cfg

    def test_no_tscs_uses_all_targets(self, tmp_path):
        ablated = apply_ablation(self._cfg(tmp_path), "no_TSCS")
        assert ablated.adapt.use_confident_subset is False

    def test_no_cls_shares_single_set(self, tmp_path):
        ablated = apply_ablation(self._cfg(tmp_path), "no_CLS")
        assert ablated.adapt.n_cl == 1
        assert ablated.adapt.share_complement_set is True

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigError):
            apply_ablation(self._cfg(tmp_path), "no_XYZ")


class TestRunExperiment:
    def test_outputs_and_replay_equality(self, tmp_path):
        cfg = load_config(write_config(tmp_path, tiny_config(tmp_path / "out")))
        summary = run_experiment(cfg)
        out = tmp_path / "out"
        for name in ("source.features", "target.features", "source_metrics.csv",
                     "adapt_metrics.csv", "source.ckpt", "adapted.ckpt",
                     "summary.json"):
            assert (out / name).exists()

        # accuracies must be recomputable from checkpoints + dataset files
        target = read_feature_file(out / "target.features")
        enc_s, protos_s, _ = load_checkpoint(out / "source.ckpt")
        baseline = evaluate(enc_s, protos_s.weights, target)
        assert baseline.accuracy == summary["baseline"]["accuracy"]
        enc_a, _, ensemble = load_checkpoint(out / "adapted.ckpt")
        adapted = evaluate(enc_a, ensemble[0], target)
        assert adapted.accuracy == summary["adapted"]["accuracy"]

    def test_last_logged_accuracy_is_the_evaluated_accuracy(self, tmp_path):
        # the epoch hook and evaluate score the final codes with member 0
        # in separate code; both must apply the one prediction rule
        cfg = load_config(write_config(tmp_path, tiny_config(tmp_path / "out")))
        summary = run_experiment(cfg)
        rows = (tmp_path / "out" / "adapt_metrics.csv").read_text().splitlines()
        assert rows[0].endswith(",target_acc") and len(rows) == 1 + cfg.adapt.epochs
        assert float(rows[-1].split(",")[-1]) == summary["adapted"]["accuracy"]

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        blobs = []
        for run in ("a", "b"):
            cfg = load_config(write_config(
                tmp_path, tiny_config(tmp_path / run), name=f"{run}.json"))
            run_experiment(cfg)
            blobs.append(tuple((tmp_path / run / n).read_bytes()
                               for n in ("source_metrics.csv", "adapt_metrics.csv",
                                         "summary.json", "adapted.ckpt")))
        assert blobs[0] == blobs[1]

    def test_zero_epochs_baseline_equals_adapted(self, tmp_path):
        cfg_dict = tiny_config(tmp_path / "out", epochs=0)
        cfg_dict["source"]["epochs"] = 0
        cfg = load_config(write_config(tmp_path, cfg_dict))
        summary = run_experiment(cfg)
        assert summary["adapted"]["accuracy"] == summary["baseline"]["accuracy"]

    def test_hidden_label_firewall(self, tmp_path):
        # permuting hidden labels must not change anything the training
        # phases produce; only evaluation columns may move
        base = tiny_config(tmp_path / "gen")
        cfg = load_config(write_config(tmp_path, base, name="gen.json"))
        run_experiment(cfg)

        src = tmp_path / "gen" / "source.features"
        tgt = tmp_path / "gen" / "target.features"
        original = read_feature_file(tgt)
        rng = np.random.default_rng(0)
        permuted = Dataset(original.features.copy(), None, original.k_s, "target",
                           hidden_labels=rng.permutation(original.hidden_labels))
        tgt_permuted = tmp_path / "target_permuted.features"
        write_feature_file(permuted, tgt_permuted)

        outputs = []
        for name, target_path in (("run1", tgt), ("run2", tgt_permuted)):
            cfg_dict = tiny_config(tmp_path / name)
            cfg_dict["data"] = {"source_file": str(src), "target_file": str(target_path)}
            file_cfg = load_config(write_config(tmp_path, cfg_dict, name=f"{name}.json"))
            run_experiment(file_cfg)
            out = tmp_path / name
            adapt_rows = (out / "adapt_metrics.csv").read_text().splitlines()
            loss_cols = [",".join(r.split(",")[:7]) for r in adapt_rows]
            outputs.append(((out / "source.ckpt").read_bytes(),
                            (out / "adapted.ckpt").read_bytes(),
                            (out / "source_metrics.csv").read_bytes(),
                            loss_cols))
        assert outputs[0] == outputs[1]


def file_config(tmp_path, out_dir):
    """Write the tiny spec's data to feature files in ``tmp_path`` and
    return the tiny config that reads them."""
    harness.write_synthetic(harness.parse_synthetic_spec(TINY_SYNTHETIC),
                            source=tmp_path / "s.features", target=tmp_path / "t.features")
    cfg = tiny_config(out_dir)
    cfg["data"] = {"source_file": str(tmp_path / "s.features"),
                   "target_file": str(tmp_path / "t.features")}
    return cfg


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestRunAblation:
    def test_one_source_phase(self, tmp_path, monkeypatch, capsys):
        calls = []
        train_source = harness.train_source
        monkeypatch.setattr(harness, "train_source",
                            lambda *a, **k: calls.append(1) or train_source(*a, **k))
        cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["ablate", "--config", str(cfg)]) == 0
        assert len(calls) == 1
        assert len(capsys.readouterr().out.splitlines()) == len(ABLATION_MODES)

    @pytest.mark.parametrize("data", ["synthetic", "files"])
    def test_each_mode_writes_the_bytes_of_run_experiment(self, tmp_path, data):
        build = tiny_config if data == "synthetic" else lambda out: file_config(tmp_path, out)
        cfg = load_config(write_config(tmp_path, build(tmp_path / "ablate")))
        # a file config writes no feature file; one left by an earlier
        # run must stay where it is
        stale = {} if data == "synthetic" else {"source.features": b"stale\n"}
        (tmp_path / "ablate" / "full").mkdir(parents=True)
        for name, blob in stale.items():
            (tmp_path / "ablate" / "full" / name).write_bytes(blob)
        summaries = run_ablation(cfg)
        assert list(summaries) == list(ABLATION_MODES)
        for mode in ABLATION_MODES:
            ref = tmp_path / "ref" / mode
            summary = run_experiment(replace(apply_ablation(cfg, mode), out_dir=str(ref)))
            assert summaries[mode] == summary
            expected = {**dir_bytes(ref), **(stale if mode == "full" else {})}
            assert dir_bytes(tmp_path / "ablate" / mode) == expected, mode


def write_bad_inputs(tmp_path):
    """Valid inputs for every command on the tiny spec (d_x=5, K_s=6),
    which each case below breaks in one place."""
    write_spec(tmp_path, TINY_SYNTHETIC)
    save_model(tmp_path / "model.ckpt", d_x=5, k_s=6)
    write_config(tmp_path, file_config(tmp_path, tmp_path / "out"))


def save_model(path, d_x, k_s):
    protos = PrototypeMatrix.random(6, k_s, seed=0)
    protos.frozen = True
    save_checkpoint(path, Encoder(d_x, [8], 6, seed=0), protos)


def rewrite(path, edit):
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def scale_last_layer(path, factor):
    """Multiply the checkpoint encoder's last weight matrix by ``factor``."""
    encoder, protos, _ = load_checkpoint(path)
    encoder.weights[-1][...] *= factor
    save_checkpoint(path, encoder, protos)


B64 = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


def row_values(row):
    return np.frombuffer(base64.b64decode(row), "<f8")


def values_row(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def edit_line(text, number, edit):
    """``text`` with line ``number`` replaced by ``edit`` of it."""
    lines = text.splitlines()
    lines[number - 1] = edit(lines[number - 1])
    return "\n".join(lines) + "\n"


def first_weight(text, value):
    """``text`` with the first weight of layer 0 (line 4) set to ``value``."""
    return edit_line(text, 4, lambda row: values_row([value, *row_values(row)[1:]]))


def reshape_layer0(text, long_rows):
    """``text`` with the first value of layer 0's second row (line 5) moved to
    the end of its first row (line 4), or, with ``long_rows``, every row of
    that matrix one value longer."""
    lines = text.splitlines()
    rows = [row_values(row) for row in lines[3:8]]
    if long_rows:
        rows = [[0.5, *row] for row in rows]
    else:
        rows[:2] = [[*rows[0], rows[1][0]], rows[1][1:]]
    lines[3:8] = [values_row(row) for row in rows]
    return "\n".join(lines) + "\n"


def add_ensemble(path, count, n_matrices):
    """Append an ``ensemble <count>`` section holding ``n_matrices``
    copies of the tiny model's (6 x K_s) prototypes."""
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + [f"ensemble {count}"] + lines[-6:] * n_matrices)
                    + "\n", encoding="utf-8")


LATE_LINE = CHUNK_ROWS + 40  # a line in the feature reader's second chunk


def break_late_line(path, edit, message):
    """Repeat the feature file's rows past one chunk and ``edit`` line
    LATE_LINE; return the error text that must name it."""
    head, *rows = path.read_text(encoding="utf-8").splitlines()
    rows *= LATE_LINE // len(rows) + 2
    rows[LATE_LINE - 2] = edit(rows[LATE_LINE - 2])
    path.write_text("\n".join([head, *rows]) + "\n", encoding="utf-8")
    return f"line {LATE_LINE}: {message}"


def unlabel_after_blank_lines(path):
    """Put two blank lines after the header of a source file and drop the
    label of the row after the next one, line 5; return the error text
    that must name it."""
    head, first, second, *rest = path.read_text(encoding="utf-8").splitlines()
    unlabeled = "?" + second[second.index(","):]
    path.write_text("\n".join([head, "", "", first, unlabeled, *rest]) + "\n", encoding="utf-8")
    return "line 5: source sample without label"


def write_spec(tmp_path, spec):
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")


# JSON inputs that fail to decode other than by a syntax error
UNDECODABLE_JSON = {"not UTF-8": b'{"out_dir": "\xff"}',
                    "nested past the recursion limit": b"[" * 100_000,
                    "int of 5000 digits": b'{"seed": 1' + b"0" * 4999 + b"}"}


def write_undecodable(path, case):
    path.write_bytes(UNDECODABLE_JSON[case])


def edit_config(tmp_path, edit):
    cfg = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
    edit(cfg)
    write_config(tmp_path, cfg)


EVAL = ["eval", "--ckpt", "{tmp}/model.ckpt", "--data", "{tmp}/t.features"]
TRAIN = ["train-source", "--config", "{tmp}/config.json", "--out", "{tmp}/src.ckpt"]
ADAPT = ["adapt", "--config", "{tmp}/config.json", "--source-ckpt",
         "{tmp}/model.ckpt", "--out", "{tmp}/adapted.ckpt"]
GEN = ["gen", "--spec", "{tmp}/spec.json", "--out-source", "{tmp}/s2",
       "--out-target", "{tmp}/t2"]
ABLATE = ["ablate", "--config", "{tmp}/config.json"]
UNSHIFTED = {**TINY_SYNTHETIC, "rotation_angle": 0.0, "translation": []}

# (case, command, exit code, how the valid inputs are broken; a breakage
# may return environment variables to set, or text the error must contain)
BAD_INPUTS = [
    ("truncated checkpoint", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: "\n".join(s.splitlines()[:6]) + "\n")
     or f"{t / 'model.ckpt'}: line 6: checkpoint ends 2 line(s) short of the 5 x 8 matrix "
        "from line 4"),
    # the tiny model's checkpoint cut after its header, after layer 0's
    # bias (line 9) and after layer 1's bias (line 19)
    *[(f"checkpoint cut to {n} line(s)", EVAL, 4, lambda t, n=n, h=head: rewrite(
        t / "model.ckpt", lambda s: "\n".join(s.splitlines()[:n]) + "\n")
       or f"{t / 'model.ckpt'}: line {n}: checkpoint ends before '{h}")
      for n, head in [(1, "encoder d_x="), (9, "layer 1 8 6'"), (19, "prototypes 6 ")]],
    ("checkpoint wrong layer head", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("layer 1 8 6", "layer 1 8 7"))
     or f"{t / 'model.ckpt'}: line 10: expected 'layer 1 8 6'"),
    *[(f"{value} feature", EVAL, 4, lambda t, v=value: rewrite(
        t / "t.features", lambda s: re.sub(r"\n\?,[^,]*,", f"\n?,{v},", s, count=1))
       or f"line 2: non-finite value '{v}'") for value in ("nan", "inf", "1e400")],
    ("header-only target file", ADAPT, 4, lambda t: rewrite(
        t / "t.features", lambda s: s.splitlines()[0] + "\n")),
    ("no evaluation labels", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: re.sub(r"#\d+", "", s))),
    ("labeled file with no rows", EVAL, 4, lambda t: (t / "t.features").write_text(
        (t / "s.features").read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")),
    ("checkpoint d_x differs", EVAL, 4, lambda t: save_model(t / "model.ckpt", 4, 6)),
    ("checkpoint ensemble 0", EVAL, 4, lambda t: add_ensemble(t / "model.ckpt", 0, 0)),
    ("checkpoint ensemble -1", EVAL, 4, lambda t: add_ensemble(t / "model.ckpt", -1, 0)),
    ("checkpoint matrix past its ensemble count", EVAL, 4,
     lambda t: add_ensemble(t / "model.ckpt", 1, 2)),
    ("checkpoint trailing line", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s + "0.5\n")),
    ("checkpoint frozen=yes", ADAPT, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("frozen=1", "frozen=yes"))),
    ("checkpoint frozen=2", ADAPT, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("frozen=1", "frozen=2"))),
    ("checkpoint extra prototypes field", ADAPT, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("frozen=1", "frozen=1 x"))),
    # layer 0's rows, lines 4-8, hold 8 values as 88 base64 characters
    *[(f"checkpoint weight {value}", EVAL, 4, lambda t, v=value: rewrite(
        t / "model.ckpt", lambda s: first_weight(s, float(v)))
       or f"{t / 'model.ckpt'}: line 4: non-finite value {v}")
      for value in ("nan", "inf", "-inf")],
    *[(f"checkpoint weight {case}", EVAL, 4, lambda t, e=edit, m=message: rewrite(
        t / "model.ckpt", lambda s: edit_line(s, 4, e)) or f"{t / 'model.ckpt'}: line 4: {m}")
      for case, edit, message in [
          ("x", lambda row: "x", "expected 88 base64 characters for 8 values, got 1"),
          ("1_0", lambda row: "1_0" + row[3:], "not the canonical base64 of 8 values"),
          ("1e400", lambda row: " ".join(["1e400", *map(repr, row_values(row)[1:])]),
           "expected 88 base64 characters for 8 values, got "),
          ("non-ASCII", lambda row: "\u00e9" + row[1:], "not base64: non-ASCII text"),
          ("trailing bits", lambda row: row[:-3] + B64[B64.index(row[-3]) ^ 1] + "==",
           "not the canonical base64 of 8 values")]],
    ("checkpoint v1 header", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("#pda-checkpoint v2", "#pda-checkpoint v1"))
     or "line 1: expected '#pda-checkpoint v2', got '#pda-checkpoint v1'"),
    ("checkpoint not UTF-8", EVAL, 4, lambda t: (t / "model.ckpt").write_bytes(
        (t / "model.ckpt").read_bytes().replace(b"seed=0", b"seed=\xff0")) or "not UTF-8 text"),
    *[(f"checkpoint {case}", EVAL, 4, lambda t, o=old, n=new, m=f"line {line}: {message}":
       rewrite(t / "model.ckpt", lambda s: s.replace(o, n, 1)) or m)
      for case, old, new, line, message in [
          ("hidden=8,", "hidden=8", "hidden=8,", 2, "'' is not ASCII digits 0-9"),
          ("d_x=x", "d_x=5", "d_x=x", 2, "'x' is not ASCII digits 0-9"),
          ("seed=-1", "seed=0", "seed=-1", 2, "'-1' is not ASCII digits 0-9"),
          ("prototypes +6", "prototypes 6", "prototypes +6", 20,
           "'+6' is not ASCII digits 0-9"),
          ("prototypes 6 4x", "prototypes 6 6", "prototypes 6 4x", 20,
           "'4x' is not ASCII digits 0-9"),
          ("prototypes 5 6", "prototypes 6 6", "prototypes 5 6", 20,
           "prototypes have d_z=5, encoder 6"),
          ("d_x=0 with layer 0 0 8", "d_x=5 hidden=8 d_z=6 activation=tanh seed=0\nlayer 0 5 8",
           "d_x=0 hidden=8 d_z=6 activation=tanh seed=0\nlayer 0 0 8", 2,
           "all layer widths must be >= 1")]],
    ("checkpoint activation=identity", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("activation=tanh", "activation=identity"))
     or "line 2: activation=identity is not tanh"),
    ("config model.activation", TRAIN, 2, lambda t: edit_config(
        t, lambda c: c["model"].update(activation="tanh"))),
    ("checkpoint duplicate encoder key", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("seed=0", "seed=0 seed=5", 1))),
    ("checkpoint extra encoder key", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("seed=0", "seed=0 x=1", 1))),
    ("checkpoint ensemble +1", EVAL, 4, lambda t: add_ensemble(t / "model.ckpt", "+1", 1)
     or "line 27: expected 'ensemble <n>' with n >= 1"),
    # codes whose squared norm overflows would normalize to zero vectors
    ("checkpoint last layer scaled by 1e200", EVAL, 3,
     lambda t: scale_last_layer(t / "model.ckpt", 1e200)),
    ("adapt alpha 1e308", ADAPT, 3, lambda t: edit_config(
        t, lambda c: c["adapt"].update(alpha=1e308))),
    ("header extra key", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: s.replace(" role=", " foo=bar role=", 1))),
    ("header repeated d", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: s.replace(" d=5 ", " d=2 d=5 ", 1))),
    ("header 'v1d=5'", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: s.replace(" v1 d=5 ", " v1d=5 ", 1))),
    ("header d=+5", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: s.replace(" d=5 ", " d=+5 ", 1))),
    ("header k=0_6", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: s.replace(" k=6 ", " k=0_6 ", 1))),
    *[(f"label {value!r}", TRAIN, 4, lambda t, v=value: rewrite(
        t / "s.features", lambda s: re.sub(r"\n\d+,", f"\n{v},", s, count=1)))
      for value in ("+0", " 0 ", "0_1")],
    ("hidden label '#0_1'", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: re.sub(r"#\d+\n", "#0_1\n", s, count=1))),
    ("feature wrapped in '\\x1f'", EVAL, 4, lambda t: rewrite(  # np.loadtxt alone reads it
        t / "t.features", lambda s: re.sub(r"\n\?,([^,]*),", "\n?,\x1f\\1\x1f,", s, count=1))
     or "line 2: could not convert string to float: '\\x1f"),
    ("bare '#' on a target row", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: re.sub(r"#\d+\n", "#\n", s, count=1))
     or "line 2: '' is not ASCII digits"),
    ("bare '#' on a source row", TRAIN, 4, lambda t: rewrite(
        t / "s.features", lambda s: re.sub(r"\n(\d+,[^\n]*)", "\n\\1#", s, count=1))
     or "line 2: '' is not ASCII digits"),
    ("target row without a hidden label", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: edit_line(s, 3, lambda row: row.partition("#")[0]))
     or "line 3: target row without a hidden label (line 2 has one)"),
    ("hidden-label comment on a source row", TRAIN, 4, lambda t: rewrite(
        t / "s.features", lambda s: edit_line(s, 4, lambda row: row + "#0"))
     or "line 4: hidden-label comment on a source row"),
    *[(case, EVAL, 4, lambda t, long=long: rewrite(
        t / "model.ckpt", lambda s: reshape_layer0(s, long_rows=long))
       or f"{t / 'model.ckpt'}: line 4: expected 88 base64 characters for 8 values, got 96")
      for case, long in [("checkpoint rows of cols+1 and cols-1 values", False),
                         ("checkpoint matrix rows one value too long", True)]],
    ("feature '1_0'", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: re.sub(r"\n\?,[^,]*,", "\n?,1_0,", s, count=1))),
    *[(f"{case} past the first chunk", EVAL, 4,
       lambda t, e=edit, m=message: break_late_line(t / "t.features", e, m))
      for case, edit, message in [
          ("bad float", lambda row: row.replace(",", ",x", 1),
           "could not convert string to float: 'x"),
          ("extra field", lambda row: row.replace(",", ",0,", 1), "expected 5 features, got 6"),
          ("'_' in a feature", lambda row: row.replace(".", "_", 1), "'_' in")]],
    ("unlabeled source row after blank lines", TRAIN, 4,
     lambda t: unlabel_after_blank_lines(t / "s.features")),
    ("checkpoint K_s differs", EVAL, 4, lambda t: save_model(t / "model.ckpt", 5, 7)),
    ("checkpoint K_s differs in adapt", ADAPT, 4,
     lambda t: save_model(t / "model.ckpt", 5, 7)
     or "model expects d_x=5, K_s=7; data has d_x=5, K_s=6"),
    *[(f"synthetic spec plus a {role} file", TRAIN, 2, lambda t, r=role: edit_config(
        t, lambda c: c.update(data={"synthetic": TINY_SYNTHETIC,
                                    f"{r}_file": c["data"][f"{r}_file"]})))
      for role in ("source", "target")],
    ("string epochs", TRAIN, 2, lambda t: edit_config(
        t, lambda c: c["source"].update(epochs="2"))),
    ("spec missing keys via gen", GEN, 2, lambda t: write_spec(t, {"k_s": 6, "k_t": 3})),
    ("spec missing keys via config", TRAIN, 2, lambda t: edit_config(
        t, lambda c: c.update(data={"synthetic": {"k_s": 6, "k_t": 3}}))),
    *[(f"config {case}", TRAIN, 2, lambda t, c=case: write_undecodable(t / "config.json", c))
      for case in UNDECODABLE_JSON],
    ("spec not UTF-8 via gen", GEN, 2,
     lambda t: write_undecodable(t / "spec.json", "not UTF-8")),
    ("negative seed", TRAIN, 2, lambda t: edit_config(t, lambda c: c.update(seed=-1))),
    ("negative PDA_SEED", TRAIN, 2, lambda t: {"PDA_SEED": "-5"}),
    *[(f"PDA_SEED {value!r}", TRAIN, 2, lambda t, v=value: {"PDA_SEED": v})
      for value in ("1_0", "+7", " 7 ", "٣")],
    ("negative adapt seed", ADAPT, 2, lambda t: edit_config(
        t, lambda c: c["adapt"].update(seed=-3))),
    ("negative source seed", TRAIN, 2, lambda t: edit_config(
        t, lambda c: c["source"].update(seed=-2))),
    ("negative spec seed via gen", GEN, 2, lambda t: write_spec(
        t, {**TINY_SYNTHETIC, "seed": -4})),
    # sizes numpy cannot index, and a deque length past sys.maxsize
    ("spec k_s 10**20 via gen", GEN, 2, lambda t: write_spec(t, {**UNSHIFTED, "k_s": 10**20})),
    ("spec k_s 10**18 d_x 3 via gen", GEN, 2, lambda t: write_spec(
        t, {**UNSHIFTED, "k_s": 10**18, "d_x": 3})),
    ("spec cluster_std 1e308 via gen", GEN, 2, lambda t: write_spec(
        t, {**TINY_SYNTHETIC, "cluster_std": 1e308})),
    ("config cluster_std 1e308", TRAIN, 2, lambda t: edit_config(
        t, lambda c: c.update(data={"synthetic": {**TINY_SYNTHETIC, "cluster_std": 1e308}}))),
    ("spec d_x -1 via gen", GEN, 2, lambda t: write_spec(t, {**UNSHIFTED, "d_x": -1})),
    ("hidden width 10**20 via ablate", ABLATE, 2, lambda t: edit_config(
        t, lambda c: c["model"].update(hidden=[10**20]))),
    ("adapt n_a 10**20 via ablate", ABLATE, 2, lambda t: edit_config(
        t, lambda c: c["adapt"].update(n_a=10**20))),
    ("source header k=10**20", TRAIN, 2, lambda t: rewrite(
        t / "s.features", lambda s: s.replace(" k=6 ", f" k={10**20} ", 1))),
    # labels below k=10**20 that do not fit the int64 label arrays
    *[(f"{role} label 10**19 under k=10**20", command, 4,
       lambda t, f=file, p=pattern, r=repl: rewrite(t / f, lambda s: re.sub(
           p, r, s.replace(" k=6 ", f" k={10**20} ", 1), count=1))
       or f"line 2: label {10**19} not in [0, {2**63})")
      for role, command, file, pattern, repl in [
          ("source", TRAIN, "s.features", r"\n\d+,", f"\n{10**19},"),
          ("target hidden", EVAL, "t.features", r"#\d+\n", f"#{10**19}\n")]],
    *[(f"gradcheck seed {value!r}", ["gradcheck", "--seed", value], 2, lambda t: None)
      for value in ("-1", "+1", "1_0")],
    *[(f"config {section}.{key} {value}", TRAIN, 2, lambda t, s=section, k=key, v=value, m=message:
       edit_config(t, lambda c: c[s].update({k: v})) or m)
      for section, key, value, message in [
          ("adapt", "n_e", 0, "n_a, n_e, n_cl must be >= 1"),
          ("adapt", "alpha", -1, "alpha and beta must be >= 0"),
          ("adapt", "warmup_epochs", 2, "need 0 <= warmup_epochs < switch_epoch"),  # = switch
          ("adapt", "batch_size", 0, "batch_size must be >= 1 and lr0 > 0"),
          ("adapt", "lr0", 0, "batch_size must be >= 1 and lr0 > 0"),
          ("source", "eta", -1, "eta must be >= 0"),
          ("source", "batch_size", 0, "batch_size must be >= 1 and lr0 > 0")]],
    *[(f"config spec {case}", TRAIN, 2, lambda t, e=edit, m=message: edit_config(
        t, lambda c: c.update(data={"synthetic": {**TINY_SYNTHETIC, **e}})) or m)
      for case, edit, message in [
          ("cluster_std 0", {"cluster_std": 0}, "cluster_std must be positive"),
          ("rotation_angle 7", {"rotation_angle": 7}, "rotation_angle must lie in [0, 2*pi)"),
          ("rotation with d_x 1", {"d_x": 1, "translation": []}, "rotation requires d_x >= 2"),
          ("translation of length 2", {"translation": [1, 0]},
           "translation length must equal d_x")]],
    ("config a JSON list", TRAIN, 2, lambda t: rewrite(t / "config.json", lambda s: "[]")
     or f"{t / 'config.json'} must be a JSON object"),
    ("target row with a visible label", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: edit_line(s, 3, lambda row: "0" + row[1:]))
     or f"{t / 't.features'}: line 3: target sample with visible label"),
    *[(f"header d=0 via {name}", command, 4, lambda t, f=file: rewrite(
        t / f, lambda s: s.replace(" d=5 ", " d=0 ", 1))
       or f"{t / f}: line 1: d=0 must be ASCII digits >= 1")
      for name, command, file in [("train-source", TRAIN, "s.features"),
                                  ("eval", EVAL, "t.features")]],
]


class ArrayMemoryError(MemoryError):
    """Like numpy's allocation error: its constructor needs a shape and a dtype."""

    def __init__(self, shape, dtype):
        super().__init__(f"Unable to allocate 745. GiB for shape {shape} and {dtype}")


class TestCli:
    @pytest.mark.parametrize("command, code, breakage",
                             [case[1:] for case in BAD_INPUTS],
                             ids=[case[0] for case in BAD_INPUTS])
    def test_bad_input_exit_code(self, tmp_path, capsys, monkeypatch, command, code,
                                 breakage):
        write_bad_inputs(tmp_path)
        found = breakage(tmp_path)
        for name, value in (found if isinstance(found, dict) else {}).items():
            monkeypatch.setenv(name, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([arg.format(tmp=tmp_path) for arg in command]) == code
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert "Traceback" not in err and "IndexError" not in err
        assert not isinstance(found, str) or found in err, err
        assert code != 2 or not list(tmp_path.rglob("*_metrics.csv"))  # nothing trained

    def test_eval_imports_neither_numpy_ma_nor_numpy_random(self, tmp_path):
        # a fresh process scores a checkpoint without drawing an init
        # (numpy.random) or calling np.unique/np.isin (numpy.ma)
        write_bad_inputs(tmp_path)
        argv = [arg.format(tmp=tmp_path) for arg in EVAL]
        script = ("import sys; from protoadapt.cli import main; "
                  f"code = main({argv!r}); "
                  "print(code, [m for m in ('numpy.ma', 'numpy.random') if m in sys.modules])")
        src = os.path.dirname(os.path.dirname(protoadapt.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []", proc.stdout

    def test_oversized_complement_sets_rejected_before_training(self, tmp_path, capsys):
        cfg_dict = tiny_config(tmp_path / "out", n_e=3, n_cl=3)
        cfg_dict["data"]["synthetic"]["k_s"] = 8
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["train-source", "--config", str(cfg),
                     "--out", str(tmp_path / "src.ckpt")]) == 2
        assert main(["ablate", "--config", str(cfg)]) == 2
        assert "K_s-1=7" in capsys.readouterr().err
        assert not list(tmp_path.rglob("source_metrics.csv"))

    @pytest.mark.parametrize("target", ["missing", "d_x differs", "k differs"])
    def test_bad_target_stops_ablate_and_run_before_training(self, tmp_path, capsys, target):
        # both datasets are read, and the target checked against the source,
        # before the source phase trains anything
        cfg = write_config(tmp_path, file_config(tmp_path, tmp_path / "out"))
        path = tmp_path / "t.features"
        if target == "missing":
            path.unlink()
            error, message = OSError, f"[Errno 2] No such file or directory: '{path}'"
        elif target == "d_x differs":
            harness.write_synthetic(harness.parse_synthetic_spec(
                {**TINY_SYNTHETIC, "d_x": 4, "translation": [1, 0, 0, 0]}), target=path)
            error, message = DataFormatError, f"{path}: d=4 k=6, but the source has d=5 k=6"
        else:
            rewrite(path, lambda s: s.replace(" k=6 ", " k=7 ", 1))
            error, message = DataFormatError, f"{path}: d=5 k=7, but the source has d=5 k=6"
        assert main(["ablate", "--config", str(cfg)]) == 4
        assert f"[data] {message}" in capsys.readouterr().err
        with pytest.raises(error, match=re.escape(message)):
            run_experiment(load_config(cfg))
        assert not list(tmp_path.rglob("source.ckpt"))
        assert not list(tmp_path.rglob("*_metrics.csv"))

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 745. GiB"),
                                       ArrayMemoryError((10**11, 10), "float64")],
                             ids=["MemoryError", "numpy-like"])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, error):
        def train_source(*args, **kwargs):
            raise error
        monkeypatch.setattr(harness, "train_source", train_source)
        cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["train-source", "--config", str(cfg),
                     "--out", str(tmp_path / "src.ckpt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and "745. GiB" in err
        assert "Traceback" not in err

    def test_cli_phases_match_run_experiment(self, tmp_path, capsys):
        cli_out = tmp_path / "cli"
        cfg = write_config(tmp_path, tiny_config(cli_out), name="cli.json")
        assert main(["train-source", "--config", str(cfg),
                     "--out", str(cli_out / "source.ckpt")]) == 0
        assert main(["adapt", "--config", str(cfg),
                     "--source-ckpt", str(cli_out / "source.ckpt"),
                     "--out", str(cli_out / "adapted.ckpt")]) == 0
        run_experiment(load_config(write_config(
            tmp_path, tiny_config(tmp_path / "lib"), name="lib.json")))
        for name in ("source.ckpt", "adapted.ckpt", "source_metrics.csv",
                     "adapt_metrics.csv", "source.features", "target.features"):
            assert (cli_out / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name

    def _spec_file(self, tmp_path):
        # same spec the tiny config uses, so generated files match its model
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TINY_SYNTHETIC), encoding="utf-8")
        return path

    def test_gen_writes_parseable_files(self, tmp_path, capsys):
        rc = main(["gen", "--spec", str(self._spec_file(tmp_path)),
                   "--out-source", str(tmp_path / "s"),
                   "--out-target", str(tmp_path / "t")])
        assert rc == 0
        assert read_feature_file(tmp_path / "s").n == 60
        assert read_feature_file(tmp_path / "t").n == 24

    def test_pipeline_train_adapt_eval(self, tmp_path, capsys):
        cfg_dict = tiny_config(tmp_path / "out")
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["train-source", "--config", str(cfg),
                     "--out", str(tmp_path / "src.ckpt")]) == 0
        assert main(["adapt", "--config", str(cfg),
                     "--source-ckpt", str(tmp_path / "src.ckpt"),
                     "--out", str(tmp_path / "adapted.ckpt")]) == 0
        main(["gen", "--spec", str(self._spec_file(tmp_path)),
              "--out-source", str(tmp_path / "s"), "--out-target", str(tmp_path / "t")])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "adapted.ckpt"),
                     "--data", str(tmp_path / "t")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("accuracy ")
        assert lines[1].startswith("negative_transfer ")

    def test_adapt_runs_without_source_file(self, tmp_path):
        # source-data privacy: adaptation must only touch the target file
        cfg_dict = tiny_config(tmp_path / "out")
        cfg = write_config(tmp_path, cfg_dict)
        main(["gen", "--spec", str(self._spec_file(tmp_path)),
              "--out-source", str(tmp_path / "s"), "--out-target", str(tmp_path / "t")])
        assert main(["train-source", "--config", str(cfg),
                     "--out", str(tmp_path / "src.ckpt")]) == 0
        file_cfg_dict = tiny_config(tmp_path / "out2")
        file_cfg_dict["data"] = {"source_file": str(tmp_path / "missing"),
                                 "target_file": str(tmp_path / "t")}
        file_cfg = write_config(tmp_path, file_cfg_dict, name="file_cfg.json")
        assert main(["adapt", "--config", str(file_cfg),
                     "--source-ckpt", str(tmp_path / "src.ckpt"),
                     "--out", str(tmp_path / "adapted.ckpt")]) == 0

    def test_exit_code_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1}', encoding="utf-8")
        assert main(["train-source", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2

    def test_exit_code_io_error(self, tmp_path, capsys):
        assert main(["eval", "--ckpt", str(tmp_path / "missing.ckpt"),
                     "--data", str(tmp_path / "missing.features")]) == 4

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_exit_code_numeric_failure(self, tmp_path, capsys):
        # a finite checkpoint whose first layer overflows on finite input
        from protoadapt.model import PrototypeMatrix, save_checkpoint
        enc = identity_encoder(2)
        enc.weights[0][0, 0] = 1e308
        protos = PrototypeMatrix.random(2, 2, seed=0)
        protos.frozen = True
        save_checkpoint(tmp_path / "broken.ckpt", enc, protos)
        ds = Dataset(4 * np.eye(2), None, 2, "target",
                     hidden_labels=np.array([0, 1]))
        write_feature_file(ds, tmp_path / "t.features")
        assert main(["eval", "--ckpt", str(tmp_path / "broken.ckpt"),
                     "--data", str(tmp_path / "t.features")]) == 3

    def test_ablate_smoke(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["ablate", "--config", str(cfg)]) == 0
        for mode in ABLATION_MODES:
            assert (tmp_path / "out" / mode / "summary.json").exists()

    def test_gradcheck_exit_zero(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "loss_nl" in out and "FAIL" not in out

    @pytest.mark.parametrize("err", [TOLERANCE, 10 * TOLERANCE])
    def test_gradcheck_exit_one_at_or_over_tolerance(self, capsys, monkeypatch, err):
        monkeypatch.setattr(cli, "run_suite", lambda seed: {"loss_ce": 1e-9, "loss_nl": err})
        assert main(["gradcheck"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "loss_ce max_rel_err 1.000e-09 ok", f"loss_nl max_rel_err {err:.3e} FAIL"]
