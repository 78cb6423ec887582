"""Tests for the evaluator, ablation modes, config parsing, the
experiment runner, and the CLI surface."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from protoadapt import harness
from protoadapt.adaptation import AdaptConfig
from protoadapt.cli import main
from protoadapt.datasets import (CHUNK_ROWS, Dataset, SyntheticSpec, read_feature_file,
                                 write_feature_file)
from protoadapt.errors import ConfigError, EvaluationUnavailableError
from protoadapt.harness import (ABLATION_MODES, apply_ablation, derive_seeds, evaluate,
                                load_config, run_ablation, run_experiment)
from protoadapt.model import (Encoder, PrototypeMatrix, load_checkpoint,
                              save_checkpoint)
from protoadapt.source_trainer import SourcePhaseConfig


def identity_encoder(d):
    enc = Encoder(d, [], d, activation="identity", seed=0)
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


def first_weight(text, value):
    """``text`` with the first weight of layer 0 (line 4) set to ``value``."""
    lines = text.splitlines(keepends=True)
    lines[3] = value + lines[3][lines[3].index(" "):]
    return "".join(lines)


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
        t / "model.ckpt", lambda s: "\n".join(s.splitlines()[:6]) + "\n")),
    ("nan feature", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: re.sub(r"\n\?,[^,]*,", "\n?,nan,", s, count=1))),
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
    *[(f"checkpoint weight {value}", EVAL, 4, lambda t, v=value: rewrite(
        t / "model.ckpt", lambda s: first_weight(s, v))) for value in ("nan", "inf", "1e400", "1_0")],
    ("checkpoint duplicate encoder key", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("seed=0", "seed=0 seed=5", 1))),
    ("checkpoint extra encoder key", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("seed=0", "seed=0 x=1", 1))),
    ("checkpoint prototypes +6", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: s.replace("prototypes 6", "prototypes +6"))),
    ("checkpoint ensemble +1", EVAL, 4, lambda t: add_ensemble(t / "model.ckpt", "+1", 1)),
    ("header d=+5", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: s.replace(" d=5 ", " d=+5 ", 1))),
    ("header k=0_6", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: s.replace(" k=6 ", " k=0_6 ", 1))),
    *[(f"label {value!r}", TRAIN, 4, lambda t, v=value: rewrite(
        t / "s.features", lambda s: re.sub(r"\n\d+,", f"\n{v},", s, count=1)))
      for value in ("+0", " 0 ", "0_1")],
    ("hidden label '#0_1'", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: re.sub(r"#\d+\n", "#0_1\n", s, count=1))),
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
     lambda t: save_model(t / "model.ckpt", 5, 7)),
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
    ("spec d_x -1 via gen", GEN, 2, lambda t: write_spec(t, {**UNSHIFTED, "d_x": -1})),
    ("hidden width 10**20 via ablate", ABLATE, 2, lambda t: edit_config(
        t, lambda c: c["model"].update(hidden=[10**20]))),
    ("adapt n_a 10**20 via ablate", ABLATE, 2, lambda t: edit_config(
        t, lambda c: c["adapt"].update(n_a=10**20))),
    ("source header k=10**20", TRAIN, 2, lambda t: rewrite(
        t / "s.features", lambda s: s.replace(" k=6 ", f" k={10**20} ", 1))),
    *[(f"gradcheck seed {value!r}", ["gradcheck", "--seed", value], 2, lambda t: None)
      for value in ("-1", "+1", "1_0")],
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
        assert main([arg.format(tmp=tmp_path) for arg in command]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not isinstance(found, str) or found in err, err
        assert code != 2 or not list(tmp_path.rglob("*_metrics.csv"))  # nothing trained

    def test_oversized_complement_sets_rejected_before_training(self, tmp_path, capsys):
        cfg_dict = tiny_config(tmp_path / "out", n_e=3, n_cl=3)
        cfg_dict["data"]["synthetic"]["k_s"] = 8
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["train-source", "--config", str(cfg),
                     "--out", str(tmp_path / "src.ckpt")]) == 2
        assert main(["ablate", "--config", str(cfg)]) == 2
        assert "K_s-1=7" in capsys.readouterr().err
        assert not list(tmp_path.rglob("source_metrics.csv"))

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
