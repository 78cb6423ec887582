"""Tests for the evaluator, ablation modes, config parsing, the
experiment runner, and the CLI surface."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from protoadapt.cli import main
from protoadapt.datasets import Dataset, read_feature_file, write_feature_file
from protoadapt.errors import ConfigError, EvaluationUnavailableError
from protoadapt.harness import (apply_ablation, evaluate,
                                load_config, run_experiment)
from protoadapt.model import (Encoder, PrototypeMatrix, load_checkpoint,
                              save_checkpoint)


def identity_encoder(d):
    enc = Encoder(d, [], d, activation="identity", seed=0)
    enc.weights[0] = np.eye(d)
    return enc


class TestEvaluate:
    def test_perfect_classifier(self):
        # identity encoder + identity weights classify e_c as class c
        labels = np.array([0, 1, 2, 1])
        ds = Dataset(np.eye(3)[labels], None, 3, 3, "target", hidden_labels=labels)
        result = evaluate(identity_encoder(3), np.eye(3), ds)
        assert result.accuracy == 1.0
        assert result.negative_transfer == 0.0

    def test_constant_predictor_on_balanced_target(self):
        labels = np.tile(np.arange(4), 5)
        ds = Dataset(np.eye(4)[labels], None, 4, 4, "target", hidden_labels=labels)
        w = np.zeros((4, 4))
        w[:, 1] = 5.0  # every sample lands in class 1
        result = evaluate(identity_encoder(4), w, ds)
        assert result.accuracy == pytest.approx(0.25)

    def test_counting_fixture(self):
        preds_wanted = np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 1])
        hidden = np.array([0] * 7 + [0, 0, 0])  # 7 of 10 match
        ds = Dataset(np.eye(2)[preds_wanted], None, 2, 2, "target",
                     hidden_labels=hidden)
        result = evaluate(identity_encoder(2), np.eye(2), ds)
        assert result.accuracy == pytest.approx(0.7)

    def test_negative_transfer_fraction(self):
        # four samples, two predicted into classes absent from the target
        feats = np.eye(4)[[0, 1, 2, 3]]
        hidden = np.array([0, 1, 0, 1])  # shared classes {0, 1}
        ds = Dataset(feats, None, 4, 4, "target", hidden_labels=hidden)
        result = evaluate(identity_encoder(4), np.eye(4), ds)
        assert result.negative_transfer == pytest.approx(0.5)

    def test_missing_hidden_labels(self):
        ds = Dataset(np.eye(2), None, 2, 2, "target")
        with pytest.raises(EvaluationUnavailableError):
            evaluate(identity_encoder(2), np.eye(2), ds)

    def test_source_dataset_uses_visible_labels(self):
        labels = np.array([0, 1])
        ds = Dataset(np.eye(2)[labels], labels, 2, 2, "source")
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
        permuted = Dataset(original.features.copy(), None, original.d_x,
                           original.k_s, "target",
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


def write_bad_inputs(tmp_path):
    """Valid inputs for every command on the tiny spec (d_x=5, K_s=6),
    which each case below breaks in one place."""
    (tmp_path / "spec.json").write_text(json.dumps(TINY_SYNTHETIC), encoding="utf-8")
    assert main(["gen", "--spec", str(tmp_path / "spec.json"),
                 "--out-source", str(tmp_path / "s.features"),
                 "--out-target", str(tmp_path / "t.features")]) == 0
    save_model(tmp_path / "model.ckpt", d_x=5, k_s=6)
    cfg = tiny_config(tmp_path / "out")
    cfg["data"] = {"source_file": str(tmp_path / "s.features"),
                   "target_file": str(tmp_path / "t.features")}
    write_config(tmp_path, cfg)


def save_model(path, d_x, k_s):
    protos = PrototypeMatrix.random(6, k_s, seed=0)
    protos.frozen = True
    save_checkpoint(path, Encoder(d_x, [8], 6, seed=0), protos)


def rewrite(path, edit):
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


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

# (case, command, exit code, how the valid inputs are broken)
BAD_INPUTS = [
    ("truncated checkpoint", EVAL, 4, lambda t: rewrite(
        t / "model.ckpt", lambda s: "\n".join(s.splitlines()[:6]) + "\n")),
    ("nan feature", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: re.sub(r"\n\?,[^,]*,", "\n?,nan,", s, count=1))),
    ("header-only target file", ADAPT, 4, lambda t: rewrite(
        t / "t.features", lambda s: s.splitlines()[0] + "\n")),
    ("no evaluation labels", EVAL, 4, lambda t: rewrite(
        t / "t.features", lambda s: re.sub(r"#\d+", "", s))),
    ("checkpoint d_x differs", EVAL, 4, lambda t: save_model(t / "model.ckpt", 4, 6)),
    ("checkpoint K_s differs", EVAL, 4, lambda t: save_model(t / "model.ckpt", 5, 7)),
    ("checkpoint K_s differs in adapt", ADAPT, 4,
     lambda t: save_model(t / "model.ckpt", 5, 7)),
    ("string epochs", TRAIN, 2, lambda t: edit_config(
        t, lambda c: c["source"].update(epochs="2"))),
    ("spec missing keys via gen", GEN, 2, lambda t: (t / "spec.json").write_text(
        json.dumps({"k_s": 6, "k_t": 3}), encoding="utf-8")),
    ("spec missing keys via config", TRAIN, 2, lambda t: edit_config(
        t, lambda c: c.update(data={"synthetic": {"k_s": 6, "k_t": 3}}))),
]


class TestCli:
    @pytest.mark.parametrize("command, code, breakage",
                             [case[1:] for case in BAD_INPUTS],
                             ids=[case[0] for case in BAD_INPUTS])
    def test_bad_input_exit_code(self, tmp_path, capsys, command, code, breakage):
        write_bad_inputs(tmp_path)
        breakage(tmp_path)
        assert main([arg.format(tmp=tmp_path) for arg in command]) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_oversized_complement_sets_rejected_before_training(self, tmp_path, capsys):
        cfg_dict = tiny_config(tmp_path / "out", n_e=3, n_cl=3)
        cfg_dict["data"]["synthetic"]["k_s"] = 8
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["train-source", "--config", str(cfg),
                     "--out", str(tmp_path / "src.ckpt")]) == 2
        assert main(["ablate", "--config", str(cfg), "--mode", "full"]) == 2
        assert "K_s-1=7" in capsys.readouterr().err
        assert not list(tmp_path.rglob("source_metrics.csv"))

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

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_exit_code_numeric_failure(self, tmp_path, capsys):
        from protoadapt.model import PrototypeMatrix, save_checkpoint
        enc = identity_encoder(2)
        enc.weights[0][0, 0] = np.inf
        protos = PrototypeMatrix.random(2, 2, seed=0)
        protos.frozen = True
        save_checkpoint(tmp_path / "broken.ckpt", enc, protos)
        ds = Dataset(np.eye(2), None, 2, 2, "target",
                     hidden_labels=np.array([0, 1]))
        write_feature_file(ds, tmp_path / "t.features")
        assert main(["eval", "--ckpt", str(tmp_path / "broken.ckpt"),
                     "--data", str(tmp_path / "t.features")]) == 3

    def test_ablate_smoke(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["ablate", "--config", str(cfg), "--mode", "no_DO"]) == 0
        assert (tmp_path / "out" / "no_DO" / "summary.json").exists()

    def test_gradcheck_exit_zero(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "loss_nl" in out and "FAIL" not in out
