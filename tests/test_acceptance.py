"""End-to-end acceptance suite.

One test per criterion; each prints a PASS line with its headline number
when it completes. Expected values for the synthetic study were frozen
from a pre-registered oracle run of the source-only baseline (the same
five seeds, evaluated before any adaptation).
"""

import json
import math
import time

import numpy as np
import pytest

from protoadapt.adaptation import (AdaptConfig, EnsembleState, adapt, cac,
                                   gen_complement_sets, update_pseudo_labels)
from protoadapt.datasets import SyntheticSpec, generate_synthetic
from protoadapt.gradcheck import TOLERANCE, run_suite
from protoadapt.harness import load_config, run_experiment
from protoadapt.model import Encoder, PrototypeMatrix
from protoadapt.numerics import softmax
from protoadapt.source_trainer import SourcePhaseConfig, train_source

# -- frozen oracle values (pre-registered baseline run, seeds 0..4) ----------
STUDY_SEEDS = (0, 1, 2, 3, 4)
ORACLE_BASELINE_ACC = (0.9750, 0.9900, 0.9725, 0.9925, 0.9850)
ORACLE_BASELINE_NEG = (0.0200, 0.0075, 0.0225, 0.0025, 0.0100)
ORACLE_MEAN_GAP_FLOOR = 0.004  # half the observed mean improvement (0.012)
ORACLE_DRIFT = 0.02            # allowance for platform-level float drift


def study_config_dict(out_dir, seed):
    translation = [1.0 / math.sqrt(10)] * 10
    return {
        "seed": seed,
        "out_dir": str(out_dir),
        "data": {"synthetic": {"k_s": 8, "k_t": 4, "d_x": 10,
                               "source_per_class": 200, "target_per_class": 100,
                               "cluster_std": 1.0,
                               "rotation_angle": math.pi / 6,
                               "translation": translation}},
        "model": {"hidden": [64, 64], "d_z": 32},
        "source": {"eta": 1.5, "epochs": 100, "lr0": 0.01, "batch_size": 32},
        # n_e * n_cl must stay below K_s - 1 = 7, so the 3-member ensemble
        # draws two complementary labels per set at this class count
        "adapt": {"n_a": 10, "n_e": 3, "n_cl": 2, "alpha": 0.5, "beta": 1.5,
                  "epochs": 60, "warmup_epochs": 5, "switch_epoch": 15,
                  "lr0": 0.01, "batch_size": 32},
    }


def run_study_seed(tmp_path, seed, tag=""):
    out = tmp_path / f"study{tag}_{seed}"
    cfg_path = tmp_path / f"study{tag}_{seed}.json"
    cfg_path.write_text(json.dumps(study_config_dict(out, seed)), encoding="utf-8")
    return out, run_experiment(load_config(cfg_path))


def test_gradient_suite():
    start = time.monotonic()
    results = run_suite(seed=0)
    elapsed = time.monotonic() - start
    assert set(results) == {"loss_ce", "loss_comp", "loss_align", "loss_nl",
                            "loss_inter", "loss_intra"}
    worst = max(results.values())
    assert worst < TOLERANCE, results
    assert elapsed < 60.0
    print(f"\nACCEPTANCE gradient-suite: PASS "
          f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_complement_set_properties():
    rng = np.random.default_rng(2024)
    failures = 0
    exact_cover_cases = 0
    for _ in range(1000):
        k_s = int(rng.integers(3, 16))
        n_e = int(rng.integers(1, min(5, k_s)))
        max_cl = (k_s - 1) // n_e
        n_cl = int(rng.integers(1, max_cl + 1))
        labels = rng.integers(0, k_s, size=int(rng.integers(1, 9)))
        batch = gen_complement_sets(labels, k_s, n_e, n_cl, rng)
        if batch.shape != (len(labels), n_e, n_cl):
            failures += 1
            continue
        for y, sets in zip(labels, batch):
            seen = set()
            for s in sets:
                if len(set(s)) != n_cl or y in s or (seen & set(s)):
                    failures += 1
                seen |= set(s)
            if n_e * n_cl == k_s - 1 and seen != set(range(k_s)) - {y}:
                failures += 1
        exact_cover_cases += n_e * n_cl == k_s - 1
    assert failures == 0
    assert exact_cover_cases > 0
    print(f"\nACCEPTANCE complement-sets: PASS "
          f"(1000 trials of 1-8 labels, {exact_cover_cases} exact-cover trials, "
          f"0 failures)")


def test_cac_properties():
    for k in range(2, 65):
        assert cac(np.eye(k)[0]) == pytest.approx(1.0, abs=1e-9)
        assert cac(np.full(k, 1.0 / k)) == pytest.approx(1.0 / k, abs=1e-9)
    rng = np.random.default_rng(7)
    total = 0
    for k in (2, 3, 5, 8, 13, 21, 34, 64):
        p = rng.random((12_500, k)) + 1e-12
        p /= p.sum(axis=1, keepdims=True)
        scores = cac(p)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)
        total += len(scores)
    assert total == 100_000
    print(f"\nACCEPTANCE cac-properties: PASS ({total} random distributions in [0,1])")


def _pure_ce_reference_run(source, cfg, enc_seed, proto_seed):
    """Cross-entropy-only training loop built from the public primitives;
    the complement objective never exists on this code path."""
    from protoadapt.datasets import epoch_batches
    from protoadapt.model import (apply_sgd_momentum, classify,
                                  classify_backward, lr_schedule)
    from protoadapt.numerics import one_hot
    from protoadapt.source_trainer import loss_ce

    enc = Encoder(source.d_x, [8], 6, seed=enc_seed)
    protos = PrototypeMatrix.random(6, source.k_s, seed=proto_seed)
    y_all = one_hot(source.labels, source.k_s)
    rng = np.random.default_rng(cfg.seed)
    vel = np.zeros_like(enc.theta)
    proto_vel = np.zeros_like(protos.weights)
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.lr0)
        for idx in epoch_batches(source, cfg.batch_size, rng):
            enc_out = enc.forward(source.features[idx])
            out = classify(protos.weights, enc_out.z_l2)
            _, d_ce = loss_ce(out.probs, y_all[idx])
            d_proto, dz_l2 = classify_backward(protos.weights, enc_out.z_l2, d_ce)
            apply_sgd_momentum(enc.theta, enc.backward(enc_out.ctx, dz_l2=dz_l2),
                               vel, lr, 0.9)
            apply_sgd_momentum(protos.weights, d_proto, proto_vel, 10 * lr, 0.9)
    return enc, protos


def test_ablation_reductions(tmp_path):
    # eta = 0 must reproduce a pure cross-entropy source phase bit-exactly
    spec = SyntheticSpec(k_s=4, k_t=2, d_x=5, source_per_class=15,
                         target_per_class=10, cluster_std=0.5, seed=1)
    source, _ = generate_synthetic(spec)
    cfg = SourcePhaseConfig(eta=0.0, epochs=4, batch_size=16, seed=4)
    enc = Encoder(5, [8], 6, seed=2)
    protos = PrototypeMatrix.random(6, 4, seed=3)
    train_source(enc, protos, source, cfg)
    ref_enc, ref_protos = _pure_ce_reference_run(source, cfg, enc_seed=2,
                                                 proto_seed=3)
    assert np.array_equal(enc.theta, ref_enc.theta)
    assert np.array_equal(protos.weights, ref_protos.weights)

    # n_e = n_a = 1 pseudo-labels equal direct single-classifier softmax
    protos = PrototypeMatrix.random(6, 4, seed=5)
    protos.frozen = True
    ens = EnsembleState(protos, n_e=1, n_a=1)
    z = np.random.default_rng(6).standard_normal((20, 6))
    ens.push_epoch_logits(z)
    table = update_pseudo_labels(ens)
    direct = softmax(z @ protos.weights)
    assert np.array_equal(table.probs, direct)

    # alpha = beta = 0 removes the geometry terms from the decomposition
    protos8 = PrototypeMatrix.random(6, 8, seed=7)
    protos8.frozen = True
    spec8 = SyntheticSpec(k_s=8, k_t=4, d_x=5, source_per_class=5,
                          target_per_class=10, cluster_std=1.0, seed=8)
    target8 = generate_synthetic(spec8)[1]
    result = adapt(Encoder(5, [8], 6, seed=9), protos8, target8,
                   AdaptConfig(alpha=0.0, beta=0.0, epochs=8, warmup_epochs=2,
                               switch_epoch=5, n_a=3, n_e=2, n_cl=2,
                               batch_size=16, seed=10))
    assert all(row.loss_inter == 0.0 and row.loss_intra == 0.0
               for row in result.history)
    print("\nACCEPTANCE ablation-reductions: PASS "
          "(eta=0 bitwise, ensemble reduction bitwise, geometry columns zero)")


def test_prototype_freeze_and_privacy(tmp_path, capsys):
    from protoadapt.cli import main
    spec = {"k_s": 6, "k_t": 3, "d_x": 5, "source_per_class": 12,
            "target_per_class": 10, "rotation_angle": 0.4,
            "translation": [1, 0, 0, 0, 0], "seed": 11}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    src_file, tgt_file = tmp_path / "s.features", tmp_path / "t.features"
    assert main(["gen", "--spec", str(spec_path), "--out-source", str(src_file),
                 "--out-target", str(tgt_file)]) == 0

    cfg = {"seed": 5, "out_dir": str(tmp_path / "out"),
           "data": {"source_file": str(src_file), "target_file": str(tgt_file)},
           "model": {"hidden": [8], "d_z": 6},
           "source": {"epochs": 3, "batch_size": 16},
           "adapt": {"n_a": 3, "n_e": 2, "n_cl": 2, "epochs": 5,
                     "warmup_epochs": 1, "switch_epoch": 3, "batch_size": 16}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    src_ckpt = tmp_path / "src.ckpt"
    assert main(["train-source", "--config", str(cfg_path),
                 "--out", str(src_ckpt)]) == 0

    # delete every source artifact before adaptation: only the checkpoint
    # and the target file remain
    src_file.unlink()
    adapted_ckpt = tmp_path / "adapted.ckpt"
    assert main(["adapt", "--config", str(cfg_path), "--source-ckpt",
                 str(src_ckpt), "--out", str(adapted_ckpt)]) == 0

    from protoadapt.model import load_checkpoint
    _, protos_before, _ = load_checkpoint(src_ckpt)
    _, protos_after, ensemble = load_checkpoint(adapted_ckpt)
    assert protos_before.weights.tobytes() == protos_after.weights.tobytes()
    assert ensemble is not None
    print("\nACCEPTANCE prototype-freeze-and-privacy: PASS "
          "(weights bitwise stable, source files deleted before adapt)")


def test_synthetic_pda_study(tmp_path):
    start = time.monotonic()
    rows = []
    for seed in STUDY_SEEDS:
        _, summary = run_study_seed(tmp_path, seed)
        rows.append((summary["baseline"]["accuracy"],
                     summary["adapted"]["accuracy"],
                     summary["baseline"]["negative_transfer"],
                     summary["adapted"]["negative_transfer"]))
    elapsed = time.monotonic() - start

    baselines = [r[0] for r in rows]
    adapted = [r[1] for r in rows]
    for b, expected in zip(baselines, ORACLE_BASELINE_ACC):
        assert abs(b - expected) <= ORACLE_DRIFT, (baselines, ORACLE_BASELINE_ACC)
    improved = sum(1 for b, a, *_ in rows if a > b)
    neg_down = sum(1 for *_, nb, na in rows if na < nb)
    assert improved >= 4, rows
    assert neg_down >= 4, rows
    mean_gap = np.mean(adapted) - np.mean(ORACLE_BASELINE_ACC)
    assert mean_gap >= ORACLE_MEAN_GAP_FLOOR, rows
    assert elapsed < 600.0
    print(f"\nACCEPTANCE synthetic-pda-study: PASS "
          f"(improved {improved}/5, negative transfer down {neg_down}/5, "
          f"mean gap {mean_gap:.4f}, {elapsed:.0f}s)")


def test_determinism_byte_identical_outputs(tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        out, _ = run_study_seed(tmp_path, 0, tag=tag)
        outs.append(out)
    for name in ("source_metrics.csv", "adapt_metrics.csv", "summary.json",
                 "source.features", "target.features", "source.ckpt",
                 "adapted.ckpt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    print("\nACCEPTANCE determinism: PASS (all run artifacts byte-identical)")
