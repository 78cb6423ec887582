"""Phase 2: adapt the encoder and ensemble target classifiers to an
unlabeled target set whose label space is a subset of the source's.

Each epoch refreshes, over the full target set: the moving-average
ensemble predictions, the pseudo-labels, the confidence scores, and the
confident subset. Each mini-batch is then one ``adapt_step`` in one of
three schedules:

  epochs [0, warmup):          prediction-entropy alignment only
  epochs [warmup, switch]:     alignment + ensemble negative learning on
                               per-sample complementary label sets +
                               weighted class-geometry terms
  epochs (switch, ...):        negative learning replaced by standard
                               cross-entropy on confident samples against
                               their pseudo-labels, through the first
                               ensemble classifier

The source prototypes stay frozen throughout; gradients from every term
reach the encoder (and, where stated, the ensemble weights) only.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import csvlog
from .datasets import Dataset, epoch_batches
from .errors import ConfigError, NumericError
from .model import (Encoder, PrototypeMatrix, apply_sgd_momentum, classify,
                    classify_backward, lr_schedule)
from .numerics import clamped_log, entropy, l2_normalize_rows, one_hot, softmax, softmax_vjp
from .source_trainer import CLASSIFIER_LR_FACTOR, loss_ce


@dataclass
class AdaptConfig:
    n_a: int = 10
    n_e: int = 3
    n_cl: int = 3
    alpha: float = 0.5
    beta: float = 1.5
    epochs: int = 2500
    warmup_epochs: int = 5
    switch_epoch: int = 15
    lr0: float = 0.01
    batch_size: int = 32
    seed: int = 0
    use_confident_subset: bool = True
    share_complement_set: bool = False

    def __post_init__(self):
        if min(self.n_a, self.n_e, self.n_cl) < 1:
            raise ConfigError("n_a, n_e, n_cl must be >= 1")
        if self.n_a > sys.maxsize:  # the logit history's deque holds at most that many
            raise ConfigError(f"n_a must be <= {sys.maxsize}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be >= 0")
        if min(self.epochs, self.seed) < 0:
            raise ConfigError(f"epochs and seed must be >= 0, got {self.epochs}, {self.seed}")
        if not 0 <= self.warmup_epochs < self.switch_epoch:
            raise ConfigError("need 0 <= warmup_epochs < switch_epoch")
        if self.batch_size < 1 or self.lr0 <= 0:
            raise ConfigError("batch_size must be >= 1 and lr0 > 0")


def check_complement_capacity(n_e: int, n_cl: int, k_s: int) -> None:
    """n_e disjoint sets of n_cl classes must fit among the K_s-1
    classes other than a sample's pseudo-label."""
    if n_e * n_cl > k_s - 1:
        raise ConfigError(f"n_e*n_cl={n_e * n_cl} exceeds K_s-1={k_s - 1}")


def update_pseudo_labels(logit_history: Sequence[np.ndarray]) -> np.ndarray:
    """Soft labels: the softmax of the mean of the per-epoch ensemble-mean
    logits in ``logit_history``, most recent last. ``adapt`` takes their
    argmax, ties toward the lowest class index, as the pseudo-labels.
    """
    if not logit_history:
        raise ValueError("empty logit history")
    return softmax(sum(logit_history) / len(logit_history))


def cac(p: np.ndarray) -> float | np.ndarray:
    """Confidence-adjusted certainty: 1 - H2(p)(1 - max p)/log2(K_s),
    with K_s the width of ``p``'s last axis.

    One-hot inputs score 1, the uniform distribution scores 1/K_s, and
    every distribution lands in [0, 1]. Base-two entropy is required for
    the log2 normalization to cancel.
    """
    p = np.asarray(p, dtype=float)
    k_s = p.shape[-1]
    if k_s < 2:
        raise ValueError("cac needs at least 2 classes")
    h2 = entropy(p) / math.log(2.0)
    value = 1.0 - h2 * (1.0 - p.max(axis=-1)) / math.log2(k_s)
    return float(value) if np.ndim(value) == 0 else value


def build_confident_subset(scores: np.ndarray) -> tuple[float, np.ndarray]:
    """``(tau, mask)``: tau = mean CAC ``scores`` over the full target set,
    and the boolean mask of the samples strictly above it, so identical
    scores everywhere yield an empty subset."""
    tau = float(scores.mean())
    return tau, scores > tau


def gen_complement_sets(labels: np.ndarray, k_s: int, n_e: int, n_cl: int,
                        rng: np.random.Generator) -> np.ndarray:
    """(n, n_e, K_s) boolean membership masks of complementary label sets,
    one row per pseudo-label.

    Each row ranks the classes by uniform random keys with its own label
    forced last, and the first n_e*n_cl ranks become n_e sets of n_cl:
    pairwise disjoint, never the label, every choice equally likely.
    """
    check_complement_capacity(n_e, n_cl, k_s)
    labels = np.asarray(labels)
    keys = rng.random((labels.shape[0], k_s))
    np.put_along_axis(keys, labels[:, None], np.inf, axis=1)
    ranked = np.argsort(keys, axis=1)[:, :n_e * n_cl]
    masks = np.zeros((labels.shape[0], n_e, k_s), dtype=bool)
    np.put_along_axis(masks, ranked.reshape(-1, n_e, n_cl), True, axis=2)
    return masks


def loss_align(probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean Shannon entropy (natural log) of the predictions, with its
    gradient w.r.t. the logits. The caller routes the gradient into the
    encoder only; the prototypes receive nothing."""
    n = probs.shape[0]
    log_p = clamped_log(probs)
    value = float(-(probs * log_p).sum() / n)
    dprobs = -(log_p + 1.0) / n
    return value, softmax_vjp(probs, dprobs)


def loss_nl(z_l2: np.ndarray, weights: np.ndarray,
            hist_base_sum: np.ndarray, n_hist: int, masks: np.ndarray,
            n_cl: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Ensemble negative-learning loss on a batch.

    Every member reads one shared softmax p of the moving-average ensemble
    logits  (hist_base_sum + sum_m z_l2 @ weights[m] / n_e) / n_hist,  where
    ``hist_base_sum`` is the summed logit history excluding the current
    epoch, whose contribution is recomputed live from the given weights.
    Members differ only in their complementary label masks (``masks[:, m]``)
    and in gradient routing: member m's term reaches its own weights, and
    the encoder through its own live product, scaled by 1/(n_e * n_hist);
    older entries and the other members' terms are constants. The
    per-element term is -(1-p) log(1-p) over a member's mask, normalized by
    batch * n_cl and averaged over members. Returns the value, d/dz_l2 and
    the (n_e, d_z, K_s) weight gradients.
    """
    n_e, n = weights.shape[0], z_l2.shape[0]
    denom = n * n_cl * n_e
    scale = 1.0 / (n_e * n_hist)
    p = softmax((hist_base_sum + (z_l2 @ weights).sum(axis=0) / n_e) / n_hist)
    log1p = clamped_log(1.0 - p)
    value = float((-(1.0 - p) * log1p * masks.sum(axis=1)).sum() / denom)
    dlogits = softmax_vjp(p, np.where(np.moveaxis(masks, 1, 0), log1p + 1.0, 0.0) / denom)
    dz_l2 = scale * (dlogits @ weights.transpose(0, 2, 1)).sum(axis=0)
    return value, dz_l2, scale * (z_l2.T @ dlogits)


# -- class-geometry objectives ----------------------------------------------


def loss_geometry(u: np.ndarray, y_tilde: np.ndarray, v_unit: np.ndarray
                  ) -> tuple[tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """``loss_inter`` then ``loss_intra``, each (value, d/du), for the unit
    codes ``u`` labeled ``y_tilde`` in [0, K_s) and the unit prototypes
    ``v_unit`` (K_s, d_z). A term is the mean cosine distance over the
    sample pairs (diagonal excluded), plus the same over the (sample,
    prototype) pairs, whose labels differ (inter) or agree (intra). Each of
    the four parts is (cnt - sum u.partners)/cnt over its cnt pairs, with one
    partner sum per row read off the per-class code sums one_hot(y).T @ u:
    O(n*K_s*d), and no n x n array. A pair weighs 2/cnt in the gradient since
    both its ends move; a prototype is a constant and weighs 1/cnt. A part
    with no pairs contributes 0."""
    y = np.asarray(y_tilde)
    n, k_s = u.shape[0], v_unit.shape[0]
    class_sums = one_hot(y, k_s).T @ u
    n_same = int(np.square(np.bincount(y, minlength=k_s)).sum())
    own_sums = class_sums[y]
    terms = []
    for parts in (((class_sums.sum(axis=0) - own_sums, n * n - n_same, 2.0),
                   (v_unit.sum(axis=0) - v_unit[y], n * (k_s - 1), 1.0)),
                  ((own_sums - u, n_same - n, 2.0), (v_unit[y], n, 1.0))):
        value, du = 0.0, np.zeros_like(u)
        for partners, cnt, w in parts:
            if cnt == 0:
                continue
            value += float((cnt - (u * partners).sum()) / cnt)
            du -= partners * (w / cnt)
        terms.append((value, du))
    (inter, d_inter), intra = terms
    return (-inter, -d_inter), intra


def loss_inter(u: np.ndarray, y_tilde: np.ndarray,
               proto_weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Negated mean cosine distance between differently-labeled target
    pairs and between each sample and the prototypes of other classes;
    minimizing widens both gaps. Takes and differentiates the unit codes.
    ``adapt_step`` calls ``loss_geometry``; this remains only for the tracer's sites."""
    return loss_geometry(u, y_tilde, l2_normalize_rows(proto_weights.T)[0])[0]


def loss_intra(u: np.ndarray, y_tilde: np.ndarray,
               proto_weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cosine distance between same-labeled target pairs and between
    each sample and its own class prototype; minimizing compacts classes.
    Remains, like ``loss_inter``, only for the benchmark tracer's sites."""
    return loss_geometry(u, y_tilde, l2_normalize_rows(proto_weights.T)[0])[1]


# -- the adaptation loop -----------------------------------------------------


@dataclass
class AdaptEpochMetrics:
    epoch: int
    loss_nl: float
    loss_inter: float
    loss_intra: float
    loss_align: float
    tau: float
    d_tau_size: int
    target_acc: float | None


@dataclass
class AdaptResult:
    ensemble: np.ndarray  # (n_e, d_z, K_s)
    history: list[AdaptEpochMetrics]


def adapt_step(phase: str, z_l2: np.ndarray, labels: np.ndarray, confident: np.ndarray,
               proto_weights: np.ndarray, v_unit: np.ndarray, ensemble: np.ndarray,
               cfg: AdaptConfig, nl_data: tuple | None = None) -> tuple:
    """One mini-batch of ``adapt`` in ``phase`` "warmup", "nl" or "ce", on the
    batch's unit codes, pseudo-labels and confident mask; ``v_unit`` holds
    the unit columns of ``proto_weights``, and ``nl_data`` ("nl" only) the
    summed older history, its length and the complement masks. The objective
    is alignment, plus NL ("nl") or CE through member 0 on the confident rows
    ("ce"), plus, past warmup, alpha*inter + beta*intra on the confident rows.
    Returns d/dz_l2, the gradient of ``ensemble[members]`` (None in warmup),
    ``members``, and per term name (value, rows, its share of dz_l2 at rows),
    a geometry term with a zero weight left out."""
    rows = np.arange(z_l2.shape[0])
    dz_l2 = np.zeros_like(z_l2)
    ens_grad = members = None
    align_val, dlogits = loss_align(classify(proto_weights, z_l2))
    _, d_align = classify_backward(proto_weights, z_l2, dlogits)
    dz_l2 += d_align
    terms = {"align": (align_val, rows, d_align)}
    if phase == "nl":
        nl_val, d_nl, ens_grad = loss_nl(z_l2, ensemble, *nl_data, cfg.n_cl)
        dz_l2 += d_nl
        members = slice(None)
        terms["nl"] = (nl_val, rows, d_nl)
    sel = np.flatnonzero(confident)
    geometry = phase != "warmup" and (cfg.alpha != 0.0 or cfg.beta != 0.0)
    if (phase == "ce" or geometry) and sel.size:  # one gather, one scatter
        z_sel, y_sel, dz_sel = z_l2[sel], labels[sel], dz_l2[sel]
        if phase == "ce":
            ce_val, d_ce = loss_ce(classify(ensemble[0], z_sel), y_sel)
            ens_grad, d_sel = classify_backward(ensemble[0], z_sel, d_ce)
            dz_sel += d_sel
            members = 0
            terms["ce"] = (ce_val, sel, d_sel)
        if geometry:
            geom = loss_geometry(z_sel, y_sel, v_unit)
            for key, coef, (v, d) in zip(("inter", "intra"), (cfg.alpha, cfg.beta), geom):
                if coef != 0.0:
                    terms[key] = (v, sel, coef * d)
                    dz_sel += terms[key][2]
        dz_l2[sel] = dz_sel
    return dz_l2, ens_grad, members, terms


def adapt(encoder: Encoder, prototypes: PrototypeMatrix, target: Dataset,
          cfg: AdaptConfig, epoch_hook=None, log_path=None) -> AdaptResult:
    """Adapt ``encoder`` in place to an unlabeled target set.

    The ensemble, ``AdaptResult.ensemble``, is one (n_e, d_z, K_s) array
    whose members start as copies of the frozen prototypes.

    ``epoch_hook(epoch, z_l2, ensemble)`` may return a target accuracy
    to record as a float, from the unit codes ``z_l2`` of the full target
    set and the ensemble at the epoch's final parameters; it is the only
    channel through which evaluation enters the log, keeping hidden
    labels out of this module. The same codes feed the next epoch's
    pseudo-label refresh, so a run makes epochs + 1 full-target
    ``Encoder.encode`` passes. Deterministic given the config seed.
    """
    if not prototypes.frozen:
        raise ConfigError("adapt requires frozen prototypes")
    if target.role != "target":
        raise ConfigError("adapt requires a target dataset")
    k_s = prototypes.k_s
    check_complement_capacity(cfg.n_e, cfg.n_cl, k_s)

    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    batch_rng = np.random.default_rng(seeds[0])
    comp_rng = np.random.default_rng(seeds[1])

    ensemble = np.tile(prototypes.weights, (cfg.n_e, 1, 1))
    logit_history: deque[np.ndarray] = deque(maxlen=cfg.n_a)
    v_unit = l2_normalize_rows(prototypes.weights.T)[0]
    x = target.features
    enc_vel = np.zeros_like(encoder.theta)
    ens_vel = np.zeros_like(ensemble)

    if log_path is not None:
        csvlog.start(log_path, ADAPT_LOG_HEADER)
    history: list[AdaptEpochMetrics] = []
    z_l2 = encoder.encode(x)
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.lr0)
        logit_history.append((z_l2 @ ensemble).sum(axis=0) / cfg.n_e)
        probs = update_pseudo_labels(logit_history)
        labels = probs.argmax(axis=1)
        tau, conf_mask = build_confident_subset(cac(probs))
        if not cfg.use_confident_subset:
            conf_mask = np.ones(target.n, dtype=bool)

        phase = ("warmup" if epoch < cfg.warmup_epochs else
                 "nl" if epoch <= cfg.switch_epoch else "ce")
        if phase == "nl":
            n_sets = 1 if cfg.share_complement_set else cfg.n_e
            comp_masks = np.broadcast_to(
                gen_complement_sets(labels, k_s, n_sets, cfg.n_cl, comp_rng),
                (target.n, cfg.n_e, k_s))
            hist_base = sum(logit_history) - logit_history[-1]

        # per metric column, the row-weighted sum of its term values and the rows
        sums = dict.fromkeys(("align", "nl", "inter", "intra"), 0.0)
        counts = dict.fromkeys(sums, 0)
        for idx in epoch_batches(target, cfg.batch_size, batch_rng):
            fwd = encoder.forward(x[idx])
            nl_data = ((hist_base[idx], len(logit_history), comp_masks[idx])
                       if phase == "nl" else None)
            dz_l2, ens_grad, members, terms = adapt_step(
                phase, fwd.z_l2, labels[idx], conf_mask[idx], prototypes.weights, v_unit,
                ensemble, cfg, nl_data)
            for name, (value, rows, _) in terms.items():
                key = "nl" if name == "ce" else name  # CE fills the supervised column
                sums[key] += value * len(rows)
                counts[key] += len(rows)
            if not math.isfinite(sum(sums.values())):
                raise NumericError(f"adaptation diverged at epoch {epoch}")
            apply_sgd_momentum(encoder.theta, encoder.backward(fwd.ctx, dz_l2),
                               enc_vel, lr)
            if ens_grad is not None:
                apply_sgd_momentum(ensemble[members], ens_grad, ens_vel[members],
                                   CLASSIFIER_LR_FACTOR * lr)

        z_l2 = encoder.encode(x)
        acc = epoch_hook(epoch, z_l2, ensemble) if epoch_hook else None
        target_acc = None if acc is None else float(acc)  # not 'np.float64(...)' in the CSV
        row = AdaptEpochMetrics(
            epoch, *(sums[k] / (counts[k] or 1) for k in ("nl", "inter", "intra", "align")),
            tau, int(conf_mask.sum()), target_acc)
        history.append(row)
        if log_path is not None:
            csvlog.append(log_path, row)

    return AdaptResult(ensemble, history)


ADAPT_LOG_HEADER = ["epoch", "loss_nl", "loss_inter", "loss_intra",
                    "loss_align", "tau", "|D_tau|", "target_acc"]

