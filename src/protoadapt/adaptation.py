"""Phase 2: adapt the encoder and ensemble target classifiers to an
unlabeled target set whose label space is a subset of the source's.

Each epoch refreshes, over the full target set: the moving-average
ensemble predictions, the pseudo-labels, the confidence scores, and the
confident subset. Mini-batch optimization then runs one of three
schedules:

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
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import csvlog
from .datasets import Dataset, epoch_batches
from .errors import ConfigError, NumericError
from .model import (Encoder, PrototypeMatrix, apply_sgd_momentum, classify,
                    classify_backward, lr_schedule)
from .numerics import clamped_log, entropy, l2_normalize_rows, one_hot, softmax, softmax_vjp
from .source_trainer import CLASSIFIER_LR_FACTOR, MOMENTUM, loss_ce


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


class EnsembleState:
    """Target-classifier weights plus the logit history behind the
    moving-average predictions.

    ``weights`` is one (n_e, d_z, K_s) array; every member starts as an
    exact copy of the frozen prototypes. The history holds per-sample
    ensemble-mean logits for up to ``n_a`` epochs, most recent last.
    """

    def __init__(self, prototypes: PrototypeMatrix, n_e: int, n_a: int):
        if n_e < 1 or n_a < 1:
            raise ConfigError("n_e and n_a must be >= 1")
        self.weights = np.tile(prototypes.weights, (n_e, 1, 1))
        self.history: deque[np.ndarray] = deque(maxlen=n_a)

    @property
    def n_e(self) -> int:
        return self.weights.shape[0]

    @property
    def n_hist(self) -> int:
        return len(self.history)

    def push_epoch_logits(self, z_l2: np.ndarray) -> None:
        self.history.append((z_l2 @ self.weights).sum(axis=0) / self.n_e)

    def history_mean(self) -> np.ndarray:
        if not self.history:
            raise ValueError("empty logit history")
        return sum(self.history) / self.n_hist

    def history_base_sum(self) -> np.ndarray:
        """Sum of all history entries except the current epoch's."""
        if not self.history:
            raise ValueError("empty logit history")
        return sum(self.history) - self.history[-1]


@dataclass
class PseudoLabelTable:
    """Per-sample moving-average prediction, hard pseudo-label, and
    confidence-adjusted certainty score for one epoch."""
    probs: np.ndarray
    labels: np.ndarray
    cac: np.ndarray


@dataclass
class ConfidentSubset:
    """Boolean mask of the samples whose CAC strictly exceeds the epoch
    mean ``tau``."""
    tau: float
    mask: np.ndarray


def update_pseudo_labels(ensemble: EnsembleState) -> PseudoLabelTable:
    """Soft labels from the mean of the stored logit history.

    argmax ties break toward the lowest class index.
    """
    probs = softmax(ensemble.history_mean())
    labels = probs.argmax(axis=1)
    return PseudoLabelTable(probs, labels, cac(probs))


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


def build_confident_subset(table: PseudoLabelTable) -> ConfidentSubset:
    """tau = mean CAC over the full target set; membership is strict,
    so identical scores everywhere yield an empty subset."""
    tau = float(table.cac.mean())
    return ConfidentSubset(tau, table.cac > tau)


def gen_complement_sets(labels: np.ndarray, k_s: int, n_e: int, n_cl: int,
                        rng: np.random.Generator) -> np.ndarray:
    """(n, n_e, n_cl) complementary label sets, one row per pseudo-label.

    Each row ranks the classes by uniform random keys with its own label
    forced last, and the first n_e*n_cl ranks become n_e sets of n_cl:
    pairwise disjoint, never the label, every choice equally likely.
    """
    check_complement_capacity(n_e, n_cl, k_s)
    labels = np.asarray(labels)
    keys = rng.random((labels.shape[0], k_s))
    np.put_along_axis(keys, labels[:, None], np.inf, axis=1)
    ranked = np.argsort(keys, axis=1)[:, :n_e * n_cl]
    return np.sort(ranked.reshape(-1, n_e, n_cl), axis=2)


def _epoch_complement_masks(labels: np.ndarray, k_s: int, cfg: AdaptConfig,
                            rng: np.random.Generator) -> np.ndarray:
    """Boolean (n, n_e, K_s) membership masks from one draw per epoch;
    in shared mode every member gets the same single set."""
    n_sets = 1 if cfg.share_complement_set else cfg.n_e
    masks = np.zeros((labels.shape[0], n_sets, k_s), dtype=bool)
    np.put_along_axis(masks, gen_complement_sets(labels, k_s, n_sets, cfg.n_cl, rng),
                      True, axis=2)
    return np.broadcast_to(masks, (labels.shape[0], cfg.n_e, k_s))


def loss_align(probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean Shannon entropy (natural log) of the predictions, with its
    gradient w.r.t. the logits. The caller routes the gradient into the
    encoder only; the prototypes receive nothing."""
    n = probs.shape[0]
    log_p = clamped_log(probs)
    value = float(-(probs * log_p).sum() / n)
    dprobs = -(log_p + 1.0) / n
    return value, softmax_vjp(probs, dprobs)


def nl_loss_terms(z_l2: np.ndarray, weights: np.ndarray,
                  base_consts: np.ndarray, scale: float,
                  masks: np.ndarray, n_cl: int
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative-learning ensemble loss with explicit constant terms.

    Member m sees moving-average logits  base_consts[m] + scale * z_l2 @ weights[m],
    so gradients reach only its own weights (and the encoder through its
    own live product); everything folded into base_consts is data. The
    per-element term is -(1-p) log(1-p) over that member's complementary
    label mask (``masks[:, m]``), normalized by batch * n_cl and averaged
    over members. Returns the value, d/dz_l2 and the (n_e, d_z, K_s)
    weight gradients.
    """
    n_e, n = weights.shape[0], z_l2.shape[0]
    denom = n * n_cl * n_e
    p = softmax(base_consts + scale * (z_l2 @ weights))
    mask = np.moveaxis(masks, 1, 0)
    log1p = clamped_log(1.0 - p)
    phi = -(1.0 - p) * log1p
    # summed member by member: one masked sum over all members rounds differently
    value = sum(float(phi[m][mask[m]].sum()) / denom for m in range(n_e))
    dlogits = softmax_vjp(p, np.where(mask, log1p + 1.0, 0.0) / denom)
    dz_l2 = (scale * (dlogits @ weights.transpose(0, 2, 1))).sum(axis=0)
    return value, dz_l2, scale * (z_l2.T @ dlogits)


def nl_base_consts(z_l2: np.ndarray, weights: np.ndarray,
                   hist_base_sum: np.ndarray, n_hist: int
                   ) -> tuple[np.ndarray, float]:
    """Constant logit terms for each member: older history entries plus
    the other members' current contributions, evaluated at the current
    parameters but excluded from the gradient."""
    n_e = weights.shape[0]
    live = z_l2 @ weights
    bases = (hist_base_sum + live.sum(axis=0) / n_e - live / n_e) / n_hist
    return bases, 1.0 / (n_e * n_hist)


def loss_nl(z_l2: np.ndarray, weights: np.ndarray,
            hist_base_sum: np.ndarray, n_hist: int, masks: np.ndarray,
            n_cl: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Ensemble negative-learning loss on a batch.

    ``hist_base_sum`` is the summed logit history excluding the current
    epoch, whose contribution is recomputed live from the given weights.
    """
    bases, scale = nl_base_consts(z_l2, weights, hist_base_sum, n_hist)
    return nl_loss_terms(z_l2, weights, bases, scale, masks, n_cl)


# -- class-geometry objectives ----------------------------------------------


def _geometry_term(z: np.ndarray, y: np.ndarray, proto_weights: np.ndarray,
                   same: bool) -> tuple[float, np.ndarray]:
    """Mean cosine distance over the sample pairs whose labels are equal
    (``same``, diagonal excluded) or differ, plus the same over (sample,
    prototype) pairs, with the gradient w.r.t. the raw codes. A pair
    weighs 2/cnt in the gradient since both its ends move; a prototype is
    a constant and weighs 1/cnt. An empty mask contributes 0."""
    u, r = l2_normalize_rows(z)
    v_unit, _ = l2_normalize_rows(proto_weights.T)
    pair_mask = (y[:, None] == y[None, :]) == same
    if same:
        np.fill_diagonal(pair_mask, False)
    proto_mask = (y[:, None] == np.arange(proto_weights.shape[1])[None, :]) == same
    value, dz = 0.0, np.zeros_like(z)
    for other, mask, w in ((u, pair_mask, 2.0), (v_unit, proto_mask, 1.0)):
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        cos = u @ other.T
        value += float(((1.0 - cos) * mask).sum() / cnt)
        a = mask * (w / cnt)
        dz += -((a @ other) - (a * cos).sum(axis=1)[:, None] * u) / r[:, None]
    return value, dz


def loss_inter(z: np.ndarray, y_tilde: np.ndarray,
               proto_weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Negated mean cosine distance between differently-labeled target
    pairs and between each sample and the prototypes of other classes;
    minimizing widens both gaps. Gradient w.r.t. the raw codes only."""
    value, dz = _geometry_term(z, np.asarray(y_tilde), proto_weights, same=False)
    return -value, -dz


def loss_intra(z: np.ndarray, y_tilde: np.ndarray,
               proto_weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cosine distance between same-labeled target pairs and between
    each sample and its own class prototype; minimizing compacts classes."""
    return _geometry_term(z, np.asarray(y_tilde), proto_weights, same=True)


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
    ensemble: EnsembleState
    history: list[AdaptEpochMetrics]


def adapt(encoder: Encoder, prototypes: PrototypeMatrix, target: Dataset,
          cfg: AdaptConfig, epoch_hook=None, log_path=None) -> AdaptResult:
    """Adapt ``encoder`` in place to an unlabeled target set.

    ``epoch_hook(epoch, encoder, ensemble)`` may return a target accuracy
    to record; it is the only channel through which evaluation enters the
    log, keeping hidden labels out of this module. Deterministic given
    the config seed.
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

    ensemble = EnsembleState(prototypes, cfg.n_e, cfg.n_a)
    x = target.features
    enc_vel = np.zeros_like(encoder.theta)
    ens_vel = np.zeros_like(ensemble.weights)

    if log_path is not None:
        csvlog.start(log_path, ADAPT_LOG_HEADER)
    history: list[AdaptEpochMetrics] = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.lr0)
        full = encoder.forward(x)
        ensemble.push_epoch_logits(full.z_l2)
        table = update_pseudo_labels(ensemble)
        subset = build_confident_subset(table)
        conf_mask = subset.mask if cfg.use_confident_subset else np.ones(target.n, dtype=bool)

        nl_phase = cfg.warmup_epochs <= epoch <= cfg.switch_epoch
        ce_phase = epoch > cfg.switch_epoch
        geometry = epoch >= cfg.warmup_epochs and (cfg.alpha != 0.0 or cfg.beta != 0.0)
        if nl_phase:
            comp_masks = _epoch_complement_masks(table.labels, k_s, cfg, comp_rng)
            hist_base = ensemble.history_base_sum()

        sums = {"nl": 0.0, "inter": 0.0, "intra": 0.0, "align": 0.0}
        weights_acc = {"nl": 0, "geom": 0}
        for idx in epoch_batches(target, cfg.batch_size, batch_rng):
            fwd = encoder.forward(x[idx])
            dz = np.zeros_like(fwd.z)
            dz_l2 = np.zeros_like(fwd.z_l2)
            ens_grad = None  # for the members selected by ``members``
            sel = np.flatnonzero(conf_mask[idx])

            out = classify(prototypes.weights, fwd.z_l2)
            align_val, dlogits = loss_align(out.probs)
            _, d_align = classify_backward(prototypes.weights, fwd.z_l2, dlogits)
            dz_l2 += d_align
            sums["align"] += align_val * len(idx)

            if nl_phase:
                nl_val, d_nl, ens_grad = loss_nl(fwd.z_l2, ensemble.weights,
                                                 hist_base[idx], ensemble.n_hist,
                                                 comp_masks[idx], cfg.n_cl)
                dz_l2 += d_nl
                members = slice(None)
                sums["nl"] += nl_val * len(idx)
                weights_acc["nl"] += len(idx)
            elif ce_phase and sel.size:
                out0 = classify(ensemble.weights[0], fwd.z_l2[sel])
                ce_val, d_ce = loss_ce(out0.probs,
                                       one_hot(table.labels[idx[sel]], k_s))
                dw0, d_sel = classify_backward(ensemble.weights[0],
                                               fwd.z_l2[sel], d_ce)
                dz_l2[sel] += d_sel
                members, ens_grad = 0, dw0
                sums["nl"] += ce_val * sel.size
                weights_acc["nl"] += sel.size

            if geometry and sel.size:
                zc = fwd.z[sel]
                yc = table.labels[idx[sel]]
                if cfg.alpha != 0.0:
                    v, d = loss_inter(zc, yc, prototypes.weights)
                    dz[sel] += cfg.alpha * d
                    sums["inter"] += v * sel.size
                if cfg.beta != 0.0:
                    v, d = loss_intra(zc, yc, prototypes.weights)
                    dz[sel] += cfg.beta * d
                    sums["intra"] += v * sel.size
                weights_acc["geom"] += sel.size

            if not np.isfinite(sums["align"] + sums["nl"] + sums["inter"] + sums["intra"]):
                raise NumericError(f"adaptation diverged at epoch {epoch}")
            apply_sgd_momentum(encoder.theta, encoder.backward(fwd.ctx, dz=dz, dz_l2=dz_l2),
                               enc_vel, lr, MOMENTUM)
            if ens_grad is not None:
                apply_sgd_momentum(ensemble.weights[members], ens_grad, ens_vel[members],
                                   CLASSIFIER_LR_FACTOR * lr, MOMENTUM)

        target_acc = epoch_hook(epoch, encoder, ensemble) if epoch_hook else None
        n_sup = weights_acc["nl"] or 1
        n_geom = weights_acc["geom"] or 1
        row = AdaptEpochMetrics(
            epoch, sums["nl"] / n_sup, sums["inter"] / n_geom,
            sums["intra"] / n_geom, sums["align"] / target.n,
            subset.tau, int(conf_mask.sum()), target_acc)
        history.append(row)
        if log_path is not None:
            csvlog.append(log_path, row)

    return AdaptResult(ensemble, history)


ADAPT_LOG_HEADER = ["epoch", "loss_nl", "loss_inter", "loss_intra",
                    "loss_align", "tau", "|D_tau|", "target_acc"]

