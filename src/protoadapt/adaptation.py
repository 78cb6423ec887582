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
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not 0 <= self.warmup_epochs < self.switch_epoch:
            raise ConfigError("need 0 <= warmup_epochs < switch_epoch")
        if self.batch_size < 1 or self.lr0 <= 0:
            raise ConfigError("batch_size must be >= 1 and lr0 > 0")


class EnsembleState:
    """Target-classifier weights plus the logit history behind the
    moving-average predictions.

    Every member starts as an exact copy of the frozen prototypes. The
    history holds per-sample ensemble-mean logits for up to ``n_a``
    epochs, most recent last.
    """

    def __init__(self, prototypes: PrototypeMatrix, n_e: int, n_a: int):
        if n_e < 1 or n_a < 1:
            raise ConfigError("n_e and n_a must be >= 1")
        self.weights = [prototypes.weights.copy() for _ in range(n_e)]
        self.n_a = n_a
        self.history: deque[np.ndarray] = deque(maxlen=n_a)

    @property
    def n_e(self) -> int:
        return len(self.weights)

    @property
    def n_hist(self) -> int:
        return len(self.history)

    def mean_logits(self, z_l2: np.ndarray) -> np.ndarray:
        total = z_l2 @ self.weights[0]
        for w in self.weights[1:]:
            total = total + z_l2 @ w
        return total / self.n_e

    def push_epoch_logits(self, z_l2: np.ndarray) -> None:
        self.history.append(self.mean_logits(z_l2))

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
    """Indices whose CAC strictly exceeds the epoch mean ``tau``."""
    tau: float
    indices: np.ndarray
    labels: np.ndarray


def update_pseudo_labels(ensemble: EnsembleState) -> PseudoLabelTable:
    """Soft labels from the mean of the stored logit history.

    argmax ties break toward the lowest class index.
    """
    probs = softmax(ensemble.history_mean(), axis=-1)
    labels = probs.argmax(axis=1)
    return PseudoLabelTable(probs, labels, cac(probs, probs.shape[1]))


def cac(p: np.ndarray, k_s: int) -> float | np.ndarray:
    """Confidence-adjusted certainty: 1 - H2(p)(1 - max p)/log2(K_s).

    One-hot inputs score 1, the uniform distribution scores 1/K_s, and
    every distribution lands in [0, 1]. Base-two entropy is required for
    the log2 normalization to cancel.
    """
    if k_s < 2:
        raise ValueError("cac needs at least 2 classes")
    p = np.asarray(p, dtype=float)
    h2 = entropy(p, base="two")
    value = 1.0 - h2 * (1.0 - p.max(axis=-1)) / math.log2(k_s)
    return float(value) if np.ndim(value) == 0 else value


def build_confident_subset(table: PseudoLabelTable) -> ConfidentSubset:
    """tau = mean CAC over the full target set; membership is strict,
    so identical scores everywhere yield an empty subset."""
    tau = float(table.cac.mean())
    indices = np.flatnonzero(table.cac > tau)
    return ConfidentSubset(tau, indices, table.labels[indices])


def gen_complement_sets(y_tilde: int, k_s: int, n_e: int, n_cl: int,
                        rng: np.random.Generator) -> list[np.ndarray]:
    """n_e pairwise-disjoint complementary label sets of size n_cl.

    Candidates are every class index except the pseudo-label; each draw
    removes its picks from the candidate pool.
    """
    if n_e * n_cl > k_s - 1:
        raise ConfigError(f"n_e*n_cl={n_e * n_cl} exceeds K_s-1={k_s - 1}")
    pool = np.array([c for c in range(k_s) if c != y_tilde])
    sets = []
    for _ in range(n_e):
        picked = rng.choice(pool, size=n_cl, replace=False)
        sets.append(np.sort(picked))
        pool = np.setdiff1d(pool, picked)
    return sets


def _epoch_complement_masks(labels: np.ndarray, k_s: int, cfg: AdaptConfig,
                            rng: np.random.Generator) -> np.ndarray:
    """Boolean (n, n_e, K_s) membership masks, regenerated each epoch."""
    n = labels.shape[0]
    masks = np.zeros((n, cfg.n_e, k_s), dtype=bool)
    for j in range(n):
        if cfg.share_complement_set:
            shared = gen_complement_sets(int(labels[j]), k_s, 1, cfg.n_cl, rng)[0]
            masks[j, :, shared] = True
        else:
            for m, cl in enumerate(gen_complement_sets(int(labels[j]), k_s,
                                                       cfg.n_e, cfg.n_cl, rng)):
                masks[j, m, cl] = True
    return masks


def loss_align(probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean Shannon entropy (natural log) of the predictions, with its
    gradient w.r.t. the logits. The caller routes the gradient into the
    encoder only; the prototypes receive nothing."""
    n = probs.shape[0]
    value = float(-(probs * clamped_log(probs)).sum() / n)
    dprobs = -(clamped_log(probs) + 1.0) / n
    return value, softmax_vjp(probs, dprobs)


def nl_loss_terms(z_l2: np.ndarray, weights: list[np.ndarray],
                  base_consts: list[np.ndarray], scale: float,
                  masks: np.ndarray, n_cl: int
                  ) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Negative-learning ensemble loss with explicit constant terms.

    Member m sees moving-average logits  base_consts[m] + scale * z_l2 @ w_m,
    so gradients reach only its own weights (and the encoder through its
    own live product); everything folded into base_consts is data. The
    per-element term is -(1-p) log(1-p) over that member's complementary
    label mask, normalized by batch * n_cl and averaged over members.
    """
    n = z_l2.shape[0]
    n_e = len(weights)
    value = 0.0
    dz_l2 = np.zeros_like(z_l2)
    d_weights = []
    for m, w in enumerate(weights):
        logits = base_consts[m] + scale * (z_l2 @ w)
        p = softmax(logits, axis=-1)
        mask = masks[:, m, :]
        log1p = clamped_log(1.0 - p)
        phi = -(1.0 - p) * log1p
        value += float(phi[mask].sum()) / (n * n_cl * n_e)
        dp = np.where(mask, log1p + 1.0, 0.0) / (n * n_cl * n_e)
        dlogits = softmax_vjp(p, dp)
        d_weights.append(scale * (z_l2.T @ dlogits))
        dz_l2 += scale * (dlogits @ w.T)
    return value, dz_l2, d_weights


def nl_base_consts(z_l2: np.ndarray, weights: list[np.ndarray],
                   hist_base_sum: np.ndarray, n_hist: int
                   ) -> tuple[list[np.ndarray], float]:
    """Constant logit terms for each member: older history entries plus
    the other members' current contributions, evaluated at the current
    parameters but excluded from the gradient."""
    n_e = len(weights)
    live = [z_l2 @ w for w in weights]
    mean_live = sum(live) / n_e
    bases = [(hist_base_sum + mean_live - live[m] / n_e) / n_hist
             for m in range(n_e)]
    return bases, 1.0 / (n_e * n_hist)


def loss_nl(z_l2: np.ndarray, weights: list[np.ndarray],
            hist_base_sum: np.ndarray, n_hist: int, masks: np.ndarray,
            n_cl: int) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Ensemble negative-learning loss on a batch.

    ``hist_base_sum`` is the summed logit history excluding the current
    epoch, whose contribution is recomputed live from the given weights.
    """
    bases, scale = nl_base_consts(z_l2, weights, hist_base_sum, n_hist)
    return nl_loss_terms(z_l2, weights, bases, scale, masks, n_cl)


# -- class-geometry objectives ----------------------------------------------


def _pair_cosine_term(z: np.ndarray, mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cosine distance over the masked sample pairs and its gradient.
    ``mask`` is symmetric with a False diagonal; zero pairs contribute 0."""
    cnt = int(mask.sum())
    if cnt == 0:
        return 0.0, np.zeros_like(z)
    u, r = l2_normalize_rows(z)
    cos = u @ u.T
    value = float(((1.0 - cos) * mask).sum() / cnt)
    s = mask.astype(float)
    s = (s + s.T) / cnt
    dz = -((s @ u) - (s * cos).sum(axis=1)[:, None] * u) / r[:, None]
    return value, dz


def _proto_cosine_term(z: np.ndarray, proto_weights: np.ndarray,
                       mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cosine distance over masked (sample, prototype) pairs; the
    prototypes are constants."""
    cnt = int(mask.sum())
    if cnt == 0:
        return 0.0, np.zeros_like(z)
    u, r = l2_normalize_rows(z)
    v_unit, _ = l2_normalize_rows(proto_weights.T)
    cos = u @ v_unit.T
    value = float(((1.0 - cos) * mask).sum() / cnt)
    a = mask.astype(float) / cnt
    dz = -((a @ v_unit) - (a * cos).sum(axis=1)[:, None] * u) / r[:, None]
    return value, dz


def loss_inter(z: np.ndarray, y_tilde: np.ndarray,
               proto_weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Negated mean cosine distance between differently-labeled target
    pairs and between each sample and the prototypes of other classes;
    minimizing widens both gaps. Gradient w.r.t. the raw codes only."""
    y = np.asarray(y_tilde)
    pair_mask = y[:, None] != y[None, :]
    proto_mask = y[:, None] != np.arange(proto_weights.shape[1])[None, :]
    v1, d1 = _pair_cosine_term(z, pair_mask)
    v2, d2 = _proto_cosine_term(z, proto_weights, proto_mask)
    return -(v1 + v2), -(d1 + d2)


def loss_intra(z: np.ndarray, y_tilde: np.ndarray,
               proto_weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cosine distance between same-labeled target pairs and between
    each sample and its own class prototype; minimizing compacts classes."""
    y = np.asarray(y_tilde)
    n = y.shape[0]
    pair_mask = (y[:, None] == y[None, :]) & ~np.eye(n, dtype=bool)
    proto_mask = y[:, None] == np.arange(proto_weights.shape[1])[None, :]
    v1, d1 = _pair_cosine_term(z, pair_mask)
    v2, d2 = _proto_cosine_term(z, proto_weights, proto_mask)
    return v1 + v2, d1 + d2


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
    encoder: Encoder
    ensemble: EnsembleState
    history: list[AdaptEpochMetrics]


def adapt(encoder: Encoder, prototypes: PrototypeMatrix, target: Dataset,
          cfg: AdaptConfig, epoch_hook=None, log_path=None) -> AdaptResult:
    """Run the full adaptation schedule on an unlabeled target set.

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
    if cfg.n_e * cfg.n_cl > k_s - 1:
        raise ConfigError(f"n_e*n_cl={cfg.n_e * cfg.n_cl} exceeds K_s-1={k_s - 1}")

    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    batch_rng = np.random.default_rng(seeds[0])
    comp_rng = np.random.default_rng(seeds[1])

    ensemble = EnsembleState(prototypes, cfg.n_e, cfg.n_a)
    x = target.features
    enc_params = encoder.params()
    enc_vel = [np.zeros_like(p) for p in enc_params]
    ens_vel = [np.zeros_like(w) for w in ensemble.weights]

    if log_path is not None:
        csvlog.start(log_path, ADAPT_LOG_HEADER)
    history: list[AdaptEpochMetrics] = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.lr0)
        full = encoder.forward(x)
        ensemble.push_epoch_logits(full.z_l2)
        table = update_pseudo_labels(ensemble)
        subset = build_confident_subset(table)
        if cfg.use_confident_subset:
            conf_mask = np.zeros(target.n, dtype=bool)
            conf_mask[subset.indices] = True
        else:
            conf_mask = np.ones(target.n, dtype=bool)

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
            member_grads = [None] * ensemble.n_e

            out = classify(prototypes.weights, fwd.z_l2)
            align_val, dlogits = loss_align(out.probs)
            _, d_align = classify_backward(prototypes.weights, fwd.z_l2, dlogits)
            dz_l2 += d_align
            sums["align"] += align_val * len(idx)

            if nl_phase:
                nl_val, d_nl, d_ws = loss_nl(fwd.z_l2, ensemble.weights,
                                             hist_base[idx], ensemble.n_hist,
                                             comp_masks[idx], cfg.n_cl)
                dz_l2 += d_nl
                member_grads = d_ws
                sums["nl"] += nl_val * len(idx)
                weights_acc["nl"] += len(idx)
            elif ce_phase:
                sel = np.flatnonzero(conf_mask[idx])
                if sel.size:
                    out0 = classify(ensemble.weights[0], fwd.z_l2[sel])
                    ce_val, d_ce = loss_ce(out0.probs,
                                           one_hot(table.labels[idx[sel]], k_s))
                    dw0, d_sel = classify_backward(ensemble.weights[0],
                                                   fwd.z_l2[sel], d_ce)
                    dz_l2[sel] += d_sel
                    member_grads[0] = dw0
                    sums["nl"] += ce_val * sel.size
                    weights_acc["nl"] += sel.size

            if geometry:
                sel = np.flatnonzero(conf_mask[idx])
                if sel.size:
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
            grads = encoder.backward(fwd.ctx, dz=dz, dz_l2=dz_l2)
            apply_sgd_momentum(enc_params, grads.as_list(), enc_vel, lr, MOMENTUM)
            for m, g in enumerate(member_grads):
                if g is not None:
                    apply_sgd_momentum([ensemble.weights[m]], [g], [ens_vel[m]],
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
            csvlog.append(log_path, _log_row(row))

    return AdaptResult(encoder, ensemble, history)


ADAPT_LOG_HEADER = ["epoch", "loss_nl", "loss_inter", "loss_intra",
                    "loss_align", "tau", "|D_tau|", "target_acc"]


def _log_row(row: AdaptEpochMetrics) -> list:
    acc = "" if row.target_acc is None else repr(row.target_acc)
    return [row.epoch, repr(row.loss_nl), repr(row.loss_inter),
            repr(row.loss_intra), repr(row.loss_align), repr(row.tau),
            row.d_tau_size, acc]

