"""Phase 1: learn the encoder and source prototypes on labeled data.

The objective couples categorical cross-entropy with a complement term
that spreads the probability mass left over from the ground-truth class
uniformly across the remaining classes. Both losses are computed per
mini-batch, with the batch size standing in for the dataset size in the
normalizing denominators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import csvlog
from .datasets import Dataset, epoch_batches
from .errors import ConfigError, NumericError
from .model import (Encoder, PrototypeMatrix, apply_sgd_momentum, classify,
                    classify_backward, lr_schedule)
from .numerics import clamped_log, one_hot, softmax_vjp

CLASSIFIER_LR_FACTOR = 10.0
MOMENTUM = 0.9


@dataclass
class SourcePhaseConfig:
    eta: float = 1.5
    epochs: int = 250
    lr0: float = 0.01
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.eta < 0:
            raise ConfigError("eta must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1 or self.lr0 <= 0:
            raise ConfigError("batch_size must be >= 1 and lr0 > 0")


@dataclass
class SourceEpochMetrics:
    epoch: int
    loss_ce: float
    loss_comp: float
    source_acc: float
    lr: float


def _check_one_hot(y: np.ndarray, k: int) -> None:
    if y.ndim != 2 or y.shape[1] != k:
        raise ValueError(f"labels must be one-hot over {k} classes")
    if not (np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) == 1.0)):
        raise ValueError("labels must be exactly one-hot")


def loss_ce(probs: np.ndarray, y_onehot: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean categorical cross-entropy and its gradient w.r.t. the logits.

    The softmax/cross-entropy composition gives d_logits = (p - y)/n.
    """
    _check_one_hot(y_onehot, probs.shape[1])
    n = probs.shape[0]
    value = float(-(y_onehot * clamped_log(probs)).sum() / n)
    return value, (probs - y_onehot) / n


def loss_comp(probs: np.ndarray, y_onehot: np.ndarray) -> tuple[float, np.ndarray]:
    """Complement objective: weighted negative entropy of the probability
    mass renormalized over the non-ground-truth classes.

    Per sample, with g the true class and S = 1 - p_g:
        l = (1 - p_g) * sum_{c != g} (p_c/S) log(p_c/S)
    averaged with a 1/(n (K-1)) denominator. The value is always <= 0 and
    minimizing it pushes the complement-class probabilities toward
    uniformity.
    """
    _check_one_hot(y_onehot, probs.shape[1])
    n, k = probs.shape
    if k < 2:
        raise ValueError("complement objective needs at least 2 classes")
    comp_mask = 1.0 - y_onehot
    p_g = (probs * y_onehot).sum(axis=1, keepdims=True)
    s = 1.0 - p_g
    log_ratio = clamped_log(probs) - clamped_log(s)
    scale = 1.0 / (n * (k - 1))
    value = float((comp_mask * probs * log_ratio).sum() * scale)
    # dl/dp_c = log(p_c/S) on complement entries, 0 on the true class
    # (parameterizing S as the complement mass; equivalent through softmax)
    dprobs = comp_mask * log_ratio * scale
    return value, softmax_vjp(probs, dprobs)


def train_source(encoder: Encoder, prototypes: PrototypeMatrix, source: Dataset,
                 cfg: SourcePhaseConfig, log_path=None) -> list[SourceEpochMetrics]:
    """Jointly train the encoder and prototypes, then freeze the prototypes.

    Deterministic for a given seed. The classifier layer steps with ten
    times the encoder learning rate; the schedule decays per epoch.
    """
    if source.role != "source" or source.labels is None:
        raise ConfigError("train_source requires a labeled source dataset")
    if prototypes.frozen:
        raise ConfigError("prototypes are already frozen")
    k_s = prototypes.k_s
    y_all = one_hot(source.labels, k_s)
    rng = np.random.default_rng(cfg.seed)

    enc_params = encoder.params()
    enc_vel = [np.zeros_like(p) for p in enc_params]
    proto_vel = np.zeros_like(prototypes.weights)

    if log_path is not None:
        csvlog.start(log_path, SOURCE_LOG_HEADER)
    history: list[SourceEpochMetrics] = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.lr0)
        ce_sum = comp_sum = 0.0
        for idx in epoch_batches(source, cfg.batch_size, rng):
            enc_out = encoder.forward(source.features[idx])
            out = classify(prototypes.weights, enc_out.z_l2)
            ce_val, d_ce = loss_ce(out.probs, y_all[idx])
            comp_val, d_comp = loss_comp(out.probs, y_all[idx])
            total = ce_val + cfg.eta * comp_val
            if not np.isfinite(total):
                raise NumericError(f"source training diverged at epoch {epoch}")
            dlogits = d_ce if cfg.eta == 0.0 else d_ce + cfg.eta * d_comp
            d_proto, dz_l2 = classify_backward(prototypes.weights, enc_out.z_l2, dlogits)
            grads = encoder.backward(enc_out.ctx, dz_l2=dz_l2)
            apply_sgd_momentum(enc_params, grads.as_list(), enc_vel, lr, MOMENTUM)
            prototypes.step(d_proto, proto_vel, CLASSIFIER_LR_FACTOR * lr, MOMENTUM)
            ce_sum += ce_val * len(idx)
            comp_sum += comp_val * len(idx)
        acc = _source_accuracy(encoder, prototypes, source)
        row = SourceEpochMetrics(epoch, ce_sum / source.n, comp_sum / source.n,
                                 acc, lr)
        history.append(row)
        if log_path is not None:
            csvlog.append(log_path, _log_row(row))
    prototypes.frozen = True
    return history


def _source_accuracy(encoder: Encoder, prototypes: PrototypeMatrix,
                     source: Dataset) -> float:
    out = classify(prototypes.weights, encoder.forward(source.features).z_l2)
    return float((out.logits.argmax(axis=1) == source.labels).mean())


SOURCE_LOG_HEADER = ["epoch", "loss_ce", "loss_comp", "source_acc", "lr"]


def _log_row(row: SourceEpochMetrics) -> list:
    return [row.epoch, repr(row.loss_ce), repr(row.loss_comp),
            repr(row.source_acc), repr(row.lr)]

