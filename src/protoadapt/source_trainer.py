"""Phase 1: learn the encoder and source prototypes on labeled data.

The objective couples categorical cross-entropy with a complement term
that spreads the probability mass left over from the ground-truth class
uniformly across the remaining classes. Both losses are computed per
mini-batch, with the batch size standing in for the dataset size in the
normalizing denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import csvlog
from .datasets import Dataset, epoch_batches
from .errors import ConfigError, NumericError
from .model import (Encoder, PrototypeMatrix, apply_sgd_momentum, classify,
                    classify_backward, lr_schedule, predict)
from .numerics import clamped_log, one_hot, softmax_vjp

CLASSIFIER_LR_FACTOR = 10.0


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
        if min(self.epochs, self.seed) < 0:
            raise ConfigError(f"epochs and seed must be >= 0, got {self.epochs}, {self.seed}")
        if self.batch_size < 1 or self.lr0 <= 0:
            raise ConfigError("batch_size must be >= 1 and lr0 > 0")


@dataclass
class SourceEpochMetrics:
    epoch: int
    loss_ce: float
    loss_comp: float
    source_acc: float
    lr: float


def loss_ce(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of integer class labels in [0, K) and its gradient
    w.r.t. the logits, (p - y)/n with y the one-hot rows of ``labels``."""
    n, k = probs.shape
    if np.shape(labels) != (n,):
        raise ValueError(f"need one label per row of probs: {np.shape(labels)} for {n} rows")
    y = one_hot(labels, k)
    value = float(-(y * clamped_log(probs)).sum() / n)
    return value, (probs - y) / n


def loss_comp(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Complement objective: weighted negative entropy of the probability
    mass renormalized over the classes other than the integer label.

    Per sample, with g the true class and S = 1 - p_g:
        l = (1 - p_g) * sum_{c != g} (p_c/S) log(p_c/S)
    averaged with a 1/(n (K-1)) denominator. The value is always <= 0 and
    minimizing it pushes the complement-class probabilities toward
    uniformity.
    """
    n, k = probs.shape
    if k < 2:
        raise ValueError("complement objective needs at least 2 classes")
    if np.shape(labels) != (n,):
        raise ValueError(f"need one label per row of probs: {np.shape(labels)} for {n} rows")
    y = one_hot(labels, k)
    comp_mask = 1.0 - y
    p_g = (probs * y).sum(axis=1, keepdims=True)
    s = 1.0 - p_g
    log_ratio = clamped_log(probs) - clamped_log(s)
    scale = 1.0 / (n * (k - 1))
    value = float((comp_mask * probs * log_ratio).sum() * scale)
    # dl/dp_c = log(p_c/S) on complement entries, 0 on the true class
    # (parameterizing S as the complement mass; equivalent through softmax)
    dprobs = comp_mask * log_ratio * scale
    return value, softmax_vjp(probs, dprobs)


def loss_source(probs: np.ndarray, labels: np.ndarray,
                eta: float) -> tuple[float, np.ndarray, tuple[float, float]]:
    """The source batch objective ``loss_ce + eta * loss_comp``: its value,
    its gradient w.r.t. the logits and the two term values."""
    ce_val, d_ce = loss_ce(probs, labels)
    comp_val, d_comp = loss_comp(probs, labels)
    return ce_val + eta * comp_val, d_ce + eta * d_comp, (ce_val, comp_val)


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
    rng = np.random.default_rng(cfg.seed)

    enc_vel = np.zeros_like(encoder.theta)
    proto_vel = np.zeros_like(prototypes.weights)

    if log_path is not None:
        csvlog.start(log_path, SOURCE_LOG_HEADER)
    history: list[SourceEpochMetrics] = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.lr0)
        ce_sum = comp_sum = 0.0
        for idx in epoch_batches(source, cfg.batch_size, rng):
            enc_out = encoder.forward(source.features[idx])
            probs, labels = classify(prototypes.weights, enc_out.z_l2), source.labels[idx]
            total, dlogits, (ce_val, comp_val) = loss_source(probs, labels, cfg.eta)
            if not math.isfinite(total):
                raise NumericError(f"source training diverged at epoch {epoch}")
            d_proto, dz_l2 = classify_backward(prototypes.weights, enc_out.z_l2, dlogits)
            apply_sgd_momentum(encoder.theta, encoder.backward(enc_out.ctx, dz_l2=dz_l2),
                               enc_vel, lr)
            apply_sgd_momentum(prototypes.weights, d_proto, proto_vel, CLASSIFIER_LR_FACTOR * lr)
            ce_sum += ce_val * len(idx)
            comp_sum += comp_val * len(idx)
        preds = predict(prototypes.weights, encoder.encode(source.features))
        row = SourceEpochMetrics(epoch, ce_sum / source.n, comp_sum / source.n,
                                 float((preds == source.labels).mean()), lr)
        history.append(row)
        if log_path is not None:
            csvlog.append(log_path, row)
    prototypes.frozen = True
    return history


SOURCE_LOG_HEADER = ["epoch", "loss_ce", "loss_comp", "source_acc", "lr"]

