"""Finite-difference verification of every analytic loss gradient.

Each check builds a small random instance, takes the analytic gradient
from the loss called as training calls it, and compares against the
central difference oracle from :mod:`protoadapt.numerics`. Terms specified as
constants for backpropagation (older history entries, other ensemble
members' contributions, the frozen prototypes) are frozen as data inside
the differentiated function, so the comparison checks exactly the
gradient the optimizer applies.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .adaptation import (gen_complement_sets, loss_align, loss_inter,
                         loss_intra, loss_nl)
from .model import Encoder, PrototypeMatrix, classify, classify_backward
from .numerics import clamped_log, finite_diff_grad, softmax
from .source_trainer import loss_ce, loss_comp

D_X, HIDDEN, D_Z, K_S, BATCH = 6, [8], 4, 5, 8
NL_MEMBERS, NL_SET_SIZE, NL_HISTORY = 2, 2, 3
TOLERANCE = 1e-4
N_SEEDS = 20
_ERR_FLOOR = 1e-4  # below this magnitude, compare absolutely at 1e-8


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _ERR_FLOOR)
    return float((np.abs(analytic - numeric) / scale).max())


def _instance(seed: int):
    rng = np.random.default_rng(seed)
    encoder = Encoder(D_X, HIDDEN, D_Z, seed=seed)
    protos = PrototypeMatrix.random(D_Z, K_S, seed=seed + 10_000)
    x = rng.standard_normal((BATCH, D_X))
    labels = rng.integers(0, K_S, size=BATCH)
    return rng, encoder, protos, x, labels


def _with_theta(encoder: Encoder, theta: np.ndarray) -> Encoder:
    clone = encoder.copy()
    clone.theta[...] = theta
    return clone


def _check_classifier_loss(seed: int, loss_fn) -> float:
    """Losses of the form loss(softmax(z_l2 @ W), y): gradient w.r.t. both
    the encoder parameters and the classifier weights."""
    _, encoder, protos, x, labels = _instance(seed)
    n_enc = encoder.theta.size

    def value(theta):
        enc = _with_theta(encoder, theta[:n_enc])
        w = theta[n_enc:].reshape(D_Z, K_S)
        return loss_fn(classify(w, enc.forward(x).z_l2), labels)[0]

    fwd = encoder.forward(x)
    _, dlogits = loss_fn(classify(protos.weights, fwd.z_l2), labels)
    d_w, dz_l2 = classify_backward(protos.weights, fwd.z_l2, dlogits)
    analytic = np.concatenate([encoder.backward(fwd.ctx, dz_l2=dz_l2), d_w.ravel()])
    theta0 = np.concatenate([encoder.theta, protos.weights.ravel()])
    return max_rel_err(analytic, finite_diff_grad(value, theta0))


def check_loss_align(seed: int) -> float:
    """Entropy alignment trains the encoder only; the prototypes are data."""
    _, encoder, protos, x, _ = _instance(seed)

    def value(theta):
        probs = classify(protos.weights, _with_theta(encoder, theta).forward(x).z_l2)
        return loss_align(probs)[0]

    fwd = encoder.forward(x)
    _, dlogits = loss_align(classify(protos.weights, fwd.z_l2))
    _, dz_l2 = classify_backward(protos.weights, fwd.z_l2, dlogits)
    analytic = encoder.backward(fwd.ctx, dz_l2=dz_l2)
    return max_rel_err(analytic, finite_diff_grad(value, encoder.theta))


def check_loss_nl(seed: int) -> float:
    """Negative learning, with the analytic gradient from ``loss_nl`` called
    as ``adapt`` calls it. The oracle freezes each member's logits at the
    evaluation point, less its own live term, which it recomputes from the
    perturbed parameters; the masked -(1-p) log(1-p) sum follows."""
    rng, encoder, protos, x, labels = _instance(seed)
    weights0 = protos.weights + 0.1 * rng.standard_normal((NL_MEMBERS, D_Z, K_S))
    hist_base = rng.standard_normal((BATCH, K_S))  # summed older entries
    masks = gen_complement_sets(labels, K_S, NL_MEMBERS, NL_SET_SIZE, rng)

    fwd = encoder.forward(x)
    _, dz_l2, d_ws = loss_nl(fwd.z_l2, weights0, hist_base, NL_HISTORY, masks, NL_SET_SIZE)
    scale = 1.0 / (NL_MEMBERS * NL_HISTORY)
    live0 = fwd.z_l2 @ weights0
    frozen = (hist_base + live0.sum(axis=0) / NL_MEMBERS) / NL_HISTORY - scale * live0
    member_masks = np.moveaxis(masks, 1, 0)
    n_enc = encoder.theta.size

    def value(theta):
        ws = theta[n_enc:].reshape(NL_MEMBERS, D_Z, K_S)
        p = softmax(frozen + scale * (_with_theta(encoder, theta[:n_enc]).forward(x).z_l2 @ ws))
        phi = -(1.0 - p) * clamped_log(1.0 - p)
        return phi[member_masks].sum() / (BATCH * NL_SET_SIZE * NL_MEMBERS)

    analytic = np.concatenate([encoder.backward(fwd.ctx, dz_l2=dz_l2), d_ws.ravel()])
    theta0 = np.concatenate([encoder.theta, weights0.ravel()])
    return max_rel_err(analytic, finite_diff_grad(value, theta0))


def _check_geometry_loss(seed: int, loss_fn) -> float:
    rng, encoder, protos, x, _ = _instance(seed)
    y = rng.integers(0, K_S, size=BATCH)

    def value(theta):
        return loss_fn(_with_theta(encoder, theta).forward(x).z_l2, y, protos.weights)[0]

    fwd = encoder.forward(x)
    _, dz_l2 = loss_fn(fwd.z_l2, y, protos.weights)
    analytic = encoder.backward(fwd.ctx, dz_l2=dz_l2)
    return max_rel_err(analytic, finite_diff_grad(value, encoder.theta))


CHECKS = {
    "loss_ce": partial(_check_classifier_loss, loss_fn=loss_ce),
    "loss_comp": partial(_check_classifier_loss, loss_fn=loss_comp),
    "loss_align": check_loss_align,
    "loss_nl": check_loss_nl,
    "loss_inter": partial(_check_geometry_loss, loss_fn=loss_inter),
    "loss_intra": partial(_check_geometry_loss, loss_fn=loss_intra),
}


def run_suite(seed: int = 0) -> dict[str, float]:
    """Max relative error per loss over ``N_SEEDS`` random instances."""
    return {name: max(check(seed + i) for i in range(N_SEEDS))
            for name, check in CHECKS.items()}
