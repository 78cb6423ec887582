"""Finite-difference verification of every analytic loss gradient.

Each check builds a small random instance, evaluates the loss through
the same code paths training uses, and compares against the central
difference oracle from :mod:`protoadapt.numerics`. Terms specified as
constants for backpropagation (older history entries, other ensemble
members' contributions, the frozen prototypes) are frozen as data inside
the differentiated function, so the comparison checks exactly the
gradient the optimizer applies.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .adaptation import (gen_complement_sets, loss_align, loss_inter,
                         loss_intra, nl_base_consts, nl_loss_terms)
from .model import Encoder, PrototypeMatrix, classify, classify_backward
from .numerics import finite_diff_grad, one_hot
from .source_trainer import loss_ce, loss_comp

D_X, HIDDEN, D_Z, K_S, BATCH = 6, [8], 4, 5, 8
NL_MEMBERS, NL_SET_SIZE, NL_HISTORY = 2, 2, 3
TOLERANCE = 1e-4
_ERR_FLOOR = 1e-4  # below this magnitude, compare absolutely at 1e-8


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _ERR_FLOOR)
    return float((np.abs(analytic - numeric) / scale).max())


def _instance(seed: int):
    rng = np.random.default_rng(seed)
    encoder = Encoder(D_X, HIDDEN, D_Z, "tanh", seed=seed)
    protos = PrototypeMatrix.random(D_Z, K_S, seed=seed + 10_000)
    x = rng.standard_normal((BATCH, D_X))
    labels = rng.integers(0, K_S, size=BATCH)
    return rng, encoder, protos, x, labels


def _with_flat(encoder: Encoder, flat: np.ndarray) -> Encoder:
    clone = encoder.copy()
    clone.set_flat(flat)
    return clone


def _check_classifier_loss(seed: int, loss_fn) -> float:
    """Losses of the form loss(softmax(z_l2 @ W), y): gradient w.r.t. both
    the encoder parameters and the classifier weights."""
    _, encoder, protos, x, labels = _instance(seed)
    y = one_hot(labels, K_S)
    n_enc = encoder.get_flat().size

    def value(theta):
        enc = _with_flat(encoder, theta[:n_enc])
        w = theta[n_enc:].reshape(D_Z, K_S)
        out = classify(w, enc.forward(x).z_l2)
        return loss_fn(out.probs, y)[0]

    fwd = encoder.forward(x)
    out = classify(protos.weights, fwd.z_l2)
    _, dlogits = loss_fn(out.probs, y)
    d_w, dz_l2 = classify_backward(protos.weights, fwd.z_l2, dlogits)
    analytic = np.concatenate([encoder.backward(fwd.ctx, dz_l2=dz_l2).flat(),
                               d_w.ravel()])
    theta0 = np.concatenate([encoder.get_flat(), protos.weights.ravel()])
    return max_rel_err(analytic, finite_diff_grad(value, theta0))


def check_loss_align(seed: int) -> float:
    """Entropy alignment trains the encoder only; the prototypes are data."""
    _, encoder, protos, x, _ = _instance(seed)

    def value(theta):
        out = classify(protos.weights, _with_flat(encoder, theta).forward(x).z_l2)
        return loss_align(out.probs)[0]

    fwd = encoder.forward(x)
    out = classify(protos.weights, fwd.z_l2)
    _, dlogits = loss_align(out.probs)
    _, dz_l2 = classify_backward(protos.weights, fwd.z_l2, dlogits)
    analytic = encoder.backward(fwd.ctx, dz_l2=dz_l2).flat()
    return max_rel_err(analytic, finite_diff_grad(value, encoder.get_flat()))


def check_loss_nl(seed: int) -> float:
    """Negative learning: each member's constant logit terms are frozen at
    the evaluation point, matching their backprop treatment."""
    rng, encoder, protos, x, labels = _instance(seed)
    weights0 = [protos.weights + 0.1 * rng.standard_normal((D_Z, K_S))
                for _ in range(NL_MEMBERS)]
    hist_base = rng.standard_normal((BATCH, K_S))  # summed older entries
    masks = np.zeros((BATCH, NL_MEMBERS, K_S), dtype=bool)
    for j in range(BATCH):
        for m, cl in enumerate(gen_complement_sets(int(labels[j]), K_S,
                                                   NL_MEMBERS, NL_SET_SIZE, rng)):
            masks[j, m, cl] = True

    fwd = encoder.forward(x)
    bases0, scale = nl_base_consts(fwd.z_l2, weights0, hist_base, NL_HISTORY)
    n_enc = encoder.get_flat().size
    w_size = D_Z * K_S

    def value(theta):
        enc = _with_flat(encoder, theta[:n_enc])
        ws = [theta[n_enc + m * w_size: n_enc + (m + 1) * w_size].reshape(D_Z, K_S)
              for m in range(NL_MEMBERS)]
        return nl_loss_terms(enc.forward(x).z_l2, ws, bases0, scale,
                             masks, NL_SET_SIZE)[0]

    _, dz_l2, d_ws = nl_loss_terms(fwd.z_l2, weights0, bases0, scale,
                                   masks, NL_SET_SIZE)
    analytic = np.concatenate([encoder.backward(fwd.ctx, dz_l2=dz_l2).flat()]
                              + [g.ravel() for g in d_ws])
    theta0 = np.concatenate([encoder.get_flat()] + [w.ravel() for w in weights0])
    return max_rel_err(analytic, finite_diff_grad(value, theta0))


def _check_geometry_loss(seed: int, loss_fn) -> float:
    rng, encoder, protos, x, _ = _instance(seed)
    y = rng.integers(0, K_S, size=BATCH)

    def value(theta):
        return loss_fn(_with_flat(encoder, theta).forward(x).z, y, protos.weights)[0]

    fwd = encoder.forward(x)
    _, dz = loss_fn(fwd.z, y, protos.weights)
    analytic = encoder.backward(fwd.ctx, dz=dz).flat()
    return max_rel_err(analytic, finite_diff_grad(value, encoder.get_flat()))


CHECKS = {
    "loss_ce": partial(_check_classifier_loss, loss_fn=loss_ce),
    "loss_comp": partial(_check_classifier_loss, loss_fn=loss_comp),
    "loss_align": check_loss_align,
    "loss_nl": check_loss_nl,
    "loss_inter": partial(_check_geometry_loss, loss_fn=loss_inter),
    "loss_intra": partial(_check_geometry_loss, loss_fn=loss_intra),
}


def run_suite(seed: int = 0, n_seeds: int = 20) -> dict[str, float]:
    """Max relative error per loss over ``n_seeds`` random instances."""
    return {name: max(check(seed + i) for i in range(n_seeds))
            for name, check in CHECKS.items()}
