"""Finite-difference verification of every analytic loss gradient and of the
batch objectives that compose them: ``loss_source``, ``adapt_step`` per phase.

Each check builds a small random instance, takes the analytic gradient
from the loss or step called as training calls it, and compares against the
central difference oracle from :mod:`protoadapt.numerics`. Terms specified as
constants for backpropagation (older history entries, other ensemble
members' contributions, the frozen prototypes) are frozen as data inside
the differentiated function, so the comparison checks exactly the
gradient the optimizer applies.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .adaptation import (AdaptConfig, adapt_step, gen_complement_sets, loss_align,
                         loss_geometry, loss_nl)
from .model import Encoder, PrototypeMatrix, classify, classify_backward
from .numerics import clamped_log, finite_diff_grad, l2_normalize_rows, softmax
from .source_trainer import loss_ce, loss_comp, loss_source

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


def _check_joint(encoder: Encoder, x: np.ndarray, dz_l2: np.ndarray,
                 weights: np.ndarray, d_weights: np.ndarray, objective) -> float:
    """Max relative error of ``Encoder.backward`` of ``dz_l2`` at ``x``, and
    of ``d_weights``, against central differences of ``objective(z_l2,
    weights)`` over the encoder parameters and ``weights``."""
    n_enc = encoder.theta.size

    def value(theta):
        clone = encoder.copy()
        clone.theta[...] = theta[:n_enc]
        return objective(clone.forward(x).z_l2, theta[n_enc:].reshape(weights.shape))

    analytic = np.concatenate([encoder.backward(encoder.forward(x).ctx, dz_l2=dz_l2),
                               d_weights.ravel()])
    theta0 = np.concatenate([encoder.theta, weights.ravel()])
    return max_rel_err(analytic, finite_diff_grad(value, theta0))


def _check_classifier_loss(seed: int, loss_fn) -> float:
    """Losses of the form loss(softmax(z_l2 @ W), y): gradient w.r.t. both
    the encoder parameters and the classifier weights."""
    _, encoder, protos, x, labels = _instance(seed)
    z_l2 = encoder.forward(x).z_l2
    dlogits = loss_fn(classify(protos.weights, z_l2), labels)[1]
    d_w, dz_l2 = classify_backward(protos.weights, z_l2, dlogits)
    return _check_joint(encoder, x, dz_l2, protos.weights, d_w,
                        lambda z, w: loss_fn(classify(w, z), labels)[0])


def _nl_instance(seed: int):
    """``_instance`` plus an NL ensemble, summed older history and masks."""
    rng, encoder, protos, x, labels = _instance(seed)
    weights0 = protos.weights + 0.1 * rng.standard_normal((NL_MEMBERS, D_Z, K_S))
    hist_base = rng.standard_normal((BATCH, K_S))  # summed older entries
    masks = gen_complement_sets(labels, K_S, NL_MEMBERS, NL_SET_SIZE, rng)
    return rng, encoder, protos, x, labels, weights0, hist_base, masks


def _nl_objective(z0: np.ndarray, weights0: np.ndarray, hist_base: np.ndarray,
                  masks: np.ndarray):
    """The NL value as a function of (z_l2, weights) with ``adapt``'s constants:
    each member's logits frozen at (``z0``, ``weights0``) less its own live
    term, which is recomputed; the masked -(1-p) log(1-p) sum follows."""
    scale = 1.0 / (NL_MEMBERS * NL_HISTORY)
    live0 = z0 @ weights0
    frozen = (hist_base + live0.sum(axis=0) / NL_MEMBERS) / NL_HISTORY - scale * live0
    member_masks = np.moveaxis(masks, 1, 0)

    def value(z_l2, ws):
        p = softmax(frozen + scale * (z_l2 @ ws))
        phi = -(1.0 - p) * clamped_log(1.0 - p)
        return phi[member_masks].sum() / (BATCH * NL_SET_SIZE * NL_MEMBERS)
    return value


def check_loss_nl(seed: int) -> float:
    """Negative learning, with the analytic gradient from ``loss_nl`` called
    as ``adapt_step`` calls it, against ``_nl_objective``."""
    _, encoder, _, x, _, weights0, hist_base, masks = _nl_instance(seed)
    z_l2 = encoder.forward(x).z_l2
    _, dz_l2, d_ws = loss_nl(z_l2, weights0, hist_base, NL_HISTORY, masks, NL_SET_SIZE)
    return _check_joint(encoder, x, dz_l2, weights0, d_ws,
                        _nl_objective(z_l2, weights0, hist_base, masks))


def check_adapt_step(seed: int, phase: str) -> float:
    """``adapt_step`` in ``phase``: ``Encoder.backward`` of its ``dz_l2`` and
    its ensemble gradient, scattered into the whole ensemble, against the
    whole batch objective. That is alignment, plus ``_nl_objective`` ("nl")
    or CE through member 0 on the confident rows ("ce"), plus, past warmup,
    alpha*inter + beta*intra on the confident rows, half the batch."""
    rng, encoder, protos, x, labels, weights0, hist_base, masks = _nl_instance(seed)
    confident = rng.permutation(BATCH) < BATCH // 2
    sel = np.flatnonzero(confident)
    cfg = AdaptConfig(n_e=NL_MEMBERS, n_cl=NL_SET_SIZE)
    v_unit = l2_normalize_rows(protos.weights.T)[0]
    z0 = encoder.forward(x).z_l2
    dz_l2, ens_grad, members, _ = adapt_step(phase, z0, labels, confident, protos.weights,
                                              v_unit, weights0, cfg,
                                              (hist_base, NL_HISTORY, masks))
    d_ens = np.zeros_like(weights0)
    if ens_grad is not None:
        d_ens[members] = ens_grad
    nl_value = _nl_objective(z0, weights0, hist_base, masks)

    def objective(z_l2, ws):
        value = loss_align(classify(protos.weights, z_l2))[0]
        if phase == "nl":
            value += nl_value(z_l2, ws)
        if phase == "ce":
            value += loss_ce(classify(ws[0], z_l2[sel]), labels[sel])[0]
        if phase != "warmup":
            (inter, _), (intra, _) = loss_geometry(z_l2[sel], labels[sel], v_unit)
            value += cfg.alpha * inter + cfg.beta * intra
        return value
    return _check_joint(encoder, x, dz_l2, weights0, d_ens, objective)


def _check_geometry_loss(seed: int, term: int) -> float:
    """``loss_geometry``'s inter (``term`` 0) or intra (1) term, called as
    ``adapt_step`` calls it, over the encoder parameters."""
    rng, encoder, protos, x, _ = _instance(seed)
    y = rng.integers(0, K_S, size=BATCH)
    v_unit = l2_normalize_rows(protos.weights.T)[0]
    _, dz_l2 = loss_geometry(encoder.forward(x).z_l2, y, v_unit)[term]
    return _check_joint(encoder, x, dz_l2, np.empty(0), np.empty(0),
                        lambda z, _: loss_geometry(z, y, v_unit)[term][0])


def check_loss_source(seed: int) -> float:
    """``loss_source`` as ``train_source`` calls it, at an eta other than 1
    so that a dropped factor shows."""
    return _check_classifier_loss(seed, partial(loss_source, eta=1.5))


CHECKS = {
    "loss_ce": partial(_check_classifier_loss, loss_fn=loss_ce),
    "loss_comp": partial(_check_classifier_loss, loss_fn=loss_comp),
    "loss_source": check_loss_source,
    "loss_align": partial(check_adapt_step, phase="warmup"),
    "loss_nl": check_loss_nl,
    "loss_inter": partial(_check_geometry_loss, term=0),
    "loss_intra": partial(_check_geometry_loss, term=1),
    "adapt_step_nl": partial(check_adapt_step, phase="nl"),
    "adapt_step_ce": partial(check_adapt_step, phase="ce"),
}


def run_suite(seed: int = 0) -> dict[str, float]:
    """Max relative error per loss over ``N_SEEDS`` random instances."""
    return {name: max(check(seed + i) for i in range(N_SEEDS))
            for name, check in CHECKS.items()}
