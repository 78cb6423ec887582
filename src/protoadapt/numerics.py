"""Deterministic scalar/vector primitives shared by every loss.

All functions here are pure: no shared mutable state, safe to call
concurrently. Probability logarithms are clamped at ``LOG_EPS`` before
the log so that one-hot distributions (which several losses reach at
convergence) never produce -inf.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import NumericError

LOG_EPS = 1e-12
NORM_EPS = 1e-12
FD_STEP = 1e-5

logger = logging.getLogger(__name__)


def clamped_log(x: np.ndarray) -> np.ndarray:
    """log with the argument floored at LOG_EPS."""
    return np.log(np.maximum(x, LOG_EPS))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Shift-invariant stable softmax along the last axis.

    The row maximum is subtracted before exponentiation, so adding a
    constant to every logit leaves the output exactly unchanged.
    """
    a = np.asarray(logits, dtype=float)
    if a.size == 0:
        raise ValueError("softmax of an empty array")
    if not np.all(np.isfinite(a)):
        raise ValueError("softmax input contains non-finite values")
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the logits.

    For p = softmax(a):  dL/da = p * (dL/dp - <dL/dp, p>).
    """
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def l2_normalize_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise unit vectors plus the norms, floored at NORM_EPS, used as divisors."""
    m = np.asarray(m, dtype=float)
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms < NORM_EPS):
        logger.warning("l2_normalize_rows: %d degenerate row(s)", int((norms < NORM_EPS).sum()))
    guarded = np.maximum(norms, NORM_EPS)
    return m / guarded[:, None], guarded


def l2_normalize_backward(z: np.ndarray, z_unit: np.ndarray, norms: np.ndarray,
                          d_unit: np.ndarray) -> np.ndarray:
    """Exact Jacobian (I - u u^T)/||z|| of row-wise normalization, applied
    to an upstream gradient. Rows below the NORM_EPS guard scale by
    1/NORM_EPS only (the guarded map is linear there)."""
    raw = np.linalg.norm(z, axis=1)
    inner = (z_unit * d_unit).sum(axis=1, keepdims=True)
    projected = (d_unit - inner * z_unit) / norms[:, None]
    linear = d_unit / NORM_EPS
    return np.where((raw >= NORM_EPS)[:, None], projected, linear)


def entropy(p: np.ndarray) -> float | np.ndarray:
    """Shannon entropy -sum p log p in nats, with 0*log(0) := 0.

    2-D input returns one entropy per row.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-9) or np.any(p > 1 + 1e-9):
        raise ValueError("probabilities outside [0, 1]")
    sums = p.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise ValueError("probabilities do not sum to 1")
    h = -(p * clamped_log(p)).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def finite_diff_grad(f, theta: np.ndarray) -> np.ndarray:
    """Central-difference gradient (f(t+h e_i) - f(t-h e_i)) / (2h), h = FD_STEP.

    The verification oracle for every analytic gradient in the package;
    it must stay independent of any backprop code path.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + FD_STEP
        f_plus = float(f(bumped))
        bumped[i] = theta[i] - FD_STEP
        f_minus = float(f(bumped))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericError(f"finite_diff_grad: non-finite f at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    return grad


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    """Dense one-hot rows for integer class labels in [0, k)."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label index outside [0, {k})")
    out = np.zeros((labels.size, k), dtype=float)
    out[np.arange(labels.size), labels] = 1.0
    return out
