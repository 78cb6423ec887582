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

from .errors import DegenerateVectorError, NumericError

LOG_EPS = 1e-12
NORM_EPS = 1e-12

logger = logging.getLogger(__name__)


def clamped_log(x: np.ndarray) -> np.ndarray:
    """log with the argument floored at LOG_EPS."""
    return np.log(np.maximum(x, LOG_EPS))


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-invariant stable softmax along ``axis``.

    The row maximum is subtracted before exponentiation, so adding a
    constant to every logit leaves the output exactly unchanged.
    """
    a = np.asarray(logits, dtype=float)
    if a.size == 0:
        raise ValueError("softmax of an empty array")
    if not np.all(np.isfinite(a)):
        raise ValueError("softmax input contains non-finite values")
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_vjp(probs: np.ndarray, dprobs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the logits.

    For p = softmax(a):  dL/da = p * (dL/dp - <dL/dp, p>).
    """
    inner = (dprobs * probs).sum(axis=axis, keepdims=True)
    return probs * (dprobs - inner)


def l2_normalize_rows(m: np.ndarray, eps: float = NORM_EPS) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise unit vectors plus the guarded norms used as divisors."""
    m = np.asarray(m, dtype=float)
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms < eps):
        logger.warning("l2_normalize_rows: %d degenerate row(s)", int((norms < eps).sum()))
    guarded = np.maximum(norms, eps)
    return m / guarded[:, None], guarded


def l2_normalize_backward(z: np.ndarray, z_unit: np.ndarray, norms: np.ndarray,
                          d_unit: np.ndarray, eps: float = NORM_EPS) -> np.ndarray:
    """Exact Jacobian (I - u u^T)/||z|| of row-wise normalization, applied
    to an upstream gradient. Rows below the eps guard scale by 1/eps only
    (the guarded map is linear there)."""
    raw = np.linalg.norm(z, axis=1)
    inner = (z_unit * d_unit).sum(axis=1, keepdims=True)
    projected = (d_unit - inner * z_unit) / norms[:, None]
    linear = d_unit / eps
    return np.where((raw >= eps)[:, None], projected, linear)


def entropy(p: np.ndarray, base: str = "natural") -> float | np.ndarray:
    """Shannon entropy -sum p log p with 0*log(0) := 0.

    ``base`` is "natural" or "two"; 2-D input returns one entropy per row.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-9) or np.any(p > 1 + 1e-9):
        raise ValueError("probabilities outside [0, 1]")
    sums = p.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise ValueError("probabilities do not sum to 1")
    h = -(p * clamped_log(p)).sum(axis=-1)
    if base == "two":
        h = h / math.log(2.0)
    elif base != "natural":
        raise ValueError(f"unknown entropy base {base!r}")
    return float(h) if h.ndim == 0 else h


def cosine_distance(a: np.ndarray, b: np.ndarray, eps: float = NORM_EPS) -> float:
    """1 - a.b / (||a|| ||b||), clipped to [0, 2]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("cosine_distance: shape mismatch")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < eps or nb < eps:
        raise DegenerateVectorError("cosine_distance: near-zero norm")
    return float(np.clip(1.0 - float(a @ b) / (na * nb), 0.0, 2.0))


def finite_diff_grad(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient (f(t+h e_i) - f(t-h e_i)) / (2h).

    The verification oracle for every analytic gradient in the package;
    it must stay independent of any backprop code path.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + h
        f_plus = float(f(bumped))
        bumped[i] = theta[i] - h
        f_minus = float(f(bumped))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericError(f"finite_diff_grad: non-finite f at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    """Dense one-hot rows for integer class labels in [0, k)."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label index outside [0, {k})")
    out = np.zeros((labels.size, k), dtype=float)
    out[np.arange(labels.size), labels] = 1.0
    return out
