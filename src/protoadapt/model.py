"""Feature encoder and zero-bias linear classifiers with exact gradients.

The encoder is a small MLP with hand-written backpropagation; the
classifiers are weight matrices whose columns act as class prototypes.
Gradients through the l2 normalization use the exact Jacobian
(I - u u^T)/||z||, since the normalization sits inside every loss path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError
from .numerics import (l2_normalize_backward, l2_normalize_rows,
                       softmax)

CHECKPOINT_HEADER = "#pda-checkpoint v1"

_ACTIVATIONS = {
    # forward, derivative expressed in terms of the activation output
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "identity": (lambda x: x, lambda y: np.ones_like(y)),
}


@dataclass
class EncodeResult:
    """Raw codes, unit codes, and the context needed to backpropagate."""
    z: np.ndarray
    z_l2: np.ndarray
    ctx: tuple


@dataclass
class EncoderGradients:
    """Per-parameter gradient arrays mirroring the encoder's shapes."""
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def as_list(self) -> list[np.ndarray]:
        """Gradients interleaved in the same order as Encoder.params()."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def flat(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in self.as_list()])


class Encoder:
    """MLP d_x -> hidden... -> d_z with a smooth nonlinearity on hidden
    layers and a linear output layer.

    Weights initialize uniformly in +/- sqrt(6/(fan_in+fan_out)) from the
    given seed; the architecture is immutable after construction.
    """

    def __init__(self, d_x: int, hidden: list[int], d_z: int,
                 activation: str = "tanh", seed: int = 0):
        if activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        if d_x < 1 or d_z < 1 or any(h < 1 for h in hidden):
            raise ConfigError("all layer widths must be >= 1")
        self.d_x = d_x
        self.hidden = list(hidden)
        self.d_z = d_z
        self.activation = activation
        self.seed = seed
        rng = np.random.default_rng(seed)
        sizes = [d_x, *hidden, d_z]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> EncodeResult:
        """Encode a batch; the returned context suffices to backpropagate
        any downstream gradient through the normalization and the MLP."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.d_x:
            raise ValueError(f"expected input dimension {self.d_x}, got {x.shape[1]}")
        act, _ = _ACTIVATIONS[self.activation]
        inputs = []
        h = x
        for i in range(self.n_layers):
            inputs.append(h)
            h = h @ self.weights[i] + self.biases[i]
            if not np.all(np.isfinite(h)):
                raise NumericError(f"non-finite activation in encoder layer {i}")
            if i < self.n_layers - 1:
                h = act(h)
        z = h
        z_l2, norms = l2_normalize_rows(z)
        return EncodeResult(z, z_l2, (inputs, z, z_l2, norms))

    def backward(self, ctx: tuple, dz: np.ndarray | None = None,
                 dz_l2: np.ndarray | None = None) -> EncoderGradients:
        """Accumulate gradients from the raw-code and unit-code paths."""
        inputs, z, z_l2, norms = ctx
        total = np.zeros_like(z)
        if dz is not None:
            total = total + dz
        if dz_l2 is not None:
            total = total + l2_normalize_backward(z, z_l2, norms, dz_l2)

        _, dact = _ACTIVATIONS[self.activation]
        d_weights = [np.empty(0)] * self.n_layers
        d_biases = [np.empty(0)] * self.n_layers
        upstream = total
        for i in range(self.n_layers - 1, -1, -1):
            d_weights[i] = inputs[i].T @ upstream
            d_biases[i] = upstream.sum(axis=0)
            if i > 0:
                upstream = upstream @ self.weights[i].T
                upstream = upstream * dact(inputs[i])
        return EncoderGradients(d_weights, d_biases)

    # -- parameter plumbing ------------------------------------------------

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params()])

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        pos = 0
        for p in self.params():
            p[...] = flat[pos:pos + p.size].reshape(p.shape)
            pos += p.size
        if pos != flat.size:
            raise ValueError("flat parameter vector has wrong length")

    def copy(self) -> "Encoder":
        clone = Encoder(self.d_x, self.hidden, self.d_z, self.activation, self.seed)
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone


@dataclass
class ClassifierOutput:
    """Logits and their softmax for one batch; probs == softmax(logits)."""
    logits: np.ndarray
    probs: np.ndarray


def classify(weights: np.ndarray, z_l2: np.ndarray) -> ClassifierOutput:
    """Zero-bias linear scores mu_c . z_l2 with a stable softmax."""
    weights = np.asarray(weights, dtype=float)
    z_l2 = np.atleast_2d(np.asarray(z_l2, dtype=float))
    if z_l2.shape[1] != weights.shape[0]:
        raise ValueError(f"code dimension {z_l2.shape[1]} != weight rows {weights.shape[0]}")
    logits = z_l2 @ weights
    return ClassifierOutput(logits, softmax(logits, axis=-1))


def classify_backward(weights: np.ndarray, z_l2: np.ndarray,
                      dlogits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the linear scores: (d_weights, d_z_l2)."""
    return z_l2.T @ dlogits, dlogits @ weights.T


@dataclass
class PrototypeMatrix:
    """Zero-bias classifier weights, one column per source class.

    No bias parameters exist by construction. Once ``frozen`` is set the
    matrix ignores optimizer steps.
    """

    weights: np.ndarray
    frozen: bool = False

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2:
            raise ValueError("prototype matrix must be 2-D (d_z x K_s)")

    @classmethod
    def random(cls, d_z: int, k_s: int, seed: int = 0) -> "PrototypeMatrix":
        rng = np.random.default_rng(seed)
        limit = np.sqrt(6.0 / (d_z + k_s))
        return cls(rng.uniform(-limit, limit, size=(d_z, k_s)))

    @property
    def d_z(self) -> int:
        return self.weights.shape[0]

    @property
    def k_s(self) -> int:
        return self.weights.shape[1]

    def checksum(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.weights).tobytes()).hexdigest()

    def step(self, grad: np.ndarray, velocity: np.ndarray, lr: float,
             momentum: float = 0.9) -> None:
        """Momentum step, short-circuited bitwise when frozen."""
        if self.frozen:
            return
        apply_sgd_momentum([self.weights], [grad], [velocity], lr, momentum)


def apply_sgd_momentum(params: list[np.ndarray], grads: list[np.ndarray],
                       velocity: list[np.ndarray], lr: float,
                       momentum: float = 0.9) -> None:
    """Classical momentum, in place: v <- momentum*v + g; p <- p - lr*v."""
    for p, g, v in zip(params, grads, velocity, strict=True):
        if p.shape != g.shape or p.shape != v.shape:
            raise ValueError("parameter/gradient/velocity shape mismatch")
        v *= momentum
        v += g
        p -= lr * v
        if not np.all(np.isfinite(p)):
            raise NumericError("non-finite parameter after SGD update")


def lr_schedule(n: int, lr0: float, gamma_lr: float = 0.0002,
                alpha_lr: float = 0.75) -> float:
    """lr(n) = lr0 * (1 + gamma_lr*n)^(-alpha_lr); non-increasing in n."""
    if n < 0:
        raise ValueError("epoch index must be >= 0")
    return lr0 * (1.0 + gamma_lr * n) ** (-alpha_lr)


# -- checkpoints -----------------------------------------------------------


def _write_matrix(lines: list[str], m: np.ndarray) -> None:
    """One line per row, each value as ``repr`` of its Python float."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    row_fmt = " ".join(["%r"] * m.shape[1])
    lines.extend([row_fmt % tuple(row) for row in m.tolist()])


def _read_matrix(lines: list[str], pos: int, rows: int, cols: int) -> tuple[np.ndarray, int]:
    data = []
    for r in range(rows):
        values = lines[pos + r].split()
        if len(values) != cols:
            raise DataFormatError(f"checkpoint line {pos + r + 1}: expected {cols} values")
        data.append([float(v) for v in values])
    return np.asarray(data, dtype=float), pos + rows


def save_checkpoint(path, encoder: Encoder, prototypes: PrototypeMatrix,
                    ensemble_weights: np.ndarray | None = None) -> None:
    """Versioned text checkpoint; floats are written with full round-trip
    precision so a reload reproduces forward outputs bit-exactly."""
    hidden = ",".join(str(h) for h in encoder.hidden) or "-"
    lines = [CHECKPOINT_HEADER,
             f"encoder d_x={encoder.d_x} hidden={hidden} d_z={encoder.d_z} "
             f"activation={encoder.activation} seed={encoder.seed}"]
    for i, (w, b) in enumerate(zip(encoder.weights, encoder.biases)):
        lines.append(f"layer {i} {w.shape[0]} {w.shape[1]}")
        _write_matrix(lines, w)
        _write_matrix(lines, b[None, :])
    lines.append(f"prototypes {prototypes.d_z} {prototypes.k_s} frozen={int(prototypes.frozen)}")
    _write_matrix(lines, prototypes.weights)
    if ensemble_weights is not None:
        lines.append(f"ensemble {len(ensemble_weights)}")
        _write_matrix(lines, ensemble_weights.reshape(-1, prototypes.k_s))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[Encoder, PrototypeMatrix, np.ndarray | None]:
    """The encoder, the prototypes and, if the file holds one, the
    (n_e, d_z, K_s) ensemble, which must have n_e >= 1 and end the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != CHECKPOINT_HEADER:
            raise DataFormatError(f"{path}: not a '{CHECKPOINT_HEADER}' file")
        return _parse_checkpoint(path, lines)
    except DataFormatError:
        raise
    except (KeyError, ValueError, IndexError) as exc:
        raise DataFormatError(f"{path}: truncated or malformed checkpoint ({exc!r})") from exc


def _parse_checkpoint(path, lines: list[str]):
    meta = dict(item.split("=", 1) for item in lines[1].split()[1:])
    hidden = [] if meta["hidden"] == "-" else [int(h) for h in meta["hidden"].split(",")]
    d_x, d_z = int(meta["d_x"]), int(meta["d_z"])
    if d_x + sum(hidden) + d_z > len(lines):  # each width is some matrix's row count
        raise DataFormatError(f"{path}: layer widths exceed the file's {len(lines)} lines")
    encoder = Encoder(d_x, hidden, d_z, meta["activation"], int(meta["seed"]))

    pos = 2
    for i in range(encoder.n_layers):
        head = lines[pos].split()
        rows, cols = encoder.weights[i].shape
        if head != ["layer", str(i), str(rows), str(cols)]:
            raise DataFormatError(f"{path}: expected layer {i} {rows} {cols} at line {pos + 1}")
        pos += 1
        encoder.weights[i], pos = _read_matrix(lines, pos, rows, cols)
        bias, pos = _read_matrix(lines, pos, 1, cols)
        encoder.biases[i] = bias[0]

    head = lines[pos].split()
    if len(head) != 4 or head[0] != "prototypes" or head[3] not in ("frozen=0", "frozen=1"):
        raise DataFormatError(f"{path}: line {pos + 1}: expected "
                              "'prototypes <d_z> <k_s> frozen=0|1'")
    d_z, k_s = int(head[1]), int(head[2])
    if d_z != encoder.d_z:
        raise DataFormatError(f"{path}: prototypes have d_z={d_z}, encoder {encoder.d_z}")
    frozen = head[3] == "frozen=1"
    pos += 1
    weights, pos = _read_matrix(lines, pos, d_z, k_s)
    prototypes = PrototypeMatrix(weights, frozen=frozen)

    if pos == len(lines):
        return encoder, prototypes, None
    head = lines[pos].split()
    n_e = int(head[1]) if head[:1] == ["ensemble"] and len(head) == 2 else 0
    if n_e < 1 or pos + 1 + n_e * d_z != len(lines):
        raise DataFormatError(f"{path}: line {pos + 1}: expected 'ensemble <n>' with n >= 1, "
                              f"then n {d_z}-row matrices ending the file")
    ensemble, _ = _read_matrix(lines, pos + 1, n_e * d_z, k_s)
    return encoder, prototypes, ensemble.reshape(n_e, d_z, k_s)
