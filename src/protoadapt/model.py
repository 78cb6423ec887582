"""Feature encoder and zero-bias linear classifiers with exact gradients.

The encoder is a small MLP with hand-written backpropagation; the
classifiers are weight matrices whose columns act as class prototypes.
Gradients through the l2 normalization use the exact Jacobian
(I - u u^T)/||z||, since the normalization sits inside every loss path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError, parse_digits
from .numerics import l2_normalize_backward, l2_normalize_rows, softmax

CHECKPOINT_HEADER = "#pda-checkpoint v1"
LR_GAMMA = 0.0002
LR_ALPHA = 0.75

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


class Encoder:
    """MLP d_x -> hidden... -> d_z with a smooth nonlinearity on hidden
    layers and a linear output layer.

    Weights initialize uniformly in +/- sqrt(6/(fan_in+fan_out)) from the
    given seed; the architecture is immutable after construction. All
    parameters live in one float64 vector ``theta``, laid out w0, b0, w1,
    b1, ...; ``weights`` and ``biases`` are tuples of views into it, so a
    layer is written with ``[...] =`` and can never be detached.
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
        self._sizes = [d_x, *hidden, d_z]
        self.theta = np.zeros(sum((i + 1) * o for i, o in zip(self._sizes, self._sizes[1:])))
        self.weights, self.biases = self._views(self.theta)
        rng = np.random.default_rng(seed)
        for w in self.weights:
            limit = np.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-limit, limit, size=w.shape)

    def _views(self, flat: np.ndarray) -> tuple[tuple, tuple]:
        """Per-layer weight and bias views of a vector laid out like theta."""
        weights, biases, pos = [], [], 0
        for fan_in, fan_out in zip(self._sizes, self._sizes[1:]):
            weights.append(flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            biases.append(flat[pos:pos + fan_out])
            pos += fan_out
        return tuple(weights), tuple(biases)

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
                 dz_l2: np.ndarray | None = None) -> np.ndarray:
        """Gradients from the raw-code and unit-code paths, laid out like ``theta``."""
        inputs, z, z_l2, norms = ctx
        total = np.zeros_like(z)
        if dz is not None:
            total = total + dz
        if dz_l2 is not None:
            total = total + l2_normalize_backward(z, z_l2, norms, dz_l2)

        _, dact = _ACTIVATIONS[self.activation]
        grad = np.empty_like(self.theta)
        d_weights, d_biases = self._views(grad)
        upstream = total
        for i in range(self.n_layers - 1, -1, -1):
            np.matmul(inputs[i].T, upstream, out=d_weights[i])
            upstream.sum(axis=0, out=d_biases[i])
            if i > 0:
                upstream = upstream @ self.weights[i].T
                upstream = upstream * dact(inputs[i])
        return grad

    def copy(self) -> "Encoder":
        clone = Encoder(self.d_x, self.hidden, self.d_z, self.activation, self.seed)
        clone.theta[...] = self.theta
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
    return ClassifierOutput(logits, softmax(logits))


def classify_backward(weights: np.ndarray, z_l2: np.ndarray,
                      dlogits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the linear scores: (d_weights, d_z_l2)."""
    return z_l2.T @ dlogits, dlogits @ weights.T


@dataclass
class PrototypeMatrix:
    """Zero-bias classifier weights, one column per source class.

    No bias parameters exist by construction. ``frozen`` is set when the
    source phase ends; adaptation refuses unfrozen prototypes.
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


def apply_sgd_momentum(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
                       lr: float, momentum: float = 0.9) -> None:
    """Classical momentum, in place: v <- momentum*v + g; p <- p - lr*v."""
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ValueError("parameter/gradient/velocity shape mismatch")
    velocity *= momentum
    velocity += grad
    param -= lr * velocity
    if not np.all(np.isfinite(param)):
        raise NumericError("non-finite parameter after SGD update")


def lr_schedule(n: int, lr0: float) -> float:
    """lr(n) = lr0 * (1 + LR_GAMMA*n)^(-LR_ALPHA); non-increasing in n."""
    if n < 0:
        raise ValueError("epoch index must be >= 0")
    return lr0 * (1.0 + LR_GAMMA * n) ** (-LR_ALPHA)


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
        if len(values) != cols or "_" in lines[pos + r]:  # float() reads "1_0" as 10.0
            raise DataFormatError(f"checkpoint line {pos + r + 1}: expected {cols} "
                                  "values without '_'")
        data.append([float(v) for v in values])
    m = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(m)):
        raise DataFormatError(f"checkpoint lines {pos + 1}-{pos + rows}: non-finite value")
    return m, pos + rows


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
    tokens = lines[1].split()
    meta = dict(item.partition("=")[::2] for item in tokens[1:])
    if (tokens[:1] != ["encoder"] or len(meta) != len(tokens) - 1
            or meta.keys() != {"d_x", "hidden", "d_z", "activation", "seed"}):
        raise DataFormatError(f"{path}: line 2: expected 'encoder' then d_x, hidden, d_z, "
                              "activation and seed, each once as key=value")
    hidden = [] if meta["hidden"] == "-" else [parse_digits(h) for h in meta["hidden"].split(",")]
    d_x, d_z = parse_digits(meta["d_x"]), parse_digits(meta["d_z"])
    if d_x + sum(hidden) + d_z > len(lines):  # each width is some matrix's row count
        raise DataFormatError(f"{path}: layer widths exceed the file's {len(lines)} lines")
    encoder = Encoder(d_x, hidden, d_z, meta["activation"], parse_digits(meta["seed"]))

    pos = 2
    for i in range(encoder.n_layers):
        head = lines[pos].split()
        rows, cols = encoder.weights[i].shape
        if head != ["layer", str(i), str(rows), str(cols)]:
            raise DataFormatError(f"{path}: expected layer {i} {rows} {cols} at line {pos + 1}")
        encoder.weights[i][...], pos = _read_matrix(lines, pos + 1, rows, cols)
        encoder.biases[i][...], pos = _read_matrix(lines, pos, 1, cols)

    head = lines[pos].split()
    if len(head) != 4 or head[0] != "prototypes" or head[3] not in ("frozen=0", "frozen=1"):
        raise DataFormatError(f"{path}: line {pos + 1}: expected "
                              "'prototypes <d_z> <k_s> frozen=0|1'")
    d_z, k_s = parse_digits(head[1]), parse_digits(head[2])
    if d_z != encoder.d_z:
        raise DataFormatError(f"{path}: prototypes have d_z={d_z}, encoder {encoder.d_z}")
    weights, pos = _read_matrix(lines, pos + 1, d_z, k_s)
    prototypes = PrototypeMatrix(weights, frozen=head[3] == "frozen=1")

    if pos == len(lines):
        return encoder, prototypes, None
    head = lines[pos].split()
    n_e = parse_digits(head[1]) if head[:1] == ["ensemble"] and len(head) == 2 else 0
    if n_e < 1 or pos + 1 + n_e * d_z != len(lines):
        raise DataFormatError(f"{path}: line {pos + 1}: expected 'ensemble <n>' with n >= 1, "
                              f"then n {d_z}-row matrices ending the file")
    ensemble, _ = _read_matrix(lines, pos + 1, n_e * d_z, k_s)
    return encoder, prototypes, ensemble.reshape(n_e, d_z, k_s)
