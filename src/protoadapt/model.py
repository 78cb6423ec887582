"""Feature encoder and zero-bias linear classifiers with exact gradients.

The encoder is a small MLP with hand-written backpropagation; the
classifiers are weight matrices whose columns act as class prototypes.
Gradients through the l2 normalization use the exact Jacobian
(I - u u^T)/||z||, since the normalization sits inside every loss path.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataFormatError, NumericError, check_array_size,
                     parse_digits, parse_key_values)
from .numerics import l2_normalize_backward, l2_normalize_rows, softmax

CHECKPOINT_HEADER = "#pda-checkpoint v2"
ROW_DTYPE = np.dtype("<f8")  # the bytes a checkpoint row encodes
LR_GAMMA = 0.0002
LR_ALPHA = 0.75
MOMENTUM = 0.9
# the most rows one block of a whole-set pass (Encoder.encode) holds
ENCODE_BLOCK_ROWS = 512


@dataclass
class EncodeResult:
    """Unit codes and the context needed to backpropagate."""
    z_l2: np.ndarray
    ctx: tuple


class Encoder:
    """MLP d_x -> hidden... -> d_z with tanh on hidden layers and a linear
    output layer.

    Weights initialize uniformly in +/- sqrt(6/(fan_in+fan_out)) from the
    given seed, unless a ``theta`` is given: then it is copied and nothing is
    drawn, the path of ``copy`` and ``load_checkpoint``. The architecture is
    immutable after construction. All parameters live in one float64 vector
    ``theta``, laid out w0, b0, w1, b1, ...; ``weights`` and ``biases`` are
    tuples of views into it, so a layer is written with ``[...] =`` and can
    never be detached.
    """

    def __init__(self, d_x: int, hidden: list[int], d_z: int, seed: int = 0,
                 theta: np.ndarray | None = None):
        if d_x < 1 or d_z < 1 or any(h < 1 for h in hidden):
            raise ConfigError("all layer widths must be >= 1")
        self.d_x = d_x
        self.hidden = list(hidden)
        self.d_z = d_z
        self.seed = seed
        self._sizes = [d_x, *hidden, d_z]
        n_theta = sum((i + 1) * o for i, o in zip(self._sizes, self._sizes[1:]))
        check_array_size("encoder parameters", n_theta)
        self.theta = np.zeros(n_theta) if theta is None else np.array(theta, dtype=float)
        if self.theta.shape != (n_theta,):
            raise ValueError(f"theta of shape {self.theta.shape}, expected ({n_theta},)")
        self.weights, self.biases = self._views(self.theta)
        if theta is None:
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
        any gradient of the unit codes through the normalization and the MLP."""
        inputs = []
        z_l2, norms, raw = l2_normalize_rows(self._layers(self._input(x), inputs))
        return EncodeResult(z_l2, (inputs, z_l2, norms, raw))

    def encode(self, x: np.ndarray) -> np.ndarray:
        """The unit codes of ``x``, keeping no layer input: the pass for whole
        datasets, which never backpropagate. The rows run in as few blocks
        of at most ``ENCODE_BLOCK_ROWS`` as they fit, so the temporaries are
        one block's whatever the number of rows; each block's codes are
        ``forward``'s of that block, bit for bit. The blocks are near-equal
        because the BLAS may give a row other bits in a block of one row."""
        x = self._input(x)
        n = len(x)
        n_blocks = -(-n // ENCODE_BLOCK_ROWS)
        codes = np.empty((n, self.d_z))
        for i in range(n_blocks):
            block = slice(i * n // n_blocks, (i + 1) * n // n_blocks)
            codes[block] = l2_normalize_rows(self._layers(x[block], None))[0]
        return codes

    def _input(self, x: np.ndarray) -> np.ndarray:
        """``x`` as float rows of the encoder's input width."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.d_x:
            raise ValueError(f"expected input dimension {self.d_x}, got {x.shape[1]}")
        return x

    def _layers(self, x: np.ndarray, inputs: list | None) -> np.ndarray:
        """The raw codes of the float rows ``x``, appending each layer's input
        to ``inputs`` unless it is None. Each layer adds its bias and applies
        tanh in place in its matmul's fresh output, so ``x`` and the kept
        inputs are never written."""
        h = x
        for i in range(self.n_layers):
            if inputs is not None:
                inputs.append(h)
            h = h @ self.weights[i]
            h += self.biases[i]
            if not np.isfinite(h).all():
                raise NumericError(f"non-finite activation in encoder layer {i}")
            if i < self.n_layers - 1:
                np.tanh(h, out=h)
        return h

    def backward(self, ctx: tuple, dz_l2: np.ndarray) -> np.ndarray:
        """The gradient of ``theta`` from a gradient of the unit codes, laid
        out like ``theta``."""
        inputs, z_l2, norms, raw = ctx
        grad = np.empty_like(self.theta)
        d_weights, d_biases = self._views(grad)
        upstream = l2_normalize_backward(raw, z_l2, norms, dz_l2)
        for i in range(self.n_layers - 1, -1, -1):
            np.matmul(inputs[i].T, upstream, out=d_weights[i])
            upstream.sum(axis=0, out=d_biases[i])
            if i > 0:
                upstream = upstream @ self.weights[i].T
                upstream = upstream * (1.0 - inputs[i] * inputs[i])  # tanh' from its output
        return grad

    def copy(self) -> "Encoder":
        return Encoder(self.d_x, self.hidden, self.d_z, self.seed, theta=self.theta)


def classify(weights: np.ndarray, z_l2: np.ndarray) -> np.ndarray:
    """Class probabilities: a stable softmax of the zero-bias linear scores mu_c . z_l2."""
    return softmax(_scores(weights, z_l2))


def predict(weights: np.ndarray, z_l2: np.ndarray) -> np.ndarray:
    """The class of each row, the one with the highest score mu_c . z_l2;
    ties go to the lowest class. The one prediction rule of the package."""
    return _scores(weights, z_l2).argmax(axis=1)


def _scores(weights: np.ndarray, z_l2: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    z_l2 = np.atleast_2d(np.asarray(z_l2, dtype=float))
    if z_l2.shape[1] != weights.shape[0]:
        raise ValueError(f"code dimension {z_l2.shape[1]} != weight rows {weights.shape[0]}")
    return z_l2 @ weights


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
        check_array_size("prototypes", d_z, k_s)
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
                       lr: float) -> None:
    """Classical momentum, in place: v <- MOMENTUM*v + g; p <- p - lr*v."""
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ValueError("parameter/gradient/velocity shape mismatch")
    velocity *= MOMENTUM
    velocity += grad
    param -= lr * velocity
    if not np.isfinite(param).all():
        raise NumericError("non-finite parameter after SGD update")


def lr_schedule(n: int, lr0: float) -> float:
    """lr(n) = lr0 * (1 + LR_GAMMA*n)^(-LR_ALPHA); non-increasing in n."""
    if n < 0:
        raise ValueError("epoch index must be >= 0")
    return lr0 * (1.0 + LR_GAMMA * n) ** (-LR_ALPHA)


# -- checkpoints -----------------------------------------------------------


def _write_matrix(lines: list[str], m: np.ndarray) -> None:
    """One line per row: the standard base64 of its little-endian float64 bytes."""
    m = np.ascontiguousarray(np.atleast_2d(m), dtype=ROW_DTYPE)
    lines.extend([binascii.b2a_base64(row, newline=False).decode("ascii") for row in m])


def _row_fault(line: str, cols: int) -> str:
    """Why ``line`` is not a checkpoint row of ``cols`` values."""
    width = 4 * -(-cols * ROW_DTYPE.itemsize // 3)
    if not line.isascii():
        return "not base64: non-ASCII text"
    if len(line) != width:
        return f"expected {width} base64 characters for {cols} values, got {len(line)}"
    return f"not the canonical base64 of {cols} values"


def _read_matrix(path, lines: list[str], pos: int, rows: int,
                 cols: int) -> tuple[np.ndarray, int]:
    """The ``rows`` x ``cols`` matrix from line ``pos`` on, every value finite.
    The first bad row is named, before the file is found to end too soon."""
    block = lines[pos:pos + rows]
    n_bytes = cols * ROW_DTYPE.itemsize
    payload, fault = [], None
    for number, line in enumerate(block, pos + 1):
        # decoding alone skips stray characters and tolerates bad padding and
        # trailing bits, so a row must also be what encoding its bytes gives
        try:
            data = binascii.a2b_base64(line)
        except ValueError:  # binascii.Error, or a non-ASCII str
            data = b""
        if len(data) != n_bytes or binascii.b2a_base64(data, newline=False) != line.encode():
            fault = f"line {number}: {_row_fault(line, cols)}"
            break
        payload.append(data)
    m = np.frombuffer(bytearray().join(payload), ROW_DTYPE).reshape(len(payload), cols)
    finite = np.isfinite(m).all(axis=1)
    if not finite.all():  # in rows before any text fault, so named first
        i = int(finite.argmin())
        value = float(m[i][~np.isfinite(m[i])][0])
        fault = f"line {pos + 1 + i}: non-finite value {value!r}"
    if fault is not None:
        raise DataFormatError(f"{path}: {fault}")
    if len(block) != rows:
        raise DataFormatError(f"{path}: line {len(lines)}: checkpoint ends {rows - len(block)} "
                              f"line(s) short of the {rows} x {cols} matrix from line {pos + 1}")
    return m, pos + rows


def save_checkpoint(path, encoder: Encoder, prototypes: PrototypeMatrix,
                    ensemble: np.ndarray | None = None) -> None:
    """Versioned text checkpoint: section heads as words, each matrix row as
    the base64 of its float64 bytes, so a reload reproduces forward outputs
    bit-exactly. Only the ensemble shape ``load_checkpoint`` reads,
    (n_e >= 1, d_z, K_s), is written."""
    if ensemble is not None and (ensemble.ndim != 3 or len(ensemble) < 1
                                 or ensemble.shape[1:] != prototypes.weights.shape):
        raise ValueError(f"ensemble shape {ensemble.shape} is not (n_e >= 1, {prototypes.d_z}, "
                         f"{prototypes.k_s})")
    hidden = ",".join(str(h) for h in encoder.hidden) or "-"
    lines = [CHECKPOINT_HEADER,
             f"encoder d_x={encoder.d_x} hidden={hidden} d_z={encoder.d_z} "
             f"activation=tanh seed={encoder.seed}"]
    for i, (w, b) in enumerate(zip(encoder.weights, encoder.biases)):
        lines.append(f"layer {i} {w.shape[0]} {w.shape[1]}")
        _write_matrix(lines, w)
        _write_matrix(lines, b[None, :])
    lines.append(f"prototypes {prototypes.d_z} {prototypes.k_s} frozen={int(prototypes.frozen)}")
    _write_matrix(lines, prototypes.weights)
    if ensemble is not None:
        lines.append(f"ensemble {len(ensemble)}")
        _write_matrix(lines, ensemble.reshape(-1, prototypes.k_s))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[Encoder, PrototypeMatrix, np.ndarray | None]:
    """The encoder, the prototypes and, if the file holds one, the
    (n_e, d_z, K_s) ensemble, which must have n_e >= 1 and end the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                lines = fh.read().splitlines()
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc
        if not lines or lines[0] != CHECKPOINT_HEADER:
            first = lines[0][:40] if lines else ""
            raise DataFormatError(f"{path}: line 1: expected '{CHECKPOINT_HEADER}', "
                                  f"got {first!r}")
        return _parse_checkpoint(path, lines)
    except DataFormatError:
        raise
    except (KeyError, ValueError, IndexError) as exc:
        raise DataFormatError(f"{path}: truncated or malformed checkpoint ({exc!r})") from exc


def _head(path, lines: list[str], pos: int, expected: str) -> list[str]:
    """The tokens of the section head at index ``pos``; a file that ends
    before it is named by its last line and the ``expected`` head."""
    if pos >= len(lines):
        raise DataFormatError(f"{path}: line {len(lines)}: checkpoint ends before {expected!r}")
    return lines[pos].split()


def _parse_checkpoint(path, lines: list[str]):
    tokens = _head(path, lines, 1, "encoder d_x=<n> hidden=<n,...|-> d_z=<n> "
                                   "activation=tanh seed=<n>")
    try:
        if tokens[:1] != ["encoder"]:
            raise ValueError("expected 'encoder'")
        meta = parse_key_values(tokens[1:], ("d_x", "hidden", "d_z", "activation", "seed"))
        if meta["activation"] != "tanh":
            raise ValueError(f"activation={meta['activation']} is not tanh")
        hidden = ([] if meta["hidden"] == "-"
                  else [parse_digits(h) for h in meta["hidden"].split(",")])
        d_x, d_z, seed = (parse_digits(meta[key]) for key in ("d_x", "d_z", "seed"))
        sizes = [d_x, *hidden, d_z]
        if min(sizes) < 1:
            raise ValueError("all layer widths must be >= 1")
    except ValueError as exc:
        raise DataFormatError(f"{path}: line 2: {exc}") from exc

    # every matrix is read before the encoder is built from them, so a width
    # the file does not hold fails at its head, not at an allocation
    theta, pos = [], 2
    for i, (rows, cols) in enumerate(zip(sizes, sizes[1:])):
        expected = f"layer {i} {rows} {cols}"
        if _head(path, lines, pos, expected) != expected.split():
            raise DataFormatError(f"{path}: line {pos + 1}: expected {expected!r}")
        weights, pos = _read_matrix(path, lines, pos + 1, rows, cols)
        bias, pos = _read_matrix(path, lines, pos, 1, cols)
        theta += [weights.ravel(), bias.ravel()]
    encoder = Encoder(d_x, hidden, d_z, seed, theta=np.concatenate(theta))

    head = _head(path, lines, pos, f"prototypes {d_z} <k_s> frozen=0|1")
    try:
        if len(head) != 4 or head[0] != "prototypes" or head[3] not in ("frozen=0", "frozen=1"):
            raise ValueError("expected 'prototypes <d_z> <k_s> frozen=0|1'")
        d_z, k_s = parse_digits(head[1]), parse_digits(head[2])
    except ValueError as exc:
        raise DataFormatError(f"{path}: line {pos + 1}: {exc}") from exc
    if d_z != encoder.d_z:
        raise DataFormatError(f"{path}: line {pos + 1}: prototypes have d_z={d_z}, "
                              f"encoder {encoder.d_z}")
    weights, pos = _read_matrix(path, lines, pos + 1, d_z, k_s)
    prototypes = PrototypeMatrix(weights, frozen=head[3] == "frozen=1")

    if pos == len(lines):
        return encoder, prototypes, None
    head = _head(path, lines, pos, "ensemble <n>")
    try:
        n_e = parse_digits(head[1]) if head[:1] == ["ensemble"] and len(head) == 2 else 0
    except ValueError:
        n_e = 0
    if n_e < 1 or pos + 1 + n_e * d_z != len(lines):
        raise DataFormatError(f"{path}: line {pos + 1}: expected 'ensemble <n>' with n >= 1, "
                              f"then n {d_z}-row matrices ending the file")
    ensemble, _ = _read_matrix(path, lines, pos + 1, n_e * d_z, k_s)
    return encoder, prototypes, ensemble.reshape(n_e, d_z, k_s)
