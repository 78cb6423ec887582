"""The feature-file and checkpoint writers: byte-for-byte equal to
value-at-a-time reference formatters on any finite input, chunk
boundaries included, and pinned to literal golden text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from protoadapt import datasets
from protoadapt.datasets import FEATURE_HEADER_PREFIX, Dataset, write_feature_file
from protoadapt.model import (Encoder, PrototypeMatrix, _write_matrix, load_checkpoint,
                              save_checkpoint)

MAX = np.finfo(float).max
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, 1e9,
               1e-7, 0.1, MAX, -MAX]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64),
                   st.sampled_from(EDGE_FLOATS))
CHUNK = 4  # small stand-in for WRITE_CHUNK_ROWS, so tests cross chunk edges


def reference_feature_text(ds: Dataset) -> str:
    lines = [f"{FEATURE_HEADER_PREFIX} d={ds.d_x} k={ds.k_s} role={ds.role}"]
    for i in range(ds.n):
        label = "?" if ds.labels is None else str(int(ds.labels[i]))
        row = ",".join(format(float(v), ".9g") for v in ds.features[i])
        line = f"{label},{row}" if ds.d_x else label
        if ds.hidden_labels is not None:
            line += f"#{int(ds.hidden_labels[i])}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def reference_matrix_lines(m: np.ndarray) -> list[str]:
    return [" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(m)]


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("writers") / "out"


KINDS = ["source", "target", "target with hidden labels"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1])
@pytest.mark.parametrize("d_x", [0, 1, 5])
@settings(max_examples=10)  # per case; the grid above fixes the shapes
@given(data=st.data())
def test_feature_writer_matches_reference(path, kind, n, d_x, data):
    features = data.draw(arrays(np.float64, (n, d_x), elements=FINITE))
    k_s = data.draw(st.sampled_from([1, 3, 10**6]))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, k_s - 1)))
    if kind == "source":
        ds = Dataset(features, labels, k_s, "source")
    else:
        hidden = labels if kind == "target with hidden labels" else None
        ds = Dataset(features, None, k_s, "target", hidden_labels=hidden)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "WRITE_CHUNK_ROWS", CHUNK)
        write_feature_file(ds, path)
    assert path.read_bytes() == reference_feature_text(ds).encode()


@given(m=st.tuples(st.integers(1, 6), st.integers(0, 6)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=FINITE)))
def test_matrix_writer_matches_reference(m):
    lines = ["head"]
    _write_matrix(lines, m)
    assert lines == ["head", *reference_matrix_lines(m)]


@st.composite
def checkpoints(draw):
    d_x, d_z, k_s = (draw(st.integers(1, 3)) for _ in range(3))
    encoder = Encoder(d_x, draw(st.lists(st.integers(1, 3), max_size=2)), d_z)
    for p in (*encoder.weights, *encoder.biases):
        p[...] = draw(arrays(np.float64, p.shape, elements=FINITE))
    prototypes = PrototypeMatrix(draw(arrays(np.float64, (d_z, k_s), elements=FINITE)),
                                 frozen=draw(st.booleans()))
    n_e = draw(st.integers(0, 3))
    ensemble = (draw(arrays(np.float64, (n_e, d_z, k_s), elements=FINITE))
                if n_e else None)
    return encoder, prototypes, ensemble


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(ckpt=checkpoints())
def test_checkpoint_round_trip_bit_exact(path, ckpt):
    encoder, prototypes, ensemble = ckpt
    save_checkpoint(path, encoder, prototypes, ensemble)
    enc2, protos2, ens2 = load_checkpoint(path)
    assert same_bits(encoder.theta, enc2.theta)
    assert same_bits(prototypes.weights, protos2.weights)
    assert protos2.frozen == prototypes.frozen
    assert (ens2 is None) if ensemble is None else same_bits(ensemble, ens2)


# Golden text: %.9g gives "-0" for negative zero and exponent form outside
# [1e-4, 1e9); checkpoints hold repr(), the shortest round-tripping form.
GOLDEN_FEATURES = """\
#pda-features v1 d=3 k=3 role=target
?,0.1,-0,0.0001#0
?,1e-07,1.23456789e+11,123456789#2
?,2.5,-3,1e+09#1
"""

GOLDEN_CHECKPOINT = """\
#pda-checkpoint v1
encoder d_x=2 hidden=- d_z=2 activation=identity seed=5
layer 0 2 2
0.1 -0.0
1e-07 123456789012.0
0.30000000000000004 5e-324
prototypes 2 2 frozen=1
1.0 -1.0
0.5 1e+16
ensemble 1
0.25 -0.75
1e-05 3.0
"""


def test_feature_file_golden_text(path):
    features = np.array([[0.1, -0.0, 1e-4], [1e-7, 123456789012.0, 123456789.0],
                         [2.5, -3.0, 1e9]])
    write_feature_file(Dataset(features, None, 3, "target",
                               hidden_labels=np.array([0, 2, 1])), path)
    assert path.read_text(encoding="utf-8") == GOLDEN_FEATURES


def test_checkpoint_golden_text(path):
    encoder = Encoder(2, [], 2, activation="identity", seed=5)
    encoder.weights[0][...] = [[0.1, -0.0], [1e-7, 123456789012.0]]
    encoder.biases[0][...] = [0.30000000000000004, 5e-324]
    prototypes = PrototypeMatrix(np.array([[1.0, -1.0], [0.5, 1e16]]), frozen=True)
    save_checkpoint(path, encoder, prototypes, np.array([[[0.25, -0.75], [1e-5, 3.0]]]))
    assert path.read_text(encoding="utf-8") == GOLDEN_CHECKPOINT
