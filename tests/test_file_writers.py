"""The feature-file and checkpoint writers: byte-for-byte equal to
reference formatters on any finite input, chunk boundaries included, and
pinned to literal golden text. The feature writer's numpy kernel equals
``format(v, ".9g")``, proves nearly every value of real-looking features,
and holds one chunk of a bounded number of values at a time. The feature reader
and its float parser:
bit-for-bit equal to ``float()`` one value at a time; its bulk check reads
what the per-line walk reads, and takes everything the writer writes."""

import base64
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from protoadapt import datasets
from protoadapt.datasets import (FEATURE_HEADER_PREFIX, Dataset, _parse_floats,
                                 read_feature_file, write_feature_file)
from protoadapt.errors import DataFormatError
from protoadapt.model import (Encoder, PrototypeMatrix, _write_matrix, load_checkpoint,
                              save_checkpoint)

MAX = np.finfo(float).max
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, 1e9,
               1e-7, 0.1, MAX, -MAX,
               0.30000000000000004, 1.0000000000000002, -123456789.12345679]  # 17 digits
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64),
                   st.sampled_from(EDGE_FLOATS))
CHUNK = 4  # small stand-in for CHUNK_ROWS, so tests cross chunk edges


def reference_feature_text(ds: Dataset) -> str:
    lines = [f"{FEATURE_HEADER_PREFIX} d={ds.d_x} k={ds.k_s} role={ds.role}"]
    for i in range(ds.n):
        label = "?" if ds.labels is None else str(int(ds.labels[i]))
        row = ",".join(format(float(v), ".9g") for v in ds.features[i])
        line = f"{label},{row}"
        if ds.hidden_labels is not None:
            line += f"#{int(ds.hidden_labels[i])}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def reference_matrix_lines(m: np.ndarray) -> list[str]:
    return [base64.b64encode(struct.pack(f"<{len(row)}d", *map(float, row))).decode()
            for row in np.atleast_2d(m)]


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
    if not d_x:  # no zero-width dataset to write; checked before any draw, so run once
        with pytest.raises(ValueError, match="with d_x >= 1"):
            Dataset(np.empty((n, 0)), np.zeros(n, int) if kind == "source" else None, 3,
                    kind.split()[0])
        return
    features = data.draw(arrays(np.float64, (n, d_x), elements=FINITE))
    k_s = data.draw(st.sampled_from([1, 3, 10**6, 2**60]))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, k_s - 1)))
    if kind == "source":
        ds = Dataset(features, labels, k_s, "source")
    else:
        hidden = labels if kind == "target with hidden labels" else None
        ds = Dataset(features, None, k_s, "target", hidden_labels=hidden)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "CHUNK_ROWS", CHUNK)
        write_feature_file(ds, path)
    assert path.read_bytes() == reference_feature_text(ds).encode()


def kernel_mismatches(values: np.ndarray):
    """The rows ``datasets._format_chunk`` formats other than ``",%.9g"`` per
    value."""
    got = datasets._format_chunk(values)
    want = ["".join("," + format(v, ".9g") for v in row) for row in values.tolist()]
    return [(row, g, w) for row, g, w in zip(values.tolist(), got, want) if g != w]


# binary-exact ties at the 9th digit, the ends of the fixed-point range and
# values that round up a decade; each with its neighbours, and negated
KERNEL_EDGES = np.array([123456789.5, 12345678.25, 1e-4, 1e9, 9.999999995e-5,
                         99999999.95, 999999999.5, 0.1, 2.5, 1e8, 1.0])


def test_format_kernel_is_exact():
    edges = np.concatenate([KERNEL_EDGES, np.nextafter(KERNEL_EDGES, 0),
                            np.nextafter(KERNEL_EDGES, np.inf)])
    edges = np.concatenate([edges, -edges, [0.0, -0.0, -5e-324, MAX]])  # and the longest texts
    rng = np.random.default_rng(29)
    normals = (rng.standard_normal((18, 40_000))
               * 10.0 ** np.arange(-6, 12)[:, None]).ravel()  # every decade in [1e-6, 1e11]
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    grids = (rng.integers(10**8, 10**10, 200_000)  # 9- and 10-digit decimals
             / 10.0 ** rng.integers(0, 14, 200_000) * rng.choice([-1, 1], 200_000))
    for values, cols in ((edges, 1), (bits[np.isfinite(bits)], 1), (normals, 1),
                         (rng.permutation(normals), 64), (grids, 1)):
        bad = kernel_mismatches(values.reshape(-1, cols))
        assert not bad, bad[:5]
    # not vacuous: the zeros and nearly every value in [1e-4, 1e9) are proven
    in_range = normals[(np.abs(normals) >= 1e-4) & (np.abs(normals) < 1e9)]
    assert datasets._prove(in_range)[2].mean() > 0.99
    assert datasets._prove(np.array([0.0, -0.0]))[2].all()


def test_format_chunk_lays_out_what_prove_proves(monkeypatch):
    # with each proven significand off by one, the text differs from %.9g
    # at every proven value and equals it at every unproven one: the layout,
    # not `%`, writes the values _prove proves
    rng = np.random.default_rng(32)
    values = rng.standard_normal((500, 8)) * 10.0 ** rng.integers(-7, 11, (500, 8))
    values[:KERNEL_EDGES.size, 0] = KERNEL_EDGES  # ties and decade roundings among them
    prove = datasets._prove
    proven = prove(values.ravel())[2].reshape(values.shape)
    assert 0 < proven.mean() < 1

    def off_by_one(x):
        bracket, sig, proof = prove(x)
        return bracket, sig + proof, proof

    monkeypatch.setattr(datasets, "_prove", off_by_one)
    for row, body, mask in zip(values.tolist(), datasets._format_chunk(values), proven):
        differs = [got != format(v, ".9g") for got, v in zip(body.split(",")[1:], row)]
        assert differs == mask.tolist(), (row, body)


def io_eval_target():
    """A target of io_eval's shape: 5000 rows of 64 features, rotated and
    shifted."""
    spec = datasets.SyntheticSpec(k_s=16, k_t=8, d_x=64, source_per_class=50,
                                  target_per_class=625, rotation_angle=math.pi / 6,
                                  translation=(0.125,) * 64, seed=3)
    return datasets.generate_synthetic(spec)[1]


def unit_rows_target():
    """2000 rows of 512 features scaled to unit L2 norm (std about 0.044):
    most rows hold a value below 1e-4, which %.9g writes in exponent form."""
    features = np.random.default_rng(29).standard_normal((2000, 512))
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    return Dataset(features, None, 16, "target")


@pytest.mark.parametrize("make", [io_eval_target, unit_rows_target])
def test_written_features_leave_few_values_to_percent(path, monkeypatch, make):
    # every chunk goes through the kernel with fewer than 1% of its values
    # left to `%`, and the bytes stay the reference's
    target = make()
    unproven, prove = [], datasets._prove

    def spy(x):
        proof = prove(x)
        unproven.append(1 - proof[2].mean())
        return proof

    monkeypatch.setattr(datasets, "_prove", spy)
    write_feature_file(target, path)
    step = min(datasets.CHUNK_ROWS, datasets.CHUNK_VALUES // target.d_x)
    assert len(unproven) == -(-target.n // step)
    assert max(unproven) < 0.01
    assert path.read_bytes() == reference_feature_text(target).encode()


def write_peak(path, n, d_x=64):
    """Bytes ``write_feature_file`` allocates at its peak on an (n, d_x)
    source, under ``tracemalloc``."""
    rng = np.random.default_rng(n)
    ds = Dataset(rng.standard_normal((n, d_x)), rng.integers(0, 7, n), 7, "source")
    tracemalloc.start()
    try:
        write_feature_file(ds, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_per_chunk(path):
    # the peak depends on CHUNK_VALUES, not on the number of rows or their width
    peak = write_peak(path, 2000)
    assert write_peak(path, 8000) <= 1.1 * peak
    assert write_peak(path, 512, d_x=1024) <= 1.1 * peak


def reference_read(text: str):
    """Features, labels and hidden labels of a valid feature file, parsed
    one ``float()`` call per value."""
    head, *lines = text.splitlines()
    d_x = int(head.split()[2].removeprefix("d="))
    feats, labels, hidden = [], [], []
    for line in lines:
        if not line.strip():
            continue
        body, _, comment = line.partition("#")
        label, *values = body.split(",")
        feats.append([float(v) for v in values])
        labels.append(None if label == "?" else int(label))
        if comment:
            hidden.append(int(comment))
    return np.array(feats, dtype=float).reshape(len(feats), d_x), labels, hidden


# spellings float() accepts for one value: shortest repr, the writer's
# %.9g, 17 significant digits, and padding with whitespace that is not a
# line break
SPELLINGS = [repr, lambda v: format(v, ".9g"), lambda v: format(v, ".16e"),
             lambda v: f" {v!r}\t", lambda v: f"\xa0{v:.9g}"]


def valid_feature_lines(data, kind, n, d_x, spellings=SPELLINGS):
    """The lines of a valid feature file of ``n`` rows, its header first."""
    k_s = data.draw(st.sampled_from([1, 3, 10**6, 2**60]))
    lines = [f"{FEATURE_HEADER_PREFIX} d={d_x} k={k_s} role={kind.split()[0]}"]
    for _ in range(n):
        label = "?" if kind != "source" else str(data.draw(st.integers(0, k_s - 1)))
        values = [data.draw(st.sampled_from(spellings))(float(data.draw(FINITE)))
                  for _ in range(d_x)]
        line = ",".join([label, *values])
        if kind == "target with hidden labels":
            line += f"#{data.draw(st.integers(0, k_s - 1))}"
        blank = data.draw(st.sampled_from(["", " \t"]))  # blank lines are skipped
        lines += [blank] * data.draw(st.integers(0, 1)) + [line]
    return lines


def assert_zero_width_refused(path, kind):
    """A d=0 header is refused at line 1, as k=0 is."""
    path.write_text(f"{FEATURE_HEADER_PREFIX} d=0 k=3 role={kind.split()[0]}\n",
                    encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: line 1: "
                                              "d=0 must be ASCII digits >= 1$"):
        read_feature_file(path)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1])
@pytest.mark.parametrize("d_x", [0, 1, 5])
@settings(max_examples=10)  # per case; the grid above fixes the shapes
@given(data=st.data())
def test_feature_reader_matches_reference(path, kind, n, d_x, data):
    if not d_x:  # checked before any draw, so Hypothesis runs it once
        assert_zero_width_refused(path, kind)
        return
    text = "\n".join(valid_feature_lines(data, kind, n, d_x)) + "\n"
    path.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "CHUNK_ROWS", CHUNK)
        ds = read_feature_file(path)
    features, labels, hidden = reference_read(text)
    assert same_bits(ds.features, features)
    assert (ds.labels is None) if kind != "source" else ds.labels.tolist() == labels
    assert (ds.hidden_labels.tolist() if ds.hidden_labels is not None else []) == hidden


# pieces of values float() accepts or rejects: whitespace it strips ("\xa0",
# "\x0c", "\t", " "), control characters it rejects but np.loadtxt skips
# ("\x1c", "\x1f"), a non-ASCII digit and a "_" it reads but np.loadtxt
# rejects, non-finite spellings, and ASCII either reader could take for
# something else. Values made of them go to _parse_floats, the walk's
# float() reader, and replace values in the rows the bulk check, which
# reads with np.loadtxt, must judge as the walk does.
FLOAT_PIECES = [*"0123456789+-.eE", "nan", "inf", "\xa0", "\x0c", "\x1c", "\u0661",
                "\x1f", "\x00", "\x7f", "\t", " ", "#", '"', "_"]
VALUES = st.lists(st.sampled_from(FLOAT_PIECES), max_size=6).map("".join)


# one fault each, as an edit of a valid row given the file's k_s: a bad
# first value, one field too many or too few, a bad label and a bad, missing
# or extra hidden label (an edit that finds nothing to change leaves the row).
# Bad labels that int() reads as 0 stay below any k_s.
FAULTS = [
    *[lambda row, k_s, v=v: re.sub(r",[^,#]*", f",{v}", row, count=1)
      for v in ("x", "nan", "-inf", "1e400", "1_0", "", "\x1f1", "\u0661", "1\xa0")],
    lambda row, k_s: re.sub(r"^[^#]*", r"\g<0>,0", row),
    lambda row, k_s: re.sub(r",[^,#]*", "", row, count=1),
    *[lambda row, k_s, v=v: re.sub(r"^[^,#]*", str(k_s) if v is None else v, row)
      for v in ("?", "0", "+0", " 0", "", "\u0660", None)],
    lambda row, k_s: row.partition("#")[0],
    *[lambda row, k_s, v=v: row.partition("#")[0] + "#" + (str(k_s) if v is None else v)
      for v in ("0", "", "0#0", "-0", "0 ", "\u0660", None)],
]


def read_outcome(path):
    """The bits, labels and hidden labels ``read_feature_file`` gives, or its error."""
    try:
        ds = read_feature_file(path)
    except DataFormatError as exc:
        return str(exc)
    return (ds.features.shape, ds.features.tobytes(),
            *(None if a is None else a.tolist() for a in (ds.labels, ds.hidden_labels)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d_x", [0, 1, 5])
@settings(max_examples=100)
@given(data=st.data())
def test_bulk_check_matches_the_walk(path, kind, d_x, data):
    # the bulk check either refuses a chunk or reads it as the walk would:
    # the same bits, labels and hidden labels, or the same error text. The
    # rows are mostly ASCII, which the bulk check can take, mostly carry one
    # fault, and often have values made of FLOAT_PIECES.
    if not d_x:  # checked before any draw, so Hypothesis runs it once
        assert_zero_width_refused(path, kind)
        return
    plain = data.draw(st.sampled_from([True, True, True, False]))
    lines = valid_feature_lines(data, kind, data.draw(st.integers(0, 3 * CHUNK + 1)), d_x,
                                SPELLINGS[:4] if plain else SPELLINGS)
    fault = data.draw(st.sampled_from([None, *FAULTS]))
    if len(lines) > 1 and fault:
        at = data.draw(st.integers(1, len(lines) - 1))
        lines[at] = fault(lines[at], int(lines[0].split()[3].removeprefix("k=")))
    for _ in range(data.draw(st.integers(0, 2)) if len(lines) > 1 else 0):
        at = data.draw(st.integers(1, len(lines) - 1))
        body, hash_sign, comment = lines[at].partition("#")
        fields = body.split(",")
        if len(fields) > 1:
            fields[data.draw(st.integers(1, len(fields) - 1))] = data.draw(VALUES)
            lines[at] = ",".join(fields) + hash_sign + comment
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "CHUNK_ROWS", CHUNK)
        bulk = read_outcome(path)
        mp.setattr(datasets, "_whole_rows", lambda *args: None)
        assert read_outcome(path) == bulk


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d_x", [1, 64])
@pytest.mark.parametrize("blanks", [False, True])
def test_written_files_skip_the_walk(path, monkeypatch, bulk_results, kind, d_x, blanks):
    # every chunk of what the writer writes passes the bulk check, also with
    # a blank line, empty or whitespace-only, after each row
    rng = np.random.default_rng(d_x)
    n = 2 * datasets.CHUNK_ROWS + 3
    features = rng.standard_normal((n, d_x)) * 10.0 ** rng.integers(-300, 300, (n, d_x))
    features[0, 0] = -0.0
    labels = rng.integers(0, 7, n)
    if kind == "source":
        ds = Dataset(features, labels, 7, "source")
    else:
        hidden = labels if kind == "target with hidden labels" else None
        ds = Dataset(features, None, 7, "target", hidden_labels=hidden)
    write_feature_file(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if blanks:
        lines[1:] = [ln for i, row in enumerate(lines[1:]) for ln in (row, " \t" * (i % 2))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(datasets, "_parse_floats", None)  # the walk's value reader
    again = read_feature_file(path)
    assert len(bulk_results) == -(-(len(lines) - 1) // datasets.CHUNK_ROWS)
    assert None not in bulk_results
    assert again.features.tobytes() == np.array(
        [[float(format(v, ".9g")) for v in row] for row in features.tolist()]).tobytes()
    for got, want in ((again.labels, ds.labels), (again.hidden_labels, ds.hidden_labels)):
        assert (got is None) if want is None else got.tolist() == want.tolist()


def reference_row_error(line: str):
    """What is wrong with one row of comma-separated values, judged by
    ``float()`` one value at a time, with '_' and non-finite results as
    errors; None if nothing."""
    values = line.split(",")
    if "_" in line:
        return f"'_' in {line!r}"
    for value in values:
        try:
            float(value)
        except ValueError as exc:
            return str(exc)
    return next((f"non-finite value {v!r}" for v in values if not math.isfinite(float(v))),
                None)


# the reader hands over only lines of d_x values, so every line has the same width
@given(rows=st.integers(1, 3).flatmap(
           lambda cols: st.lists(st.lists(VALUES, min_size=cols, max_size=cols),
                                 min_size=1, max_size=4)),
       first=st.integers(1, 10**6))
def test_parse_floats_matches_float(rows, first):
    lines = [",".join(row) for row in rows]
    cols = len(rows[0])
    chunk = dict(zip(range(first, first + len(lines)), lines))
    errors = [(n, e) for n, ln in chunk.items() if (e := reference_row_error(ln)) is not None]
    try:  # a row at a time, and the first fault named by its line, as the walk reads
        got = []
        for number, line in chunk.items():
            try:
                got.append(_parse_floats(line))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
        got = np.array(got, dtype=float)
    except ValueError as exc:
        assert errors and str(exc) == "line %d: %s" % errors[0]
    else:
        assert not errors
        assert got.shape == (len(lines), cols)  # no blank line dropped
        expected = [[float(v) for v in ln.split(",")] for ln in lines]
        assert got.tobytes() == np.array(expected, dtype=float).reshape(got.shape).tobytes()


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
    # every example holds edge values, signed zero, subnormal, the extremes
    # and 17-digit ones among them, up to the parameter count
    n_edges = min(len(EDGE_FLOATS), encoder.theta.size)
    encoder.theta[:n_edges] = draw(st.permutations(EDGE_FLOATS))[:n_edges]
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
# [1e-4, 1e9). A checkpoint row is the base64 of its little-endian float64
# bytes: the first layer row below holds 0.1 and -0.0, the bias
# 0.30000000000000004 and 5e-324.
GOLDEN_FEATURES = """\
#pda-features v1 d=3 k=3 role=target
?,0.1,-0,0.0001#0
?,1e-07,1.23456789e+11,123456789#2
?,2.5,-3,1e+09#1
"""

GOLDEN_CHECKPOINT = """\
#pda-checkpoint v2
encoder d_x=2 hidden=- d_z=2 activation=tanh seed=5
layer 0 2 2
mpmZmZmZuT8AAAAAAAAAgA==
SK+8mvLXej4AABQamb48Qg==
NDMzMzMz0z8BAAAAAAAAAA==
prototypes 2 2 frozen=1
AAAAAAAA8D8AAAAAAADwvw==
AAAAAAAA4D8AgOA3ecNBQw==
ensemble 1
AAAAAAAA0D8AAAAAAADovw==
8WjjiLX45D4AAAAAAAAIQA==
"""


def test_feature_file_golden_text(path):
    features = np.array([[0.1, -0.0, 1e-4], [1e-7, 123456789012.0, 123456789.0],
                         [2.5, -3.0, 1e9]])
    write_feature_file(Dataset(features, None, 3, "target",
                               hidden_labels=np.array([0, 2, 1])), path)
    assert path.read_text(encoding="utf-8") == GOLDEN_FEATURES


def test_checkpoint_golden_text(path):
    encoder = Encoder(2, [], 2, seed=5)
    encoder.weights[0][...] = [[0.1, -0.0], [1e-7, 123456789012.0]]
    encoder.biases[0][...] = [0.30000000000000004, 5e-324]
    prototypes = PrototypeMatrix(np.array([[1.0, -1.0], [0.5, 1e16]]), frozen=True)
    save_checkpoint(path, encoder, prototypes, np.array([[[0.25, -0.75], [1e-5, 3.0]]]))
    assert path.read_text(encoding="utf-8") == GOLDEN_CHECKPOINT
