"""Fuzzing of the two file parsers: on any input, ``read_feature_file``
and ``load_checkpoint`` either parse or raise DataFormatError."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from protoadapt.datasets import (FEATURE_HEADER_PREFIX, Dataset, read_feature_file,
                                 write_feature_file)
from protoadapt.errors import DataFormatError
from protoadapt.model import (CHECKPOINT_HEADER, Encoder, PrototypeMatrix,
                              load_checkpoint, save_checkpoint)

# characters the formats give meaning to, plus anything else
FORMAT_CHARS = st.one_of(st.sampled_from(list("0123456789-+.eE,#?=\n :-_")),
                         st.characters(codec="utf-8"))
# values that sit at or past the edge of what a field accepts
EDGE_TOKENS = st.sampled_from(["-1", "0", "1e999", "nan", "-", "", "x", "9" * 25,
                               "99999999", "1,2", "\n", "#-1", "#9" * 3])
READERS = {"features": read_feature_file, "checkpoint": load_checkpoint}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file of each kind, as text, and a path to overwrite."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_feature_file(Dataset(rng.standard_normal((3, 2)), None, 3, "target",
                               hidden_labels=np.array([0, 2, 1])), root / "t")
    write_feature_file(Dataset(rng.standard_normal((3, 2)), np.array([1, 0, 2]),
                               3, "source"), root / "s")
    protos = PrototypeMatrix.random(2, 3, seed=1)
    protos.frozen = True
    save_checkpoint(root / "c", Encoder(2, [3], 2, seed=0), protos,
                    np.stack([protos.weights + 0.1, protos.weights - 0.1]))
    texts = {name: (root / name).read_text(encoding="utf-8") for name in "tsc"}
    return {"features": [texts["t"], texts["s"]], "checkpoint": [texts["c"]],
            "path": root / "input"}


def parses_or_rejects(reader, path):
    try:
        reader(path)
    except DataFormatError:
        pass


@st.composite
def mutations(draw, text):
    """``text`` with one to four spans replaced by short random strings."""
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 10)))
        insert = draw(st.one_of(st.text(FORMAT_CHARS, max_size=8), EDGE_TOKENS))
        text = text[:start] + insert + text[end:]
    return text


@pytest.mark.parametrize("kind", READERS)
@given(data=st.data())
def test_mutated_valid_file(valid, kind, data):
    text = data.draw(st.sampled_from(valid[kind]).flatmap(mutations))
    valid["path"].write_text(text, encoding="utf-8")
    parses_or_rejects(READERS[kind], valid["path"])


@pytest.mark.parametrize("kind, header", [("features", FEATURE_HEADER_PREFIX),
                                          ("checkpoint", CHECKPOINT_HEADER + "\n")])
@given(body=st.text(FORMAT_CHARS, max_size=200), headed=st.booleans())
def test_arbitrary_text(valid, kind, header, body, headed):
    valid["path"].write_text(header + body if headed else body, encoding="utf-8")
    parses_or_rejects(READERS[kind], valid["path"])


@pytest.mark.parametrize("kind", READERS)
@given(blob=st.binary(max_size=200), cut=st.integers(0, 40))
def test_arbitrary_bytes(valid, kind, blob, cut):
    # a valid file's start followed by bytes that need not be UTF-8
    valid["path"].write_bytes(valid[kind][0].encode()[:cut] + blob)
    parses_or_rejects(READERS[kind], valid["path"])


# Inputs that once escaped as other exceptions. The widths are far too
# large to allocate, so a loader that tries fails fast, not slowly.
ESCAPES = [
    ("features", "#2", "#" + "9" * 25),       # hidden label past int64
    ("checkpoint", "d_x=2", "d_x=" + "9" * 12),  # width past the file's length
    ("checkpoint", "hidden=3", "hidden=" + "9" * 12),
]


@pytest.mark.parametrize("kind, old, new", ESCAPES)
def test_former_escapes_are_format_errors(valid, kind, old, new):
    assert old in valid[kind][0]
    valid["path"].write_text(valid[kind][0].replace(old, new), encoding="utf-8")
    with pytest.raises(DataFormatError):
        READERS[kind](valid["path"])
