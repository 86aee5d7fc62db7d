from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfpnapo.corpus import read_corpus
from rfpnapo.errors import ParseError
from rfpnapo.fileio import fmt17, read_lines, row_format, write_text
from rfpnapo.numerics import MlpSpec, mlp_init, write_checkpoint
from rfpnapo.prefdata import read_dataset


def _boom(*args, **kwargs):
    raise OSError("simulated failure")


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_write_keeps_the_previous_artifact(tmp_path, monkeypatch, failing):
    # the failure comes after the temp file holds the new bytes
    spec = MlpSpec(data_dim=2, cond_dim=1, hidden=(3,))
    writers = {
        "report.csv": lambda path, new: write_text(path, ["a,b", "1,2"] if new else ["a,b"]),
        "model.ckpt": lambda path, new: write_checkpoint(path, mlp_init(spec, 2 if new else 1), spec),
    }
    for name, write in writers.items():
        path = tmp_path / name / name  # the writer creates the directory
        write(str(path), new=False)
        before = path.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(os, failing, _boom)
            with pytest.raises(OSError, match="simulated"):
                write(str(path), new=True)
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == [name]
        write(str(path), new=True)
        assert path.read_bytes() != before
        assert os.listdir(path.parent) == [name]


def test_read_lines_splits_newlines_and_locates_bad_bytes(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes("a\r\nb\rcaf\u00e9\n\r\r\nd\u2028e".encode())
    assert read_lines(str(path)) == ["a", "b", "caf\u00e9", "", "", "d", "e"]
    for data, line in ((b"\xff", 1), (b"a\n\xffb\n", 2), (b"a\r\nb\rc\xe9", 3), (b"a\n\n\x80", 3)):
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"^line {line}: input is not UTF-8") as info:
            read_lines(str(path))
        assert info.value.line == line


@settings(max_examples=300, deadline=None)
@given(row=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
       sep=st.sampled_from(["\t", " "]))
@example(row=[-0.0, 5e-324, -2.2250738585072009e-308, 1e-310, 1.7976931348623157e308,
              -1.7976931348623157e308], sep=" ")
def test_row_format_is_the_fmt17_join(row, sep):
    assert row_format(len(row), sep) % tuple(row) == sep.join(map(fmt17, row))


SPELLINGS = ("1_0", "\u0661", "\xa01", " 2", "+1E5", "-0", "1\x00", "1__0", "0x10", "nan", "-inf",
             "1e999", "infinity", "\uff11", "")


def _one_line(token: str) -> bool:
    return "\t" not in token and len(f"x{token}x".splitlines()) == 1


@settings(max_examples=300, deadline=None)
@given(token=st.one_of(st.sampled_from(SPELLINGS), st.text(max_size=6), st.floats().map(fmt17),
                       st.floats().map(repr)).filter(_one_line),
       fmt=st.sampled_from(["pairs", "corpus"]))
def test_every_number_reads_as_float_of_its_token(tmp_path_factory, token, fmt):
    # the token in a record's number slot reads as float(token), bit for bit,
    # or the record fails on its line, line 3
    path = tmp_path_factory.getbasetemp() / f"spelling.{fmt}"
    if fmt == "pairs":
        path.write_text("rfpnapo-pairs v1 dim=2 cdim=2 steps=1 refhash=aa\n"
                        "1 0 | 0.5 0.5 | 0.25 0.25 | 1 1 | 1 -1 | 0.125\n"
                        f"0 1 | {token} 0.5 | 0.25 0.25 | 1 1 | 1 -1 | 0.125\n", encoding="utf-8")
        read, field, index = read_dataset, "x0", (1, 0, 0)
    else:
        path.write_text(f"id\ttext\ttox\te0\te1\na\tok\t0.5\t1\t2\nb\tok\t0.5\t{token}\t2\n",
                        encoding="utf-8")
        read, field, index = read_corpus, "embeddings", (1, 0)
    try:
        expected = float(token)
    except ValueError:
        expected = math.nan  # no number: a finite value must not come back
    try:
        value = getattr(read(str(path)), field)[index]
    except ParseError as exc:
        assert exc.line == 3 and not math.isfinite(expected), (token, str(exc))
    else:
        assert value.tobytes() == np.float64(expected).tobytes(), token
