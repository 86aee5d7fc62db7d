"""Mutation fuzzing of the four input formats, in-process through their readers.

A valid pair file, corpus TSV and config each get one token of one line
replaced, deleted or inserted; a checkpoint gets bytes flipped or is
truncated. Replacement tokens come from a small fixed set, so no case can ask
for a large allocation. Each bad input must fail where it is read, with an
RfpnapoError that names its line. A text reader stops at the file's first
bad line, and each text writer refuses exactly the records its reader does.
"""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpora, make_pairs, pair_batches
from rfpnapo.config import _KEYS, load_config
from rfpnapo.corpus import Corpus, read_corpus, run_pipeline, write_corpus
from rfpnapo.errors import ConfigurationError, ParseError, RfpnapoError, ShapeError
from rfpnapo.fileio import row_format
from rfpnapo.numerics import MlpSpec, mlp_init, optim_init, read_checkpoint, write_checkpoint
from rfpnapo.prefdata import read_dataset, write_dataset
from rfpnapo.training import _check_run_length

# the last five are spellings float() accepts: underscores, Arabic-Indic digits,
# a leading no-break space, an explicit sign and exponent, a negative zero
TOKENS = ("nan", "inf", "-inf", "1e999", "-1", "0", "1", "0.5", "x", "", "|",
          "1_0", "\u0661", "\xa01", "+1E5", "-0")

# every config key, each at a valid value
FULL_CFG = """# all keys
seed = 3
data.dim = 2
data.conditions = 2
data.mixture.modes = 1,1 | -1,-1 ; 3,0
data.mixture.std = 0.4
model.hidden = 8,8
train.lr = 1e-3
train.steps = 40
train.batch = 8

pnapo.beta = 4.0
pnapo.n1 = 10
pnapo.n2 = 20
pnapo.dynamic = true
sampler.steps = 5
reward.kind = mode_distance
reward.params = 2,0 ; -2,0
corpus.toxicity_threshold = 0.1
corpus.jaccard_threshold = 0.8
corpus.cosine_threshold = 0.8
corpus.k_clusters = 4
corpus.per_cluster = 2
corpus.kmeans_iters = 10
"""

# the checks that compare one key with another; a line number cannot name both
CROSS_KEY = re.compile(
    r"(data\.mixture\.modes|reward\.params)(: condition \d+ has a vector| defines)|need 1 <= n1 < n2"
)


@st.composite
def line_mutations(draw, lines: list[str], sep: str):
    """(1-based line number, new line): one token of one line replaced, deleted or inserted."""
    index = draw(st.integers(0, len(lines) - 1))
    tokens = lines[index].split(sep)
    op = draw(st.sampled_from(("replace", "delete", "insert")))
    if op == "insert":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(TOKENS)))
    else:
        at = draw(st.integers(0, len(tokens) - 1))
        if op == "replace":
            tokens[at] = draw(st.sampled_from(TOKENS))
        else:
            del tokens[at]
    return index + 1, sep.join(tokens)


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_lines(work) -> dict[str, list[str]]:
    """The lines of a valid pair file and a valid corpus TSV."""
    pairs = make_pairs(np.random.default_rng(3), MlpSpec(data_dim=2, cond_dim=2, hidden=(32, 32)), 3, delta_r=0.5)
    write_dataset(str(work / "valid.pairs"), pairs)
    corpus = Corpus(["a", "b", "c"], ["hello world", "good day", "x y z"], [0.0, 0.5, 1.0],
                    np.array([[1.0, 0.25], [-2.0, 3.0], [0.5, -0.125]]))
    write_corpus(str(work / "valid.corpus"), corpus)
    return {fmt: (work / f"valid.{fmt}").read_text().splitlines() for fmt in ("pairs", "corpus")}


@pytest.mark.parametrize("fmt, read, sep", [("pairs", read_dataset, " "), ("corpus", read_corpus, "\t")])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_text_file_fails_on_its_line(work, valid_lines, fmt, read, sep, data):
    lines = valid_lines[fmt]
    lineno, new = data.draw(line_mutations(lines, sep))
    path = work / f"mutated.{fmt}"
    path.write_text("\n".join(lines[: lineno - 1] + [new] + lines[lineno:]) + "\n", encoding="utf-8")
    try:
        read(str(path))
    except ParseError as exc:
        if exc.line != lineno:
            # a header that still parses, for another width, fails at the first record
            assert (lineno, exc.line) == (1, 2), str(exc)
            path.write_text(new + "\n", encoding="utf-8")
            read(str(path))


# format -> (reader, writer, separator of line_mutations, valid contents)
TEXT_FORMATS = {
    "pairs": (read_dataset, write_dataset, " ", pair_batches(max_pairs=12).map(lambda case: case[2])),
    "corpus": (read_corpus, write_corpus, "\t", corpora(max_n=12)),
}


@pytest.mark.parametrize("fmt", TEXT_FORMATS)
def test_every_token_replacement_reads_or_fails_on_its_line(work, valid_lines, fmt):
    # each token of each line replaced by each of TOKENS
    read, _, sep, _ = TEXT_FORMATS[fmt]
    lines = valid_lines[fmt]
    path = work / f"replaced.{fmt}"
    for index, line in enumerate(lines):
        tokens = line.split(sep)
        for at in range(len(tokens)):
            for token in TOKENS:
                new = sep.join(tokens[:at] + [token] + tokens[at + 1:])
                path.write_text("\n".join(lines[:index] + [new] + lines[index + 1:]) + "\n", encoding="utf-8")
                try:
                    read(str(path))
                except ParseError as exc:
                    assert exc.line == index + 1, (new, str(exc))


@pytest.mark.parametrize("fmt", TEXT_FORMATS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_file_fails_on_its_first_bad_line(work, fmt, data):
    # a random valid file with 0-3 mutations: whatever line an error names,
    # the file cut just before that line reads
    read, write, sep, valid = TEXT_FORMATS[fmt]
    path = work / f"first_bad.{fmt}"
    write(str(path), data.draw(valid))
    lines = path.read_text(encoding="utf-8").splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        lineno, new = data.draw(line_mutations(lines, sep))
        lines[lineno - 1] = new
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        read(str(path))
    except ParseError as exc:
        assert exc.line is not None, str(exc)
        if exc.line > 1:
            path.write_text("\n".join(lines[: exc.line - 1]) + "\n", encoding="utf-8")
            read(str(path))


BAD = (math.nan, math.inf, -math.inf)


def _agree(write, read, records, path: Path, lines: list[str], name: str) -> None:
    """write refuses records, naming its row 1 as name, exactly when read refuses lines, on line 3."""
    try:
        write(str(path), records)
    except ShapeError as exc:
        refused = str(exc)
    else:
        refused = None
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        read(str(path))
    except ParseError as exc:
        assert exc.line == 3, str(exc)
        assert refused is not None and refused.startswith(f"{name} has "), (refused, str(exc))
    else:
        assert refused is None, refused


@pytest.mark.parametrize(
    "array, index, value",
    [
        *(("cond", (1, slice(None)), row) for row in ([0.5, 0.5], [1.0, 1.0], [0.0, 0.0], [2.0, 0.0],
                                                       [1.0, -0.5], [0.0, 1.0], [1.0, 0.0])),
        *(("cond", (1, 0), value) for value in BAD),
        *((array, (1, slot, 1), value) for array in ("x0", "xT") for slot in (0, 1)
          for value in (*BAD, -0.0, 5e-324, -1.7976931348623157e308)),
        *(("delta_r", (1,), value) for value in (*BAD, -1.0, -5e-324, -0.0, 0.0, 2.5)),
    ],
)
def test_pair_writer_refuses_what_the_reader_refuses(tmp_path, array, index, value):
    # row 1 of three pairs changed; formatted as the writer formats a row, it
    # fails to read exactly when the writer refuses it, and on row 1's line
    ds = make_pairs(np.random.default_rng(8), MlpSpec(data_dim=2, cond_dim=2, hidden=(3,)), 3)
    getattr(ds, array)[index] = value
    fmt = " | ".join([row_format(2, " ")] * 5 + ["%.17g"])
    rows = np.concatenate([ds.cond, ds.x0.reshape(3, 4), ds.xT.reshape(3, 4), ds.delta_r[:, None]], axis=1)
    lines = ["rfpnapo-pairs v1 dim=2 cdim=2 steps=1 refhash=test", *(fmt % tuple(row) for row in rows)]
    _agree(write_dataset, read_dataset, ds, tmp_path / "pairs.txt", lines, "pair 1")


@pytest.mark.parametrize(
    "column, index, value",
    [
        *(("ids", 1, rec_id) for rec_id in ("", "x")),
        *(("toxicity", 1, tox) for tox in (*BAD, -0.5, 1.5, -5e-324, -0.0, 0.0, 1.0)),
        *(("embeddings", (1, col), value) for col in (0, 1)
          for value in (*BAD, -0.0, 5e-324, 1.7976931348623157e308)),
    ],
)
def test_corpus_writer_refuses_what_the_reader_refuses(tmp_path, column, index, value):
    corpus = Corpus(["a", "b", "c"], ["one", "two", "three"], [0.0, 0.5, 1.0],
                    np.array([[1.0, 0.25], [-2.0, 3.0], [0.5, -0.125]]))
    getattr(corpus, column)[index] = value
    fmt = row_format(3, "\t")
    lines = ["id\ttext\ttox\te0\te1"] + [
        f"{rec_id}\t{text}\t" + fmt % (tox, *embedding)
        for rec_id, text, tox, embedding in zip(corpus.ids, corpus.texts, corpus.toxicity, corpus.embeddings)
    ]
    name = f"record {corpus.ids[1]!r}" if corpus.ids[1] else "record at row 1"
    _agree(write_corpus, read_corpus, corpus, tmp_path / "corpus.tsv", lines, name)


def _build_everything(cfg) -> None:
    """Every RunConfig builder, and the in-process checks of the train.* and corpus.* values.

    The corpus settings reach every stage's check through run_pipeline on an
    empty corpus; the train.* values reach the trainers' count check and
    optim_init, the one learning-rate check.
    """
    spec = cfg.mlp_spec()
    cfg.mixture()
    cfg.reward(spec.data_dim, spec.cond_dim)
    cfg.schedule()
    _check_run_length(cfg.get("train.steps"), cfg.get("train.batch"))
    optim_init(1, cfg.get("train.lr"))
    run_pipeline(
        Corpus([], [], np.empty(0), np.empty((0, 0))),
        *(cfg.get(f"corpus.{name}") for name in
          ("toxicity_threshold", "jaccard_threshold", "cosine_threshold", "k_clusters", "per_cluster",
           "kmeans_iters")),
        seed=cfg.get("seed"),
    )


def test_full_config_sets_every_key_and_builds(tmp_path):
    lines = FULL_CFG.splitlines()
    assert {line.split(" = ")[0] for line in lines if " = " in line} == set(_KEYS)
    path = tmp_path / "full.cfg"
    path.write_text(FULL_CFG)
    _build_everything(load_config(str(path)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_config_fails_on_its_line(work, data):
    lines = FULL_CFG.splitlines()
    lineno, new = data.draw(line_mutations(lines, " "))
    path = work / "mutated.cfg"
    path.write_text("\n".join(lines[: lineno - 1] + [new] + lines[lineno:]) + "\n")
    try:
        cfg = load_config(str(path))
    except ConfigurationError as exc:
        assert str(exc).startswith(f"{path}:{lineno}: "), str(exc)
        return
    try:
        _build_everything(cfg)
    except ConfigurationError as exc:
        assert CROSS_KEY.match(str(exc)), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_fails_or_round_trips(work, data):
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(3,))
    path = work / "mutated.ckpt"
    write_checkpoint(str(path), mlp_init(spec, 1), spec)
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans()):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    else:
        flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
        for at, mask in data.draw(st.lists(flips, min_size=1, max_size=4)):
            blob[at] ^= mask
    path.write_bytes(bytes(blob))
    try:
        params, spec2 = read_checkpoint(str(path))
    except RfpnapoError:
        return
    # whatever the reader accepts is exactly what the writer makes of it
    write_checkpoint(str(path), params, spec2)
    assert path.read_bytes() == bytes(blob)
