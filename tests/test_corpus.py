from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpora
from rfpnapo import corpus as corpus_module
from rfpnapo.corpus import (
    Corpus,
    cluster_resample,
    embedding_dedup,
    jaccard,
    jaccard_dedup,
    kmeans_cluster,
    lloyd_iterations,
    read_corpus,
    run_pipeline,
    squared_distances,
    toxicity_filter,
    write_corpus,
)
from rfpnapo.errors import ConfigurationError, ParseError, ShapeError


def _rec(i: int, text: str = "hello world", tox: float = 0.0, emb=None) -> tuple:
    if emb is None:
        emb = np.array([1.0, 0.0]) * (1.0 + i)
    return (f"p{i}", text, tox, emb)


def _corpus(rows: list[tuple]) -> Corpus:
    """A Corpus from (id, text, toxicity, embedding) rows of one dimension."""
    ids, texts, tox, embs = zip(*rows)
    return Corpus(list(ids), list(texts), list(tox), np.array(embs, dtype=np.float64))


def test_toxicity_filter_keeps_boundary():
    records = [_rec(0, tox=0.05), _rec(1, tox=0.1), _rec(2, tox=0.10001), _rec(3, tox=0.5)]
    kept = toxicity_filter(_corpus(records), 0.1)
    assert list(kept.ids) == ["p0", "p1"]


def test_jaccard_examples():
    a = frozenset("the cat sat".split())
    assert jaccard(a, a) == 1.0
    assert jaccard(a, frozenset("dog ran fast".split())) == 0.0
    assert jaccard(frozenset(), frozenset()) == 1.0
    b = frozenset("the cat ran".split())
    assert jaccard(a, b) == pytest.approx(2.0 / 4.0)


def test_jaccard_dedup_keeps_first_of_pair():
    records = [
        _rec(0, text="the quick brown fox"),
        _rec(1, text="the quick brown fox"),  # exact duplicate -> dropped
        _rec(2, text="an unrelated sentence entirely"),
    ]
    kept = jaccard_dedup(_corpus(records), 0.8)
    assert list(kept.ids) == ["p0", "p2"]


def test_jaccard_dedup_threshold_is_strict():
    # overlap exactly at the threshold survives (drop only when strictly above)
    records = [
        _rec(0, text="a b c d e"),
        _rec(1, text="a b c d f"),  # jaccard 4/6 = 0.667
    ]
    assert len(jaccard_dedup(_corpus(records), 4.0 / 6.0)) == 2
    assert len(jaccard_dedup(_corpus(records), 0.6)) == 1


@pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
def test_jaccard_dedup_rejects_threshold_outside_unit_interval(threshold):
    # below 0, records sharing no token would compare 0 > t and drop
    with pytest.raises(ConfigurationError, match="jaccard threshold"):
        jaccard_dedup(_corpus([_rec(0), _rec(1, text="other words")]), threshold)


def _tokens(text: str) -> frozenset[str]:
    return frozenset(text.lower().split())


def _pairwise_dedup(texts: list[str], threshold: float) -> list[int]:
    """The keep-first scan that compares each record with every kept one.

    Returns the kept row indices.
    """
    kept: list[int] = []
    kept_tokens: list[frozenset[str]] = []
    for i, text in enumerate(texts):
        tokens = _tokens(text)
        if any(jaccard(tokens, seen) > threshold for seen in kept_tokens):
            continue
        kept.append(i)
        kept_tokens.append(tokens)
    return kept


@st.composite
def dedup_cases(draw) -> tuple[list[str], float]:
    """0-40 texts over at most 12 tokens, and a threshold in [0, 1].

    Texts include empty ones, repeated tokens and mixed case. About half are
    an earlier text with a word appended. The threshold is a small-integer
    ratio o/u or a float next to it, or 0.0 or 1.0; the ratio is mostly the
    similarity of such a text and its source, so a near-duplicate pair sits
    exactly at the threshold or one float either side of it.
    """
    vocab = draw(st.lists(st.text("abcAB", min_size=1, max_size=2), min_size=1, max_size=12, unique=True))
    word = st.sampled_from(vocab)
    texts: list[str] = []
    ratios: list[float] = []
    for _ in range(draw(st.integers(0, 40))):
        if texts and draw(st.booleans()):
            source = draw(st.sampled_from(texts))
            texts.append(f"{source} {draw(word)}".strip())
            ratios.append(jaccard(_tokens(source), _tokens(texts[-1])))
        else:
            texts.append(" ".join(draw(st.lists(word, max_size=14))))
    if ratios and draw(st.booleans()):
        ratio = draw(st.sampled_from(ratios))
    else:
        u = draw(st.integers(1, 12))
        ratio = draw(st.integers(0, u)) / u
    t = draw(st.sampled_from([ratio, np.nextafter(ratio, -np.inf), np.nextafter(ratio, np.inf), 0.0, 1.0]))
    return texts, min(max(float(t), 0.0), 1.0)


@settings(max_examples=300, deadline=None)
@given(case=dedup_cases())
# 9/10 rounds to 0.9 > t, but t * 10 rounds to 9.0: a float prefix bound
# indexes one token too few and keeps both
@example(case=(["a b c d e f g h i", "a b c d e f g h i z"], 0.8999999999999999))
def test_jaccard_dedup_keeps_the_rows_of_the_pairwise_scan(case):
    texts, threshold = case
    n = len(texts)
    corpus = Corpus([f"p{i}" for i in range(n)], texts, np.zeros(n), np.empty((n, 0)))
    kept = jaccard_dedup(corpus, threshold)
    assert list(kept.ids) == [f"p{i}" for i in _pairwise_dedup(texts, threshold)]


def test_embedding_dedup_orthogonal_vs_parallel():
    records = [
        _rec(0, emb=[1.0, 0.0]),
        _rec(1, emb=[0.0, 1.0]),  # cosine 0, kept
        _rec(2, emb=[2.0, 0.0]),  # cosine 1 with p0, dropped
    ]
    kept = embedding_dedup(_corpus(records), 0.8)
    assert list(kept.ids) == ["p0", "p1"]


def test_embedding_dedup_at_threshold_one_keeps_identical_embeddings():
    # the computed cosine of [1, 1, 1] with itself is 1.0000000000000002; a
    # cosine is at most 1, so a threshold of 1 keeps both, as Jaccard does
    records = [_rec(0, emb=[1.0, 1.0, 1.0]), _rec(1, text="other words", emb=[1.0, 1.0, 1.0])]
    kept = embedding_dedup(_corpus(records), 1.0)
    assert list(kept.ids) == ["p0", "p1"]


def test_embedding_dedup_zero_norm_is_an_error():
    records = [_rec(0), _rec(1, emb=[0.0, 0.0])]
    with pytest.raises(ShapeError, match="p1"):
        embedding_dedup(_corpus(records), 0.8)


def test_embedding_dedup_scales_rows_at_the_ends_of_the_finite_range():
    # a squared norm overflows above |e| of about 1.3e154 and underflows below
    # about 1e-162; scaled by a power of two first, all three rows are [1, 0]
    # and so duplicates of the first, and the subnormal row is [0, 1]
    records = [
        _rec(0, emb=[1e200, 0.0]),
        _rec(1, emb=[2e200, 0.0]),
        _rec(2, emb=[1e-200, 0.0]),
        _rec(3, emb=[0.0, 5e-324]),
    ]
    kept = embedding_dedup(_corpus(records), 0.8)
    assert list(kept.ids) == ["p0", "p3"]


def test_embedding_dedup_all_zero_rows_still_raise():
    records = [_rec(0, emb=[0.0, -0.0]), _rec(1, emb=[-0.0, 0.0])]
    with pytest.raises(ShapeError, match="zero-norm embedding for record 'p0'"):
        embedding_dedup(_corpus(records), 0.8)


def test_kmeans_rejects_bad_counts():
    records = [_rec(i, emb=np.random.default_rng(i).standard_normal(2)) for i in range(3)]
    with pytest.raises(ConfigurationError):
        kmeans_cluster(_corpus(records), k=4, iters=5, seed=0)
    with pytest.raises(ConfigurationError):
        kmeans_cluster(_corpus(records), k=0, iters=5, seed=0)
    with pytest.raises(ConfigurationError):
        kmeans_cluster(_corpus(records), k=2, iters=0, seed=0)


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(17)
    centers = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
    truth = []
    records = []
    for i in range(90):
        c = i % 3
        truth.append(c)
        records.append(_rec(i, emb=centers[c] + 0.1 * rng.standard_normal(2)))
    assignments = kmeans_cluster(_corpus(records), k=3, iters=30, seed=1)
    # same ground-truth blob -> same label, different blob -> different label
    for i in range(90):
        for j in range(i + 1, 90):
            same = assignments[i] == assignments[j]
            assert same == (truth[i] == truth[j])


def test_lloyd_objective_trace_nonincreasing():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((60, 3))
        _, _, trace = lloyd_iterations(x, k=4, iters=25, rng=np.random.default_rng(seed + 100))
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 5), k=st.integers(1, 6),
       power=st.integers(-1000, 1000), seed=st.integers(0, 2**32 - 1))
@example(n=40, d=3, k=4, power=600, seed=0)
@example(n=40, d=3, k=4, power=-600, seed=0)
def test_kmeans_assignments_ignore_a_power_of_two_scale(n, d, k, power, seed):
    # every magnitude lies in [2^-8, 2^8], so every entry scaled by 2^power
    # with |power| <= 1000 is a normal float and the scaling is exact; the
    # squares of the unscaled k-means overflow at 2^600 and underflow at 2^-600
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size=(n, d)) * np.exp2(rng.uniform(-8.0, 8.0, size=(n, d)))
    k = min(k, n)
    records = [_rec(i, emb=row) for i, row in enumerate(x)]
    scaled = [_rec(i, emb=np.ldexp(row, power)) for i, row in enumerate(x)]
    expected = kmeans_cluster(_corpus(records), k=k, iters=20, seed=seed)
    assert np.array_equal(kmeans_cluster(_corpus(scaled), k=k, iters=20, seed=seed), expected)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), k=st.integers(1, 6), d=st.integers(0, 300),
       scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e150]), seed=st.integers(0, 2**32 - 1))
def test_squared_distances_are_the_broadcast_expression(n, k, d, scale, seed):
    # d up to 300 crosses numpy's pairwise-summation blocks; the extreme scales
    # underflow to subnormals and come near the largest double
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * scale
    centers = rng.standard_normal((k, d)) * scale
    # the (n, k, d) broadcast lloyd_iterations used before, kept as the reference
    reference = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    assert squared_distances(x, centers).tobytes() == reference.tobytes()


def test_cluster_resample_quota_and_order():
    records = [_rec(i, emb=[float(i), 0.0]) for i in range(10)]
    assignments = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    out = cluster_resample(_corpus(records), assignments, per_cluster=3, seed=5)
    assert len(out) == 6
    ids = list(out.ids)
    # cluster 0 members precede cluster 1 members, original order within
    first, second = ids[:3], ids[3:]
    assert all(i in {"p0", "p1", "p2", "p3", "p4"} for i in first)
    assert all(i in {"p5", "p6", "p7", "p8", "p9"} for i in second)
    assert first == sorted(first, key=lambda s: int(s[1:]))
    assert second == sorted(second, key=lambda s: int(s[1:]))
    # quota above cluster size keeps everything
    out_all = cluster_resample(_corpus(records), assignments, per_cluster=50, seed=5)
    assert list(out_all.ids) == [r[0] for r in records]
    # deterministic under the same seed
    again = cluster_resample(_corpus(records), assignments, per_cluster=3, seed=5)
    assert list(again.ids) == ids


@settings(max_examples=80, deadline=None)
@given(corpus=corpora())
@example(corpus=Corpus(["a1", "b2"], ["draw a cat", "čšž unicode prompt"], [0.03, 0.0],
                       [[0.1, -0.2, 0.7], [1e-17, 2.0, -3.5]]))
@example(corpus=Corpus(["z"], ["ž"], [1.0], [[-0.0, 5e-324, -2.2250738585072014e-308]]))
def test_corpus_round_trip_exact(tmp_path_factory, corpus):
    path = str(tmp_path_factory.getbasetemp() / "round_trip.tsv")
    write_corpus(path, corpus)
    back = read_corpus(path)
    assert list(back.ids) == list(corpus.ids)
    assert list(back.texts) == list(corpus.texts)
    assert back.toxicity.tobytes() == corpus.toxicity.tobytes()
    assert back.embeddings.shape == corpus.embeddings.shape
    assert back.embeddings.tobytes() == corpus.embeddings.tobytes()


def test_empty_corpus_round_trip(tmp_path):
    path = str(tmp_path / "empty.tsv")
    write_corpus(path, Corpus([], [], np.empty(0), np.empty((0, 4))))
    back = read_corpus(path)
    assert len(back) == 0 and back.embeddings.shape == (0, 4)


def test_corpus_rejects_tabs_in_text(tmp_path):
    # a tab splits a column and every character splitlines breaks on ends
    # the line, so the reader could not get the record back
    breaks = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1]
    assert {"\r", "\x0c", "\x85", "\u2028"} <= set(breaks)
    path = tmp_path / "bad.tsv"
    for bad in ["\t", *breaks]:
        for rec_id, text in ((f"x{bad}", "ok"), ("x", f"has{bad}break")):
            with pytest.raises(ShapeError):
                write_corpus(str(path), _corpus([(rec_id, text, 0.0, np.ones(2))]))
            assert not path.exists()


@pytest.mark.parametrize(
    "row, message",
    [
        (("", "ok", 0.0, [1.0, 2.0]), "row 1 has an empty id"),
        *((("x", "ok", tox, [1.0, 2.0]), "'x' has toxicity") for tox in (-0.5, 1.5, np.nan, np.inf)),
        *((("x", "ok", 0.0, [1.0, v]), "'x' has a non-finite embedding") for v in (np.nan, np.inf, -np.inf)),
    ],
)
def test_corpus_writer_rejects_what_the_reader_rejects(tmp_path, row, message):
    # each of these rows read_corpus refuses, so writing one would leave a
    # file that cannot be read back
    path = tmp_path / "bad.tsv"
    with pytest.raises(ShapeError, match=message):
        write_corpus(str(path), _corpus([_rec(0, emb=[1.0, 2.0]), row]))
    assert list(tmp_path.iterdir()) == []


def test_corpus_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("id\ttext\ttox\te0\te1\nr1\tok\t0.5\t1.0\t2.0\nr2\tbad\tnot_a_float\t1\t2\n")
    with pytest.raises(ParseError, match="line 3"):
        read_corpus(str(path))
    path.write_text("wrong\theader\n")
    with pytest.raises(ParseError, match="line 1"):
        read_corpus(str(path))
    path.write_text("id\ttext\ttox\te0\nr1\tok\t1.5\t0.0\n")  # toxicity outside [0,1]
    with pytest.raises(ParseError, match="line 2"):
        read_corpus(str(path))
    path.write_text("id\ttext\ttox\te0\nr1\tok\t0.5\n")  # missing column
    with pytest.raises(ParseError, match="line 2"):
        read_corpus(str(path))
    for value in ("nan", "inf", "-inf"):  # non-finite embedding entry
        path.write_text(f"id\ttext\ttox\te0\te1\nr1\tok\t0.5\t1.0\t2.0\nr2\tok\t0.5\t1.0\t{value}\n")
        with pytest.raises(ParseError, match="line 3: non-finite"):
            read_corpus(str(path))


def _stacked_dedup(embeddings: np.ndarray, threshold: float) -> tuple[list[int], list[float]]:
    """The per-record loop that re-stacks every kept unit vector.

    Returns the kept row indices and the largest cosine each later record
    was compared at.
    """
    units = [e / float(np.linalg.norm(e)) for e in embeddings]
    kept: list[int] = []
    kept_units: list[np.ndarray] = []
    maxima: list[float] = []
    for i, unit in enumerate(units):
        if kept_units:
            maxima.append(float(np.max(np.stack(kept_units) @ unit)))
            if min(maxima[-1], 1.0) > threshold:
                continue
        kept.append(i)
        kept_units.append(unit)
    return kept, maxima


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 40),
    d=st.sampled_from([1, 2, 3, 5, 16, 33, 240]),
    seed=st.integers(0, 2**32 - 1),
    pick=st.floats(0.0, 1.0),
    below=st.booleans(),
)
def test_embedding_dedup_keeps_the_rows_of_the_stacked_loop(n, d, seed, pick, below):
    # near-duplicates of earlier rows put cosines close to 1. The threshold is
    # a cosine in [0, 1] the loop itself compared, or the float just below it,
    # so a comparison whose bits moved by one ulp either way flips a decision.
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, d))
    for i in range(1, n):
        if rng.random() < 0.5:
            emb[i] = rng.uniform(0.1, 3.0) * emb[rng.integers(i)] + rng.uniform(0.0, 0.3) * rng.standard_normal(d)
    _, maxima = _stacked_dedup(emb, 1.0)  # keeps all: every comparison is recorded
    maxima = [m for m in maxima if 0.0 <= m <= 1.0]  # the others are no threshold
    threshold = maxima[int(pick * (len(maxima) - 1))] if maxima else pick
    if below and threshold > 0.0:
        threshold = float(np.nextafter(threshold, -np.inf))
    corpus = Corpus([f"p{i}" for i in range(n)], [""] * n, np.zeros(n), emb)
    kept = embedding_dedup(corpus, threshold)
    assert list(kept.ids) == [f"p{i}" for i in _stacked_dedup(emb, threshold)[0]]


@pytest.mark.parametrize("stage", [toxicity_filter, embedding_dedup])
@pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
def test_threshold_stages_reject_threshold_outside_unit_interval(stage, threshold):
    kind = "toxicity" if stage is toxicity_filter else "cosine"
    with pytest.raises(ConfigurationError, match=f"{kind} threshold"):
        stage(_corpus([_rec(0), _rec(1, text="other words")]), threshold)


def test_pipeline_counts_small():
    records = []
    # 6 clean, 2 toxic, 1 exact text dup, 1 embedding dup
    base_texts = [f"unique prompt number {i} with words {i * 7}" for i in range(6)]
    # pairwise angles differ by >= 0.7 rad -> all pairwise cosines <= 0.765 < 0.8
    embs = [np.array([np.cos(a), np.sin(a)]) for a in np.arange(6) * 0.7]
    for i in range(6):
        records.append((f"c{i}", base_texts[i], 0.02, embs[i]))
    records.append(("t0", "some toxic text one", 0.9, np.array([0.5, -0.5])))
    records.append(("t1", "other toxic text two", 0.2, np.array([-0.5, 0.5])))
    records.append(("d0", base_texts[0], 0.01, np.array([-1.0, -1.0])))
    records.append(("e0", "completely fresh words here", 0.01, 3.0 * embs[2]))
    survivors, counts = run_pipeline(_corpus(records), 0.1, 0.8, 0.8, 2, 3, 10, seed=9)
    assert counts["input"] == 10
    assert counts["after_toxicity"] == 8
    assert counts["after_jaccard"] == 7
    assert counts["after_cosine"] == 6
    assert counts["clusters"] == 2
    assert counts["output"] == len(survivors) <= 6


def test_pipeline_empty_input():
    empty = Corpus([], [], np.empty(0), np.empty((0, 3)))
    survivors, counts = run_pipeline(empty, 0.1, 0.8, 0.8, 100, 200, 50, seed=0)
    assert len(survivors) == 0 and survivors.embeddings.shape == (0, 3)
    assert counts == {
        "input": 0,
        "after_toxicity": 0,
        "after_jaccard": 0,
        "after_cosine": 0,
        "clusters": 0,
        "output": 0,
    }


def test_pipeline_config_validation():
    # each setting out of range is rejected by the stage that uses it, and on
    # an empty corpus, where no cluster stage runs, all the same
    valid = (0.1, 0.8, 0.8, 1, 200, 50)
    bad = [(0, 1.5), (0, float("nan")), (1, -0.1), (1, float("nan")), (2, 1.01), (2, float("nan")),
           (3, 0), (4, 0), (5, 0)]
    full = _corpus([_rec(i, text=f"words of prompt {i}") for i in range(3)])
    for corpus in (full, Corpus([], [], np.empty(0), np.empty((0, 2)))):
        run_pipeline(corpus, *valid, seed=0)
        for at, value in bad:
            values = list(valid)
            values[at] = value
            with pytest.raises(ConfigurationError):
                run_pipeline(corpus, *values, seed=0)


def test_pipeline_rejects_per_cluster_quota_before_kmeans(monkeypatch):
    # a quota of 0 can keep no record, so k-means must not run before it is refused
    def unreachable(*args, **kwargs):
        raise AssertionError("k-means ran before the per-cluster quota was checked")

    monkeypatch.setattr(corpus_module, "lloyd_iterations", unreachable)
    corpus = _corpus([_rec(i, text=f"words of prompt {i}") for i in range(3)])
    with pytest.raises(ConfigurationError, match="per-cluster quota"):
        run_pipeline(corpus, 0.1, 0.8, 0.8, 2, 0, 50, seed=0)
