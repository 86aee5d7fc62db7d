"""Prompt corpus pipeline: toxicity filter, two dedup passes, clustering, resampling.

Stage order is fixed: toxicity -> token-set dedup -> embedding dedup ->
k-means -> per-cluster resampling. Both dedup passes are keep-first greedy
scans, so earlier records win ties. The token-set scan compares a record only
with kept records that share a token of its frequency-ordered prefix, whose
length comes from an exact rational bound, so it keeps exactly the records a
scan over every kept pair would. One `Corpus` of arrays flows from
read_corpus through every stage to write_corpus; the TSV's record rules live
in _record_fault, which both of them call.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, ParseError, ShapeError
from .fileio import first_fault, read_lines, read_records, row_format, write_text
from .numerics import row_dot, scale_by_peak


@dataclass
class Corpus:
    """Prompt records as arrays, one row per record.

    Row i holds a stable id, the prompt text, a toxicity score and an
    embedding; every record has the same embedding dimension d >= 0.
    """

    ids: np.ndarray  # (n,) str objects
    texts: np.ndarray  # (n,) str objects
    toxicity: np.ndarray  # (n,)
    embeddings: np.ndarray  # (n, d)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=object)
        self.texts = np.asarray(self.texts, dtype=object)
        self.toxicity = np.asarray(self.toxicity, dtype=np.float64)
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2:
            raise ShapeError(f"embeddings have shape {self.embeddings.shape}, expected (n, d)")
        n = self.embeddings.shape[0]
        for name in ("ids", "texts", "toxicity"):
            if getattr(self, name).shape != (n,):
                raise ShapeError(f"{name} has shape {getattr(self, name).shape}, expected ({n},)")

    def __len__(self) -> int:
        return self.ids.shape[0]

    def take(self, idx) -> "Corpus":
        """The records at the given row indices (or boolean mask), in that order."""
        return Corpus(self.ids[idx], self.texts[idx], self.toxicity[idx], self.embeddings[idx])


def _check_threshold(kind: str, threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError(f"{kind} threshold must lie in [0, 1], got {threshold}")


def _check_count(what: str, value: int) -> None:
    if value < 1:
        raise ConfigurationError(f"{what} must be >= 1, got {value}")


def toxicity_filter(corpus: Corpus, threshold: float) -> Corpus:
    """Keep exactly the records with toxicity <= threshold, preserving order."""
    _check_threshold("toxicity", threshold)
    return corpus.take(corpus.toxicity <= threshold)


def _token_set(text: str) -> frozenset[str]:
    return frozenset(text.lower().split())


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0  # two empty prompts are identical
    union = len(a | b)
    return len(a & b) / union


def jaccard_dedup(corpus: Corpus, threshold: float) -> Corpus:
    """Drop any record whose token-set similarity with an earlier kept one exceeds threshold.

    Kept records are indexed under a prefix of their tokens ranked by (document
    frequency, token): p = s - floor(t * s) of a set of size s, with t the
    threshold as an exact rational, and a record is compared only with kept
    records sharing one of its prefix tokens (Bayardo et al., WWW 2007). The
    decisions are those of the all-pairs scan: t is a double and rounding is
    monotone, so jaccard(a, b) > t implies an overlap above t * |a| and
    t * |b|, which puts the first shared token in both prefixes.
    """
    _check_threshold("jaccard", threshold)
    sets = [_token_set(text) for text in corpus.texts]
    freq = Counter(token for tokens in sets for token in tokens)
    rank = {token: r for r, token in enumerate(sorted(freq, key=lambda token: (freq[token], token)))}
    t = Fraction(threshold)
    index: dict[str, list[int]] = {}
    keep = np.zeros(len(sets), dtype=bool)
    kept_empty = False
    for i, tokens in enumerate(sets):
        if not tokens:  # jaccard(empty, empty) = 1.0; an empty set shares nothing else
            keep[i] = not (kept_empty and threshold < 1.0)
            kept_empty = True
            continue
        s = len(tokens)
        prefix = sorted(tokens, key=rank.__getitem__)[: s - t.numerator * s // t.denominator]
        candidates = {j for token in prefix for j in index.get(token, ())}
        if any(jaccard(tokens, sets[j]) > threshold for j in candidates):
            continue
        keep[i] = True
        for token in prefix:
            index.setdefault(token, []).append(i)
    return corpus.take(keep)


def embedding_dedup(corpus: Corpus, threshold: float) -> Corpus:
    """Drop records with cosine similarity > threshold against an earlier kept one.

    The kept unit vectors are compacted into the head of the unit-vector
    array itself (row m <= i is written only after row i is read), so each
    record is one matrix-vector product against `units[:m]`, the same BLAS
    call with the same strides as on a freshly stacked copy.

    Each row is first scaled by scale_by_peak, so the squared norm neither
    overflows nor underflows for any finite embedding, and the exact scaling
    cancels in the unit vector.
    """
    _check_threshold("cosine", threshold)
    scaled, _ = scale_by_peak(corpus.embeddings, axis=1)
    norms = np.sqrt(row_dot(scaled, scaled))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ShapeError(f"zero-norm embedding for record {corpus.ids[zero[0]]!r}")
    units = scaled / norms[:, None]
    keep = np.zeros(len(corpus), dtype=bool)
    m = 0
    for i, unit in enumerate(units):
        # a computed cosine can round above 1; capped, a threshold of 1 keeps every record
        if m and min(float(np.max(units[:m] @ unit)), 1.0) > threshold:
            continue
        keep[i] = True
        units[m] = unit
        m += 1
    return corpus.take(keep)


def squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances of every row of x to every centre.

    One centre at a time, so no (n, k, d) temporary; each sum reduces the
    same contiguous row of squares as the broadcast expression, bit for bit.
    """
    dists = np.empty((x.shape[0], centers.shape[0]))
    for j, center in enumerate(centers):
        diff = x - center
        diff *= diff
        dists[:, j] = diff.sum(axis=1)
    return dists


def lloyd_iterations(
    x: np.ndarray, k: int, iters: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Seeded k-means: weighted farthest-point init, then Lloyd updates.

    Returns (assignments, centers, objective_trace); the trace records the
    within-cluster squared distance after each assignment step and never
    increases. Empty clusters keep their previous center.
    """
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = squared_distances(x, centers[:1])[:, 0]
    for j in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = x[idx]
        d2 = np.minimum(d2, squared_distances(x, centers[j : j + 1])[:, 0])

    assignments = np.full(n, -1, dtype=np.int64)
    trace: list[float] = []
    for _ in range(iters):
        dists = squared_distances(x, centers)
        new_assignments = np.argmin(dists, axis=1)
        trace.append(float(np.sum(dists[np.arange(n), new_assignments])))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(k):
            members = x[assignments == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
    return assignments, centers, trace


def kmeans_cluster(corpus: Corpus, k: int, iters: int, seed: int) -> np.ndarray:
    """Assign each record to one of k clusters by its embedding. Deterministic per seed.

    The embeddings are first scaled by scale_by_peak over the whole array, so
    no squared distance overflows. The scaling is exact, and so the distances,
    means and farthest-point probabilities scale exactly and the assignments
    do not.
    """
    n = len(corpus)
    _check_count("cluster count", k)
    if k > n:
        raise ConfigurationError(f"cannot form {k} clusters from {n} records")
    _check_count("iteration cap", iters)
    x, _ = scale_by_peak(corpus.embeddings)
    assignments, _, _ = lloyd_iterations(x, k, iters, np.random.default_rng(seed))
    return assignments


def cluster_resample(corpus: Corpus, assignments: np.ndarray, per_cluster: int, seed: int) -> Corpus:
    """Uniformly keep min(per_cluster, size) records per cluster, without replacement.

    Output is ordered by (cluster id, original index). RNG consumption order:
    one choice call per cluster, ascending cluster id.
    """
    _check_count("per-cluster quota", per_cluster)
    assignments = np.asarray(assignments)
    if assignments.shape != (len(corpus),):
        raise ShapeError("assignments must align with records")
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    for cid in np.unique(assignments):
        members = np.flatnonzero(assignments == cid)
        chosen.extend(np.sort(rng.choice(members, size=min(per_cluster, members.size), replace=False)))
    return corpus.take(np.array(chosen, dtype=np.intp))


def run_pipeline(
    corpus: Corpus,
    toxicity_threshold: float,
    jaccard_threshold: float,
    cosine_threshold: float,
    n_clusters: int,
    per_cluster: int,
    kmeans_iters: int,
    seed: int,
) -> tuple[Corpus, dict[str, int]]:
    """Run all stages in order; returns (survivors, per-stage counts)."""
    counts = {"input": len(corpus)}
    survivors = toxicity_filter(corpus, toxicity_threshold)
    counts["after_toxicity"] = len(survivors)
    survivors = jaccard_dedup(survivors, jaccard_threshold)
    counts["after_jaccard"] = len(survivors)
    survivors = embedding_dedup(survivors, cosine_threshold)
    counts["after_cosine"] = len(survivors)
    _check_count("per-cluster quota", per_cluster)  # before k-means spends its iterations on nothing
    if len(survivors) == 0:  # nothing to cluster, but the cluster settings are still checked
        _check_count("cluster count", n_clusters)
        _check_count("iteration cap", kmeans_iters)
        counts["clusters"] = 0
        counts["output"] = 0
        return survivors, counts
    assignments = kmeans_cluster(survivors, n_clusters, kmeans_iters, seed)
    counts["clusters"] = n_clusters
    survivors = cluster_resample(survivors, assignments, per_cluster, seed)
    counts["output"] = len(survivors)
    return survivors, counts


# --- TSV format ---------------------------------------------------------------
# header: id<TAB>text<TAB>tox<TAB>e0..e{d-1}; floats carry 17 significant digits.

# the column separator and every character str.splitlines ends a line at
_UNWRITABLE = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _record_fault(ids, toxicity: np.ndarray, embeddings: np.ndarray) -> tuple[int, str] | None:
    """(row, reason) of the first record the TSV cannot hold, or None; the writer's and reader's rules.

    A record has a non-empty id, a toxicity in [0, 1] and a finite embedding.
    """
    return first_fault([
        (np.array([not rec_id for rec_id in ids], dtype=bool), lambda i: "an empty id"),
        (~((toxicity >= 0.0) & (toxicity <= 1.0)), lambda i: f"toxicity {toxicity[i]} outside [0, 1]"),
        (~np.isfinite(embeddings).all(axis=1), lambda i: "a non-finite embedding value"),
    ])


def write_corpus(path: str, corpus: Corpus) -> None:
    """Write a corpus TSV; a record read_corpus would reject raises ShapeError before any write."""
    fault = _record_fault(corpus.ids, corpus.toxicity, corpus.embeddings)
    if fault is not None:
        row, reason = fault
        who = f"record {corpus.ids[row]!r}" if corpus.ids[row] else f"record at row {row}"
        raise ShapeError(f"{who} has {reason}; not representable")
    dim = corpus.embeddings.shape[1]
    header = ["id", "text", "tox"] + [f"e{i}" for i in range(dim)]
    lines = ["\t".join(header)]
    fmt = row_format(1 + dim, "\t")
    for rec_id, text, tox, embedding in zip(
        corpus.ids, corpus.texts, corpus.toxicity.tolist(), corpus.embeddings
    ):
        if not _UNWRITABLE.isdisjoint(rec_id) or not _UNWRITABLE.isdisjoint(text):
            raise ShapeError(f"record {rec_id!r} contains a tab or line break; not representable")
        lines.append("\t".join([rec_id, text, fmt % (tox, *embedding.tolist())]))
    write_text(path, lines)


def read_corpus(path: str) -> Corpus:
    """Parse a corpus TSV; an empty file is an empty corpus with d = 0.

    fileio.read_records splits and converts the record lines, and
    _record_fault, the writer's rules, checks their values; a bad file raises
    ParseError naming its first bad line.
    """
    lines = read_lines(path, "corpus")
    if not lines:
        return Corpus([], [], np.empty(0), np.empty((0, 0)))
    header = lines[0].split("\t")
    if header[:3] != ["id", "text", "tox"]:
        raise ParseError(f"bad header columns {header[:3]}", line=1)
    dim = len(header) - 3
    if header[3:] != [f"e{i}" for i in range(dim)]:
        raise ParseError("embedding columns must be e0..e{d-1} in order", line=1)

    def split(raw: str) -> list[str]:
        cells = raw.split("\t")
        if len(cells) != 3 + dim:
            raise ValueError(f"expected {3 + dim} columns, found {len(cells)}")
        return cells

    def fault(heads: list[list[str]], values: np.ndarray) -> tuple[int, str] | None:
        return _record_fault([head[0] for head in heads], values[:, 0], values[:, 1:])

    heads, values = read_records(lines, 1 + dim, split, fault)
    return Corpus([head[0] for head in heads], [head[1] for head in heads], values[:, 0], values[:, 1:])
