"""Preference pairs: the reward -||x - centers[k]||_2, pair generation, labeling, dataset format.

Every record stores, verbatim, the prior noise that produced each candidate.
That coupling is the whole point: downstream training scores a candidate
against the exact straight path from its own stored noise, so regenerating a
sample from (noise, condition, step count) must reproduce it bit for bit.
A pair is a (2, dim) block of samples and a (2, dim) block of noises, winner
then loser, from the sampler's output to the loss. The pair file's record
rules live in _record_fault, which write_dataset and read_dataset both call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError, ParseError, RfpnapoError, ShapeError
from .fileio import first_fault, read_lines, read_records, row_format, write_text
from .numerics import MlpSpec, ParamVector, row_dot, scale_by_peak
from .rectflow import euler_sample

DATASET_TAG = "rfpnapo-pairs"
DATASET_VERSION = "v1"

# PreferenceDataset's arrays, in field order
_FIELDS = ("cond", "x0", "xT", "delta_r")


def reward_eval(centers: np.ndarray, x: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Reward of every row x[i] under condition cond[i]: -||x[i] - centers[argmax cond[i]]||_2.

    centers is (k, d), one centre per condition; x is (n, d) and cond (n, k).
    Row i is bit for bit the single-row formula, a BLAS dot under the square
    root, whatever the batch. The norm is taken of the offset as
    numerics.scale_by_peak scales it, exactly, so it overflows only where the
    reward itself does (an offset past float range); a reward that is not
    finite raises NumericError naming its row.
    """
    centers = np.asarray(centers, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    if centers.ndim != 2:
        raise ShapeError(f"reward centres have shape {centers.shape}, expected (conditions, dim)")
    k, d = centers.shape
    if cond.ndim != 2 or cond.shape[1] != k:
        raise ShapeError(f"conditions have shape {cond.shape}, reward defines {k} conditions")
    if x.shape != (cond.shape[0], d):
        raise ShapeError(f"samples have shape {x.shape}, reward expects ({cond.shape[0]}, {d})")
    # an overflow is reported below, with its row
    with np.errstate(over="ignore", invalid="ignore"):
        scaled, exp = scale_by_peak(x - centers[np.argmax(cond, axis=1)], axis=1)
        rewards = -np.ldexp(np.sqrt(row_dot(scaled, scaled)), exp)
    finite = np.isfinite(rewards)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericError(f"reward of sample row {i} is {rewards[i]}, not a finite number")
    return rewards


@dataclass(frozen=True)
class DatasetHeader:
    dim: int
    cond_dim: int
    steps: int
    ref_hash: str

    def __post_init__(self):
        if self.dim < 1 or self.cond_dim < 1 or self.steps < 1:
            raise ShapeError("header dims and steps must be >= 1")
        if not self.ref_hash or any(ch.isspace() for ch in self.ref_hash):
            raise ShapeError("reference hash must be a non-empty token")


@dataclass
class PreferenceDataset:
    """Labeled pairs as arrays, one row per pair.

    Row i holds the condition, the samples x0[i] and the prior noises xT[i]
    that produced them (xT[i, j] produced x0[i, j]), and the (non-negative)
    reward gap. Axis 1 of x0 and xT is ordered winner then loser.
    """

    header: DatasetHeader
    cond: np.ndarray  # (n, cond_dim) one-hot
    x0: np.ndarray  # (n, 2, dim) samples, winner then loser
    xT: np.ndarray  # (n, 2, dim) prior noises, winner then loser
    delta_r: np.ndarray  # (n,) reward gaps

    def __post_init__(self):
        for name in _FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n, h = (self.delta_r.shape[0] if self.delta_r.ndim else 0), self.header
        expected = {"cond": (n, h.cond_dim), "x0": (n, 2, h.dim), "xT": (n, 2, h.dim), "delta_r": (n,)}
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        ok = np.isfinite(self.delta_r) & (self.delta_r >= 0.0)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ShapeError(f"pair {i} has preference gap {self.delta_r[i]}, not a finite number >= 0")

    def __len__(self) -> int:
        return self.delta_r.shape[0]

    def take(self, idx) -> "PreferenceDataset":
        """The pairs at the given row indices, in that order."""
        return PreferenceDataset(self.header, *(getattr(self, name)[idx] for name in _FIELDS))


def label_pairs(
    centers: np.ndarray, header: DatasetHeader, cond: np.ndarray, x0: np.ndarray, xT: np.ndarray
) -> PreferenceDataset:
    """Order each candidate pair by reward. Ties keep the first candidate as winner.

    Args:
        centers: (cond_dim, dim) reward centres, as reward_eval takes them.
        cond: (n, cond_dim) conditions.
        x0, xT: (n, 2, dim) samples and their prior noises, candidates A then B.

    Both rewards are finite and at most 0, so their gap is a finite number.
    """
    rewards = reward_eval(centers, x0.reshape(-1, header.dim), np.repeat(cond, 2, axis=0))
    ra, rb = rewards[0::2], rewards[1::2]
    swap = ra < rb
    return PreferenceDataset(
        header,
        cond,
        x0=np.where(swap[:, None, None], x0[:, ::-1], x0),
        xT=np.where(swap[:, None, None], xT[:, ::-1], xT),
        delta_r=np.abs(ra - rb),
    )


def build_dataset(
    ref_params: ParamVector,
    spec: MlpSpec,
    centers: np.ndarray,
    steps: int,
    n_records: int,
    base_seed: int,
    ref_hash: str,
) -> PreferenceDataset:
    """Generate n_records labeled pairs from the frozen reference model.

    Record i draws from default_rng(base_seed + i), in order: the condition,
    noise A, noise B. All 2 * n_records noises are then decoded in one batch of
    `steps` Euler steps; the sampler is batch-invariant, so record i is a pure
    function of its seed.
    """
    if n_records < 0:
        raise ConfigurationError(f"record count must be >= 0, got {n_records}")
    if np.shape(centers) != (spec.cond_dim, spec.data_dim):
        raise ShapeError(
            f"reward centres shape {np.shape(centers)} does not match model "
            f"({spec.cond_dim}, {spec.data_dim})"
        )
    ks = np.empty(n_records, dtype=np.int64)
    noises = np.empty((n_records, 2, spec.data_dim))
    for i in range(n_records):
        rng = np.random.default_rng(base_seed + i)
        ks[i] = rng.integers(spec.cond_dim)
        noises[i] = rng.standard_normal((2, spec.data_dim))
    conds = np.eye(spec.cond_dim)[ks]
    samples = euler_sample(
        ref_params, spec, noises.reshape(-1, spec.data_dim), np.repeat(conds, 2, axis=0), steps
    ).reshape(noises.shape)
    header = DatasetHeader(dim=spec.data_dim, cond_dim=spec.cond_dim, steps=steps, ref_hash=ref_hash)
    return label_pairs(centers, header, conds, samples, noises)


def audit_dataset(dataset: PreferenceDataset, ref_params: ParamVector, spec: MlpSpec) -> float:
    """Replay every stored noise in one batch and return the max |stored - replayed|.

    0.0 means every stored sample replays exactly. Any non-finite stored
    sample or noise makes the deviation infinite, never 0.0. An empty dataset
    replays too, so one whose dims are not the model's raises ShapeError.
    """
    stored, noises = (pairs.reshape(-1, dataset.header.dim) for pairs in (dataset.x0, dataset.xT))
    if not (np.all(np.isfinite(stored)) and np.all(np.isfinite(noises))):
        return math.inf
    conds = np.repeat(dataset.cond, 2, axis=0)
    replayed = euler_sample(ref_params, spec, noises, conds, dataset.header.steps)
    return float(np.max(np.abs(stored - replayed), initial=0.0))


# --- text format --------------------------------------------------------------
# line 1: rfpnapo-pairs v1 dim=<d> cdim=<k> steps=<s> refhash=<hex>
# then one record per line, six " | "-separated fields:
# cond | winner x0 | loser x0 | winner xT | loser xT | delta_r   (vectors space-separated, 17 digits)


def _record_fault(
    cond: np.ndarray, x0: np.ndarray, xT: np.ndarray, delta_r: np.ndarray
) -> tuple[int, str] | None:
    """(row, reason) of the first pair the file cannot hold, or None; the writer's and reader's rules.

    A gap is a number >= 0, every value is finite, and a condition is one-hot:
    rewards pick the condition by argmax, so anything else is ambiguous.
    """
    fields = {"cond": cond, "winner x0": x0[:, 0], "loser x0": x0[:, 1], "winner xT": xT[:, 0],
              "loser xT": xT[:, 1], "delta_r": delta_r[:, None]}
    one_hot = ((cond == 0.0) | (cond == 1.0)).all(axis=1) & (cond.sum(axis=1) == 1.0)
    return first_fault([
        # first, so a NaN gap is named as a gap; an infinite one is named non-finite below
        (~(delta_r >= 0.0), lambda i: f"preference gap {delta_r[i]}, not a number >= 0"),
        *((~np.isfinite(value).all(axis=1), lambda i, name=name: f"a non-finite {name} value")
          for name, value in fields.items()),
        (~one_hot, lambda i: "a condition that is not one-hot"),
    ])


def write_dataset(path: str, dataset: PreferenceDataset) -> None:
    """Write the pair file; a pair read_dataset would reject raises ShapeError before any write.

    The dataclass is mutable, so its arrays are checked here, not trusted.
    """
    fault = _record_fault(dataset.cond, dataset.x0, dataset.xT, dataset.delta_r)
    if fault is not None:
        raise ShapeError(f"pair {fault[0]} has {fault[1]}; not representable")
    h, n = dataset.header, len(dataset)
    lines = [
        f"{DATASET_TAG} {DATASET_VERSION} dim={h.dim} cdim={h.cond_dim} "
        f"steps={h.steps} refhash={h.ref_hash}"
    ]
    fmt = " | ".join([row_format(h.cond_dim, " "), *[row_format(h.dim, " ")] * 4, "%.17g"])
    # widths spelled out, so an empty dataset flattens too
    pairs = [dataset.x0.reshape(n, 2 * h.dim), dataset.xT.reshape(n, 2 * h.dim)]
    values = np.concatenate([dataset.cond, *pairs, dataset.delta_r[:, None]], axis=1)
    lines.extend(fmt % tuple(row) for row in values.tolist())
    write_text(path, lines)


def read_dataset(path: str) -> PreferenceDataset:
    """Parse a pair file; a bad file raises ParseError naming its first bad line.

    fileio.read_records splits and converts the record lines, and
    _record_fault, the writer's rules, checks their values.
    """
    lines = read_lines(path, "pair dataset")
    if not lines:
        raise ParseError("empty dataset file", line=1)
    tokens = lines[0].split()
    if len(tokens) != 6 or tokens[0] != DATASET_TAG or tokens[1] != DATASET_VERSION:
        raise ParseError(f"bad dataset header {lines[0]!r}", line=1)
    values: dict[str, str] = {}
    for tok, key in zip(tokens[2:], ("dim", "cdim", "steps", "refhash")):
        prefix = key + "="
        if not tok.startswith(prefix):
            raise ParseError(f"expected {key}=..., found {tok!r}", line=1)
        values[key] = tok[len(prefix):]
    try:
        header = DatasetHeader(
            dim=int(values["dim"]),
            cond_dim=int(values["cdim"]),
            steps=int(values["steps"]),
            ref_hash=values["refhash"],
        )
    except (ValueError, RfpnapoError) as exc:
        raise ParseError(f"bad dataset header: {exc}", line=1) from None
    k, d = header.cond_dim, header.dim
    widths = [k, d, d, d, d, 1]

    def split(raw: str) -> list[str]:
        fields = raw.split(" | ")
        if len(fields) != len(widths):
            raise ValueError(f"expected {len(widths)} fields, found {len(fields)}")
        tokens = []
        for field, width in zip(fields, widths):
            numbers = field.split()
            if len(numbers) != width:
                raise ValueError(f"expected {width} numbers, found {len(numbers)}")
            tokens += numbers
        return tokens

    def columns(matrix: np.ndarray) -> tuple[np.ndarray, ...]:
        # a row is cond | x0 winner, loser | xT winner, loser | gap
        pairs = matrix[:, k:-1].reshape(-1, 2, 2, d)
        return matrix[:, :k], pairs[:, 0], pairs[:, 1], matrix[:, -1]

    _, matrix = read_records(lines, sum(widths), split, lambda _, rows: _record_fault(*columns(rows)))
    return PreferenceDataset(header, *columns(matrix))
