"""Preference pairs: analytic rewards, pair generation, labeling, dataset format.

Every record stores, verbatim, the prior noise that produced each candidate.
That coupling is the whole point: downstream training scores a candidate
against the exact straight path from its own stored noise, so regenerating a
sample from (noise, condition, sampler settings) must reproduce it bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, ParseError, RfpnapoError, ShapeError
from .fileio import fmt17, read_text, write_text
from .numerics import MlpSpec, ParamVector, row_dot
from .rectflow import SamplerConfig, euler_sample, one_hot

REWARD_KINDS = ("mode_distance", "quadratic_bowl", "direction_dot")

DATASET_TAG = "rfpnapo-pairs"
DATASET_VERSION = "v1"

# PreferenceDataset's arrays, in field order; also the order of a record line's fields
_FIELDS = ("cond", "x0w", "x0l", "xTw", "xTl", "delta_r")


@dataclass(frozen=True)
class RewardSpec:
    """Analytic reward: kind plus one parameter vector per condition.

    kind:
        mode_distance  -> reward = -||x - params[k]||_2
        quadratic_bowl -> reward = -||x - params[k]||_2^2
        direction_dot  -> reward = <params[k], x>
    """

    kind: str
    params: np.ndarray  # (n_conditions, data_dim)

    def __post_init__(self):
        if self.kind not in REWARD_KINDS:
            raise ConfigurationError(f"unknown reward kind {self.kind!r}")
        object.__setattr__(self, "params", np.asarray(self.params, dtype=np.float64))
        if self.params.ndim != 2:
            raise ShapeError("reward params must be (n_conditions, data_dim)")


def reward_eval(rspec: RewardSpec, x: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Reward of every row x[i] under condition cond[i]: (n, d), (n, k) -> (n,).

    Row i is bit for bit the single-row formula of the RewardSpec docstring
    (a BLAS dot for norms and inner products), whatever the batch.
    """
    x = np.asarray(x, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    k, d = rspec.params.shape
    if cond.ndim != 2 or cond.shape[1] != k:
        raise ShapeError(f"conditions have shape {cond.shape}, reward defines {k} conditions")
    if x.shape != (cond.shape[0], d):
        raise ShapeError(f"samples have shape {x.shape}, reward expects ({cond.shape[0]}, {d})")
    target = rspec.params[np.argmax(cond, axis=1)]
    if rspec.kind == "direction_dot":
        return row_dot(target, x)
    delta = x - target
    if rspec.kind == "mode_distance":
        return -np.sqrt(row_dot(delta, delta))
    return -row_dot(delta, delta)


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

    Row i holds the condition, the winner and loser samples, the prior noise
    that produced each of them, and the (non-negative) reward gap.
    """

    header: DatasetHeader
    cond: np.ndarray  # (n, cond_dim) one-hot
    x0w: np.ndarray  # (n, dim) winner samples
    x0l: np.ndarray  # (n, dim) loser samples
    xTw: np.ndarray  # (n, dim) winner prior noises
    xTl: np.ndarray  # (n, dim) loser prior noises
    delta_r: np.ndarray  # (n,) reward gaps

    def __post_init__(self):
        for name in _FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n, h = (self.delta_r.shape[0] if self.delta_r.ndim else 0), self.header
        expected = {"cond": (n, h.cond_dim), "delta_r": (n,)}
        for name in _FIELDS:
            shape = expected.get(name, (n, h.dim))
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        if not np.all(np.isfinite(self.delta_r) & (self.delta_r >= 0.0)):
            raise DataError("preference gaps must be finite and >= 0")

    def __len__(self) -> int:
        return self.delta_r.shape[0]

    def take(self, idx) -> "PreferenceDataset":
        """The pairs at the given row indices, in that order."""
        return PreferenceDataset(self.header, *(getattr(self, name)[idx] for name in _FIELDS))


def label_pairs(
    rspec: RewardSpec, header: DatasetHeader, cond: np.ndarray, x0: np.ndarray, xT: np.ndarray
) -> PreferenceDataset:
    """Order each candidate pair by reward. Ties keep the first candidate as winner.

    Args:
        cond: (n, cond_dim) conditions.
        x0, xT: (n, 2, dim) samples and their prior noises, candidates A then B.
    """
    rewards = reward_eval(rspec, x0.reshape(-1, header.dim), np.repeat(cond, 2, axis=0))
    ra, rb = rewards[0::2], rewards[1::2]
    a_wins = (ra >= rb)[:, None]
    return PreferenceDataset(
        header,
        cond,
        x0w=np.where(a_wins, x0[:, 0], x0[:, 1]),
        x0l=np.where(a_wins, x0[:, 1], x0[:, 0]),
        xTw=np.where(a_wins, xT[:, 0], xT[:, 1]),
        xTl=np.where(a_wins, xT[:, 1], xT[:, 0]),
        delta_r=np.where(a_wins[:, 0], ra - rb, rb - ra),
    )


def build_dataset(
    ref_params: ParamVector,
    spec: MlpSpec,
    rspec: RewardSpec,
    sampler_cfg: SamplerConfig,
    n_records: int,
    base_seed: int,
    ref_hash: str,
) -> PreferenceDataset:
    """Generate n_records labeled pairs from the frozen reference model.

    Record i draws from default_rng(base_seed + i), in order: the condition,
    noise A, noise B. All 2 * n_records noises are then sampled in one batch;
    the sampler is batch-invariant, so record i is a pure function of its seed.
    """
    if n_records < 0:
        raise ConfigurationError(f"record count must be >= 0, got {n_records}")
    if rspec.params.shape != (spec.cond_dim, spec.data_dim):
        raise ShapeError(
            f"reward params shape {rspec.params.shape} does not match model "
            f"({spec.cond_dim}, {spec.data_dim})"
        )
    conds = np.empty((n_records, spec.cond_dim))
    noises = np.empty((n_records, 2, spec.data_dim))
    for i in range(n_records):
        rng = np.random.default_rng(base_seed + i)
        conds[i] = one_hot(int(rng.integers(spec.cond_dim)), spec.cond_dim)
        noises[i] = rng.standard_normal((2, spec.data_dim))
    samples = euler_sample(
        ref_params, spec, noises.reshape(-1, spec.data_dim), np.repeat(conds, 2, axis=0), sampler_cfg
    ).reshape(noises.shape)
    header = DatasetHeader(
        dim=spec.data_dim, cond_dim=spec.cond_dim, steps=sampler_cfg.steps, ref_hash=ref_hash
    )
    return label_pairs(rspec, header, conds, samples, noises)


def audit_dataset(dataset: PreferenceDataset, ref_params: ParamVector, spec: MlpSpec) -> float:
    """Replay every stored noise in one batch and return the max |stored - replayed|.

    0.0 means every stored sample replays exactly. Any non-finite stored
    sample or noise makes the deviation infinite, never 0.0.
    """
    if len(dataset) == 0:
        return 0.0
    stored = np.concatenate([dataset.x0w, dataset.x0l])
    noises = np.concatenate([dataset.xTw, dataset.xTl])
    if not (np.all(np.isfinite(stored)) and np.all(np.isfinite(noises))):
        return math.inf
    conds = np.concatenate([dataset.cond, dataset.cond])
    replayed = euler_sample(ref_params, spec, noises, conds, SamplerConfig(steps=dataset.header.steps))
    return float(np.max(np.abs(stored - replayed)))


# --- text format --------------------------------------------------------------
# line 1: rfpnapo-pairs v1 dim=<d> cdim=<k> steps=<s> refhash=<hex>
# then one record per line, six " | "-separated fields:
# cond | x0w | x0l | xTw | xTl | delta_r   (vectors space-separated, 17 digits)


def _fmt_vec(v: np.ndarray) -> str:
    return " ".join(fmt17(x) for x in v)


def _parse_vec(field: str, expect: int, line: int) -> np.ndarray:
    tokens = field.split()
    if len(tokens) != expect:
        raise ParseError(f"expected {expect} numbers, found {len(tokens)}", line=line)
    try:
        vec = np.array([float(tok) for tok in tokens])
    except ValueError:
        raise ParseError(f"bad number in field {field!r}", line=line) from None
    if not np.all(np.isfinite(vec)):
        raise ParseError(f"non-finite number in field {field!r}", line=line)
    return vec


def write_dataset(path: str, dataset: PreferenceDataset) -> None:
    """Write the pair file; a pair read_dataset would reject raises DataError before any write."""
    for name in _FIELDS[:5]:
        finite = np.isfinite(getattr(dataset, name)).all(axis=1)
        if not finite.all():
            raise DataError(
                f"pair {int(np.argmin(finite))} has a non-finite {name} value; not representable"
            )
    cond = dataset.cond
    one_hot = ((cond == 0.0) | (cond == 1.0)).all(axis=1) & (cond.sum(axis=1) == 1.0)
    if not one_hot.all():
        raise DataError(
            f"pair {int(np.argmin(one_hot))} has a condition that is not one-hot; not representable"
        )
    h = dataset.header
    lines = [
        f"{DATASET_TAG} {DATASET_VERSION} dim={h.dim} cdim={h.cond_dim} "
        f"steps={h.steps} refhash={h.ref_hash}"
    ]
    for i in range(len(dataset)):
        fields = [_fmt_vec(getattr(dataset, name)[i]) for name in _FIELDS[:5]]
        lines.append(" | ".join(fields + [fmt17(dataset.delta_r[i])]))
    write_text(path, "\n".join(lines) + "\n")


def read_dataset(path: str) -> PreferenceDataset:
    content = read_text(path, "pair dataset")
    lines = content.splitlines()
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
    columns: list[list[np.ndarray]] = [[] for _ in range(6)]
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw == "":
            continue
        fields = raw.split(" | ")
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, found {len(fields)}", line=lineno)
        cond = _parse_vec(fields[0], header.cond_dim, lineno)
        # rewards pick the condition by argmax, so anything but one-hot is ambiguous
        if not (np.all((cond == 0.0) | (cond == 1.0)) and np.sum(cond) == 1.0):
            raise ParseError(f"condition {fields[0]!r} is not one-hot", line=lineno)
        vecs = [_parse_vec(f, header.dim, lineno) for f in fields[1:5]]
        delta = _parse_vec(fields[5], 1, lineno)
        if delta[0] < 0.0:
            raise ParseError(f"preference gap must be >= 0, got {delta[0]}", line=lineno)
        for column, vec in zip(columns, (cond, *vecs, delta)):
            column.append(vec)
    widths = (header.cond_dim,) + (header.dim,) * 4 + (1,)
    arrays = [np.array(column).reshape(-1, width) for column, width in zip(columns, widths)]
    return PreferenceDataset(header, *arrays[:5], delta_r=arrays[5][:, 0])
