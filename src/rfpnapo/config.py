"""Flat key=value run configuration with a closed key set and typed accessors."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ParseError
from .fileio import read_lines
from .numerics import MlpSpec
from .pnapo import BetaSchedule
from .rectflow import ConditionalMixture, default_mixture


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _in_range(parse: Callable[[str], object], ok: Callable, expected: str) -> Callable[[str], object]:
    """parse, then reject a value outside the key's range, so load_config reports it with its line."""

    def parse_in_range(raw: str):
        value = parse(raw)
        if not ok(value):
            raise ValueError(f"expected {expected}, got {raw!r}")
        return value

    return parse_in_range


# numpy's generators take no negative seed
_parse_seed = _in_range(int, lambda v: v >= 0, "a non-negative integer")
_parse_count = _in_range(int, lambda v: v >= 1, "an integer >= 1")
_parse_positive = _in_range(_parse_finite_float, lambda v: v > 0, "a number > 0")
_parse_fraction = _in_range(_parse_finite_float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_parse_reward_kind = _in_range(str, lambda v: v == "mode_distance", "mode_distance")


@dataclass(frozen=True)
class VectorList:
    """A vector-list value: its text as written, for snapshots, and its numbers.

    groups[k] holds the vectors of entry k, the entries separated by ';' and
    the numbers by ','. Only data.mixture.modes gives an entry several
    vectors (its condition's centres), separated by '|'.
    """

    text: str
    groups: tuple[tuple[tuple[float, ...], ...], ...]

    def __str__(self) -> str:
        return self.text


def _vector_list_parser(several_per_entry: bool) -> Callable[[str], VectorList]:
    def parse(raw: str) -> VectorList:
        if raw.strip() == "":
            return VectorList(raw, ())
        groups = []
        for k, entry in enumerate(raw.split(";")):
            if not several_per_entry and "|" in entry:
                raise ValueError(f"vector {k}: '|' separates mixture centres, not reward vectors")
            try:
                groups.append(tuple(
                    tuple(_parse_finite_float(tok.strip()) for tok in vec.split(","))
                    for vec in entry.split("|")
                ))
            except ValueError as exc:
                raise ValueError(f"vector {k}: {exc}") from None
            width = len(groups[0][0])
            if any(len(vec) != width for vec in groups[-1]):
                raise ValueError(f"vector {k}: every vector needs the {width} coordinates of the first")
        return VectorList(raw, tuple(groups))

    return parse


def _parse_hidden(raw: str) -> tuple[int, ...]:
    if raw.strip() == "":
        return ()
    return tuple(_parse_count(tok.strip()) for tok in raw.split(","))


# key -> (parser, default); a None default means the key has no default and
# commands that read it must see it in the file (RunConfig.get). These are the package's only
# defaults: the builders and the Python API take every value explicitly.
_KEYS: dict[str, tuple[Callable[[str], object], object]] = {
    "seed": (_parse_seed, None),
    "data.dim": (_parse_count, 2),
    "data.conditions": (_parse_count, 4),
    "data.mixture.modes": (_vector_list_parser(several_per_entry=True), VectorList("", ())),
    "data.mixture.std": (_parse_positive, 0.4),
    "model.hidden": (_parse_hidden, (32, 32)),
    "train.lr": (_parse_positive, None),
    "train.steps": (_parse_count, None),
    "train.batch": (_parse_count, None),
    "pnapo.beta": (_parse_positive, None),
    "pnapo.n1": (_parse_count, 1000),
    "pnapo.n2": (_parse_count, 2000),
    "pnapo.dynamic": (_parse_bool, True),
    "sampler.steps": (_parse_count, 50),
    "reward.kind": (_parse_reward_kind, None),
    "reward.params": (_vector_list_parser(several_per_entry=False), VectorList("", ())),
    "corpus.toxicity_threshold": (_parse_fraction, 0.1),
    "corpus.jaccard_threshold": (_parse_fraction, 0.8),
    "corpus.cosine_threshold": (_parse_fraction, 0.8),
    "corpus.k_clusters": (_parse_count, 100),
    "corpus.per_cluster": (_parse_count, 200),
    "corpus.kmeans_iters": (_parse_count, 50),
}


@dataclass
class RunConfig:
    """Parsed configuration: explicit values plus defaults for the rest."""

    values: dict[str, object] = field(default_factory=dict)

    def get(self, key: str):
        """A key's value or default; a key with neither raises ConfigurationError naming it.

        Only package code calls this, with keys of _KEYS; load_config refuses any other key.
        """
        if key in self.values:
            return self.values[key]
        _, default = _KEYS[key]
        if default is None:
            raise ConfigurationError(f"missing required config key {key!r}")
        return default

    def snapshot(self) -> dict[str, str]:
        """Effective settings (explicit or defaulted) as strings, for manifests."""
        out = {}
        for key, (_, default) in sorted(_KEYS.items()):
            if key in self.values:
                out[key] = _to_str(self.values[key])
            elif default is not None:
                out[key] = _to_str(default)
        return out

    # --- typed builders ---

    def mlp_spec(self) -> MlpSpec:
        return MlpSpec(
            data_dim=self.get("data.dim"),
            cond_dim=self.get("data.conditions"),
            hidden=self.get("model.hidden"),
        )

    def _vector_groups(self, key: str, dim: int, n_conditions: int) -> tuple:
        """The groups of a vector-list key: none, or one per condition, each vector dim wide."""
        groups = self.get(key).groups  # the parser gave every vector the first one's width
        if groups and len(groups[0][0]) != dim:
            width = len(groups[0][0])
            raise ConfigurationError(f"{key}: condition 0 has a vector of {width} coordinates, expected {dim}")
        if groups and len(groups) != n_conditions:
            raise ConfigurationError(f"{key} defines {len(groups)} conditions, expected {n_conditions}")
        return groups

    def mixture(self) -> ConditionalMixture:
        dim, n_conditions = self.get("data.dim"), self.get("data.conditions")
        std = self.get("data.mixture.std")
        modes = self._vector_groups("data.mixture.modes", dim, n_conditions)
        if not modes:
            return default_mixture(dim, n_conditions, std)
        centers = np.array([center for group in modes for center in group])
        return ConditionalMixture(centers, np.array([len(group) for group in modes]), std)

    def reward(self, data_dim: int, cond_dim: int) -> np.ndarray:
        """The (cond_dim, data_dim) reward centres: reward.params, else the origin for every condition."""
        self.get("reward.kind")  # still required, though mode_distance is its one value
        rows = [vectors[0] for vectors in self._vector_groups("reward.params", data_dim, cond_dim)]
        return np.array(rows) if rows else np.zeros((cond_dim, data_dim))

    def schedule(self) -> BetaSchedule:
        return BetaSchedule(
            beta=self.get("pnapo.beta"),
            n1=self.get("pnapo.n1"),
            n2=self.get("pnapo.n2"),
            dynamic=self.get("pnapo.dynamic"),
        )


def _to_str(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def load_config(path: str) -> RunConfig:
    """Parse a key=value file; '#' starts a comment, unknown/duplicate keys reject."""
    try:
        lines = read_lines(path, "config")
    except ParseError as exc:
        raise ConfigurationError(f"{path}:{exc.line}: {exc.reason}") from None
    values: dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: duplicate config key {key!r}")
        parser, _ = _KEYS[key]
        try:
            values[key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return RunConfig(values=values)
