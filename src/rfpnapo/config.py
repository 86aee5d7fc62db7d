"""Flat key=value run configuration with a closed key set and typed accessors."""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .corpus import CorpusPipelineConfig
from .errors import ConfigurationError, ParseError, ShapeError
from .fileio import read_text
from .numerics import MlpSpec
from .pnapo import BetaSchedule
from .prefdata import RewardSpec
from .rectflow import ConditionalMixture, SamplerConfig, default_mixture


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


def _parse_seed(raw: str) -> int:
    # numpy's generators take no negative seed
    value = int(raw)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {raw!r}")
    return value


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
        return VectorList(raw, tuple(groups))

    return parse


@contextmanager
def _checked_by_builder(*keys: str) -> Iterator[None]:
    """Report a ShapeError from the objects built out of keys as a config error naming them.

    MlpSpec, ConditionalMixture and SamplerConfig own the value checks; a bad
    value in the file is still a configuration problem, not a shape mismatch
    between artifacts.
    """
    try:
        yield
    except ShapeError as exc:
        raise ConfigurationError(f"bad value for {' / '.join(keys)}: {exc}") from None


def _parse_hidden(raw: str) -> tuple[int, ...]:
    if raw.strip() == "":
        return ()
    return tuple(int(tok.strip()) for tok in raw.split(","))


# key -> (parser, default); a None default means the key has no default and
# commands that need it must see it in the file.
_KEYS: dict[str, tuple[Callable[[str], object], object]] = {
    "seed": (_parse_seed, None),
    "data.dim": (int, 2),
    "data.conditions": (int, 4),
    "data.mixture.modes": (_vector_list_parser(several_per_entry=True), VectorList("", ())),
    "data.mixture.std": (_parse_finite_float, 0.4),
    "model.hidden": (_parse_hidden, (32, 32)),
    "train.lr": (_parse_finite_float, None),
    "train.steps": (int, None),
    "train.batch": (int, None),
    "pnapo.beta": (_parse_finite_float, None),
    "pnapo.n1": (int, 1000),
    "pnapo.n2": (int, 2000),
    "pnapo.dynamic": (_parse_bool, True),
    "sampler.steps": (int, 50),
    "reward.kind": (str, None),
    "reward.params": (_vector_list_parser(several_per_entry=False), VectorList("", ())),
    "corpus.toxicity_threshold": (_parse_finite_float, 0.1),
    "corpus.jaccard_threshold": (_parse_finite_float, 0.8),
    "corpus.cosine_threshold": (_parse_finite_float, 0.8),
    "corpus.k_clusters": (int, 100),
    "corpus.per_cluster": (int, 200),
    "corpus.kmeans_iters": (int, 50),
}


@dataclass
class RunConfig:
    """Parsed configuration: explicit values plus defaults for the rest."""

    values: dict[str, object] = field(default_factory=dict)
    path: str | None = None

    def has(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str):
        if key not in _KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        if key in self.values:
            return self.values[key]
        _, default = _KEYS[key]
        if default is None:
            raise ConfigurationError(f"missing required config key {key!r}")
        return default

    def require(self, *keys: str) -> None:
        missing = [k for k in keys if not self.has(k) and _KEYS[k][1] is None]
        if missing:
            raise ConfigurationError(f"missing required config keys: {', '.join(missing)}")

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
        with _checked_by_builder("data.dim", "data.conditions", "model.hidden"):
            return MlpSpec(
                data_dim=self.get("data.dim"),
                cond_dim=self.get("data.conditions"),
                hidden=self.get("model.hidden"),
            )

    def mixture(self) -> ConditionalMixture:
        dim = self.get("data.dim")
        n_conditions = self.get("data.conditions")
        std = self.get("data.mixture.std")
        modes = self.get("data.mixture.modes").groups
        if not modes:
            with _checked_by_builder("data.dim", "data.conditions", "data.mixture.std"):
                return default_mixture(dim, n_conditions, std)
        for k, centers in enumerate(modes):
            for center in centers:
                if len(center) != dim:
                    raise ConfigurationError(
                        f"data.mixture.modes: condition {k} center has {len(center)} "
                        f"coordinates, data.dim is {dim}"
                    )
        if len(modes) != n_conditions:
            raise ConfigurationError(
                f"data.mixture.modes defines {len(modes)} conditions, "
                f"data.conditions is {n_conditions}"
            )
        groups = tuple(tuple(np.array(center) for center in centers) for centers in modes)
        with _checked_by_builder("data.mixture.std"):
            return ConditionalMixture(modes=groups, std=std)

    def reward(self, data_dim: int, cond_dim: int) -> RewardSpec:
        kind = self.get("reward.kind")
        rows = [vectors[0] for vectors in self.get("reward.params").groups]
        if not rows:
            params = np.zeros((cond_dim, data_dim))
            if kind == "direction_dot":
                params[:, 0] = 1.0
            return RewardSpec(kind=kind, params=params)
        for k, row in enumerate(rows):
            if len(row) != data_dim:
                raise ConfigurationError(
                    f"reward.params: vector {k} has {len(row)} coordinates, "
                    f"model dimension is {data_dim}"
                )
        if len(rows) != cond_dim:
            raise ConfigurationError(
                f"reward.params defines {len(rows)} conditions, model has {cond_dim}"
            )
        return RewardSpec(kind=kind, params=np.array(rows))

    def schedule(self) -> BetaSchedule:
        return BetaSchedule(
            beta=self.get("pnapo.beta"),
            n1=self.get("pnapo.n1"),
            n2=self.get("pnapo.n2"),
            dynamic=self.get("pnapo.dynamic"),
        )

    def sampler(self) -> SamplerConfig:
        with _checked_by_builder("sampler.steps"):
            return SamplerConfig(steps=self.get("sampler.steps"))

    def corpus_config(self) -> CorpusPipelineConfig:
        return CorpusPipelineConfig(
            toxicity_threshold=self.get("corpus.toxicity_threshold"),
            jaccard_threshold=self.get("corpus.jaccard_threshold"),
            cosine_threshold=self.get("corpus.cosine_threshold"),
            n_clusters=self.get("corpus.k_clusters"),
            per_cluster=self.get("corpus.per_cluster"),
            kmeans_iters=self.get("corpus.kmeans_iters"),
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
        content = read_text(path, "config")
    except ParseError as exc:
        raise ConfigurationError(f"{path}:{exc.line}: {exc.reason}") from None
    values: dict[str, object] = {}
    for lineno, raw in enumerate(content.splitlines(), start=1):
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
    return RunConfig(values=values, path=path)
