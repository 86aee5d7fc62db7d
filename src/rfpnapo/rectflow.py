"""Rectified-flow primitives: straight-line paths, the matching loss, Euler sampling.

Convention: t = 0 is data, t = 1 is prior noise. The forward path is the
straight line x_t = (1 - t) * x0 + t * xT, whose velocity is the constant
xT - x0; the network regresses that constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError
from .numerics import (
    FunctionLoss,
    MlpSpec,
    ParamVector,
    forward_batch_cached,
    mlp_forward,
    vjp_batch,
)


@dataclass(frozen=True)
class SamplerConfig:
    """Euler integration settings: `steps` uniform steps from t=1 down to 0."""

    steps: int = 50

    def __post_init__(self):
        if self.steps < 1:
            raise ShapeError(f"sampler needs at least 1 step, got {self.steps}")


@dataclass
class FlowBatch:
    """A training minibatch: endpoints, conditions, and per-row times in [0, 1)."""

    x0: np.ndarray  # (B, d) data samples
    xT: np.ndarray  # (B, d) prior noise samples
    cond: np.ndarray  # (B, k) one-hot conditions
    t: np.ndarray  # (B,) times

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=np.float64)
        self.xT = np.asarray(self.xT, dtype=np.float64)
        self.cond = np.asarray(self.cond, dtype=np.float64)
        self.t = np.asarray(self.t, dtype=np.float64)
        b = self.x0.shape[0]
        if self.x0.ndim != 2 or self.xT.shape != self.x0.shape:
            raise ShapeError(f"endpoint shapes differ: {self.x0.shape} vs {self.xT.shape}")
        if self.cond.ndim != 2 or self.cond.shape[0] != b or self.t.shape != (b,):
            raise ShapeError("batch fields must share the leading dimension")
        if b == 0:
            raise ShapeError("empty batch")
        if np.any(self.t < 0.0) or np.any(self.t >= 1.0):
            raise ShapeError("batch times must lie in [0, 1)")

    def __len__(self) -> int:
        return self.x0.shape[0]


def interpolate(x0: np.ndarray, xT: np.ndarray, t) -> np.ndarray:
    """Point on the straight path at time t in [0, 1]; t may be scalar or (B,)."""
    x0 = np.asarray(x0, dtype=np.float64)
    xT = np.asarray(xT, dtype=np.float64)
    if x0.shape != xT.shape:
        raise ShapeError(f"endpoint shapes differ: {x0.shape} vs {xT.shape}")
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):  # also catches NaN
        raise ValueError(f"interpolation time outside [0, 1]: {t!r}")
    if t_arr.ndim == 1:
        t_arr = t_arr[:, None]
    return (1.0 - t_arr) * x0 + t_arr * xT


def path_inputs(spec: MlpSpec, batch: FlowBatch) -> tuple[np.ndarray, np.ndarray]:
    """Network input rows (x_t, c, t) on each row's straight path, and its velocity xT - x0."""
    if batch.x0.shape[1] != spec.data_dim or batch.cond.shape[1] != spec.cond_dim:
        raise ShapeError(
            f"batch dims ({batch.x0.shape[1]}, {batch.cond.shape[1]}) do not match "
            f"spec ({spec.data_dim}, {spec.cond_dim})"
        )
    xt = interpolate(batch.x0, batch.xT, batch.t)
    inputs = np.concatenate([xt, batch.cond, batch.t[:, None]], axis=1)
    target = batch.xT - batch.x0
    return inputs, target


def cfm_objective(spec: MlpSpec, batch: FlowBatch) -> FunctionLoss:
    """The matching loss as a differentiable objective of the parameters.

    loss = mean_i || v(x_t_i, t_i, c_i) - (xT_i - x0_i) ||^2
    """
    inputs, target = path_inputs(spec, batch)
    b = inputs.shape[0]

    def value_and_grad(params: ParamVector) -> tuple[float, ParamVector]:
        v, cache = forward_batch_cached(params, spec, inputs)
        residual = v - target
        loss = float(np.mean(np.sum(residual * residual, axis=1)))
        grad = vjp_batch(params, spec, cache, (2.0 / b) * residual)
        return loss, grad

    return FunctionLoss(value_and_grad)


def euler_sample(
    params: ParamVector,
    spec: MlpSpec,
    xT: np.ndarray,
    cond: np.ndarray,
    cfg: SamplerConfig,
) -> np.ndarray:
    """Integrate the learned field from t=1 to t=0 with fixed Euler steps.

    Args:
        xT: prior noises, shape (B, data_dim); B may be 0.
        cond: one-hot conditions, shape (B, cond_dim).

    Returns:
        the samples x0_hat, shape (B, data_dim). Row i depends only on xT[i]
        and cond[i]: it is bit-identical to sampling that row alone, so the
        output never depends on batch size or on how a set of rows is split.
    """
    xT = np.asarray(xT, dtype=np.float64)
    if xT.ndim != 2:
        raise ShapeError(f"noise batch has shape {xT.shape}, expected (B, {spec.data_dim})")
    dt = 1.0 / cfg.steps
    x = xT
    for i in range(cfg.steps):
        t_cur = 1.0 - i * dt
        x = x - dt * mlp_forward(params, spec, x, t_cur, cond)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"sampler diverged at step {i + 1} of {cfg.steps}")
    return x


def one_hot(k: int, n_conditions: int) -> np.ndarray:
    if not 0 <= k < n_conditions:
        raise ShapeError(f"condition index {k} outside [0, {n_conditions})")
    v = np.zeros(n_conditions)
    v[k] = 1.0
    return v


@dataclass(frozen=True)
class ConditionalMixture:
    """Toy data source: per condition, an equal-weight Gaussian mixture.

    modes[k] is a tuple of mode centers (each shape (dim,)) for condition k;
    a draw picks one center uniformly and adds isotropic noise of scale std.
    """

    modes: tuple[tuple[np.ndarray, ...], ...]
    std: float
    # every center stacked condition by condition; condition k's modes are
    # rows first[k] .. first[k] + counts[k] - 1
    _centers: np.ndarray = field(init=False, repr=False, compare=False)
    _first: np.ndarray = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.modes) == 0 or any(len(group) == 0 for group in self.modes):
            raise ShapeError("every condition needs at least one mode")
        if self.std <= 0 or not math.isfinite(self.std):
            raise ShapeError(f"mixture std must be positive, got {self.std}")
        dims = {center.shape for group in self.modes for center in group}
        if len(dims) != 1:
            raise ShapeError(f"mode centers disagree on dimension: {sorted(dims)}")
        counts = np.array([len(group) for group in self.modes], dtype=np.int64)
        centers = np.array([c for group in self.modes for c in group], dtype=np.float64)
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_first", np.cumsum(counts) - counts)

    @property
    def n_conditions(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return self.modes[0][0].shape[0]

    def sample_batch(self, rng: np.random.Generator, ks: np.ndarray) -> np.ndarray:
        """One draw per entry of the condition indices ks; returns (len(ks), dim).

        RNG order: every row's mode pick, then one (len(ks), dim) noise block.
        A condition with one mode draws no pick (`integers` with high 1 draws
        nothing), so for single-mode mixtures the stream and every output bit
        equal a per-row loop of `center + std * rng.standard_normal(dim)`.
        """
        ks = np.asarray(ks, dtype=np.int64)
        picks = rng.integers(self._counts[ks])
        noise = rng.standard_normal((ks.shape[0], self.dim))
        return self._centers[self._first[ks] + picks] + self.std * noise


def default_mixture(dim: int, n_conditions: int, std: float = 0.4) -> ConditionalMixture:
    """One mode per condition, spaced on a radius-2 circle in the first two dims."""
    if dim < 1 or n_conditions < 1:
        raise ShapeError("mixture needs dim >= 1 and at least one condition")
    groups = []
    for k in range(n_conditions):
        center = np.zeros(dim)
        angle = 2.0 * math.pi * k / n_conditions
        center[0] = 2.0 * math.cos(angle)
        if dim > 1:
            center[1] = 2.0 * math.sin(angle)
        groups.append((center,))
    return ConditionalMixture(modes=tuple(groups), std=std)
