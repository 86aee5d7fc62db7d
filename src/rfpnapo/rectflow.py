"""Rectified-flow primitives: straight-line paths, the matching loss, Euler sampling.

Convention: t = 0 is data, t = 1 is prior noise. The network regresses the
constant velocity of the straight path between the two; path_inputs states
that path and its time rule and builds every training row on it.

The sampler integrates that field back from noise with fixed Euler steps
(Liu et al., arXiv 2209.03003). It is the hot path of gen-pairs, eval and
the replay audit, so each call sets up one numerics.Workspace and its steps
run numerics.forward_tiles in it, allocating nothing per layer. Pretraining
likewise evaluates one cfm_objective per run on one untiled Workspace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .numerics import (
    FunctionLoss,
    MlpSpec,
    ParamVector,
    forward_batch_cached,
    Workspace,
    forward_tiles,
    vjp_batch,
)


def path_inputs(
    spec: MlpSpec, x0: np.ndarray, xT: np.ndarray, cond: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Network input rows on each row's straight path, and the velocity each regresses to.

    Row i's path runs from the sample x0[i] at t = 0 to the prior noise xT[i]
    at t = 1, x_t = (1 - t[i]) * x0[i] + t[i] * xT[i]; its input row is
    (x_t, cond[i], t[i]) and its target the constant velocity xT[i] - x0[i].

    Args:
        x0, xT: (R, data_dim) samples and prior noises, R >= 1.
        cond: (R, cond_dim) conditions.
        t: (R,) times in [0, 1); the path's noise end is never a training row.

    Raises ShapeError for any other shape or time, NaN included.
    """
    x0, xT, cond, t = (np.asarray(a, dtype=np.float64) for a in (x0, xT, cond, t))
    r = t.shape[0] if t.ndim == 1 else 0
    d, k = spec.data_dim, spec.cond_dim
    if r == 0 or x0.shape != (r, d) or xT.shape != (r, d) or cond.shape != (r, k):
        raise ShapeError(
            f"path rows have shapes x0 {x0.shape}, xT {xT.shape}, cond {cond.shape}, t {t.shape}; "
            f"expected (R, {d}), (R, {d}), (R, {k}), (R,) with R >= 1"
        )
    in_range = (t >= 0.0) & (t < 1.0)  # False for NaN
    if not in_range.all():
        i = int(np.argmin(in_range))
        raise ShapeError(f"path time of row {i} is {float(t[i])}, outside [0, 1)")
    xt = (1.0 - t[:, None]) * x0 + t[:, None] * xT
    return np.concatenate([xt, cond, t[:, None]], axis=1), xT - x0


def cfm_objective(
    spec: MlpSpec, x0: np.ndarray, xT: np.ndarray, cond: np.ndarray, t: np.ndarray,
    out: Workspace | None = None,
) -> FunctionLoss:
    """The matching loss on the path_inputs rows, as a differentiable objective of the parameters.

    loss = mean_i || v(x_t_i, t_i, c_i) - (xT_i - x0_i) ||^2

    Each evaluation reads the four arrays afresh, so pretraining builds one
    objective per run on arrays it refills every step, with `out` the run's
    untiled Workspace; its gradient is then that buffer.
    """

    def value_and_grad(params: ParamVector) -> tuple[float, ParamVector]:
        inputs, target = path_inputs(spec, x0, xT, cond, t)
        v, cache = forward_batch_cached(params, spec, inputs, out)
        residual = v - target
        loss = float(np.mean(np.sum(residual * residual, axis=1)))
        grad = vjp_batch(params, spec, cache, (2.0 / inputs.shape[0]) * residual, out)
        return loss, grad

    return FunctionLoss(value_and_grad)


def euler_sample(
    params: ParamVector,
    spec: MlpSpec,
    xT: np.ndarray,
    cond: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Integrate the learned field from t=1 to t=0 with `steps` uniform Euler steps.

    Args:
        xT: prior noises, shape (B, data_dim); B may be 0.
        cond: one-hot conditions, shape (B, cond_dim).
        steps: at least 1, else ShapeError.

    Returns:
        the samples x0_hat, shape (B, data_dim). Row i depends only on xT[i]
        and cond[i]: it is bit-identical to sampling that row alone, so the
        output never depends on batch size or on how a set of rows is split.

    The rows run through forward_tiles in one tiled Workspace set up per
    call, whose condition columns are written once. A step writes t into
    the input and x - dt * v into its state columns in place, so each input
    row holds what forward_single_cached would pad it to.
    """
    if steps < 1:
        raise ShapeError(f"sampler needs at least 1 step, got {steps}")
    xT = np.asarray(xT, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    if xT.ndim != 2 or xT.shape[1] != spec.data_dim:
        raise ShapeError(f"noise batch has shape {xT.shape}, expected (B, {spec.data_dim})")
    if cond.shape != (xT.shape[0], spec.cond_dim):
        raise ShapeError(f"condition has shape {cond.shape}, expected ({xT.shape[0]}, {spec.cond_dim})")
    ws = Workspace(params, spec, xT.shape[0], True)
    d = spec.data_dim
    x = ws.inp[:, :d]
    x[...] = xT
    ws.inp[:, d:-1] = cond
    t = ws.inp[:, -1]
    dt = 1.0 / steps
    # a diverging field overflows before the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            t[...] = 1.0 - i * dt
            forward_tiles(ws.weights, ws.biases, ws.padded, ws.outs)
            ws.y *= dt
            x -= ws.y
            if not np.all(np.isfinite(x)):
                raise NumericError(f"sampler diverged at step {i + 1} of {steps}")
    return x.copy()


@dataclass(frozen=True)
class ConditionalMixture:
    """Toy data source: per condition, an equal-weight Gaussian mixture.

    centers is (m, dim), every mode center stacked condition by condition:
    condition k owns the counts[k] rows that follow the counts of the
    conditions before it. A draw picks one of its condition's centers
    uniformly and adds isotropic noise of scale std.
    """

    centers: np.ndarray  # (m, dim)
    counts: np.ndarray  # (n_conditions,), every entry >= 1, summing to m
    std: float

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=np.float64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.counts.ndim != 1 or self.counts.size == 0 or np.any(self.counts < 1):
            raise ShapeError("every condition needs at least one mode")
        if self.centers.ndim != 2 or self.centers.shape[0] != self.counts.sum():
            raise ShapeError(
                f"centers have shape {self.centers.shape}, expected ({self.counts.sum()}, dim)"
            )
        if self.std <= 0 or not math.isfinite(self.std):
            raise ShapeError(f"mixture std must be positive, got {self.std}")
        # row of each condition's first center; not a field, so set once here
        object.__setattr__(self, "_first", np.cumsum(self.counts) - self.counts)

    @property
    def n_conditions(self) -> int:
        return self.counts.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def sample_batch(self, rng: np.random.Generator, ks: np.ndarray) -> np.ndarray:
        """One draw per entry of the condition indices ks; returns (len(ks), dim).

        RNG order: every row's mode pick, then one (len(ks), dim) noise block.
        A condition with one mode draws no pick (`integers` with high 1 draws
        nothing), so for single-mode mixtures the stream and every output bit
        equal a per-row loop of `center + std * rng.standard_normal(dim)`.
        """
        ks = np.asarray(ks, dtype=np.int64)
        picks = rng.integers(self.counts[ks])
        noise = rng.standard_normal((ks.shape[0], self.dim))
        return self.centers[self._first[ks] + picks] + self.std * noise


def default_mixture(dim: int, n_conditions: int, std: float) -> ConditionalMixture:
    """One mode per condition, spaced on a radius-2 circle in the first two dims."""
    if dim < 1 or n_conditions < 1:
        raise ShapeError("mixture needs dim >= 1 and at least one condition")
    centers = np.zeros((n_conditions, dim))
    for k in range(n_conditions):
        angle = 2.0 * math.pi * k / n_conditions
        centers[k, 0] = 2.0 * math.cos(angle)
        if dim > 1:
            centers[k, 1] = 2.0 * math.sin(angle)
    return ConditionalMixture(centers, np.ones(n_conditions, dtype=np.int64), std)
