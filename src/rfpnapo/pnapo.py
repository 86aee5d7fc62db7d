"""Noise-aware preference loss and its dynamic weighting schedule.

A candidate is scored by how much worse the trained network explains the
straight path from the candidate's own stored prior noise than the frozen
reference does (squared velocity error at a random time, trained minus
reference). The loss is a logistic preference objective on the winner/loser
score gap, with an effective weight that grows with the reward gap and
anneals over training steps.

Every function here works on a batch of pairs at once: the winner and loser
rows of all B pairs go through one trained and one reference forward pass
and one backward pass. Each row's score is that of scoring it alone, bit for
bit, so per-pair losses and margins do not depend on the batch; the gradient
of their sum is one GEMM per layer, equal to the sum of the pairs' gradients
up to the order of addition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigurationError
from .numerics import (
    FunctionLoss,
    MlpSpec,
    ParamVector,
    forward_single_cached,
    row_dot,
    sigmoid,
    softplus,
    vjp_single,
)
from .rectflow import FlowBatch, path_inputs

if TYPE_CHECKING:
    from .prefdata import PreferenceDataset


@dataclass(frozen=True)
class BetaSchedule:
    """Preference weight: base value, anneal window [n1, n2], dynamic switch."""

    beta: float
    n1: int = 1000
    n2: int = 2000
    dynamic: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.n1 < 1 or self.n2 <= self.n1:
            raise ConfigurationError(f"need 1 <= n1 < n2, got ({self.n1}, {self.n2})")


def f_controller(delta_r: float) -> float:
    """Reward-gap gate 2*sigmoid(delta_r) - 1: zero at zero gap, saturating to 1."""
    if not math.isfinite(delta_r) or delta_r < 0.0:
        raise ValueError(f"reward gap must be finite and >= 0, got {delta_r!r}")
    return 2.0 * sigmoid(delta_r) - 1.0


def g_controller(n, n1: int, n2: int) -> float:
    """Step anneal: 1 up to n1, quarter-cosine down to 1/2 at n2, then flat 1/2."""
    if n1 >= n2:
        raise ConfigurationError(f"need n1 < n2, got ({n1}, {n2})")
    if n <= n1:
        return 1.0
    if n >= n2:
        return 0.5
    return 0.5 + 0.5 * math.cos(0.5 * math.pi * (n - n1) / (n2 - n1))


def effective_beta(sched: BetaSchedule, delta_r: float, n: int) -> float:
    if not sched.dynamic:
        return sched.beta
    return sched.beta * f_controller(delta_r) * g_controller(n, sched.n1, sched.n2)


def pair_rows(pairs: "PreferenceDataset", t: np.ndarray | float) -> FlowBatch:
    """The winner then the loser row of every pair, on its stored straight path.

    t broadcasts to (B, 2): a scalar, (B, 1) for one time per pair, or (B, 2).
    """
    b = len(pairs)
    return FlowBatch(
        x0=np.stack([pairs.x0w, pairs.x0l], axis=1).reshape(2 * b, -1),
        xT=np.stack([pairs.xTw, pairs.xTl], axis=1).reshape(2 * b, -1),
        cond=np.repeat(pairs.cond, 2, axis=0),
        t=np.broadcast_to(t, (b, 2)).reshape(-1),
    )


def _scores(
    params: ParamVector, ref_params: ParamVector, spec: MlpSpec, rows: FlowBatch
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Row scores, plus the residuals and forward cache the backward pass needs."""
    inp, u = path_inputs(spec, rows)
    v, cache = forward_single_cached(params, spec, inp)
    v_ref, _ = forward_single_cached(ref_params, spec, inp)
    res, ref_res = u - v, u - v_ref
    return row_dot(res, res) - row_dot(ref_res, ref_res), res, cache


def score(params: ParamVector, ref_params: ParamVector, spec: MlpSpec, rows: FlowBatch) -> np.ndarray:
    """Trained-minus-reference squared velocity error of each row on its straight path."""
    return _scores(params, ref_params, spec, rows)[0]


def pnapo_value_grad(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    pairs: "PreferenceDataset",
    t: np.ndarray | float,
    beta_eff: np.ndarray,
) -> tuple[np.ndarray, ParamVector, np.ndarray]:
    """Per-pair losses, the parameter gradient of their sum, and per-pair margins.

    Each pair's loss is softplus(z), z = beta_eff * (s_winner - s_loser), both
    scores taken on the pair's stored noises; at the reference point
    (params == ref_params) both scores vanish and every loss is log 2. The
    margin is -z. t broadcasts to (B, 2) as in pair_rows.
    """
    s, res, cache = _scores(params, ref_params, spec, pair_rows(pairs, t))
    z = beta_eff * (s[0::2] - s[1::2])
    losses = np.array([softplus(v) for v in z.tolist()])
    coef = np.array([sigmoid(v) for v in z.tolist()]) * beta_eff  # d softplus(z) / d(s_w - s_l)
    # each row's cotangent, rows in pair_rows order: winner -2 * coef * res, loser +2 * coef * res
    dy = np.stack([-2.0 * coef, 2.0 * coef], axis=1).reshape(-1, 1) * res
    return losses, vjp_single(params, spec, cache, dy), -z


def pnapo_objective(
    ref_params: ParamVector,
    spec: MlpSpec,
    pairs: "PreferenceDataset",
    t: np.ndarray | float,
    beta_eff: np.ndarray,
) -> FunctionLoss:
    """Summed preference loss of a pair batch as a differentiable objective (for checks)."""

    def value_and_grad(params: ParamVector) -> tuple[float, ParamVector]:
        losses, grad, _ = pnapo_value_grad(params, ref_params, spec, pairs, t, beta_eff)
        return float(np.sum(losses)), grad

    return FunctionLoss(value_and_grad)


def make_pnapo_term(
    ref_params: ParamVector,
    spec: MlpSpec,
    sched: BetaSchedule,
    step_index: int,
    rng: np.random.Generator,
) -> Callable:
    """The batch loss functional for the shared trainer at one step.

    RNG order: one time draw per pair, shared by its winner and loser, pairs
    in batch order. The time draw is the only stochastic input; everything
    else comes from the pairs.
    """

    def term(params: ParamVector, pairs: "PreferenceDataset"):
        t = rng.random((len(pairs), 1))
        beta_eff = np.array([effective_beta(sched, dr, step_index) for dr in pairs.delta_r.tolist()])
        losses, grad, margins = pnapo_value_grad(params, ref_params, spec, pairs, t, beta_eff)
        return losses, grad, margins, beta_eff

    return term


@dataclass(frozen=True)
class AlignConfig:
    """Everything one alignment run needs besides the data and the reference."""

    method: str  # pnapo | dpo | sft
    lr: float
    steps: int
    batch: int
    schedule: BetaSchedule
    seed: int

    def __post_init__(self):
        if self.method not in ("pnapo", "dpo", "sft"):
            raise ConfigurationError(f"unknown alignment method {self.method!r}")
        if self.lr <= 0 or self.steps < 1 or self.batch < 1:
            raise ConfigurationError("alignment needs lr > 0, steps >= 1, batch >= 1")
