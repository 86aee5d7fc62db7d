"""Noise-aware preference loss and its dynamic weighting schedule.

A candidate is scored by how much worse the trained network explains the
straight path from the candidate's own stored prior noise than the frozen
reference does (squared velocity error at a random time, trained minus
reference). The loss is a logistic preference objective on the winner/loser
score gap, with an effective weight that grows with the reward gap and
anneals over training steps.
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
    OptimState,
    ParamVector,
    forward_single_cached,
    sigmoid,
    softplus,
    vjp_single,
)
from . import training

if TYPE_CHECKING:
    from .prefdata import PreferenceRecord


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


def score(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    x0: np.ndarray,
    xT: np.ndarray,
    cond: np.ndarray,
    t: float,
) -> float:
    """Trained-minus-reference squared velocity error on the stored straight path."""
    s, _, _ = _branch_score(params, ref_params, spec, x0, xT, cond, t)
    return s


def _branch_score(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    x0: np.ndarray,
    xT: np.ndarray,
    cond: np.ndarray,
    t: float,
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Score one candidate; also return the forward cache and residual for backprop."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"score time must lie in [0, 1), got {t!r}")
    x0 = np.asarray(x0, dtype=np.float64)
    xT = np.asarray(xT, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    xt = (1.0 - t) * x0 + t * xT
    u = xT - x0
    inp = np.concatenate([xt, cond, [t]])
    v, cache = forward_single_cached(params, spec, inp)
    v_ref, _ = forward_single_cached(ref_params, spec, inp)
    res = u - v
    res_ref = u - v_ref
    s = float(res @ res - res_ref @ res_ref)
    return s, cache, res


def pnapo_loss(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    rec: "PreferenceRecord",
    t: float,
    beta_eff: float,
) -> float:
    """Stable logistic preference loss on the winner/loser score gap.

    Equals softplus(beta_eff * (s_winner - s_loser)); at the reference point
    (params == ref_params) both scores vanish and the loss is log 2.
    """
    s_w = score(params, ref_params, spec, rec.x0w, rec.xTw, rec.cond, t)
    s_l = score(params, ref_params, spec, rec.x0l, rec.xTl, rec.cond, t)
    return softplus(beta_eff * (s_w - s_l))


def pnapo_value_grad(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    rec: "PreferenceRecord",
    t_w: float,
    beta_eff: float,
    t_l: float | None = None,
) -> tuple[float, ParamVector, float]:
    """Loss, analytic parameter gradient, and margin (-weighted score gap).

    The two candidates share one time draw unless t_l is given explicitly.
    """
    if t_l is None:
        t_l = t_w
    s_w, cache_w, res_w = _branch_score(params, ref_params, spec, rec.x0w, rec.xTw, rec.cond, t_w)
    s_l, cache_l, res_l = _branch_score(params, ref_params, spec, rec.x0l, rec.xTl, rec.cond, t_l)
    z = beta_eff * (s_w - s_l)
    loss = softplus(z)
    coef = sigmoid(z) * beta_eff  # d softplus(z) / dz times dz/ds scale
    grad = vjp_single(params, spec, cache_w, -2.0 * coef * res_w)
    grad += vjp_single(params, spec, cache_l, 2.0 * coef * res_l)
    return loss, grad, -z


def pnapo_objective(
    ref_params: ParamVector,
    spec: MlpSpec,
    rec: "PreferenceRecord",
    t: float,
    beta_eff: float,
) -> FunctionLoss:
    """Single-record preference loss as a differentiable objective (for checks)."""

    def value(params: ParamVector) -> float:
        return pnapo_loss(params, ref_params, spec, rec, t, beta_eff)

    def value_and_grad(params: ParamVector) -> tuple[float, ParamVector]:
        loss, grad, _ = pnapo_value_grad(params, ref_params, spec, rec, t, beta_eff)
        return loss, grad

    return FunctionLoss(value, value_and_grad)


def make_pnapo_term(
    ref_params: ParamVector,
    spec: MlpSpec,
    sched: BetaSchedule,
    step_index: int,
    rng: np.random.Generator,
    shared_t: bool = True,
) -> Callable:
    """Per-record loss functional for the shared trainer.

    RNG order per record: one time draw (two when shared_t is off). The time
    draw is the only stochastic input; everything else comes from the record.
    """

    def term(params: ParamVector, rec: "PreferenceRecord") -> tuple[float, ParamVector, dict]:
        t_w = float(rng.random())
        t_l = t_w if shared_t else float(rng.random())
        beta_eff = effective_beta(sched, rec.delta_r, step_index)
        loss, grad, margin = pnapo_value_grad(params, ref_params, spec, rec, t_w, beta_eff, t_l)
        return loss, grad, {"margin": margin, "beta_eff": beta_eff}

    return term


def align_step(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    optim: OptimState,
    batch: list["PreferenceRecord"],
    sched: BetaSchedule,
    step_index: int,
    rng: np.random.Generator,
    shared_t: bool = True,
) -> tuple[ParamVector, OptimState, dict]:
    """One preference update on a record batch; returns new params, state, metrics."""
    term = make_pnapo_term(ref_params, spec, sched, step_index, rng, shared_t)
    return training.step_with_terms(params, optim, batch, term, step_index)


@dataclass(frozen=True)
class AlignConfig:
    """Everything one alignment run needs besides the data and the reference."""

    method: str  # pnapo | dpo | sft
    lr: float
    steps: int
    batch: int
    schedule: BetaSchedule
    seed: int
    shared_t: bool = True
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.method not in ("pnapo", "dpo", "sft"):
            raise ConfigurationError(f"unknown alignment method {self.method!r}")
        if self.lr <= 0 or self.steps < 1 or self.batch < 1:
            raise ConfigurationError("alignment needs lr > 0, steps >= 1, batch >= 1")
