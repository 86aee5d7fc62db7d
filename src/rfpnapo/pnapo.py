"""Noise-aware preference loss and its dynamic weighting schedule.

A candidate is scored by how much worse the trained network explains the
straight path from the candidate's own stored prior noise than the frozen
reference does (squared velocity error at a random time, trained minus
reference). A pair's winner-minus-loser score gap is stated once, in
_score_gaps, and score_gap returns it alone. The logistic preference loss is
built on that gap, with an effective weight that grows with the reward gap
and anneals over training steps. The fresh-noise baseline is the same gap
with the stored noises swapped for fresh draws, and the variance estimator
compares the two.

Every function here works on a batch of pairs at once: the winner and loser
rows of all B pairs go through one trained and one reference forward pass
and one backward pass. Each row's score is that of scoring it alone, bit for
bit, so per-pair gaps, losses and margins do not depend on the batch; the
gradient of their sum is one GEMM per layer, equal to the sum of the pairs'
gradients up to the order of addition. A run sets up its term once, with
the gates f(delta_r) of every record and the forwards' workspaces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ShapeError
from .numerics import (
    MlpSpec,
    ParamVector,
    forward_single_cached,
    row_dot,
    sigmoid,
    softplus,
    vjp_single,
)
from .prefdata import PreferenceDataset
from .rectflow import path_inputs


@dataclass(frozen=True)
class BetaSchedule:
    """Preference weight: base value, anneal window [n1, n2], dynamic switch."""

    beta: float
    n1: int
    n2: int
    dynamic: bool

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.n1 < 1 or self.n2 <= self.n1:
            raise ConfigurationError(f"need 1 <= n1 < n2, got ({self.n1}, {self.n2})")


def f_controller(delta_r):
    """Reward-gap gate 2*sigmoid(delta_r) - 1, elementwise: zero at zero gap, saturating to 1."""
    delta_r = np.asarray(delta_r, dtype=np.float64)
    bad = ~(np.isfinite(delta_r) & (delta_r >= 0.0))
    if bad.any():
        raise ShapeError(f"reward gap must be finite and >= 0, got {float(delta_r[bad][0])!r}")
    return 2.0 * sigmoid(delta_r) - 1.0


def g_controller(n, sched: BetaSchedule) -> float:
    """Step anneal over sched's window: 1 up to n1, quarter-cosine down to 1/2 at n2, then flat 1/2."""
    n1, n2 = sched.n1, sched.n2
    if n <= n1:
        return 1.0
    if n >= n2:
        return 0.5
    return 0.5 + 0.5 * math.cos(0.5 * math.pi * (n - n1) / (n2 - n1))


def effective_beta(sched: BetaSchedule, delta_r, n: int):
    """Per-pair weight beta * f(delta_r) * g(n), elementwise over the reward gaps."""
    return gated_beta(sched, f_controller(delta_r), n)


def gated_beta(sched: BetaSchedule, gate, n: int):
    """effective_beta on gates f(delta_r) a run computes once: beta * gate * g(n), or beta if not dynamic."""
    if not sched.dynamic:
        return np.full(np.shape(gate), sched.beta)[()]
    return sched.beta * gate * g_controller(n, sched)


def _score_gaps(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    pairs: PreferenceDataset,
    t: np.ndarray | float,
    out: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Per-pair score gaps, plus the row residuals and forward cache the backward pass needs.

    Row 2i is pair i's winner, row 2i + 1 its loser. t broadcasts to (B, 2): a
    scalar, (B, 1) for one time per pair, or (B, 2). out is None or the
    (trained, reference) tiled Workspaces on 2B rows, the reference's sharing
    the trained one's input, which its forward then reads in place.
    """
    b, d = len(pairs), pairs.header.dim
    inp, u = path_inputs(
        spec,
        pairs.x0.reshape(2 * b, d),
        pairs.xT.reshape(2 * b, d),
        np.repeat(pairs.cond, 2, axis=0),
        np.broadcast_to(t, (b, 2)).reshape(-1),
    )
    trained, ref = out or (None, None)
    v, cache = forward_single_cached(params, spec, inp, trained)
    v_ref, _ = forward_single_cached(ref_params, spec, cache[0], ref)
    res, ref_res = u - v, u - v_ref
    s = row_dot(res, res) - row_dot(ref_res, ref_res)
    return s[0::2] - s[1::2], res, cache


def score_gap(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    pairs: PreferenceDataset,
    t: np.ndarray | float,
) -> np.ndarray:
    """The (B,) winner-minus-loser score gaps on the pairs' stored noises; t as in _score_gaps."""
    return _score_gaps(params, ref_params, spec, pairs, t)[0]


def pnapo_value_grad(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    pairs: PreferenceDataset,
    t: np.ndarray | float,
    beta_eff: np.ndarray,
    out: tuple | None = None,
) -> tuple[np.ndarray, ParamVector, np.ndarray]:
    """Per-pair losses, the parameter gradient of their sum, and per-pair margins.

    Each pair's loss is softplus(z), z = beta_eff * (s_winner - s_loser), both
    scores taken on the pair's stored noises; at the reference point
    (params == ref_params) both scores vanish and every loss is log 2. The
    margin is -z. t broadcasts to (B, 2) and out is set up as in _score_gaps;
    with out, the gradient is the trained workspace's buffer.
    """
    gaps, res, cache = _score_gaps(params, ref_params, spec, pairs, t, out)
    z = beta_eff * gaps
    coef = sigmoid(z) * beta_eff  # d softplus(z) / d(s_w - s_l)
    # each row's cotangent, rows in _score_gaps order: winner -2 * coef * res, loser +2 * coef * res
    dy = np.stack([-2.0 * coef, 2.0 * coef], axis=1).reshape(-1, 1) * res
    return softplus(z), vjp_single(params, spec, cache, dy, out and out[0]), -z


def make_pnapo_term(
    ref_params: ParamVector,
    spec: MlpSpec,
    sched: BetaSchedule,
    dataset: PreferenceDataset,
    rng: np.random.Generator,
    out: tuple | None = None,
) -> Callable:
    """The batch loss functional for the shared trainer, set up once per run on dataset.

    term(params, idx, step_index) scores the records dataset.take(idx). Its
    only draw is one time per pair (the order is in training.run_alignment);
    everything else comes from the pairs, and the gates f(delta_r), computed
    here once, elementwise. out is as in _score_gaps on len(idx) pairs.
    """
    gate = f_controller(dataset.delta_r)

    def term(params: ParamVector, idx: np.ndarray, step_index: int):
        pairs = dataset.take(idx)
        t = rng.random((len(pairs), 1))
        beta_eff = gated_beta(sched, gate[idx], step_index)
        losses, grad, margins = pnapo_value_grad(params, ref_params, spec, pairs, t, beta_eff, out)
        return losses, grad, margins, beta_eff

    return term
