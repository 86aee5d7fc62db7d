"""Baseline preference objectives sharing the trainer: fresh-noise DPO and SFT.

The DPO variant scores each candidate against a freshly drawn prior sample
instead of the stored one: it is the noise-aware batch function with the
pairs' xT arrays swapped for fresh draws, which is exactly how the two are
compared. SFT is the winner-only case: flow matching on each pair's winner
from fresh noise, one row per pair. Like the noise-aware loss, each is one
batch call: per-pair losses are bitwise those of scoring each pair alone, and
the gradient of their sum is the backward GEMM's.
"""
from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ShapeError
from .numerics import FunctionLoss, MlpSpec, ParamVector, forward_single_cached, row_dot, vjp_single
from .pnapo import pnapo_value_grad
from .rectflow import FlowBatch, path_inputs

if TYPE_CHECKING:
    from .prefdata import PreferenceDataset


def dpo_value_grad(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    pairs: "PreferenceDataset",
    eps: np.ndarray,
    t: np.ndarray | float,
    beta: float,
) -> tuple[np.ndarray, ParamVector, np.ndarray]:
    """The noise-aware losses, gradient and margins with fresh prior draws.

    eps is (B, 2, dim): winner then loser draw of each pair; the stored noises
    are ignored. Coincides exactly with pnapo_value_grad when eps equals the
    stored noises.
    """
    if eps.shape != (len(pairs), 2, pairs.header.dim):
        raise ShapeError(f"draws have shape {eps.shape}, expected ({len(pairs)}, 2, {pairs.header.dim})")
    fresh = replace(pairs, xTw=eps[:, 0], xTl=eps[:, 1])
    return pnapo_value_grad(params, ref_params, spec, fresh, t, np.full(len(pairs), beta))


def dpo_objective(
    ref_params: ParamVector,
    spec: MlpSpec,
    pairs: "PreferenceDataset",
    eps: np.ndarray,
    t: np.ndarray | float,
    beta: float,
) -> FunctionLoss:
    def value_and_grad(params: ParamVector) -> tuple[float, ParamVector]:
        losses, grad, _ = dpo_value_grad(params, ref_params, spec, pairs, eps, t, beta)
        return float(np.sum(losses)), grad

    return FunctionLoss(value_and_grad)


def make_dpo_term(
    ref_params: ParamVector,
    spec: MlpSpec,
    beta: float,
    rng: np.random.Generator,
) -> Callable:
    """The batch DPO functional. RNG order per pair, pairs in batch order: t, eps_w, eps_l."""

    def term(params: ParamVector, pairs: "PreferenceDataset"):
        b = len(pairs)
        t = np.empty((b, 1))
        eps = np.empty((b, 2, pairs.header.dim))
        for i in range(b):
            t[i] = rng.random()
            eps[i] = rng.standard_normal((2, pairs.header.dim))
        losses, grad, margins = dpo_value_grad(params, ref_params, spec, pairs, eps, t, beta)
        return losses, grad, margins, np.full(b, beta)

    return term


def sft_value_grad(
    params: ParamVector, spec: MlpSpec, pairs: "PreferenceDataset", xT: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, ParamVector]:
    """Per-pair matching losses on the winners, and the parameter gradient of their sum.

    xT (B, dim) are fresh prior draws and t (B,) the times; the loser fields
    are never read.
    """
    inp, target = path_inputs(spec, FlowBatch(x0=pairs.x0w, xT=xT, cond=pairs.cond, t=t))
    v, cache = forward_single_cached(params, spec, inp)
    residual = v - target
    return row_dot(residual, residual), vjp_single(params, spec, cache, 2.0 * residual)


def sft_objective(
    spec: MlpSpec, pairs: "PreferenceDataset", xT: np.ndarray, t: np.ndarray
) -> FunctionLoss:
    def value_and_grad(params: ParamVector) -> tuple[float, ParamVector]:
        losses, grad = sft_value_grad(params, spec, pairs, xT, t)
        return float(np.sum(losses)), grad

    return FunctionLoss(value_and_grad)


def make_sft_term(spec: MlpSpec, rng: np.random.Generator) -> Callable:
    """The batch SFT functional on the winners. RNG order per pair, pairs in batch order: xT, then t."""

    def term(params: ParamVector, pairs: "PreferenceDataset"):
        b = len(pairs)
        xT = np.empty((b, spec.data_dim))
        t = np.empty(b)
        for i in range(b):
            xT[i] = rng.standard_normal(spec.data_dim)
            t[i] = rng.random()
        losses, grad = sft_value_grad(params, spec, pairs, xT, t)
        return losses, grad, np.zeros(b), np.zeros(b)

    return term


__all__ = [
    "dpo_value_grad",
    "dpo_objective",
    "make_dpo_term",
    "sft_value_grad",
    "sft_objective",
    "make_sft_term",
]
