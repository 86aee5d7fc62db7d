"""Baseline preference objectives sharing the trainer: fresh-noise DPO and SFT.

The DPO variant scores each candidate against a freshly drawn prior sample
instead of the stored one: it is the noise-aware batch function with the
pairs' xT array swapped for fresh draws, which is exactly how the two are
compared. SFT is the winner-only case: flow matching on each pair's winner
from fresh noise, one row per pair. Like the noise-aware loss, each is one
batch call: per-pair losses are bitwise those of scoring each pair alone, and
the gradient of their sum is the backward GEMM's.
"""
from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .numerics import MlpSpec, ParamVector, forward_single_cached, row_dot, vjp_single
from .pnapo import pnapo_value_grad
from .rectflow import path_inputs

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

    eps is (B, 2, dim), laid out like pairs.xT: winner then loser draw of each
    pair; the stored noises are ignored (a wrong shape raises ShapeError).
    Coincides exactly with pnapo_value_grad when eps equals the stored noises.
    """
    return pnapo_value_grad(params, ref_params, spec, replace(pairs, xT=eps), t, np.full(len(pairs), beta))


def make_dpo_term(
    ref_params: ParamVector,
    spec: MlpSpec,
    beta: float,
    rng: np.random.Generator,
) -> Callable:
    """The batch DPO functional; its draw order is in training.run_alignment."""

    def term(params: ParamVector, pairs: "PreferenceDataset"):
        b = len(pairs)
        t = rng.random((b, 1))
        eps = rng.standard_normal((b, 2, pairs.header.dim))
        losses, grad, margins = dpo_value_grad(params, ref_params, spec, pairs, eps, t, beta)
        return losses, grad, margins, np.full(b, beta)

    return term


def sft_value_grad(
    params: ParamVector, spec: MlpSpec, pairs: "PreferenceDataset", xT: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, ParamVector]:
    """Per-pair matching losses on the winners, and the parameter gradient of their sum.

    xT (B, dim) are fresh prior draws and t (B,) the times; of the pairs only
    the conditions and the winners x0[:, 0] are read.
    """
    inp, target = path_inputs(spec, pairs.x0[:, 0], xT, pairs.cond, t)
    v, cache = forward_single_cached(params, spec, inp)
    residual = v - target
    return row_dot(residual, residual), vjp_single(params, spec, cache, 2.0 * residual)


def make_sft_term(spec: MlpSpec, rng: np.random.Generator) -> Callable:
    """The batch SFT functional on the winners; its draw order is in training.run_alignment."""

    def term(params: ParamVector, pairs: "PreferenceDataset"):
        b = len(pairs)
        xT = rng.standard_normal((b, spec.data_dim))
        t = rng.random(b)
        losses, grad = sft_value_grad(params, spec, pairs, xT, t)
        return losses, grad, np.zeros(b), np.zeros(b)

    return term

