"""The one trainer loop pretraining and every method share: steps, Adam, metrics rows.

Each trainer hands _fit only its step, and sets up once per run what stays
fixed: the parameters' layer views and the step's buffers (a
numerics.Workspace), the objective or batch term, and pnapo's reward-gap
gates. A step then draws its batch, does its arithmetic and returns a
gradient that lives in the run's buffer until the Adam update has read it.
Preference methods differ only in the batch term they hand to
step_with_terms; an align step is one call of that term on the whole batch.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .baselines import make_dpo_term, make_sft_term
from .errors import ConfigurationError, NumericError
from .numerics import MlpSpec, ParamVector, Workspace, adam_step, mlp_init, optim_init
from .pnapo import BetaSchedule, make_pnapo_term
from .prefdata import PreferenceDataset
from .rectflow import ConditionalMixture, cfm_objective

METHODS = ("pnapo", "dpo", "sft")


def _fit(params: ParamVector, steps: int, lr: float, step: Callable) -> list[dict]:
    """Adam on params in place; step(params, step_index) gives (loss, grad, extra columns).

    Returns the rows {"step", "loss", **extra, "grad_norm"}, one per step.
    """
    optim = optim_init(params.size, lr)
    rows: list[dict] = []
    # a diverging run overflows before the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for step_index in range(1, steps + 1):
            loss, grad, extra = step(params, step_index)
            if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite loss or gradient at step {step_index}")
            norm = float(np.linalg.norm(grad))
            rows.append({"step": step_index, "loss": loss, **extra, "grad_norm": norm})
            adam_step(optim, params, grad)
    return rows


def step_with_terms(
    params: ParamVector, idx: np.ndarray, step_index: int, term: Callable
) -> tuple[float, ParamVector, dict]:
    """The mean loss, gradient, margin and beta_eff of a batch of B pairs.

    term(params, idx, step_index) gives the per-pair losses (B,) of the
    records idx, the gradient of their sum (divided here in place), the
    margins (B,) and the beta_eff (B,).
    """
    losses, grad, margins, betas = term(params, idx, step_index)
    grad /= len(losses)
    extra = {"margin_mean": float(np.mean(margins)), "beta_eff_mean": float(np.mean(betas))}
    return float(np.mean(losses)), grad, extra


def _check_run_length(steps: int, batch: int) -> None:
    """The step and batch counts every trainer checks; optim_init checks its rate."""
    if steps < 1 or batch < 1:
        raise ConfigurationError(f"training needs steps >= 1 and batch >= 1, got {steps} and {batch}")


def run_alignment(
    ref_params: ParamVector,
    spec: MlpSpec,
    dataset: PreferenceDataset,
    method: str,
    schedule: BetaSchedule,
    steps: int,
    batch: int,
    lr: float,
    seed: int,
) -> tuple[ParamVector, list[dict]]:
    """Train a copy of the reference on preference pairs; returns (params, metric rows).

    method is one of METHODS; dpo reads only schedule.beta, sft no schedule.
    Every step draws, from one default_rng(seed) stream: first the batch
    indices, rng.choice(n, size=min(batch, n), replace=False); then the
    method's draws as blocks over the b pairs, rows in batch order:
      - pnapo: rng.random((b, 1)), one time per pair, shared by its winner
        and loser
      - dpo: rng.random((b, 1)), the times; then rng.standard_normal((b, 2, d)),
        each pair's winner then loser prior noise
      - sft: rng.standard_normal((b, d)), the winners' prior noises; then
        rng.random(b), the times
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown alignment method {method!r}")
    _check_run_length(steps, batch)
    n = len(dataset)
    if n == 0:
        raise ConfigurationError("alignment needs at least one preference record")
    rng = np.random.default_rng(seed)
    b = min(batch, n)
    params = np.array(ref_params, dtype=np.float64, copy=True)
    if method == "sft":
        term = make_sft_term(spec, dataset, rng, Workspace(params, spec, b, True))
    else:
        trained = Workspace(params, spec, 2 * b, True)
        out = trained, Workspace(ref_params, spec, 2 * b, True, share=trained)
        term = (make_pnapo_term(ref_params, spec, schedule, dataset, rng, out) if method == "pnapo"
                else make_dpo_term(ref_params, spec, schedule.beta, dataset, rng, out))

    def step(params: ParamVector, step_index: int):
        return step_with_terms(params, rng.choice(n, size=b, replace=False), step_index, term)

    return params, _fit(params, steps, lr, step)


def run_pretrain(
    spec: MlpSpec,
    mixture: ConditionalMixture,
    steps: int,
    batch: int,
    lr: float,
    seed: int,
) -> tuple[ParamVector, list[dict]]:
    """Fit the velocity field by regression on straight paths from the mixture.

    Init uses `seed`; the data stream uses seed+1 so the two draws stay
    distinct. RNG order per step, each a block over the batch: condition
    indices, mode picks (none when every condition has one mode), mixture
    noise (batch, dim), prior noise (batch, dim), times (batch,).
    """
    _check_run_length(steps, batch)
    if mixture.dim != spec.data_dim or mixture.n_conditions != spec.cond_dim:
        raise ConfigurationError(
            f"mixture ({mixture.dim}, {mixture.n_conditions}) does not match "
            f"model ({spec.data_dim}, {spec.cond_dim})"
        )
    rng = np.random.default_rng(seed + 1)
    eye = np.eye(spec.cond_dim)
    params = mlp_init(spec, seed)
    x0, xT = np.empty((batch, spec.data_dim)), np.empty((batch, spec.data_dim))
    cond, t = np.empty((batch, spec.cond_dim)), np.empty(batch)
    objective = cfm_objective(spec, x0, xT, cond, t, Workspace(params, spec, batch, False))

    def step(params: ParamVector, step_index: int):
        ks = rng.integers(spec.cond_dim, size=batch)
        x0[...] = mixture.sample_batch(rng, ks)
        rng.standard_normal(out=xT)
        rng.random(out=t)
        np.take(eye, ks, axis=0, out=cond)
        loss, grad = objective.value_and_grad(params)
        return loss, grad, {}

    return params, _fit(params, steps, lr, step)
