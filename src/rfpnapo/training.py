"""The one trainer every method shares: batch loop, Adam, metrics rows.

Preference methods differ only in the batch loss functional they hand to
step_with_terms; the optimizer path and the metrics schema are identical.
An align step is one call of that functional on the whole batch.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .baselines import make_dpo_term, make_sft_term
from .errors import ConfigurationError, NumericError
from .numerics import (
    MlpSpec,
    OptimState,
    ParamVector,
    adam_step,
    loss_value_and_grad,
    mlp_init,
    optim_init,
)
from .pnapo import BetaSchedule, make_pnapo_term
from .prefdata import PreferenceDataset
from .rectflow import ConditionalMixture, cfm_objective

METHODS = ("pnapo", "dpo", "sft")

# A term maps (params, batch of B pairs) -> (per-pair losses (B,), gradient of
# their sum, per-pair margins (B,), per-pair beta_eff (B,)).
Term = Callable[
    [ParamVector, PreferenceDataset], tuple[np.ndarray, ParamVector, np.ndarray, np.ndarray]
]


def step_with_terms(
    params: ParamVector,
    optim: OptimState,
    batch: PreferenceDataset,
    term: Term,
    step_index: int,
) -> tuple[ParamVector, OptimState, dict]:
    """Average the term's per-pair losses and gradient over a batch and apply one Adam step."""
    losses, grad_sum, margins, betas = term(params, batch)
    loss = float(np.mean(losses))
    grad = grad_sum / len(losses)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite loss or gradient at step {step_index}")
    metrics = {
        "step": step_index,
        "loss": loss,
        "margin_mean": float(np.mean(margins)),
        "beta_eff_mean": float(np.mean(betas)),
        "grad_norm": float(np.linalg.norm(grad)),
    }
    optim, params = adam_step(optim, params, grad)
    return params, optim, metrics


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
    params = np.array(ref_params, dtype=np.float64, copy=True)
    optim = optim_init(params.size, lr)
    rng = np.random.default_rng(seed)
    batch_size = min(batch, n)
    rows: list[dict] = []
    # a diverging run overflows before step_with_terms reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for step_index in range(1, steps + 1):
            pairs = dataset.take(rng.choice(n, size=batch_size, replace=False))
            if method == "pnapo":
                term = make_pnapo_term(ref_params, spec, schedule, step_index, rng)
            elif method == "dpo":
                term = make_dpo_term(ref_params, spec, schedule.beta, rng)
            else:  # sft
                term = make_sft_term(spec, rng)
            params, optim, metrics = step_with_terms(params, optim, pairs, term, step_index)
            rows.append(metrics)
    return params, rows


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
    params = mlp_init(spec, seed)
    optim = optim_init(params.size, lr)
    rng = np.random.default_rng(seed + 1)
    eye = np.eye(spec.cond_dim)
    rows: list[dict] = []
    # a diverging run overflows before loss_value_and_grad reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for step_index in range(1, steps + 1):
            ks = rng.integers(spec.cond_dim, size=batch)
            x0 = mixture.sample_batch(rng, ks)
            xT = rng.standard_normal((batch, spec.data_dim))
            t = rng.random(batch)
            loss, grad = loss_value_and_grad(cfm_objective(spec, x0, xT, eye[ks], t), params)
            rows.append(
                {"step": step_index, "loss": loss, "grad_norm": float(np.linalg.norm(grad))}
            )
            optim, params = adam_step(optim, params, grad)
    return params, rows
