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
from .pnapo import AlignConfig, make_pnapo_term
from .prefdata import PreferenceDataset
from .rectflow import ConditionalMixture, FlowBatch, cfm_objective

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


def run_alignment(
    ref_params: ParamVector,
    spec: MlpSpec,
    dataset: PreferenceDataset,
    cfg: AlignConfig,
) -> tuple[ParamVector, list[dict]]:
    """Train a copy of the reference on preference pairs; returns (params, metric rows).

    Every step draws, from one default_rng(cfg.seed) stream: first the batch
    indices, rng.choice(n, size=min(batch, n), replace=False); then the
    method's draws for each pair in batch order:
      - pnapo: the time t, shared by the winner and the loser
      - dpo: the time t, then the winner's prior noise, then the loser's
      - sft: the winner's prior noise, then the time t
    """
    n = len(dataset)
    if n == 0:
        raise ConfigurationError("alignment needs at least one preference record")
    params = np.array(ref_params, dtype=np.float64, copy=True)
    optim = optim_init(params.size, cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    batch_size = min(cfg.batch, n)
    rows: list[dict] = []
    for step_index in range(1, cfg.steps + 1):
        batch = dataset.take(rng.choice(n, size=batch_size, replace=False))
        if cfg.method == "pnapo":
            term = make_pnapo_term(ref_params, spec, cfg.schedule, step_index, rng)
        elif cfg.method == "dpo":
            term = make_dpo_term(ref_params, spec, cfg.schedule.beta, rng)
        else:  # sft
            term = make_sft_term(spec, rng)
        params, optim, metrics = step_with_terms(params, optim, batch, term, step_index)
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
    if steps < 1 or batch < 1 or lr <= 0:
        raise ConfigurationError("pretraining needs steps >= 1, batch >= 1, lr > 0")
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
    for step_index in range(1, steps + 1):
        ks = rng.integers(spec.cond_dim, size=batch)
        x0 = mixture.sample_batch(rng, ks)
        xT = rng.standard_normal((batch, spec.data_dim))
        t = rng.random(batch)
        flow = FlowBatch(x0=x0, xT=xT, cond=eye[ks], t=t)
        loss, grad = loss_value_and_grad(cfm_objective(spec, flow), params)
        rows.append(
            {"step": step_index, "loss": loss, "grad_norm": float(np.linalg.norm(grad))}
        )
        optim, params = adam_step(optim, params, grad)
    return params, rows
