"""Exact small-scale verification tools and model evaluation.

The tabular half enumerates short discrete reverse chains to check, by exact
summation, the chain rule: the joint divergence of two path measures is their
endpoint divergence plus the mean divergence of their interiors conditioned on
the endpoint. The endpoint term is a KL and so never negative, which is why
conditioning both measures on a shared endpoint can only shrink their
divergence. A chain is one (2, horizon, S, S) block: side 0 is p, side 1 is q,
and each side's matrix 0 is its terminal distribution (row = data state x0),
matrix j >= 1 its reverse kernel from time j+1 to time j (row = the later
state). The other half measures estimator variance and sampled reward quality
on toy tasks.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ConfigurationError, ShapeError
from .numerics import MlpSpec, ParamVector
from .pnapo import score_gap
from .prefdata import PreferenceDataset, reward_eval
from .rectflow import euler_sample

MAX_STATES = 6
MAX_HORIZON = 4
MIN_ENTRY = 1e-6
ROW_SUM_TOL = 1e-12
SMOOTHING = 0.05  # added to every uniform draw of random_chain, so no entry is near 0


def _check_caps(n_states: int, horizon: int) -> None:
    if n_states > MAX_STATES or horizon > MAX_HORIZON:
        raise ConfigurationError(
            f"exact enumeration is capped at {MAX_STATES} states and horizon "
            f"{MAX_HORIZON}; got {n_states} and {horizon}"
        )


def random_chain(seed: int, n_states: int, horizon: int) -> np.ndarray:
    """A smoothed random (2, horizon, S, S) chain block; the two sides draw their own endpoint marginals.

    RNG order: one uniform (2, horizon, S, S) block, so the p side's terminal
    then kernels, then the q side's.
    """
    if n_states < 2 or horizon < 1:
        raise ConfigurationError(
            f"a chain needs at least 2 states and horizon 1; got {n_states} and {horizon}"
        )
    _check_caps(n_states, horizon)
    raw = np.random.default_rng(seed).uniform(0.0, 1.0, (2, horizon, n_states, n_states)) + SMOOTHING
    return raw / raw.sum(axis=3, keepdims=True)


def _path_probs(start: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Probabilities of every path (x_1, ..., x_T) as one (S,) * T array, T = len(kernels) + 1.

    Axis j is x_{j+1}, so the array's C order is itertools.product order. start
    weights x_T, the last axis; kernels[j] links x_{j+2} -> x_{j+1} and is
    multiplied in for j = 0, 1, ..., the order a per-path product would take.
    """
    s, horizon = len(start), len(kernels) + 1
    probs = np.broadcast_to(start, (s,) * horizon)
    for j, kernel in enumerate(kernels):
        probs = probs * kernel.T.reshape((1,) * j + (s, s) + (1,) * (horizon - 2 - j))
    return probs


def _kl_sum(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Sum of q log(q / p) over the last axis, added in order as a `+=` loop would."""
    return np.cumsum(q * np.log(q / p), axis=-1)[..., -1]


def chain_rule_identity(chain: np.ndarray, x0: int) -> tuple[float, float, float]:
    """Exact decomposition: joint KL = endpoint KL + mean conditional KL.

    chain is a (2, horizon, S, S) block, p then q, every row stochastic with
    entries at least MIN_ENTRY; it is checked here, before any enumeration.
    Returns (total, endpoint_term, conditional_term); the first equals the sum
    of the other two up to float roundoff.
    """
    chain = np.asarray(chain, dtype=np.float64)
    if chain.ndim != 4 or chain.shape[0] != 2 or min(chain.shape[1:]) < 1 or chain.shape[2] != chain.shape[3]:
        raise ShapeError(f"a chain must be a (2, horizon, S, S) block, horizon and S >= 1; got {chain.shape}")
    s = chain.shape[2]
    _check_caps(s, chain.shape[1])
    if not np.all(chain >= MIN_ENTRY):  # a NaN fails this too
        raise ShapeError(f"the chain has entries below {MIN_ENTRY}; smooth the chain first")
    if np.max(np.abs(chain.sum(axis=3) - 1.0)) > ROW_SUM_TOL:
        raise ShapeError(f"the chain's rows must sum to 1 within {ROW_SUM_TOL}")
    if not 0 <= x0 < s:
        raise ShapeError(f"x0 must index a state in [0, {s})")
    sides = (chain[1], chain[0])
    ends = [side[0, x0] for side in sides]
    joints = [_path_probs(side[0, x0], side[1:]).ravel() for side in sides]
    # conditioned on x_T the terminal factor cancels: the interior is the kernel product alone
    interiors = [np.moveaxis(_path_probs(np.ones(s), side[1:]), -1, 0).reshape(s, -1) for side in sides]
    total = _kl_sum(*joints)
    endpoint = _kl_sum(*ends)
    # the interior KL at each x_T, averaged over q's endpoint marginal
    conditional = np.cumsum(ends[0] * _kl_sum(*interiors))[-1]
    return float(total), float(endpoint), float(conditional)


# --- estimator variance --------------------------------------------------------


def estimator_variance(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    pair: PreferenceDataset,
    n_draws: int,
    seed: int,
) -> tuple[float, float]:
    """Sample variance of one pair's score-gap estimator under both noise policies.

    RNG order, as in make_dpo_term: the n_draws times as one (n_draws, 1)
    block, then the fresh priors as one (n_draws, 2, dim) block, winner then
    loser per draw. The stored-noise gap varies only through t; the
    fresh-noise gap re-draws both priors as well. Each policy's n_draws gaps
    are one score_gap call. Returns (var_stored, var_fresh), each with ddof=1
    over n_draws.
    """
    if n_draws < 2:
        raise ConfigurationError(f"variance needs at least 2 draws, got {n_draws}")
    if len(pair) != 1:
        raise ShapeError(f"estimator variance takes one pair, got {len(pair)}")
    rng = np.random.default_rng(seed)
    t = rng.random((n_draws, 1))
    eps = rng.standard_normal((n_draws, 2, spec.data_dim))
    repeated = pair.take(np.zeros(n_draws, dtype=int))
    stored = score_gap(params, ref_params, spec, repeated, t)
    fresh = score_gap(params, ref_params, spec, replace(repeated, xT=eps), t)
    return float(np.var(stored, ddof=1)), float(np.var(fresh, ddof=1))


# --- sampled evaluation ---------------------------------------------------------


def eval_reward(
    params: ParamVector,
    spec: MlpSpec,
    centers: np.ndarray,
    n_per_condition: int,
    steps: int,
    seed: int,
) -> np.ndarray:
    """reward_eval's rewards of n_per_condition samples per condition, each decoded in `steps` steps.

    Trial i decodes prior draw i of default_rng(seed) under condition
    i mod cond_dim, one (n_per_condition * cond_dim, data_dim) block of draws.
    Returns the (n_per_condition * cond_dim,) per-trial rewards, which
    win_rate compares: two models evaluated at one seed decode the same noise
    in the same order.
    """
    if n_per_condition < 1:
        raise ConfigurationError(f"need n_per_condition >= 1, got {n_per_condition}")
    n = n_per_condition * spec.cond_dim
    conds = np.eye(spec.cond_dim)[np.arange(n) % spec.cond_dim]
    noise = np.random.default_rng(seed).standard_normal((n, spec.data_dim))
    x0 = euler_sample(params, spec, noise, conds, steps)
    return reward_eval(centers, x0, conds)


def win_rate(rewards_a: np.ndarray, rewards_b: np.ndarray) -> float:
    """Share of paired trials model a wins, ties scoring half.

    The rewards are eval_reward's of two models at one seed, so trial i of
    both decoded the same noise under the same condition. The models may
    differ in width. Comparing a model against itself gives exactly 0.5.
    """
    if rewards_a.shape != rewards_b.shape or rewards_a.ndim != 1 or rewards_a.size == 0:
        raise ShapeError(f"paired rewards have shapes {rewards_a.shape} and {rewards_b.shape}")
    wins = np.count_nonzero(rewards_a > rewards_b) + 0.5 * np.count_nonzero(rewards_a == rewards_b)
    return float(wins) / rewards_a.size
