"""Exact small-scale verification tools and model evaluation.

The tabular half enumerates short discrete reverse chains to check, by exact
summation, that conditioning both path measures on a shared endpoint can only
shrink their divergence — and that the underlying chain-rule decomposition
holds to float precision. The other half measures estimator variance and
sampled reward quality on toy tasks.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError, ShapeError
from .fileio import fmt17, write_text
from .numerics import MlpSpec, ParamVector
from .pnapo import pair_rows, score
from .prefdata import PreferenceDataset, RewardSpec, reward_eval
from .rectflow import SamplerConfig, euler_sample

MAX_STATES = 6
MAX_HORIZON = 4
MIN_ENTRY = 1e-6
ROW_SUM_TOL = 1e-12


def _check_stochastic(name: str, mat: np.ndarray, n_states: int) -> None:
    if mat.shape != (n_states, n_states):
        raise ShapeError(f"{name} must be ({n_states}, {n_states}), got {mat.shape}")
    if np.any(mat < MIN_ENTRY):
        raise ShapeError(f"{name} has entries below {MIN_ENTRY}; smooth the chain first")
    if np.max(np.abs(mat.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
        raise ShapeError(f"{name} rows must sum to 1 within {ROW_SUM_TOL}")


@dataclass
class TabularChain:
    """Two reverse-time chains over the same finite state space.

    Each side is a terminal distribution (row = starting data state x0) plus
    horizon-1 reverse kernels (row = the later-time state being conditioned
    on). Kernel j produces the state at time j+1 from the state at time j+2.
    """

    p_terminal: np.ndarray
    p_kernels: tuple[np.ndarray, ...]
    q_terminal: np.ndarray
    q_kernels: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.p_terminal = np.asarray(self.p_terminal, dtype=np.float64)
        self.q_terminal = np.asarray(self.q_terminal, dtype=np.float64)
        self.p_kernels = tuple(np.asarray(k, dtype=np.float64) for k in self.p_kernels)
        self.q_kernels = tuple(np.asarray(k, dtype=np.float64) for k in self.q_kernels)
        s = self.p_terminal.shape[0]
        if len(self.p_kernels) != len(self.q_kernels):
            raise ShapeError("both sides must have the same horizon")
        if s > MAX_STATES or self.horizon > MAX_HORIZON:
            raise ConfigurationError(
                f"exact enumeration is capped at {MAX_STATES} states and horizon "
                f"{MAX_HORIZON}; got {s} and {self.horizon}"
            )
        _check_stochastic("p_terminal", self.p_terminal, s)
        _check_stochastic("q_terminal", self.q_terminal, s)
        for i, (pk, qk) in enumerate(zip(self.p_kernels, self.q_kernels)):
            _check_stochastic(f"p_kernels[{i}]", pk, s)
            _check_stochastic(f"q_kernels[{i}]", qk, s)

    @property
    def n_states(self) -> int:
        return self.p_terminal.shape[0]

    @property
    def horizon(self) -> int:
        return len(self.p_kernels) + 1


def _random_side(
    rng: np.random.Generator, n_states: int, horizon: int, smoothing: float = 0.05
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    def stochastic() -> np.ndarray:
        raw = rng.uniform(0.0, 1.0, size=(n_states, n_states)) + smoothing
        return raw / raw.sum(axis=1, keepdims=True)

    terminal = stochastic()
    kernels = tuple(stochastic() for _ in range(horizon - 1))
    return terminal, kernels


def random_chain(
    seed: int, n_states: int, horizon: int, matched_endpoint: bool = True
) -> TabularChain:
    """A smoothed random chain pair; optionally share the terminal distribution."""
    rng = np.random.default_rng(seed)
    return _random_chain_rng(rng, n_states, horizon, matched_endpoint)


def _random_chain_rng(
    rng: np.random.Generator, n_states: int, horizon: int, matched_endpoint: bool
) -> TabularChain:
    p_terminal, p_kernels = _random_side(rng, n_states, horizon)
    q_terminal, q_kernels = _random_side(rng, n_states, horizon)
    if matched_endpoint:
        q_terminal = p_terminal.copy()
    return TabularChain(
        p_terminal=p_terminal, p_kernels=p_kernels,
        q_terminal=q_terminal, q_kernels=q_kernels,
    )


def _path_prob(terminal_row: np.ndarray, kernels: tuple[np.ndarray, ...], path: tuple) -> float:
    # path = (x_1, ..., x_T); kernel j links x_{j+2} -> x_{j+1}
    prob = terminal_row[path[-1]]
    for j in range(len(kernels)):
        prob *= kernels[j][path[j + 1], path[j]]
    return float(prob)


def _joint_kl(chain: TabularChain, x0: int) -> float:
    total = 0.0
    for path in itertools.product(range(chain.n_states), repeat=chain.horizon):
        q = _path_prob(chain.q_terminal[x0], chain.q_kernels, path)
        p = _path_prob(chain.p_terminal[x0], chain.p_kernels, path)
        total += q * math.log(q / p)
    return total


def _endpoint_kl(chain: TabularChain, x0: int) -> float:
    q_row, p_row = chain.q_terminal[x0], chain.p_terminal[x0]
    return float(np.sum(q_row * np.log(q_row / p_row)))


def _conditional_kl_mean(chain: TabularChain, x0: int, weight_side: str) -> float:
    """Average over the endpoint of KL between the interior conditionals.

    Conditioned on the endpoint, each side's interior distribution is just its
    kernel product (the terminal factor cancels), already normalized.
    """
    weights = chain.q_terminal[x0] if weight_side == "q" else chain.p_terminal[x0]
    if chain.horizon == 1:
        return 0.0  # no interior states at all
    total = 0.0
    for end in range(chain.n_states):
        inner = 0.0
        for interior in itertools.product(range(chain.n_states), repeat=chain.horizon - 1):
            path = interior + (end,)
            q = _path_prob(np.ones(chain.n_states), chain.q_kernels, path)
            p = _path_prob(np.ones(chain.n_states), chain.p_kernels, path)
            inner += q * math.log(q / p)
        total += weights[end] * inner
    return total


def chain_rule_identity(chain: TabularChain, x0: int) -> tuple[float, float, float]:
    """Exact decomposition: joint KL = endpoint KL + mean conditional KL.

    Returns (total, endpoint_term, conditional_term); the first equals the sum
    of the other two up to float roundoff.
    """
    if not 0 <= x0 < chain.n_states:
        raise ShapeError(f"x0 must index a state in [0, {chain.n_states})")
    total = _joint_kl(chain, x0)
    endpoint = _endpoint_kl(chain, x0)
    conditional = _conditional_kl_mean(chain, x0, weight_side="q")
    return total, endpoint, conditional


def tabular_kl_check(seed: int, n_states: int, horizon: int) -> tuple[float, float]:
    """One exact instance of the endpoint-conditioning bound.

    Builds a random smoothed chain pair with the second side's endpoint
    marginal forced equal to the first's, draws a start state, and returns
    (lhs, rhs) where lhs averages the interior conditional KL over the shared
    endpoint and rhs is the joint KL. lhs <= rhs always holds (with matched
    endpoints they coincide).
    """
    if n_states > MAX_STATES or horizon > MAX_HORIZON:
        raise ConfigurationError(
            f"exact enumeration is capped at {MAX_STATES} states, horizon {MAX_HORIZON}"
        )
    if n_states < 2 or horizon < 1:
        raise ConfigurationError("need at least 2 states and horizon >= 1")
    rng = np.random.default_rng(seed)
    chain = _random_chain_rng(rng, n_states, horizon, matched_endpoint=True)
    x0 = int(rng.integers(n_states))
    lhs = _conditional_kl_mean(chain, x0, weight_side="p")
    rhs = _joint_kl(chain, x0)
    return lhs, rhs


# --- estimator variance --------------------------------------------------------


def pnapo_delta(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    pairs: PreferenceDataset,
    t: np.ndarray | float,
) -> np.ndarray:
    """Winner-minus-loser score gap of every pair, on its stored noises.

    t is one time for all pairs or one per pair, shape (n, 1).
    """
    s = score(params, ref_params, spec, pair_rows(pairs, t))
    return s[0::2] - s[1::2]


def estimator_variance(
    params: ParamVector,
    ref_params: ParamVector,
    spec: MlpSpec,
    pair: PreferenceDataset,
    n_draws: int,
    seed: int,
) -> tuple[float, float]:
    """Sample variance of one pair's score-gap estimator under both noise policies.

    Per draw (RNG order: t, eps_w, eps_l): the stored-noise gap varies only
    through t; the fresh-noise gap re-draws both priors as well. All draws
    are then scored in one batch. Returns (var_stored, var_fresh), each with
    ddof=1 over n_draws.
    """
    if n_draws < 2:
        raise ConfigurationError(f"variance needs at least 2 draws, got {n_draws}")
    if len(pair) != 1:
        raise ShapeError(f"estimator variance takes one pair, got {len(pair)}")
    rng = np.random.default_rng(seed)
    t = np.empty((n_draws, 1))
    eps = np.empty((n_draws, 2, spec.data_dim))
    for i in range(n_draws):
        t[i] = rng.random()
        eps[i] = rng.standard_normal((2, spec.data_dim))
    repeated = pair.take(np.zeros(n_draws, dtype=int))
    stored = pnapo_delta(params, ref_params, spec, repeated, t)
    fresh = pnapo_delta(
        params, ref_params, spec, replace(repeated, xTw=eps[:, 0], xTl=eps[:, 1]), t
    )
    return float(np.var(stored, ddof=1)), float(np.var(fresh, ddof=1))


# --- sampled evaluation ---------------------------------------------------------


@dataclass
class EvalReport:
    """Aggregated sampled rewards for one model (win_rate filled when paired)."""

    model: str
    mean_reward: float
    median_reward: float
    win_rate: float | None
    n: int
    seed: int

    def __post_init__(self):
        if self.win_rate is not None and not 0.0 <= self.win_rate <= 1.0:
            raise ShapeError(f"win rate must lie in [0, 1], got {self.win_rate}")
        if self.n < 1:
            raise ShapeError("report needs at least one sample")


def eval_reward(
    params: ParamVector,
    spec: MlpSpec,
    rspec: RewardSpec,
    n_per_condition: int,
    sampler_cfg: SamplerConfig,
    seed: int,
    label: str = "model",
) -> EvalReport:
    """Sample every condition equally and aggregate analytic rewards."""
    if n_per_condition < 1:
        raise ConfigurationError(f"need n_per_condition >= 1, got {n_per_condition}")
    conds = np.repeat(np.eye(spec.cond_dim), n_per_condition, axis=0)
    noise = np.random.default_rng(seed).standard_normal((conds.shape[0], spec.data_dim))
    x0 = euler_sample(params, spec, noise, conds, sampler_cfg)
    rewards = reward_eval(rspec, x0, conds)
    return EvalReport(
        model=label,
        mean_reward=float(np.mean(rewards)),
        median_reward=float(np.median(rewards)),
        win_rate=None,
        n=len(rewards),
        seed=seed,
    )


def write_eval_csv(path: str, reports: list[EvalReport]) -> None:
    """CSV schema: model,mean_reward,median_reward,win_rate,n,seed."""
    lines = ["model,mean_reward,median_reward,win_rate,n,seed"]
    for rep in reports:
        # str.splitlines also breaks at \r, \v, \x85, \u2028 and other separators
        if "," in rep.model or rep.model.splitlines() not in ([], [rep.model]):
            raise DataError(f"model label {rep.model!r} not representable in CSV")
        win = "" if rep.win_rate is None else fmt17(rep.win_rate)
        lines.append(
            f"{rep.model},{fmt17(rep.mean_reward)},{fmt17(rep.median_reward)},"
            f"{win},{rep.n},{rep.seed}"
        )
    write_text(path, "\n".join(lines) + "\n")


def win_rate(
    params_a: ParamVector,
    spec_a: MlpSpec,
    params_b: ParamVector,
    spec_b: MlpSpec,
    rspec: RewardSpec,
    n_trials: int,
    sampler_cfg: SamplerConfig,
    seed: int,
) -> float:
    """Paired comparison: both models decode the same noise; ties score half.

    The models may differ in width but must share data and condition dims.
    Conditions rotate round-robin; one prior draw per trial. Comparing a model
    against itself gives exactly 0.5.
    """
    if n_trials < 1:
        raise ConfigurationError(f"need n_trials >= 1, got {n_trials}")
    conds = np.eye(spec_a.cond_dim)[np.arange(n_trials) % spec_a.cond_dim]
    noise = np.random.default_rng(seed).standard_normal((n_trials, spec_a.data_dim))
    xa = euler_sample(params_a, spec_a, noise, conds, sampler_cfg)
    xb = euler_sample(params_b, spec_b, noise, conds, sampler_cfg)
    rewards = reward_eval(rspec, np.concatenate([xa, xb]), np.concatenate([conds, conds]))
    ra, rb = rewards[:n_trials], rewards[n_trials:]
    return float(np.count_nonzero(ra > rb) + 0.5 * np.count_nonzero(ra == rb)) / n_trials
