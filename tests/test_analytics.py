from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pairs
from rfpnapo import analytics
from rfpnapo.analytics import (
    MIN_ENTRY,
    _kl_sum,
    _path_probs,
    chain_rule_identity,
    estimator_variance,
    eval_reward,
    random_chain,
    win_rate,
)
from rfpnapo.errors import ConfigurationError, ShapeError
from rfpnapo.pnapo import score_gap


def test_chain_validation_rejects_bad_rows():
    bad_terminal = random_chain(0, 3, 2)
    bad_terminal[0, 0, 0] *= 2.0
    with pytest.raises(ShapeError):
        chain_rule_identity(bad_terminal, x0=0)


def _low_entry(chain, side):
    chain[side, 1, 2] = [1.0 - MIN_ENTRY / 2, MIN_ENTRY / 4, MIN_ENTRY / 4]
    return chain


def _long_row(chain):
    chain[1, 0, 1, 0] += 1e-9
    return chain


@pytest.mark.parametrize(
    "fault, x0, error",
    [
        pytest.param(lambda c: c[0], 0, ShapeError, id="3d"),
        pytest.param(lambda c: c[:1], 0, ShapeError, id="one_side"),
        pytest.param(lambda c: np.concatenate([c, c[:1]]), 0, ShapeError, id="three_sides"),
        pytest.param(lambda c: c[:, :, :2], 0, ShapeError, id="non_square"),
        pytest.param(lambda c: c[:, :0], 0, ShapeError, id="horizon_0"),
        pytest.param(lambda c: _low_entry(c, 0), 0, ShapeError, id="low_entry_p"),
        pytest.param(lambda c: _low_entry(c, 1), 0, ShapeError, id="low_entry_q"),
        pytest.param(lambda c: np.where(c == c[0, 0, 0, 0], np.nan, c), 0, ShapeError, id="nan"),
        pytest.param(_long_row, 0, ShapeError, id="row_sum"),
        pytest.param(lambda c: c, -1, ShapeError, id="x0_negative"),
        pytest.param(lambda c: c, 3, ShapeError, id="x0_past_states"),
        pytest.param(lambda c: np.full((2, 2, 7, 7), 1.0 / 7), 0, ConfigurationError, id="7_states"),
        pytest.param(lambda c: np.concatenate([c, c, c[:, :1]], axis=1), 0, ConfigurationError, id="horizon_5"),
    ],
)
def test_chain_rule_identity_checks_the_block_before_enumerating(monkeypatch, fault, x0, error):
    chain = fault(random_chain(5, 3, 2))

    def enumerate_paths(*args):
        raise AssertionError("the chain was enumerated before it was checked")

    monkeypatch.setattr(analytics, "_path_probs", enumerate_paths)
    monkeypatch.setattr(analytics, "_kl_sum", enumerate_paths)
    with pytest.raises(error):
        chain_rule_identity(chain, x0)


def test_chain_caps_enforced():
    with pytest.raises(ConfigurationError):
        random_chain(0, n_states=7, horizon=2)
    with pytest.raises(ConfigurationError):
        random_chain(0, n_states=3, horizon=5)


@pytest.mark.parametrize("n_states, horizon", [(3, 0), (3, -5), (1, 3), (0, 2)])
def test_random_chain_rejects_degenerate_sizes(n_states, horizon):
    # a horizon below 1 would silently build a horizon-1 chain, one state a chain with nothing to compare
    with pytest.raises(ConfigurationError, match="at least 2 states and horizon 1"):
        random_chain(0, n_states=n_states, horizon=horizon)


@pytest.mark.parametrize("seed, n_states, horizon", [(0, 2, 1), (7, 4, 3), (11, 6, 4)])
def test_random_chain_draws_its_matrices_in_documented_order(seed, n_states, horizon):
    # one matrix at a time: p terminal, p kernels, q terminal, q kernels;
    # this order keeps `verify --suite kl` output stable
    rng = np.random.default_rng(seed)

    def stochastic():
        raw = rng.uniform(0.0, 1.0, size=(n_states, n_states)) + 0.05
        return raw / raw.sum(axis=1, keepdims=True)

    p = [stochastic() for _ in range(horizon)]
    q = [stochastic() for _ in range(horizon)]
    chain = random_chain(seed, n_states, horizon)
    assert chain.dtype == np.float64 and chain.shape == (2, horizon, n_states, n_states)
    assert chain.tobytes() == np.array(p).tobytes() + np.array(q).tobytes()


def test_single_step_chain_has_no_interior():
    chain = random_chain(3, n_states=4, horizon=1)
    total, endpoint, conditional = chain_rule_identity(chain, x0=2)
    assert conditional == 0.0
    assert total == pytest.approx(endpoint, abs=1e-15)


def test_chain_rule_decomposition_exact_over_seeds():
    for seed in range(25):
        drawn = random_chain(seed, 4, 3)
        for matched in (True, False):
            matched_q = np.concatenate([drawn[0, :1], drawn[1, 1:]])
            chain = np.stack([drawn[0], matched_q]) if matched else drawn
            x0 = seed % 4
            total, endpoint, conditional = chain_rule_identity(chain, x0)
            assert abs(total - (endpoint + conditional)) <= 1e-10
            assert endpoint >= -1e-15
            assert conditional >= -1e-12
            if matched:
                # with matched endpoint marginals the bound is tight
                assert endpoint == pytest.approx(0.0, abs=1e-12)
                assert conditional == pytest.approx(total, abs=1e-9)
            else:
                # otherwise the joint exceeds the conditional by the endpoint KL
                assert conditional < total


def test_kl_check_various_sizes():
    for n_states, horizon in ((2, 2), (5, 3), (6, 4), (3, 1)):
        total, endpoint, conditional = chain_rule_identity(random_chain(11, n_states, horizon), x0=n_states - 1)
        assert np.isfinite(total) and np.isfinite(endpoint) and np.isfinite(conditional)
        assert abs(total - (endpoint + conditional)) <= 1e-10
        assert conditional <= total + 1e-9


def _loop_path_prob(start, kernels, path):
    # path = (x_1, ..., x_T); kernels[j] links x_{j+2} -> x_{j+1}
    prob = start
    for j in range(len(kernels)):
        prob *= kernels[j][path[j + 1], path[j]]
    return float(prob)


def _loop_chain_rule(chain, x0):
    """(total, endpoint, conditional) by per-path loops: the reference the path arrays are checked against."""
    s, horizon = chain.shape[2], chain.shape[1]
    total = 0.0
    for path in itertools.product(range(s), repeat=horizon):
        q = _loop_path_prob(chain[1][0, x0, path[-1]], chain[1][1:], path)
        p = _loop_path_prob(chain[0][0, x0, path[-1]], chain[0][1:], path)
        total += q * math.log(q / p)
    q_row, p_row = chain[1][0, x0], chain[0][0, x0]
    endpoint = float(np.sum(q_row * np.log(q_row / p_row)))
    conditional = 0.0
    for end in range(s):
        inner = 0.0
        for interior in itertools.product(range(s), repeat=horizon - 1):
            path = interior + (end,)
            q = _loop_path_prob(1.0, chain[1][1:], path)
            p = _loop_path_prob(1.0, chain[0][1:], path)
            inner += q * math.log(q / p)
        conditional += chain[1][0, x0, end] * inner
    return total, endpoint, conditional


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 6), horizon=st.integers(1, 4))
def test_chain_rule_matches_the_path_loops(seed, n_states, horizon):
    chain = random_chain(seed, n_states, horizon)
    for x0 in range(n_states):
        terms = chain_rule_identity(chain, x0)
        for got, want in zip(terms, _loop_chain_rule(chain, x0)):
            assert got == pytest.approx(want, rel=0.0, abs=1e-14)
        total, endpoint, conditional = terms
        assert abs(total - (endpoint + conditional)) <= 1e-10


def _sequential_kl(q, p):
    """q log(q / p) summed over the last axis by a left-to-right `+=` loop."""
    terms = q * np.log(q / p)
    out = np.empty(terms.shape[:-1])
    for idx in np.ndindex(out.shape):
        acc = 0.0
        for term in terms[idx]:
            acc += term
        out[idx] = acc
    return out


@pytest.mark.parametrize(
    "seeds, n_states, horizon", [(range(100), 4, 3), (range(5), 6, 4)], ids=["kl_suite", "largest"]
)
def test_kl_sum_adds_in_path_order(seeds, n_states, horizon):
    # the digits `verify --suite kl` prints depend on the order of every sum;
    # a pairwise np.sum changes them on most of the suite's joints
    for seed in seeds:
        chain = random_chain(seed, n_states, horizon)
        sides = (chain[1], chain[0])
        ends = [side[0] for side in sides]  # every x0's endpoint row at once
        interiors = [
            np.moveaxis(_path_probs(np.ones(n_states), side[1:]), -1, 0).reshape(n_states, -1)
            for side in sides
        ]
        joints = [
            [_path_probs(side[0, x0], side[1:]).ravel() for side in sides] for x0 in range(n_states)
        ]
        for q, p in [ends, interiors, *joints]:
            assert _kl_sum(q, p).tobytes() == _sequential_kl(q, p).tobytes()


@pytest.mark.kernel_invariance
def test_pinned_time_delta_is_bit_stable(trained_pair):
    ref, later, spec = trained_pair
    rng = np.random.default_rng(60)
    pairs = make_pairs(rng, spec, 5)
    base = score_gap(later, ref, spec, pairs, t=0.37)
    assert base.shape == (5,)
    for _ in range(50):
        assert score_gap(later, ref, spec, pairs, t=0.37).tobytes() == base.tobytes()
    # a pair's gap does not depend on the batch it is scored in
    for i in range(5):
        assert score_gap(later, ref, spec, pairs.take([i]), t=0.37)[0] == base[i]


def test_fresh_noise_variance_positive(trained_pair):
    ref, later, spec = trained_pair
    rng = np.random.default_rng(61)
    pair = make_pairs(rng, spec)
    var_stored, var_fresh = estimator_variance(later, ref, spec, pair, n_draws=400, seed=5)
    assert var_fresh > 0.0
    assert var_stored >= 0.0
    # both estimators see the same t stream, so the stored-noise one only
    # varies through t; it cannot exceed the fresh-noise variance here
    assert var_stored < var_fresh


def test_estimator_variance_deterministic(trained_pair):
    ref, later, spec = trained_pair
    pairs = make_pairs(np.random.default_rng(62), spec, 2)
    pair = pairs.take([0])
    a = estimator_variance(later, ref, spec, pair, n_draws=50, seed=9)
    b = estimator_variance(later, ref, spec, pair, n_draws=50, seed=9)
    assert a == b
    # the documented draw order: every time as one block, then every prior
    rng = np.random.default_rng(9)
    t = rng.random((50, 1))
    eps = rng.standard_normal((50, 2, spec.data_dim))
    repeated = pair.take(np.zeros(50, dtype=int))
    stored = score_gap(later, ref, spec, repeated, t)
    fresh = score_gap(later, ref, spec, dataclasses.replace(repeated, xT=eps), t)
    assert a == (float(np.var(stored, ddof=1)), float(np.var(fresh, ddof=1)))
    with pytest.raises(ConfigurationError):
        estimator_variance(later, ref, spec, pair, n_draws=1, seed=9)
    with pytest.raises(ShapeError):
        estimator_variance(later, ref, spec, pairs, n_draws=50, seed=9)


def test_eval_reward_and_self_win_rate(trained_pair):
    ref, later, spec = trained_pair
    centers = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
    rewards = eval_reward(ref, spec, centers, n_per_condition=5, steps=8, seed=3)
    assert rewards.shape == (20,)
    assert np.all(np.isfinite(rewards))
    rewards2 = eval_reward(ref, spec, centers, n_per_condition=5, steps=8, seed=3)
    assert rewards.tobytes() == rewards2.tobytes()
    with pytest.raises(ConfigurationError):
        eval_reward(ref, spec, centers, n_per_condition=0, steps=8, seed=3)
    # a model against itself never wins or loses a pair
    assert win_rate(rewards, rewards2) == 0.5
    with pytest.raises(ShapeError):
        win_rate(rewards, rewards[:-1])


def test_win_rate_detects_strictly_better_model(trained_pair):
    ref, later, spec = trained_pair
    centers = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
    r_later = eval_reward(later, spec, centers, n_per_condition=20, steps=8, seed=5)
    r_ref = eval_reward(ref, spec, centers, n_per_condition=20, steps=8, seed=5)
    wr_later = win_rate(r_later, r_ref)
    wr_ref = win_rate(r_ref, r_later)
    assert wr_later + wr_ref == pytest.approx(1.0, abs=1e-15)
    # the longer-trained snapshot should be the better sampler
    assert wr_later > 0.5
