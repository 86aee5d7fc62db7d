from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_pairs, pair_batches
from rfpnapo.errors import ConfigurationError, ShapeError
from rfpnapo.numerics import FunctionLoss, adam_step, finite_diff_check, mlp_init, optim_init, sigmoid
from rfpnapo.pnapo import (
    BetaSchedule,
    effective_beta,
    f_controller,
    g_controller,
    make_pnapo_term,
    pnapo_value_grad,
    score_gap,
)
from rfpnapo.training import run_alignment, step_with_terms

LOG2 = math.log(2.0)


def test_f_controller_values():
    assert f_controller(0.0) == 0.0
    assert f_controller(math.log(3.0)) == pytest.approx(0.5, abs=1e-12)
    assert f_controller(10.0) > 0.9999
    with pytest.raises(ShapeError):
        f_controller(-0.1)
    with pytest.raises(ShapeError):
        f_controller(float("inf"))


def test_f_controller_monotone_grid():
    grid = np.linspace(0.0, 12.0, 10_000)
    vals = np.array([f_controller(float(x)) for x in grid])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all((vals >= 0.0) & (vals < 1.0))


WINDOW = BetaSchedule(beta=1.0, n1=1000, n2=2000, dynamic=True)


def test_g_controller_piecewise_values():
    assert g_controller(0, WINDOW) == 1.0
    assert g_controller(1000, WINDOW) == 1.0
    assert g_controller(2000, WINDOW) == 0.5
    assert g_controller(10_000, WINDOW) == 0.5
    # midpoint of the cosine branch: 0.5 + 0.5*cos(pi/4)
    assert g_controller(1500, WINDOW) == pytest.approx(0.8535533905932737, abs=1e-12)
    assert g_controller(1500, WINDOW) == pytest.approx(0.5 + 0.5 / math.sqrt(2.0), abs=1e-15)


def test_g_controller_monotone_and_continuous():
    grid = np.linspace(0.0, 3000.0, 10_000)
    vals = np.array([g_controller(float(n), WINDOW) for n in grid])
    assert np.all(np.diff(vals) <= 0.0)
    for boundary in (1000.0, 2000.0):
        below = g_controller(boundary - 1e-7, WINDOW)
        above = g_controller(boundary + 1e-7, WINDOW)
        assert abs(below - above) < 1e-6


def test_effective_beta_composition():
    sched = BetaSchedule(beta=50.0, n1=1000, n2=2000, dynamic=True)
    dr, n = 0.8, 1500
    expected = 50.0 * f_controller(dr) * g_controller(n, sched)
    assert effective_beta(sched, dr, n) == pytest.approx(expected, rel=1e-15)
    # static schedule ignores both modulators
    static = BetaSchedule(beta=50.0, n1=1000, n2=2000, dynamic=False)
    assert effective_beta(static, dr, n) == 50.0
    assert effective_beta(static, 0.0, 1) == 50.0


def test_schedule_validation():
    # the schedule is the one check of the anneal window g_controller reads
    with pytest.raises(ConfigurationError):
        BetaSchedule(beta=0.0, n1=1000, n2=2000, dynamic=True)
    with pytest.raises(ConfigurationError):
        BetaSchedule(beta=1.0, n1=0, n2=5, dynamic=True)
    with pytest.raises(ConfigurationError):
        BetaSchedule(beta=1.0, n1=7, n2=7, dynamic=True)
    with pytest.raises(ConfigurationError):
        BetaSchedule(beta=1.0, n1=2000, n2=1000, dynamic=True)


@settings(max_examples=40, deadline=None)
@given(case=pair_batches(max_pairs=8))
def test_loss_and_estimator_read_one_gap(case):
    # the loss's margins are -(beta_eff * gap) of the gap score_gap returns,
    # bit for bit, whichever way the times are shaped
    spec, rng, pairs = case
    n = len(pairs)
    params = mlp_init(spec, int(rng.integers(1000)))
    ref = mlp_init(spec, int(rng.integers(1000, 2000)))
    beta_eff = rng.random(n) * 60 + 1e-3
    for t in (float(rng.random()), rng.random((n, 1)), rng.random((n, 2))):
        gaps = score_gap(params, ref, spec, pairs, t)
        assert gaps.shape == (n,)
        _, _, margins = pnapo_value_grad(params, ref, spec, pairs, t, beta_eff)
        assert margins.tobytes() == (-(beta_eff * gaps)).tobytes()
        # at the reference point both scores of every pair vanish
        assert np.all(score_gap(params, params, spec, pairs, t) == 0.0)


@settings(max_examples=40, deadline=None)
@given(case=pair_batches(max_pairs=8))
def test_loss_at_reference_is_log_two(case):
    # at params == ref both branch scores vanish, whatever the pairs, times or
    # weights: the batch loss is log 2 per pair
    spec, rng, pairs = case
    n = len(pairs)
    params = mlp_init(spec, int(rng.integers(1000)))
    t = rng.random((n, 2))
    beta_eff = rng.random(n) * 60 + 1e-3
    losses, _, margins = pnapo_value_grad(params, params, spec, pairs, t, beta_eff)
    assert losses.shape == margins.shape == (n,)
    assert np.all(np.abs(losses - LOG2) <= 1e-9)


def test_gradient_coefficient_is_half_beta_at_reference(small_spec, small_params):
    rng = np.random.default_rng(16)
    pairs = make_pairs(rng, small_spec)
    losses, grad, margins = pnapo_value_grad(
        small_params, small_params, small_spec, pairs, t=0.4, beta_eff=np.array([8.0])
    )
    assert losses[0] == pytest.approx(LOG2, abs=1e-12)
    assert margins[0] == 0.0
    # gradient need not vanish at the reference; the branch pulls are distinct
    assert np.linalg.norm(grad) > 0.0


def test_stable_softplus_matches_naive_composition(small_spec, small_params):
    # the loss equals -log sigmoid(-z); check against that form away from overflow
    rng = np.random.default_rng(17)
    ref = mlp_init(small_spec, 23)
    pairs = make_pairs(rng, small_spec, 30)
    t = rng.random((30, 1))
    beta_eff = rng.random(30) * 20 + 0.1
    losses, _, margins = pnapo_value_grad(small_params, ref, small_spec, pairs, t, beta_eff)
    for loss, z in zip(losses, -margins):
        if abs(z) < 30:
            assert loss == pytest.approx(-math.log(sigmoid(-z)), abs=1e-9)


def test_extreme_margins_do_not_overflow(small_spec, small_params):
    rng = np.random.default_rng(18)
    ref = mlp_init(small_spec, 24)
    pairs = make_pairs(rng, small_spec, 4)
    losses, grad, _ = pnapo_value_grad(small_params, ref, small_spec, pairs, 0.5, np.full(4, 1e6))
    assert np.all(np.isfinite(losses))
    assert np.all(np.isfinite(grad))


@settings(max_examples=40, deadline=None)
@given(case=pair_batches())
def test_pnapo_gradient_finite_differences(case):
    spec, rng, pairs = case
    n = len(pairs)
    params, ref = mlp_init(spec, int(rng.integers(1000))), mlp_init(spec, 1000 + int(rng.integers(1000)))
    t, beta_eff = rng.random((n, 2)) * 0.98, 1.0 + 9.0 * rng.random(n)
    obj = FunctionLoss(lambda p: pnapo_value_grad(p, ref, spec, pairs, t, beta_eff))
    assert finite_diff_check(obj, params) < 1e-5


def test_separate_branch_times_supported(small_spec, small_params):
    rng = np.random.default_rng(20)
    ref = mlp_init(small_spec, 26)
    pairs = make_pairs(rng, small_spec)
    beta = np.array([2.0])
    shared = pnapo_value_grad(small_params, ref, small_spec, pairs, np.array([[0.3]]), beta)
    split = pnapo_value_grad(small_params, ref, small_spec, pairs, np.array([[0.3, 0.9]]), beta)
    assert shared[0][0] != split[0][0]


def _align_step(params, ref, spec, pairs, sched, step_index, seed, lr):
    """One step as run_alignment's loop takes it: the batch's mean loss and gradient, then Adam."""
    term = make_pnapo_term(ref, spec, sched, pairs, np.random.default_rng(seed))
    params = np.array(params)
    optim = optim_init(params.size, lr)
    loss, grad, extra = step_with_terms(params, np.arange(len(pairs)), step_index, term)
    adam_step(optim, params, grad)
    return params, optim, loss, grad, extra


def test_zero_gap_records_with_dynamic_schedule_freeze_params(small_spec, small_params):
    # delta_r = 0 -> f(0) = 0 -> beta_eff = 0 -> z = 0, sigmoid'(0)*0 = 0 gradient
    rng = np.random.default_rng(21)
    pairs = make_pairs(rng, small_spec, 4, delta_r=0.0)
    sched = BetaSchedule(beta=50.0, n1=10, n2=20, dynamic=True)
    params, _, loss, _, extra = _align_step(small_params, small_params, small_spec, pairs, sched, 1, 0, lr=0.1)
    assert loss == pytest.approx(LOG2, abs=1e-15)
    assert extra["beta_eff_mean"] == 0.0
    assert np.array_equal(params, small_params)  # zero gradient => Adam no-op


def test_align_step_metrics_shape(small_spec, small_params):
    # the step returns the batch means and its extra metric columns; the
    # trainer loop adds the step, the gradient norm and the update
    rng = np.random.default_rng(22)
    pairs = make_pairs(rng, small_spec, 6, delta_r=0.5)
    sched = BetaSchedule(beta=5.0, n1=10, n2=20, dynamic=True)
    params, optim, loss, grad, extra = _align_step(
        small_params, small_params, small_spec, pairs, sched, 3, 5, lr=1e-3
    )
    assert set(extra) == {"margin_mean", "beta_eff_mean"}
    assert isinstance(loss, float)
    losses, grad_sum, _, _ = make_pnapo_term(small_params, small_spec, sched, pairs, np.random.default_rng(5))(
        small_params, np.arange(len(pairs)), 3
    )
    assert loss == float(np.mean(losses))
    assert grad.tobytes() == (grad_sum / len(pairs)).tobytes()
    assert optim.step_count == 1
    assert not np.array_equal(params, small_params)


def test_align_config_validation(small_spec, small_params):
    # the method, the step and batch counts, then the learning rate (optim_init)
    sched = BetaSchedule(beta=1.0, n1=1000, n2=2000, dynamic=True)
    pairs = make_pairs(np.random.default_rng(23), small_spec, 4, delta_r=0.5)
    bad = [
        ("ppo", 10, 4, 1e-3, "unknown alignment method 'ppo'"),
        ("pnapo", 0, 4, 1e-3, "steps >= 1 and batch >= 1"),
        ("dpo", 10, 0, 1e-3, "steps >= 1 and batch >= 1"),
        ("sft", 10, 4, 0.0, "learning rate must be a finite number > 0"),
        ("pnapo", 10, 4, float("nan"), "learning rate must be a finite number > 0"),
    ]
    for method, steps, batch, lr, message in bad:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            run_alignment(small_params, small_spec, pairs, method, sched, steps, batch, lr, 0)
