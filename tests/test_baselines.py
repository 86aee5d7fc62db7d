from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_pairs, pair_batches
from rfpnapo.baselines import dpo_value_grad, make_sft_term, sft_value_grad
from rfpnapo.errors import ShapeError
from rfpnapo.numerics import FunctionLoss, finite_diff_check, mlp_init
from rfpnapo.pnapo import pnapo_value_grad
from rfpnapo.rectflow import cfm_objective


def test_dpo_equals_noise_aware_when_draw_matches_stored(small_spec, small_params):
    # substituting the stored noises back in must reproduce the other loss bit
    # for bit: same code path, same floats
    rng = np.random.default_rng(40)
    ref = mlp_init(small_spec, 41)
    pairs = make_pairs(rng, small_spec, 10)
    t = rng.random((10, 1))
    eps = pairs.xT.copy()
    a_loss, a_grad, a_margin = dpo_value_grad(small_params, ref, small_spec, pairs, eps, t, beta=7.0)
    b_loss, b_grad, b_margin = pnapo_value_grad(small_params, ref, small_spec, pairs, t, np.full(10, 7.0))
    assert np.array_equal(a_loss, b_loss)
    assert np.array_equal(a_margin, b_margin)
    assert np.array_equal(a_grad, b_grad)


def test_dpo_ignores_stored_noise_fields(small_spec, small_params):
    rng = np.random.default_rng(42)
    ref = mlp_init(small_spec, 43)
    pairs = make_pairs(rng, small_spec, 3)
    eps = rng.standard_normal((3, 2, small_spec.data_dim))
    base = dpo_value_grad(small_params, ref, small_spec, pairs, eps, 0.6, beta=3.0)
    corrupted = dataclasses.replace(pairs, xT=rng.standard_normal((3, 2, small_spec.data_dim)) * 100)
    again = dpo_value_grad(small_params, ref, small_spec, corrupted, eps, 0.6, beta=3.0)
    assert np.array_equal(again[0], base[0]) and np.array_equal(again[1], base[1])


@settings(max_examples=40, deadline=None)
@given(case=pair_batches())
def test_dpo_at_reference_is_log_two(case):
    spec, rng, pairs = case
    n = len(pairs)
    params = mlp_init(spec, int(rng.integers(1000)))
    eps = rng.standard_normal((n, 2, spec.data_dim))
    losses, _, _ = dpo_value_grad(params, params, spec, pairs, eps, rng.random((n, 1)), beta=11.0)
    assert np.all(np.abs(losses - math.log(2.0)) <= 1e-9)


@settings(max_examples=40, deadline=None)
@given(case=pair_batches())
def test_dpo_gradient_finite_differences(case):
    spec, rng, pairs = case
    n = len(pairs)
    params, ref = mlp_init(spec, int(rng.integers(1000))), mlp_init(spec, 1000 + int(rng.integers(1000)))
    eps = rng.standard_normal((n, 2, spec.data_dim))
    t = rng.random((n, 1)) * 0.98
    obj = FunctionLoss(lambda p: dpo_value_grad(p, ref, spec, pairs, eps, t, beta=4.0))
    assert finite_diff_check(obj, params) < 1e-5


@settings(max_examples=40, deadline=None)
@given(case=pair_batches())
def test_sft_gradient_finite_differences(case):
    spec, rng, pairs = case
    n = len(pairs)
    params = mlp_init(spec, int(rng.integers(1000)))
    xT, t = rng.standard_normal((n, spec.data_dim)), rng.random(n) * 0.98
    obj = FunctionLoss(lambda p: sft_value_grad(p, spec, pairs, xT, t))
    assert finite_diff_check(obj, params) < 1e-5


def test_dpo_draw_dimension_checked(small_spec, small_params):
    rng = np.random.default_rng(47)
    pairs = make_pairs(rng, small_spec)
    with pytest.raises(ShapeError):
        dpo_value_grad(small_params, small_params, small_spec, pairs, np.zeros((1, 2, 5)), 0.5, beta=1.0)


def test_sft_loss_is_flow_matching_on_winners(small_spec, small_params):
    rng = np.random.default_rng(48)
    pairs = make_pairs(rng, small_spec, 6)
    xT = rng.standard_normal((6, small_spec.data_dim))
    t = rng.random(6) * 0.99
    losses, _ = sft_value_grad(small_params, small_spec, pairs, xT, t)
    # the matching loss evaluates its batch as one GEMM; agreement is numeric, not bitwise
    cfm = cfm_objective(small_spec, pairs.x0[:, 0], xT, pairs.cond, t).value(small_params)
    assert np.mean(losses) == pytest.approx(cfm, rel=1e-12)


def test_sft_term_uses_winner_only(small_spec, small_params):
    rng = np.random.default_rng(49)
    pairs = make_pairs(rng, small_spec, 3)
    term = make_sft_term(small_spec, np.random.default_rng(7))
    loss1, grad1, margins1, betas1 = term(small_params, pairs)
    # corrupting loser fields must not change anything under the same draws
    corrupted = dataclasses.replace(pairs, x0=pairs.x0.copy(), xT=pairs.xT.copy())
    corrupted.x0[:, 1] = rng.standard_normal((3, small_spec.data_dim)) * 50
    corrupted.xT[:, 1] = rng.standard_normal((3, small_spec.data_dim)) * 50
    term2 = make_sft_term(small_spec, np.random.default_rng(7))
    loss2, grad2, margins2, betas2 = term2(small_params, corrupted)
    assert np.array_equal(loss1, loss2)
    assert np.array_equal(grad1, grad2)
    assert np.all(margins1 == 0.0) and np.all(betas1 == 0.0)
    assert np.array_equal(margins1, margins2) and np.array_equal(betas1, betas2)
