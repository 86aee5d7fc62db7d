from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pairs, pair_batches, vjp_row
from rfpnapo.errors import ConfigurationError
from rfpnapo.numerics import (
    MlpSpec,
    mlp_init,
    sigmoid,
    softplus,
    unpack_params,
)
from rfpnapo.baselines import make_dpo_term, make_sft_term
from rfpnapo.pnapo import AlignConfig, BetaSchedule, effective_beta, make_pnapo_term
from rfpnapo.rectflow import default_mixture
from rfpnapo.training import run_alignment, run_pretrain


def test_pretrain_deterministic_and_loss_drops():
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(12,))
    mixture = default_mixture(2, 2)
    p1, rows1 = run_pretrain(spec, mixture, steps=150, batch=32, lr=3e-3, seed=8)
    p2, rows2 = run_pretrain(spec, mixture, steps=150, batch=32, lr=3e-3, seed=8)
    assert np.array_equal(p1, p2)
    assert rows1 == rows2
    assert rows1[0]["step"] == 1 and rows1[-1]["step"] == 150
    assert set(rows1[0]) == {"step", "loss", "grad_norm"}
    assert rows1[-1]["loss"] < rows1[0]["loss"]


def test_pretrain_validates_arguments():
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(4,))
    mixture = default_mixture(2, 2)
    with pytest.raises(ConfigurationError):
        run_pretrain(spec, mixture, steps=0, batch=4, lr=1e-3, seed=0)
    with pytest.raises(ConfigurationError):
        run_pretrain(spec, mixture, steps=5, batch=4, lr=-1.0, seed=0)
    wrong = default_mixture(2, 3)  # condition count differs from the model shape
    with pytest.raises(ConfigurationError):
        run_pretrain(spec, wrong, steps=5, batch=4, lr=1e-3, seed=0)


def _records(spec, n, seed=70):
    rng = np.random.default_rng(seed)
    return make_pairs(rng, spec, n, delta_r=rng.random(n))


def test_alignment_first_step_loss_is_log_two(small_spec, small_params):
    records = _records(small_spec, 10)
    cfg = AlignConfig(
        method="pnapo", lr=1e-4, steps=3, batch=4,
        schedule=BetaSchedule(beta=5.0, n1=10, n2=20), seed=1,
    )
    _, rows = run_alignment(small_params, small_spec, records, cfg)
    # params start at the reference, so the first logged loss is exact
    assert rows[0]["loss"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert len(rows) == 3
    assert set(rows[0]) == {"step", "loss", "margin_mean", "beta_eff_mean", "grad_norm"}


def test_alignment_deterministic_per_method(small_spec, small_params):
    records = _records(small_spec, 8)
    for method in ("pnapo", "dpo", "sft"):
        cfg = AlignConfig(
            method=method, lr=1e-3, steps=5, batch=4,
            schedule=BetaSchedule(beta=3.0, n1=2, n2=4), seed=11,
        )
        pa, ra = run_alignment(small_params, small_spec, records, cfg)
        pb, rb = run_alignment(small_params, small_spec, records, cfg)
        assert np.array_equal(pa, pb)
        assert ra == rb
        assert not np.array_equal(pa, small_params)


def test_alignment_methods_diverge(small_spec, small_params):
    records = _records(small_spec, 8)
    outs = {}
    for method in ("pnapo", "dpo", "sft"):
        cfg = AlignConfig(
            method=method, lr=1e-3, steps=5, batch=4,
            schedule=BetaSchedule(beta=3.0, n1=2, n2=4), seed=11,
        )
        outs[method], _ = run_alignment(small_params, small_spec, records, cfg)
    assert not np.array_equal(outs["pnapo"], outs["dpo"])
    assert not np.array_equal(outs["pnapo"], outs["sft"])


def test_alignment_requires_records(small_spec, small_params):
    cfg = AlignConfig(
        method="pnapo", lr=1e-3, steps=2, batch=4, schedule=BetaSchedule(beta=1.0), seed=0,
    )
    with pytest.raises(ConfigurationError):
        run_alignment(small_params, small_spec, _records(small_spec, 0), cfg)


def test_alignment_batch_larger_than_dataset_is_clamped(small_spec, small_params):
    records = _records(small_spec, 3)
    cfg = AlignConfig(
        method="pnapo", lr=1e-3, steps=2, batch=64,
        schedule=BetaSchedule(beta=1.0), seed=2,
    )
    params, rows = run_alignment(small_params, small_spec, records, cfg)
    assert len(rows) == 2


# --- the per-record loop the batch step replaced, kept as its reference


def _forward_row(params, spec, inp):
    weights, biases = unpack_params(params, spec)
    cache = [inp]
    h = inp
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(w @ h + b)
        cache.append(h)
    return weights[-1] @ h + biases[-1], cache


def _branch_row(params, ref, spec, x0, xT, cond, t):
    xt = (1.0 - t) * x0 + t * xT
    u = xT - x0
    inp = np.concatenate([xt, cond, [t]])
    v, cache = _forward_row(params, spec, inp)
    v_ref, _ = _forward_row(ref, spec, inp)
    res = u - v
    res_ref = u - v_ref
    return float(res @ res - res_ref @ res_ref), cache, res


def _preference_row(params, ref, spec, x0w, x0l, xTw, xTl, cond, t, beta_eff):
    s_w, cache_w, res_w = _branch_row(params, ref, spec, x0w, xTw, cond, t)
    s_l, cache_l, res_l = _branch_row(params, ref, spec, x0l, xTl, cond, t)
    z = beta_eff * (s_w - s_l)
    coef = sigmoid(z) * beta_eff
    grad = vjp_row(params, spec, cache_w, -2.0 * coef * res_w)
    grad += vjp_row(params, spec, cache_l, 2.0 * coef * res_l)
    return softplus(z), grad, -z


def _record_term(params, ref, spec, pairs, i, cfg, step_index, rng):
    """One record's loss, gradient, margin and beta_eff, drawing in the documented order."""
    x0w, x0l, cond, d = pairs.x0w[i], pairs.x0l[i], pairs.cond[i], pairs.header.dim
    if cfg.method == "pnapo":
        t = float(rng.random())
        beta = effective_beta(cfg.schedule, float(pairs.delta_r[i]), step_index)
        return (*_preference_row(params, ref, spec, x0w, x0l, pairs.xTw[i], pairs.xTl[i], cond,
                                 t, beta), beta)
    if cfg.method == "dpo":
        t = float(rng.random())
        eps_w, eps_l = rng.standard_normal(d), rng.standard_normal(d)
        beta = cfg.schedule.beta
        return (*_preference_row(params, ref, spec, x0w, x0l, eps_w, eps_l, cond, t, beta), beta)
    xT = rng.standard_normal(d)
    t = float(rng.random())
    v, cache = _forward_row(params, spec, np.concatenate([(1.0 - t) * x0w + t * xT, cond, [t]]))
    residual = v - (xT - x0w)
    return float(residual @ residual), vjp_row(params, spec, cache, 2.0 * residual), 0.0, 0.0


def _batch_term(ref, spec, cfg, step_index, rng):
    """The term run_alignment builds for cfg.method at step_index."""
    if cfg.method == "pnapo":
        return make_pnapo_term(ref, spec, cfg.schedule, step_index, rng)
    if cfg.method == "dpo":
        return make_dpo_term(ref, spec, cfg.schedule.beta, rng)
    return make_sft_term(spec, rng)


@pytest.mark.parametrize("method", ["pnapo", "dpo", "sft"])
@settings(max_examples=50, deadline=None)
@given(case=pair_batches(max_pairs=8), extra_batch=st.integers(-7, 3), seed=st.integers(0, 2**16),
       step_index=st.integers(1, 4))
def test_batch_step_matches_the_per_record_loop(method, case, extra_batch, seed, step_index):
    # one batch call draws, scores and weighs every pair with the bits of the
    # per-record loop; its gradient is one GEMM per layer, which adds the
    # pairs' contributions in another order than the loop, so it matches the
    # record-ordered sum up to rounding
    spec, rng, pairs = case
    ref = mlp_init(spec, int(rng.integers(1000)))
    params = ref + 0.3 * rng.standard_normal(ref.size)  # off the reference: scores are not all 0
    n1 = int(rng.integers(1, 3))
    cfg = AlignConfig(
        method=method, lr=0.05, steps=1, batch=max(1, len(pairs) + extra_batch),
        schedule=BetaSchedule(beta=float(1.0 + 20.0 * rng.random()), n1=n1, n2=n1 + 1), seed=seed,
    )
    idx = rng.choice(len(pairs), size=min(cfg.batch, len(pairs)), replace=False)
    batch_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    losses, grad, margins, betas = _batch_term(ref, spec, cfg, step_index, batch_rng)(
        params, pairs.take(idx)
    )
    expected = [_record_term(params, ref, spec, pairs, int(i), cfg, step_index, loop_rng) for i in idx]
    expected_losses, grads, expected_margins, expected_betas = zip(*expected)
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
    for got, want in ((losses, expected_losses), (margins, expected_margins), (betas, expected_betas)):
        assert np.asarray(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()
    record_sum = np.add.reduce(np.stack(grads))  # records in order, starting from zero
    assert np.max(np.abs(grad - record_sum)) <= 1e-12 * np.max(np.abs(record_sum))
