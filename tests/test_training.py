from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pairs, pair_batches
from rfpnapo.errors import ConfigurationError
from rfpnapo.numerics import (
    MlpSpec,
    adam_step,
    mlp_init,
    optim_init,
    pack_params,
    sigmoid,
    softplus,
    unpack_params,
)
from rfpnapo.pnapo import AlignConfig, BetaSchedule, effective_beta
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


def test_pretrain_weight_decay_changes_result():
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(6,))
    mixture = default_mixture(2, 2)
    plain, _ = run_pretrain(spec, mixture, steps=40, batch=8, lr=1e-3, seed=3)
    decayed, _ = run_pretrain(spec, mixture, steps=40, batch=8, lr=1e-3, seed=3, weight_decay=0.1)
    assert not np.array_equal(plain, decayed)


# --- the per-record loop the batch step replaces, kept as the bitwise reference


def _forward_row(params, spec, inp):
    weights, biases = unpack_params(params, spec)
    cache = [inp]
    h = inp
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(w @ h + b)
        cache.append(h)
    return weights[-1] @ h + biases[-1], cache


def _vjp_row(params, spec, cache, dy):
    weights, _ = unpack_params(params, spec)
    n_layers = len(weights)
    d_weights, d_biases = [None] * n_layers, [None] * n_layers
    dz = dy
    d_weights[-1] = np.outer(dz, cache[-1])
    d_biases[-1] = dz
    dh = weights[-1].T @ dz
    for i in range(n_layers - 2, -1, -1):
        dz = dh * (1.0 - cache[i + 1] ** 2)
        d_weights[i] = np.outer(dz, cache[i])
        d_biases[i] = dz
        dh = weights[i].T @ dz
    return pack_params(d_weights, d_biases)


def _branch_row(params, ref, spec, x0, xT, cond, t):
    xt = (1.0 - t) * x0 + t * xT
    u = xT - x0
    inp = np.concatenate([xt, cond, [t]])
    v, cache = _forward_row(params, spec, inp)
    v_ref, _ = _forward_row(ref, spec, inp)
    res = u - v
    res_ref = u - v_ref
    return float(res @ res - res_ref @ res_ref), cache, res


def _preference_row(params, ref, spec, x0w, x0l, xTw, xTl, cond, t_w, t_l, beta_eff):
    s_w, cache_w, res_w = _branch_row(params, ref, spec, x0w, xTw, cond, t_w)
    s_l, cache_l, res_l = _branch_row(params, ref, spec, x0l, xTl, cond, t_l)
    z = beta_eff * (s_w - s_l)
    coef = sigmoid(z) * beta_eff
    grad = _vjp_row(params, spec, cache_w, -2.0 * coef * res_w)
    grad += _vjp_row(params, spec, cache_l, 2.0 * coef * res_l)
    return softplus(z), grad, -z


def _record_term(params, ref, spec, pairs, i, cfg, step_index, rng):
    """One record's loss, gradient, margin and beta_eff, drawing in the documented order."""
    x0w, x0l, cond, d = pairs.x0w[i], pairs.x0l[i], pairs.cond[i], pairs.header.dim
    if cfg.method == "pnapo":
        t_w = float(rng.random())
        t_l = t_w if cfg.shared_t else float(rng.random())
        beta = effective_beta(cfg.schedule, float(pairs.delta_r[i]), step_index)
        return (*_preference_row(params, ref, spec, x0w, x0l, pairs.xTw[i], pairs.xTl[i], cond,
                                 t_w, t_l, beta), beta)
    if cfg.method == "dpo":
        t = float(rng.random())
        eps_w, eps_l = rng.standard_normal(d), rng.standard_normal(d)
        beta = cfg.schedule.beta
        return (*_preference_row(params, ref, spec, x0w, x0l, eps_w, eps_l, cond, t, t, beta), beta)
    xT = rng.standard_normal(d)
    t = float(rng.random())
    v, cache = _forward_row(params, spec, np.concatenate([(1.0 - t) * x0w + t * xT, cond, [t]]))
    residual = v - (xT - x0w)
    return float(residual @ residual), _vjp_row(params, spec, cache, 2.0 * residual), 0.0, 0.0


def _reference_alignment(ref, spec, pairs, cfg):
    params = ref.copy()
    optim = optim_init(params.size, cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for step_index in range(1, cfg.steps + 1):
        idx = rng.choice(len(pairs), size=min(cfg.batch, len(pairs)), replace=False)
        terms = [_record_term(params, ref, spec, pairs, int(i), cfg, step_index, rng) for i in idx]
        losses, grads, margins, betas = zip(*terms)
        grad = np.mean(np.stack(grads), axis=0)
        rows.append({
            "step": step_index,
            "loss": float(np.mean(losses)),
            "margin_mean": float(np.mean(margins)),
            "beta_eff_mean": float(np.mean(betas)),
            "grad_norm": float(np.linalg.norm(grad)),
        })
        optim, params = adam_step(optim, params, grad)
    return params, rows


@pytest.mark.parametrize("method", ["pnapo", "dpo", "sft"])
@pytest.mark.parametrize("shared_t", [True, False])
@settings(max_examples=50, deadline=None)
@given(case=pair_batches(max_pairs=8), extra_batch=st.integers(-7, 3), seed=st.integers(0, 2**16))
def test_batch_step_is_bitwise_the_per_record_loop(method, shared_t, case, extra_batch, seed):
    # one batch call per step must give the bits of the per-record loop: the
    # same draws, per-row arithmetic, and gradient summed in record order
    spec, rng, pairs = case
    ref = mlp_init(spec, int(rng.integers(1000)))
    batch = max(1, len(pairs) + extra_batch)  # batches above n clamp to n
    n1 = int(rng.integers(1, 3))
    cfg = AlignConfig(
        method=method, lr=0.05, steps=3, batch=batch,
        schedule=BetaSchedule(beta=float(1.0 + 20.0 * rng.random()), n1=n1, n2=n1 + 1), seed=seed,
        shared_t=shared_t,
    )
    params, rows = run_alignment(ref, spec, pairs, cfg)
    expected_params, expected_rows = _reference_alignment(ref, spec, pairs, cfg)
    assert params.tobytes() == expected_params.tobytes()
    for row, expected in zip(rows, expected_rows, strict=True):
        assert row.keys() == expected.keys()
        assert np.array(list(row.values())).tobytes() == np.array(list(expected.values())).tobytes()
