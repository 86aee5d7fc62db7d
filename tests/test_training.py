from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pairs, pair_batches, vjp_row
from rfpnapo.errors import ConfigurationError, NumericError
from rfpnapo.numerics import (
    MlpSpec,
    forward_single_cached,
    mlp_init,
    sigmoid,
    softplus,
)
from rfpnapo import training
from rfpnapo.baselines import make_dpo_term, make_sft_term
from rfpnapo.pnapo import BetaSchedule, effective_beta, make_pnapo_term
from rfpnapo.rectflow import default_mixture
from rfpnapo.training import METHODS, run_alignment, run_pretrain


def test_pretrain_deterministic_and_loss_drops():
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(12,))
    mixture = default_mixture(2, 2, 0.4)
    p1, rows1 = run_pretrain(spec, mixture, steps=150, batch=32, lr=3e-3, seed=8)
    p2, rows2 = run_pretrain(spec, mixture, steps=150, batch=32, lr=3e-3, seed=8)
    assert np.array_equal(p1, p2)
    assert rows1 == rows2
    assert rows1[0]["step"] == 1 and rows1[-1]["step"] == 150
    assert set(rows1[0]) == {"step", "loss", "grad_norm"}
    assert rows1[-1]["loss"] < rows1[0]["loss"]


def test_pretrain_validates_arguments():
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(4,))
    mixture = default_mixture(2, 2, 0.4)
    with pytest.raises(ConfigurationError):
        run_pretrain(spec, mixture, steps=0, batch=4, lr=1e-3, seed=0)
    with pytest.raises(ConfigurationError):
        run_pretrain(spec, mixture, steps=5, batch=4, lr=-1.0, seed=0)
    wrong = default_mixture(2, 3, 0.4)  # condition count differs from the model shape
    with pytest.raises(ConfigurationError):
        run_pretrain(spec, wrong, steps=5, batch=4, lr=1e-3, seed=0)


def test_pretrain_divergence_is_a_numeric_error():
    # lr = 1e300 overflows the parameters at the first Adam step, so step 2's
    # loss is not finite; the check and its message are the alignment
    # trainer's. numpy's overflow warnings on the way would, under the
    # package's error filter, be raised in place of the NumericError
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(8, 8))
    with pytest.raises(NumericError, match=r"^non-finite loss or gradient at step 2$"):
        run_pretrain(spec, default_mixture(2, 2, 0.4), steps=40, batch=8, lr=1e300, seed=9)


def _records(spec, n, seed=70):
    rng = np.random.default_rng(seed)
    return make_pairs(rng, spec, n, delta_r=rng.random(n))


def test_alignment_first_step_loss_is_log_two(small_spec, small_params):
    records = _records(small_spec, 10)
    sched = BetaSchedule(beta=5.0, n1=10, n2=20, dynamic=True)
    _, rows = run_alignment(small_params, small_spec, records, "pnapo", sched, 3, 4, 1e-4, 1)
    # params start at the reference, so the first logged loss is exact
    assert rows[0]["loss"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert len(rows) == 3
    assert set(rows[0]) == {"step", "loss", "margin_mean", "beta_eff_mean", "grad_norm"}


def _row_bytes(rows):
    return np.array([list(row.values()) for row in rows], dtype=np.float64).tobytes()


def test_alignment_deterministic_per_method(small_spec, small_params):
    # Adam updates the trainer's own copy in place: the reference and the
    # dataset keep their bytes, and a second call returns the same bits
    records = _records(small_spec, 8)
    ref = small_params.copy()
    inputs = (ref, records.cond, records.x0, records.xT, records.delta_r)
    before = [a.tobytes() for a in inputs]
    sched = BetaSchedule(beta=3.0, n1=2, n2=4, dynamic=True)
    for method in METHODS:
        pa, ra = run_alignment(ref, small_spec, records, method, sched, 5, 4, 1e-3, 11)
        assert [a.tobytes() for a in inputs] == before
        pb, rb = run_alignment(ref, small_spec, records, method, sched, 5, 4, 1e-3, 11)
        assert pa.tobytes() == pb.tobytes()
        assert _row_bytes(ra) == _row_bytes(rb)
        assert not np.array_equal(pa, small_params)


def test_alignment_methods_diverge(small_spec, small_params):
    records = _records(small_spec, 8)
    sched = BetaSchedule(beta=3.0, n1=2, n2=4, dynamic=True)
    outs = {
        method: run_alignment(small_params, small_spec, records, method, sched, 5, 4, 1e-3, 11)[0]
        for method in METHODS
    }
    assert not np.array_equal(outs["pnapo"], outs["dpo"])
    assert not np.array_equal(outs["pnapo"], outs["sft"])


@pytest.mark.parametrize("method", METHODS)
def test_alignment_divergence_is_a_numeric_error(small_spec, small_params, method):
    # as in pretraining: an overflow reaches the step's finiteness check, not a warning
    sched = BetaSchedule(beta=3.0, n1=2, n2=4, dynamic=True)
    with pytest.raises(NumericError, match=r"^non-finite loss or gradient at step 2$"):
        run_alignment(small_params, small_spec, _records(small_spec, 8), method, sched, 5, 4, 1e300, 11)


def test_alignment_requires_records(small_spec, small_params):
    sched = BetaSchedule(beta=1.0, n1=1000, n2=2000, dynamic=True)
    with pytest.raises(ConfigurationError):
        run_alignment(small_params, small_spec, _records(small_spec, 0), "pnapo", sched, 2, 4, 1e-3, 0)


def test_alignment_batch_larger_than_dataset_is_clamped(small_spec, small_params):
    records = _records(small_spec, 3)
    sched = BetaSchedule(beta=1.0, n1=1000, n2=2000, dynamic=True)
    params, rows = run_alignment(small_params, small_spec, records, "pnapo", sched, 2, 64, 1e-3, 2)
    assert len(rows) == 2


@pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
def test_trainers_reject_a_bad_learning_rate_before_any_step(small_spec, small_params, monkeypatch, lr):
    # optim_init is the one check of the rate, for pretraining and every method
    def no_step(*args):
        raise AssertionError("an Adam step ran")

    monkeypatch.setattr(training, "adam_step", no_step)
    message = r"^learning rate must be a finite number > 0, got "
    with pytest.raises(ConfigurationError, match=message):
        run_pretrain(small_spec, default_mixture(2, 3, 0.4), steps=5, batch=4, lr=lr, seed=0)
    sched = BetaSchedule(beta=3.0, n1=2, n2=4, dynamic=True)
    for method in METHODS:
        with pytest.raises(ConfigurationError, match=message):
            run_alignment(small_params, small_spec, _records(small_spec, 4), method, sched, 5, 4, lr, 0)


# --- the per-record loop the batch step replaced, kept as its reference


def _forward_row(params, spec, inp):
    """One row through the kernel alone: its output and its per-layer inputs."""
    y, cache = forward_single_cached(params, spec, inp[None, :])
    return y[0], [h[0] for h in cache]


def _branch_row(params, ref, spec, x0, xT, cond, t):
    xt = (1.0 - t) * x0 + t * xT
    u = xT - x0
    inp = np.concatenate([xt, cond, [t]])
    v, cache = _forward_row(params, spec, inp)
    v_ref, _ = _forward_row(ref, spec, inp)
    res = u - v
    res_ref = u - v_ref
    return float(res @ res - res_ref @ res_ref), cache, res


def _preference_row(params, ref, spec, x0, xT, cond, t, beta_eff):
    """One pair's loss, gradient and margin; x0 and xT are its (2, d) blocks, winner then loser."""
    s_w, cache_w, res_w = _branch_row(params, ref, spec, x0[0], xT[0], cond, t)
    s_l, cache_l, res_l = _branch_row(params, ref, spec, x0[1], xT[1], cond, t)
    z = beta_eff * (s_w - s_l)
    coef = sigmoid(z) * beta_eff
    grad = vjp_row(params, spec, cache_w, -2.0 * coef * res_w)
    grad += vjp_row(params, spec, cache_l, 2.0 * coef * res_l)
    return softplus(z), grad, -z


def _record_terms(params, ref, spec, pairs, idx, method, sched, step_index, rng):
    """Each record's loss, gradient, margin and beta_eff, one record at a time.

    The step's draws are taken first, as blocks in the documented order.
    """
    b, d = len(idx), pairs.header.dim
    if method == "sft":
        xT = rng.standard_normal((b, d))
        t = rng.random(b)
    else:
        t = rng.random(b)
    if method == "dpo":
        eps = rng.standard_normal((b, 2, d))
    out = []
    for k, i in enumerate(idx):
        x0, cond = pairs.x0[i], pairs.cond[i]
        if method == "pnapo":
            beta = effective_beta(sched, float(pairs.delta_r[i]), step_index)
            out.append((*_preference_row(params, ref, spec, x0, pairs.xT[i], cond, t[k], beta), beta))
        elif method == "dpo":
            beta = sched.beta
            out.append((*_preference_row(params, ref, spec, x0, eps[k], cond, t[k], beta), beta))
        else:
            x0w = x0[0]
            inp = np.concatenate([(1.0 - t[k]) * x0w + t[k] * xT[k], cond, [t[k]]])
            v, cache = _forward_row(params, spec, inp)
            residual = v - (xT[k] - x0w)
            out.append((float(residual @ residual), vjp_row(params, spec, cache, 2.0 * residual),
                        0.0, 0.0))
    return out


def _batch_term(ref, spec, method, sched, step_index, rng):
    """The term run_alignment builds for the method at step_index."""
    if method == "pnapo":
        return make_pnapo_term(ref, spec, sched, step_index, rng)
    if method == "dpo":
        return make_dpo_term(ref, spec, sched.beta, rng)
    return make_sft_term(spec, rng)


@pytest.mark.kernel_invariance
@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=50, deadline=None)
@given(case=pair_batches(max_pairs=8), extra_batch=st.integers(-7, 3), seed=st.integers(0, 2**16),
       step_index=st.integers(1, 4))
def test_batch_step_matches_the_per_record_loop(method, case, extra_batch, seed, step_index):
    # one batch call draws, scores and weighs every pair with the bits of the
    # per-record loop over one-row kernel calls; its gradient is one GEMM per layer, which adds the
    # pairs' contributions in another order than the loop, so it matches the
    # record-ordered sum up to rounding
    spec, rng, pairs = case
    ref = mlp_init(spec, int(rng.integers(1000)))
    params = ref + 0.3 * rng.standard_normal(ref.size)  # off the reference: scores are not all 0
    n1 = int(rng.integers(1, 3))
    sched = BetaSchedule(beta=float(1.0 + 20.0 * rng.random()), n1=n1, n2=n1 + 1, dynamic=True)
    batch = max(1, len(pairs) + extra_batch)
    idx = rng.choice(len(pairs), size=min(batch, len(pairs)), replace=False)
    batch_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    losses, grad, margins, betas = _batch_term(ref, spec, method, sched, step_index, batch_rng)(
        params, pairs.take(idx)
    )
    expected = _record_terms(params, ref, spec, pairs, idx, method, sched, step_index, loop_rng)
    expected_losses, grads, expected_margins, expected_betas = zip(*expected)
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
    for got, want in ((losses, expected_losses), (margins, expected_margins), (betas, expected_betas)):
        assert np.asarray(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()
    record_sum = np.add.reduce(np.stack(grads))  # records in order, starting from zero
    assert np.max(np.abs(grad - record_sum)) <= 1e-12 * np.max(np.abs(record_sum))
