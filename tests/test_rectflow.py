from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpnapo.errors import ShapeError
from rfpnapo.numerics import MlpSpec, loss_value_and_grad, mlp_forward, mlp_init, unpack_params, pack_params
from rfpnapo.rectflow import (
    ConditionalMixture,
    FlowBatch,
    SamplerConfig,
    cfm_objective,
    default_mixture,
    euler_sample,
    interpolate,
    one_hot,
)


def test_interpolate_endpoints_exact():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x0 = rng.standard_normal((5, 3))
        xT = rng.standard_normal((5, 3))
        assert np.array_equal(interpolate(x0, xT, 0.0), x0)
        assert np.array_equal(interpolate(x0, xT, 1.0), xT)


def test_interpolate_midpoint_and_vector_t():
    x0 = np.array([[0.0, 0.0], [2.0, 2.0]])
    xT = np.array([[1.0, 1.0], [4.0, 0.0]])
    mid = interpolate(x0, xT, 0.5)
    assert np.allclose(mid, [[0.5, 0.5], [3.0, 1.0]])
    per_row = interpolate(x0, xT, np.array([0.0, 1.0]))
    assert np.array_equal(per_row[0], x0[0])
    assert np.array_equal(per_row[1], xT[1])


def test_interpolate_rejects_out_of_range_t():
    x = np.zeros((2, 2))
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            interpolate(x, x, bad)


def test_cfm_loss_matches_per_sample_recomputation():
    spec = MlpSpec(data_dim=3, cond_dim=2, hidden=(9,))
    params = mlp_init(spec, 3)
    rng = np.random.default_rng(12)
    for trial in range(10):
        n = int(rng.integers(1, 8))
        batch = FlowBatch(
            x0=rng.standard_normal((n, 3)),
            xT=rng.standard_normal((n, 3)),
            cond=np.eye(2)[rng.integers(2, size=n)],
            t=rng.random(n) * 0.999,
        )
        loss = cfm_objective(spec, batch).value(params)
        # independent oracle: one sample at a time through the single-input path
        total = 0.0
        for i in range(n):
            xt = (1.0 - batch.t[i]) * batch.x0[i] + batch.t[i] * batch.xT[i]
            v = mlp_forward(params, spec, xt, float(batch.t[i]), batch.cond[i])
            u = batch.xT[i] - batch.x0[i]
            total += float(np.sum((v - u) ** 2))
        assert loss == pytest.approx(total / n, rel=1e-12)


def test_cfm_loss_frozen_value():
    # pinned regression value; independently recomputed when first frozen
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(4,))
    params = mlp_init(spec, 0)
    rng = np.random.default_rng(100)
    batch = FlowBatch(
        x0=rng.standard_normal((3, 2)),
        xT=rng.standard_normal((3, 2)),
        cond=np.eye(2)[rng.integers(2, size=3)],
        t=rng.random(3),
    )
    assert cfm_objective(spec, batch).value(params) == pytest.approx(9.1566682129407955, rel=1e-13)


def test_cfm_objective_gradient_passes_finite_differences():
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(6,))
    params = mlp_init(spec, 8)
    rng = np.random.default_rng(21)
    batch = FlowBatch(
        x0=rng.standard_normal((5, 2)),
        xT=rng.standard_normal((5, 2)),
        cond=np.eye(2)[rng.integers(2, size=5)],
        t=rng.random(5) * 0.9,
    )
    from rfpnapo.numerics import finite_diff_check

    assert finite_diff_check(cfm_objective(spec, batch), params) < 1e-6


def test_euler_single_step_recovers_constant_field():
    # a model with zero weights outputs its final bias b: x0 = xT - b exactly
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(4,))
    weights = [np.zeros(s) for s in spec.layer_shapes()]
    biases = [np.zeros(s[0]) for s in spec.layer_shapes()]
    biases[-1] = np.array([0.3, -0.7])
    params = pack_params(weights, biases)
    xT = np.array([[1.0, 2.0], [-0.5, 0.25]])
    x0 = euler_sample(params, spec, xT, np.eye(2), SamplerConfig(steps=1))
    assert x0.shape == (2, 2)
    assert np.array_equal(x0, xT - biases[-1])


def test_euler_many_steps_constant_field_still_exact_to_tolerance():
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(4,))
    weights = [np.zeros(s) for s in spec.layer_shapes()]
    biases = [np.zeros(s[0]) for s in spec.layer_shapes()]
    biases[-1] = np.array([0.3, -0.7])
    params = pack_params(weights, biases)
    xT = np.array([[1.0, 2.0]])
    x0 = euler_sample(params, spec, xT, one_hot(1, 2)[None, :], SamplerConfig(steps=50))
    # constant velocity: every step subtracts b/steps, rounding is the only error
    assert x0.shape == (1, 2)
    assert np.allclose(x0, xT - biases[-1], rtol=0, atol=1e-12)


def test_euler_sample_rejects_unbatched_or_mismatched_input():
    spec = MlpSpec(data_dim=2, cond_dim=3, hidden=(4,))
    params = mlp_init(spec, 0)
    cfg = SamplerConfig(steps=2)
    with pytest.raises(ShapeError):
        euler_sample(params, spec, np.zeros(2), one_hot(0, 3), cfg)
    with pytest.raises(ShapeError):
        euler_sample(params, spec, np.zeros((4, 2)), np.eye(3)[:3], cfg)
    assert euler_sample(params, spec, np.zeros((0, 2)), np.zeros((0, 3)), cfg).shape == (0, 2)


def _euler_per_row(params, spec, xT, cond, steps):
    """Reference sampler: each row alone, one single-row `w @ h` per layer and step."""
    weights, biases = unpack_params(params, spec)
    dt = 1.0 / steps
    out = np.empty_like(xT)
    for r in range(xT.shape[0]):
        x = xT[r]
        for i in range(steps):
            h = np.concatenate([x, cond[r], [1.0 - i * dt]])
            for w, b in zip(weights[:-1], biases[:-1]):
                h = np.tanh(w @ h + b)
            x = x - dt * (weights[-1] @ h + biases[-1])
        out[r] = x
    return out


@settings(max_examples=60, deadline=None)
@given(
    data_dim=st.integers(1, 5),
    cond_dim=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 40), max_size=3),
    batch=st.integers(0, 24),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_euler_sample_is_batch_invariant(data_dim, cond_dim, hidden, batch, steps, seed, data):
    # every row of a batched call, and of any split of the batch, carries the
    # bits of the per-row reference: stored noise replays exactly whatever the
    # batch it is sampled or audited in
    spec = MlpSpec(data_dim=data_dim, cond_dim=cond_dim, hidden=tuple(hidden))
    rng = np.random.default_rng(seed)
    params = 0.7 * rng.standard_normal(spec.param_count())
    xT = rng.standard_normal((batch, data_dim))
    cond = np.eye(cond_dim)[rng.integers(cond_dim, size=batch)]
    xT_bytes = xT.tobytes()
    cfg = SamplerConfig(steps=steps)
    expected = _euler_per_row(params, spec, xT, cond, steps).tobytes()

    assert euler_sample(params, spec, xT, cond, cfg).tobytes() == expected
    cuts = sorted(data.draw(st.lists(st.integers(0, batch), max_size=4)))
    bounds = list(zip([0, *cuts], [*cuts, batch]))
    pieces = [euler_sample(params, spec, xT[a:b], cond[a:b], cfg) for a, b in bounds]
    assert np.concatenate(pieces).tobytes() == expected
    assert xT.tobytes() == xT_bytes  # the input noise is never written


def test_sampler_config_validation():
    with pytest.raises(Exception):
        SamplerConfig(steps=0)


def test_one_hot():
    v = one_hot(2, 4)
    assert np.array_equal(v, [0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ShapeError):
        one_hot(4, 4)


def test_flow_batch_validation():
    good = dict(
        x0=np.zeros((2, 2)), xT=np.zeros((2, 2)), cond=np.zeros((2, 3)), t=np.zeros(2)
    )
    FlowBatch(**good)
    with pytest.raises(ShapeError):
        FlowBatch(**{**good, "xT": np.zeros((3, 2))})
    with pytest.raises(ShapeError):
        FlowBatch(**{**good, "t": np.array([0.0, 1.0])})  # t must stay below 1


def test_mixture_sampling_deterministic_and_near_modes():
    mixture = default_mixture(2, 4, std=0.1)
    a = mixture.sample_batch(np.random.default_rng(6), np.array([0, 1, 2, 3]))
    b = mixture.sample_batch(np.random.default_rng(6), np.array([0, 1, 2, 3]))
    assert np.array_equal(a, b)
    centers = np.array([m[0] for m in mixture.modes])
    assert np.all(np.linalg.norm(a - centers, axis=1) < 1.0)


def test_mixture_multi_mode_condition():
    # condition 0 has two modes, condition 1 three: every draw lies near one
    # of its own condition's modes, and every mode is hit
    modes = (
        (np.array([5.0, 0.0]), np.array([-5.0, 0.0])),
        (np.array([0.0, 5.0]), np.array([0.0, -5.0]), np.array([0.0, 15.0])),
    )
    mixture = ConditionalMixture(modes=modes, std=0.05)
    ks = np.random.default_rng(3).integers(2, size=400)
    draws = mixture.sample_batch(np.random.default_rng(4), ks)
    assert draws.shape == (400, 2)
    hit = set()
    for k, x in zip(ks, draws):
        dists = [np.linalg.norm(x - center) for center in modes[k]]
        assert min(dists) < 1.0
        hit.add((int(k), int(np.argmin(dists))))
    assert hit == {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}
    again = mixture.sample_batch(np.random.default_rng(4), ks)
    assert again.tobytes() == draws.tobytes()


def _mixture_per_row(mixture, rng, ks):
    """The per-row single-mode draw, one noise vector per row: the reference for sample_batch."""
    rows = [mixture.modes[k][0] + mixture.std * rng.standard_normal(mixture.dim) for k in ks]
    return np.array(rows).reshape(len(ks), mixture.dim)


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 20),
    n_conditions=st.integers(1, 10),
    std=st.floats(1e-3, 10.0),
    batch=st.integers(0, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_single_mode_sample_batch_is_bitwise_the_per_row_loop(dim, n_conditions, std, batch, seed):
    setup = np.random.default_rng(seed)
    centers = setup.standard_normal((n_conditions, dim)) * 10.0 ** setup.integers(-2, 3, (n_conditions, 1))
    mixture = ConditionalMixture(modes=tuple((c,) for c in centers), std=std)
    ks = setup.integers(n_conditions, size=batch)
    stream, reference = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = mixture.sample_batch(stream, ks)
    expected = _mixture_per_row(mixture, reference, ks)
    assert got.shape == (batch, dim)
    assert got.tobytes() == expected.tobytes()
    # both generators stand at the same point of the stream
    assert stream.bit_generator.state == reference.bit_generator.state
