from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_params
from rfpnapo.errors import NumericError, ShapeError
from rfpnapo.numerics import (
    MlpSpec,
    forward_single_cached,
    mlp_forward,
    mlp_init,
)
from rfpnapo.rectflow import (
    ConditionalMixture,
    cfm_objective,
    default_mixture,
    euler_sample,
    path_inputs,
)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 9), d=st.integers(1, 4), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_path_inputs_rows_are_the_straight_path(r, d, k, seed):
    rng = np.random.default_rng(seed)
    x0, xT = rng.standard_normal((2, r, d)) * 3.0
    cond = np.eye(k)[rng.integers(k, size=r)]
    t = rng.random(r)
    inputs, target = path_inputs(MlpSpec(data_dim=d, cond_dim=k, hidden=(3,)), x0, xT, cond, t)
    assert inputs.shape == (r, d + k + 1)
    for i in range(r):
        xt = (1.0 - t[i]) * x0[i] + t[i] * xT[i]
        assert inputs[i, :d].tobytes() == xt.tobytes()
    assert np.array_equal(inputs[:, d:-1], cond)
    assert np.array_equal(inputs[:, -1], t)
    assert np.array_equal(target, xT - x0)


def test_path_inputs_at_time_zero_is_the_sample():
    rng = np.random.default_rng(1)
    spec = MlpSpec(data_dim=3, cond_dim=2, hidden=(3,))
    for _ in range(10):
        x0, xT = rng.standard_normal((2, 5, 3))
        inputs, _ = path_inputs(spec, x0, xT, np.eye(2)[[0, 1, 0, 1, 1]], np.zeros(5))
        assert np.array_equal(inputs[:, :3], x0)


_GOOD_ROWS = dict(x0=np.zeros((2, 2)), xT=np.zeros((2, 2)), cond=np.zeros((2, 3)), t=np.zeros(2))
_GOOD_SPEC = MlpSpec(data_dim=2, cond_dim=3, hidden=(3,))


def test_interpolate_rejects_out_of_range_t():
    # path times live in [0, 1): the noise end, negatives and NaN are refused
    path_inputs(_GOOD_SPEC, **_GOOD_ROWS)
    for bad in (1.0, 1.1, -0.1, float("nan")):
        with pytest.raises(ShapeError):
            path_inputs(_GOOD_SPEC, **{**_GOOD_ROWS, "t": np.array([0.0, bad])})


def test_flow_batch_validation():
    good = _GOOD_ROWS
    path_inputs(_GOOD_SPEC, **good)
    for bad in (
        {**good, "xT": np.zeros((3, 2))},
        {**good, "x0": np.zeros((2, 3)), "xT": np.zeros((2, 3))},  # width is not the spec's
        {**good, "cond": np.zeros((2, 2))},
        {**good, "t": np.zeros((2, 1))},
        {**good, "t": 0.5},
        dict(x0=np.zeros((0, 2)), xT=np.zeros((0, 2)), cond=np.zeros((0, 3)), t=np.zeros(0)),
    ):
        with pytest.raises(ShapeError):
            path_inputs(_GOOD_SPEC, **bad)


def test_cfm_loss_matches_per_sample_recomputation():
    spec = MlpSpec(data_dim=3, cond_dim=2, hidden=(9,))
    params = mlp_init(spec, 3)
    rng = np.random.default_rng(12)
    for trial in range(10):
        n = int(rng.integers(1, 8))
        x0 = rng.standard_normal((n, 3))
        xT = rng.standard_normal((n, 3))
        cond = np.eye(2)[rng.integers(2, size=n)]
        t = rng.random(n) * 0.999
        loss = cfm_objective(spec, x0, xT, cond, t).value(params)
        # independent oracle: one sample at a time through the single-input path
        total = 0.0
        for i in range(n):
            xt = (1.0 - t[i]) * x0[i] + t[i] * xT[i]
            v = mlp_forward(params, spec, xt[None], float(t[i]), cond[i : i + 1])[0]
            u = xT[i] - x0[i]
            total += float(np.sum((v - u) ** 2))
        assert loss == pytest.approx(total / n, rel=1e-12)


def test_cfm_loss_frozen_value():
    # pinned regression value; independently recomputed when first frozen
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(4,))
    params = mlp_init(spec, 0)
    rng = np.random.default_rng(100)
    rows = (
        rng.standard_normal((3, 2)),
        rng.standard_normal((3, 2)),
        np.eye(2)[rng.integers(2, size=3)],
        rng.random(3),
    )
    assert cfm_objective(spec, *rows).value(params) == pytest.approx(9.1566682129407955, rel=1e-13)


def test_cfm_objective_gradient_passes_finite_differences():
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(6,))
    params = mlp_init(spec, 8)
    rng = np.random.default_rng(21)
    rows = (
        rng.standard_normal((5, 2)),
        rng.standard_normal((5, 2)),
        np.eye(2)[rng.integers(2, size=5)],
        rng.random(5) * 0.9,
    )
    from rfpnapo.numerics import finite_diff_check

    assert finite_diff_check(cfm_objective(spec, *rows), params) < 1e-6


def test_euler_single_step_recovers_constant_field():
    # a model with zero weights outputs its final bias b: x0 = xT - b exactly
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(4,))
    weights = [np.zeros(s) for s in spec.layer_shapes()]
    biases = [np.zeros(s[0]) for s in spec.layer_shapes()]
    biases[-1] = np.array([0.3, -0.7])
    params = flat_params(weights, biases)
    xT = np.array([[1.0, 2.0], [-0.5, 0.25]])
    x0 = euler_sample(params, spec, xT, np.eye(2), 1)
    assert x0.shape == (2, 2)
    assert np.array_equal(x0, xT - biases[-1])


def test_euler_many_steps_constant_field_still_exact_to_tolerance():
    spec = MlpSpec(data_dim=2, cond_dim=2, hidden=(4,))
    weights = [np.zeros(s) for s in spec.layer_shapes()]
    biases = [np.zeros(s[0]) for s in spec.layer_shapes()]
    biases[-1] = np.array([0.3, -0.7])
    params = flat_params(weights, biases)
    xT = np.array([[1.0, 2.0]])
    x0 = euler_sample(params, spec, xT, np.eye(2)[[1]], 50)
    # constant velocity: every step subtracts b/steps, rounding is the only error
    assert x0.shape == (1, 2)
    assert np.allclose(x0, xT - biases[-1], rtol=0, atol=1e-12)


def test_euler_sample_reports_the_step_it_diverged_at():
    # a constant field of 1e308 moves x by -2e307 per step of dt = 0.2: the row
    # starting at -1e308 passes the largest float at step 4, its neighbours
    # (zeros, in the first of two tiles) stay finite
    spec = MlpSpec(data_dim=1, cond_dim=1, hidden=(3,))
    weights = [np.zeros(s) for s in spec.layer_shapes()]
    biases = [np.zeros(s[0]) for s in spec.layer_shapes()]
    biases[-1] = np.array([1e308])
    params = flat_params(weights, biases)
    xT = np.zeros((30, 1))
    xT[29] = -1e308
    cond = np.ones((30, 1))
    finite = euler_sample(params, spec, xT[:29], cond[:29], 5)
    assert np.all(np.isfinite(finite))
    # the overflow on the way is no warning: under the package's error filter it
    # would be raised in place of the NumericError
    with pytest.raises(NumericError, match=r"^sampler diverged at step 4 of 5$"):
        euler_sample(params, spec, xT, cond, 5)


def test_euler_sample_rejects_unbatched_or_mismatched_input():
    spec = MlpSpec(data_dim=2, cond_dim=3, hidden=(4,))
    params = mlp_init(spec, 0)
    with pytest.raises(ShapeError):
        euler_sample(params, spec, np.zeros(2), np.eye(3)[0], 2)
    with pytest.raises(ShapeError):
        euler_sample(params, spec, np.zeros((4, 2)), np.eye(3)[:3], 2)
    assert euler_sample(params, spec, np.zeros((0, 2)), np.zeros((0, 3)), 2).shape == (0, 2)


def _euler_per_row(params, spec, xT, cond, steps):
    """Reference sampler: each row alone, one one-row kernel call per step."""
    dt = 1.0 / steps
    out = np.empty_like(xT)
    for r in range(xT.shape[0]):
        x = xT[r]
        for i in range(steps):
            inp = np.concatenate([x, cond[r], [1.0 - i * dt]])[None, :]
            x = x - dt * forward_single_cached(params, spec, inp)[0][0]
        out[r] = x
    return out


@pytest.mark.kernel_invariance
@settings(max_examples=60, deadline=None)
@given(
    data_dim=st.integers(1, 5),
    cond_dim=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 300), max_size=3),
    batch=st.integers(0, 60),
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
    params = mlp_init(spec, seed) + 0.1 * rng.standard_normal(spec.param_count())
    xT = rng.standard_normal((batch, data_dim))
    cond = np.eye(cond_dim)[rng.integers(cond_dim, size=batch)]
    xT_bytes = xT.tobytes()
    expected = _euler_per_row(params, spec, xT, cond, steps).tobytes()

    assert euler_sample(params, spec, xT, cond, steps).tobytes() == expected
    cuts = sorted(data.draw(st.lists(st.integers(0, batch), max_size=4)))
    bounds = list(zip([0, *cuts], [*cuts, batch]))
    pieces = [euler_sample(params, spec, xT[a:b], cond[a:b], steps) for a, b in bounds]
    assert np.concatenate(pieces).tobytes() == expected
    assert xT.tobytes() == xT_bytes  # the input noise is never written


def test_sampler_config_validation():
    # the step count is checked before the rows, so even a malformed batch reports it
    spec = MlpSpec(data_dim=2, cond_dim=3, hidden=(4,))
    params = mlp_init(spec, 0)
    for steps in (0, -1):
        with pytest.raises(ShapeError, match=rf"^sampler needs at least 1 step, got {steps}$"):
            euler_sample(params, spec, np.zeros((4, 2)), np.eye(3)[[0, 1, 2, 0]], steps)
        with pytest.raises(ShapeError, match=rf"^sampler needs at least 1 step, got {steps}$"):
            euler_sample(params, spec, np.zeros(2), np.eye(3)[0], steps)


def test_mixture_sampling_deterministic_and_near_modes():
    mixture = default_mixture(2, 4, std=0.1)
    a = mixture.sample_batch(np.random.default_rng(6), np.array([0, 1, 2, 3]))
    b = mixture.sample_batch(np.random.default_rng(6), np.array([0, 1, 2, 3]))
    assert np.array_equal(a, b)
    assert np.all(np.linalg.norm(a - mixture.centers, axis=1) < 1.0)


def test_mixture_multi_mode_condition():
    # condition 0 has two modes, condition 1 three: every draw lies near one
    # of its own condition's modes, and every mode is hit
    centers = np.array([[5.0, 0.0], [-5.0, 0.0], [0.0, 5.0], [0.0, -5.0], [0.0, 15.0]])
    modes = (centers[:2], centers[2:])
    mixture = ConditionalMixture(centers, np.array([2, 3]), std=0.05)
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


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 8),
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    std=st.floats(1e-3, 10.0),
    batch=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_multi_mode_sample_batch_is_bitwise_the_per_condition_lookup(dim, counts, std, batch, seed):
    setup = np.random.default_rng(seed)
    counts = np.array(counts)
    centers = setup.standard_normal((counts.sum(), dim)) * 10.0 ** setup.integers(-2, 3, (counts.sum(), 1))
    mixture = ConditionalMixture(centers, counts, std)
    ks = setup.integers(len(counts), size=batch)
    stream, reference = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = mixture.sample_batch(stream, ks)
    # the same picks and noise block, each pick looked up in its condition's own list
    picks = reference.integers(counts[ks])
    noise = reference.standard_normal((batch, dim))
    groups = np.split(centers, np.cumsum(counts)[:-1])
    chosen = np.array([groups[k][pick] for k, pick in zip(ks, picks)]).reshape(batch, dim)
    assert got.tobytes() == (chosen + std * noise).tobytes()
    assert stream.bit_generator.state == reference.bit_generator.state


def _mixture_per_row(mixture, rng, ks):
    """The per-row single-mode draw, one noise vector per row: the reference for sample_batch."""
    rows = [mixture.centers[k] + mixture.std * rng.standard_normal(mixture.dim) for k in ks]
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
    mixture = ConditionalMixture(centers, np.ones(n_conditions, dtype=np.int64), std)
    ks = setup.integers(n_conditions, size=batch)
    stream, reference = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = mixture.sample_batch(stream, ks)
    expected = _mixture_per_row(mixture, reference, ks)
    assert got.shape == (batch, dim)
    assert got.tobytes() == expected.tobytes()
    # both generators stand at the same point of the stream
    assert stream.bit_generator.state == reference.bit_generator.state
