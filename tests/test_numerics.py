from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import vjp_row
from rfpnapo.errors import NumericError, ParseError, ShapeError
from rfpnapo.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    FunctionLoss,
    MlpSpec,
    adam_step,
    finite_diff_check,
    forward_batch_cached,
    forward_single_cached,
    loss_value_and_grad,
    mlp_forward,
    mlp_init,
    optim_init,
    pack_params,
    read_checkpoint,
    sigmoid,
    softplus,
    unpack_params,
    vjp_batch,
    vjp_single,
    write_checkpoint,
)


def test_param_count_matches_layer_shapes(small_spec):
    # input width 2+3+1, widths 6 -> 8 -> 6 -> 2
    assert small_spec.input_dim == 2 + 3 + 1
    assert small_spec.param_count() == 8 * 6 + 6 * 8 + 2 * 6 + 8 + 6 + 2


def test_init_deterministic_and_glorot_bounded():
    spec = MlpSpec(data_dim=3, cond_dim=2, hidden=(12, 5))
    a = mlp_init(spec, 42)
    b = mlp_init(spec, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, mlp_init(spec, 43))
    weights, biases = unpack_params(a, spec)
    for w, (fan_out, fan_in) in zip(weights, spec.layer_shapes()):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= bound)
        assert np.any(w != 0.0)
    for b_vec in biases:
        assert np.all(b_vec == 0.0)


def test_pack_unpack_round_trip(small_spec, small_params):
    weights, biases = unpack_params(small_params, small_spec)
    assert np.array_equal(pack_params(weights, biases), small_params)


def test_forward_shapes_and_batch_consistency(small_spec, small_params):
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        x = rng.standard_normal((n, 2))
        c = np.eye(3)[rng.integers(3, size=n)]
        t = rng.random(n)
        ys, _ = forward_batch_cached(small_params, small_spec, np.hstack([x, c, t[:, None]]))
        for i in range(n):
            yi = mlp_forward(small_params, small_spec, x[i], float(t[i]), c[i])
            assert yi.shape == (2,)
            # batched path uses different BLAS calls; agreement is numeric, not bitwise
            assert np.allclose(yi, ys[i], rtol=1e-12, atol=1e-14)


def test_quadratic_loss_gradient_is_exact():
    # value 0.5*||p||^2 has gradient p; the checked entry point must agree
    loss = FunctionLoss(lambda p: (0.5 * float(p @ p), p.copy()))
    p = np.linspace(-1.0, 1.0, 11)
    v, g = loss_value_and_grad(loss, p)
    assert v == 0.5 * float(p @ p)
    assert np.array_equal(g, p)
    assert finite_diff_check(loss, p) < 1e-8


def test_finite_diff_check_passes_a_derivative_below_the_noise_floor():
    # the case that failed the per-coordinate check: at loss 43 a derivative
    # of 1.7e-10 moves the loss by less than half an ulp at h = 1e-5, so its
    # central difference reads exactly 0.0
    slope = np.array([0.8, 1.7e-10, -0.3])
    loss = FunctionLoss(lambda p: (43.0 + float(slope @ p), slope.copy()))
    p = np.zeros(3)
    h = 1e-5
    assert (loss.value(p + h * np.eye(3)[1]) - loss.value(p - h * np.eye(3)[1])) / (2 * h) == 0.0
    assert finite_diff_check(loss, p, h=h) < 1e-5


def test_finite_diff_check_fails_a_perturbed_coordinate(small_spec, small_params):
    rng = np.random.default_rng(3)
    inputs = rng.standard_normal((5, small_spec.input_dim))
    dy = rng.standard_normal((5, 2))

    def value_and_grad(p):
        y, cache = forward_batch_cached(p, small_spec, inputs)
        return float(np.sum(dy * y)), vjp_batch(p, small_spec, cache, dy)

    assert finite_diff_check(FunctionLoss(value_and_grad), small_params) < 1e-6
    _, grad = value_and_grad(small_params)
    # the largest coordinate, and one of about half its size
    order = np.argsort(np.abs(grad))
    half = order[np.searchsorted(np.abs(grad)[order], 0.5 * np.max(np.abs(grad)))]
    for i in (order[-1], half):
        bump = np.zeros_like(grad)
        bump[i] = 1e-4 * grad[i]

        def perturbed(p, bump=bump):
            value, g = value_and_grad(p)
            return value, g + bump

        assert finite_diff_check(FunctionLoss(perturbed), small_params) > 1e-5


def test_constant_loss_has_zero_gradient():
    loss = FunctionLoss(lambda p: (3.5, np.zeros_like(p)))
    assert finite_diff_check(loss, np.ones(5)) == 0.0


def test_non_finite_loss_raises():
    loss = FunctionLoss(lambda p: (float("nan"), np.zeros_like(p)))
    with pytest.raises(NumericError):
        loss_value_and_grad(loss, np.ones(3))


def test_vjp_single_matches_finite_differences(small_spec, small_params):
    rng = np.random.default_rng(5)
    for trial in range(5):
        rows = int(rng.integers(1, 5))
        x = rng.standard_normal((rows, 2))
        c = np.eye(3)[rng.integers(3, size=rows)]
        t = rng.random((rows, 1))
        dy = rng.standard_normal((rows, 2))
        inp = np.hstack([x, c, t])

        def value_and_grad(p):
            y, cache = forward_single_cached(p, small_spec, inp)
            return float(np.sum(dy * y)), vjp_single(p, small_spec, cache, dy)

        err = finite_diff_check(FunctionLoss(value_and_grad), small_params)
        assert err < 1e-6


def test_vjp_batch_sums_per_sample_gradients(small_spec, small_params):
    rng = np.random.default_rng(9)
    inputs = rng.standard_normal((6, small_spec.input_dim))
    dys = rng.standard_normal((6, 2))
    # the GEMM and row forwards give the same rows up to rounding
    for forward in (forward_batch_cached, forward_single_cached):
        _, cache = forward(small_params, small_spec, inputs)
        expected = np.add.reduce([vjp_row(small_params, small_spec, [h[r] for h in cache], dys[r])
                                  for r in range(len(dys))])
        for vjp in (vjp_batch, vjp_single):
            got = vjp(small_params, small_spec, cache, dys)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_single_row_kernels_reject_mismatched_shapes(small_spec, small_params):
    with pytest.raises(ShapeError):
        forward_single_cached(small_params, small_spec, np.zeros(small_spec.input_dim))
    _, cache = forward_single_cached(small_params, small_spec, np.zeros((4, small_spec.input_dim)))
    for dy in (np.zeros((3, 2)), np.zeros((4, 3)), np.zeros((4, 1, 2)), np.zeros((2, 2, 2))):
        with pytest.raises(ShapeError):
            vjp_single(small_params, small_spec, cache, dy)


def test_vjp_batch_rejects_mismatched_cotangent(small_spec, small_params):
    _, cache = forward_batch_cached(small_params, small_spec, np.zeros((4, small_spec.input_dim)))
    assert vjp_batch(small_params, small_spec, cache, np.zeros((4, 2))).shape == small_params.shape
    for dy in (np.zeros((5, 2)), np.zeros((4, 1)), np.zeros(8), np.zeros((4, 1, 2))):
        with pytest.raises(ShapeError):
            vjp_batch(small_params, small_spec, cache, dy)


def test_sigmoid_softplus_stable_and_consistent():
    for z in np.linspace(-30.0, 30.0, 301):
        s = sigmoid(float(z))
        assert 0.0 < s < 1.0
        naive = np.log1p(np.exp(-abs(z))) + max(z, 0.0)
        assert abs(softplus(float(z)) - naive) < 1e-12
    assert softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-16)
    # extreme arguments must not overflow
    assert softplus(800.0) == 800.0
    assert softplus(-800.0) == 0.0
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == 0.0


def test_adam_zero_gradient_keeps_params():
    state = optim_init(4, lr=0.1)
    params = np.array([1.0, -2.0, 3.0, 0.5])
    new_state, new_params = adam_step(state, params, np.zeros(4))
    assert np.array_equal(new_params, params)
    assert new_state.step_count == 1


def test_adam_first_step_magnitude_near_lr():
    # bias correction makes the first update ~lr * sign(grad)
    state = optim_init(3, lr=0.05)
    params = np.zeros(3)
    grad = np.array([1.0, -2.0, 0.5])
    _, new_params = adam_step(state, params, grad)
    assert np.allclose(np.abs(new_params), 0.05, rtol=1e-6)
    assert np.all(np.sign(new_params) == -np.sign(grad))


def test_adam_converges_on_quadratic():
    state = optim_init(3, lr=0.1)
    params = np.array([2.0, -1.5, 0.7])
    for _ in range(400):
        state, params = adam_step(state, params, params)  # grad of 0.5||p||^2
    assert np.linalg.norm(params) < 1e-3


def _adam_step_reference(state, params, grad):
    """The Adam step as one expression with temporaries: the reference for adam_step."""
    t = state.step_count + 1
    m = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    update = state.lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    return m, v, params - update


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(1, 300),
    lr=st.floats(1e-5, 1.0),
    steps=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_step_is_bitwise_the_expression(size, lr, steps, seed):
    rng = np.random.default_rng(seed)
    state = optim_init(size, lr=lr)
    params = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 3, size)
    params[rng.random(size) < 0.1] = -0.0
    for _ in range(steps):
        grad = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 3, size)
        grad[rng.random(size) < 0.1] = 0.0
        inputs = [a.copy() for a in (state.first_moment, state.second_moment, params, grad)]
        new_state, new_params = adam_step(state, params, grad)
        # no input array is written
        for before, after in zip(inputs, (state.first_moment, state.second_moment, params, grad)):
            assert after.tobytes() == before.tobytes()
        m_ref, v_ref, p_ref = _adam_step_reference(state, params, grad)
        assert new_state.first_moment.tobytes() == m_ref.tobytes()
        assert new_state.second_moment.tobytes() == v_ref.tobytes()
        assert new_params.tobytes() == p_ref.tobytes()
        assert new_state.step_count == state.step_count + 1
        assert new_params is not params and new_state.first_moment is not state.first_moment
        state, params = new_state, new_params


@st.composite
def specs_with_params(draw):
    """A random small spec (hidden=() and dims of 1 included) and finite float64 parameters.

    The values cover -0.0, subnormals and the extremes of the finite range.
    """
    spec = MlpSpec(
        data_dim=draw(st.integers(1, 3)),
        cond_dim=draw(st.integers(1, 3)),
        hidden=tuple(draw(st.lists(st.integers(1, 5), max_size=2))),
    )
    values = st.floats(allow_nan=False, allow_infinity=False)
    n = spec.param_count()
    return spec, np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)


@settings(max_examples=80, deadline=None)
@given(case=specs_with_params())
@example(case=(MlpSpec(data_dim=2, cond_dim=3, hidden=(8, 6)), mlp_init(MlpSpec(2, 3, (8, 6)), 7)))
@example(case=(MlpSpec(data_dim=1, cond_dim=1, hidden=()), np.array([-0.0, 5e-324, -1.7976931348623157e308, 0.0])))
def test_checkpoint_round_trip_bit_exact(tmp_path_factory, case):
    spec, params = case
    path = str(tmp_path_factory.getbasetemp() / "model.ckpt")
    write_checkpoint(path, params, spec)
    params2, spec2 = read_checkpoint(path)
    assert spec2 == spec
    assert params2.tobytes() == params.tobytes()
    # rewriting produces identical bytes
    data1 = open(path, "rb").read()
    write_checkpoint(path, params2, spec2)
    assert open(path, "rb").read() == data1


def test_checkpoint_rejects_corruption(tmp_path, small_spec, small_params):
    path = tmp_path / "model.ckpt"
    write_checkpoint(str(path), small_params, small_spec)
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(ParseError):
        read_checkpoint(str(bad_magic))

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(bytes(blob[:-9]))
    with pytest.raises(ParseError):
        read_checkpoint(str(truncated))

    trailing = tmp_path / "long.ckpt"
    trailing.write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(ParseError):
        read_checkpoint(str(trailing))

    bad_version = tmp_path / "vers.ckpt"
    vers = bytearray(blob)
    vers[4:8] = (99).to_bytes(4, "little")
    bad_version.write_bytes(bytes(vers))
    with pytest.raises(ParseError):
        read_checkpoint(str(bad_version))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, small_spec, small_params, bad):
    params = small_params.copy()
    params[3] = bad
    path = str(tmp_path / "model.ckpt")
    write_checkpoint(path, params, small_spec)
    with pytest.raises(ParseError, match="non-finite"):
        read_checkpoint(path)


def test_checkpoint_rejects_inconsistent_dims(tmp_path, small_spec, small_params):
    path = tmp_path / "model.ckpt"
    write_checkpoint(str(path), small_params, small_spec)
    blob = bytearray(path.read_bytes())
    # trailer carries (input_dim, cond_dim, output_dim); bump cond_dim so the
    # recomputed input width no longer matches the stored first-layer fan-in
    blob[-8:-4] = (small_spec.cond_dim + 1).to_bytes(4, "little")
    bad = tmp_path / "dims.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ShapeError):
        read_checkpoint(str(bad))


def test_spec_validation():
    with pytest.raises(ShapeError):
        MlpSpec(data_dim=0, cond_dim=2)
    with pytest.raises(ShapeError):
        MlpSpec(data_dim=2, cond_dim=0)
    with pytest.raises(ShapeError):
        MlpSpec(data_dim=2, cond_dim=2, hidden=(0,))
    # no hidden layers is legal: a purely linear field
    linear = MlpSpec(data_dim=2, cond_dim=2, hidden=())
    assert linear.layer_shapes() == [(2, 5)]
