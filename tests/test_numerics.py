from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import INCONSISTENT_CHECKPOINTS, checkpoint_bytes, flat_params, vjp_row
from rfpnapo.errors import NumericError, ParseError, ShapeError
from rfpnapo.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    FORWARD_TILE,
    FunctionLoss,
    MlpSpec,
    adam_step,
    finite_diff_check,
    forward_batch_cached,
    forward_single_cached,
    mlp_forward,
    mlp_init,
    optim_init,
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


LAYOUT_SPECS = [
    MlpSpec(data_dim=2, cond_dim=3, hidden=(8, 6)),
    MlpSpec(data_dim=1, cond_dim=1, hidden=()),
    MlpSpec(data_dim=3, cond_dim=2, hidden=(5, 4, 7)),
]


@pytest.mark.parametrize("spec", LAYOUT_SPECS)
def test_unpack_views_tile_the_vector_in_layout_order(spec):
    # every weight matrix row-major in layer order, then every bias: each view
    # is the next run of the vector, and together they cover it once
    params = np.arange(spec.param_count(), dtype=np.float64)
    weights, biases = unpack_params(params, spec)
    shapes = spec.layer_shapes()
    runs = [(w, (r, c)) for w, (r, c) in zip(weights, shapes)]
    runs += [(b, (r,)) for b, (r, _) in zip(biases, shapes)]
    off = 0
    for view, shape in runs:
        assert view.shape == shape and np.shares_memory(view, params)
        assert np.array_equal(view.ravel(), np.arange(off, off + view.size))
        off += view.size
    assert off == params.size


@pytest.mark.parametrize("spec", LAYOUT_SPECS)
def test_mlp_init_is_one_uniform_draw_per_layer(spec):
    rng = np.random.default_rng(5)
    weights = [rng.uniform(-math.sqrt(6.0 / (r + c)), math.sqrt(6.0 / (r + c)), size=(r, c))
               for r, c in spec.layer_shapes()]
    biases = [np.zeros(r) for r, _ in spec.layer_shapes()]
    assert mlp_init(spec, 5).tobytes() == flat_params(weights, biases).tobytes()


def test_forward_shapes_and_batch_consistency(small_spec, small_params):
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        x = rng.standard_normal((n, 2))
        c = np.eye(3)[rng.integers(3, size=n)]
        t = rng.random(n)
        ys, _ = forward_batch_cached(small_params, small_spec, np.hstack([x, c, t[:, None]]))
        for i in range(n):
            yi = mlp_forward(small_params, small_spec, x[i : i + 1], float(t[i]), c[i : i + 1])
            assert yi.shape == (1, 2)
            # batched path uses different BLAS calls; agreement is numeric, not bitwise
            assert np.allclose(yi[0], ys[i], rtol=1e-12, atol=1e-14)
    # a single row is a batch of one; an unbatched row is refused
    with pytest.raises(ShapeError):
        mlp_forward(small_params, small_spec, x[0], 0.5, c[0])


def _forward_gemv(params, spec, row):
    """One row through the network as single-row `w @ h` products (BLAS gemv)."""
    weights, biases = unpack_params(params, spec)
    h = row
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(w @ h + b)
    return weights[-1] @ h + biases[-1]


def _forward_tiles_out_of_place(params, spec, inp):
    """The tiled forward as fresh-array expressions: the reference for forward_tiles' buffers."""
    weights, biases = unpack_params(params, spec)
    rows = inp.shape[0]
    h = np.zeros((-(-rows // FORWARD_TILE) * FORWARD_TILE, spec.input_dim))
    h[:rows] = inp
    h = h.reshape(-1, FORWARD_TILE, spec.input_dim)
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(np.matmul(h, w.T) + b)
    return (np.matmul(h, weights[-1].T) + biases[-1]).reshape(-1, spec.output_dim)[:rows]


def _forward_batch_out_of_place(params, spec, inp):
    """One GEMM per layer over the whole batch, as fresh-array expressions: the pretraining reference."""
    weights, biases = unpack_params(params, spec)
    cache = [inp]
    for w, b in zip(weights[:-1], biases[:-1]):
        cache.append(np.tanh(cache[-1] @ w.T + b))
    return cache[-1] @ weights[-1].T + biases[-1], cache


@pytest.mark.kernel_invariance
@settings(max_examples=40, deadline=None)
@given(
    data_dim=st.integers(1, 4),
    cond_dim=st.integers(1, 3),
    hidden=st.lists(st.integers(1, 700), max_size=2),
    rows=st.integers(0, 6 * FORWARD_TILE),
    seed=st.integers(0, 2**32 - 1),
)
# a shape whose last rows change bits in 64-row tiles
@example(data_dim=1, cond_dim=1, hidden=[3, 276], rows=61, seed=0)
def test_forward_rows_are_batch_invariant(data_dim, cond_dim, hidden, rows, seed):
    # each row of a batch carries the bits of the same row run alone, so its
    # output depends neither on the batch height nor on its position nor on
    # its neighbours' values; this is a property of the installed BLAS at
    # FORWARD_TILE-row tiles, which is why it is tested on wide layers
    spec = MlpSpec(data_dim=data_dim, cond_dim=cond_dim, hidden=tuple(hidden))
    rng = np.random.default_rng(seed)
    params = mlp_init(spec, seed) + 0.1 * rng.standard_normal(spec.param_count())
    inp = rng.standard_normal((rows, spec.input_dim))
    y, cache = forward_single_cached(params, spec, inp)
    assert y.shape == (rows, data_dim)
    assert y.tobytes() == _forward_tiles_out_of_place(params, spec, inp).tobytes()
    assert [h.shape for h in cache] == [(rows, w) for w in (spec.input_dim, *spec.hidden)]
    for r in range(rows):
        y_alone, cache_alone = forward_single_cached(params, spec, inp[r : r + 1])
        assert y_alone[0].tobytes() == y[r].tobytes()
        for h, h_alone in zip(cache, cache_alone):
            assert h_alone[0].tobytes() == h[r].tobytes()
    # against the per-row gemv arithmetic: the same sums in another order, so
    # they agree to rounding; 1e-12 of the largest output is ample at fan-in 700
    if rows:
        gemv = np.array([_forward_gemv(params, spec, row) for row in inp])
        assert np.max(np.abs(y - gemv)) <= 1e-12 * max(1.0, np.max(np.abs(gemv)))


@pytest.mark.kernel_invariance
@settings(max_examples=40, deadline=None)
@given(
    data_dim=st.integers(1, 4),
    cond_dim=st.integers(1, 3),
    hidden=st.lists(st.integers(1, 700), max_size=2),
    rows=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_pretrain_forward_is_one_gemm_per_layer(data_dim, cond_dim, hidden, rows, seed):
    # forward_batch_cached runs the batch as one tile of forward_tiles; its
    # output and cache keep the bits of the whole-batch expressions, so every
    # pretrained checkpoint keeps its bytes
    spec = MlpSpec(data_dim=data_dim, cond_dim=cond_dim, hidden=tuple(hidden))
    rng = np.random.default_rng(seed)
    params = mlp_init(spec, seed) + 0.1 * rng.standard_normal(spec.param_count())
    inp = rng.standard_normal((rows, spec.input_dim))
    y, cache = forward_batch_cached(params, spec, inp)
    y_ref, cache_ref = _forward_batch_out_of_place(params, spec, inp)
    assert y.shape == y_ref.shape == (rows, data_dim)
    assert y.tobytes() == y_ref.tobytes()
    assert [h.shape for h in cache] == [h.shape for h in cache_ref]
    for h, h_ref in zip(cache, cache_ref):
        assert h.tobytes() == h_ref.tobytes()


def test_quadratic_loss_gradient_is_exact():
    # value 0.5*||p||^2 has gradient p; the wrapper and the check must agree
    loss = FunctionLoss(lambda p: (0.5 * float(p @ p), p.copy()))
    p = np.linspace(-1.0, 1.0, 11)
    v, g = loss.value_and_grad(p)
    assert v == 0.5 * float(p @ p)
    assert np.array_equal(g, p)
    assert finite_diff_check(loss, p) < 1e-8
    # per-row losses are summed, and results after the gradient are ignored,
    # which is the shape of the (losses, grad, margins) kernels
    rows = FunctionLoss(lambda p: (0.5 * p * p, p.copy(), -p))
    v_rows, g_rows = rows.value_and_grad(p)
    assert v_rows == float(np.sum(0.5 * p * p)) == rows.value(p)
    assert np.array_equal(g_rows, p)
    assert finite_diff_check(rows, p) < 1e-8


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
    # the gradient check refuses a non-finite analytic value or gradient
    # before it takes a single difference
    loss = FunctionLoss(lambda p: (float("nan"), np.zeros_like(p)))
    with pytest.raises(NumericError, match="non-finite loss value nan"):
        finite_diff_check(loss, np.ones(3))
    grad = FunctionLoss(lambda p: (0.0, np.full_like(p, np.inf)))
    with pytest.raises(NumericError, match="non-finite entries in loss gradient"):
        finite_diff_check(grad, np.ones(3))


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
    assert adam_step(state, params, np.zeros(4)) is None
    assert np.array_equal(params, [1.0, -2.0, 3.0, 0.5])
    assert state.step_count == 1


def test_adam_first_step_magnitude_near_lr():
    # bias correction makes the first update ~lr * sign(grad)
    state = optim_init(3, lr=0.05)
    params = np.zeros(3)
    grad = np.array([1.0, -2.0, 0.5])
    adam_step(state, params, grad)
    assert np.allclose(np.abs(params), 0.05, rtol=1e-6)
    assert np.all(np.sign(params) == -np.sign(grad))


def test_adam_converges_on_quadratic():
    state = optim_init(3, lr=0.1)
    params = np.array([2.0, -1.5, 0.7])
    for _ in range(400):
        adam_step(state, params, params.copy())  # grad of 0.5||p||^2
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
    # the update writes the state's moments and count and the parameters in
    # place, with the bits of the expression; the gradient is never written
    rng = np.random.default_rng(seed)
    state = optim_init(size, lr=lr)
    moments = (state.first_moment, state.second_moment)
    params = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 3, size)
    params[rng.random(size) < 0.1] = -0.0
    for step in range(1, steps + 1):
        grad = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 3, size)
        grad[rng.random(size) < 0.1] = 0.0
        grad_bytes = grad.tobytes()
        m_ref, v_ref, p_ref = _adam_step_reference(copy.deepcopy(state), params.copy(), grad.copy())
        assert adam_step(state, params, grad) is None
        assert grad.tobytes() == grad_bytes
        assert state.first_moment.tobytes() == m_ref.tobytes()
        assert state.second_moment.tobytes() == v_ref.tobytes()
        assert params.tobytes() == p_ref.tobytes()
        assert state.step_count == step
        assert state.first_moment is moments[0] and state.second_moment is moments[1]


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    warm_steps=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_rejects_mismatched_sizes_before_any_write(sizes, warm_steps, seed):
    # a state, parameter vector or gradient of another size raises ShapeError
    # naming the sizes, and leaves every array and the step count as they were
    state_size, param_size, grad_size = sizes
    assume(not state_size == param_size == grad_size)
    rng = np.random.default_rng(seed)
    state = optim_init(state_size, lr=0.1)
    for _ in range(warm_steps):
        adam_step(state, rng.standard_normal(state_size), rng.standard_normal(state_size))
    params, grad = rng.standard_normal(param_size), rng.standard_normal(grad_size)
    arrays = (state.first_moment, state.second_moment, state.scratch, params, grad)
    before = [a.tobytes() for a in arrays]
    with pytest.raises(ShapeError, match=rf"\b{param_size}\b"):
        adam_step(state, params, grad)
    assert [a.tobytes() for a in arrays] == before
    assert state.step_count == warm_steps


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
    # a fresh array, not a read-only view of the file's bytes
    assert params2.flags.owndata and params2.flags.writeable
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
    path = tmp_path / "model.ckpt"
    write_checkpoint(str(path), small_params, small_spec)
    blob = bytearray(path.read_bytes())
    param3 = 12 + 8 * len(small_spec.layer_shapes()) + 8 * 3  # after the layer shape table
    blob[param3:param3 + 8] = np.float64(bad).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="non-finite"):
        read_checkpoint(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_checkpoint_rejects_non_finite_parameters_and_writes_nothing(
    tmp_path, small_spec, small_params, bad
):
    params = small_params.copy()
    params[3] = bad
    fresh = tmp_path / "fresh.ckpt"
    with pytest.raises(ShapeError, match="parameter 3 is non-finite"):
        write_checkpoint(str(fresh), params, small_spec)
    assert not fresh.exists()
    existing = tmp_path / "existing.ckpt"
    write_checkpoint(str(existing), small_params, small_spec)
    before = existing.read_bytes()
    with pytest.raises(ShapeError):
        write_checkpoint(str(existing), params, small_spec)
    assert existing.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.ckpt"]


@pytest.mark.parametrize("shapes, dims", INCONSISTENT_CHECKPOINTS)
def test_checkpoint_rejects_inconsistent_dims(tmp_path, shapes, dims):
    path = tmp_path / "dims.ckpt"
    path.write_bytes(checkpoint_bytes(shapes, dims))
    with pytest.raises(ShapeError):
        read_checkpoint(str(path))


def test_spec_validation():
    with pytest.raises(ShapeError):
        MlpSpec(data_dim=0, cond_dim=2, hidden=(4,))
    with pytest.raises(ShapeError):
        MlpSpec(data_dim=2, cond_dim=0, hidden=(4,))
    with pytest.raises(ShapeError):
        MlpSpec(data_dim=2, cond_dim=2, hidden=(0,))
    # no hidden layers is legal: a purely linear field
    linear = MlpSpec(data_dim=2, cond_dim=2, hidden=())
    assert linear.layer_shapes() == [(2, 5)]
