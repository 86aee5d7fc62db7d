"""Float64 MLP numerics: parameters, forward/backward passes, Adam, checkpoints.

The model is a plain tanh MLP with a linear output layer. It predicts a
velocity field v(x, t, c); the time scalar t enters as one extra raw input
feature appended after the state x and the condition vector c.

A parameter vector is a flat 1-D float64 array laid out as all weight
matrices in layer order (row-major, shape (fan_out, fan_in)) followed by all
bias vectors in layer order. MlpSpec sets that layer table once and
unpack_params slices by it. Everything here is a function of explicit
arrays; adam_step writes its arguments, and a kernel given a Workspace as
`out` writes that.

One loop, forward_tiles, runs the layers, one GEMM per tile into buffers
whose shape sets the tile height. In FORWARD_TILE-row tiles each row's bits
do not depend on its batch; a stored noise must replay to its stored sample.
forward_single_cached runs it so for alignment and scoring, and the Euler
sampler for all of its steps. forward_batch_cached runs it with the whole
batch as one tile, for pretraining, whose rows are never replayed. A
Workspace holds one vector's layer views and the buffers of its passes on a
fixed row count. The sampler sets one up per call and each trainer per run,
so a step unpacks no layout and allocates no layer output or gradient.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError, ParseError, ShapeError
from .fileio import require_file, write_bytes

CHECKPOINT_MAGIC = b"RFPK"
CHECKPOINT_VERSION = 1

# A "ParamVector" is just a flat float64 ndarray with the layout above.
ParamVector = np.ndarray


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of the velocity network.

    Attributes:
        data_dim: dimension of the state x (also the output dimension).
        cond_dim: dimension of the one-hot condition vector c.
        hidden: sizes of the tanh hidden layers (may be empty -> linear model).
    """

    data_dim: int
    cond_dim: int
    hidden: tuple[int, ...]

    def __post_init__(self):
        if self.data_dim < 1 or self.cond_dim < 1:
            raise ShapeError(f"dims must be >= 1, got {self.data_dim}, {self.cond_dim}")
        if any(h < 1 for h in self.hidden):
            raise ShapeError(f"hidden sizes must be >= 1: {self.hidden}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        # the layer table: shapes, then each weight's and each bias's flat slice;
        # not fields, so equality, hash and repr stay those of the three fields
        widths = [self.input_dim, *self.hidden, self.output_dim]
        shapes = [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]
        ends = np.cumsum([r * c for r, c in shapes] + [r for r, _ in shapes]).tolist()
        starts = [0, *ends[:-1]]
        object.__setattr__(self, "_shapes", shapes)
        object.__setattr__(self, "_slices", list(zip(starts, ends)))

    @property
    def input_dim(self) -> int:
        return self.data_dim + self.cond_dim + 1  # +1 time feature

    @property
    def output_dim(self) -> int:
        return self.data_dim

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) for each weight matrix, input to output order."""
        return list(self._shapes)

    def param_count(self) -> int:
        return self._slices[-1][1]


def unpack_params(params: ParamVector, spec: MlpSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views of a flat parameter vector: the one statement of the layout."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.size != spec.param_count():
        raise ShapeError(
            f"parameter vector has size {params.size}, spec needs {spec.param_count()}"
        )
    n = len(spec._shapes)
    weights = [params[a:b].reshape(shape) for (a, b), shape in zip(spec._slices, spec._shapes)]
    return weights, [params[a:b] for a, b in spec._slices[n:]]


class Workspace:
    """A parameter vector's layer views and its passes' buffers on a fixed row count, set up once per run.

    Kernels take it as `out`, write into its buffers and return views of them,
    valid until their next call; adam_step updates the vector in place, so the
    views stay current. Tiled, the input is zero-padded to whole FORWARD_TILE
    tiles, and `share`, a tiled workspace on as many rows, lends its input; an
    input that already is these rows is not copied.
    """

    def __init__(self, params: ParamVector, spec: MlpSpec, rows: int, tiled: bool, share=None):
        self.params, self.spec = params, spec
        self.weights, self.biases = unpack_params(params, spec)
        tiles, height = (-(-rows // FORWARD_TILE), FORWARD_TILE) if tiled else (1, rows)
        self.padded = np.zeros((tiles * height, spec.input_dim)) if share is None else share.padded
        self.inp = self.padded[:rows] if share is None else share.inp
        self.outs = [np.empty((tiles, height, w.shape[0])) for w in self.weights]
        self.y = self.outs[-1].reshape(-1, spec.output_dim)[:rows]
        self.cache = [self.inp] + [z.reshape(-1, z.shape[2])[:rows] for z in self.outs[:-1]]

    @cached_property
    def grad_buffer(self) -> tuple[ParamVector, list[np.ndarray], list[np.ndarray]]:
        """The gradient vector and its (weights, biases) views, set up by the first backward pass."""
        grad = np.empty(self.spec.param_count())
        return (grad, *unpack_params(grad, self.spec))

    def serving(self, params: ParamVector, rows: int) -> Workspace:
        """This workspace, once checked to be set up for params on `rows` rows."""
        if params is not self.params or rows != self.inp.shape[0]:
            n = self.inp.shape[0]
            raise ShapeError(f"workspace set up for another parameter vector or for {n} rows, not {rows}")
        return self


def mlp_init(spec: MlpSpec, seed: int) -> ParamVector:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), one draw per layer; zero biases."""
    rng = np.random.default_rng(seed)
    params = np.zeros(spec.param_count())
    for w in unpack_params(params, spec)[0]:
        bound = math.sqrt(6.0 / sum(w.shape))
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return params


def mlp_forward(params: ParamVector, spec: MlpSpec, x: np.ndarray, t: float, c: np.ndarray) -> np.ndarray:
    """Evaluate the velocity network on a batch of rows at one time.

    Args:
        x: states, shape (B, data_dim).
        t: time, one scalar shared by every row.
        c: conditions, shape (B, cond_dim).

    Returns:
        the velocities, shape (B, data_dim). One row is x[i : i + 1], with the
        same bits as row i of any batch (see forward_single_cached).
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.data_dim:
        raise ShapeError(f"state has shape {x.shape}, expected (B, {spec.data_dim})")
    if c.shape != (x.shape[0], spec.cond_dim):
        raise ShapeError(f"condition has shape {c.shape}, expected ({x.shape[0]}, {spec.cond_dim})")
    if not math.isfinite(t):
        raise NumericError(f"non-finite time value {t!r}")
    inp = np.concatenate([x, c, np.full((x.shape[0], 1), float(t))], axis=1)
    return forward_single_cached(params, spec, inp)[0]


FORWARD_TILE = 24


def forward_single_cached(
    params: ParamVector, spec: MlpSpec, inp: np.ndarray, out: Workspace | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass on rows of pre-assembled inputs in fixed-height GEMM tiles.

    Args:
        inp: shape (R, input_dim), R >= 0; each row the concatenation (x, c, t).

    Returns:
        (output (R, output_dim), cache) where cache[i] is the (R, width) input
        to layer i (post-tanh for i > 0). The cache feeds vjp_batch. Both are
        views of `out`, a tiled Workspace for params on R rows, or of fresh
        buffers.

    The name is that of the per-row kernel this replaced; perfbench/tracing.py
    times the function under it.

    Batch invariance: the rows are zero-padded to a multiple of FORWARD_TILE
    and each layer is one `np.matmul` on (tiles, FORWARD_TILE, width), which
    runs one GEMM of the same shape and strides per tile. A row's output is
    then bit-identical whatever batch, position or neighbours it has, which is
    what lets a stored noise replay exactly; a batch of any other height does
    not give this, since BLAS picks its blocking from the matrix shape.

    Why 24: OpenBLAS 0.3.31 (DYNAMIC_ARCH, on an AVX-512 Xeon) runs a T-row
    GEMM with a 12-row micro-kernel, and a row at a position at or past
    12 * (T // 12) can carry other bits than the same row elsewhere. Over
    1370 (fan_in, fan_out) layer shapes, heights 4, 8, 12, 24, 48 and 96 kept
    every row's bits with one BLAS thread; with two threads 48 failed 248
    shapes while 4 to 24 passed them all. Heights 16, 32, 64 and 128 failed
    about 37% of the shapes, mostly those with fan_out above about 215 (one
    is MlpSpec(1, 1, (3, 276)), row 60 of 61). 24 is the tallest tested
    height that held at both thread counts. Invariance is thus a property of
    the installed BLAS, not of numpy; the property tests in test_numerics and
    test_rectflow check it on layers up to 700 and 300 wide.
    """
    return _forward_cached(params, spec, inp, True, out)


def forward_batch_cached(
    params: ParamVector, spec: MlpSpec, inputs: np.ndarray, out: Workspace | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """forward_single_cached as one tile of all B rows, unpadded, for pretraining.

    A row's bits then depend on B, which pretraining's rows, never replayed,
    allow; perfbench/tracing.py times pretraining's forward under this name.
    `out` is an untiled Workspace, as in forward_single_cached.
    """
    return _forward_cached(params, spec, inputs, False, out)


def _forward_cached(
    params: ParamVector, spec: MlpSpec, inp: np.ndarray, tiled: bool, out: Workspace | None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The cached forward in FORWARD_TILE-row tiles when `tiled`, else as one tile of every row."""
    if inp.ndim != 2 or inp.shape[1] != spec.input_dim:
        raise ShapeError(f"input has shape {inp.shape}, expected (R, {spec.input_dim})")
    rows = inp.shape[0]
    ws = Workspace(params, spec, rows, tiled) if out is None else out.serving(params, rows)
    if inp is not ws.inp:
        ws.inp[...] = inp
    forward_tiles(ws.weights, ws.biases, ws.padded, ws.outs)
    return ws.y, ws.cache


def forward_tiles(
    weights: list[np.ndarray], biases: list[np.ndarray], padded: np.ndarray, outs: list[np.ndarray]
) -> np.ndarray:
    """The layers on a (tiles * height, input_dim) input, each written into its output buffer.

    outs[i], of shape (tiles, height, fan_out), becomes layer i's output,
    post-tanh for every layer but the last, which is returned; its first two
    axes set the tiling. Each layer is a matmul into z, then `z += b` and an
    in-place tanh: the bits of `tanh(h @ w.T + b)` with no temporary allocated.
    """
    h = padded.reshape(*outs[0].shape[:2], padded.shape[1])
    for w, b, z in zip(weights[:-1], biases[:-1], outs):
        np.matmul(h, w.T, out=z)
        z += b
        np.tanh(z, out=z)
        h = z
    y = outs[-1]
    np.matmul(h, weights[-1].T, out=y)
    y += biases[-1]
    return y


def vjp_batch(
    params: ParamVector, spec: MlpSpec, cache: list[np.ndarray], dy: np.ndarray, out: Workspace | None = None
) -> ParamVector:
    """Parameter gradient of sum_r <dy[r], output[r]> over the rows of a cached forward.

    Args:
        cache: from forward_batch_cached or forward_single_cached on R rows.
        dy: (R, output_dim) cotangent of each row's output.
        out: a Workspace for params on R rows, whose gradient buffer is
            then the result.

    Each layer takes one GEMM for its weight gradient and one for the gradient
    of its input, so the rows' contributions add in the GEMM's order.
    """
    dz = np.asarray(dy, dtype=np.float64)
    if dz.shape != (cache[0].shape[0], spec.output_dim):
        raise ShapeError(f"cotangent has shape {dz.shape}, expected "
                         f"({cache[0].shape[0]}, {spec.output_dim}) for the cached rows")
    ws = Workspace(params, spec, 0, False) if out is None else out.serving(params, dz.shape[0])
    grad, d_weights, d_biases = ws.grad_buffer
    n_layers = len(ws.weights)
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            dz = dh * (1.0 - cache[i + 1] ** 2)  # tanh'(z) = 1 - tanh(z)^2
        np.matmul(dz.T, cache[i], out=d_weights[i])
        # the method, not np.sum, whose dispatch costs a toy step microseconds per layer
        dz.sum(axis=0, out=d_biases[i])
        if i > 0:
            dh = dz @ ws.weights[i]
    return grad


def vjp_single(
    params: ParamVector, spec: MlpSpec, cache: list[np.ndarray], dy: np.ndarray, out: Workspace | None = None
) -> ParamVector:
    """vjp_batch under the name align's backward is traced by.

    perfbench/tracing.py times this name and BENCHMARK.json lists
    numerics.vjp_single.{calls,busy_s}; once the benchmark drops that metric,
    callers use vjp_batch and this name goes.
    """
    return vjp_batch(params, spec, cache, dy, out)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row <a[i], b[i]> of two (R, d) arrays.

    Each row is the same BLAS dot product as `a[i] @ b[i]`, bit for bit;
    `np.sum(a * b, axis=1)` and einsum add in another order.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def scale_by_peak(x: np.ndarray, axis: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """x scaled by the power of two that brings its largest magnitude into [0.5, 1), and its exponent.

    One exponent per slice along `axis` (one for the whole array when None),
    returned with that axis dropped. Away from subnormals the scaling is exact
    and ldexp by the exponent undoes it, and no sum of scaled squares overflows.
    """
    exp = np.frexp(np.max(np.abs(x), axis=axis, initial=0.0, keepdims=True))[1]
    return np.ldexp(x, -exp), np.squeeze(exp, axis=axis)


def sigmoid(z):
    """Numerically stable logistic function, elementwise; a scalar gives a numpy scalar."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))[()]


def softplus(z):
    """Numerically stable log(1 + exp(z)), elementwise; linear for large positive z.

    softplus(0) is np.log1p(1.0), which equals math.log(2.0) bit for bit.
    """
    z = np.asarray(z, dtype=np.float64)
    return (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))[()]


class FunctionLoss:
    """Wrap an analytic value-and-gradient function as a differentiable loss.

    The function returns (loss, gradient, ...): the loss is a scalar or an
    array of per-row losses, which the wrapper sums, and the gradient is that
    of the sum; any further results are ignored. So a kernel such as
    pnapo_value_grad is an objective as it stands.
    """

    def __init__(self, value_and_grad: Callable[[ParamVector], tuple]):
        self._vag = value_and_grad

    def value(self, params: ParamVector) -> float:
        return float(np.asarray(self._vag(params)[0]).sum())

    def value_and_grad(self, params: ParamVector) -> tuple[float, ParamVector]:
        v, g = self._vag(params)[:2]
        # ndarray.sum, not np.sum, whose dispatch costs pretrain microseconds a step
        return float(np.asarray(v).sum()), np.asarray(g, dtype=np.float64)


def finite_diff_check(loss: FunctionLoss, params: ParamVector, h: float = 1e-5) -> float:
    """Compare the analytic gradient against central finite differences.

    Returns:
        max over coordinates of |analytic - numeric|, divided by the largest
        |numeric| (at least 1e-12). A non-finite analytic value or gradient
        raises NumericError.

    The error is scaled by the gradient's size, not by each coordinate's own:
    a central difference carries rounding noise of about eps * |loss| / h, so
    a coordinate whose true derivative lies below that has no measurable
    relative error, and a per-coordinate denominator failed correct gradients
    there (analytic 1.7e-10 against numeric 0.0 at loss 43).
    """
    params = np.asarray(params, dtype=np.float64)
    value, analytic = loss.value_and_grad(params)
    if not math.isfinite(value):
        raise NumericError(f"non-finite loss value {value!r}")
    if not np.all(np.isfinite(analytic)):
        raise NumericError("non-finite entries in loss gradient")
    numeric = np.empty(params.size)
    work = params.copy()
    for i in range(params.size):
        orig = work[i]
        work[i] = orig + h
        up = loss.value(work)
        work[i] = orig - h
        down = loss.value(work)
        work[i] = orig
        numeric[i] = (up - down) / (2.0 * h)
    scale = max(1e-12, float(np.max(np.abs(numeric), initial=0.0)))
    return float(np.max(np.abs(analytic - numeric), initial=0.0)) / scale


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """Adam state: learning rate, moments, a (2, n) scratch block, step counter."""

    lr: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    scratch: np.ndarray
    step_count: int = 0


def optim_init(n_params: int, lr: float) -> OptimState:
    """Zero moments at step 0; the one check of a trainer's learning rate."""
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigurationError(f"learning rate must be a finite number > 0, got {lr}")
    return OptimState(lr, np.zeros(n_params), np.zeros(n_params), np.empty((2, n_params)))


def adam_step(state: OptimState, params: ParamVector, grad: ParamVector) -> None:
    """One Adam update with bias-corrected moments, in place.

    Evaluates, operation by operation and so bit for bit,
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * (grad * grad)
        update = lr * (m_hat / (sqrt(v_hat) + eps))
    with m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t) and the ADAM_*
    constants, in the state's scratch rows. It writes the moments, the step
    count and params, never grad; mis-shaped arrays raise ShapeError first.
    """
    if grad.shape != params.shape:
        raise ShapeError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    m, v = state.first_moment, state.second_moment
    if m.shape != params.shape or v.shape != params.shape:
        raise ShapeError(f"Adam moments of size {m.size} and {v.size} for {params.size} parameters")
    t = state.step_count + 1
    a, b = state.scratch
    np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
    m *= ADAM_BETA1
    m += a
    np.multiply(grad, grad, out=a)
    a *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += a
    np.divide(m, 1.0 - ADAM_BETA1**t, out=a)  # m_hat
    np.divide(v, 1.0 - ADAM_BETA2**t, out=b)  # v_hat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    a *= state.lr
    params -= a
    state.step_count = t


# --- checkpoint format -------------------------------------------------------
#
# magic "RFPK" | version u32 | layer_count u32 | per layer: rows u32, cols u32
# | all weights row-major float64 | all biases float64
# | input_dim u32 | cond_dim u32 | output_dim u32        (all little-endian)


def write_checkpoint(path: str, params: ParamVector, spec: MlpSpec) -> None:
    """Write a checkpoint; a parameter read_checkpoint would reject raises ShapeError before any write."""
    weights, _ = unpack_params(params, spec)
    finite = np.isfinite(params)
    if not finite.all():
        raise ShapeError(f"parameter {int(np.argmin(finite))} is non-finite; not representable")
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(weights))]
    for w in weights:
        parts.append(struct.pack("<II", w.shape[0], w.shape[1]))
    parts.append(np.ascontiguousarray(params, dtype="<f8").tobytes())  # the flat layout is the file's
    parts.append(struct.pack("<III", spec.input_dim, spec.cond_dim, spec.output_dim))
    write_bytes(path, parts)


def read_checkpoint(path: str) -> tuple[ParamVector, MlpSpec]:
    """Load a checkpoint, validating structure. Returns (params, spec)."""
    require_file(path, "checkpoint")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise ParseError("not a model checkpoint (bad magic)")
    version, n_layers = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}")
    if n_layers < 1:
        raise ParseError(f"implausible layer count {n_layers}")
    off = 12
    if len(blob) < off + 8 * n_layers:
        raise ParseError("truncated checkpoint (layer shape table)")
    shapes = []
    for _ in range(n_layers):
        r, c = struct.unpack_from("<II", blob, off)
        off += 8
        if r < 1 or c < 1:
            raise ParseError(f"bad layer shape ({r}, {c})")
        shapes.append((r, c))
    n_values = sum(r * c + r for r, c in shapes)
    expected = off + 8 * n_values + 12
    if len(blob) != expected:
        raise ParseError(f"checkpoint size {len(blob)} != expected {expected}")
    values = np.frombuffer(blob, dtype="<f8", count=n_values, offset=off)
    if not np.all(np.isfinite(values)):
        raise ParseError("checkpoint parameters contain non-finite values")
    off += 8 * n_values
    input_dim, cond_dim, output_dim = struct.unpack_from("<III", blob, off)
    spec = MlpSpec(data_dim=output_dim, cond_dim=cond_dim, hidden=tuple(r for r, _ in shapes[:-1]))
    if spec.layer_shapes() != shapes or spec.input_dim != input_dim:
        raise ShapeError(f"checkpoint layer shapes {shapes} and input width {input_dim} "
                         f"are not those of {spec}")
    return values.astype(np.float64), spec
