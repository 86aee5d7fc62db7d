"""Float64 MLP numerics: parameters, forward/backward passes, Adam, checkpoints.

The model is a plain tanh MLP with a linear output layer. It predicts a
velocity field v(x, t, c); the time scalar t enters as one extra raw input
feature appended after the state x and the condition vector c.

A parameter vector is a flat 1-D float64 array laid out as all weight
matrices in layer order (row-major, shape (fan_out, fan_in)) followed by all
bias vectors in layer order. Everything here is a pure function of explicit
arrays; nothing hides state.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NumericError, ParseError, ShapeError
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
    hidden: tuple[int, ...] = (32, 32)

    def __post_init__(self):
        if self.data_dim < 1 or self.cond_dim < 1:
            raise ShapeError(f"dims must be >= 1, got {self.data_dim}, {self.cond_dim}")
        if any(h < 1 for h in self.hidden):
            raise ShapeError(f"hidden sizes must be >= 1: {self.hidden}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def input_dim(self) -> int:
        return self.data_dim + self.cond_dim + 1  # +1 time feature

    @property
    def output_dim(self) -> int:
        return self.data_dim

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) for each weight matrix, input to output order."""
        widths = [self.input_dim, *self.hidden, self.output_dim]
        return [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]

    def param_count(self) -> int:
        return sum(r * c + r for r, c in self.layer_shapes())


def unpack_params(params: ParamVector, spec: MlpSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a flat parameter vector into per-layer (weights, biases) views."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.size != spec.param_count():
        raise ShapeError(
            f"parameter vector has size {params.size}, spec needs {spec.param_count()}"
        )
    shapes = spec.layer_shapes()
    weights, biases = [], []
    off = 0
    for r, c in shapes:
        weights.append(params[off : off + r * c].reshape(r, c))
        off += r * c
    for r, _ in shapes:
        biases.append(params[off : off + r])
        off += r
    return weights, biases


def pack_params(weights: list[np.ndarray], biases: list[np.ndarray]) -> ParamVector:
    return np.concatenate([w.ravel() for w in weights] + list(biases), dtype=np.float64)


def mlp_init(spec: MlpSpec, seed: int) -> ParamVector:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for r, c in spec.layer_shapes():
        bound = math.sqrt(6.0 / (r + c))
        weights.append(rng.uniform(-bound, bound, size=(r, c)))
        biases.append(np.zeros(r))
    return pack_params(weights, biases)


def mlp_forward(params: ParamVector, spec: MlpSpec, x: np.ndarray, t: float, c: np.ndarray) -> np.ndarray:
    """Evaluate the velocity network on one input or on a batch of rows.

    Args:
        x: state, shape (data_dim,) or (B, data_dim).
        t: time, one scalar shared by every row.
        c: condition, shape (cond_dim,) or (B, cond_dim), matching x.

    Returns:
        shape (data_dim,) for a single input, (B, data_dim) for a batch.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.data_dim:
        raise ShapeError(f"state has shape {x.shape}, expected (B, {spec.data_dim}) or ({spec.data_dim},)")
    if c.shape != x.shape[:-1] + (spec.cond_dim,):
        raise ShapeError(f"condition has shape {c.shape}, expected {x.shape[:-1] + (spec.cond_dim,)}")
    if not math.isfinite(t):
        raise NumericError(f"non-finite time value {t!r}")
    inp = np.concatenate([x, c, np.full(x.shape[:-1] + (1,), float(t))], axis=-1)
    y, _ = forward_single_cached(params, spec, inp.reshape(-1, spec.input_dim))
    return y.reshape(x.shape)


def forward_single_cached(
    params: ParamVector, spec: MlpSpec, inp: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass on rows of pre-assembled inputs, one matrix-vector product per row.

    Args:
        inp: shape (R, input_dim), C-contiguous; each row the concatenation (x, c, t).

    Returns:
        (output (R, output_dim), cache) where cache[i] is the (R, width) input
        to layer i (post-tanh for i > 0). The cache feeds vjp_batch.

    Batch invariance: activations are kept as columns, shape (R, width, 1), so
    each layer is `np.matmul(w, h)`, which numpy runs as one matrix-vector
    product per row with the shape and strides of a single-row `w @ h`. A
    row's output is therefore bit-identical whatever batch it sits in, which
    is what lets a stored noise replay exactly.
    """
    weights, biases = unpack_params(params, spec)
    if inp.ndim != 2 or inp.shape[1] != spec.input_dim:
        raise ShapeError(f"input has shape {inp.shape}, expected (R, {spec.input_dim})")
    cache = [inp]
    h = inp[:, :, None]
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(np.matmul(w, h) + b[:, None])
        cache.append(h[:, :, 0])
    y = (np.matmul(weights[-1], h) + biases[-1][:, None])[:, :, 0]
    return y, cache


def forward_batch_cached(
    params: ParamVector, spec: MlpSpec, inputs: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass on a (B, input_dim) matrix of pre-assembled rows."""
    weights, biases = unpack_params(params, spec)
    if inputs.ndim != 2 or inputs.shape[1] != spec.input_dim:
        raise ShapeError(f"batch input has shape {inputs.shape}, expected (B, {spec.input_dim})")
    cache = [inputs]
    h = inputs
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ w.T + b)
        cache.append(h)
    y = h @ weights[-1].T + biases[-1]
    return y, cache


def vjp_batch(
    params: ParamVector, spec: MlpSpec, cache: list[np.ndarray], dy: np.ndarray
) -> ParamVector:
    """Parameter gradient of sum_r <dy[r], output[r]> over the rows of a cached forward.

    Args:
        cache: from forward_batch_cached or forward_single_cached on R rows.
        dy: (R, output_dim) cotangent of each row's output.

    Each layer takes one GEMM for its weight gradient and one for the gradient
    of its input, so the rows' contributions add in the GEMM's order.
    """
    weights, _ = unpack_params(params, spec)
    dz = np.asarray(dy, dtype=np.float64)
    if dz.shape != (cache[0].shape[0], spec.output_dim):
        raise ShapeError(f"cotangent has shape {dz.shape}, expected "
                         f"({cache[0].shape[0]}, {spec.output_dim}) for the cached rows")
    n_layers = len(weights)
    d_weights: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    d_biases: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            dz = dh * (1.0 - cache[i + 1] ** 2)  # tanh'(z) = 1 - tanh(z)^2
        d_weights[i] = dz.T @ cache[i]
        d_biases[i] = dz.sum(axis=0)
        if i > 0:
            dh = dz @ weights[i]
    return pack_params(d_weights, d_biases)


def vjp_single(
    params: ParamVector, spec: MlpSpec, cache: list[np.ndarray], dy: np.ndarray
) -> ParamVector:
    """vjp_batch under the name align's backward is traced by.

    perfbench/tracing.py times this name and BENCHMARK.json lists
    numerics.vjp_single.{calls,busy_s}; once the benchmark drops that metric,
    callers use vjp_batch and this name goes.
    """
    return vjp_batch(params, spec, cache, dy)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row <a[i], b[i]> of two (R, d) arrays.

    Each row is the same BLAS dot product as `a[i] @ b[i]`, bit for bit;
    `np.sum(a * b, axis=1)` and einsum add in another order.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def sigmoid(z: float) -> float:
    """Numerically stable logistic function for scalars."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def softplus(z: float) -> float:
    """Numerically stable log(1 + exp(z)); linear for large positive z."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


class FunctionLoss:
    """Wrap an analytic value-and-gradient function as a differentiable loss."""

    def __init__(self, value_and_grad: Callable[[ParamVector], tuple[float, ParamVector]]):
        self._vag = value_and_grad

    def value(self, params: ParamVector) -> float:
        return float(self._vag(params)[0])

    def value_and_grad(self, params: ParamVector) -> tuple[float, ParamVector]:
        v, g = self._vag(params)
        return float(v), np.asarray(g, dtype=np.float64)


def loss_value_and_grad(loss: FunctionLoss, params: ParamVector) -> tuple[float, ParamVector]:
    """Evaluate a loss and its reverse-mode gradient, rejecting non-finite output."""
    value, grad = loss.value_and_grad(params)
    if not math.isfinite(value):
        raise NumericError(f"non-finite loss value {value!r}")
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite entries in loss gradient")
    return value, grad


def finite_diff_check(loss: FunctionLoss, params: ParamVector, h: float = 1e-5) -> float:
    """Compare the analytic gradient against central finite differences.

    Returns:
        max over coordinates of |analytic - numeric|, divided by the largest
        |numeric| (at least 1e-12).

    The error is scaled by the gradient's size, not by each coordinate's own:
    a central difference carries rounding noise of about eps * |loss| / h, so
    a coordinate whose true derivative lies below that has no measurable
    relative error, and a per-coordinate denominator failed correct gradients
    there (analytic 1.7e-10 against numeric 0.0 at loss 43).
    """
    params = np.asarray(params, dtype=np.float64)
    _, analytic = loss_value_and_grad(loss, params)
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


@dataclass(frozen=True)
class OptimState:
    """Adam state: learning rate, moments, step counter."""

    lr: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def optim_init(n_params: int, lr: float) -> OptimState:
    if lr <= 0:
        raise ShapeError(f"learning rate must be positive, got {lr}")
    return OptimState(lr=lr, first_moment=np.zeros(n_params), second_moment=np.zeros(n_params))


def adam_step(
    state: OptimState, params: ParamVector, grad: ParamVector
) -> tuple[OptimState, ParamVector]:
    """One Adam update with bias-corrected moments.

    Evaluates, operation by operation and so bit for bit,
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * (grad * grad)
        update = lr * (m_hat / (sqrt(v_hat) + eps))
    with m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t) and the ADAM_*
    constants, writing the intermediates into two scratch arrays. The new
    moments and parameters are fresh arrays; no input array is written.
    """
    if grad.shape != params.shape:
        raise ShapeError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    t = state.step_count + 1
    a = np.multiply(grad, 1.0 - ADAM_BETA1)
    m = np.multiply(state.first_moment, ADAM_BETA1)
    m += a
    np.multiply(grad, grad, out=a)
    a *= 1.0 - ADAM_BETA2
    v = np.multiply(state.second_moment, ADAM_BETA2)
    v += a
    np.divide(m, 1.0 - ADAM_BETA1**t, out=a)  # m_hat
    b = np.divide(v, 1.0 - ADAM_BETA2**t)  # v_hat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    a *= state.lr
    new_state = replace(state, first_moment=m, second_moment=v, step_count=t)
    return new_state, np.subtract(params, a)


# --- checkpoint format -------------------------------------------------------
#
# magic "RFPK" | version u32 | layer_count u32 | per layer: rows u32, cols u32
# | all weights row-major float64 | all biases float64
# | input_dim u32 | cond_dim u32 | output_dim u32        (all little-endian)


def write_checkpoint(path: str, params: ParamVector, spec: MlpSpec) -> None:
    weights, biases = unpack_params(params, spec)
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(weights))]
    for w in weights:
        parts.append(struct.pack("<II", w.shape[0], w.shape[1]))
    for w in weights:
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
    for b in biases:
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    parts.append(struct.pack("<III", spec.input_dim, spec.cond_dim, spec.output_dim))
    write_bytes(path, b"".join(parts))


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
    if n_layers < 1 or n_layers > 1024:
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
    n_weights = sum(r * c for r, c in shapes)
    n_biases = sum(r for r, _ in shapes)
    expected = off + 8 * (n_weights + n_biases) + 12
    if len(blob) != expected:
        raise ParseError(f"checkpoint size {len(blob)} != expected {expected}")
    values = np.frombuffer(blob, dtype="<f8", count=n_weights + n_biases, offset=off)
    if not np.all(np.isfinite(values)):
        raise ParseError("checkpoint parameters contain non-finite values")
    off += 8 * (n_weights + n_biases)
    input_dim, cond_dim, output_dim = struct.unpack_from("<III", blob, off)
    # structural consistency: shapes must chain and match the declared dims
    if shapes[0][1] != input_dim or shapes[-1][0] != output_dim:
        raise ShapeError("checkpoint layer shapes do not match declared dims")
    for (r_prev, _), (_, c_next) in zip(shapes[:-1], shapes[1:]):
        if r_prev != c_next:
            raise ShapeError("checkpoint layer shapes do not chain")
    if input_dim != output_dim + cond_dim + 1:
        raise ShapeError(
            f"declared dims inconsistent: input {input_dim} != data {output_dim} + cond {cond_dim} + 1"
        )
    spec = MlpSpec(data_dim=output_dim, cond_dim=cond_dim, hidden=tuple(r for r, _ in shapes[:-1]))
    return values.astype(np.float64).copy(), spec
