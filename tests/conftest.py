from __future__ import annotations

import ctypes
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from rfpnapo.corpus import Corpus
from rfpnapo.numerics import MlpSpec, mlp_init, unpack_params
from rfpnapo.prefdata import DatasetHeader, PreferenceDataset
from rfpnapo.rectflow import default_mixture
from rfpnapo.training import run_pretrain

FIXTURES = Path(__file__).parent / "fixtures"


def _unknown_if_absent(read):
    """read()'s value, or "unknown" where this numpy build or its BLAS does not expose it."""
    try:
        value = read()
    except (AttributeError, KeyError, OSError, TypeError, ValueError):
        return "unknown"
    return value.decode() if isinstance(value, bytes) else value


def _openblas_call(symbol: str, restype):
    """Call a no-argument function of the scipy-openblas library that numpy's wheel bundles."""
    (path,) = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
    function = getattr(ctypes.CDLL(str(path)), symbol)
    function.restype = restype
    return function()


def fingerprint() -> dict[str, object]:
    """The facts outside the source that an artifact's bits depend on.

    These are the numpy version, its BLAS and the CPU paths both take: the
    OpenBLAS core (`OPENBLAS_CORETYPE` picks another), the BLAS thread count
    (`OPENBLAS_NUM_THREADS`) and the SIMD extensions numpy dispatches to.
    """
    config = _unknown_if_absent(lambda: np.show_config(mode="dicts"))
    return {
        "numpy": np.__version__,
        "blas": _unknown_if_absent(lambda: "{name} {version}".format(**config["Build Dependencies"]["blas"])),
        "openblas_core": _unknown_if_absent(lambda: _openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)),
        "blas_threads": _unknown_if_absent(lambda: _openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int)),
        "simd": _unknown_if_absent(lambda: config["SIMD Extensions"]["found"]),
    }


def make_pairs(
    rng: np.random.Generator, spec: MlpSpec, n: int = 1, delta_r=0.5
) -> PreferenceDataset:
    """n random pairs; per pair the draws are the condition, then x0 and xT as one (2, 2, d) block."""
    d = spec.data_dim
    ks = np.empty(n, dtype=np.int64)
    blocks = []
    for i in range(n):
        ks[i] = rng.integers(spec.cond_dim)
        blocks.append(rng.standard_normal((2, 2, d)))
    cond = np.eye(spec.cond_dim)[ks]
    blocks = np.array(blocks).reshape(n, 2, 2, d)
    header = DatasetHeader(dim=d, cond_dim=spec.cond_dim, steps=1, ref_hash="test")
    return PreferenceDataset(
        header, cond, blocks[:, 0], blocks[:, 1],
        np.broadcast_to(np.asarray(delta_r, dtype=np.float64), (n,)).copy(),
    )


def vjp_row(params, spec: MlpSpec, cache: list[np.ndarray], dy: np.ndarray) -> np.ndarray:
    """One row's parameter gradient of <dy, output>: outer products and matrix-vector products.

    cache[i] is the row's input to layer i; the reference the batch backward is checked against.
    The flat gradient is concatenated here in the documented layout (flat_params), not
    written through the package's views.
    """
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
    return flat_params(d_weights, d_biases)


def flat_params(weights: list[np.ndarray], biases: list[np.ndarray]) -> np.ndarray:
    """The documented parameter layout: every weight matrix row-major in layer order, then every bias."""
    return np.concatenate([w.ravel() for w in weights] + list(biases), dtype=np.float64)


def checkpoint_bytes(shapes: list[tuple[int, int]], dims: tuple[int, int, int]) -> bytes:
    """A checkpoint file's bytes, built by hand from a layer table and a trailer.

    The table `shapes` is followed by as many finite values as it needs, then
    by the trailer `dims` = (input_dim, cond_dim, output_dim).
    """
    n_values = sum(r * c + r for r, c in shapes)
    return b"".join([
        b"RFPK", struct.pack("<II", 1, len(shapes)),
        *(struct.pack("<II", r, c) for r, c in shapes),
        np.linspace(-1.0, 1.0, n_values).astype("<f8").tobytes(),
        struct.pack("<III", *dims),
    ])


# checkpoints that pass every parse check, as their value counts match their
# tables, but whose tables and trailers describe no one MlpSpec
INCONSISTENT_CHECKPOINTS = [
    pytest.param([(8, 6), (6, 8), (2, 6)], (6, 4, 2), id="bumped_cond_dim"),
    pytest.param([(8, 6), (5, 7), (2, 5)], (6, 3, 2), id="broken_chain"),
    pytest.param([(8, 6), (2, 8)], (6, 2, 3), id="wrong_output_dim"),
    pytest.param([(8, 6), (2, 8)], (5, 3, 2), id="wrong_declared_input_dim"),
    pytest.param([(8, 7), (2, 8)], (7, 3, 2), id="input_dim_not_data_cond_time"),
    pytest.param([(8, 3), (2, 8)], (3, 0, 2), id="zero_cond_dim"),
]


@st.composite
def pair_batches(draw, max_pairs: int = 6):
    """(spec, rng, pairs): a random small spec and 1..max_pairs random pairs.

    Specs include hidden=() and dims of 1; reward gaps lie in [0, 3).
    """
    spec = MlpSpec(
        data_dim=draw(st.integers(1, 3)),
        cond_dim=draw(st.integers(1, 3)),
        hidden=tuple(draw(st.lists(st.integers(1, 6), max_size=2))),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_pairs))
    return spec, rng, make_pairs(rng, spec, n, delta_r=rng.random(n) * 3.0)


def _writable(text: str) -> bool:
    return "\t" not in text and len(f"x{text}x".splitlines()) == 1


@st.composite
def corpora(draw, max_n: int = 6, max_d: int = 4) -> Corpus:
    """A random writable corpus: n >= 0, d >= 0, any non-surrogate text, finite floats."""
    n = draw(st.integers(0, max_n))
    d = draw(st.integers(0, max_d))
    texts = st.text().filter(_writable)
    floats = st.floats(allow_nan=False, allow_infinity=False)
    return Corpus(
        draw(st.lists(texts.filter(bool), min_size=n, max_size=n)),
        draw(st.lists(texts, min_size=n, max_size=n)),
        draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
        np.array(draw(st.lists(st.lists(floats, min_size=d, max_size=d), min_size=n, max_size=n)),
                 dtype=np.float64).reshape(n, d),
    )


@pytest.fixture(scope="session")
def small_spec() -> MlpSpec:
    return MlpSpec(data_dim=2, cond_dim=3, hidden=(8, 6))


@pytest.fixture(scope="session")
def small_params(small_spec) -> np.ndarray:
    return mlp_init(small_spec, 7)


@pytest.fixture(scope="session")
def trained_pair():
    """(ref, later, spec): two distinct snapshots of one short training run."""
    spec = MlpSpec(data_dim=2, cond_dim=4, hidden=(16, 16))
    mixture = default_mixture(2, 4, 0.4)
    ref, _ = run_pretrain(spec, mixture, steps=200, batch=32, lr=3e-3, seed=19)
    later, _ = run_pretrain(spec, mixture, steps=320, batch=32, lr=3e-3, seed=19)
    return ref, later, spec
