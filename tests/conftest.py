from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from rfpnapo.numerics import MlpSpec, mlp_init, pack_params, unpack_params
from rfpnapo.prefdata import DatasetHeader, PreferenceDataset
from rfpnapo.rectflow import default_mixture, one_hot
from rfpnapo.training import run_pretrain

FIXTURES = Path(__file__).parent / "fixtures"


def make_pairs(
    rng: np.random.Generator, spec: MlpSpec, n: int = 1, delta_r=0.5
) -> PreferenceDataset:
    """n random pairs; per pair the draws are condition, x0w, x0l, xTw, xTl."""
    d = spec.data_dim
    cond, fields = [], []
    for _ in range(n):
        cond.append(one_hot(int(rng.integers(spec.cond_dim)), spec.cond_dim))
        fields.append(rng.standard_normal((4, d)))
    cond = np.array(cond).reshape(n, spec.cond_dim)
    fields = np.array(fields).reshape(n, 4, d)
    header = DatasetHeader(dim=d, cond_dim=spec.cond_dim, steps=1, ref_hash="test")
    return PreferenceDataset(
        header, cond, fields[:, 0], fields[:, 1], fields[:, 2], fields[:, 3],
        np.broadcast_to(np.asarray(delta_r, dtype=np.float64), (n,)).copy(),
    )


def vjp_row(params, spec: MlpSpec, cache: list[np.ndarray], dy: np.ndarray) -> np.ndarray:
    """One row's parameter gradient of <dy, output>: outer products and matrix-vector products.

    cache[i] is the row's input to layer i; the reference the batch backward is checked against.
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
    return pack_params(d_weights, d_biases)


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
    mixture = default_mixture(2, 4)
    ref, _ = run_pretrain(spec, mixture, steps=200, batch=32, lr=3e-3, seed=19)
    later, _ = run_pretrain(spec, mixture, steps=320, batch=32, lr=3e-3, seed=19)
    return ref, later, spec
