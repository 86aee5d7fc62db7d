from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_pairs, pair_batches
from rfpnapo.errors import ConfigurationError, DataError, ParseError, ShapeError
from rfpnapo.numerics import MlpSpec, mlp_init
from rfpnapo.prefdata import (
    DatasetHeader,
    PreferenceDataset,
    RewardSpec,
    audit_dataset,
    build_dataset,
    label_pairs,
    read_dataset,
    reward_eval,
    write_dataset,
)
from rfpnapo.rectflow import SamplerConfig, euler_sample, one_hot


def _reward(rspec: RewardSpec, x, k: int) -> float:
    """The reward of one sample under condition k, as a batch of one row."""
    cond = one_hot(k, rspec.params.shape[0])[None]
    return float(reward_eval(rspec, np.asarray(x, dtype=np.float64)[None], cond)[0])


def test_reward_mode_distance():
    rspec = RewardSpec(kind="mode_distance", params=np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert _reward(rspec, [1.0, 0.0], 0) == 0.0
    assert _reward(rspec, [4.0, 4.0], 0) == -5.0
    assert _reward(rspec, [0.0, 0.0], 1) == -2.0


def test_reward_quadratic_bowl():
    rspec = RewardSpec(kind="quadratic_bowl", params=np.array([[1.0, 1.0]]))
    # r = -||x - target||^2
    assert _reward(rspec, [2.0, 0.0], 0) == -2.0


def test_reward_direction_dot():
    rspec = RewardSpec(kind="direction_dot", params=np.array([[0.0, 1.0]]))
    assert _reward(rspec, [3.0, 2.5], 0) == 2.5


def _reward_row(rspec: RewardSpec, x: np.ndarray, cond: np.ndarray) -> float:
    """One row's reward by the single-row formulas the batch must reproduce."""
    k = int(np.argmax(cond))
    if rspec.kind == "mode_distance":
        return float(-np.linalg.norm(x - rspec.params[k]))
    if rspec.kind == "quadratic_bowl":
        delta = x - rspec.params[k]
        return float(-(delta @ delta))
    return float(np.dot(rspec.params[k], x))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["mode_distance", "quadratic_bowl", "direction_dot"]),
    n=st.integers(0, 30),
    d=st.sampled_from([1, 2, 3, 5, 16, 33, 240]),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_reward_is_bitwise_the_per_row_formula(kind, n, d, k, seed):
    rng = np.random.default_rng(seed)
    rspec = RewardSpec(kind=kind, params=rng.standard_normal((k, d)))
    x = rng.standard_normal((n, d)) * 3.0
    cond = np.eye(k)[rng.integers(k, size=n)]
    batch = reward_eval(rspec, x, cond)
    reference = np.array([_reward_row(rspec, x[i], cond[i]) for i in range(n)])
    assert batch.shape == (n,)
    assert batch.tobytes() == reference.tobytes()


def test_reward_eval_rejects_mismatched_shapes():
    rspec = RewardSpec(kind="mode_distance", params=np.zeros((2, 3)))
    for x, cond in (
        (np.zeros(3), one_hot(0, 2)),  # one unbatched row
        (np.zeros((4, 2)), np.eye(2)[[0, 1, 0, 1]]),  # wrong sample width
        (np.zeros((4, 3)), np.eye(3)[[0, 1, 0, 1]]),  # wrong condition count
        (np.zeros((4, 3)), np.eye(2)[[0, 1, 0]]),  # rows disagree
    ):
        with pytest.raises(ShapeError):
            reward_eval(rspec, x, cond)


def test_reward_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        RewardSpec(kind="mystery", params=np.zeros((1, 2)))


def test_label_pair_tie_prefers_first_and_gap_nonnegative():
    rng = np.random.default_rng(3)
    rspec = RewardSpec(kind="direction_dot", params=np.array([[1.0, 0.0]]))
    header = DatasetHeader(dim=2, cond_dim=1, steps=1, ref_hash="h")
    xa, xta = np.array([2.0, 0.0]), np.array([0.5, 0.5])
    xb, xtb = np.array([1.0, 0.0]), np.array([-0.5, 0.5])
    # pair 0: a wins; pair 1: b listed first, a still wins; pair 2: exact tie
    x0 = np.array([[xa, xb], [xb, xa], [xa, xa.copy()]])
    xT = np.array([[xta, xtb], [xtb, xta], [xta, xta.copy()]])
    ds = label_pairs(rspec, header, np.ones((3, 1)), x0, xT)
    assert np.array_equal(ds.x0w[0], xa) and np.array_equal(ds.xTw[0], xta)
    assert np.array_equal(ds.x0l[0], xb) and np.array_equal(ds.xTl[0], xtb)
    assert ds.delta_r[0] == 1.0
    assert np.array_equal(ds.x0w[1], xa) and np.array_equal(ds.xTw[1], xta)
    # exact tie -> first entry wins, gap zero
    assert ds.delta_r[2] == 0.0
    assert np.array_equal(ds.x0w[2], xa)
    x0 = rng.standard_normal((20, 2, 2))
    ds = label_pairs(rspec, header, np.ones((20, 1)), x0, rng.standard_normal((20, 2, 2)))
    assert np.all(ds.delta_r >= 0.0)


def test_record_validation():
    header = DatasetHeader(dim=3, cond_dim=2, steps=1, ref_hash="h")
    ok = dict(
        header=header,
        cond=np.eye(2)[[0]],
        x0w=np.zeros((1, 3)),
        x0l=np.zeros((1, 3)),
        xTw=np.zeros((1, 3)),
        xTl=np.zeros((1, 3)),
        delta_r=[0.1],
    )
    PreferenceDataset(**ok)
    with pytest.raises(ShapeError):
        PreferenceDataset(**{**ok, "x0l": np.zeros((1, 2))})
    with pytest.raises(ShapeError):
        PreferenceDataset(**{**ok, "cond": np.eye(3)[[0]]})
    with pytest.raises(ShapeError):
        PreferenceDataset(**{**ok, "delta_r": [0.1, 0.2]})
    with pytest.raises(DataError):
        PreferenceDataset(**{**ok, "delta_r": [-0.5]})
    with pytest.raises(DataError):
        PreferenceDataset(**{**ok, "delta_r": [float("nan")]})


def _tiny_setup():
    spec = MlpSpec(data_dim=2, cond_dim=3, hidden=(8,))
    ref = mlp_init(spec, 44)
    rspec = RewardSpec(
        kind="mode_distance", params=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    )
    return spec, ref, rspec


def _record_bytes(ds):
    return [
        b"".join(getattr(ds, f)[i].tobytes() for f in ("cond", "x0w", "x0l", "xTw", "xTl", "delta_r"))
        for i in range(len(ds))
    ]


def test_generate_pair_deterministic():
    spec, ref, rspec = _tiny_setup()
    cfg = SamplerConfig(steps=6)
    a = build_dataset(ref, spec, rspec, cfg, n_records=5, base_seed=77, ref_hash="h")
    b = build_dataset(ref, spec, rspec, cfg, n_records=5, base_seed=77, ref_hash="h")
    assert _record_bytes(a) == _record_bytes(b)
    # record i depends on seed base_seed + i only: a shifted range shares records
    shifted = build_dataset(ref, spec, rspec, cfg, n_records=5, base_seed=78, ref_hash="h")
    assert _record_bytes(shifted)[:4] == _record_bytes(a)[1:]
    assert _record_bytes(shifted)[4] not in _record_bytes(a)


def test_build_dataset_stores_drawn_noises_bitwise():
    # documented per-record RNG order: condition, noise A, noise B; each stored
    # noise is the draw itself and each stored sample is that noise sampled alone
    spec, ref, rspec = _tiny_setup()
    cfg = SamplerConfig(steps=7)
    ds = build_dataset(ref, spec, rspec, cfg, n_records=6, base_seed=33, ref_hash="h")
    for i in range(len(ds)):
        rng = np.random.default_rng(33 + i)
        cond = one_hot(int(rng.integers(spec.cond_dim)), spec.cond_dim)
        draws = [rng.standard_normal(spec.data_dim) for _ in range(2)]
        assert ds.cond[i].tobytes() == cond.tobytes()
        assert sorted([ds.xTw[i].tobytes(), ds.xTl[i].tobytes()]) == sorted(d.tobytes() for d in draws)
        for x0, xT in ((ds.x0w[i], ds.xTw[i]), (ds.x0l[i], ds.xTl[i])):
            alone = euler_sample(ref, spec, xT[None, :], cond[None, :], cfg)[0]
            assert x0.tobytes() == alone.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    data_dim=st.integers(1, 3),
    cond_dim=st.integers(1, 3),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    steps=st.integers(1, 6),
    n=st.integers(0, 12),
    init_seed=st.integers(0, 2**32 - 1),
    base_seed=st.integers(0, 2**32 - 1),
)
@example(data_dim=2, cond_dim=3, hidden=[8], steps=5, n=12, init_seed=44, base_seed=900)
def test_build_dataset_and_exact_replay(
    tmp_path_factory, data_dim, cond_dim, hidden, steps, n, init_seed, base_seed
):
    spec = MlpSpec(data_dim=data_dim, cond_dim=cond_dim, hidden=tuple(hidden))
    ref = mlp_init(spec, init_seed)
    modes = np.random.default_rng(init_seed).standard_normal((cond_dim, data_dim))
    rspec = RewardSpec(kind="mode_distance", params=modes)
    ds = build_dataset(ref, spec, rspec, SamplerConfig(steps=steps), n, base_seed, ref_hash="h")
    assert len(ds) == n
    assert ds.header.dim == data_dim and ds.header.cond_dim == cond_dim and ds.header.steps == steps
    # stored samples replay bit-exactly from the stored noise, before and
    # after a round trip through the pair file
    assert audit_dataset(ds, ref, spec) == 0.0
    path = str(tmp_path_factory.mktemp("replay") / "pairs.txt")
    write_dataset(path, ds)
    assert audit_dataset(read_dataset(path), ref, spec) == 0.0


@pytest.mark.parametrize("field", ["x0w", "x0l", "xTw", "xTl"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_audit_flags_non_finite_values(field, bad):
    spec, ref, rspec = _tiny_setup()
    ds = build_dataset(ref, spec, rspec, SamplerConfig(steps=4), n_records=5, base_seed=60, ref_hash="h")
    assert audit_dataset(ds, ref, spec) == 0.0
    getattr(ds, field)[3, 1] = bad
    assert audit_dataset(ds, ref, spec) == math.inf


def test_build_dataset_rejects_mismatched_reward_params():
    spec, ref, _ = _tiny_setup()
    bad = RewardSpec(kind="mode_distance", params=np.zeros((2, 2)))  # needs 3 rows
    with pytest.raises(ShapeError):
        build_dataset(ref, spec, bad, SamplerConfig(steps=3), 2, 0, "h")


@settings(max_examples=40, deadline=None)
@given(case=pair_batches(max_pairs=10))
def test_dataset_file_round_trip_value_exact(tmp_path_factory, case):
    # write -> read gives every array back bit for bit, signed zeros and
    # subnormals included
    spec, rng, ds = case
    ds.x0w[0, 0] = -0.0
    ds.x0l[0, -1] = 5e-324
    ds.xTw[-1, 0] = -1.7976931348623157e308
    path = str(tmp_path_factory.mktemp("pairs") / "pairs.txt")
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.header == ds.header
    for field in ("cond", "x0w", "x0l", "xTw", "xTl", "delta_r"):
        assert getattr(back, field).tobytes() == getattr(ds, field).tobytes(), field


def test_dataset_write_is_byte_stable(tmp_path):
    spec, ref, rspec = _tiny_setup()
    ds = build_dataset(ref, spec, rspec, SamplerConfig(steps=3), 4, 12, "00ff")
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    write_dataset(p1, ds)
    write_dataset(p2, ds)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("field", ["cond", "x0w", "x0l", "xTw", "xTl"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_dataset_rejects_non_finite_values_and_writes_nothing(tmp_path, field, bad):
    ds = make_pairs(np.random.default_rng(5), MlpSpec(data_dim=2, cond_dim=2, hidden=(3,)), 3)
    getattr(ds, field)[1, 0] = bad
    path = tmp_path / "pairs.txt"
    with pytest.raises(DataError, match=f"pair 1 has a non-finite {field} value"):
        write_dataset(str(path), ds)
    assert not path.exists()


@pytest.mark.parametrize("cond", [[0.5, 0.5], [1.0, 1.0], [0.0, 0.0], [2.0, 0.0], [1.0, -0.5]])
def test_write_dataset_rejects_a_condition_that_is_not_one_hot(tmp_path, cond):
    # the conditions read_dataset rejects as not one-hot
    ds = make_pairs(np.random.default_rng(6), MlpSpec(data_dim=2, cond_dim=2, hidden=(3,)), 3)
    ds.cond[2] = cond
    path = tmp_path / "pairs.txt"
    with pytest.raises(DataError, match="pair 2 has a condition that is not one-hot"):
        write_dataset(str(path), ds)
    assert not path.exists()


def test_read_dataset_error_positions(tmp_path):
    path = tmp_path / "pairs.txt"
    good_header = "rfpnapo-pairs v1 dim=2 cdim=2 steps=3 refhash=aa"
    rec = "1 0 | 0.5 0.5 | 0.25 0.25 | 1 1 | 1 -1 | 0.125"

    path.write_text("wrong header line\n")
    with pytest.raises(ParseError, match="line 1"):
        read_dataset(str(path))

    path.write_text(f"{good_header}\n{rec}\nonly | three | fields\n")
    with pytest.raises(ParseError, match="line 3"):
        read_dataset(str(path))

    # wrong vector width
    path.write_text(f"{good_header}\n1 0 | 0.5 | 0.25 0.25 | 1 1 | 1 -1 | 0.125\n")
    with pytest.raises(ParseError, match="line 2"):
        read_dataset(str(path))

    # negative reward gap is invalid at parse time too
    path.write_text(f"{good_header}\n1 0 | 0.5 0.5 | 0.25 0.25 | 1 1 | 1 -1 | -0.5\n")
    with pytest.raises(ParseError, match="line 2"):
        read_dataset(str(path))

    # non-finite numbers in any field
    for bad_rec in (
        "1 0 | nan 0.5 | 0.25 0.25 | 1 1 | 1 -1 | 0.125",
        "1 0 | 0.5 0.5 | 0.25 0.25 | 1 inf | 1 -1 | 0.125",
        "1 0 | 0.5 0.5 | 0.25 0.25 | 1 1 | 1 -1 | inf",
        "nan 0 | 0.5 0.5 | 0.25 0.25 | 1 1 | 1 -1 | 0.125",
    ):
        path.write_text(f"{good_header}\n{rec}\n{bad_rec}\n")
        with pytest.raises(ParseError, match="line 3: non-finite"):
            read_dataset(str(path))

    # a condition that is not one-hot
    for bad_cond in ("0.5 0.5", "1 1", "0 0", "2 0", "1 -0.5"):
        path.write_text(f"{good_header}\n{bad_cond} | 0.5 0.5 | 0.25 0.25 | 1 1 | 1 -1 | 0.125\n")
        with pytest.raises(ParseError, match="line 2: .*not one-hot"):
            read_dataset(str(path))

    # non-numeric field
    path.write_text(f"{good_header}\n1 0 | 0.5 oops | 0.25 0.25 | 1 1 | 1 -1 | 0.125\n")
    with pytest.raises(ParseError, match="line 2"):
        read_dataset(str(path))


def test_read_dataset_empty_is_header_only(tmp_path):
    spec, ref, rspec = _tiny_setup()
    ds = build_dataset(ref, spec, rspec, SamplerConfig(steps=3), 0, 5, "beef")
    path = str(tmp_path / "empty.txt")
    write_dataset(path, ds)
    lines = open(path).read().splitlines()
    assert len(lines) == 1 and lines[0].startswith("rfpnapo-pairs v1 ")
    back = read_dataset(path)
    assert len(back) == 0 and back.header == ds.header


def test_delta_r_reflects_reward_ordering():
    spec, ref, rspec = _tiny_setup()
    ds = build_dataset(ref, spec, rspec, SamplerConfig(steps=5), 30, 7, "h")
    rw = reward_eval(rspec, ds.x0w, ds.cond)
    rl = reward_eval(rspec, ds.x0l, ds.cond)
    assert np.all(rw >= rl)
    np.testing.assert_allclose(ds.delta_r, rw - rl, rtol=0.0, atol=1e-15)
