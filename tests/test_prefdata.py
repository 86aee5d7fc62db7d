from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_pairs, pair_batches
from rfpnapo.errors import NumericError, ParseError, ShapeError
from rfpnapo.numerics import MlpSpec, mlp_init
from rfpnapo.prefdata import (
    DatasetHeader,
    PreferenceDataset,
    audit_dataset,
    build_dataset,
    label_pairs,
    read_dataset,
    reward_eval,
    write_dataset,
)
from rfpnapo.rectflow import euler_sample


def _reward(centers, x, k: int) -> float:
    """The reward of one sample under condition k, as a batch of one row."""
    cond = np.eye(len(centers))[[k]]
    return float(reward_eval(centers, np.asarray(x, dtype=np.float64)[None], cond)[0])


def test_reward_mode_distance():
    centers = [[1.0, 0.0], [0.0, 2.0]]
    assert _reward(centers, [1.0, 0.0], 0) == 0.0
    assert _reward(centers, [4.0, 4.0], 0) == -5.0
    assert _reward(centers, [0.0, 0.0], 1) == -2.0


def test_reward_of_a_huge_sample_is_its_norm_or_a_numeric_error():
    # the squared norm of (1e200, 1e200) is past float range, its norm is not
    cond = np.ones((2, 1))
    x = np.array([[3.0, 4.0], [1e200, 1e200]])
    rewards = reward_eval(np.zeros((1, 2)), x, cond)
    assert rewards[0] == -5.0
    assert rewards[1] == pytest.approx(-math.sqrt(2.0) * 1e200, rel=1e-15)
    # an offset past float range: 1e308 from a centre at -1e308
    x[1] = [1e308, 0.0]
    with pytest.raises(NumericError, match="^reward of sample row 1 is -inf, not a finite number$"):
        reward_eval(np.array([[-1e308, 0.0]]), x, cond)


def _reward_row(centers: np.ndarray, x: np.ndarray, cond: np.ndarray) -> float:
    """One row's reward by the single-row formula the batch must reproduce."""
    return float(-np.linalg.norm(x - centers[int(np.argmax(cond))]))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 30),
    d=st.sampled_from([1, 2, 3, 5, 16, 33, 240]),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_reward_is_bitwise_the_per_row_formula(n, d, k, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, d))
    x = rng.standard_normal((n, d)) * 3.0
    cond = np.eye(k)[rng.integers(k, size=n)]
    batch = reward_eval(centers, x, cond)
    reference = np.array([_reward_row(centers, x[i], cond[i]) for i in range(n)])
    assert batch.shape == (n,)
    assert batch.tobytes() == reference.tobytes()


def test_reward_eval_rejects_mismatched_shapes():
    centers = np.zeros((2, 3))
    for x, cond in (
        (np.zeros(3), np.eye(2)[0]),  # one unbatched row
        (np.zeros((4, 2)), np.eye(2)[[0, 1, 0, 1]]),  # wrong sample width
        (np.zeros((4, 3)), np.eye(3)[[0, 1, 0, 1]]),  # wrong condition count
        (np.zeros((4, 3)), np.eye(2)[[0, 1, 0]]),  # rows disagree
    ):
        with pytest.raises(ShapeError):
            reward_eval(centers, x, cond)
    for bad in (np.zeros(3), np.zeros((1, 2, 3))):  # centres not one row per condition
        with pytest.raises(ShapeError, match="reward centres have shape"):
            reward_eval(bad, np.zeros((1, 3)), np.eye(1))


def test_label_pair_tie_prefers_first_and_gap_nonnegative():
    rng = np.random.default_rng(3)
    centers = np.array([[3.0, 0.0]])
    header = DatasetHeader(dim=2, cond_dim=1, steps=1, ref_hash="h")
    xa, xta = np.array([2.0, 0.0]), np.array([0.5, 0.5])
    xb, xtb = np.array([1.0, 0.0]), np.array([-0.5, 0.5])
    # pair 0: a wins; pair 1: b listed first, a still wins; pair 2: exact tie
    x0 = np.array([[xa, xb], [xb, xa], [xa, xa.copy()]])
    xT = np.array([[xta, xtb], [xtb, xta], [xta, xta.copy()]])
    ds = label_pairs(centers, header, np.ones((3, 1)), x0, xT)
    # axis 1 is winner then loser, the samples and their noises moving together
    assert np.array_equal(ds.x0[0], [xa, xb]) and np.array_equal(ds.xT[0], [xta, xtb])
    assert ds.delta_r[0] == 1.0
    assert np.array_equal(ds.x0[1], [xa, xb]) and np.array_equal(ds.xT[1], [xta, xtb])
    assert ds.delta_r[1] == 1.0
    # exact tie -> first entry wins, gap zero
    assert ds.delta_r[2] == 0.0
    assert np.array_equal(ds.x0[2, 0], xa)
    x0 = rng.standard_normal((20, 2, 2))
    ds = label_pairs(centers, header, np.ones((20, 1)), x0, rng.standard_normal((20, 2, 2)))
    assert np.all(ds.delta_r >= 0.0)


def test_label_pair_tie_between_distinct_candidates_keeps_candidate_a():
    # two different samples at the same distance from the centre, from
    # different noises: a tie must leave candidate A the winner, bit for bit
    centers = np.array([[3.0, 0.0]])
    header = DatasetHeader(dim=2, cond_dim=1, steps=1, ref_hash="h")
    x0 = np.array([[[3.0, 1.0], [3.0, -1.0]]])
    xT = np.array([[[0.25, -0.75], [-1.5, 0.5]]])
    cond = np.ones((1, 1))
    assert _reward(centers, x0[0, 0], 0) == _reward(centers, x0[0, 1], 0) == -1.0
    ds = label_pairs(centers, header, cond, x0, xT)
    assert ds.x0.tobytes() == x0.tobytes() and ds.xT.tobytes() == xT.tobytes()
    assert ds.delta_r[0] == 0.0


_HUGE = st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    centers=st.lists(st.tuples(_HUGE, _HUGE), min_size=1, max_size=3),
    samples=st.lists(st.tuples(_HUGE, _HUGE, _HUGE, _HUGE), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(centers=[(-1e308, 0.0)], samples=[(1e308, 0.0, 0.0, 0.0)], seed=0)
@example(centers=[(0.0, 0.0)], samples=[(1e308, 0.0, 0.0, 0.0), (-1e308, 0.0, 1e308, 0.0)], seed=0)
def test_label_pairs_gap_is_finite_or_the_reward_fails(centers, samples, seed):
    # both rewards are finite and at most 0, so no gap can overflow: labelling
    # fails only through reward_eval's NumericError
    centers = np.array(centers)
    x0 = np.array(samples).reshape(-1, 2, 2)
    cond = np.eye(len(centers))[np.random.default_rng(seed).integers(len(centers), size=len(x0))]
    header = DatasetHeader(dim=2, cond_dim=len(centers), steps=1, ref_hash="h")
    try:
        ds = label_pairs(centers, header, cond, x0, np.zeros_like(x0))
    except NumericError as exc:
        assert str(exc).startswith("reward of sample row ")
        return
    assert np.all(np.isfinite(ds.delta_r)) and np.all(ds.delta_r >= 0.0)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_dataset_names_its_first_bad_gap(bad):
    header = DatasetHeader(dim=1, cond_dim=1, steps=1, ref_hash="h")
    with pytest.raises(ShapeError, match=f"pair 1 has preference gap {bad}, not a finite number >= 0"):
        PreferenceDataset(header, np.ones((3, 1)), np.zeros((3, 2, 1)), np.zeros((3, 2, 1)),
                          np.array([0.5, bad, -2.0]))


def test_record_validation():
    header = DatasetHeader(dim=3, cond_dim=2, steps=1, ref_hash="h")
    ok = dict(
        header=header,
        cond=np.eye(2)[[0]],
        x0=np.zeros((1, 2, 3)),
        xT=np.zeros((1, 2, 3)),
        delta_r=[0.1],
    )
    PreferenceDataset(**ok)
    for bad in (np.zeros((1, 2, 2)), np.zeros((1, 3)), np.zeros((1, 3, 3)), np.zeros((2, 2, 3))):
        for field in ("x0", "xT"):
            with pytest.raises(ShapeError, match=f"{field} has shape"):
                PreferenceDataset(**{**ok, field: bad})
    with pytest.raises(ShapeError):
        PreferenceDataset(**{**ok, "cond": np.eye(3)[[0]]})
    with pytest.raises(ShapeError):
        PreferenceDataset(**{**ok, "delta_r": [0.1, 0.2]})
    with pytest.raises(ShapeError):
        PreferenceDataset(**{**ok, "delta_r": [-0.5]})
    with pytest.raises(ShapeError):
        PreferenceDataset(**{**ok, "delta_r": [float("nan")]})


def _tiny_setup():
    spec = MlpSpec(data_dim=2, cond_dim=3, hidden=(8,))
    ref = mlp_init(spec, 44)
    return spec, ref, np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


def _record_bytes(ds):
    return [
        b"".join(getattr(ds, f)[i].tobytes() for f in ("cond", "x0", "xT", "delta_r"))
        for i in range(len(ds))
    ]


def test_generate_pair_deterministic():
    spec, ref, centers = _tiny_setup()
    a = build_dataset(ref, spec, centers, steps=6, n_records=5, base_seed=77, ref_hash="h")
    b = build_dataset(ref, spec, centers, steps=6, n_records=5, base_seed=77, ref_hash="h")
    assert _record_bytes(a) == _record_bytes(b)
    # record i depends on seed base_seed + i only: a shifted range shares records
    shifted = build_dataset(ref, spec, centers, steps=6, n_records=5, base_seed=78, ref_hash="h")
    assert _record_bytes(shifted)[:4] == _record_bytes(a)[1:]
    assert _record_bytes(shifted)[4] not in _record_bytes(a)


def test_build_dataset_stores_drawn_noises_bitwise():
    # documented per-record RNG order: condition, noise A, noise B; each stored
    # noise is the draw itself and each stored sample is that noise sampled alone
    spec, ref, centers = _tiny_setup()
    ds = build_dataset(ref, spec, centers, steps=7, n_records=6, base_seed=33, ref_hash="h")
    for i in range(len(ds)):
        rng = np.random.default_rng(33 + i)
        cond = np.eye(spec.cond_dim)[rng.integers(spec.cond_dim)]
        draws = [rng.standard_normal(spec.data_dim) for _ in range(2)]
        assert ds.cond[i].tobytes() == cond.tobytes()
        assert sorted(noise.tobytes() for noise in ds.xT[i]) == sorted(d.tobytes() for d in draws)
        for x0, xT in zip(ds.x0[i], ds.xT[i]):
            alone = euler_sample(ref, spec, xT[None, :], cond[None, :], 7)[0]
            assert x0.tobytes() == alone.tobytes()


@pytest.mark.kernel_invariance
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
    ds = build_dataset(ref, spec, modes, steps, n, base_seed, ref_hash="h")
    assert len(ds) == n
    assert ds.header.dim == data_dim and ds.header.cond_dim == cond_dim and ds.header.steps == steps
    # stored samples replay bit-exactly from the stored noise, before and
    # after a round trip through the pair file
    assert audit_dataset(ds, ref, spec) == 0.0
    path = str(tmp_path_factory.mktemp("replay") / "pairs.txt")
    write_dataset(path, ds)
    assert audit_dataset(read_dataset(path), ref, spec) == 0.0


# every (array, slot) a stored number lives in, with ids in the file's field names
SLOTS = [
    pytest.param(array, slot, id=f"{array}{role}")
    for array in ("x0", "xT") for slot, role in enumerate("wl")
]


@pytest.mark.parametrize("array, slot", SLOTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_audit_flags_non_finite_values(array, slot, bad):
    spec, ref, centers = _tiny_setup()
    ds = build_dataset(ref, spec, centers, steps=4, n_records=5, base_seed=60, ref_hash="h")
    assert audit_dataset(ds, ref, spec) == 0.0
    getattr(ds, array)[3, slot, 1] = bad
    assert audit_dataset(ds, ref, spec) == math.inf


def test_audit_replays_an_empty_dataset_against_the_models_dims():
    spec, ref, centers = _tiny_setup()
    assert audit_dataset(build_dataset(ref, spec, centers, 4, 0, 61, "h"), ref, spec) == 0.0
    # no record to replay still names the dims the model cannot take
    other = make_pairs(np.random.default_rng(62), MlpSpec(data_dim=3, cond_dim=3, hidden=()), n=0)
    with pytest.raises(ShapeError):
        audit_dataset(other, ref, spec)


def test_build_dataset_rejects_mismatched_reward_params():
    spec, ref, _ = _tiny_setup()
    for bad in (np.zeros((2, 2)), np.zeros((3, 3)), np.zeros(6)):  # needs (3, 2)
        with pytest.raises(ShapeError, match="reward centres shape"):
            build_dataset(ref, spec, bad, 3, 2, 0, "h")


@settings(max_examples=40, deadline=None)
@given(case=pair_batches(max_pairs=10))
def test_dataset_file_round_trip_value_exact(tmp_path_factory, case):
    # write -> read gives every array back bit for bit, signed zeros and
    # subnormals included
    spec, rng, ds = case
    ds.x0[0, 0, 0] = -0.0
    ds.x0[0, 1, -1] = 5e-324
    ds.xT[-1, 0, 0] = -1.7976931348623157e308
    path = str(tmp_path_factory.mktemp("pairs") / "pairs.txt")
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.header == ds.header
    for field in ("cond", "x0", "xT", "delta_r"):
        assert getattr(back, field).tobytes() == getattr(ds, field).tobytes(), field


def test_record_fields_land_in_their_slots(tmp_path):
    # a record line is cond | winner x0 | loser x0 | winner xT | loser xT | gap;
    # every number differs, so a wrong reshape cannot round-trip unnoticed
    header = "rfpnapo-pairs v1 dim=2 cdim=2 steps=3 refhash=aa"
    record = "0 1 | 0.5 1.5 | 0.25 2.5 | 1 3 | -1 4 | 0.125"
    path = tmp_path / "pairs.txt"
    path.write_text(f"{header}\n{record}\n")
    ds = read_dataset(str(path))
    assert ds.cond.tolist() == [[0.0, 1.0]]
    assert ds.x0[0, 0].tolist() == [0.5, 1.5] and ds.x0[0, 1].tolist() == [0.25, 2.5]
    assert ds.xT[0, 0].tolist() == [1.0, 3.0] and ds.xT[0, 1].tolist() == [-1.0, 4.0]
    assert ds.delta_r.tolist() == [0.125]
    out = tmp_path / "back.txt"
    write_dataset(str(out), ds)
    assert out.read_text().splitlines() == [header, record]


def test_dataset_write_is_byte_stable(tmp_path):
    spec, ref, centers = _tiny_setup()
    ds = build_dataset(ref, spec, centers, 3, 4, 12, "00ff")
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    write_dataset(p1, ds)
    write_dataset(p2, ds)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize(
    "field, index, bad, message",
    [
        *(pytest.param("cond", (1, 0), bad, "pair 1 has a non-finite cond value", id=f"{bad}-cond")
          for bad in (math.nan, math.inf, -math.inf)),
        *(pytest.param(array, (1, slot, 0), bad, f"pair 1 has a non-finite {role} {array} value",
                       id=f"{bad}-{array}{role[0]}")
          for array in ("x0", "xT") for slot, role in enumerate(("winner", "loser"))
          for bad in (math.nan, math.inf, -math.inf)),
        # the dataclass is mutable: a gap set after construction that read_dataset would reject
        *(pytest.param("delta_r", (1,), bad, f"pair 1 has preference gap {bad}", id=f"{bad}-delta_r")
          for bad in (-1.0, math.nan)),
    ],
)
def test_write_dataset_rejects_non_finite_values_and_writes_nothing(tmp_path, field, index, bad, message):
    ds = make_pairs(np.random.default_rng(5), MlpSpec(data_dim=2, cond_dim=2, hidden=(3,)), 3)
    getattr(ds, field)[index] = bad
    path = tmp_path / "pairs.txt"
    with pytest.raises(ShapeError, match=message):
        write_dataset(str(path), ds)
    assert not path.exists()


@pytest.mark.parametrize("cond", [[0.5, 0.5], [1.0, 1.0], [0.0, 0.0], [2.0, 0.0], [1.0, -0.5]])
def test_write_dataset_rejects_a_condition_that_is_not_one_hot(tmp_path, cond):
    # the conditions read_dataset rejects as not one-hot
    ds = make_pairs(np.random.default_rng(6), MlpSpec(data_dim=2, cond_dim=2, hidden=(3,)), 3)
    ds.cond[2] = cond
    path = tmp_path / "pairs.txt"
    with pytest.raises(ShapeError, match="pair 2 has a condition that is not one-hot"):
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


def test_read_dataset_sizes_its_matrix_by_the_text_not_the_header(tmp_path):
    # a header may claim any dims; the one record holds two condition values
    # and one number per vector, so reading fails on line 2 without reserving
    # what the claim implies, even past numpy's index range
    path = tmp_path / "pairs.txt"
    for key, found in (("dim", 1), ("cdim", 2)):
        for claim in (10**15, 10**20):
            dims = {"dim": 1, "cdim": 2, key: claim}
            path.write_text(f"rfpnapo-pairs v1 dim={dims['dim']} cdim={dims['cdim']} steps=3 refhash=aa\n"
                            "1 0 | 1 | 1 | 1 | 1 | 0.5\n")
            tracemalloc.start()
            try:
                with pytest.raises(ParseError, match=f"^line 2: expected {claim} numbers, found {found}$"):
                    read_dataset(str(path))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**24


@pytest.mark.parametrize("key", ["dim", "cdim"])
def test_header_only_file_past_numpys_size_limit_fails_on_line_1(tmp_path, key):
    # no record fails first, and an empty dataset of these dims cannot be made
    dims = {"dim": 1, "cdim": 2, key: 10**20}
    path = tmp_path / "pairs.txt"
    path.write_text(f"rfpnapo-pairs v1 dim={dims['dim']} cdim={dims['cdim']} steps=3 refhash=aa\n")
    with pytest.raises(ParseError, match=r"^line 1: a record of \d+ numbers is past numpy's size limit$"):
        read_dataset(str(path))


def test_read_dataset_empty_is_header_only(tmp_path):
    spec, ref, centers = _tiny_setup()
    ds = build_dataset(ref, spec, centers, 3, 0, 5, "beef")
    path = str(tmp_path / "empty.txt")
    write_dataset(path, ds)
    lines = open(path).read().splitlines()
    assert len(lines) == 1 and lines[0].startswith("rfpnapo-pairs v1 ")
    back = read_dataset(path)
    assert len(back) == 0 and back.header == ds.header


def test_delta_r_reflects_reward_ordering():
    spec, ref, centers = _tiny_setup()
    ds = build_dataset(ref, spec, centers, 5, 30, 7, "h")
    rw = reward_eval(centers, ds.x0[:, 0], ds.cond)
    rl = reward_eval(centers, ds.x0[:, 1], ds.cond)
    assert np.all(rw >= rl)
    np.testing.assert_allclose(ds.delta_r, rw - rl, rtol=0.0, atol=1e-15)
