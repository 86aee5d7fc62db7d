from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pairs
from rfpnapo.analytics import (
    EvalReport,
    TabularChain,
    chain_rule_identity,
    estimator_variance,
    eval_reward,
    pnapo_delta,
    random_chain,
    tabular_kl_check,
    win_rate,
    write_eval_csv,
)
from rfpnapo.errors import ConfigurationError, DataError, ShapeError
from rfpnapo.prefdata import RewardSpec
from rfpnapo.rectflow import SamplerConfig


def test_chain_validation_rejects_bad_rows():
    ok = random_chain(0, 3, 2)
    bad_terminal = np.array(ok.p_terminal)
    bad_terminal[0] *= 2.0
    with pytest.raises(ShapeError):
        TabularChain(bad_terminal, ok.p_kernels, ok.q_terminal, ok.q_kernels)


def test_chain_caps_enforced():
    with pytest.raises(ConfigurationError):
        random_chain(0, n_states=7, horizon=2)
    with pytest.raises(ConfigurationError):
        random_chain(0, n_states=3, horizon=5)


def test_single_step_chain_has_no_interior():
    chain = random_chain(3, n_states=4, horizon=1)
    total, endpoint, conditional = chain_rule_identity(chain, x0=2)
    assert conditional == 0.0
    assert total == pytest.approx(endpoint, abs=1e-15)


def test_chain_rule_decomposition_exact_over_seeds():
    for seed in range(25):
        for matched in (True, False):
            chain = random_chain(seed, 4, 3, matched_endpoint=matched)
            x0 = seed % 4
            total, endpoint, conditional = chain_rule_identity(chain, x0)
            assert abs(total - (endpoint + conditional)) <= 1e-10
            assert endpoint >= -1e-15
            assert conditional >= -1e-12
            if matched:
                assert endpoint == pytest.approx(0.0, abs=1e-12)


def test_matched_endpoints_make_sides_equal():
    for seed in range(25):
        lhs, rhs = tabular_kl_check(seed, 4, 3)
        assert lhs <= rhs + 1e-9
        # with matched endpoint marginals the bound is tight
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_kl_check_various_sizes():
    for n_states, horizon in ((2, 2), (5, 3), (6, 4), (3, 1)):
        lhs, rhs = tabular_kl_check(11, n_states, horizon)
        assert lhs <= rhs + 1e-9
        assert np.isfinite(lhs) and np.isfinite(rhs)


def test_pinned_time_delta_is_bit_stable(trained_pair):
    ref, later, spec = trained_pair
    rng = np.random.default_rng(60)
    pairs = make_pairs(rng, spec, 5)
    base = pnapo_delta(later, ref, spec, pairs, t=0.37)
    assert base.shape == (5,)
    for _ in range(50):
        assert pnapo_delta(later, ref, spec, pairs, t=0.37).tobytes() == base.tobytes()
    # a pair's gap does not depend on the batch it is scored in
    for i in range(5):
        assert pnapo_delta(later, ref, spec, pairs.take([i]), t=0.37)[0] == base[i]


def test_fresh_noise_variance_positive(trained_pair):
    ref, later, spec = trained_pair
    rng = np.random.default_rng(61)
    pair = make_pairs(rng, spec)
    var_stored, var_fresh = estimator_variance(later, ref, spec, pair, n_draws=400, seed=5)
    assert var_fresh > 0.0
    assert var_stored >= 0.0
    # both estimators see the same t stream, so the stored-noise one only
    # varies through t; it cannot exceed the fresh-noise variance here
    assert var_stored < var_fresh


def test_estimator_variance_deterministic(trained_pair):
    ref, later, spec = trained_pair
    pairs = make_pairs(np.random.default_rng(62), spec, 2)
    pair = pairs.take([0])
    a = estimator_variance(later, ref, spec, pair, n_draws=50, seed=9)
    b = estimator_variance(later, ref, spec, pair, n_draws=50, seed=9)
    assert a == b
    with pytest.raises(ConfigurationError):
        estimator_variance(later, ref, spec, pair, n_draws=1, seed=9)
    with pytest.raises(ShapeError):
        estimator_variance(later, ref, spec, pairs, n_draws=50, seed=9)


def test_eval_report_validation():
    EvalReport(model="m", mean_reward=0.0, median_reward=0.0, win_rate=None, n=1, seed=0)
    with pytest.raises(ShapeError):
        EvalReport(model="m", mean_reward=0.0, median_reward=0.0, win_rate=1.5, n=1, seed=0)
    with pytest.raises(ShapeError):
        EvalReport(model="m", mean_reward=0.0, median_reward=0.0, win_rate=None, n=0, seed=0)


def test_eval_reward_and_self_win_rate(trained_pair):
    ref, later, spec = trained_pair
    rspec = RewardSpec(
        kind="mode_distance",
        params=np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]]),
    )
    cfg = SamplerConfig(steps=8)
    rep = eval_reward(ref, spec, rspec, n_per_condition=5, sampler_cfg=cfg, seed=3, label="ref")
    assert rep.n == 20
    assert rep.model == "ref"
    assert np.isfinite(rep.mean_reward) and np.isfinite(rep.median_reward)
    rep2 = eval_reward(ref, spec, rspec, n_per_condition=5, sampler_cfg=cfg, seed=3, label="ref")
    assert rep == rep2
    # a model against itself never wins or loses a pair
    assert win_rate(ref, spec, ref, spec, rspec, n_trials=12, sampler_cfg=cfg, seed=4) == 0.5


def test_win_rate_detects_strictly_better_model(trained_pair):
    ref, later, spec = trained_pair
    rspec = RewardSpec(
        kind="mode_distance",
        params=np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]]),
    )
    cfg = SamplerConfig(steps=8)
    wr_later = win_rate(later, spec, ref, spec, rspec, n_trials=80, sampler_cfg=cfg, seed=5)
    wr_ref = win_rate(ref, spec, later, spec, rspec, n_trials=80, sampler_cfg=cfg, seed=5)
    assert wr_later + wr_ref == pytest.approx(1.0, abs=1e-15)
    # the longer-trained snapshot should be the better sampler
    assert wr_later > 0.5


def test_write_eval_csv(tmp_path):
    reports = [
        EvalReport(model="a", mean_reward=-0.5, median_reward=-0.25, win_rate=0.75, n=10, seed=1),
        EvalReport(model="b", mean_reward=-1.5, median_reward=-1.0, win_rate=None, n=10, seed=1),
    ]
    path = str(tmp_path / "report.csv")
    write_eval_csv(path, reports)
    lines = open(path).read().splitlines()
    assert lines[0] == "model,mean_reward,median_reward,win_rate,n,seed"
    assert lines[1] == "a,-0.5,-0.25,0.75,10,1"
    assert lines[2] == "b,-1.5,-1,,10,1"
    with pytest.raises(DataError):
        write_eval_csv(path, [EvalReport(model="x,y", mean_reward=0.0, median_reward=0.0, win_rate=None, n=1, seed=0)])


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=100, deadline=None)
@given(reports=st.lists(st.builds(
    EvalReport,
    model=st.text(st.characters(blacklist_categories=("Cs",))),  # any text UTF-8 can encode
    mean_reward=st.floats(allow_nan=False),
    median_reward=st.floats(allow_nan=False),
    win_rate=st.none() | st.floats(0.0, 1.0),
    n=st.integers(1, 10**12),
    seed=st.integers(0, 2**64 - 1),
), max_size=4))
def test_eval_csv_round_trips_bitwise(tmp_path_factory, reports):
    path = tmp_path_factory.mktemp("eval") / "report.csv"
    # a label a comma or any line separator would split cannot be a CSV cell
    if any("," in rep.model or rep.model.splitlines() not in ([], [rep.model]) for rep in reports):
        with pytest.raises(DataError):
            write_eval_csv(str(path), reports)
        assert not path.exists()
        return
    write_eval_csv(str(path), reports)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model,mean_reward,median_reward,win_rate,n,seed"
    assert len(lines) == len(reports) + 1
    for rep, line in zip(reports, lines[1:]):
        model, mean, median, win, n, seed = line.split(",")
        assert model == rep.model
        assert _bits(float(mean)) == _bits(rep.mean_reward)
        assert _bits(float(median)) == _bits(rep.median_reward)
        if rep.win_rate is None:
            assert win == ""
        else:
            assert _bits(float(win)) == _bits(rep.win_rate)
        assert (int(n), int(seed)) == (rep.n, rep.seed)
        assert (n, seed) == (str(rep.n), str(rep.seed))
