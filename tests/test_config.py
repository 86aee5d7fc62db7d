from __future__ import annotations

import re

import numpy as np
import pytest

from conftest import FIXTURES
from rfpnapo.config import load_config
from rfpnapo.errors import ConfigurationError


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_load_minimal_with_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, """
# a comment line
seed = 5
train.lr = 1e-3   # trailing comment
train.steps = 10
train.batch = 4
pnapo.beta = 2.0
reward.kind = mode_distance
"""))
    assert cfg.get("seed") == 5
    assert cfg.get("train.lr") == 1e-3
    assert cfg.get("sampler.steps") == 50
    assert cfg.get("pnapo.n1") == 1000
    assert cfg.get("pnapo.n2") == 2000
    assert cfg.get("pnapo.dynamic") is True
    assert cfg.get("data.dim") == 2
    assert cfg.get("model.hidden") == (32, 32)


def test_unknown_key_rejected_with_position(tmp_path):
    with pytest.raises(ConfigurationError, match=":2"):
        load_config(_write(tmp_path, "seed = 1\nmystery.key = 3\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="duplicate"):
        load_config(_write(tmp_path, "seed = 1\nseed = 2\n"))


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(_write(tmp_path, "seed 5\n"))


def test_bad_value_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(_write(tmp_path, "seed = notanumber\n"))
    with pytest.raises(ConfigurationError):
        load_config(_write(tmp_path, "pnapo.dynamic = yes\n"))


@pytest.mark.parametrize(
    "key",
    ["data.mixture.std", "train.lr", "pnapo.beta", "corpus.toxicity_threshold",
     "corpus.jaccard_threshold", "corpus.cosine_threshold", "reward.params", "data.mixture.modes"],
)
@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_non_finite_float_rejected_with_position(tmp_path, key, raw):
    path = _write(tmp_path, f"seed = 1\n\n{key} = {raw}\n")
    with pytest.raises(ConfigurationError, match=f"{re.escape(path)}:3: bad value for {key}: .*finite"):
        load_config(path)


@pytest.mark.parametrize(
    "key, raw, vector",
    [("reward.params", "2,0 ; 0,nan", 1), ("data.mixture.modes", "1,1 | -1,inf ; 3,0", 0),
     ("data.mixture.modes", "1,1 ; 3,-inf", 1)],
)
def test_non_finite_vector_entry_names_the_vector(tmp_path, key, raw, vector):
    path = _write(tmp_path, f"seed = 1\n{key} = {raw}\n")
    with pytest.raises(ConfigurationError, match=f":2: bad value for {key}: vector {vector}: .*finite"):
        load_config(path)


def test_reward_params_reject_the_centre_separator_with_position(tmp_path):
    # '|' separates a condition's mixture centres; a reward has one vector per condition
    path = _write(tmp_path, "seed = 1\nreward.params = 2|0; 0,2; -2,0; 0,-2\n")
    with pytest.raises(ConfigurationError, match=f"{re.escape(path)}:2: bad value for reward.params: vector 0: '\\|'"):
        load_config(path)


@pytest.mark.parametrize(
    "key, raw, vector",
    [("reward.params", "2,0; 0; -2,0; 0,-2", 1), ("data.mixture.modes", "1,1 | 2 ; 3,3", 0),
     ("data.mixture.modes", "1,1 | 2,2 ; 3,3,3", 1)],
)
def test_ragged_vector_list_rejected_with_position(tmp_path, key, raw, vector):
    # vectors of differing widths are a fault of the one key, whatever data.dim says
    path = _write(tmp_path, f"seed = 1\n{key} = {raw}\n")
    with pytest.raises(
        ConfigurationError,
        match=f"^{re.escape(path)}:2: bad value for {key}: vector {vector}: every vector needs the 2 coordinates",
    ):
        load_config(path)


def test_mixture_builder_custom_modes(tmp_path):
    cfg = load_config(_write(tmp_path, """
seed = 0
data.dim = 2
data.conditions = 2
data.mixture.modes = 1,1 | -1,-1 ; 3,0
data.mixture.std = 0.2
"""))
    mixture = cfg.mixture()
    assert mixture.n_conditions == 2
    assert np.array_equal(mixture.counts, [2, 1])
    assert np.array_equal(mixture.centers[1], [-1.0, -1.0])  # condition 0, mode 1
    assert np.array_equal(mixture.centers[2], [3.0, 0.0])  # condition 1, mode 0
    assert mixture.std == 0.2


def test_mixture_builder_rejects_wrong_counts(tmp_path):
    cfg = load_config(_write(tmp_path, """
seed = 0
data.dim = 2
data.conditions = 3
data.mixture.modes = 1,1 ; 2,2
"""))
    with pytest.raises(ConfigurationError):
        cfg.mixture()
    cfg2 = load_config(_write(tmp_path, """
seed = 0
data.dim = 2
data.conditions = 1
data.mixture.modes = 1,1,1
"""))
    with pytest.raises(ConfigurationError):
        cfg2.mixture()


def test_reward_builder(tmp_path):
    cfg = load_config(_write(tmp_path, """
seed = 0
reward.kind = mode_distance
reward.params = 1,0 ; 0,1
"""))
    centers = cfg.reward(2, 2)
    assert centers.dtype == np.float64
    assert np.array_equal(centers, [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigurationError):
        cfg.reward(2, 3)  # condition count mismatch


def test_reward_builder_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, "seed = 0\nreward.kind = mode_distance\n"))
    centers = cfg.reward(3, 2)
    # every condition's centre is the origin
    assert centers.dtype == np.float64
    assert np.array_equal(centers, np.zeros((2, 3)))
    # the kind stays required, though it has one value
    with pytest.raises(ConfigurationError, match="missing required config key 'reward.kind'"):
        load_config(_write(tmp_path, "seed = 0\n")).reward(3, 2)


@pytest.mark.parametrize("kind", ["direction_dot", "quadratic_bowl", "mode"])
def test_reward_kind_has_one_value(tmp_path, kind):
    path = _write(tmp_path, f"seed = 0\nreward.kind = {kind}\n")
    with pytest.raises(ConfigurationError, match=(
        f"^{re.escape(path)}:2: bad value for reward.kind: expected mode_distance, got '{kind}'$"
    )):
        load_config(path)


def test_schedule_and_sampler_builders(tmp_path):
    cfg = load_config(_write(tmp_path, """
seed = 0
pnapo.beta = 25.0
pnapo.n1 = 5
pnapo.n2 = 9
pnapo.dynamic = false
sampler.steps = 12
"""))
    sched = cfg.schedule()
    assert sched.beta == 25.0 and sched.n1 == 5 and sched.n2 == 9 and not sched.dynamic
    assert cfg.get("sampler.steps") == 12


def test_snapshot_is_complete_and_stringly(tmp_path):
    cfg = load_config(_write(
        tmp_path, "seed = 3\ntrain.lr = 0.5\nreward.kind = mode_distance\ndata.mixture.modes = 1,1 | -1,-1 ;3,0\n"
    ))
    snap = cfg.snapshot()
    assert snap["seed"] == "3"
    assert snap["data.mixture.modes"] == "1,1 | -1,-1 ;3,0"  # vector lists as written
    assert snap["reward.params"] == ""
    assert snap["pnapo.dynamic"] == "true"
    assert snap["model.hidden"] == "32,32"
    assert "train.steps" not in snap or snap.get("train.steps") is not None
    assert all(isinstance(v, str) for v in snap.values())


def test_missing_file_is_missing_input():
    from rfpnapo.errors import MissingInputError

    with pytest.raises(MissingInputError):
        load_config("/nonexistent/run.cfg")


@pytest.mark.parametrize("raw", ["-1", "-12345678901234567890"])
def test_negative_seed_rejected_with_position(tmp_path, raw):
    path = _write(tmp_path, f"train.lr = 1e-3\nseed = {raw}\n")
    with pytest.raises(ConfigurationError, match=f"{re.escape(path)}:2: bad value for seed: .*non-negative"):
        load_config(path)
    assert load_config(_write(tmp_path, "seed = 0\n")).get("seed") == 0


def test_non_utf8_config_rejected_with_position(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 1\r\n# caf\xc3\xa9\r\ntrain.lr = 1e-3 # caf\xe9\n")
    with pytest.raises(ConfigurationError, match=f"{re.escape(str(path))}:3: config is not UTF-8"):
        load_config(str(path))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.cfg")), ids=lambda path: path.name)
def test_every_committed_fixture_config_loads(path):
    # each committed config builds what its commands read from it
    cfg = load_config(str(path))
    if "data.dim" in cfg.values:
        spec = cfg.mlp_spec()
        assert cfg.mixture().centers.shape[1] == spec.data_dim
        if "reward.kind" in cfg.values:
            assert cfg.reward(spec.data_dim, spec.cond_dim).shape == (spec.cond_dim, spec.data_dim)
    if "pnapo.beta" in cfg.values:
        assert cfg.schedule().beta == cfg.get("pnapo.beta")


def test_matched_temperature_arm_changes_only_beta():
    fixed = load_config(str(FIXTURES / "toy_align_fixed.cfg")).values
    matched = load_config(str(FIXTURES / "toy_align_matched.cfg")).values
    assert matched == {**fixed, "pnapo.beta": 6.5}
