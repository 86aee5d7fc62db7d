from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, INCONSISTENT_CHECKPOINTS, checkpoint_bytes
from rfpnapo import analytics, cli
from rfpnapo.cli import _write_csv, main
from rfpnapo.config import _KEYS, load_config
from rfpnapo.fileio import fmt17
from rfpnapo.numerics import read_checkpoint
from rfpnapo.prefdata import reward_eval
from rfpnapo.rectflow import euler_sample

TINY_CFG = """
seed = 9
data.dim = 2
data.conditions = 2
model.hidden = 8,8
train.lr = 2e-3
train.steps = 40
train.batch = 8
pnapo.beta = 4.0
pnapo.n1 = 10
pnapo.n2 = 20
sampler.steps = 5
reward.kind = mode_distance
reward.params = 2,0 ; -2,0
"""


@pytest.fixture()
def tiny_cfg(tmp_path) -> str:
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def _sha(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run_pipeline(tmp_path, tiny_cfg, method="pnapo"):
    ref = str(tmp_path / "ref.ckpt")
    pairs = str(tmp_path / "pairs.txt")
    aligned = str(tmp_path / f"aligned_{method}.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", ref, "--n", "30", "--out", pairs]) == 0
    assert main(["align", "--config", tiny_cfg, "--model", ref, "--pairs", pairs,
                 "--out", aligned, "--method", method]) == 0
    return ref, pairs, aligned


def test_full_pipeline_produces_artifacts(tmp_path, tiny_cfg, capsys):
    ref, pairs, aligned = _run_pipeline(tmp_path, tiny_cfg)
    report = str(tmp_path / "report.csv")
    assert main(["eval", "--config", tiny_cfg, "--model", aligned, "--against", ref,
                 "--n", "5", "--out", report]) == 0
    for artifact in (ref, pairs, aligned, report):
        assert Path(artifact).exists()
        assert Path(artifact + ".manifest.json").exists()
    capsys.readouterr()

    metrics = Path(aligned + ".metrics.csv").read_text().splitlines()
    assert metrics[0] == "step,loss,margin_mean,beta_eff_mean,grad_norm"
    assert len(metrics) == 41
    pre_metrics = Path(ref + ".metrics.csv").read_text().splitlines()
    assert pre_metrics[0] == "step,loss,grad_norm"

    lines = Path(report).read_text().splitlines()
    assert lines[0] == "model,mean_reward,median_reward,win_rate,n,seed"
    assert lines[1].startswith("model,") and lines[2].startswith("against,")
    # paired win rates sum to one
    wr_a = float(lines[1].split(",")[3])
    wr_b = float(lines[2].split(",")[3])
    assert wr_a + wr_b == pytest.approx(1.0, abs=1e-15)


def test_first_align_loss_logged_at_reference_is_log_two(tmp_path, tiny_cfg, capsys):
    _, _, aligned = _run_pipeline(tmp_path, tiny_cfg)
    capsys.readouterr()
    first = Path(aligned + ".metrics.csv").read_text().splitlines()[1]
    loss = float(first.split(",")[1])
    assert loss == pytest.approx(np.log(2.0), abs=1e-9)


def test_manifest_hashes_are_correct(tmp_path, tiny_cfg, capsys):
    ref, pairs, _ = _run_pipeline(tmp_path, tiny_cfg)
    capsys.readouterr()
    doc = json.loads(Path(pairs + ".manifest.json").read_text())
    assert doc["artifact_version"] == 1
    assert doc["command"][0] == "gen-pairs"
    assert doc["config"]["seed"] == "9"
    for path, digest in {**doc["inputs"], **doc["outputs"]}.items():
        assert _sha(path) == digest
    # gen-pairs records the reference checkpoint hash it samples from
    assert doc["ref_hash"] == _sha(ref)


def test_each_file_is_hashed_once_per_command(tmp_path, tiny_cfg, capsys, monkeypatch):
    # gen-pairs and align hash --model for ref_hash; the manifest reuses that hash
    hashed = Counter()

    def counting(path):
        hashed[path] += 1
        return _sha(path)

    monkeypatch.setattr(cli, "sha256_file", counting)
    ref, pairs, aligned, report, tsv, kept = (
        str(tmp_path / name) for name in ("ref.ckpt", "pairs.txt", "aligned.ckpt", "r.csv", "in.tsv", "out.tsv")
    )
    Path(tsv).write_text("")
    commands = [  # (argv, its file arguments)
        (["pretrain", "--config", tiny_cfg, "--out", ref], {tiny_cfg}),
        (["gen-pairs", "--config", tiny_cfg, "--model", ref, "--n", "10", "--out", pairs], {tiny_cfg, ref}),
        (["align", "--config", tiny_cfg, "--model", ref, "--pairs", pairs, "--out", aligned],
         {tiny_cfg, ref, pairs}),
        (["eval", "--config", tiny_cfg, "--model", aligned, "--against", ref, "--n", "3", "--out", report],
         {tiny_cfg, aligned, ref}),
        (["corpus", tsv, "--config", tiny_cfg, "--out", kept], {tsv, tiny_cfg}),
    ]
    for argv, file_args in commands:
        hashed.clear()
        assert main(argv) == 0
        out = argv[argv.index("--out") + 1]
        doc = json.loads(Path(out + ".manifest.json").read_text())
        assert set(doc["inputs"]) == file_args, argv[0]
        assert hashed == Counter({**doc["inputs"], **doc["outputs"]}.keys()), argv[0]
        for path, digest in {**doc["inputs"], **doc["outputs"]}.items():
            assert _sha(path) == digest
        if "ref_hash" in doc:
            assert doc["ref_hash"] == _sha(ref)
    capsys.readouterr()


def test_rerun_is_byte_identical(tmp_path, tiny_cfg, capsys):
    ref1 = str(tmp_path / "a" / "ref.ckpt")
    ref2 = str(tmp_path / "b" / "ref.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref1]) == 0
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref2]) == 0
    capsys.readouterr()
    assert Path(ref1).read_bytes() == Path(ref2).read_bytes()
    assert Path(ref1 + ".metrics.csv").read_bytes() == Path(ref2 + ".metrics.csv").read_bytes()
    m1 = json.loads(Path(ref1 + ".manifest.json").read_text())
    m2 = json.loads(Path(ref2 + ".manifest.json").read_text())
    assert m1["outputs"][ref1] == m2["outputs"][ref2]
    assert m1["config"] == m2["config"]


@pytest.mark.parametrize(
    "field, value",
    [(1, "nan 0.5"), (4, "1 -inf"), (5, "nan"), (0, "0.5 0.5"), (0, "1 1")],
)
def test_bad_pair_content_exits_parse_error_with_line(tmp_path, tiny_cfg, capsys, field, value):
    # non-finite numbers and non-one-hot conditions fail at parse time (exit 5),
    # not later as a numeric failure or a silently argmax-ed condition
    ref = str(tmp_path / "ref.ckpt")
    pairs = tmp_path / "pairs.txt"
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", ref, "--n", "4", "--out", str(pairs)]) == 0
    capsys.readouterr()
    lines = pairs.read_text().splitlines()
    fields = lines[3].split(" | ")
    fields[field] = value
    lines[3] = " | ".join(fields)
    pairs.write_text("\n".join(lines) + "\n")
    rc = main(["align", "--config", tiny_cfg, "--model", ref, "--pairs", str(pairs),
               "--out", str(tmp_path / "a.ckpt")])
    assert rc == 5
    assert "line 4:" in capsys.readouterr().err
    assert not (tmp_path / "a.ckpt").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_config_float_exits_config_error(tmp_path, capsys, value):
    lines = TINY_CFG.splitlines()
    cases = [  # (key, line index, replacement line); an index past the end appends
        ("train.lr", lines.index("train.lr = 2e-3"), f"train.lr = {value}"),
        ("reward.params", lines.index("reward.params = 2,0 ; -2,0"), f"reward.params = {value},0 ; -2,0"),
        ("data.mixture.modes", len(lines), f"data.mixture.modes = 1,{value} ; 0,0"),
    ]
    for key, index, bad_line in cases:
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("\n".join(lines[:index] + [bad_line] + lines[index + 1:]) + "\n")
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")]) == 2
        assert f"{cfg}:{index + 1}: bad value for {key}" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()


def test_dpo_alignment_ignores_stored_noise_fields(tmp_path, tiny_cfg, capsys):
    ref, pairs, aligned = _run_pipeline(tmp_path, tiny_cfg, method="dpo")
    # corrupt the stored noise columns (fields 4 and 5 of each record line)
    lines = Path(pairs).read_text().splitlines()
    rng = np.random.default_rng(0)
    corrupted_lines = [lines[0]]
    for line in lines[1:]:
        fields = line.split(" | ")
        dim = len(fields[3].split())
        fields[3] = " ".join(f"{v:.17g}" for v in rng.standard_normal(dim))
        fields[4] = " ".join(f"{v:.17g}" for v in rng.standard_normal(dim))
        corrupted_lines.append(" | ".join(fields))
    corrupted = str(tmp_path / "pairs_corrupted.txt")
    Path(corrupted).write_text("\n".join(corrupted_lines) + "\n")
    aligned2 = str(tmp_path / "aligned_dpo2.ckpt")
    assert main(["align", "--config", tiny_cfg, "--model", ref, "--pairs", corrupted,
                 "--out", aligned2, "--method", "dpo"]) == 0
    capsys.readouterr()
    assert Path(aligned2).read_bytes() == Path(tmp_path / "aligned_dpo.ckpt").read_bytes()


def test_manifest_command_lists_every_argument_in_parser_order(tmp_path, tiny_cfg, capsys):
    # options given in another order, --method and --n left at their defaults
    ref, pairs, aligned, report, tsv, kept = (
        str(tmp_path / name) for name in ("ref.ckpt", "pairs.txt", "al.ckpt", "r.csv", "in.tsv", "out.tsv")
    )
    Path(tsv).write_text("")
    runs = [
        (["pretrain", "--out", ref, "--config", tiny_cfg],
         ["pretrain", "--config", tiny_cfg, "--out", ref]),
        (["gen-pairs", "--out", pairs, "--n", "6", "--model", ref, "--config", tiny_cfg],
         ["gen-pairs", "--config", tiny_cfg, "--model", ref, "--n", "6", "--out", pairs]),
        (["align", "--out", aligned, "--pairs", pairs, "--config", tiny_cfg, "--model", ref],
         ["align", "--config", tiny_cfg, "--model", ref, "--pairs", pairs, "--out", aligned,
          "--method", "pnapo"]),
        (["eval", "--against", ref, "--out", report, "--model", aligned, "--config", tiny_cfg],
         ["eval", "--config", tiny_cfg, "--model", aligned, "--against", ref, "--n", "50",
          "--out", report]),
        (["corpus", "--out", kept, "--config", tiny_cfg, tsv],
         ["corpus", tsv, "--config", tiny_cfg, "--out", kept]),
    ]
    for argv, command in runs:
        assert main(argv) == 0, argv[0]
        assert json.loads(Path(argv[argv.index("--out") + 1] + ".manifest.json").read_text())["command"] == command
    capsys.readouterr()


def test_align_manifest_records_matching_ref_hash(tmp_path, tiny_cfg, capsys):
    ref, pairs, aligned = _run_pipeline(tmp_path, tiny_cfg)
    assert "note" not in capsys.readouterr().err
    doc = json.loads(Path(aligned + ".manifest.json").read_text())
    assert doc["ref_hash"] == doc["pairs_ref_hash"] == _sha(ref)
    assert doc["ref_hash_match"] is True


def test_align_on_pairs_from_another_model_notes_the_mismatch(tmp_path, tiny_cfg, capsys):
    ref, pairs, aligned = _run_pipeline(tmp_path, tiny_cfg)
    stdout_match = capsys.readouterr().out.splitlines()[-1]
    # the same pairs, labelled as sampled from some other checkpoint
    lines = Path(pairs).read_text().splitlines()
    other_hash = "0" * 64
    lines[0] = lines[0].replace(f"refhash={_sha(ref)}", f"refhash={other_hash}")
    assert lines[0].endswith(other_hash)
    foreign = str(tmp_path / "foreign_pairs.txt")
    Path(foreign).write_text("\n".join(lines) + "\n")
    aligned2 = str(tmp_path / "aligned2.ckpt")
    assert main(["align", "--config", tiny_cfg, "--model", ref, "--pairs", foreign,
                 "--out", aligned2]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "note" in captured.err and other_hash in captured.err and _sha(ref) in captured.err
    doc = json.loads(Path(aligned2 + ".manifest.json").read_text())
    assert doc["ref_hash"] == _sha(ref)
    assert doc["pairs_ref_hash"] == other_hash
    assert doc["ref_hash_match"] is False
    # a mismatch is not an error: stdout and the artifacts are those of the matching run
    assert captured.out.splitlines()[-1] == stdout_match.replace(aligned, aligned2)
    assert Path(aligned2).read_bytes() == Path(aligned).read_bytes()
    assert Path(aligned2 + ".metrics.csv").read_bytes() == Path(aligned + ".metrics.csv").read_bytes()


def test_eval_model_against_itself_wins_half(tmp_path, tiny_cfg, capsys):
    ref = str(tmp_path / "ref.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0
    report = str(tmp_path / "self.csv")
    assert main(["eval", "--config", tiny_cfg, "--model", ref, "--against", ref,
                 "--n", "4", "--out", report]) == 0
    capsys.readouterr()
    win = float(Path(report).read_text().splitlines()[1].split(",")[3])
    assert win == 0.5


def test_eval_decodes_each_model_once(tmp_path, tiny_cfg, capsys, monkeypatch):
    ref, _, aligned = _run_pipeline(tmp_path, tiny_cfg)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return euler_sample(*args, **kwargs)

    monkeypatch.setattr(analytics, "euler_sample", counting)
    report = str(tmp_path / "report.csv")
    assert main(["eval", "--config", tiny_cfg, "--model", aligned, "--against", ref,
                 "--n", "6", "--out", report]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    # reference: both models decode one block of draws on round-robin
    # conditions, rewards are compared trial by trial, ties count half
    cfg = load_config(tiny_cfg)
    (pa, spec), (pb, _) = read_checkpoint(aligned), read_checkpoint(ref)
    n = 6 * spec.cond_dim
    conds = np.eye(spec.cond_dim)[np.arange(n) % spec.cond_dim]
    noise = np.random.default_rng(cfg.get("seed")).standard_normal((n, spec.data_dim))
    xa = euler_sample(pa, spec, noise, conds, cfg.get("sampler.steps"))
    xb = euler_sample(pb, spec, noise, conds, cfg.get("sampler.steps"))
    rewards = reward_eval(cfg.reward(spec.data_dim, spec.cond_dim), np.concatenate([xa, xb]),
                          np.concatenate([conds, conds]))
    ra, rb = rewards[:n], rewards[n:]
    expected = float(np.count_nonzero(ra > rb) + 0.5 * np.count_nonzero(ra == rb)) / n
    rows = [line.split(",") for line in Path(report).read_text().splitlines()[1:]]
    assert rows[0][3] == fmt17(expected)
    assert rows[1][3] == fmt17(1.0 - expected)
    # the reward columns aggregate the same trials
    assert rows[0][1:3] == [fmt17(float(np.mean(ra))), fmt17(float(np.median(ra)))]
    assert rows[1][1:3] == [fmt17(float(np.mean(rb))), fmt17(float(np.median(rb)))]
    assert [row[4] for row in rows] == [str(n), str(n)]
    # the label and seed cells
    assert [row[0] for row in rows] == ["model", "against"]
    assert [row[5] for row in rows] == [str(cfg.get("seed"))] * 2


def test_gen_pairs_n_zero_writes_header_only(tmp_path, tiny_cfg, capsys):
    ref = str(tmp_path / "ref.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0
    out = str(tmp_path / "empty.txt")
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", ref, "--n", "0", "--out", out]) == 0
    capsys.readouterr()
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("rfpnapo-pairs v1 ")


def test_exit_codes(tmp_path, tiny_cfg, capsys):
    ref = str(tmp_path / "ref.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0

    # 2: config trouble (missing required key)
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("seed = 1\n")
    assert main(["pretrain", "--config", str(bad_cfg), "--out", str(tmp_path / "x.ckpt")]) == 2

    # 2: a negative seed, which numpy's generators reject, fails at parse time
    for command in ("pretrain", "gen-pairs"):
        neg_cfg = tmp_path / "neg_seed.cfg"
        neg_cfg.write_text(TINY_CFG.replace("seed = 9", "seed = -1"))
        argv = ["--config", str(neg_cfg), "--out", str(tmp_path / "x.out")]
        if command == "gen-pairs":
            argv += ["--model", ref, "--n", "2"]
        capsys.readouterr()
        assert main([command, *argv]) == 2, command
        assert f"{neg_cfg}:2: bad value for seed: expected a non-negative integer" in capsys.readouterr().err

    # 2: unknown config key
    unk_cfg = tmp_path / "unk.cfg"
    unk_cfg.write_text(TINY_CFG + "quantum.flux = 1\n")
    assert main(["pretrain", "--config", str(unk_cfg), "--out", str(tmp_path / "x.ckpt")]) == 2

    # 3: missing checkpoint, reported by its reader
    capsys.readouterr()
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", str(tmp_path / "nope.ckpt"),
                 "--n", "2", "--out", str(tmp_path / "p.txt")]) == 3
    assert f"checkpoint not found: {tmp_path / 'nope.ckpt'}" in capsys.readouterr().err

    # 3: missing config file
    assert main(["pretrain", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x.ckpt")]) == 3

    # 5: malformed dataset
    bad_pairs = tmp_path / "bad_pairs.txt"
    bad_pairs.write_text("not a dataset header\n")
    assert main(["align", "--config", tiny_cfg, "--model", ref,
                 "--pairs", str(bad_pairs), "--out", str(tmp_path / "a.ckpt")]) == 5

    # 4: dimension mismatch between dataset and checkpoint
    pairs = str(tmp_path / "pairs.txt")
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", ref, "--n", "3", "--out", pairs]) == 0
    text = Path(pairs).read_text().replace("cdim=2", "cdim=4")
    mismatched = tmp_path / "mismatched.txt"
    mismatched.write_text(text)
    rc = main(["align", "--config", tiny_cfg, "--model", ref,
               "--pairs", str(mismatched), "--out", str(tmp_path / "a.ckpt")])
    assert rc in (4, 5)  # header-vs-record width may parse-fail first

    # 5: a checkpoint with a non-finite parameter fails at load, not in the sampler
    blob = bytearray(Path(ref).read_bytes())
    first_param = 12 + 8 * int.from_bytes(blob[8:12], "little")  # after the layer shape table
    blob[first_param:first_param + 8] = np.float64(np.nan).tobytes()
    nan_ckpt = str(tmp_path / "nan.ckpt")
    Path(nan_ckpt).write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", nan_ckpt,
                 "--n", "2", "--out", str(tmp_path / "p.txt")]) == 5
    assert "non-finite" in capsys.readouterr().err

    # 5: corrupt checkpoint bytes
    bad_ckpt = tmp_path / "bad.ckpt"
    bad_ckpt.write_bytes(b"\x00" * 32)
    assert main(["eval", "--config", tiny_cfg, "--model", str(bad_ckpt),
                 "--against", ref, "--out", str(tmp_path / "r.csv")]) == 5

    # 5: inputs are read in order, so a corrupt checkpoint fails before a missing pair file
    assert main(["align", "--config", tiny_cfg, "--model", str(bad_ckpt),
                 "--pairs", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "a.ckpt")]) == 5
    capsys.readouterr()


# the config keys with no default, and the commands that read each
NO_DEFAULT = [key for key, (_, default) in _KEYS.items() if default is None]
READ_BY = {
    "pretrain": {"seed", "train.lr", "train.steps", "train.batch"},
    "gen-pairs": {"seed", "reward.kind"},
    "align": {"seed", "train.lr", "train.steps", "train.batch", "pnapo.beta"},
    "eval": {"seed", "reward.kind"},
    "corpus": {"seed"},
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory) -> dict[str, str]:
    """A tiny checkpoint, its pairs, an empty corpus, and checkpoints of another data dim or condition count."""
    root = tmp_path_factory.mktemp("tiny_run")
    paths = {name: str(root / name) for name in ("cfg", "ref", "pairs", "tsv", "dim3", "cond3")}
    Path(paths["cfg"]).write_text(TINY_CFG)
    Path(paths["tsv"]).write_text("")
    assert main(["pretrain", "--config", paths["cfg"], "--out", paths["ref"]]) == 0
    assert main(["gen-pairs", "--config", paths["cfg"], "--model", paths["ref"], "--n", "6",
                 "--out", paths["pairs"]]) == 0
    for name, key in (("dim3", "data.dim"), ("cond3", "data.conditions")):
        other = root / f"{name}.cfg"
        other.write_text(TINY_CFG.replace(f"{key} = 2", f"{key} = 3"))
        assert main(["pretrain", "--config", str(other), "--out", paths[name]]) == 0
    return paths


@pytest.mark.parametrize("key", NO_DEFAULT)
@pytest.mark.parametrize("command", list(READ_BY))
def test_missing_key_exits_2_naming_it_iff_the_command_reads_it(tmp_path, tiny_run, capsys, command, key):
    cfg = tmp_path / "cfg"
    cfg.write_text("\n".join(line for line in TINY_CFG.splitlines() if not line.startswith(f"{key} =")))
    out = tmp_path / "out"
    argv = {
        "pretrain": ["pretrain"],
        "gen-pairs": ["gen-pairs", "--model", tiny_run["ref"], "--n", "2"],
        "align": ["align", "--model", tiny_run["ref"], "--pairs", tiny_run["pairs"]],
        "eval": ["eval", "--model", tiny_run["ref"], "--against", tiny_run["ref"], "--n", "2"],
        "corpus": ["corpus", tiny_run["tsv"]],
    }[command] + ["--config", str(cfg), "--out", str(out)]
    capsys.readouterr()
    if key in READ_BY[command]:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"rfpnapo: missing required config key {key!r}\n"
        assert list(tmp_path.iterdir()) == [cfg]
    else:
        assert main(argv) == 0
        capsys.readouterr()


@pytest.mark.parametrize("other", ["dim3", "cond3"])
@pytest.mark.parametrize("method", ["pnapo", "dpo", "sft"])
def test_align_dim_mismatch_via_different_checkpoint(tmp_path, tiny_run, capsys, method, other):
    # 2-D, 2-condition pairs against a checkpoint with 3 dims or 3 conditions: exit 4, nothing written
    capsys.readouterr()
    assert main(["align", "--config", tiny_run["cfg"], "--model", tiny_run[other], "--pairs", tiny_run["pairs"],
                 "--method", method, "--out", str(tmp_path / "a.ckpt")]) == 4
    assert "rfpnapo: path rows have shapes" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shapes, dims", INCONSISTENT_CHECKPOINTS)
def test_align_on_an_inconsistent_checkpoint_exits_4_and_writes_nothing(tmp_path, tiny_run, capsys, shapes, dims):
    model = tmp_path / "bad.ckpt"
    model.write_bytes(checkpoint_bytes(shapes, dims))
    capsys.readouterr()
    assert main(["align", "--config", tiny_run["cfg"], "--model", str(model), "--pairs", tiny_run["pairs"],
                 "--out", str(tmp_path / "a.ckpt")]) == 4
    assert capsys.readouterr().err.startswith("rfpnapo: ")
    assert list(tmp_path.iterdir()) == [model]


@pytest.mark.parametrize("other", ["dim3", "cond3"])
def test_eval_against_a_checkpoint_of_other_dims_exits_4_and_writes_nothing(tmp_path, tiny_run, capsys, other):
    capsys.readouterr()
    assert main(["eval", "--config", tiny_run["cfg"], "--model", tiny_run["ref"], "--against", tiny_run[other],
                 "--n", "2", "--out", str(tmp_path / "r.csv")]) == 4
    assert "have shape" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_pair_header_claiming_a_huge_dim_fails_on_line_2(tmp_path, tiny_run, capsys):
    # the reader sizes its matrix by the record text, not by the header's claim
    pairs = tmp_path / "huge.txt"
    for key, found in (("dim", 1), ("cdim", 2)):
        for claim in (10**15, 10**20):
            dims = {"dim": 2, "cdim": 2, key: claim}
            pairs.write_text(f"rfpnapo-pairs v1 dim={dims['dim']} cdim={dims['cdim']} steps=5 refhash=abc\n"
                             "1 0 | 1 | 1 | 1 | 1 | 0.5\n")
            capsys.readouterr()
            assert main(["align", "--config", tiny_run["cfg"], "--model", tiny_run["ref"], "--pairs", str(pairs),
                         "--out", str(tmp_path / "a.ckpt")]) == 5
            assert f"line 2: expected {claim} numbers, found {found}" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == [pairs]


@pytest.mark.parametrize("key", ["dim", "cdim"])
def test_header_only_pair_file_past_numpys_size_limit_fails_on_line_1(tmp_path, tiny_run, capsys, key):
    dims = {"dim": 2, "cdim": 2, key: 10**20}
    pairs = tmp_path / "huge.txt"
    pairs.write_text(f"rfpnapo-pairs v1 dim={dims['dim']} cdim={dims['cdim']} steps=5 refhash=abc\n")
    capsys.readouterr()
    assert main(["align", "--config", tiny_run["cfg"], "--model", tiny_run["ref"], "--pairs", str(pairs),
                 "--out", str(tmp_path / "a.ckpt")]) == 5
    assert "line 1: a record of " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [pairs]


# every single-key range the config checks at load, with values just outside it
_OUT_OF_RANGE = [
    *[(key, raw) for key in ("data.dim", "data.conditions", "train.steps", "train.batch", "pnapo.n1",
                             "pnapo.n2", "sampler.steps", "corpus.k_clusters", "corpus.per_cluster",
                             "corpus.kmeans_iters") for raw in ("0", "-1")],
    ("model.hidden", "0"), ("model.hidden", "8,0"), ("model.hidden", "-3,8"),
    *[(key, raw) for key in ("train.lr", "pnapo.beta", "data.mixture.std") for raw in ("0", "-1e-3")],
    *[(f"corpus.{name}_threshold", raw) for name in ("toxicity", "jaccard", "cosine")
      for raw in ("-0.1", "1.5")],
    ("reward.kind", "mode"), ("reward.kind", "direction_dot"), ("reward.kind", "quadratic_bowl"),
]


@pytest.mark.parametrize("key, raw", _OUT_OF_RANGE)
def test_out_of_range_config_value_exits_2_with_its_line(tmp_path, capsys, key, raw):
    # checked at load for every key in the file, also those the command does not use
    lines = [line for line in TINY_CFG.splitlines() if not line.startswith(f"{key} =")]
    cfg = tmp_path / "range.cfg"
    cfg.write_text("\n".join(lines + [f"{key} = {raw}"]) + "\n")
    out = tmp_path / "x.ckpt"
    assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"rfpnapo: {cfg}:{len(lines) + 1}: bad value for {key}: expected " in capsys.readouterr().err
    assert not out.exists()


def test_eval_compares_checkpoints_of_different_widths(tmp_path, tiny_cfg, capsys):
    ref, _, aligned = _run_pipeline(tmp_path, tiny_cfg)
    narrow_cfg = tmp_path / "narrow.cfg"
    narrow_cfg.write_text(TINY_CFG.replace("model.hidden = 8,8", "model.hidden = 16"))
    narrow = str(tmp_path / "narrow.ckpt")
    assert main(["pretrain", "--config", str(narrow_cfg), "--out", narrow]) == 0
    report = str(tmp_path / "report.csv")
    for model, against in ((aligned, narrow), (narrow, ref)):
        assert main(["eval", "--config", tiny_cfg, "--model", model, "--against", against,
                     "--n", "5", "--out", report]) == 0
        rows = [line.split(",")[0] for line in Path(report).read_text().splitlines()[1:]]
        assert rows == ["model", "against"]
    capsys.readouterr()


@pytest.mark.parametrize("kind, code", [("config", 2), ("pairs", 5), ("corpus", 5)])
def test_non_utf8_input_fails_on_its_line(tmp_path, tiny_cfg, capsys, kind, code):
    out = str(tmp_path / "x.out")
    bad = tmp_path / f"bad.{kind}"
    if kind == "config":
        lines = TINY_CFG.splitlines()  # line 1 is blank
        bad.write_bytes("\n".join(lines[:3]).encode() + b"\n# caf\xff\n" + "\n".join(lines[3:]).encode())
        argv = ["pretrain", "--config", str(bad), "--out", out]
        where = f"{bad}:4: "
    elif kind == "pairs":
        ref, pairs, _ = _run_pipeline(tmp_path, tiny_cfg)
        lines = Path(pairs).read_bytes().split(b"\n")
        bad.write_bytes(b"\n".join(lines[:3] + [lines[3] + b"\xff"] + lines[4:]))
        argv = ["align", "--config", tiny_cfg, "--model", ref, "--pairs", str(bad), "--out", out]
        where = "line 4: "
    else:
        bad.write_bytes(b"id\ttext\ttox\te0\nr0\tok\t0.0\t1.0\nr1\tcaf\xe9\t0.0\t2.0\n")
        argv = ["corpus", str(bad), "--config", tiny_cfg, "--out", out]
        where = "line 3: "
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert where in err and "not UTF-8" in err
    assert not Path(out).exists()


def test_verify_subcommand_exit_codes(capsys):
    assert main(["verify", "--suite", "schedule"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "," in l]
    assert all(l.split(",")[1] == "PASS" for l in lines)


def test_corpus_fixture_stage_counts(tmp_path, capsys):
    # the committed fixture CI's entry-point step runs: each stage drops its
    # planted records, and k-means finds the four planted topics
    out = str(tmp_path / "corpus.tsv")
    assert main(["corpus", str(FIXTURES / "corpus_small.tsv"),
                 "--config", str(FIXTURES / "corpus.cfg"), "--out", out]) == 0
    assert capsys.readouterr().out == (
        "corpus: input=40, after_toxicity=37, after_jaccard=36, after_cosine=35, "
        f"clusters=4, output=24, wrote {out}\n"
    )
    kept = [line.split("\t")[0] for line in Path(out).read_text().splitlines()[1:]]
    assert not any(rid.endswith(("_toxic", "_textdup", "_embdup")) for rid in kept)
    assert sorted(Counter(rid[:2] for rid in kept).items()) == [(f"c{c}", 6) for c in range(4)]


def test_corpus_subcommand_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "corpus.cfg"
    cfg.write_text("""
seed = 4
corpus.toxicity_threshold = 0.1
corpus.jaccard_threshold = 0.8
corpus.cosine_threshold = 0.8
corpus.k_clusters = 2
corpus.per_cluster = 2
corpus.kmeans_iters = 10
""")
    src = tmp_path / "in.tsv"
    rows = ["id\ttext\ttox\te0\te1"]
    for i in range(8):
        angle = 0.7 * i
        rows.append(f"r{i}\tprompt number {i} body {i * 3}\t0.01\t{np.cos(angle):.17g}\t{np.sin(angle):.17g}")
    rows.append("tox1\tbad one\t0.9\t0.1\t0.2")
    src.write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "out.tsv")
    assert main(["corpus", str(src), "--config", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    doc = json.loads(Path(out + ".manifest.json").read_text())
    counts = doc["stage_counts"]
    assert counts["input"] == 9
    assert counts["after_toxicity"] == 8
    assert counts["output"] <= 4
    kept, dim = Path(out).read_text(), 2
    assert kept.splitlines()[0] == "id\ttext\ttox\te0\te1"

    # parse failure propagates as exit 5
    broken = tmp_path / "broken.tsv"
    broken.write_text("id\ttext\ttox\te0\ne1\tx\tnot_a_number\t0\n")
    assert main(["corpus", str(broken), "--config", str(cfg), "--out", out]) == 5
    capsys.readouterr()

    # so does a non-finite embedding, before it reaches k-means
    broken.write_text("\n".join(rows[:3] + ["r9\tnan row\t0.01\tnan\t1.0"] + rows[3:]) + "\n")
    assert main(["corpus", str(broken), "--config", str(cfg), "--out", out]) == 5
    assert "line 4: non-finite" in capsys.readouterr().err


def test_corpus_empty_input(tmp_path, capsys):
    cfg = tmp_path / "corpus.cfg"
    cfg.write_text("seed = 1\n")
    src = tmp_path / "in.tsv"
    src.write_text("")
    out = str(tmp_path / "out.tsv")
    assert main(["corpus", str(src), "--config", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    back = Path(out).read_text()
    assert back == "" or back.startswith("id\t")


def test_pretrain_curve_fixture_converges(tmp_path, capsys):
    # committed two-mode fixture: the last batch loss must sit far below the
    # step-10 batch loss
    out = str(tmp_path / "curve.ckpt")
    assert main(["pretrain", "--config", str(FIXTURES / "pretrain_curve.cfg"), "--out", out]) == 0
    capsys.readouterr()
    rows = Path(out + ".metrics.csv").read_text().splitlines()[1:]
    by_step = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert by_step[3000] < 0.2 * by_step[10]


def test_multimode_fixture_pretrains_byte_identically(tmp_path, capsys):
    # the committed fixture gives its conditions 2 and 3 modes
    cfg = str(FIXTURES / "multimode_pretrain.cfg")
    assert list(load_config(cfg).mixture().counts) == [2, 3]
    outs = [str(tmp_path / name / "mm.ckpt") for name in ("a", "b")]
    for out in outs:
        assert main(["pretrain", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()
    assert Path(outs[0] + ".metrics.csv").read_bytes() == Path(outs[1] + ".metrics.csv").read_bytes()


def test_checkpoint_spec_round_trip_through_cli(tmp_path, tiny_cfg, capsys):
    ref = str(tmp_path / "ref.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0
    capsys.readouterr()
    _, spec = read_checkpoint(ref)
    assert spec.data_dim == 2 and spec.cond_dim == 2 and spec.hidden == (8, 8)


# every column that is not a float; int and str cells are written as str
STR_CELLS = {
    "step": st.integers(1, 2**63),
    "n": st.integers(1, 10**12),
    "seed": st.integers(0, 2**64 - 1),
    "model": st.sampled_from(["model", "against"]),
}


# the keys of the pretrain, align and eval rows, in the order their builders give them
@pytest.mark.parametrize("columns, header", [
    (("step", "loss", "grad_norm"), "step,loss,grad_norm"),
    (("step", "loss", "margin_mean", "beta_eff_mean", "grad_norm"),
     "step,loss,margin_mean,beta_eff_mean,grad_norm"),
    (("model", "mean_reward", "median_reward", "win_rate", "n", "seed"),
     "model,mean_reward,median_reward,win_rate,n,seed"),
])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_metrics_csv_round_trips_bitwise(tmp_path_factory, columns, header, data):
    """All three CSVs: the first row's keys as header, int and str cells as str, floats that read back bitwise."""
    # each row's keys in column order; fixed_dictionaries need not keep it
    cells = st.tuples(*(STR_CELLS.get(col, st.floats(allow_nan=False)) for col in columns))
    rows = data.draw(st.lists(cells.map(lambda row: dict(zip(columns, row))), min_size=1, max_size=12))
    path = tmp_path_factory.mktemp("metrics") / "run.metrics.csv"
    _write_csv(str(path), rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) == len(rows) + 1
    for row, line in zip(rows, lines[1:]):
        back = line.split(",")
        assert len(back) == len(columns)
        for col, cell in zip(columns, back):
            if col in STR_CELLS:
                assert cell == str(row[col])
            else:
                assert np.float64(float(cell)).tobytes() == np.float64(row[col]).tobytes(), col
